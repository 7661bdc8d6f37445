"""simlint core: source model, allowlists, rule registry, runner.

The analyzer parses every Python file it is pointed at into a
:class:`SourceModule` (path, dotted module name, AST, allowlist entries)
and hands the whole collection to each registered rule, so rules can be
cross-file (the mechanism-contract rules read hook signatures out of
``mechanisms/base.py`` while checking ``mechanisms/tcp.py``).

Scoping
-------
Rules declare the packages they police (``PACKAGES``).  A module that
lives inside the ``repro`` package is checked by a rule only when its
dotted name falls under one of those packages; a *standalone* file — one
not importable as ``repro.*``, e.g. a test fixture — is checked by every
rule.  That is what lets one known-bad snippet per rule live under
``tests/analysis_fixtures/`` without having to fake a package tree.

Allowlisting
------------
A violation is suppressed by an inline comment on the flagged line or
the line above it::

    value = os.environ.get("REPRO_SANITIZE")  # simlint: allow[SIM203] read once at import

The bracket takes a comma-separated list of rule ids (or ``*`` for all
rules — reserve that for generated code).  The text after the bracket is
the required justification; an allow comment with no reason is itself a
violation (SIM001), because an unexplained suppression is exactly the
kind of silent methodology drift the paper warns about.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, cast,
)

#: Packages (dotted, relative to ``repro``) that constitute the simulated
#: path: code whose behaviour feeds a RunResult and therefore the
#: content-addressed result store.  Determinism rules police these.
SIM_PATH_PACKAGES: Tuple[str, ...] = (
    "kernel", "cache", "cpu", "dram", "mechanisms", "trace",
)

_ALLOW_RE = re.compile(
    r"#\s*simlint:\s*allow\[(?P<rules>[^\]]+)\]\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    rule: str                 # e.g. "SIM203"
    name: str                 # symbolic name, e.g. "env-read"
    path: str                 # file path as given to the analyzer
    line: int                 # 1-based
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.name}] {self.message}"


@dataclass(frozen=True)
class AllowEntry:
    """A parsed ``# simlint: allow[...]`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str

    def covers(self, rule: str, line: int) -> bool:
        # An allow comment suppresses its own line and the line below it
        # (so it can sit above a long statement).
        if line not in (self.line, self.line + 1):
            return False
        return "*" in self.rules or rule in self.rules


#: ``ast.parse`` calls performed through :class:`SourceModule` since the
#: last :func:`clear_parse_cache`.  Tests assert on this to pin the
#: parse-each-file-exactly-once property of a full run.
_PARSE_COUNT = 0


class SourceModule:
    """One parsed source file plus its lint metadata."""

    def __init__(self, path: Path, text: str, module: Optional[str]) -> None:
        global _PARSE_COUNT
        self.path = path
        self.text = text
        self.module = module          # dotted name under repro, or None
        _PARSE_COUNT += 1
        self.tree = ast.parse(text, filename=str(path))
        self.allows = _parse_allows(text)

    @property
    def standalone(self) -> bool:
        """True when the file is not part of the ``repro`` package."""
        return self.module is None

    def in_package(self, packages: Iterable[str]) -> bool:
        """Whether this module falls under any of ``packages``.

        Standalone files (fixtures, ad-hoc snippets) match every package
        so each bad-example file exercises its rule without scaffolding.
        """
        if self.module is None:
            return True
        for package in packages:
            if package == "":  # whole-tree rule
                return True
            if self.module == package or self.module.startswith(package + "."):
                return True
        return False

    def allowed(self, rule: str, line: int) -> bool:
        return any(entry.covers(rule, line) for entry in self.allows)


def _parse_allows(text: str) -> List[AllowEntry]:
    entries: List[AllowEntry] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        match = _ALLOW_RE.search(line)
        if match is None:
            continue
        rules = tuple(
            token.strip() for token in match.group("rules").split(",")
            if token.strip()
        )
        entries.append(AllowEntry(lineno, rules, match.group("reason").strip()))
    return entries


# -- rule registry -------------------------------------------------------------

#: A rule callable: (module, all_modules) -> violations for that module.
RuleFn = Callable[[SourceModule, Sequence[SourceModule]], List[Violation]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    rule_id: str
    name: str
    packages: Tuple[str, ...]     # dotted packages under repro this rule scans
    doc: str
    fn: RuleFn = field(compare=False)


_RULES: Dict[str, Rule] = {}


def rule(
    rule_id: str, name: str, packages: Tuple[str, ...], doc: str
) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering ``fn`` as lint rule ``rule_id``."""

    def register(fn: RuleFn) -> RuleFn:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _RULES[rule_id] = Rule(rule_id, name, packages, doc, fn)
        return fn

    return register


def all_rules() -> List[Rule]:
    return [_RULES[key] for key in sorted(_RULES)]


def make_violation(
    rule_obj: Rule, module: SourceModule, node_or_line: object, message: str
) -> Violation:
    raw = getattr(node_or_line, "lineno", node_or_line)
    return Violation(
        rule=rule_obj.rule_id,
        name=rule_obj.name,
        path=str(module.path),
        line=raw if isinstance(raw, int) else 1,
        message=message,
    )


# -- loading -------------------------------------------------------------------

def _module_name(path: Path) -> Optional[str]:
    """Dotted name relative to the ``repro`` package, or None."""
    parts = path.resolve().with_suffix("").parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            inner = [p for p in parts[i + 1:] if p != "__init__"]
            return ".".join(inner) if inner else ""
    return None


#: Cross-call parse cache: resolved path -> (mtime_ns, size, module).
#: ``analyze_paths`` used to re-parse the whole tree on every call, which
#: multiplied across the CLI's fixture-rejection loop; the cache makes a
#: full run parse each file exactly once (``parse_count`` pins that in
#: tests).
_PARSE_CACHE: Dict[str, Tuple[int, int, SourceModule]] = {}


def parse_count() -> int:
    """``ast.parse`` calls performed since :func:`clear_parse_cache`."""
    return _PARSE_COUNT


def clear_parse_cache() -> None:
    """Drop cached parses and reset the parse counter (test isolation)."""
    global _PARSE_COUNT
    _PARSE_CACHE.clear()
    _PARSE_COUNT = 0


def _load_file(file: Path) -> SourceModule:
    """Parse ``file``, served from the cross-call cache when unchanged.

    Freshness is keyed on (mtime_ns, size) so an edited file re-parses;
    a cached module is reused only when asked for under the same spelling
    of its path (violation rendering shows the path as given).
    """
    key = str(file.resolve())
    stat = file.stat()
    cached = _PARSE_CACHE.get(key)
    if (cached is not None and cached[0] == stat.st_mtime_ns
            and cached[1] == stat.st_size and str(cached[2].path) == str(file)):
        return cached[2]
    module = SourceModule(file, file.read_text("utf-8"), _module_name(file))
    _PARSE_CACHE[key] = (stat.st_mtime_ns, stat.st_size, module)
    return module


def load_paths(paths: Sequence[Path]) -> Tuple[List[SourceModule], List[Violation]]:
    """Parse every ``.py`` file under ``paths``; syntax errors become SIM000."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    modules: List[SourceModule] = []
    errors: List[Violation] = []
    for file in files:
        try:
            modules.append(_load_file(file))
        except SyntaxError as exc:
            errors.append(Violation(
                rule="SIM000", name="syntax-error", path=str(file),
                line=exc.lineno or 1, message=f"cannot parse: {exc.msg}",
            ))
    return modules, errors


# -- running -------------------------------------------------------------------

_T = TypeVar("_T")


class ModuleSet(List[SourceModule]):
    """The modules of one :func:`analyze_modules` call.

    Cross-module rules read indexes of the whole set (every class's
    bases, every ``bind()`` target) through :func:`cross_module_index`,
    which builds each index once per set — once per call, not once per
    module checked.  The indexes live and die with the set, so none
    outlives the call.
    """

    def __init__(self, modules: Iterable[SourceModule]) -> None:
        super().__init__(modules)
        self.indexes: Dict[Callable[..., object], object] = {}


def cross_module_index(
    modules: Sequence[SourceModule],
    build: Callable[[Sequence[SourceModule]], _T],
) -> _T:
    """``build(modules)``, built once per :func:`analyze_modules` call."""
    if not isinstance(modules, ModuleSet):
        return build(modules)
    if build not in modules.indexes:
        modules.indexes[build] = build(modules)
    return cast(_T, modules.indexes[build])


def _check_allow_reasons(module: SourceModule) -> List[Violation]:
    """SIM001: every allow comment must carry a justification."""
    found = []
    for entry in module.allows:
        if not entry.reason:
            found.append(Violation(
                rule="SIM001", name="bare-allowlist", path=str(module.path),
                line=entry.line,
                message="allow comment without a reason; say why the "
                        "suppression is sound",
            ))
    return found


def analyze_modules(
    modules: Sequence[SourceModule],
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Run every registered rule over ``modules``; return sorted violations."""
    active = all_rules()
    if select:
        prefixes = tuple(select)
        active = [r for r in active if r.rule_id.startswith(prefixes)
                  or r.name in prefixes]
    corpus = ModuleSet(modules)
    violations: List[Violation] = []
    for module in corpus:
        violations.extend(_check_allow_reasons(module))
    for rule_obj in active:
        for module in corpus:
            if not module.in_package(rule_obj.packages):
                continue
            for violation in rule_obj.fn(module, corpus):
                if module.allowed(violation.rule, violation.line):
                    continue
                violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def analyze_paths(
    paths: Sequence[Path], select: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Load ``paths`` and run the analyzer; parse errors are violations too."""
    modules, errors = load_paths(paths)
    return errors + analyze_modules(modules, select=select)
