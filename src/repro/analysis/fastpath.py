"""SIM8xx — guard-completeness verification of the generated fast path.

The trace-speculation fast path (:mod:`repro.cpu.fastpath`,
:meth:`repro.cpu.ooo.OoOCore._emit_fast_loop`) is bit-identical to the
reference loop today, but that equivalence rests on golden tests: run the
same trace twice and diff the stats.  A test can only witness the shapes
and traces it runs.  These rules turn the invariant into a *lint-time
proof obligation*: instantiate the emitters for every registered machine
shape, parse the **emitted** source, and discharge three obligations
against the machine-readable emitter metadata
(:data:`~repro.cpu.fastpath.GUARDS`,
:data:`~repro.cpu.fastpath.STATE_OF_BINDING`,
:data:`~repro.cpu.fastpath.INVARIANT_STATES`):

* SIM801 ``unguarded-state`` — every replay sequence must carry exactly
  the guards its machine shape requires (the event drain, one abort per
  prefetch queue, the residency probe), in emitter order; every free
  name the emitted code references must map to a known simulator state;
  every such state must be covered by a present guard or be provably
  invariant; and no state may be written before the last abort point.
* SIM802 ``replay-order`` — the commit region's ordered sequence of
  state writes must equal the sequence the slow path's hit case performs,
  extracted by symbolically walking ``MemoryHierarchy.load`` /
  ``store`` / ``fetch_instruction`` and ``Cache.access`` under the
  shape's truth assignment (hit taken, residency confirmed).
* SIM803 ``stale-constant`` — every constant the emitter bakes into a
  branch (line bits, set mask, associativity, port count, hit latency,
  ledger prune threshold, counter indices, the dirty-bit mask) must
  equal the live machine's value, and each conditional construct (dirty
  marking, mechanism hook, outer stat bump, image write, tag pipeline)
  must be present exactly when the shape calls for it.

In-tree, the rules anchor on ``cpu/fastpath.py`` and verify every shape;
standalone files opt in by carrying a ``# sim-fastpath:`` marker line
describing the shape their ``def replay`` claims to implement (that is
how the known-bad fixtures exercise each rule without a live machine).
:func:`iter_guard_mutations` produces syntactically valid variants of an
emitted source with exactly one guard removed — the mutation tests prove
SIM801 catches every one of them, for every shape.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.contract import _rule
from repro.analysis.core import (
    SourceModule,
    Violation,
    make_violation,
    rule,
)

#: A finding before it is bound to a module: (rule id, line, message).
Finding = Tuple[str, int, str]

_PACKAGES = ("cpu",)

#: Names the emitted source may reference that are interpreter builtins,
#: not simulator state.
_BUILTINS = frozenset({
    "len", "bool", "max", "min", "range",
    "ValueError", "StopIteration", "IndexError", "KeyError",
})

#: Inline-block prefixes used by the generated run loop.
_PREFIX_RE = re.compile(r"^(if_|ld_|st_)(.+)$")
_QUEUE_RE = re.compile(r"^queue\d+$")

_MARKER_RE = re.compile(r"#\s*sim-fastpath:\s*(?P<fields>.+)$", re.MULTILINE)

#: Calls the emitted code may make before the abort frontier: the kernel
#: drain (exactly what the slow path's advance would run) and the pure
#: probes.
_PREFRONTIER_CALLS = frozenset({"run_until", "tags_index", "ledger_get"})


@dataclass(frozen=True)
class ArtifactShape:
    """Everything the verifier must know about one emitted artifact."""

    kind: str          # "load" | "store" | "ifetch"
    queues: int        # prefetch queues the shape must guard
    hook: bool         # mechanism.on_access baked into the commit region
    write: bool        # store semantics (dirty marking, image write)
    image: bool        # hierarchy has a memory image attached
    precise: bool      # tag pipeline modeled (precise cache timing)
    line_bits: int
    set_mask: int
    assoc: int
    n_ports: int
    latency: int
    prune_every: int


def shape_of(hierarchy: Any, kind: str) -> ArtifactShape:
    """Derive the expected :class:`ArtifactShape` from a live hierarchy."""
    cache = hierarchy.l1i if kind == "ifetch" else hierarchy.l1d
    return ArtifactShape(
        kind=kind,
        queues=len(hierarchy._mech_queues),
        hook=(kind != "ifetch" and cache.mechanism is not None),
        write=(kind == "store"),
        image=(hierarchy.image is not None),
        precise=cache.precise,
        line_bits=cache.line_bits,
        set_mask=cache._set_mask,
        assoc=cache.assoc,
        n_ports=cache.ports.n_ports,
        latency=cache.config.latency,
        prune_every=cache.ports._PRUNE_EVERY,
    )


def _marker_shape(text: str) -> Optional[ArtifactShape]:
    """Parse a ``# sim-fastpath: key=value ...`` marker into a shape."""
    match = _MARKER_RE.search(text)
    if match is None:
        return None
    fields: Dict[str, str] = {}
    for token in match.group("fields").split():
        if "=" in token:
            key, _, value = token.partition("=")
            fields[key] = value
    try:
        return ArtifactShape(
            kind=fields.get("kind", "load"),
            queues=int(fields.get("queues", "0")),
            hook=fields.get("hook", "0") == "1",
            write=fields.get("kind", "load") == "store",
            image=fields.get("image", "0") == "1",
            precise=fields.get("precise", "1") == "1",
            line_bits=int(fields.get("line_bits", "5")),
            set_mask=int(fields.get("set_mask", "127")),
            assoc=int(fields.get("assoc", "4")),
            n_ports=int(fields.get("n_ports", "1")),
            latency=int(fields.get("latency", "1")),
            prune_every=int(fields.get("prune_every", "8192")),
        )
    except ValueError:
        return None


# -- name → canonical state ----------------------------------------------------

def _state_of(name: str) -> Optional[str]:
    """Canonical simulator state for one emitted binding name, or None."""
    from repro.cpu.fastpath import STATE_OF_BINDING

    if name.startswith("g_"):
        name = name[2:]
    if _QUEUE_RE.match(name):
        return "mechanism.queue"
    if name in STATE_OF_BINDING:
        return STATE_OF_BINDING[name]
    stripped = _PREFIX_RE.match(name)
    if stripped is not None:
        inner = stripped.group(2)
        if _QUEUE_RE.match(inner):
            return "mechanism.queue"
        return STATE_OF_BINDING.get(inner)
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """The root Name of an attribute/subscript chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# -- frames --------------------------------------------------------------------

@dataclass
class _Frame:
    """One replay sequence: a closure body or an inline while-True block."""

    node: ast.AST
    body: List[ast.stmt]
    prefix: str


def _frames(tree: ast.Module) -> List[_Frame]:
    fn = next(
        (n for n in tree.body
         if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))), None
    )
    if fn is None:
        return []
    inline = [
        node for node in ast.walk(fn)
        if isinstance(node, ast.While)
        and isinstance(node.test, ast.Constant) and node.test.value is True
    ]
    frames: List[_Frame] = []
    if inline:
        for node in inline:
            prefix = ""
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    match = _PREFIX_RE.match(inner.id)
                    if match and match.group(2) == "tags":
                        prefix = match.group(1)
                        break
            frames.append(_Frame(node, list(node.body), prefix))
        return frames
    return [_Frame(fn, list(fn.body), "")]


# -- guard detection -----------------------------------------------------------

@dataclass
class _Guard:
    name: str                  # "event-drain" | "queued-prefetch" | "resident"
    node: ast.stmt
    counter: int
    queue: Optional[str] = None
    has_abort: bool = False


def _counter_bumps(node: ast.AST) -> List[Tuple[int, ast.AugAssign]]:
    bumps: List[Tuple[int, ast.AugAssign]] = []
    for inner in ast.walk(node):
        if (isinstance(inner, ast.AugAssign)
                and isinstance(inner.target, ast.Subscript)
                and isinstance(inner.target.value, ast.Name)
                and inner.target.value.id == "counts_"
                and isinstance(inner.target.slice, ast.Constant)):
            bumps.append((inner.target.slice.value, inner))
    return bumps


def _has_abort(nodes: Sequence[ast.stmt]) -> bool:
    for node in nodes:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Break):
                return True
            if isinstance(inner, ast.Return) and (
                inner.value is None
                or (isinstance(inner.value, ast.Constant)
                    and inner.value.value is None)
            ):
                return True
    return False


def _detect_guards(frame: _Frame) -> List[_Guard]:
    from repro.cpu.fastpath import (
        ABORT_MISS,
        ABORT_QUEUED_PREFETCH,
        EVENT_DRAINS,
    )

    guards: List[_Guard] = []
    for node in ast.walk(frame.node):
        if isinstance(node, ast.If):
            indices = {index for index, _ in _counter_bumps(node)}
            if EVENT_DRAINS in indices and any(
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id.endswith("run_until")
                for inner in ast.walk(node)
            ):
                guards.append(_Guard("event-drain", node, EVENT_DRAINS))
            elif ABORT_QUEUED_PREFETCH in indices:
                queue = None
                for inner in ast.walk(node.test):
                    if isinstance(inner, ast.Name) and _QUEUE_RE.match(
                            inner.id.replace("g_", "", 1)):
                        queue = inner.id
                guards.append(_Guard(
                    "queued-prefetch", node, ABORT_QUEUED_PREFETCH,
                    queue=queue, has_abort=_has_abort(node.body),
                ))
            elif ABORT_MISS in indices:
                # The direct-mapped probe: one tag compare.
                guards.append(_Guard(
                    "resident", node, ABORT_MISS,
                    has_abort=_has_abort(node.body),
                ))
        elif isinstance(node, ast.Try):
            for handler in node.handlers:
                indices = {index for index, _ in _counter_bumps(handler)}
                if ABORT_MISS in indices:
                    guards.append(_Guard(
                        "resident", node, ABORT_MISS,
                        has_abort=_has_abort(handler.body),
                    ))
    return guards


# -- the fast side: ordered commit-region writes -------------------------------

def _emit_state(seq: List[str], state: Optional[str]) -> None:
    if state is None or state in ("speculation.counters", "local",
                                  "core.tables", "hierarchy.slowpath"):
        return
    if not seq or seq[-1] != state:
        seq.append(state)


def _nodes_in_order(node: ast.AST) -> List[ast.AST]:
    return sorted(
        (n for n in ast.walk(node)
         if hasattr(n, "lineno") and hasattr(n, "col_offset")),
        key=lambda n: (n.lineno, n.col_offset),
    )


def _collect_expr_writes(node: ast.AST, seq: List[str]) -> None:
    """Mutating calls inside one expression, in source order."""
    for inner in _nodes_in_order(node):
        if not isinstance(inner, ast.Call):
            continue
        func = inner.func
        if isinstance(func, ast.Name):
            name = func.id
            if name.endswith(("tags_index", "ledger_get", "run_until")):
                continue
            _emit_state(seq, _state_of(name))
        elif isinstance(func, ast.Attribute):
            # e.g. ports._prune(t): the mutation lands on the root object.
            root = _root_name(func)
            if root is not None:
                _emit_state(seq, _state_of(root))


def _fast_writes(stmts: Sequence[ast.stmt], seq: List[str]) -> None:
    """Ordered canonical writes of the commit region.

    Conditionals follow the verifier's truth assignment — the taken hit
    branch is the body branch in emitted code (rotation happens, the
    prefetch bit was set), which mirrors :func:`_slow_sequence`.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.If, ast.While)):
            _collect_expr_writes(stmt.test, seq)
            _fast_writes(stmt.body, seq)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
            _collect_expr_writes(stmt.value, seq)
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(target)
                    if root is not None:
                        _emit_state(seq, _state_of(root))
        elif isinstance(stmt, ast.Expr):
            _collect_expr_writes(stmt.value, seq)


# -- the slow side: symbolic walk of the reference hit path --------------------

@lru_cache(maxsize=None)
def _slow_fn_body(which: str) -> Tuple[ast.stmt, ...]:
    """Parsed body of one slow-path function, from its live source."""
    import inspect
    import textwrap

    from repro.cache.cache import Cache
    from repro.cache.hierarchy import MemoryHierarchy

    fns = {
        "load": MemoryHierarchy.load,
        "store": MemoryHierarchy.store,
        "ifetch": MemoryHierarchy.fetch_instruction,
        "access": Cache.access,
    }
    source = textwrap.dedent(inspect.getsource(fns[which]))
    tree = ast.parse(source)
    fn = tree.body[0]
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    return tuple(fn.body)


#: Slow-path attribute chains → canonical states (write targets).
_SLOW_WRITE_CHAINS = {
    "self.st_loads": "hierarchy.stat",
    "self.st_stores": "hierarchy.stat",
    "self.st_writes": "cache.stat.kind",
    "self.st_reads": "cache.stat.kind",
    "self.st_useful_prefetches": "cache.stat.useful",
    "self._tags": "cache.tags",
    "self._ready": "cache.ready",
    "self._touch": "cache.touch",
    "self._flags": "cache.flags",
    # The kernel, whose clock the demand entry points drive.
    "self.sim": "kernel.clock",
}

#: Slow-path calls → canonical states they mutate.
_SLOW_CALL_CHAINS = {
    "self.advance": "kernel.clock",
    "self.image.write": "image",
    "self.pipeline.acquire": "cache.pipeline",
    "self.pipeline.stall_until": "cache.pipeline",
    "self.ports.acquire": "cache.ports",
}


def _chain_of(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _SlowWalker:
    """Walks the reference hit path under one shape's truth assignment."""

    def __init__(self, shape: ArtifactShape) -> None:
        self.shape = shape
        self.seq: List[str] = []
        #: local name -> canonical state (``tags = self._tags`` style).
        self.aliases: Dict[str, str] = {}
        self.truths: Dict[str, bool] = {
            "self.precise": shape.precise,
            "is_write": shape.write,
            "slot >= 0": True,
            "slot != base": True,
            "was_prefetched": True,
            "line_ready > ready": False,
            "mech is not None": shape.hook,
            "self.image is not None": shape.image,
        }

    def run(self) -> List[str]:
        self._walk(_slow_fn_body(self.shape.kind))
        deduped: List[str] = []
        for state in self.seq:
            if not deduped or deduped[-1] != state:
                deduped.append(state)
        return deduped

    # -- helpers ---------------------------------------------------------------

    def _emit(self, state: Optional[str]) -> None:
        if state is not None:
            self.seq.append(state)

    def _expr_calls(self, node: ast.AST) -> bool:
        """Process calls in one expression; True when access() recursed."""
        recursed = False
        for inner in _nodes_in_order(node):
            if not isinstance(inner, ast.Call):
                continue
            chain = _chain_of(inner.func)
            if chain is None:
                continue
            if chain in ("self.l1d.access", "self.l1i.access"):
                self._walk(_slow_fn_body("access"))
                recursed = True
            elif chain in _SLOW_CALL_CHAINS:
                self._emit(_SLOW_CALL_CHAINS[chain])
            elif "." in chain:
                root, _, rest = chain.partition(".")
                if root in self.aliases and rest == "on_access":
                    self._emit("mechanism.hook")
        return recursed

    def _note_alias(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        value = stmt.value
        if isinstance(value, ast.IfExp):
            value = value.body
        chain = _chain_of(value)
        if chain == "self.mechanism":
            self.aliases[name] = "mechanism"
        elif chain in _SLOW_WRITE_CHAINS:
            self.aliases[name] = _SLOW_WRITE_CHAINS[chain]

    def _target_state(self, target: ast.AST) -> Optional[str]:
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return None
        chain = _chain_of(
            target.value if isinstance(target, ast.Subscript) else target
        )
        if chain is None:
            root = _root_name(target)
            chain = root if root is not None else None
        if chain is None:
            return None
        # self.st_loads.value += 1 → chain "self.st_loads.value"
        for known, state in _SLOW_WRITE_CHAINS.items():
            if chain == known or chain.startswith(known + "."):
                return state
        root = chain.split(".", 1)[0]
        return self.aliases.get(root)

    # -- the walk --------------------------------------------------------------

    def _walk(self, stmts: Sequence[ast.stmt]) -> bool:
        """Process ``stmts``; True when a ``return`` ended the walk."""
        import ast as _ast

        for stmt in stmts:
            if isinstance(stmt, _ast.Return):
                if stmt.value is not None:
                    self._expr_calls(stmt.value)
                return True
            if isinstance(stmt, _ast.Assign):
                self._expr_calls(stmt.value)
                self._note_alias(stmt)
                for target in stmt.targets:
                    self._emit(self._target_state(target))
            elif isinstance(stmt, _ast.AugAssign):
                self._expr_calls(stmt.value)
                self._emit(self._target_state(stmt.target))
            elif isinstance(stmt, _ast.Expr):
                self._expr_calls(stmt.value)
            elif isinstance(stmt, _ast.If):
                text = ast.unparse(stmt.test)
                truth = self.truths.get(text)
                if truth is True:
                    if self._walk(stmt.body):
                        return True
                elif truth is False:
                    if self._walk(stmt.orelse):
                        return True
                else:
                    if self._walk(stmt.body):
                        return True
                    if self._walk(stmt.orelse):
                        return True
            elif isinstance(stmt, _ast.Try):
                if self._walk(stmt.body):
                    return True
                for handler in stmt.handlers:
                    if self._walk(handler.body):
                        return True
        return False


@lru_cache(maxsize=None)
def _slow_sequence(shape: ArtifactShape) -> Tuple[str, ...]:
    return tuple(_SlowWalker(shape).run())


# -- SIM803 baked-constant checks ----------------------------------------------

def _check_constants(frame: _Frame, shape: ArtifactShape) -> List[Finding]:
    from repro.cache.cache import DIRTY

    found: List[Finding] = []
    p = frame.prefix

    def local(name: str) -> str:
        return p + name

    def finding(node: ast.AST, message: str) -> None:
        found.append(("SIM803", getattr(node, "lineno", 1), message))

    block_seen = base_seen = ready_seen = ports_seen = prune_seen = False
    dirty_nodes: List[ast.AugAssign] = []
    names: Set[str] = set()
    for node in ast.walk(frame.node):
        if isinstance(node, ast.Name):
            names.add(node.id.replace("g_", "", 1))
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id.replace("g_", "", 1)
            value = node.value
            if target == local("block") and isinstance(value, ast.BinOp) \
                    and isinstance(value.op, ast.RShift):
                block_seen = True
                if not (isinstance(value.right, ast.Constant)
                        and value.right.value == shape.line_bits):
                    finding(node, f"baked line-bits shift disagrees with the "
                                  f"machine: expected {shape.line_bits}")
            elif target == local("base") and isinstance(value, ast.BinOp) \
                    and isinstance(value.op, ast.Mult):
                base_seen = True
                inner, mult = value.left, value.right
                if not (isinstance(mult, ast.Constant)
                        and mult.value == shape.assoc):
                    finding(node, f"baked associativity disagrees with the "
                                  f"machine: expected {shape.assoc}")
                if not (isinstance(inner, ast.BinOp)
                        and isinstance(inner.op, ast.BitAnd)
                        and isinstance(inner.right, ast.Constant)
                        and inner.right.value == shape.set_mask):
                    finding(node, f"baked set mask disagrees with the "
                                  f"machine: expected {shape.set_mask}")
            elif target == local("ready") and isinstance(value, ast.BinOp) \
                    and isinstance(value.op, ast.Add) \
                    and isinstance(value.right, ast.Constant):
                ready_seen = True
                if value.right.value != shape.latency:
                    finding(node, f"baked hit latency disagrees with the "
                                  f"machine: expected {shape.latency}")
        elif isinstance(node, ast.While) and not (
                isinstance(node.test, ast.Constant)):
            for inner in ast.walk(node.test):
                if isinstance(inner, ast.Compare) and len(inner.ops) == 1 \
                        and isinstance(inner.ops[0], ast.GtE) \
                        and isinstance(inner.comparators[0], ast.Constant):
                    ports_seen = True
                    if inner.comparators[0].value != shape.n_ports:
                        finding(node, f"baked port count disagrees with the "
                                      f"machine: expected {shape.n_ports}")
        elif isinstance(node, ast.If):
            test = node.test
            if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                    and isinstance(test.ops[0], ast.Gt) \
                    and isinstance(test.left, ast.Call) \
                    and isinstance(test.left.func, ast.Name) \
                    and test.left.func.id == "len" \
                    and isinstance(test.comparators[0], ast.Constant):
                prune_seen = True
                if test.comparators[0].value != shape.prune_every:
                    finding(node, f"baked ledger prune threshold disagrees "
                                  f"with the machine: expected "
                                  f"{shape.prune_every}")
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.op, ast.BitOr) \
                and isinstance(node.target, ast.Name) \
                and node.target.id == local("line_flags"):
            dirty_nodes.append(node)

    anchor = frame.node
    if not block_seen:
        finding(anchor, "no baked line-bits shift found (block computation "
                        "missing or rewritten)")
    if not base_seen:
        finding(anchor, "no baked set-mask/associativity computation found")
    if not ready_seen:
        finding(anchor, "no baked hit-latency add found")
    if not ports_seen:
        finding(anchor, "no baked port-count comparison found")
    if not prune_seen:
        finding(anchor, "no baked ledger prune threshold found")

    if shape.write and not dirty_nodes:
        finding(anchor, "store shape bakes no dirty-bit marking")
    if not shape.write and dirty_nodes:
        finding(dirty_nodes[0], "non-store shape bakes dirty-bit marking")
    for node in dirty_nodes:
        if not (isinstance(node.value, ast.Constant)
                and node.value.value == DIRTY):
            finding(node, f"baked dirty mask disagrees with the cache "
                          f"flag: expected {DIRTY}")

    def present(name: str) -> bool:
        return local(name) in names

    if shape.hook != present("hook"):
        finding(anchor, "mechanism hook call "
                + ("missing for a hooked shape" if shape.hook
                   else "baked into a hook-less shape"))
    expect_outer = shape.kind != "ifetch"
    if expect_outer != present("st_outer"):
        finding(anchor, "outer load/store stat bump "
                + ("missing" if expect_outer else "baked into an ifetch shape"))
    expect_image = shape.write and shape.image
    if expect_image != present("image_write"):
        finding(anchor, "write-through image update "
                + ("missing" if expect_image else "baked without an image"))
    if shape.precise != present("pipe"):
        finding(anchor, "tag-pipeline acquire "
                + ("missing for a precise cache" if shape.precise
                   else "baked into an imprecise cache"))

    # Any counter bump outside the known indices is a stale emitter.
    from repro.cpu.fastpath import (
        ABORT_MISS,
        ABORT_QUEUED_PREFETCH,
        COMMITS,
        EVENT_DRAINS,
    )
    valid = {COMMITS, EVENT_DRAINS, ABORT_QUEUED_PREFETCH, ABORT_MISS}
    commit_seen = False
    for index, bump in _counter_bumps(frame.node):
        if index not in valid:
            finding(bump, f"speculation counter index {index} is not a "
                          "known counter slot")
        if index == COMMITS:
            commit_seen = True
    if not commit_seen:
        finding(anchor, "commit counter bump missing from the replay")
    return found


# -- the verifier --------------------------------------------------------------

def _free_names(fn: ast.AST) -> Set[str]:
    assigned: Set[str] = set()
    loaded: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            assigned.add(arg.arg)
        if args.vararg is not None:
            assigned.add(args.vararg.arg)
        if args.kwarg is not None:
            assigned.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                assigned.add(node.id)
            else:
                loaded.add(node.id)
    return loaded - assigned - _BUILTINS


def _verify_frame(frame: _Frame, shape: ArtifactShape) -> List[Finding]:
    found: List[Finding] = []
    line = getattr(frame.node, "lineno", 1)
    guards = _detect_guards(frame)
    by_name: Dict[str, List[_Guard]] = {}
    for guard in guards:
        by_name.setdefault(guard.name, []).append(guard)

    drains = by_name.get("event-drain", [])
    queue_guards = by_name.get("queued-prefetch", [])
    residents = by_name.get("resident", [])

    if len(drains) != 1:
        found.append(("SIM801", line,
                      "event-drain guard missing: due kernel events would "
                      "fire late, replaying against stale state"
                      if not drains else
                      "multiple event-drain guards in one replay"))
    if len(residents) != 1:
        found.append(("SIM801", line,
                      "residency guard missing: a miss would be replayed "
                      "as a hit" if not residents else
                      "multiple residency guards in one replay"))
    guarded_queues = {g.queue for g in queue_guards if g.queue is not None}
    if len(guarded_queues) != shape.queues or len(queue_guards) != shape.queues:
        found.append(("SIM801", line,
                      f"shape has {shape.queues} prefetch queue(s) but the "
                      f"replay guards {len(guarded_queues)}: a queued "
                      "prefetch would be reordered past this access"))
    for guard in queue_guards:
        if not guard.has_abort:
            found.append(("SIM801", getattr(guard.node, "lineno", line),
                          "queued-prefetch guard does not abort"))
    for guard in residents:
        if not guard.has_abort:
            found.append(("SIM801", getattr(guard.node, "lineno", line),
                          "residency guard does not abort"))

    # Ordering: drain first, then queue guards, then the residency probe.
    if drains and residents:
        drain_line = drains[0].node.lineno
        resident_line = residents[0].node.lineno
        if drain_line > resident_line:
            found.append(("SIM801", drain_line,
                          "event drain runs after the residency probe; the "
                          "probe reads state the drain may mutate"))
        for guard in queue_guards:
            if not (drain_line < guard.node.lineno < resident_line):
                found.append(("SIM801", guard.node.lineno,
                              "queue guard out of order: must run after the "
                              "event drain and before the residency probe"))

    # No state writes before the last abort point.
    frontier = 0
    for guard in guards:
        frontier = max(frontier, getattr(guard.node, "end_lineno", 0))
    if frontier:
        for node in ast.walk(frame.node):
            lineno = getattr(node, "lineno", None)
            if lineno is None or lineno > frontier:
                continue
            if any(node is g.node or _contains(g.node, node) for g in guards):
                allowed = True  # guard-internal bookkeeping checked above
            else:
                allowed = False
            if isinstance(node, (ast.Assign, ast.AugAssign)) and not allowed:
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if not isinstance(target, (ast.Subscript, ast.Attribute)):
                        continue
                    root = _root_name(target)
                    state = _state_of(root) if root is not None else None
                    if state is not None and state != "speculation.counters":
                        found.append(("SIM801", lineno,
                                      f"write to {state} before the last "
                                      "abort point: an aborted replay would "
                                      "leave a side effect"))
            elif isinstance(node, ast.Call) and not allowed:
                func = node.func
                name = func.id if isinstance(func, ast.Name) else None
                if name is not None \
                        and not name.endswith(tuple(_PREFRONTIER_CALLS)):
                    state = _state_of(name)
                    if state is not None and state not in (
                            "speculation.counters",):
                        found.append(("SIM801", lineno,
                                      f"call mutating {state} before the "
                                      "last abort point"))

    # SIM802: the commit region must replay the slow path's writes in order.
    if residents:
        resident = residents[0].node
        try:
            index = frame.body.index(resident)
        except ValueError:
            index = -1
        if index >= 0:
            fast_seq: List[str] = []
            _fast_writes(frame.body[index + 1:], fast_seq)
            slow_seq = list(_slow_sequence(shape))
            if fast_seq != slow_seq:
                found.append(("SIM802",
                              getattr(frame.body[index + 1], "lineno", line)
                              if index + 1 < len(frame.body) else line,
                              "commit region replays the slow path's writes "
                              f"out of order or incompletely: expected "
                              f"{' -> '.join(slow_seq)}, emitted "
                              f"{' -> '.join(fast_seq) or '(nothing)'}"))

    found.extend(_check_constants(frame, shape))
    return found


def _contains(outer: ast.AST, node: ast.AST) -> bool:
    return any(inner is node for inner in ast.walk(outer))


def verify_source(
    source: str, artifacts: Dict[str, ArtifactShape]
) -> List[Finding]:
    """Verify one emitted source against its shape(s).

    ``artifacts`` maps inline-block prefix to shape — ``{"": shape}`` for
    a replay closure, ``{"if_": ..., "ld_": ..., "st_": ...}`` for the
    generated run loop.  Returns (rule, line, message) findings.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [("SIM801", exc.lineno or 1,
                 f"emitted source does not parse: {exc.msg}")]
    frames = _frames(tree)
    if not frames:
        return [("SIM801", 1, "no replay function found in emitted source")]

    found: List[Finding] = []
    fn = next(
        n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )

    # Footprint: every free name must map to a known state, and every
    # state must be guarded or invariant.
    from repro.cpu.fastpath import GUARDS, INVARIANT_STATES

    protected: Set[str] = set()
    present_guards: Set[str] = set()
    for frame in frames:
        for guard in _detect_guards(frame):
            present_guards.add(guard.name)
    for spec in GUARDS:
        if spec.name in present_guards:
            protected.update(spec.protects)

    touched: Dict[str, str] = {}
    for name in sorted(_free_names(fn)):
        state = _state_of(name)
        if state is None:
            found.append(("SIM801", 1,
                          f"emitted code references '{name}', which maps to "
                          "no known simulator state; extend "
                          "STATE_OF_BINDING or stop touching it"))
        else:
            touched.setdefault(state, name)
    for state, name in sorted(touched.items()):
        if state not in protected and state not in INVARIANT_STATES:
            found.append(("SIM801", 1,
                          f"state '{state}' (via '{name}') is neither "
                          "protected by a present guard nor provably "
                          "invariant"))

    for frame in frames:
        shape = artifacts.get(frame.prefix)
        if shape is None:
            found.append(("SIM801", getattr(frame.node, "lineno", 1),
                          f"inline frame with prefix '{frame.prefix}' has "
                          "no declared shape"))
            continue
        found.extend(_verify_frame(frame, shape))
    return found


@lru_cache(maxsize=256)
def _verify_standalone(text: str, shape: ArtifactShape) -> Tuple[Finding, ...]:
    return tuple(verify_source(text, {"": shape}))


# -- mutation helper (used by the tests) ---------------------------------------

def iter_guard_mutations(source: str) -> Iterator[Tuple[str, str]]:
    """Yield ``(guard, mutated_source)`` with exactly one guard removed.

    Each variant is syntactically valid: guard ``if`` blocks are dropped
    whole (with their tag comment), including the direct-mapped residency
    compare, and the set-associative residency ``try``/``except`` is
    replaced by its dedented probe line.  For the generated run loop,
    every inline occurrence yields its own mutation.
    """
    lines = source.split("\n")

    def without(start: int, count: int,
                replace: Optional[List[str]] = None) -> str:
        out = list(lines)
        out[start:start + count] = replace or []
        # Also drop the guard-tag comment riding above the block.
        if start > 0 and "# guard[" in out[start - 1]:
            del out[start - 1]
        return "\n".join(out)

    for i, text in enumerate(lines):
        stripped = text.strip()
        if stripped.startswith("if ") and "event_times and" in stripped:
            yield "event-drain", without(i, 3)
        elif re.match(r"^if (g_)?queue\d+:$", stripped):
            yield "queued-prefetch", without(i, 3)
        elif re.match(r"^if (\w+_)?tags\[\w+\] != \w+:$", stripped):
            yield "resident", without(i, 3)
        elif stripped == "try:" and i + 2 < len(lines) \
                and lines[i + 2].strip().startswith("except ValueError"):
            probe = lines[i + 1]
            dedented = probe.replace("    ", "", 1)
            yield "resident", without(i, 5, replace=[dedented])


# -- in-tree anchoring ---------------------------------------------------------

def iter_tree_artifacts() -> Iterator[Tuple[str, str, Dict[str, ArtifactShape]]]:
    """Yield ``(label, emitted source, artifacts)`` for every verified shape.

    One machine per registered mechanism (plus the bare baseline and an
    imprecise SimpleScalar-style variant), and per machine the three
    replay closures plus the generated run loop.
    """
    from repro.core.config import baseline_config
    from repro.core.simulation import build_machine
    from repro.cpu.fastpath import emit_replay_source
    from repro.mechanisms.registry import ALL_MECHANISMS, EXTENSIONS, create
    from repro.workloads.image import MemoryImage

    machines: List[Tuple[str, Any, Any]] = [("baseline", None, None)]
    for name in ALL_MECHANISMS + EXTENSIONS:
        machines.append((name, None, create(name)))
    machines.append(
        ("baseline-imprecise", baseline_config().with_simplescalar_cache(),
         None)
    )
    machines.append(
        ("TK-imprecise", baseline_config().with_simplescalar_cache(),
         create("TK"))
    )

    for label, config, mechanism in machines:
        core, hierarchy = build_machine(config, mechanism, MemoryImage())
        for kind in ("load", "store", "ifetch"):
            source, _ = emit_replay_source(hierarchy, kind)
            yield (f"{label}/{kind}", source,
                   {"": shape_of(hierarchy, kind)})
        loop_source, _ = core._emit_fast_loop([0, 0, 0, 0], None)
        yield (f"{label}/loop", loop_source, {
            "if_": shape_of(hierarchy, "ifetch"),
            "ld_": shape_of(hierarchy, "load"),
            "st_": shape_of(hierarchy, "store"),
        })


_TREE_FINDINGS: Optional[List[Finding]] = None


def _verify_tree() -> List[Finding]:
    """Findings across every shape, memoised for the process lifetime."""
    global _TREE_FINDINGS
    if _TREE_FINDINGS is None:
        findings: List[Finding] = []
        for label, source, artifacts in iter_tree_artifacts():
            for rule_id, _, message in verify_source(source, artifacts):
                findings.append((rule_id, 1, f"[{label}] {message}"))
        _TREE_FINDINGS = findings
    return _TREE_FINDINGS


def _module_findings(module: SourceModule) -> List[Finding]:
    if module.standalone:
        shape = _marker_shape(module.text)
        if shape is None:
            return []
        return list(_verify_standalone(module.text, shape))
    if module.module == "cpu.fastpath":
        return _verify_tree()
    return []


def _bind(module: SourceModule, rule_id: str) -> List[Violation]:
    return [
        make_violation(_rule(rule_id), module, line, message)
        for found_id, line, message in _module_findings(module)
        if found_id == rule_id
    ]


@rule("SIM801", "unguarded-state", _PACKAGES,
      "every state the emitted fast path touches must be guarded or "
      "provably invariant, with the full guard set present and in order")
def check_unguarded_state(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    return _bind(module, "SIM801")


@rule("SIM802", "replay-order", _PACKAGES,
      "the emitted commit region must replay the slow path's writes in "
      "the slow path's order, completely")
def check_replay_order(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    return _bind(module, "SIM802")


@rule("SIM803", "stale-constant", _PACKAGES,
      "every constant and conditional construct the emitter bakes must "
      "match the live machine shape")
def check_stale_constant(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    return _bind(module, "SIM803")
