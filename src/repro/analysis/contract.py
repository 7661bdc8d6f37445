"""SIM1xx — mechanism-contract conformance.

The MicroLib thesis is that mechanisms are interchangeable behind the
small contract of :class:`repro.mechanisms.base.Mechanism`.  These rules
check, before any cycle is simulated, that every mechanism actually
speaks that contract:

* SIM101 ``bad-level`` — ``LEVEL`` must be the literal ``"l1"`` or ``"l2"``.
* SIM102 ``unknown-hook`` — a hook-shaped method (``on_*``, ``probe``)
  that the base contract does not define (usually a typo, which Python
  would silently never call).
* SIM103 ``hook-signature`` — an overridden hook whose positional
  parameter names differ from the base signature.
* SIM104 ``raw-queue-push`` — prefetches pushed straight into a queue
  instead of through ``emit_prefetch`` (skips the emission stat the
  power model reads).
* SIM105 ``undeclared-structure`` — a mechanism whose ``__init__`` builds
  container side tables but that never overrides ``structures()``, so the
  CACTI cost model prices the hardware at zero.
* SIM106 ``registry-mismatch`` — registry tables out of sync: a factory
  without catalogue info, or a listed acronym without a factory.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Rule,
    SourceModule,
    Violation,
    all_rules,
    cross_module_index,
    make_violation,
    rule,
)

_PACKAGES = ("mechanisms",)

#: Hook methods of the base contract, with their positional parameter
#: names (excluding ``self``).  Kept as data so the signature rule has a
#: single source of truth; ``_base_hooks`` below prefers reading the real
#: ``mechanisms/base.py`` out of the scanned tree when it is present.
FALLBACK_HOOKS: Dict[str, Tuple[str, ...]] = {
    "probe": ("block", "time"),
    "on_access": ("pc", "block", "hit", "was_prefetched", "time"),
    "on_miss": ("pc", "block", "time"),
    "on_refill": ("block", "victim_block", "time", "prefetched"),
    "on_evict": ("block", "dirty", "live", "time"),
    "on_prefetch_fill": ("block", "depth", "time"),
}

#: Non-hook base methods a mechanism may legitimately override.
OVERRIDABLE = {
    "__init__", "attach", "deliver_prefetch", "iter_queues", "structures",
    "useful_prefetches",
}

_BASE_CLASS_NAMES = {"Mechanism"}


def _positional_names(args: ast.arguments) -> Tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs + args.args]
    return tuple(names[1:])  # drop self


def _base_hooks(modules: Sequence[SourceModule]) -> Dict[str, Tuple[str, ...]]:
    """Hook signatures from the scanned ``mechanisms/base.py``, else fallback."""
    for module in modules:
        if module.module != "mechanisms.base":
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == "Mechanism":
                hooks = {}
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name in FALLBACK_HOOKS):
                        hooks[item.name] = _positional_names(item.args)
                if hooks:
                    return hooks
    return FALLBACK_HOOKS


def _base_names(node: ast.ClassDef) -> Set[str]:
    bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
    bases |= {b.attr for b in node.bases if isinstance(b, ast.Attribute)}
    return bases


def _mechanism_names(modules: Sequence[SourceModule]) -> Set[str]:
    """Every class name that (transitively, by name) subclasses Mechanism.

    A fixed point over every scanned module, so cross-file bases resolve.
    """
    known: Set[str] = set(_BASE_CLASS_NAMES)
    class_bases: List[Tuple[str, Set[str]]] = []
    for mod in modules:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ClassDef):
                class_bases.append((node.name, _base_names(node)))
    grew = True
    while grew:
        grew = False
        for name, bases in class_bases:
            if name not in known and bases & known:
                known.add(name)
                grew = True
    return known


def _mechanism_classes(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[ast.ClassDef]:
    """Classes in ``module`` that (transitively, by name) subclass Mechanism."""
    known = cross_module_index(modules, _mechanism_names)
    return [
        node for node in module.tree.body
        if isinstance(node, ast.ClassDef) and node.name != "Mechanism"
        and _base_names(node) & known
    ]


def _rule(rule_id: str) -> Rule:
    for registered in all_rules():
        if registered.rule_id == rule_id:
            return registered
    raise KeyError(rule_id)


@rule("SIM101", "bad-level", _PACKAGES,
      "Mechanism.LEVEL must be the literal 'l1' or 'l2'")
def check_level(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for cls in _mechanism_classes(module, modules):
        for item in cls.body:
            if not isinstance(item, ast.Assign):
                continue
            targets = [t.id for t in item.targets if isinstance(t, ast.Name)]
            if "LEVEL" not in targets:
                continue
            value = item.value
            ok = isinstance(value, ast.Constant) and value.value in ("l1", "l2")
            if not ok:
                found.append(make_violation(
                    _rule("SIM101"), module, item,
                    f"{cls.name}.LEVEL must be the literal 'l1' or 'l2' "
                    "(the hierarchy attaches by this value)",
                ))
    return found


@rule("SIM102", "unknown-hook", _PACKAGES,
      "hook-shaped method that the Mechanism contract does not define")
def check_unknown_hook(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    hooks = _base_hooks(modules)
    found = []
    for cls in _mechanism_classes(module, modules):
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            looks_like_hook = item.name.startswith("on_") or item.name == "probe"
            if looks_like_hook and item.name not in hooks:
                found.append(make_violation(
                    _rule("SIM102"), module, item,
                    f"{cls.name}.{item.name} looks like a contract hook but "
                    f"the base Mechanism defines none of that name — the "
                    f"hierarchy will silently never call it "
                    f"(known hooks: {', '.join(sorted(hooks))})",
                ))
    return found


@rule("SIM103", "hook-signature", _PACKAGES,
      "overridden hook whose positional parameters differ from the base")
def check_hook_signature(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    hooks = _base_hooks(modules)
    found = []
    for cls in _mechanism_classes(module, modules):
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef) or item.name not in hooks:
                continue
            got = _positional_names(item.args)
            want = hooks[item.name]
            if got != want:
                found.append(make_violation(
                    _rule("SIM103"), module, item,
                    f"{cls.name}.{item.name}({', '.join(got)}) does not match "
                    f"the contract signature ({', '.join(want)})",
                ))
    return found


@rule("SIM104", "raw-queue-push", _PACKAGES,
      "prefetch pushed directly into a queue instead of via emit_prefetch")
def check_raw_queue_push(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    if module.module == "mechanisms.base":
        return []  # emit_prefetch itself is the one sanctioned push site
    found = []
    for cls in _mechanism_classes(module, modules):
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not (isinstance(fn, ast.Attribute) and fn.attr == "push"):
                continue
            # self.queue.push(...), self.<anything>.push(PrefetchRequest(...))
            is_queue_attr = (
                isinstance(fn.value, ast.Attribute)
                and "queue" in fn.value.attr
            )
            pushes_request = any(
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "PrefetchRequest"
                for arg in node.args
            )
            if is_queue_attr or pushes_request:
                found.append(make_violation(
                    _rule("SIM104"), module, node,
                    f"{cls.name} pushes into a prefetch queue directly; use "
                    "emit_prefetch so the emission stat and drop accounting "
                    "stay correct",
                ))
    return found


_CONTAINER_CALLS = {
    "dict", "OrderedDict", "defaultdict", "deque", "list", "set", "Counter",
}


@rule("SIM105", "undeclared-structure", _PACKAGES,
      "mechanism builds side tables but never declares StructureSpecs")
def check_undeclared_structure(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for cls in _mechanism_classes(module, modules):
        method_names = {
            item.name for item in cls.body if isinstance(item, ast.FunctionDef)
        }
        if "structures" in method_names:
            continue
        init = next(
            (item for item in cls.body
             if isinstance(item, ast.FunctionDef) and item.name == "__init__"),
            None,
        )
        if init is None:
            continue
        for node in ast.walk(init):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, (
                    ast.Call, ast.Dict, ast.List, ast.Set, ast.ListComp,
                    ast.DictComp))):
                continue
            targets_self = any(
                isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                and t.value.id == "self" for t in node.targets
            )
            if not targets_self:
                continue
            value = node.value
            is_container = isinstance(value, (
                ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp,
            )) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _CONTAINER_CALLS
            )
            if is_container:
                found.append(make_violation(
                    _rule("SIM105"), module, node,
                    f"{cls.name} allocates a side table here but defines no "
                    "structures() override — the CACTI cost model will price "
                    "this hardware at zero bytes",
                ))
                break  # one report per class is enough
    return found


def _literal_dict_keys(node: ast.AST) -> Optional[List[Tuple[str, int]]]:
    if not isinstance(node, ast.Dict):
        return None
    keys = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append((key.value, key.lineno))
    return keys


@rule("SIM106", "registry-mismatch", _PACKAGES,
      "mechanism registry tables (factories, info, listings) out of sync")
def check_registry(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    assignments: Dict[str, ast.AST] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assignments[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                assignments[node.target.id] = node.value
    if "_FACTORIES" not in assignments or "_INFO" not in assignments:
        return []
    factories = _literal_dict_keys(assignments["_FACTORIES"]) or []
    info = _literal_dict_keys(assignments["_INFO"]) or []
    info_names = {name for name, _ in info}
    factory_names = {name for name, _ in factories}
    found = []
    for name, line in factories:
        if name not in info_names:
            found.append(make_violation(
                _rule("SIM106"), module, line,
                f"factory {name!r} has no _INFO catalogue entry",
            ))
    listed: List[Tuple[str, int]] = []
    for listing in ("ALL_MECHANISMS", "EXTENSIONS"):
        node = assignments.get(listing)
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                if isinstance(element, ast.Constant) and isinstance(
                        element.value, str):
                    listed.append((element.value, element.lineno))
    baseline = assignments.get("BASELINE")
    baseline_name = (
        baseline.value if isinstance(baseline, ast.Constant) else "Base"
    )
    for name, line in listed:
        if name != baseline_name and name not in factory_names:
            found.append(make_violation(
                _rule("SIM106"), module, line,
                f"listed mechanism {name!r} has no factory",
            ))
    return found
