"""SIM4xx — port and stat wiring.

The component model (``kernel/module.py``) raises at *runtime* on
duplicate stat or port names and silently does nothing for a port that
was declared but never bound.  These rules surface the same defects
before a simulation ever constructs the component:

* SIM401 ``duplicate-stat`` — the same stat name literal registered
  twice in one class (the second ``add_stat`` would raise mid-run).
* SIM402 ``duplicate-port`` — likewise for ``add_port``.
* SIM403 ``unbound-port`` — a port attribute that no code in the scanned
  tree ever ``bind()``s: traffic sent into it would dead-end.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.core import (
    SourceModule,
    Violation,
    cross_module_index,
    make_violation,
    rule,
)
from repro.analysis.contract import _rule

_PACKAGES = ("",)  # whole tree


def _registrations(
    cls: ast.ClassDef, method: str
) -> List[Tuple[str, ast.Call, str]]:
    """(name literal, call node, attribute target) for self.<method>("...")."""
    out = []
    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if not (isinstance(fn, ast.Attribute) and fn.attr == method
                and isinstance(fn.value, ast.Name) and fn.value.id == "self"):
            continue
        if not (node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        out.append((node.args[0].value, node, _assigned_attr(cls, node)))
    return out


def _assigned_attr(cls: ast.ClassDef, call: ast.Call) -> str:
    """The ``self.<attr>`` a registration call is assigned to, if any."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and node.value is call:
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    return target.attr
    return ""


def _check_duplicates(
    module: SourceModule, method: str, rule_id: str, kind: str
) -> List[Violation]:
    found = []
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        seen: Dict[str, int] = {}
        for name, call, _ in _registrations(cls, method):
            if name in seen:
                found.append(make_violation(
                    _rule(rule_id), module, call,
                    f"{cls.name} registers {kind} {name!r} twice (first at "
                    f"line {seen[name]}); the second registration raises at "
                    "construction time",
                ))
            else:
                seen[name] = call.lineno
    return found


@rule("SIM401", "duplicate-stat", _PACKAGES,
      "the same stat name registered twice in one class")
def check_duplicate_stat(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    return _check_duplicates(module, "add_stat", "SIM401", "stat")


@rule("SIM402", "duplicate-port", _PACKAGES,
      "the same port name registered twice in one class")
def check_duplicate_port(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    return _check_duplicates(module, "add_port", "SIM402", "port")


def _bound_attrs(modules: Sequence[SourceModule]) -> Set[str]:
    """Attribute names that appear in any ``<x>.bind(<y>)`` call."""
    bound: Set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not (isinstance(fn, ast.Attribute) and fn.attr == "bind"):
                continue
            # receiver: a.b.bind(...) -> "b"; port.bind(...) -> "port"
            receiver = fn.value
            if isinstance(receiver, ast.Attribute):
                bound.add(receiver.attr)
            elif isinstance(receiver, ast.Name):
                bound.add(receiver.id)
            for arg in node.args:
                if isinstance(arg, ast.Attribute):
                    bound.add(arg.attr)
                elif isinstance(arg, ast.Name):
                    bound.add(arg.id)
    return bound


@rule("SIM403", "unbound-port", _PACKAGES,
      "a declared port that nothing in the tree ever binds")
def check_unbound_port(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    bound = cross_module_index(modules, _bound_attrs)
    found = []
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for name, call, attr in _registrations(cls, "add_port"):
            if attr and attr in bound:
                continue
            if not attr and name in bound:
                continue
            found.append(make_violation(
                _rule("SIM403"), module, call,
                f"{cls.name} declares port {name!r} but nothing in the "
                "analyzed tree binds it; traffic sent into an unbound port "
                "dead-ends",
            ))
    return found
