"""SIM5xx — observability wiring.

The obs subsystem (``repro.obs``) can only report what the simulator
actually exposes.  Two source-level defects silently degrade it:

* SIM501 ``orphan-stat`` — a :class:`~repro.kernel.module.StatCounter`
  constructed directly instead of through ``Component.add_stat``.  A
  direct construction never lands in ``Component.stats``, so
  ``stats_report()`` — and everything downstream of it: a run's
  ``RunResult.stats``, interval sampling — never sees it.
  The only sanctioned construction site is ``add_stat`` itself.
* SIM502 ``nonliteral-span-name`` — a tracer call (``begin`` /
  ``span`` / ``instant`` / ``counter``) whose name argument is not a
  string literal.  Dynamic span names explode the Perfetto track count,
  defeat cross-run trace diffing, and make the trace schema impossible
  to audit statically; put the varying part in the event ``args``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from repro.analysis.contract import _rule
from repro.analysis.core import SourceModule, Violation, make_violation, rule

_PACKAGES = ("",)  # whole tree

#: Tracer methods whose first argument names the emitted event.
_TRACER_METHODS = frozenset({"begin", "span", "instant", "counter"})

#: Receiver spellings that identify the tracing singleton or an injected
#: tracer handle (``TRACER.begin``, ``self.tracer.counter``, ...).
_TRACER_NAMES = frozenset({"TRACER", "tracer", "_tracer"})


def _enclosing_functions(tree: ast.AST) -> List[ast.AST]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _inside_add_stat(call: ast.Call, functions: Sequence[ast.AST]) -> bool:
    """Whether ``call`` sits inside a function named ``add_stat``."""
    for fn in functions:
        if getattr(fn, "name", None) != "add_stat":
            continue
        for node in ast.walk(fn):
            if node is call:
                return True
    return False


@rule("SIM501", "orphan-stat", _PACKAGES,
      "a StatCounter constructed outside Component.add_stat never "
      "reaches stats_report()")
def check_orphan_stat(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    functions = _enclosing_functions(module.tree)
    found = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name != "StatCounter":
            continue
        if _inside_add_stat(node, functions):
            continue
        found.append(make_violation(
            _rule("SIM501"), module, node,
            "StatCounter constructed directly; it will never appear in "
            "stats_report() or any obs metric/ledger record — register it "
            "with self.add_stat(...) instead",
        ))
    return found


def _tracer_receiver(fn: ast.Attribute) -> Optional[str]:
    """The tracer-ish receiver name of ``<recv>.<method>(...)``, if any."""
    receiver = fn.value
    if isinstance(receiver, ast.Name) and receiver.id in _TRACER_NAMES:
        return receiver.id
    if isinstance(receiver, ast.Attribute) and receiver.attr in _TRACER_NAMES:
        return receiver.attr
    return None


@rule("SIM502", "nonliteral-span-name", _PACKAGES,
      "tracer span/event names must be string literals")
def check_nonliteral_span_name(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if not (isinstance(fn, ast.Attribute) and fn.attr in _TRACER_METHODS):
            continue
        receiver = _tracer_receiver(fn)
        if receiver is None:
            continue
        if not node.args:
            continue  # name passed by keyword or missing: runtime's problem
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            continue
        found.append(make_violation(
            _rule("SIM502"), module, node,
            f"{receiver}.{fn.attr}(...) with a non-literal event name; "
            "dynamic names explode the trace's track count and defeat "
            "cross-run diffing — use a literal name and put the varying "
            "part in the event args",
        ))
    return found
