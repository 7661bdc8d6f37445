"""SIM6xx — robustness discipline.

The fault-tolerance layer (:mod:`repro.exec.policy`) gives failures one
sanctioned shape: an attempt either propagates its exception (so the
retry machinery can count, back off and re-run it) or is deliberately
converted into a :class:`~repro.exec.policy.FailedRun` hole that stays
visible in grids, tables and the ledger.  What it must never do is
evaporate — a ``try/except`` that catches broadly and carries on turns a
mis-simulated cell into a silently wrong number, which is precisely the
methodological rot the paper warns about.

* SIM601 ``swallowed-exception`` — an ``except`` handler in a sim-path
  package that catches ``Exception``/``BaseException`` (or everything,
  via a bare ``except:``) without re-raising or referencing
  ``FailedRun``, or any handler whose whole body is ``pass``.
  Legitimate sites (best-effort cleanup that re-raises elsewhere,
  benign races on garbage deletion) carry an
  ``# simlint: allow[SIM601] <reason>`` justification.

* SIM602 ``trapped-interrupt`` — an ``except`` handler that names
  ``KeyboardInterrupt`` or ``SystemExit`` without re-raising or routing
  through the shutdown layer (:mod:`repro.exec.shutdown`).  Since the
  graceful-shutdown work, Ctrl-C and SIGTERM are *requests* the sweep
  must honour — drain, flush the journal, exit ``128 + signum`` — and a
  handler that traps the interrupt and carries on breaks that contract:
  the operator's second signal is then the only way out, and it loses
  the drain.  Handlers that re-raise (the standard
  ``except KeyboardInterrupt: raise`` pass-through) or reference the
  shutdown manager / :class:`~repro.exec.shutdown.SweepInterrupted` are
  sanctioned; anything else needs an
  ``# simlint: allow[SIM602] <reason>``.

* SIM605 ``unbounded-queue`` — constructing an unbounded buffer in
  :mod:`repro.serve`: ``asyncio.Queue()`` (or ``queue.Queue``/
  ``LifoQueue``/``PriorityQueue``) without a ``maxsize``, or a
  ``deque()`` without a ``maxlen``.  A service that buffers without
  bound converts overload into memory growth — the failure mode
  admission control exists to prevent — so every buffer either states
  its bound or carries an ``# simlint: allow[SIM605] <reason>``
  justifying *why* its growth is bounded elsewhere.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from repro.analysis.contract import _rule
from repro.analysis.core import (
    SIM_PATH_PACKAGES,
    SourceModule,
    Violation,
    make_violation,
    rule,
)

#: The sim path plus the execution layer that shepherds its failures.
_PACKAGES = SIM_PATH_PACKAGES + ("exec",)

#: Exception names considered catch-everything.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _caught_names(handler: ast.ExceptHandler) -> List[str]:
    """The exception names a handler catches ([] for a bare ``except:``)."""
    node = handler.type
    if node is None:
        return []
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for item in nodes:
        if isinstance(item, ast.Name):
            names.append(item.id)
        elif isinstance(item, ast.Attribute):
            names.append(item.attr)
    return names


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except catches everything
    return any(name in _BROAD_NAMES for name in _caught_names(handler))


def _handler_converts(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises or converts to a FailedRun."""
    for node in handler.body:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise):
                return True
            if isinstance(inner, ast.Name) and inner.id == "FailedRun":
                return True
            if isinstance(inner, ast.Attribute) and inner.attr == "FailedRun":
                return True
    return False


def _is_pass_only(handler: ast.ExceptHandler) -> bool:
    return all(isinstance(node, ast.Pass) for node in handler.body)


#: Interrupt-class exceptions a sweep must honour, never trap (SIM602).
_INTERRUPT_NAMES = frozenset({"KeyboardInterrupt", "SystemExit"})


def _routes_shutdown(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises or defers to the shutdown layer.

    A ``raise`` anywhere in the body sanctions it (the pass-through
    idiom and conversion to :class:`SweepInterrupted` both qualify), as
    does any reference whose name mentions the shutdown machinery —
    ``SHUTDOWN``, ``ShutdownManager``, ``self.shutdown``,
    ``SweepInterrupted`` — since routing through the manager is exactly
    the sanctioned response to an interrupt.
    """
    for node in handler.body:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise):
                return True
            name = None
            if isinstance(inner, ast.Name):
                name = inner.id
            elif isinstance(inner, ast.Attribute):
                name = inner.attr
            if name is not None:
                lowered = name.lower()
                if "shutdown" in lowered or lowered == "sweepinterrupted":
                    return True
    return False


@rule("SIM601", "swallowed-exception", _PACKAGES,
      "sim-path code must not swallow exceptions: re-raise, convert to "
      "a FailedRun, or justify with an allow comment")
def check_swallowed_exception(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if _is_pass_only(handler):
                caught = ", ".join(_caught_names(handler)) or "everything"
                found.append(make_violation(
                    _rule("SIM601"), module, handler,
                    f"except ({caught}) with a pass-only body silently "
                    "discards the failure; handle it, re-raise, or "
                    "justify the suppression with an allow comment",
                ))
                continue
            if _is_broad(handler) and not _handler_converts(handler):
                caught = ", ".join(_caught_names(handler)) or "bare except"
                found.append(make_violation(
                    _rule("SIM601"), module, handler,
                    f"broad handler ({caught}) neither re-raises nor "
                    "converts to a FailedRun; a swallowed failure here "
                    "becomes a silently wrong result — let it propagate "
                    "so the retry policy can account for it",
                ))
    return found


@rule("SIM602", "trapped-interrupt", _PACKAGES,
      "sim-path code must not trap KeyboardInterrupt/SystemExit: "
      "re-raise, or route through the shutdown manager")
def check_trapped_interrupt(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            trapped = [name for name in _caught_names(handler)
                       if name in _INTERRUPT_NAMES]
            # Bare excepts and BaseException handlers are SIM601's beat;
            # SIM602 is about handlers that *name* an interrupt.
            if not trapped or _routes_shutdown(handler):
                continue
            caught = ", ".join(trapped)
            found.append(make_violation(
                _rule("SIM602"), module, handler,
                f"handler traps {caught} without re-raising or routing "
                "through the shutdown manager; a trapped interrupt "
                "skips the graceful drain-and-journal path and strands "
                "the operator — re-raise it, raise SweepInterrupted, "
                "or justify with an allow comment",
            ))
    return found


#: Queue classes whose constructor takes ``maxsize`` (0 = unbounded).
_QUEUE_TYPES = frozenset({"Queue", "LifoQueue", "PriorityQueue"})

#: Modules the queue/deque constructors are expected to hang off.
_QUEUE_MODULES = frozenset({"asyncio", "queue", "collections"})


def _unbounded_reason(call: ast.Call) -> Optional[str]:
    """Why ``call`` builds an unbounded buffer, or None when it doesn't."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif (isinstance(func, ast.Attribute)
          and isinstance(func.value, ast.Name)
          and func.value.id in _QUEUE_MODULES):
        name = func.attr
    else:
        return None
    if name == "deque":
        # maxlen is the second positional or the keyword.
        if len(call.args) >= 2 or any(
                kw.arg == "maxlen" for kw in call.keywords):
            return None
        return "deque() without maxlen"
    if name in _QUEUE_TYPES:
        # maxsize is the first positional or the keyword.
        if call.args or any(kw.arg == "maxsize" for kw in call.keywords):
            return None
        return f"{name}() without maxsize"
    return None


@rule("SIM605", "unbounded-queue", ("serve",),
      "buffers in repro.serve must state their bound: asyncio/queue "
      "Queues take maxsize, deques take maxlen; a bound enforced "
      "elsewhere needs an allow[] justification")
def check_unbounded_queue(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        reason = _unbounded_reason(node)
        if reason is None:
            continue
        found.append(make_violation(
            _rule("SIM605"), module, node,
            f"{reason} buffers without bound, turning overload into "
            "silent memory growth; pass an explicit bound or justify "
            "with allow[SIM605] why growth is capped elsewhere",
        ))
    return found
