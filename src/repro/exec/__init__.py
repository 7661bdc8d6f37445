"""Declarative execution layer: RunSpec -> Executor -> RunResult.

Run identity is the content of a :class:`~repro.exec.runspec.RunSpec`
(never a caller-chosen label); execution, deduplication, parallel
fan-out, persistent caching and instrumentation live in
:class:`~repro.exec.executor.Executor`.  The harness drivers and the CLI
all submit their runs through one shared executor, obtained from
:func:`get_default_executor` unless a caller passes its own.

The module-level default starts life serial (``jobs=1``) and memory-only
— importing the library never forks processes or writes to disk.  The
CLI upgrades it (``--jobs``, ``--cache-dir``) via
:func:`set_default_executor`.

Fault tolerance: a :class:`~repro.exec.policy.RetryPolicy` governs
retries, per-attempt timeouts and strict-vs-degraded failure handling;
exhausted specs surface as :class:`~repro.exec.policy.FailedRun` holes
(or :class:`~repro.exec.policy.SpecExhausted` in strict mode).  Every
recovery path is exercisable deterministically via ``REPRO_FAULTS``
(:mod:`repro.exec.faults`).

Durability: multi-spec batches are backed by a crash-safe write-ahead
journal when a journal directory is configured, ``--resume`` replays
it, SIGINT/SIGTERM shut down gracefully through
:class:`~repro.exec.shutdown.ShutdownManager`, and ``python -m
repro.exec fsck`` verifies store integrity.  :mod:`repro.exec.journal`
also owns the one JSON-lines log format (append, replay, tail,
last-record-wins fold) that the fleet WALs (:mod:`repro.exec.fleet`),
fsck's audit trail and the benchmark ledger (:mod:`repro.obs.ledger`)
are written in.
"""

from __future__ import annotations

from typing import Optional

from repro.exec.executor import Executor
from repro.exec.faults import (
    FaultPlan,
    active_plan,
    parse_fault_spec,
    set_active_plan,
)
from repro.exec.journal import (
    JournalState,
    SweepJournal,
    read_state,
    scan_journals,
    sweep_identity,
)
from repro.exec.policy import (
    ExecutionError,
    FailedRun,
    RetryPolicy,
    SpecExhausted,
    SpecTimeout,
)
from repro.exec.runspec import RunSpec
from repro.exec.shutdown import (
    SHUTDOWN,
    ShutdownManager,
    SweepInterrupted,
)
from repro.exec.store import FsckReport, ResultStore, default_cache_dir
from repro.exec.telemetry import RunRecord, Telemetry

__all__ = [
    "ExecutionError",
    "Executor",
    "FailedRun",
    "FaultPlan",
    "FsckReport",
    "JournalState",
    "ResultStore",
    "RetryPolicy",
    "RunRecord",
    "RunSpec",
    "SHUTDOWN",
    "ShutdownManager",
    "SpecExhausted",
    "SpecTimeout",
    "SweepInterrupted",
    "SweepJournal",
    "Telemetry",
    "active_plan",
    "default_cache_dir",
    "get_default_executor",
    "parse_fault_spec",
    "read_state",
    "reset_default_executor",
    "scan_journals",
    "set_active_plan",
    "set_default_executor",
    "sweep_identity",
]

_default_executor: Optional[Executor] = None


def get_default_executor() -> Executor:
    """The process-wide shared executor (created on first use)."""
    global _default_executor
    if _default_executor is None:
        _default_executor = Executor(jobs=1)
    return _default_executor


def set_default_executor(executor: Executor) -> Executor:
    """Install ``executor`` as the process-wide default; returns it."""
    global _default_executor
    _default_executor = executor
    return executor


def reset_default_executor() -> None:
    """Drop the default executor (and its memo); tests use this."""
    global _default_executor
    _default_executor = None
