"""Executor instrumentation: where every result came from, and how fast.

The executor records one :class:`RunRecord` per *resolved* spec — whether
it was simulated, answered from the in-process memo, or read from the
on-disk store — plus batch wall-clock time.  ``summary_line()`` is the
one-line accounting the CLI prints after ``python -m repro all``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: Result provenance values.
SOURCE_SIMULATED = "simulated"
SOURCE_MEMO = "memo"
SOURCE_STORE = "store"
SOURCE_FAILED = "failed"   # every attempt failed; resolved to a FailedRun
SOURCE_JOURNAL = "journal"  # --resume served it from the sweep journal


@dataclass(frozen=True)
class RunRecord:
    """Provenance and cost of one resolved spec."""

    spec_hash: str
    benchmark: str
    mechanism: str
    source: str            # one of the SOURCE_* values
    seconds: float = 0.0   # simulation wall time (0 for cache answers)


@dataclass
class Telemetry:
    """Counters accumulated across an executor's lifetime."""

    records: List[RunRecord] = field(default_factory=list)
    results_returned: int = 0   # includes in-batch duplicates
    deduped: int = 0            # duplicate specs folded within batches
    batches: int = 0
    wall_time: float = 0.0      # total batch wall-clock, seconds
    # -- fault tolerance (see repro.exec.policy / repro.exec.faults) ----------
    retries: int = 0            # re-attempts after a failed/hung attempt
    failures: int = 0           # specs that exhausted every attempt
    timeouts: int = 0           # attempts stopped by the per-attempt timeout
    pool_rebuilds: int = 0      # fleet workers respawned after dying holding a lease
    store_corrupt: int = 0      # defective store entries read as misses
    # -- fleet service (see repro.serve) --------------------------------------
    leased: int = 0             # specs this client's submission enqueued
    shared: int = 0             # specs answered by another client's in-flight work
    shed: int = 0               # overloaded refusals absorbed before admission
    quarantined: int = 0        # holes resolved by a poison-quarantine record
    expired: int = 0            # holes resolved by a deadline-expiry record
    # -- mid-run checkpointing (see repro.exec.checkpoint) --------------------
    checkpoints: int = 0        # mid-run snapshots cut to disk
    resumed_from_ckpt: int = 0  # attempts that resumed from a snapshot

    # -- recording ------------------------------------------------------------

    def record(self, record: RunRecord) -> None:
        self.records.append(record)

    def record_batch(self, n_specs: int, n_unique: int, seconds: float) -> None:
        self.batches += 1
        self.results_returned += n_specs
        self.deduped += n_specs - n_unique
        self.wall_time += seconds

    # -- accounting -----------------------------------------------------------

    def _count(self, source: str) -> int:
        return sum(1 for r in self.records if r.source == source)

    @property
    def simulated(self) -> int:
        return self._count(SOURCE_SIMULATED)

    @property
    def memo_hits(self) -> int:
        return self._count(SOURCE_MEMO)

    @property
    def store_hits(self) -> int:
        return self._count(SOURCE_STORE)

    @property
    def failed(self) -> int:
        return self._count(SOURCE_FAILED)

    @property
    def journal_served(self) -> int:
        """Specs a resumed run answered from the sweep journal — a
        finished result re-read from the store without re-dispatch, or
        a persisted FailedRun hole served instead of re-running an
        exhausted spec."""
        return self._count(SOURCE_JOURNAL)

    @property
    def cache_hits(self) -> int:
        """Everything answered without simulating (memo + store + dedupe)."""
        return self.memo_hits + self.store_hits + self.deduped

    @property
    def sim_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def summary_line(self) -> str:
        """One-line accounting, rendered through the obs metrics registry.

        ``repro.obs.metrics.executor_summary_line`` harvests the counters
        into the default registry and formats the exact line this method
        has always printed — one code path for ``--jobs`` batches and
        single runs alike.  (Imported here, not at module top, so the
        executor package stays importable without ``repro.obs``.)
        """
        from repro.obs.metrics import executor_summary_line

        return executor_summary_line(self)
