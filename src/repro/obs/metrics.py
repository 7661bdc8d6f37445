"""Unified metrics pipeline: typed, labeled series over raw statistics.

Every module in the tree already accounts for itself through
``StatCounter`` objects that :meth:`Component.stats_report` flattens
into ``{qualified_name: value}`` dicts.  This module is the layer above:
a :class:`MetricsRegistry` harvests those dicts (and whole
:class:`~repro.core.simulation.RunResult` objects, and executor
telemetry) into named, labeled :class:`MetricSeries`, and derives the
rates the paper argues about — IPC, MPKI, bus occupancy, prefetch
accuracy — so every consumer reads the same numbers from one place.

Series are cheap append-only lists; harvesting the same source twice
appends a second sample rather than overwriting, which is exactly what
the per-interval sampler (:mod:`repro.obs.sampling`) leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Canonical label tuple: sorted (key, value) string pairs.
Labels = Tuple[Tuple[str, str], ...]


def _canon_labels(labels: Mapping[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class MetricPoint:
    """One sample of a series: ``x`` is the sampling coordinate.

    ``x`` is the instruction index for interval samples and ``None`` for
    end-of-run totals, so interval breakdowns and whole-run summaries
    live in the same series type.
    """

    value: float
    x: Optional[float] = None


@dataclass
class MetricSeries:
    """A named, labeled sequence of samples."""

    name: str
    unit: str = ""
    labels: Labels = ()
    points: List[MetricPoint] = field(default_factory=list)

    def record(self, value: float, x: Optional[float] = None) -> None:
        self.points.append(MetricPoint(float(value), x))

    @property
    def latest(self) -> float:
        if not self.points:
            return 0.0
        return self.points[-1].value

    def values(self) -> List[float]:
        return [p.value for p in self.points]

    def __len__(self) -> int:
        return len(self.points)


class MetricsRegistry:
    """All series, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, Labels], MetricSeries] = {}

    def series(self, name: str, unit: str = "",
               **labels: Any) -> MetricSeries:
        """Get or create the series ``name`` under ``labels``."""
        key = (name, _canon_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = MetricSeries(name=name, unit=unit, labels=key[1])
            self._series[key] = series
        return series

    def get(self, name: str, **labels: Any) -> Optional[MetricSeries]:
        return self._series.get((name, _canon_labels(labels)))

    def latest(self, name: str, default: float = 0.0,
               **labels: Any) -> float:
        series = self.get(name, **labels)
        if series is None or not series.points:
            return default
        return series.latest

    def all_series(self) -> List[MetricSeries]:
        """Every series, sorted by (name, labels) for stable iteration."""
        return [self._series[key] for key in sorted(self._series)]

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._series})

    def __len__(self) -> int:
        return len(self._series)


#: Process-wide registry the CLI and sampler publish into.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    return _DEFAULT_REGISTRY


def reset_default_registry() -> MetricsRegistry:
    """Fresh default registry (tests); returns the new one."""
    global _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = MetricsRegistry()
    return _DEFAULT_REGISTRY


# -- derivation ----------------------------------------------------------------

def derive_metrics(result: Any) -> Dict[str, float]:
    """The paper's derived rates for one ``RunResult``.

    Works from the result's own fields plus its flattened
    ``stats_report`` dict; a stat the run did not record derives as 0
    (old cached results predating a stat read as missing, never wrong).
    """
    stats: Mapping[str, float] = getattr(result, "stats", {}) or {}
    instructions = float(getattr(result, "instructions", 0) or 0)
    cycles = float(getattr(result, "cycles", 0) or 0)
    kilo = instructions / 1000.0 if instructions else 0.0

    def per_kilo(*keys: str) -> float:
        if not kilo:
            return 0.0
        return sum(stats.get(key, 0.0) for key in keys) / kilo

    def occupancy(key: str) -> float:
        if not cycles:
            return 0.0
        return min(stats.get(key, 0.0) / cycles, 1.0)

    issued = float(getattr(result, "prefetches_issued", 0.0) or 0.0)
    useful = float(getattr(result, "useful_prefetches", 0.0) or 0.0)
    return {
        "ipc": float(getattr(result, "ipc", 0.0) or 0.0),
        "l1_mpki": per_kilo("memory.l1d.read_misses",
                            "memory.l1d.write_misses"),
        "l2_mpki": per_kilo("memory.l2.read_misses",
                            "memory.l2.write_misses"),
        "l1_l2_bus_occupancy": occupancy("memory.l1_l2_bus_busy_cycles"),
        "memory_bus_occupancy": occupancy("memory.memory_bus_busy_cycles"),
        "avg_memory_latency": float(
            getattr(result, "avg_memory_latency", 0.0) or 0.0),
        "memory_accesses_pki": (
            float(getattr(result, "memory_accesses", 0.0) or 0.0) / kilo
            if kilo else 0.0),
        "prefetch_accuracy": useful / issued if issued else 0.0,
    }


#: Units for the derived series (documentation + export).
DERIVED_UNITS = {
    "ipc": "instructions/cycle",
    "l1_mpki": "misses/kilo-instruction",
    "l2_mpki": "misses/kilo-instruction",
    "l1_l2_bus_occupancy": "fraction",
    "memory_bus_occupancy": "fraction",
    "avg_memory_latency": "cycles",
    "memory_accesses_pki": "accesses/kilo-instruction",
    "prefetch_accuracy": "fraction",
}


def harvest_stats(stats: Mapping[str, float], registry: MetricsRegistry,
                  x: Optional[float] = None, **labels: Any) -> int:
    """Ingest one flattened ``stats_report`` dict; returns series touched."""
    for key in sorted(stats):
        registry.series(key, **labels).record(stats[key], x=x)
    return len(stats)


def harvest_result(result: Any, registry: Optional[MetricsRegistry] = None,
                   **extra_labels: Any) -> MetricsRegistry:
    """Publish one ``RunResult`` — raw stats and derived rates.

    Raw statistics keep their qualified names (``memory.l1d.reads``);
    derived rates land under ``derived.<rate>``.  Labels are the run's
    benchmark and mechanism plus anything in ``extra_labels``.
    """
    registry = registry if registry is not None else get_default_registry()
    labels = {
        "benchmark": getattr(result, "benchmark", ""),
        "mechanism": getattr(result, "mechanism", ""),
    }
    labels.update(extra_labels)
    harvest_stats(getattr(result, "stats", {}) or {}, registry, **labels)
    derived = derive_metrics(result)
    for key in sorted(derived):
        registry.series(
            f"derived.{key}", unit=DERIVED_UNITS.get(key, ""), **labels
        ).record(derived[key])
    return registry


# -- executor telemetry --------------------------------------------------------

#: Series names the executor publishes (one value per summary).
EXECUTOR_SERIES = (
    "executor.results", "executor.simulated", "executor.memo_hits",
    "executor.store_hits", "executor.deduped", "executor.batches",
    "executor.wall_seconds", "executor.sim_seconds",
    # fault tolerance (see repro.exec.policy / repro.exec.faults)
    "executor.retries", "executor.failures", "executor.timeouts",
    "executor.pool_rebuilds", "executor.store_corrupt",
    # durability (see repro.exec.journal): specs a resumed run served
    # from the write-ahead sweep journal instead of re-dispatching
    "executor.journal_served",
    # fleet service (see repro.serve): specs this client's submission
    # enqueued vs. answered by another client's in-flight work
    "executor.leased", "executor.shared",
    # fleet hardening: submissions shed by admission control, poison
    # specs resolved by quarantine, deadline-expired holes
    "executor.shed", "executor.quarantined", "executor.expired",
    # mid-run checkpointing (see repro.exec.checkpoint): snapshots cut,
    # attempts resumed from one
    "executor.checkpoints", "executor.resumed_from_ckpt",
)


def harvest_executor(telemetry: Any,
                     registry: Optional[MetricsRegistry] = None,
                     **labels: Any) -> MetricsRegistry:
    """Publish executor telemetry counters into ``registry``.

    The fault counters read through ``getattr`` with a default so a
    pickled/duck-typed telemetry object predating them still harvests.
    """
    registry = registry if registry is not None else get_default_registry()
    values = {
        "executor.results": telemetry.results_returned,
        "executor.simulated": telemetry.simulated,
        "executor.memo_hits": telemetry.memo_hits,
        "executor.store_hits": telemetry.store_hits,
        "executor.deduped": telemetry.deduped,
        "executor.batches": telemetry.batches,
        "executor.wall_seconds": telemetry.wall_time,
        "executor.sim_seconds": telemetry.sim_seconds,
        "executor.retries": getattr(telemetry, "retries", 0),
        "executor.failures": getattr(telemetry, "failures", 0),
        "executor.timeouts": getattr(telemetry, "timeouts", 0),
        "executor.pool_rebuilds": getattr(telemetry, "pool_rebuilds", 0),
        "executor.store_corrupt": getattr(telemetry, "store_corrupt", 0),
        "executor.journal_served": getattr(telemetry, "journal_served", 0),
        "executor.leased": getattr(telemetry, "leased", 0),
        "executor.shared": getattr(telemetry, "shared", 0),
        "executor.shed": getattr(telemetry, "shed", 0),
        "executor.quarantined": getattr(telemetry, "quarantined", 0),
        "executor.expired": getattr(telemetry, "expired", 0),
        "executor.checkpoints": getattr(telemetry, "checkpoints", 0),
        "executor.resumed_from_ckpt": getattr(telemetry,
                                              "resumed_from_ckpt", 0),
    }
    for name in EXECUTOR_SERIES:
        unit = "seconds" if name.endswith("seconds") else "count"
        registry.series(name, unit=unit, **labels).record(values[name])
    return registry


def executor_summary_line(telemetry: Any,
                          registry: Optional[MetricsRegistry] = None) -> str:
    """The one-line executor accounting, rendered *from the registry*.

    This is the single reporting path for single runs, exhibits and
    ``--jobs`` batches: the telemetry counters are harvested into the
    metrics registry and the summary string is built from the registry's
    series, so anything else reading the registry sees exactly the
    numbers the stderr line reports.

    Fault-tolerance counters (retries, timeouts, worker respawns, failed
    specs, corrupt store entries) are appended only when nonzero — a
    clean run's line is byte-identical to what it always was.
    """
    registry = harvest_executor(telemetry, registry)
    latest = registry.latest
    results = int(latest("executor.results"))
    simulated = int(latest("executor.simulated"))
    memo = int(latest("executor.memo_hits"))
    store = int(latest("executor.store_hits"))
    deduped = int(latest("executor.deduped"))
    wall = latest("executor.wall_seconds")
    sim_seconds = latest("executor.sim_seconds")
    parts = [
        f"{results} results",
        f"{simulated} simulated",
        f"{memo + store + deduped} cache hits "
        f"({memo} memo, {store} store, {deduped} deduped)",
        f"wall {wall:.2f}s",
    ]
    if simulated:
        parts.append(f"avg {sim_seconds / simulated:.3f}s/sim")
    for name, noun in (
        ("executor.journal_served", "journal-served"),
        ("executor.leased", "leased"),
        ("executor.shared", "shared"),
        ("executor.shed", "shed"),
        ("executor.quarantined", "quarantined"),
        ("executor.expired", "expired"),
        ("executor.checkpoints", "checkpoints"),
        ("executor.resumed_from_ckpt", "resumed-from-ckpt"),
        ("executor.retries", "retries"),
        ("executor.timeouts", "timeouts"),
        ("executor.pool_rebuilds", "worker respawns"),
        ("executor.failures", "FAILED"),
        ("executor.store_corrupt", "corrupt store entries"),
    ):
        count = int(latest(name))
        if count:
            parts.append(f"{count} {noun}")
    return "executor: " + ", ".join(parts)
