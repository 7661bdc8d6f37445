"""Per-interval sampling: SimPoint-style breakdowns of a live run.

An :class:`IntervalSampler` rides inside :meth:`OoOCore.run
<repro.cpu.ooo.OoOCore.run>`: every ``interval`` committed trace records
it snapshots the hierarchy's ``stats_report()``, differences it against
the previous snapshot, and emits the per-interval rates (IPC, L1/L2
MPKI, memory traffic, prefetch issue) as one ``sim.interval`` Chrome
counter event, which Perfetto draws as tracks under the simulation's
spans.

The sampler only *reads* simulator state; it can never change a result,
so a sampled and an unsampled run of the same RunSpec stay bit-for-bit
identical (the content-addressed store depends on that).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.tracing import TRACER

#: Default number of intervals a traced run is split into.
DEFAULT_INTERVALS = 10


class IntervalSampler:
    """Delta-based interval sampling over one component subtree."""

    __slots__ = ("component", "interval", "_last_stats", "_last_index",
                 "_last_cycle")

    def __init__(self, component: Any, interval: int) -> None:
        self.component = component
        self.interval = max(1, int(interval))
        self._last_stats: Dict[str, float] = dict(component.stats_report())
        self._last_index = 0
        self._last_cycle = 0

    # -- sampling -------------------------------------------------------------

    def sample(self, index: int, cycle: int) -> None:
        """Record one interval ending at trace record ``index``/``cycle``."""
        stats = self.component.stats_report()
        d_index = index - self._last_index
        d_cycle = cycle - self._last_cycle
        if d_index <= 0:
            return

        def delta(*keys: str) -> float:
            return sum(
                stats.get(key, 0.0) - self._last_stats.get(key, 0.0)
                for key in keys
            )

        kilo = d_index / 1000.0
        TRACER.counter("sim.interval", {
            "ipc": d_index / d_cycle if d_cycle > 0 else 0.0,
            "l1_mpki": delta("memory.l1d.read_misses",
                             "memory.l1d.write_misses") / kilo,
            "l2_mpki": delta("memory.l2.read_misses",
                             "memory.l2.write_misses") / kilo,
            "mem_requests_pki": delta("memory.memctl.requests",
                                      "memory.constmem.requests") / kilo,
            "prefetches_pki": delta("memory.prefetches_issued") / kilo,
        })
        self._last_stats = dict(stats)
        self._last_index = index
        self._last_cycle = cycle

    def finish(self, index: int, cycle: int) -> None:
        """Flush the final (possibly partial) interval."""
        if index > self._last_index:
            self.sample(index, cycle)


def maybe_sampler(component: Any, total: int) -> Optional[IntervalSampler]:
    """An :class:`IntervalSampler` when the global tracer is armed, else None.

    This is what :func:`repro.core.simulation.run_trace` calls: interval
    breakdowns come for free on every traced run, and cost exactly one
    integer comparison per trace record otherwise.
    """
    if not TRACER.enabled:
        return None
    return IntervalSampler(component, max(total // DEFAULT_INTERVALS, 1))
