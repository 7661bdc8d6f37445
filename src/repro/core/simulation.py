"""Build a machine, run one benchmark under one mechanism, report results.

This is the library's front door::

    from repro.core import baseline_config, run_benchmark
    result = run_benchmark("swim", "GHB", n_instructions=20_000)
    print(result.ipc)

Every figure and table in the paper reduces to grids of these runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.config import MachineConfig, baseline_config
from repro.cpu.ooo import CoreStats, OoOCore
from repro.mechanisms.base import Mechanism
from repro.mechanisms.registry import create
from repro.obs.sampling import maybe_sampler
from repro.obs.tracing import TRACER
from repro.workloads.registry import build as build_workload

#: Default trace length: scaled from the paper's 500M-instruction SimPoint
#: traces to what cycle-level pure-Python simulation sustains (DESIGN.md).
DEFAULT_INSTRUCTIONS = 30_000

#: Fraction of each trace treated as cache warm-up (IPC measured after it).
WARMUP_FRACTION = 0.2


@dataclass
class RunResult:
    """Everything a single simulation produced."""

    benchmark: str
    mechanism: str
    ipc: float
    cycles: int
    instructions: int
    l1_miss_rate: float
    l2_miss_rate: float
    avg_load_latency: float
    avg_memory_latency: float
    memory_accesses: float
    prefetches_issued: float
    useful_prefetches: float
    mechanism_table_accesses: float
    stats: Dict[str, float] = field(default_factory=dict)

    def speedup_over(self, base: "RunResult") -> float:
        """IPC speedup of this run over ``base`` (same benchmark)."""
        if self.benchmark != base.benchmark:
            raise ValueError(
                f"speedup across benchmarks: {self.benchmark} vs {base.benchmark}"
            )
        if base.ipc == 0:
            return 0.0
        return self.ipc / base.ipc


def build_machine(
    config: Optional[MachineConfig] = None,
    mechanism: Optional[Mechanism] = None,
    image=None,
) -> Tuple[OoOCore, MemoryHierarchy]:
    """Construct a core + hierarchy pair for ``config``."""
    config = config or baseline_config()
    hierarchy = MemoryHierarchy(config, mechanism=mechanism, image=image)
    core = OoOCore(config.core, hierarchy)
    return core, hierarchy


def run_trace(
    trace: Sequence,
    mechanism: Optional[Mechanism] = None,
    config: Optional[MachineConfig] = None,
    image=None,
    benchmark: str = "custom",
    mechanism_name: Optional[str] = None,
    warmup_fraction: float = WARMUP_FRACTION,
    fast: bool = True,
    checkpoint=None,
) -> RunResult:
    """Run an explicit trace on a fresh machine; return a :class:`RunResult`.

    ``fast=False`` disables the trace-speculation fast path
    (:mod:`repro.cpu.fastpath`); results are bit-identical either way —
    the knob exists so that equivalence stays testable.

    ``checkpoint`` is an optional mid-run checkpointer (see
    :class:`repro.exec.checkpoint.Checkpointer`).  Its newest sound cut,
    if one loads, replaces the fresh machine: the run continues on the
    unpickled core and hierarchy from the cut's record, with the cut's
    memory image given back the base it was pickled without (from
    ``image``).  Otherwise a fresh machine starts from record zero, and
    either way :meth:`OoOCore.run <repro.cpu.ooo.OoOCore.run>` cuts it
    every ``checkpoint.every`` records.  A checkpoint never enters a
    run's identity: a resumed run's result is bit-identical to an
    uninterrupted one, so the content-addressed store cannot tell them
    apart (and must not).
    """
    name = mechanism_name or _name_of(mechanism)
    tracing = TRACER.enabled
    if tracing:
        TRACER.begin("sim.run_trace", cat="sim",
                     benchmark=benchmark, mechanism=name)
    loaded = checkpoint.load() if checkpoint is not None else None
    resume = loaded[1] if loaded is not None else None
    if resume is None:
        core, hierarchy = build_machine(config, mechanism, image)
    else:
        core = resume["core"]
        hierarchy = core.hierarchy
        if hierarchy.image is not None:
            hierarchy.image.reattach_base(image)
    measure_from = int(len(trace) * warmup_fraction)
    sampler = maybe_sampler(hierarchy, len(trace))
    stats: CoreStats = core.run(trace, measure_from=measure_from,
                                sampler=sampler, fast=fast,
                                checkpoint=checkpoint, resume=resume)
    hierarchy.finalize_stats()
    hierarchy.sanitize_verify()  # no-op unless REPRO_SANITIZE=1
    result = _collect(benchmark, name, stats, hierarchy)
    if tracing:
        TRACER.end(ipc=round(result.ipc, 4), instructions=stats.instructions)
    return result


def run_benchmark(
    benchmark: str,
    mechanism_name: str = "Base",
    config: Optional[MachineConfig] = None,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    mechanism_kwargs: Optional[Dict] = None,
    trace_window: Optional[Tuple[int, int]] = None,
    fast: bool = True,
) -> RunResult:
    """Run one registry benchmark under one registry mechanism.

    ``trace_window=(skip, length)`` simulates only that slice of the
    generated trace — the paper's "skip N, simulate M" trace selection
    (the window is taken from a trace of at least ``skip + length``
    instructions).  ``fast`` is forwarded to :func:`run_trace`.
    """
    if trace_window is not None:
        skip, length = trace_window
        total = max(n_instructions, skip + length)
        trace, image = build_workload(benchmark, total)
        trace = trace[skip:skip + length]
    else:
        trace, image = build_workload(benchmark, n_instructions)
    mechanism = create(mechanism_name, **(mechanism_kwargs or {}))
    result = run_trace(
        trace, mechanism, config, image,
        benchmark=benchmark, mechanism_name=mechanism_name, fast=fast,
    )
    return result


def _name_of(mechanism: Optional[Mechanism]) -> str:
    return mechanism.ACRONYM if mechanism is not None else "Base"


def _collect(
    benchmark: str,
    mechanism_name: str,
    stats: CoreStats,
    hierarchy: MemoryHierarchy,
) -> RunResult:
    mech = hierarchy.mechanism
    table_accesses = 0.0
    if mech is not None:
        table_accesses = getattr(
            mech, "total_table_accesses", mech.st_table_accesses.value
        )
    memory = hierarchy.memory
    return RunResult(
        benchmark=benchmark,
        mechanism=mechanism_name,
        ipc=stats.ipc,
        cycles=stats.cycles,
        instructions=stats.instructions,
        l1_miss_rate=hierarchy.l1d.miss_rate,
        l2_miss_rate=hierarchy.l2.miss_rate,
        avg_load_latency=stats.avg_load_latency,
        avg_memory_latency=memory.average_latency,
        memory_accesses=memory.st_requests.value,
        prefetches_issued=hierarchy.st_prefetches_issued.value,
        useful_prefetches=(
            mech.useful_prefetches if mech is not None else 0.0
        ),
        mechanism_table_accesses=table_accesses,
        stats=hierarchy.stats_report(),
    )
