"""The full mechanism x benchmark speedup matrix.

The paper's figures are all projections of one underlying grid: 13
configurations x 26 benchmarks.  This module renders the grid itself —
the artifact a reader needs to check any projection, and the closest thing
to the online ranking the MicroLib website maintained.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.results import DEFAULT_INSTRUCTIONS
from repro.exec import Executor
from repro.harness.experiments import ExperimentResult, main_sweep
from repro.mechanisms.registry import BASELINE
from repro.workloads.registry import ALL_BENCHMARKS


def speedup_matrix(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """One row per mechanism: per-benchmark speedups plus the mean.

    The matrix is the one exhibit that renders failed cells *in place*:
    a cell whose spec (or whose baseline) exhausted every attempt shows
    ``FAILED`` where the speedup would be, and the mechanism's mean is
    taken over its surviving benchmarks only.
    """
    results = main_sweep(benchmarks=benchmarks, n_instructions=n_instructions,
                         executor=executor)

    def cell_ok(mechanism, benchmark):
        return ((mechanism, benchmark) in results
                and (BASELINE, benchmark) in results)

    rows = []
    for mechanism in results.mechanisms:
        if mechanism == BASELINE:
            continue
        row = {"mechanism": mechanism}
        usable = []
        for benchmark in results.benchmarks:
            if cell_ok(mechanism, benchmark):
                row[benchmark] = results.speedup(mechanism, benchmark)
                usable.append(benchmark)
            else:
                row[benchmark] = "FAILED"
        row["MEAN"] = (results.mean_speedup(mechanism, usable)
                       if usable else "FAILED")
        rows.append(row)
    base_row = {"mechanism": "Base(IPC)"}
    base_row.update({
        benchmark: (results.ipc(BASELINE, benchmark)
                    if (BASELINE, benchmark) in results else "FAILED")
        for benchmark in results.benchmarks
    })
    rows.append(base_row)
    notes = "the grid every figure projects; final row is baseline IPC"
    if not results.complete:
        failed = results.failures
        notes = (f"DEGRADED: {len(failed)} cell(s) failed after exhausting "
                 "retries (see FAILED entries); " + notes)
    return ExperimentResult(
        exhibit="Matrix",
        title="Full speedup matrix (all mechanisms x all benchmarks)",
        rows=rows,
        notes=notes,
    )
