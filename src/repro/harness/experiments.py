"""Drivers for every figure and table in the paper's evaluation.

Conventions
-----------
* Every driver takes ``n_instructions`` (trace length per run) and
  ``benchmarks`` so tests can run small and EXPERIMENTS.md can run large.
* Drivers never call the simulator directly: they build declarative
  :class:`~repro.exec.runspec.RunSpec` batches and submit them through a
  shared :class:`~repro.exec.executor.Executor` (pass ``executor=`` or
  rely on :func:`repro.exec.get_default_executor`).  Run identity is the
  spec's content hash — benchmark, mechanism + kwargs, the full machine
  config, trace selection — so distinct configurations can never collide
  in the cache, and exhibits that share grid cells (the Figure 4 grid
  feeds Figures 5-7 and Tables 6-7) pay for each cell once.
* Results carry structured ``rows`` plus a ``render()`` producing the
  paper-style text table.
* Durability comes free with the executor: because drivers submit
  declarative spec batches (never imperative loops of simulator calls),
  every multi-spec exhibit is automatically backed by the write-ahead
  sweep journal when the CLI configures one — a killed ``fig4`` resumes
  with ``--resume`` and renders the identical table, with the finished
  cells served from the journal + store instead of re-simulated.
  Drivers need no code for this and must not add any: resumption is the
  executor's job, and a driver that caches or checkpoints on the side
  would fork the single source of truth the journal provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import (
    MEMORY_CONSTANT,
    MEMORY_SDRAM_FAST,
    MachineConfig,
    baseline_config,
)
from repro.core.results import DEFAULT_INSTRUCTIONS, ResultSet
from repro.core.selection import (
    count_possible_winners,
    rank_mechanisms,
    ranking_positions,
    winners_by_subset_size,
)
from repro.core.sensitivity import (
    benchmark_sensitivity,
    sensitivity_split,
    subset_speedups,
)
from repro.core.priorwork import comparison_pairs
from repro.costmodel.cacti import CactiModel
from repro.costmodel.power import PowerModel
from repro.exec import Executor, FailedRun, RunSpec, get_default_executor
from repro.mechanisms.registry import ALL_MECHANISMS, BASELINE, create
from repro.workloads.registry import (
    ALL_BENCHMARKS,
    ARTICLE_SELECTIONS,
)


@dataclass
class ExperimentResult:
    """Structured outcome of one reproduced exhibit."""

    exhibit: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        lines = [f"== {self.exhibit}: {self.title} =="]
        for row in self.rows:
            cells = []
            for key, value in row.items():
                if isinstance(value, float):
                    cells.append(f"{key}={value:.3f}")
                else:
                    cells.append(f"{key}={value}")
            lines.append("  " + "  ".join(cells))
        if self.summary:
            summary = "  ".join(
                f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
                for key, value in self.summary.items()
            )
            lines.append(f"  -- {summary}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def main_sweep(
    config: Optional[MachineConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    mechanisms: Sequence[str] = ALL_MECHANISMS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    mechanism_kwargs: Optional[Dict[str, Dict]] = None,
    executor: Optional[Executor] = None,
) -> ResultSet:
    """The mechanism x benchmark grid, cached by run content (not label)."""
    ex = executor or get_default_executor()
    return ex.run_sweep(
        config=config,
        benchmarks=benchmarks,
        mechanisms=mechanisms,
        n_instructions=n_instructions,
        mechanism_kwargs=mechanism_kwargs,
    )


# ---------------------------------------------------------------------------
# Graceful degradation helpers
# ---------------------------------------------------------------------------
#
# Under a lenient retry policy (the CLI default) a batch may resolve some
# positions to FailedRun holes and a sweep's ResultSet may carry failed
# cells.  Exhibits degrade at benchmark granularity: a group (or grid
# column) containing any hole is dropped from the numbers and named in
# the exhibit's note, so a partially failed run still renders — honestly.

def _complete_groups(results, group_size, keys):
    """Split a flat batch into per-key groups, quarantining holed ones.

    ``results`` is ``group_size * len(keys)`` entries in key order.
    Returns ``(survivors, dropped)``: survivors as ``(key, group)`` pairs
    containing only real results, dropped as the keys whose group has at
    least one :class:`FailedRun`.
    """
    survivors = []
    dropped = []
    for index, key in enumerate(keys):
        group = results[index * group_size:(index + 1) * group_size]
        if any(isinstance(r, FailedRun) for r in group):
            dropped.append(key)
        else:
            survivors.append((key, group))
    if not survivors:
        raise RuntimeError(
            f"every group failed ({len(dropped)} of {len(dropped)}); "
            "nothing to render — rerun with --retries or --strict to "
            "see the underlying errors"
        )
    return survivors, dropped


def _degraded_note(dropped, what: str = "benchmark") -> str:
    """The note fragment naming what a degraded exhibit is missing."""
    if not dropped:
        return ""
    names = ", ".join(str(key) for key in dropped)
    return (f"DEGRADED: dropped {len(dropped)} {what}(s) after failed "
            f"runs: {names}")


def _join_notes(*notes: str) -> str:
    return "; ".join(note for note in notes if note)


def _densify(*sweeps: ResultSet):
    """Restrict sweeps to benchmarks hole-free in *all* of them.

    Sweep-driven exhibits aggregate whole grid columns, so one failed
    cell poisons its benchmark everywhere that benchmark appears.
    Returns the restricted sweeps plus the degradation note ("" when
    everything is complete).
    """
    holed = set()
    for sweep in sweeps:
        holed.update(sweep.incomplete_benchmarks())
    if not holed:
        return (*sweeps, "")
    dense = tuple(
        sweep.subset(b for b in sweep.benchmarks if b not in holed)
        for sweep in sweeps
    )
    if any(not sweep.benchmarks for sweep in dense):
        raise RuntimeError(
            "every benchmark had failed cells; nothing to render — rerun "
            "with --retries or --strict to see the underlying errors"
        )
    note = _degraded_note(sorted(holed))
    return (*dense, note)


# ---------------------------------------------------------------------------
# Figure 1 — cache-model precision validation
# ---------------------------------------------------------------------------

def fig1_model_validation(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """IPC difference between the MicroLib cache and a SimpleScalar-like one.

    The paper measured a 6.8% average IPC difference between the hybrid
    SimpleScalar+MicroLib model and original SimpleScalar, traced to the
    finite MSHR, pipeline stalls, LSQ back-pressure and refill ports; after
    aligning the models the residual was 2%.
    """
    ex = executor or get_default_executor()
    precise = baseline_config()
    imprecise = precise.with_simplescalar_cache()
    specs = []
    for benchmark in benchmarks:
        specs.append(RunSpec(benchmark, BASELINE, config=precise,
                             n_instructions=n_instructions))
        specs.append(RunSpec(benchmark, BASELINE, config=imprecise,
                             n_instructions=n_instructions))
    results = ex.run(specs)
    survivors, dropped = _complete_groups(results, 2, list(benchmarks))
    rows = []
    diffs = []
    for benchmark, (a, b) in survivors:
        diff = abs(b.ipc - a.ipc) / a.ipc if a.ipc else 0.0
        diffs.append(diff)
        rows.append({
            "benchmark": benchmark,
            "ipc_microlib": a.ipc,
            "ipc_simplescalar_like": b.ipc,
            "abs_diff_pct": 100 * diff,
        })
    return ExperimentResult(
        exhibit="Figure 1",
        title="MicroLib cache model vs SimpleScalar-like cache model",
        rows=rows,
        summary={"avg_abs_ipc_diff_pct": 100 * sum(diffs) / len(diffs)},
        notes=_join_notes(_degraded_note(dropped),
                          "paper: 6.8% average before model alignment"),
    )


# ---------------------------------------------------------------------------
# Figure 2 — reverse-engineering error for TK / TCP / TKVC
# ---------------------------------------------------------------------------

def fig2_reveng_error(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """Speedup error between reference and reverse-engineered builds.

    The paper validated TK, TCP and TKVC against the graphs in their
    articles (70-cycle constant memory, as in those articles) and found a
    5% average speedup error.  We reproduce the protocol with a *reference*
    build standing in for the article numbers and a plausibly-misread
    ``reverse_engineered`` build standing in for the authors' first
    attempt.
    """
    ex = executor or get_default_executor()
    config = baseline_config().with_memory_model(MEMORY_CONSTANT)
    cells = [(acronym, benchmark)
             for acronym in ("TK", "TCP", "TKVC")
             for benchmark in benchmarks]
    specs = []
    for acronym, benchmark in cells:
        specs.append(RunSpec(benchmark, BASELINE, config=config,
                             n_instructions=n_instructions))
        specs.append(RunSpec(benchmark, acronym, config=config,
                             n_instructions=n_instructions))
        specs.append(RunSpec(benchmark, acronym, config=config,
                             n_instructions=n_instructions,
                             mechanism_kwargs={"reverse_engineered": True}))
    results = ex.run(specs)
    survivors, dropped = _complete_groups(results, 3, cells)
    rows = []
    errors = []
    for (acronym, benchmark), (base, reference, misread) in survivors:
        ref_speedup = reference.speedup_over(base)
        bad_speedup = misread.speedup_over(base)
        error = abs(bad_speedup - ref_speedup) / ref_speedup
        errors.append(error)
        rows.append({
            "mechanism": acronym,
            "benchmark": benchmark,
            "reference_speedup": ref_speedup,
            "reveng_speedup": bad_speedup,
            "error_pct": 100 * error,
        })
    return ExperimentResult(
        exhibit="Figure 2",
        title="Reverse-engineering speedup error (TK, TCP, TKVC)",
        rows=rows,
        summary={"avg_error_pct": 100 * sum(errors) / len(errors)},
        notes=_join_notes(_degraded_note(dropped, "cell"),
                          "paper: 5% average error vs article graphs"),
    )


# ---------------------------------------------------------------------------
# Figure 3 — fixing the DBCP implementation
# ---------------------------------------------------------------------------

def fig3_dbcp_fix(
    benchmarks: Optional[Sequence[str]] = None,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """DBCP 'initial' (three reverse-engineering defects) vs 'fixed'.

    The paper's initial DBCP was off by 38% on average; the fixed build
    also outperformed TK, reversing the ranking published in the TK
    article.
    """
    ex = executor or get_default_executor()
    names = list(benchmarks) if benchmarks is not None else list(
        ARTICLE_SELECTIONS["DBCP"]
    )
    specs = []
    for benchmark in names:
        specs.append(RunSpec(benchmark, BASELINE,
                             n_instructions=n_instructions))
        specs.append(RunSpec(benchmark, "DBCP", n_instructions=n_instructions,
                             mechanism_kwargs={"variant": "initial"}))
        specs.append(RunSpec(benchmark, "DBCP", n_instructions=n_instructions,
                             mechanism_kwargs={"variant": "fixed"}))
        specs.append(RunSpec(benchmark, "TK", n_instructions=n_instructions))
    results = ex.run(specs)
    survivors, dropped = _complete_groups(results, 4, names)
    rows = []
    gaps = []
    fixed_speedups = []
    tk_speedups = []
    for benchmark, (base, initial, fixed, tk) in survivors:
        s_initial = initial.speedup_over(base)
        s_fixed = fixed.speedup_over(base)
        s_tk = tk.speedup_over(base)
        gaps.append(abs(s_fixed - s_initial) / s_initial if s_initial else 0)
        fixed_speedups.append(s_fixed)
        tk_speedups.append(s_tk)
        rows.append({
            "benchmark": benchmark,
            "initial": s_initial,
            "fixed": s_fixed,
            "tk": s_tk,
        })
    n = len(survivors)
    return ExperimentResult(
        exhibit="Figure 3",
        title="Fixing the DBCP reverse-engineered implementation",
        rows=rows,
        summary={
            "avg_initial_vs_fixed_gap_pct": 100 * sum(gaps) / n,
            "fixed_dbcp_mean_speedup": sum(fixed_speedups) / n,
            "tk_mean_speedup": sum(tk_speedups) / n,
        },
        notes=_join_notes(
            _degraded_note(dropped),
            "paper: 38% average initial-vs-fixed difference; fixed DBCP "
            "outperforms TK"),
    )


# ---------------------------------------------------------------------------
# Figure 4 — the headline speedup comparison
# ---------------------------------------------------------------------------

def fig4_speedup(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """Average IPC speedup of every mechanism over the Table 1 baseline."""
    results = main_sweep(benchmarks=benchmarks, n_instructions=n_instructions,
                         executor=executor)
    results, degraded = _densify(results)
    ranked = rank_mechanisms(results)
    rows = [
        {"mechanism": name, "mean_speedup": score,
         "year": _mechanism_year(name)}
        for name, score in ranked
    ]
    return ExperimentResult(
        exhibit="Figure 4",
        title="Average IPC speedup over the baseline (all benchmarks)",
        rows=rows,
        summary={"winner": ranked[0][0]},
        notes=_join_notes(
            degraded,
            "paper: GHB best, then SP, then TK; TP performs well for its "
            "age; performance progress 1982-2004 is irregular"),
    )


def _mechanism_year(name: str) -> int:
    from repro.mechanisms.registry import mechanism_info
    return mechanism_info(name).year


# ---------------------------------------------------------------------------
# Figure 5 — cost (area) and power ratios
# ---------------------------------------------------------------------------

def fig5_cost_power(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """Area and power of each mechanism relative to the base caches."""
    results = main_sweep(benchmarks=benchmarks, n_instructions=n_instructions,
                         executor=executor)
    results, degraded = _densify(results)
    cacti = CactiModel()
    power = PowerModel()
    rows = []
    for name in results.mechanisms:
        if name == BASELINE:
            continue
        mechanism = create(name)
        # Wire the mechanism to a throwaway hierarchy so structure sizing
        # that depends on the attached cache resolves.
        from repro.core.simulation import build_machine
        _, hierarchy = build_machine(mechanism=mechanism)
        cost_ratio = cacti.cost_ratio(mechanism)
        power_ratios = []
        for benchmark in results.benchmarks:
            run = results.get(name, benchmark)
            run_mech = _mechanism_with_activity(name, run)
            power_ratios.append(power.power_ratio(run_mech, run))
        rows.append({
            "mechanism": name,
            "cost_ratio": cost_ratio,
            "power_ratio": sum(power_ratios) / len(power_ratios),
            "mean_speedup": results.mean_speedup(name),
        })
    markov_cost = next(r["cost_ratio"] for r in rows if r["mechanism"] == "Markov")
    sp_cost = next(r["cost_ratio"] for r in rows if r["mechanism"] == "SP")
    return ExperimentResult(
        exhibit="Figure 5",
        title="Power and cost ratios",
        rows=rows,
        summary={"markov_cost_ratio": markov_cost, "sp_cost_ratio": sp_cost},
        notes=_join_notes(
            degraded,
            "paper: Markov/DBCP very costly; TP/SP/GHB almost free in "
            "area; GHB power-hungry despite small tables; SP the best "
            "overall trade-off"),
    )


def _mechanism_with_activity(name: str, run) -> object:
    """Rebuild a mechanism object carrying the run's activity counters."""
    mechanism = create(name)
    from repro.core.simulation import build_machine
    build_machine(mechanism=mechanism)  # attach for structure sizing
    mechanism.st_table_accesses.value = run.mechanism_table_accesses
    return mechanism


# ---------------------------------------------------------------------------
# Table 5 — who compared against whom
# ---------------------------------------------------------------------------

def table5_prior_comparisons() -> ExperimentResult:
    rows = [
        {"newer": newer, "compared_against": older}
        for newer, older in comparison_pairs()
    ]
    return ExperimentResult(
        exhibit="Table 5",
        title="Previous comparisons in the original articles",
        rows=rows,
        summary={"n_pairs": float(len(rows))},
        notes="few articles compare beyond one or two prior mechanisms",
    )


# ---------------------------------------------------------------------------
# Table 6 — which mechanism can win with N benchmarks
# ---------------------------------------------------------------------------

def table6_subset_winners(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    sizes: Optional[Sequence[int]] = None,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    results = main_sweep(benchmarks=benchmarks, n_instructions=n_instructions,
                         executor=executor)
    results, degraded = _densify(results)
    table = winners_by_subset_size(results, sizes)
    counts = count_possible_winners(table)
    rows = []
    for size in sorted(table):
        winners = [name for name, ok in table[size].items() if ok]
        rows.append({
            "n_benchmarks": size,
            "possible_winners": ",".join(winners),
            "count": len(winners),
        })
    multi_winner_sizes = [size for size, count in counts.items() if count > 1]
    return ExperimentResult(
        exhibit="Table 6",
        title="Which mechanism can be the best with N benchmarks?",
        rows=rows,
        summary={
            "max_size_with_multiple_winners": float(
                max(multi_winner_sizes) if multi_winner_sizes else 0
            ),
        },
        notes=_join_notes(
            degraded,
            "paper: more than one possible winner for any selection of "
            "up to 23 benchmarks; even poor-on-average mechanisms (FVC, "
            "Markov) win sizeable selections"),
    )


# ---------------------------------------------------------------------------
# Table 7 — influence of benchmark selection on ranking
# ---------------------------------------------------------------------------

def table7_selection_ranking(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    results = main_sweep(benchmarks=benchmarks, n_instructions=n_instructions,
                         executor=executor)
    results, degraded = _densify(results)
    available = set(results.benchmarks)
    selections = {
        "all": list(results.benchmarks),
        "DBCP_article": [b for b in ARTICLE_SELECTIONS["DBCP"] if b in available],
        "GHB_article": [b for b in ARTICLE_SELECTIONS["GHB"] if b in available],
    }
    rows = []
    ranks = {}
    for name, selection in selections.items():
        if not selection:
            continue
        positions = ranking_positions(results, selection)
        ranks[name] = positions
        row = {"selection": name}
        row.update({mech: positions[mech] for mech in results.mechanisms})
        rows.append(row)
    summary = {}
    if "all" in ranks and "DBCP_article" in ranks and "DBCP" in ranks["all"]:
        summary["dbcp_rank_all"] = float(ranks["all"]["DBCP"])
        summary["dbcp_rank_own_selection"] = float(ranks["DBCP_article"]["DBCP"])
    if "all" in ranks and "GHB_article" in ranks and "GHB" in ranks["all"]:
        summary["ghb_rank_all"] = float(ranks["all"]["GHB"])
        summary["ghb_rank_own_selection"] = float(ranks["GHB_article"]["GHB"])
    return ExperimentResult(
        exhibit="Table 7",
        title="Influence of benchmark selection on ranking",
        rows=rows,
        summary=summary,
        notes=_join_notes(
            degraded,
            "paper: DBCP ranks 9th on all 26 but 3rd on its article's "
            "selection; GHB 1st on all 26, 2nd on its own selection"),
    )


# ---------------------------------------------------------------------------
# Figures 6 and 7 — benchmark sensitivity
# ---------------------------------------------------------------------------

def fig6_sensitivity(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    results = main_sweep(benchmarks=benchmarks, n_instructions=n_instructions,
                         executor=executor)
    results, degraded = _densify(results)
    sensitivity = benchmark_sensitivity(results)
    rows = [
        {"benchmark": benchmark, "speedup_spread": spread}
        for benchmark, spread in sorted(
            sensitivity.items(), key=lambda kv: -kv[1]
        )
    ]
    return ExperimentResult(
        exhibit="Figure 6",
        title="Benchmark sensitivity to mechanisms",
        rows=rows,
        summary={"max_spread": rows[0]["speedup_spread"],
                 "min_spread": rows[-1]["speedup_spread"]},
        notes=_join_notes(
            degraded,
            "paper: wupwise/bzip2/crafty/eon/perlbmk/vortex barely "
            "sensitive; apsi/equake/fma3d/mgrid/swim/gap dominate"),
    )


def fig7_sensitivity_subsets(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    k: int = 6,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    results = main_sweep(benchmarks=benchmarks, n_instructions=n_instructions,
                         executor=executor)
    results, degraded = _densify(results)
    high, low = sensitivity_split(results, k=min(k, len(results.benchmarks) // 2))
    table = subset_speedups(results, {
        "all": results.benchmarks,
        "high_sensitivity": high,
        "low_sensitivity": low,
    })
    rows = []
    for label, speedups in table.items():
        row = {"subset": label}
        row.update(speedups)
        rows.append(row)
    def winner(label):
        speedups = table[label]
        return max(speedups, key=speedups.get)
    return ExperimentResult(
        exhibit="Figure 7",
        title="Speedups on high- and low-sensitivity benchmark subsets",
        rows=rows,
        summary={"high_subset": ",".join(high), "low_subset": ",".join(low),
                 "winner_high": winner("high_sensitivity"),
                 "winner_low": winner("low_sensitivity")},
        notes=_join_notes(
            degraded,
            "paper: absolute performance and ranking are severely "
            "affected by the subset choice"),
    )


# ---------------------------------------------------------------------------
# Figure 8 — memory-model precision
# ---------------------------------------------------------------------------

def fig8_memory_model(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """Constant-70 vs detailed SDRAM vs scaled SDRAM-70."""
    models = {
        "constant70": baseline_config().with_memory_model(MEMORY_CONSTANT),
        "sdram": baseline_config(),
        "sdram70": baseline_config().with_memory_model(MEMORY_SDRAM_FAST),
    }
    sweeps = {
        name: main_sweep(config=config, benchmarks=benchmarks,
                         n_instructions=n_instructions, executor=executor)
        for name, config in models.items()
    }
    # A benchmark with a failed cell under any memory model drops from
    # all three — the comparison only makes sense on the common grid.
    *dense, degraded = _densify(*sweeps.values())
    sweeps = dict(zip(sweeps, dense))
    rows = []
    for name in sweeps["sdram"].mechanisms:
        if name == BASELINE:
            continue
        row = {"mechanism": name}
        for model_name, results in sweeps.items():
            row[model_name] = results.mean_speedup(name)
        rows.append(row)

    def gain(row, label):
        return row[label] - 1.0

    reductions = []
    for row in rows:
        constant_gain = gain(row, "constant70")
        if constant_gain > 0.005:
            reductions.append(
                (constant_gain - gain(row, "sdram")) / constant_gain
            )
    ghb_row = next(r for r in rows if r["mechanism"] == "GHB")
    sp_row = next(r for r in rows if r["mechanism"] == "SP")
    # Per-benchmark average SDRAM latency (baseline) for the gzip/lucas story.
    latency_rows = [
        {"benchmark": b,
         "avg_sdram_latency": sweeps["sdram"].get(BASELINE, b).avg_memory_latency}
        for b in sweeps["sdram"].benchmarks
    ]
    return ExperimentResult(
        exhibit="Figure 8",
        title="Effect of the memory model",
        rows=rows + latency_rows,
        summary={
            "avg_speedup_reduction_pct": 100 * (
                sum(reductions) / len(reductions) if reductions else 0.0
            ),
            "ghb_constant_gain": gain(ghb_row, "constant70"),
            "ghb_sdram_gain": gain(ghb_row, "sdram"),
            "sp_constant_gain": gain(sp_row, "constant70"),
            "sp_sdram_gain": gain(sp_row, "sdram"),
        },
        notes=_join_notes(
            degraded,
            "paper: speedups shrink ~58% moving from the constant model "
            "to SDRAM; GHB suffers more than SP (memory pressure); "
            "average SDRAM latency varies strongly per benchmark "
            "(87 gzip .. 389 lucas)"),
    )


# ---------------------------------------------------------------------------
# Figure 9 — MSHR precision
# ---------------------------------------------------------------------------

def fig9_mshr(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    finite = main_sweep(benchmarks=benchmarks, n_instructions=n_instructions,
                        executor=executor)
    infinite = main_sweep(
        config=baseline_config().with_infinite_mshr(),
        benchmarks=benchmarks, n_instructions=n_instructions,
        executor=executor,
    )
    finite, infinite, degraded = _densify(finite, infinite)
    rows = []
    for name in finite.mechanisms:
        if name == BASELINE:
            continue
        rows.append({
            "mechanism": name,
            "finite_mshr": finite.mean_speedup(name),
            "infinite_mshr": infinite.mean_speedup(name),
        })
    finite_ranks = ranking_positions(finite)
    infinite_ranks = ranking_positions(infinite)
    flips = sum(
        1 for name in finite_ranks if finite_ranks[name] != infinite_ranks[name]
    )
    return ExperimentResult(
        exhibit="Figure 9",
        title="Effect of cache-model accuracy (finite vs infinite MSHR)",
        rows=rows,
        summary={"rank_changes": float(flips)},
        notes=_join_notes(
            degraded,
            "paper: the MSHR has a limited but sometimes peculiar effect; "
            "it can change ranking (TCP vs TK flip)"),
    )


# ---------------------------------------------------------------------------
# Figure 10 — second-guessing the authors (TCP prefetch queue size)
# ---------------------------------------------------------------------------

def fig10_second_guessing(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    ex = executor or get_default_executor()
    specs = []
    for benchmark in benchmarks:
        specs.append(RunSpec(benchmark, BASELINE,
                             n_instructions=n_instructions))
        specs.append(RunSpec(benchmark, "TCP", n_instructions=n_instructions,
                             mechanism_kwargs={"queue_size": 1}))
        specs.append(RunSpec(benchmark, "TCP", n_instructions=n_instructions,
                             mechanism_kwargs={"queue_size": 128}))
    results = ex.run(specs)
    survivors, dropped = _complete_groups(results, 3, list(benchmarks))
    rows = []
    diffs = []
    for benchmark, (base, small, large) in survivors:
        s_small = small.speedup_over(base)
        s_large = large.speedup_over(base)
        diffs.append(abs(s_large - s_small))
        rows.append({
            "benchmark": benchmark,
            "queue_1": s_small,
            "queue_128": s_large,
        })
    return ExperimentResult(
        exhibit="Figure 10",
        title="Effect of second-guessing: TCP prefetch queue 1 vs 128",
        rows=rows,
        summary={"max_abs_speedup_diff": max(diffs),
                 "avg_abs_speedup_diff": sum(diffs) / len(diffs)},
        notes=_join_notes(
            _degraded_note(dropped),
            "paper: tiny difference for crafty/eon, dramatic for "
            "lucas/mgrid/art; a large buffer seizes the bus and can delay "
            "normal misses"),
    )


# ---------------------------------------------------------------------------
# Figure 11 — trace selection
# ---------------------------------------------------------------------------

def fig11_trace_selection(
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    mechanisms: Sequence[str] = ALL_MECHANISMS,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """SimPoint-selected traces vs arbitrary skip-and-simulate windows.

    Scaled protocol: from a full trace of 2.5x the run length, the
    *arbitrary* selection skips an eighth of a run length and simulates one
    run length (the "skip some, simulate a lot" habit — which, as for the
    original articles, over-samples the program's initialisation phase);
    the SimPoint selection picks the representative steady-phase interval.
    Both selections are declarative :class:`RunSpec` fields, so they cache
    and parallelise like every other run.
    """
    ex = executor or get_default_executor()
    full_length = int(n_instructions * 2.5)
    skip = n_instructions // 8
    interval = max(500, n_instructions // 10)
    arbitrary = ("window", skip)
    simpoint = ("simpoint", interval)
    names = [m for m in mechanisms if m != BASELINE]

    def spec(benchmark, mechanism, selection):
        return RunSpec(
            benchmark, mechanism,
            n_instructions=n_instructions,
            trace_length=full_length,
            selection=selection,
        )

    specs = []
    for benchmark in benchmarks:
        specs.append(spec(benchmark, BASELINE, arbitrary))
        specs.append(spec(benchmark, BASELINE, simpoint))
        for name in names:
            specs.append(spec(benchmark, name, arbitrary))
            specs.append(spec(benchmark, name, simpoint))
    results = ex.run(specs)

    per_mechanism: Dict[str, List[Tuple[float, float]]] = {m: [] for m in names}
    stride = 2 + 2 * len(names)
    survivors, dropped = _complete_groups(results, stride, list(benchmarks))
    for benchmark, chunk in survivors:
        base_arbitrary, base_simpoint = chunk[0], chunk[1]
        for m_index, name in enumerate(names):
            mech_arbitrary = chunk[2 + 2 * m_index]
            mech_simpoint = chunk[3 + 2 * m_index]
            per_mechanism[name].append((
                mech_arbitrary.speedup_over(base_arbitrary),
                mech_simpoint.speedup_over(base_simpoint),
            ))
    rows = []
    arbitrary_better = 0
    for name, pairs in per_mechanism.items():
        mean_arbitrary = sum(p[0] for p in pairs) / len(pairs)
        mean_simpoint = sum(p[1] for p in pairs) / len(pairs)
        if mean_arbitrary > mean_simpoint:
            arbitrary_better += 1
        rows.append({
            "mechanism": name,
            "arbitrary_window": mean_arbitrary,
            "simpoint": mean_simpoint,
        })
    return ExperimentResult(
        exhibit="Figure 11",
        title="Effect of trace selection (arbitrary window vs SimPoint)",
        rows=rows,
        summary={"mechanisms_better_on_arbitrary": float(arbitrary_better),
                 "n_mechanisms": float(len(per_mechanism))},
        notes=_join_notes(
            _degraded_note(dropped),
            "paper: most mechanisms look better on arbitrary windows "
            "(TP the notable exception); trace selection can flip "
            "research decisions"),
    )
