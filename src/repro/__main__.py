"""Command-line front end: run any paper exhibit or a single simulation.

Examples::

    python -m repro list
    python -m repro run swim GHB --n 20000
    python -m repro run swim TK --n 20000 --trace tk.json  # Perfetto timeline
    python -m repro fig4 --n 20000 --jobs 4
    python -m repro table6 --benchmarks swim,gzip,art,mcf
    python -m repro all --n 8000 --jobs 4  # every exhibit, quick scale

Every simulation goes through one shared :class:`repro.exec.Executor`:
``--jobs N`` runs each batch on a local fleet of N forked worker
processes leasing specs from the sweep's queue (default: the CPU count;
``--jobs 1`` stays in-process for determinism debugging), and
results are content-addressed in an on-disk store (``--cache-dir``,
default ``~/.cache/repro`` or ``$REPRO_CACHE_DIR``; ``--no-cache``
disables it) so repeated and overlapping exhibits never re-simulate.
Exhibit tables go to stdout; the telemetry summary goes to stderr, so
piped output is identical whatever the job count.

Fault tolerance: ``--retries``/``--timeout`` configure the executor's
:class:`~repro.exec.policy.RetryPolicy`.  The CLI runs *lenient* by
default — a spec that fails every attempt becomes an annotated hole in
the exhibit instead of aborting the whole run; ``--strict`` restores
fail-fast (first exhausted spec exits non-zero).  Chaos runs are driven
by ``REPRO_FAULTS`` (see :mod:`repro.exec.faults`).

Durability: each multi-spec sweep runs on a crash-safe fleet queue of
its own under ``<cache-dir>/journal/<sweep_id[:16]>/``
(:mod:`repro.exec.journal`), which is its write-ahead log.  A killed
run resumes with ``--resume`` — finished specs are served from the
queue + store without re-simulation, and the resumed output is
bit-identical to an uninterrupted run.  SIGINT/SIGTERM shut down
gracefully (drain in-flight work, record the stop, exit ``130``/
``143`` with a resume pointer; a second signal terminates immediately).
``--retry-failed`` re-runs specs a resumed queue recorded as
exhausted.  ``--checkpoint-every N`` additionally cuts crash-safe
*mid-run* snapshots so a killed attempt resumes mid-simulation instead
of from instruction zero (:mod:`repro.exec.checkpoint`); restore is
bit-identical to an uninterrupted run.  ``python -m repro.exec fsck``
verifies store (and checkpoint) integrity.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict

from repro import harness
from repro.exec import (
    SHUTDOWN,
    Executor,
    FailedRun,
    ResultStore,
    RetryPolicy,
    RunSpec,
    SpecExhausted,
    SweepInterrupted,
    active_plan,
    set_default_executor,
)
from repro.obs.tracing import TRACER
from repro.harness.matrix import speedup_matrix
from repro.harness.tables import (
    table1_configuration,
    table2_mechanisms,
    table3_parameters,
    table4_benchmarks,
)
from repro.core.results import DEFAULT_INSTRUCTIONS
from repro.mechanisms.registry import ALL_MECHANISMS, EXTENSIONS, mechanism_info
from repro.workloads.registry import ALL_BENCHMARKS

EXHIBITS: Dict[str, Callable] = {
    "fig1": harness.fig1_model_validation,
    "fig2": harness.fig2_reveng_error,
    "fig3": harness.fig3_dbcp_fix,
    "fig4": harness.fig4_speedup,
    "fig5": harness.fig5_cost_power,
    "fig6": harness.fig6_sensitivity,
    "fig7": harness.fig7_sensitivity_subsets,
    "fig8": harness.fig8_memory_model,
    "fig9": harness.fig9_mshr,
    "fig10": harness.fig10_second_guessing,
    "fig11": harness.fig11_trace_selection,
    "table1": table1_configuration,
    "table2": table2_mechanisms,
    "table3": table3_parameters,
    "table4": table4_benchmarks,
    "matrix": speedup_matrix,
    "table5": harness.table5_prior_comparisons,
    "table6": harness.table6_subset_winners,
    "table7": harness.table7_selection_ranking,
}

#: Exhibits that run no simulations (static tables).
STATIC = {"table1", "table2", "table3", "table4", "table5"}


def _cmd_list() -> int:
    print("Benchmarks (26):")
    print("  " + ", ".join(ALL_BENCHMARKS))
    print("\nMechanisms (paper order):")
    for name in ALL_MECHANISMS:
        info = mechanism_info(name)
        year = str(info.year) if info.year else "-"
        print(f"  {name:<7} {info.level:<3} {year:<5} {info.description}")
    print("\nLibrary extensions:")
    for name in EXTENSIONS:
        info = mechanism_info(name)
        print(f"  {name:<7} {info.level:<3} {info.year:<5} {info.description}")
    print("\nExhibits: " + ", ".join(EXHIBITS) + ", all")
    return 0


def _cmd_run(args, executor: Executor) -> int:
    base_spec = RunSpec(args.benchmark, n_instructions=args.n, fast=args.fast)
    mech_spec = RunSpec(
        args.benchmark, args.mechanism, n_instructions=args.n, fast=args.fast
    )
    base, result = executor.run([base_spec, mech_spec])
    failed = [r for r in (base, result) if isinstance(r, FailedRun)]
    if failed:
        for failure in failed:
            print(f"FAILED: {failure.summary()}", file=sys.stderr)
        return 1
    print(f"{args.benchmark} / {args.mechanism}: "
          f"ipc={result.ipc:.4f} speedup={result.speedup_over(base):.3f} "
          f"l1_miss={result.l1_miss_rate:.1%} "
          f"l2_miss={result.l2_miss_rate:.1%} "
          f"mem_latency={result.avg_memory_latency:.0f} "
          f"prefetches={result.prefetches_issued:.0f} "
          f"useful={result.useful_prefetches:.0f}")
    return 0


def _run_exhibit(name: str, args, executor: Executor) -> int:
    driver = EXHIBITS[name]
    kwargs = {}
    if name not in STATIC:
        kwargs["n_instructions"] = args.n
        kwargs["executor"] = executor
        if args.benchmarks:
            kwargs["benchmarks"] = tuple(args.benchmarks.split(","))
    print(driver(**kwargs).render())
    return 0


def _build_executor(args) -> Executor:
    store = None
    if not args.no_cache:
        store = ResultStore(args.cache_dir)  # None -> default cache dir
    # The CLI degrades gracefully by default: exhausted specs become
    # annotated holes in the exhibits.  --strict restores fail-fast.
    policy = RetryPolicy(
        retries=args.retries, timeout=args.timeout, strict=args.strict
    )
    if args.serve:
        # Fleet mode: simulations run on the sweep service
        # (python -m repro.serve); the service owns durability through
        # its own queue/lease WALs, so the client journals nothing.
        from repro.serve import ServeExecutor

        return ServeExecutor(
            socket_path=args.serve, client_id=f"cli-{os.getpid()}",
            store=store, policy=policy, shutdown=SHUTDOWN,
            deadline=args.deadline, retry_failed=args.retry_failed,
        )
    # Durability: multi-spec sweeps journal next to the store, so every
    # cached run is also resumable.  --no-cache has nowhere to journal
    # (and nothing a resume could serve results from).
    journal_dir = store.journal_dir if store is not None else None
    if args.checkpoint_every and store is None:
        print("--checkpoint-every needs the result store (drop --no-cache): "
              "snapshots live under <cache-dir>/ckpt", file=sys.stderr)
    return Executor(
        jobs=args.jobs, store=store, policy=policy,
        journal_dir=journal_dir, resume=args.resume,
        retry_failed=args.retry_failed, shutdown=SHUTDOWN,
        checkpoint_every=args.checkpoint_every if store is not None else 0,
    )


def _print_summary(executor: Executor) -> None:
    """The one-line executor accounting, on stderr for every command."""
    print(executor.telemetry.summary_line(), file=sys.stderr)


def _append_ledger_entry(command: str, executor: Executor) -> None:
    """Record this invocation's executor accounting in the obs ledger.

    Only when someone is watching: ``$REPRO_LEDGER`` names a ledger
    file, or a fault plan is armed (a chaos run without a ledger entry
    has nothing to assert against).  Clean interactive runs don't grow
    a ledger as a side effect.
    """
    plan = active_plan()
    if not os.environ.get("REPRO_LEDGER") and plan is None:
        return
    from repro.obs.ledger import Ledger, make_record

    telemetry = executor.telemetry
    metrics = {
        "simulated": float(telemetry.simulated),
        "cache_hits": float(telemetry.cache_hits),
        "timeouts": float(telemetry.timeouts),
        "pool_rebuilds": float(telemetry.pool_rebuilds),
        "store_corrupt": float(telemetry.store_corrupt),
        "leased": float(getattr(telemetry, "leased", 0)),
        "shared": float(getattr(telemetry, "shared", 0)),
    }
    # Hardening counters appear only when nonzero, so a clean run's
    # ledger record stays byte-identical to what it always was.
    for key in ("shed", "quarantined", "expired",
                "checkpoints", "resumed_from_ckpt"):
        value = float(getattr(telemetry, key, 0))
        if value:
            metrics[key] = value
    record = make_record(
        label=f"cli-{command}",
        wall_seconds=telemetry.wall_time,
        retries=telemetry.retries,
        failures=telemetry.failures,
        metrics=metrics,
    )
    Ledger().append(record)


def _arm_profiling(args):
    """Apply ``--profile``: cProfile the command, report to stderr.

    Like ``--trace``, a profile is only meaningful for work done in this
    process with nothing served from the cache, so ``--jobs 1`` and
    ``--no-cache`` are forced (with a note when that overrides an
    explicit flag).  Returns the armed profiler.
    """
    import cProfile

    if args.jobs not in (None, 1):
        print(f"--profile forces --jobs 1 (was {args.jobs})", file=sys.stderr)
    if not args.no_cache:
        print("--profile forces --no-cache (profiled runs must simulate)",
              file=sys.stderr)
    args.jobs = 1
    args.no_cache = True
    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def _report_profile(profiler) -> None:
    """Print the top 25 functions by cumulative time to stderr."""
    import pstats

    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.strip_dirs().sort_stats("cumulative")
    print("profile: top 25 functions by cumulative time", file=sys.stderr)
    stats.print_stats(25)


def _arm_tracing(args) -> None:
    """Apply ``--trace``: in-process, uncached, tracer recording.

    A store or memo hit skips simulation entirely and a worker process
    traces into its own (discarded) tracer, so a useful trace needs
    ``jobs=1`` and no result store; both are forced, with a note when
    that overrides an explicit flag.
    """
    if args.jobs not in (None, 1):
        print(f"--trace forces --jobs 1 (was {args.jobs})", file=sys.stderr)
    if not args.no_cache:
        print("--trace forces --no-cache (traced runs must simulate)",
              file=sys.stderr)
    args.jobs = 1
    args.no_cache = True
    TRACER.start()


def _export_trace(args) -> None:
    path = TRACER.export(args.trace)
    print(f"trace: {len(TRACER)} events -> {path} "
          "(load in Perfetto / chrome://tracing)", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MicroLib reproduction: simulations and paper exhibits",
    )
    parser.add_argument("command",
                        help="'list', 'run', 'all', or an exhibit name "
                             f"({', '.join(EXHIBITS)})")
    parser.add_argument("benchmark", nargs="?",
                        help="benchmark name (for 'run')")
    parser.add_argument("mechanism", nargs="?", default="Base",
                        help="mechanism acronym (for 'run')")
    parser.add_argument("--n", type=int, default=DEFAULT_INSTRUCTIONS,
                        help="instructions per simulation "
                             f"(default {DEFAULT_INSTRUCTIONS})")
    parser.add_argument("--benchmarks",
                        help="comma-separated benchmark subset for exhibits")
    parser.add_argument("--jobs", type=int, default=None,
                        help="forked worker processes for simulations, "
                             "leasing from a private queue (default: CPU "
                             "count; 1 = in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-store directory (default ~/.cache/repro "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result store")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-attempts per failing simulation "
                             "(default 0; retries are deterministic "
                             "re-executions, results stay bit-identical)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-attempt wall-clock budget; an attempt "
                             "past it is stopped and retried (enforced in "
                             "worker processes only, i.e. --jobs > 1)")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first simulation that fails "
                             "every attempt, instead of degrading to an "
                             "annotated hole in the exhibit")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep from its "
                             "queue: finished specs are "
                             "served without re-simulation (needs the "
                             "cache; output is bit-identical to an "
                             "uninterrupted run)")
    parser.add_argument("--retry-failed", action="store_true",
                        help="re-run specs recorded as having exhausted "
                             "every attempt (with --resume: the sweep "
                             "queue's holes; with --serve: the fleet's "
                             "recorded failures, quarantined poison specs "
                             "included) instead of serving them as "
                             "annotated holes")
    parser.add_argument("--deadline", type=float, default=None, metavar="SEC",
                        help="with --serve: per-submission deadline in "
                             "seconds; specs the fleet cannot start in "
                             "time come back as annotated timeout holes "
                             "instead of waiting forever")
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                        help="cut a crash-safe mid-run snapshot every N "
                             "committed instructions (default 0 = off, "
                             "zero cost); a killed attempt resumes from "
                             "the newest snapshot and finishes "
                             "bit-identical to an uninterrupted run "
                             "(snapshots live under <cache-dir>/ckpt, "
                             "audited by 'python -m repro.exec fsck')")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record a Chrome trace_event timeline of the "
                             "run to OUT.json (forces --jobs 1 --no-cache)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the command and print the top 25 "
                             "cumulative-time functions to stderr (forces "
                             "--jobs 1 --no-cache)")
    parser.add_argument("--serve", metavar="SOCKET", default=None,
                        help="submit simulations to the sweep service "
                             "listening on SOCKET (python -m repro.serve) "
                             "instead of simulating locally; overlapping "
                             "sweeps from concurrent clients are deduped "
                             "in flight, stdout is byte-identical")
    parser.add_argument("--no-fast", dest="fast", action="store_false",
                        default=True,
                        help="run on the interpreted reference loop instead "
                             "of the trace-speculation fast path ('run' "
                             "only; results are bit-identical either way)")
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list()

    profiler = None
    if args.profile:
        profiler = _arm_profiling(args)
    if args.trace:
        _arm_tracing(args)
    if args.resume and args.no_cache:
        parser.error("--resume needs the result store (drop --no-cache): "
                     "the journal only records *that* specs finished; the "
                     "results themselves live in the cache")
    if args.resume and args.serve:
        parser.error("--resume is a local-journal feature; fleet "
                     "submissions are already durable in the service's "
                     "queue (just re-submit: resolved specs answer from "
                     "the store)")
    if args.deadline is not None and not args.serve:
        parser.error("--deadline only applies to fleet submissions "
                     "(add --serve SOCKET)")
    executor = set_default_executor(_build_executor(args))
    # Graceful shutdown is a CLI concern: libraries never install signal
    # handlers, the CLI does, around exactly the command execution.
    SHUTDOWN.install()
    try:
        if args.command == "run":
            if not args.benchmark:
                parser.error("'run' needs a benchmark (and optional mechanism)")
            status = _cmd_run(args, executor)
            _print_summary(executor)
            _append_ledger_entry(args.command, executor)
            return status
        if args.command == "all":
            for name in EXHIBITS:
                _run_exhibit(name, args, executor)
                print()
            _print_summary(executor)
            _append_ledger_entry(args.command, executor)
            return 0
        if args.command in EXHIBITS:
            status = _run_exhibit(args.command, args, executor)
            if args.command not in STATIC:
                _print_summary(executor)
                _append_ledger_entry(args.command, executor)
            return status
    except SpecExhausted as exc:
        # --strict: fail fast, but still say which cell and how hard the
        # executor fought before giving up.
        print(f"FAILED (strict): {exc.failure.summary()}", file=sys.stderr)
        _print_summary(executor)
        return 1
    except ConnectionError as exc:
        # Fleet mode: an unreachable service is an environment problem,
        # not a crash — one line on stderr, conventional exit 2.  Any
        # other refusal (rejected submission, mid-stream hangup) keeps
        # the server's own message and exits 1.
        if not args.serve:
            raise
        if "cannot reach" in str(exc):
            print(f"cannot connect to {args.serve} "
                  "(is the server running?)", file=sys.stderr)
            return 2
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    except SweepInterrupted as exc:
        # Graceful signal shutdown: the journal is flushed, progress is
        # durable.  Summarise, ledger, and exit 128 + signum so callers
        # (shells, schedulers) see the conventional signal status.
        print(f"executor: {exc} — progress journaled; rerun with "
              "--resume to continue without re-simulation", file=sys.stderr)
        _print_summary(executor)
        _append_ledger_entry(args.command, executor)
        return exc.exit_code
    finally:
        SHUTDOWN.uninstall()
        SHUTDOWN.reset()
        if args.trace:
            _export_trace(args)
        if profiler is not None:
            _report_profile(profiler)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
