"""Fault tolerance: retry policy, fault injection, degraded grids, chaos runs.

The injection schedule is a pure function of (seed, kind, spec hash,
attempt), so these tests compute the *expected* fault pattern with the
same :meth:`FaultPlan.decide` every chaos site consults (through
:func:`~repro.exec.faults.fires`) and assert exact counters against it —
no flakiness, no sleeps beyond the watchdog tests.  A test arms a plan
process-wide with :func:`tests.conftest.fault_plan`.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import baseline_config
from repro.core.results import ResultSet
from repro.exec import (
    Executor,
    FailedRun,
    FaultPlan,
    ResultStore,
    RetryPolicy,
    RunSpec,
    SpecExhausted,
    active_plan,
    parse_fault_spec,
    set_active_plan,
)
from repro.exec.executor import run_attempts
from repro.exec.faults import (
    FAULT_KINDS,
    fires,
    maybe_corrupt_store_entry,
    stable_fraction,
)
from repro.exec.fleet import DEFAULT_LEASE_TTL
from repro.exec.telemetry import SOURCE_FAILED, Telemetry
from repro.harness.experiments import fig10_second_guessing
from repro.harness.matrix import speedup_matrix
from repro.mechanisms.registry import ALL_MECHANISMS, BASELINE
from repro.obs.ledger import LedgerRecord, diff_records, make_record

from tests.conftest import fault_plan

REPO = Path(__file__).resolve().parent.parent

N = 2000
GRID_BENCHMARKS = ("swim", "gzip")
GRID_MECHANISMS = ("Base", "TP")

#: No backoff sleeps in unit tests; retry semantics are unchanged.
_NO_WAIT = dict(backoff_base=0.0)


def _grid_specs():
    return [
        RunSpec(benchmark, mechanism, n_instructions=N)
        for mechanism in GRID_MECHANISMS
        for benchmark in GRID_BENCHMARKS
    ]


def _as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


def _find_seed(predicate, limit=500):
    """The first seed whose deterministic schedule satisfies ``predicate``."""
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no suitable fault seed found; widen the search")


def _expected_retries(plan, kind, hashes, max_attempts):
    """Retries the executor must record for an eventually-clean run."""
    total = 0
    for spec_hash in hashes:
        attempt = 1
        while attempt < max_attempts and plan.decide(kind, spec_hash, attempt):
            total += 1
            attempt += 1
    return total


# -- the REPRO_FAULTS grammar --------------------------------------------------

def test_empty_spec_parses_to_none():
    assert parse_fault_spec("") is None
    assert parse_fault_spec("   ") is None


def test_full_grammar_round_trips():
    # ``die`` is the older name of ``kill-worker``: it parses to that
    # kind and describes itself by its current name.
    plan = parse_fault_spec("crash:0.1,hang:0.05,die:0.2,corrupt-store:0.02,seed=9")
    assert plan == FaultPlan(crash=0.1, hang=0.05, kill_worker=0.2,
                             corrupt_store=0.02, seed=9)
    assert plan.armed
    assert plan.describe() == \
        "hang:0.05,crash:0.1,corrupt-store:0.02,kill-worker:0.2,seed=9"
    assert parse_fault_spec(plan.describe()) == plan
    assert "die" not in FAULT_KINDS


@pytest.mark.parametrize("text", [
    "explode:0.5",          # unknown kind
    "crash",                # no rate
    "crash:lots",           # malformed rate
    "crash:1.5",            # out of range
    "crash:-0.1",           # out of range
    "seed=often",           # malformed seed
])
def test_malformed_specs_raise(text):
    with pytest.raises(ValueError):
        parse_fault_spec(text)


def test_rates_of_zero_leave_the_plan_unarmed():
    plan = parse_fault_spec("crash:0,seed=3")
    assert plan is not None and not plan.armed


def test_set_active_plan_installs_and_restores():
    plan = FaultPlan(crash=0.5, seed=3)
    old = set_active_plan(plan)
    try:
        assert active_plan() is plan
        assert fires("crash", "h", 1) == plan.decide("crash", "h", 1)
    finally:
        set_active_plan(old)
    assert active_plan() is old


# -- schedule determinism ------------------------------------------------------

def test_stable_fraction_is_deterministic_and_bounded():
    values = [stable_fraction(f"key-{i}") for i in range(200)]
    assert values == [stable_fraction(f"key-{i}") for i in range(200)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_decide_is_pure_and_rate_faithful():
    plan = FaultPlan(crash=0.5, seed=11)
    decisions = [plan.decide("crash", f"hash{i}", 1) for i in range(400)]
    assert decisions == [plan.decide("crash", f"hash{i}", 1) for i in range(400)]
    assert 100 < sum(decisions) < 300  # ~50% of 400, generously bracketed
    never = FaultPlan(crash=0.0)
    always = FaultPlan(crash=1.0)
    assert not any(never.decide("crash", f"hash{i}", 1) for i in range(50))
    assert all(always.decide("crash", f"hash{i}", 1) for i in range(50))


class _StubSpec:
    """The little of a RunSpec the attempt loop reads."""

    content_hash = "h"
    benchmark = "swim"
    mechanism = "Base"

    def execute(self):
        return "result"


def test_injection_flavours():
    policy = RetryPolicy(strict=False, **_NO_WAIT)

    def outcome(plan):
        with fault_plan(plan):
            return run_attempts(_StubSpec(), policy).outcome

    assert outcome(None) == "result"   # no plan, no fault
    assert "InjectedCrash" in outcome(FaultPlan(crash=1.0)).error
    # kill-worker (alias die) kills a fleet worker after it leases a
    # spec; the attempt itself has nothing to inject.
    assert outcome(FaultPlan(kill_worker=1.0)) == "result"
    hang = outcome(FaultPlan(hang=1.0))   # in-process hang degrades to a raise
    assert hang.kind == "timeout" and "InjectedHang" in hang.error


def test_corrupt_store_injection_truncates(tmp_path):
    path = tmp_path / "entry.json"
    path.write_text("x" * 300)
    assert not maybe_corrupt_store_entry(path, "h", 1)   # no plan installed
    with fault_plan(FaultPlan(corrupt_store=1.0)):
        assert not maybe_corrupt_store_entry(path, "h", 2)   # one-shot
        assert maybe_corrupt_store_entry(path, "h", 1)
    assert len(path.read_text()) == 100


#: Each kind's decisions as its own wrapper function and call-site
#: guards made them before every site asked :func:`fires`, recorded
#: over :data:`_PIN_KEYS` x attempts 1-3 under a rate-0.5 plan of that
#: kind alone at seed 7 (``poison:a`` for poison): kind -> (digest of
#: the decision bits, how many fired).  A changed key string, seed
#: layout or one-shot table entry moves every seed-pinned schedule in
#: the tests, CI and the soak; this names the kind that moved.
_SCHEDULE_PINS = {
    "hang": ("f97fc5fa35dcf593", 99),
    "crash": ("909a21d521fcbbb9", 92),
    "corrupt-store": ("f51aaef1bf852db5", 32),
    "kill-orchestrator": ("c0adcb44ca91786f", 34),
    "corrupt-journal": ("8fe639a8524095b8", 90),
    "kill-worker": ("51ee135c16156afe", 31),
    "disk-full": ("db109d64661bd6ee", 33),
    "kill-midrun": ("355abdf82903a2ca", 31),
    "corrupt-checkpoint": ("a09ffd0d211b7db5", 26),
    "poison": ("c5f446588a2e5468", 3),
}

_PIN_KEYS = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(64)]


@pytest.mark.parametrize("kind", FAULT_KINDS + ("poison",))
def test_fires_keeps_every_kinds_schedule(kind):
    if kind == "poison":
        plan = FaultPlan(poison="a", seed=7)
    else:
        plan = FaultPlan(**{kind.replace("-", "_"): 0.5}, seed=7)
    # A checkpoint tear is keyed on the cut's record index too.
    suffix = ":1000" if kind == "corrupt-checkpoint" else ""
    with fault_plan(plan):
        bits = "".join("1" if fires(kind, key + suffix, attempt) else "0"
                       for key in _PIN_KEYS for attempt in (1, 2, 3))
    digest = hashlib.sha256(bits.encode()).hexdigest()[:16]
    assert (digest, bits.count("1")) == _SCHEDULE_PINS[kind], kind


# -- RetryPolicy ---------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0)
    assert RetryPolicy(retries=3).max_attempts == 4


def test_backoff_is_deterministic_exponential_and_capped():
    policy = RetryPolicy(retries=5, backoff_base=0.05, backoff_cap=0.4, seed=1)
    delays = [policy.backoff_delay("abc", a) for a in range(1, 7)]
    assert delays == [policy.backoff_delay("abc", a) for a in range(1, 7)]
    assert all(d <= 0.4 for d in delays)
    assert 0.05 <= delays[0] <= 0.1          # base * (1 + jitter in [0,1))
    assert delays[-1] == 0.4                  # deep attempts hit the cap
    assert RetryPolicy(backoff_base=0.0).backoff_delay("abc", 1) == 0.0
    # Jitter differs across spec hashes (no thundering herd).
    assert policy.backoff_delay("abc", 1) != policy.backoff_delay("xyz", 1)


def test_failed_run_round_trips_and_ignores_unknown_keys():
    failure = FailedRun(spec_hash="deadbeef", benchmark="swim", mechanism="TP",
                        attempts=3, error="InjectedCrash('x')", elapsed=1.5,
                        kind="timeout")
    payload = failure.describe()
    payload["future_field"] = "ignored"
    assert FailedRun.from_dict(payload) == failure
    assert "swim/TP" in failure.summary()
    assert "3 attempts" in failure.summary()
    assert "timeout" in failure.summary()


# -- retries: faulted runs converge to the clean answer ------------------------

def test_serial_crash_retries_are_bit_identical_to_clean(capsys):
    specs = _grid_specs()
    hashes = [s.content_hash for s in specs]
    retries = 2

    def eventually_clean(seed):
        plan = FaultPlan(crash=0.5, seed=seed)
        crashed = [plan.decide("crash", h, 1) for h in hashes]
        survives = all(
            not all(plan.decide("crash", h, a) for a in range(1, retries + 2))
            for h in hashes
        )
        return any(crashed) and survives

    seed = _find_seed(eventually_clean)
    plan = FaultPlan(crash=0.5, seed=seed)
    clean = Executor(jobs=1).run(specs)
    faulted_ex = Executor(
        jobs=1, policy=RetryPolicy(retries=retries, **_NO_WAIT))
    with fault_plan(plan):
        faulted = faulted_ex.run(specs)
    assert json.dumps(_as_dicts(faulted), sort_keys=True) == \
        json.dumps(_as_dicts(clean), sort_keys=True)
    expected = _expected_retries(plan, "crash", hashes, retries + 1)
    assert expected > 0
    assert faulted_ex.telemetry.retries == expected
    assert faulted_ex.telemetry.failures == 0


def test_pool_crash_retries_are_bit_identical_to_clean(leftovers):
    """At --jobs 2 the retries run inside the fleet workers, and their
    counts still reach the driver's telemetry."""
    specs = _grid_specs()
    hashes = [s.content_hash for s in specs]
    retries = 2

    def eventually_clean(seed):
        plan = FaultPlan(crash=0.5, seed=seed)
        return (
            any(plan.decide("crash", h, 1) for h in hashes)
            and all(
                not all(plan.decide("crash", h, a) for a in range(1, retries + 2))
                for h in hashes
            )
        )

    seed = _find_seed(eventually_clean)
    plan = FaultPlan(crash=0.5, seed=seed)
    clean = Executor(jobs=1).run(specs)
    faulted_ex = Executor(
        jobs=2, policy=RetryPolicy(retries=retries, **_NO_WAIT))
    with fault_plan(plan):
        faulted = faulted_ex.run(specs)
    assert json.dumps(_as_dicts(faulted), sort_keys=True) == \
        json.dumps(_as_dicts(clean), sort_keys=True)
    assert faulted_ex.telemetry.retries == \
        _expected_retries(plan, "crash", hashes, retries + 1)
    leftovers()


# -- exhaustion: strict raises, lenient leaves annotated holes -----------------

def test_strict_mode_raises_spec_exhausted_serial():
    with pytest.raises(SpecExhausted) as excinfo, \
            fault_plan(FaultPlan(crash=1.0)):
        Executor(jobs=1).run(_grid_specs())
    failure = excinfo.value.failure
    assert failure.benchmark in GRID_BENCHMARKS
    assert failure.attempts == 1
    assert "InjectedCrash" in failure.error


def test_strict_mode_raises_spec_exhausted_pool(leftovers):
    executor = Executor(
        jobs=2, policy=RetryPolicy(retries=0, strict=True, **_NO_WAIT))
    with pytest.raises(SpecExhausted), fault_plan(FaultPlan(crash=1.0)):
        executor.run(_grid_specs())
    leftovers()   # the abort tore the fleet down on its way out


def test_lenient_mode_resolves_failures_in_position(capsys):
    specs = _grid_specs()
    executor = Executor(
        jobs=1, policy=RetryPolicy(retries=1, strict=False, **_NO_WAIT))
    with fault_plan(FaultPlan(crash=1.0)):
        results = executor.run(specs)
    assert all(isinstance(r, FailedRun) for r in results)
    assert [(r.mechanism, r.benchmark) for r in results] == \
        [(s.mechanism, s.benchmark) for s in specs]
    assert all(r.attempts == 2 and r.kind == "error" for r in results)
    telemetry = executor.telemetry
    assert telemetry.failures == len(specs)
    assert telemetry.retries == len(specs)
    assert telemetry.failed == len(specs)
    assert all(r.source == SOURCE_FAILED for r in telemetry.records)
    assert "giving up" in capsys.readouterr().err


def test_serial_hang_is_accounted_as_timeout():
    spec = RunSpec("swim", n_instructions=N)
    executor = Executor(
        jobs=1, policy=RetryPolicy(retries=0, strict=False, **_NO_WAIT))
    with fault_plan(FaultPlan(hang=1.0)):
        (failure,) = executor.run([spec])
    assert isinstance(failure, FailedRun)
    assert failure.kind == "timeout"
    assert executor.telemetry.timeouts == 1


# -- the local fleet: timeouts, worker deaths, poison, torn entries ------------

def test_worker_timeout_turns_hangs_into_timeout_holes(leftovers):
    specs = _grid_specs()[:2]
    executor = Executor(
        jobs=2,
        policy=RetryPolicy(retries=0, strict=False, timeout=0.4, **_NO_WAIT),
    )
    with fault_plan(FaultPlan(hang=1.0)):
        results = executor.run(specs)
    assert all(isinstance(r, FailedRun) for r in results)
    assert all(r.kind == "timeout" for r in results)
    assert "SpecTimeout" in results[0].error
    assert executor.telemetry.timeouts == len(specs)
    assert executor.telemetry.pool_rebuilds == 0   # nobody died
    leftovers()


def test_pool_death_recovers_and_stays_bit_identical(leftovers):
    specs = _grid_specs()
    hashes = [s.content_hash for s in specs]

    def one_death(seed):
        plan = FaultPlan(kill_worker=0.5, seed=seed)
        return sum(plan.decide("kill-worker", h, 1) for h in hashes) == 1

    seed = _find_seed(one_death)
    plan = FaultPlan(kill_worker=0.5, seed=seed)
    clean = Executor(jobs=1).run(specs)
    executor = Executor(
        jobs=2, policy=RetryPolicy(retries=1, strict=False, **_NO_WAIT))
    with fault_plan(plan):
        results = executor.run(specs)
    assert not any(isinstance(r, FailedRun) for r in results)
    assert json.dumps(_as_dicts(results), sort_keys=True) == \
        json.dumps(_as_dicts(clean), sort_keys=True)
    assert executor.telemetry.pool_rebuilds == 1   # one death, one respawn
    leftovers()


def test_kill_worker_chaos_converges_without_waiting_out_the_ttl(leftovers):
    """Dead workers' leases are released at once, not after the TTL."""
    specs = _grid_specs()
    hashes = [s.content_hash for s in specs]
    plan = FaultPlan(kill_worker=0.5, seed=7)
    kills = sum(plan.decide("kill-worker", h, 1) for h in hashes)
    assert kills >= 1
    clean = Executor(jobs=1).run(specs)
    executor = Executor(jobs=2)   # default 60 s lease TTL
    start = time.monotonic()
    with fault_plan(plan):
        results = executor.run(specs)
    assert time.monotonic() - start < DEFAULT_LEASE_TTL / 2
    assert json.dumps(_as_dicts(results), sort_keys=True) == \
        json.dumps(_as_dicts(clean), sort_keys=True)
    assert executor.telemetry.pool_rebuilds == kills
    assert f"{kills} worker respawns" in executor.telemetry.summary_line()
    leftovers()


def test_poison_specs_resolve_as_poison_holes(leftovers, capsys):
    """A spec that kills every worker leasing it is quarantined."""
    specs = _grid_specs()
    victim = specs[1]
    policy = RetryPolicy(retries=0, strict=False, **_NO_WAIT)
    clean = Executor(jobs=1).run(specs)
    executor = Executor(jobs=2, policy=policy)
    with fault_plan(FaultPlan(poison=victim.content_hash[:12])):
        results = executor.run(specs)
    hole = results[1]
    assert isinstance(hole, FailedRun) and hole.kind == "poison"
    assert hole.spec_hash == victim.content_hash
    others = [r for i, r in enumerate(results) if i != 1]
    assert _as_dicts(others) == _as_dicts(
        [r for i, r in enumerate(clean) if i != 1])
    # Every lease up to the bound died and was replaced; the claim past
    # it quarantined the spec instead of granting another.
    assert executor.telemetry.pool_rebuilds == policy.max_leases
    assert executor.telemetry.quarantined == 1
    assert executor.telemetry.failures == 1
    assert "poison" in capsys.readouterr().err
    leftovers()


def test_torn_store_entries_are_requeued_until_sound(tmp_path, leftovers):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    clean = Executor(jobs=1).run(specs)
    executor = Executor(jobs=2, store=store)
    with fault_plan(FaultPlan(corrupt_store=1.0)):
        results = executor.run(specs)
    assert json.dumps(_as_dicts(results), sort_keys=True) == \
        json.dumps(_as_dicts(clean), sort_keys=True)
    # Every first write was torn, read back as a miss and re-simulated.
    assert executor.telemetry.store_corrupt == len(specs)
    replay = Executor(jobs=1, store=ResultStore(tmp_path / "cache"))
    assert _as_dicts(replay.run(specs)) == _as_dicts(clean)
    assert replay.telemetry.store_hits == len(specs)
    leftovers()


def test_disk_full_at_jobs_2_fails_each_first_write_clean(capfd, leftovers):
    """The process-wide plan reaches the forked workers' store writes:
    each spec's first put draws ENOSPC, its worker releases the lease,
    and the reclaim (lease 2) writes through."""
    specs = _grid_specs()
    clean = Executor(jobs=1).run(specs)
    capfd.readouterr()
    executor = Executor(jobs=2)
    with fault_plan(FaultPlan(disk_full=1.0, seed=1)):
        results = executor.run(specs)
    err = capfd.readouterr().err
    assert err.count("write failed") == len(specs)
    assert err.count("releasing lease for a clean re-run") == len(specs)
    assert json.dumps(_as_dicts(results), sort_keys=True) == \
        json.dumps(_as_dicts(clean), sort_keys=True)
    assert executor.telemetry.simulated == len(specs)
    assert executor.telemetry.failures == 0
    leftovers()


# -- degraded grids ------------------------------------------------------------

def _sweep_spec_hashes(benchmarks, mechanisms):
    """The spec hashes run_sweep will submit for this grid."""
    config = baseline_config()
    return {
        (mechanism, benchmark): RunSpec(
            benchmark, mechanism, config=config, n_instructions=N
        ).content_hash
        for mechanism in mechanisms
        for benchmark in benchmarks
    }


def test_sweep_with_holes_round_trips_and_densifies(capsys):
    mechanisms = list(GRID_MECHANISMS)
    cells = _sweep_spec_hashes(GRID_BENCHMARKS, mechanisms)

    def partial(seed):
        plan = FaultPlan(crash=0.5, seed=seed)
        failed = {cell for cell, h in cells.items()
                  if plan.decide("crash", h, 1)}
        holed = {benchmark for _, benchmark in failed}
        return len(failed) == 1 and len(holed) == 1

    seed = _find_seed(partial)
    plan = FaultPlan(crash=0.5, seed=seed)
    expected_failed = {cell for cell, h in cells.items()
                       if plan.decide("crash", h, 1)}
    executor = Executor(
        jobs=1, policy=RetryPolicy(retries=0, strict=False, **_NO_WAIT))
    with fault_plan(plan):
        grid = executor.run_sweep(benchmarks=GRID_BENCHMARKS,
                                  mechanisms=mechanisms, n_instructions=N)
    assert not grid.complete
    assert {(f.mechanism, f.benchmark) for f in grid.failures} == expected_failed
    (holed_benchmark,) = {b for _, b in expected_failed}
    assert grid.incomplete_benchmarks() == [holed_benchmark]

    # dense() drops exactly the holed benchmark and is itself complete.
    dense = grid.dense()
    assert dense.complete
    assert holed_benchmark not in dense.benchmarks
    assert set(dense.benchmarks) == set(GRID_BENCHMARKS) - {holed_benchmark}

    # get() on a hole raises with the failure's story attached.
    (mechanism, benchmark) = next(iter(expected_failed))
    with pytest.raises(KeyError, match="failed after"):
        grid.get(mechanism, benchmark)
    assert grid.failure_for(mechanism, benchmark) is not None

    # Holes survive the JSON round trip.
    revived = ResultSet.from_json(grid.to_json())
    assert {(f.mechanism, f.benchmark) for f in revived.failures} == expected_failed
    assert revived.failures[0] == grid.failures[0]
    assert len(revived) == len(grid)

    # subset() carries matching holes along.
    narrowed = revived.subset([holed_benchmark])
    assert not narrowed.complete


def test_add_failure_conflicts_are_rejected():
    grid = Executor(jobs=1).run_sweep(
        benchmarks=("swim",), mechanisms=("Base",), n_instructions=N
    )
    failure = FailedRun(spec_hash="x", benchmark="swim", mechanism="Base",
                        attempts=1, error="boom")
    with pytest.raises(ValueError, match="already has a result"):
        grid.add_failure(failure)
    other = FailedRun(spec_hash="y", benchmark="gzip", mechanism="TP",
                      attempts=1, error="boom")
    grid.add_failure(other)
    with pytest.raises(ValueError, match="duplicate failure"):
        grid.add_failure(other)
    with pytest.raises(ValueError, match="recorded as failed"):
        grid.add(Executor(jobs=1).run(
            [RunSpec("gzip", "TP", n_instructions=N)]
        )[0])


def test_matrix_renders_failed_cells_in_place():
    cells = _sweep_spec_hashes(GRID_BENCHMARKS, list(ALL_MECHANISMS))

    def one_mechanism_cell(seed):
        plan = FaultPlan(crash=0.04, seed=seed)
        failed = {cell for cell, h in cells.items()
                  if plan.decide("crash", h, 1)}
        return len(failed) == 1 and next(iter(failed))[0] != BASELINE

    seed = _find_seed(one_mechanism_cell)
    plan = FaultPlan(crash=0.04, seed=seed)
    ((mechanism, benchmark),) = [cell for cell, h in cells.items()
                                 if plan.decide("crash", h, 1)]
    executor = Executor(
        jobs=1, policy=RetryPolicy(retries=0, strict=False, **_NO_WAIT))
    with fault_plan(plan):
        exhibit = speedup_matrix(benchmarks=GRID_BENCHMARKS,
                                 n_instructions=N, executor=executor)
    row = next(r for r in exhibit.rows if r["mechanism"] == mechanism)
    assert row[benchmark] == "FAILED"
    other = next(b for b in GRID_BENCHMARKS if b != benchmark)
    assert isinstance(row[other], float)
    assert isinstance(row["MEAN"], float)  # mean over surviving benchmarks
    assert exhibit.notes.startswith("DEGRADED")
    assert "FAILED" in exhibit.render()


def test_experiment_driver_degrades_per_benchmark():
    benchmarks = ("swim", "art")
    specs = []
    for benchmark in benchmarks:
        specs.append(RunSpec(benchmark, BASELINE, n_instructions=N))
        specs.append(RunSpec(benchmark, "TCP", n_instructions=N,
                             mechanism_kwargs={"queue_size": 1}))
        specs.append(RunSpec(benchmark, "TCP", n_instructions=N,
                             mechanism_kwargs={"queue_size": 128}))
    hashes = {s: s.content_hash for s in specs}

    def kills_only_swim(seed):
        plan = FaultPlan(crash=0.5, seed=seed)
        failed = {s.benchmark for s, h in hashes.items()
                  if plan.decide("crash", h, 1)}
        return failed == {"swim"}

    seed = _find_seed(kills_only_swim)
    executor = Executor(
        jobs=1, policy=RetryPolicy(retries=0, strict=False, **_NO_WAIT))
    with fault_plan(FaultPlan(crash=0.5, seed=seed)):
        exhibit = fig10_second_guessing(benchmarks=benchmarks,
                                        n_instructions=N, executor=executor)
    assert [row["benchmark"] for row in exhibit.rows] == ["art"]
    assert "DEGRADED" in exhibit.notes and "swim" in exhibit.notes


def test_all_groups_failed_raises_a_clear_error():
    executor = Executor(
        jobs=1, policy=RetryPolicy(retries=0, strict=False, **_NO_WAIT))
    with pytest.raises(RuntimeError, match="nothing to render"), \
            fault_plan(FaultPlan(crash=1.0)):
        fig10_second_guessing(benchmarks=("swim",), n_instructions=N,
                              executor=executor)


# -- corrupt-store chaos -------------------------------------------------------

def test_corrupt_store_injection_is_counted_and_resimulated(tmp_path, capsys):
    specs = _grid_specs()
    store = ResultStore(tmp_path)
    with fault_plan(FaultPlan(corrupt_store=1.0)):
        originals = Executor(jobs=1, store=store).run(specs)

    replay = Executor(jobs=1, store=store)
    replayed = replay.run(specs)
    assert replay.telemetry.simulated == len(specs)   # every entry was torn
    assert replay.telemetry.store_hits == 0
    assert replay.telemetry.store_corrupt == len(specs)
    assert store.corrupt_reads == len(specs)
    assert _as_dicts(replayed) == _as_dicts(originals)
    assert "read as a miss" in capsys.readouterr().err

    # The replay rewrote clean entries; a third executor gets pure hits.
    third = Executor(jobs=1, store=store)
    third.run(specs)
    assert third.telemetry.store_hits == len(specs)
    assert third.telemetry.store_corrupt == 0


# -- observability plumbing ----------------------------------------------------

def test_summary_line_appends_fault_counters_only_when_nonzero():
    clean = Telemetry().summary_line()
    for noun in ("retries", "timeouts", "respawns", "FAILED", "corrupt"):
        assert noun not in clean
    noisy = Telemetry(retries=2, failures=1, timeouts=3, pool_rebuilds=4,
                      store_corrupt=5).summary_line()
    assert noisy.startswith("executor: 0 results")
    assert "2 retries" in noisy
    assert "3 timeouts" in noisy
    assert "4 worker respawns" in noisy
    assert "1 FAILED" in noisy
    assert "5 corrupt store entries" in noisy


def test_ledger_records_and_diffs_fault_accounting():
    a = make_record("chaos", wall_seconds=1.0)
    b = make_record("chaos", wall_seconds=1.0, retries=3, failures=1)
    assert (a.retries, a.failures) == (0, 0)
    assert (b.retries, b.failures) == (3, 1)
    metrics = {row.metric for row in diff_records(a, b)}
    assert {"retries", "failures"} <= metrics
    # Two clean records: no fault rows, exactly the historical layout.
    clean = {row.metric for row in diff_records(a, a)}
    assert "retries" not in clean and "failures" not in clean
    # Old ledger lines (no fault fields) still parse.
    payload = dataclasses.asdict(a)
    del payload["retries"], payload["failures"]
    assert LedgerRecord.from_dict(payload).retries == 0


# -- the CLI under chaos -------------------------------------------------------

def _cli_env(tmp_path, faults=None, ledger=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    env["REPRO_CACHE_DIR"] = str(tmp_path / ("cache-" + (faults or "clean")))
    # Armed fault plans auto-append to the ledger; keep test litter out
    # of the repo-root BENCH_obs.json.
    env["REPRO_LEDGER"] = str(ledger or tmp_path / "scratch-ledger.json")
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def _run_cli(env, *args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO,
    )


#: Pinned: with seed=7 and crash:0.3, the fig10 swim/art specs see four
#: crashes across attempts but every spec succeeds within --retries 3.
#: (The schedule hashes each spec's content_hash, so this count re-pins
#: whenever RunSpec identity gains a field.)
_CHAOS_SPEC = "crash:0.3,seed=7"
_CHAOS_RETRIES = 4

_FIG10_ARGS = ("fig10", "--n", "2000", "--benchmarks", "swim,art",
               "--jobs", "2", "--retries", "3")


def test_cli_chaos_run_is_bit_identical_and_ledgered(tmp_path):
    ledger_path = tmp_path / "ledger.json"
    clean = _run_cli(_cli_env(tmp_path), *_FIG10_ARGS)
    assert clean.returncode == 0, clean.stderr
    chaos = _run_cli(
        _cli_env(tmp_path, faults=_CHAOS_SPEC, ledger=ledger_path),
        *_FIG10_ARGS, "--timeout", "60",
    )
    assert chaos.returncode == 0, chaos.stderr
    assert chaos.stdout == clean.stdout   # retried runs converge bit-identically
    assert f"{_CHAOS_RETRIES} retries" in chaos.stderr

    from repro.obs.ledger import Ledger

    records = Ledger(ledger_path).read()
    assert len(records) == 1
    assert records[0].label == "cli-fig10"
    assert records[0].retries == _CHAOS_RETRIES
    assert records[0].failures == 0


def test_cli_kill_worker_chaos_at_jobs_2_matches_jobs_1(tmp_path):
    """The CI chaos leg: workers die mid-lease under the default 60 s
    TTL, their supervisor releases the leases and respawns them, and
    the exhibit comes out byte-identical to the in-process run."""
    args = ("fig10", "--n", "2000", "--benchmarks", "swim,art")
    clean = _run_cli(_cli_env(tmp_path), *args, "--jobs", "1")
    assert clean.returncode == 0, clean.stderr
    start = time.monotonic()
    chaos = _run_cli(_cli_env(tmp_path, faults="kill-worker:0.5,seed=7"),
                     *args, "--jobs", "2")
    assert time.monotonic() - start < DEFAULT_LEASE_TTL / 2
    assert chaos.returncode == 0, chaos.stderr
    assert chaos.stdout == clean.stdout
    assert "injected worker kill" in chaos.stderr
    assert "respawning" in chaos.stderr
    assert "worker respawns" in chaos.stderr


def test_cli_strict_chaos_run_exits_nonzero(tmp_path):
    proc = _run_cli(
        _cli_env(tmp_path, faults="crash:1.0,seed=1"),
        "fig10", "--n", "2000", "--benchmarks", "swim", "--jobs", "1",
        "--strict",
    )
    assert proc.returncode == 1
    assert "FAILED (strict)" in proc.stderr


def test_cli_run_command_reports_failed_spec(tmp_path):
    proc = _run_cli(
        _cli_env(tmp_path, faults="crash:1.0,seed=1"),
        "run", "swim", "TP", "--n", "2000",
    )
    assert proc.returncode == 1
    assert "FAILED:" in proc.stderr
    assert "swim" in proc.stderr


def test_cli_bad_fault_spec_fails_loudly(tmp_path):
    proc = _run_cli(
        _cli_env(tmp_path, faults="explode:0.5"),
        "run", "swim", "--n", "2000",
    )
    assert proc.returncode != 0
    assert "unknown fault kind" in proc.stderr
