"""Durable sweeps: the sweep queue, resume, signals, store integrity.

The convergence arguments these tests rely on are deterministic by
construction: fault decisions are pure functions of (seed, kind, key,
sequence), the kill-orchestrator fault fires only *after* a spec was
absorbed (stored, and ``done`` in the sweep queue), and queue replay is
last-record-wins — so the subprocess chaos loops here provably
terminate and the resumed output is asserted byte-identical, not
merely "close".
"""

import contextlib
import dataclasses
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec import (
    Executor,
    FailedRun,
    FaultPlan,
    ResultStore,
    RetryPolicy,
    RunSpec,
    ShutdownManager,
    SpecExhausted,
    SweepInterrupted,
    SweepJournal,
    sweep_identity,
)
from repro.exec.executor import SWEEP_LOCK
from repro.exec.faults import fires
from repro.exec.fleet import DEFAULT_LEASE_TTL, Fleet
from repro.exec.journal import TEARABLE_KINDS, append_record, locked, replay
from repro.exec.store import STORE_VERSION, result_checksum
from repro.exec.telemetry import SOURCE_JOURNAL, RunRecord, Telemetry
from repro.obs.ledger import Ledger, make_record

from tests.conftest import fault_plan, live_group_members

REPO = Path(__file__).resolve().parent.parent

needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads the process table from /proc")

N = 2000
GRID_BENCHMARKS = ("swim", "gzip")
GRID_MECHANISMS = ("Base", "TP")

#: Lenient, no-sleep policy shared by the in-process resume tests.
_LENIENT = dict(retries=0, strict=False, backoff_base=0.0)


def _grid_specs():
    return [
        RunSpec(benchmark, mechanism, n_instructions=N)
        for mechanism in GRID_MECHANISMS
        for benchmark in GRID_BENCHMARKS
    ]


def _as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


def _executor(store, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("journal_dir", store.journal_dir)
    return Executor(store=store, **kwargs)


def _sweep_queues(store):
    """Every sweep queue under ``store``'s journal directory, replayed."""
    return [(path, Fleet(path.parent).snapshot())
            for path in sorted(store.journal_dir.glob("*/queue.jsonl"))]


def _kinds_per_spec(path):
    """spec hash -> its record kinds in order ("" collects spec-less ones)."""
    kinds = {}
    for record in replay(path)[0]:
        kinds.setdefault(record.get("spec", ""), []).append(record["kind"])
    return kinds


def _interrupts(path):
    return [record["signal"] for record in replay(path)[0]
            if record["kind"] == "interrupted"]


# -- sweep identity ------------------------------------------------------------

def test_sweep_identity_is_stable_and_sensitive():
    policy = RetryPolicy()
    base = sweep_identity(["h1", "h2"], policy)
    assert base == sweep_identity(["h1", "h2"], policy)
    assert base != sweep_identity(["h2", "h1"], policy)      # order matters
    assert base != sweep_identity(["h1", "h2", "h2"], policy)  # shape matters
    # The policy gates replay: failures recorded under one retry budget
    # must not be served to a run with a different one.
    assert base != sweep_identity(["h1", "h2"], RetryPolicy(retries=3))


def test_sweep_queue_lives_under_the_sweep_identity(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    _executor(store).run(specs)
    sweep = sweep_identity([s.content_hash for s in specs], RetryPolicy())
    ((path, snap),) = _sweep_queues(store)
    assert path == store.journal_dir / sweep[:16] / "queue.jsonl"
    assert list(snap.enqueued) == [s.content_hash for s in specs]
    # The driver's lock stays; a --jobs 1 run takes no fleet lock and
    # writes no lease book.
    assert sorted(p.name for p in path.parent.iterdir()) == [
        "queue.jsonl", SWEEP_LOCK]


# -- the sweep queue file ------------------------------------------------------

def _queue(tmp_path):
    fleet = Fleet(tmp_path / "sweep")
    return fleet, SweepJournal(fleet.queue_path)


def test_journal_round_trips_lifecycle(tmp_path):
    fleet, journal = _queue(tmp_path)
    journal.append("enqueue", spec="h1", payload={"benchmark": "swim"})
    journal.append("enqueue", spec="h2", payload={"benchmark": "gzip"})
    journal.append("enqueue", spec="h3", payload={"benchmark": "art"})
    # Kinds the queue no longer holds (older sweep journals carried
    # them) replay as noise, not damage.
    append_record(fleet.queue_path, {"v": 1, "kind": "dispatched",
                                     "spec": "h1", "attempt": 1})
    append_record(fleet.queue_path, {"v": 1, "kind": "sweep-complete"})
    journal.done("h1", "simulated", 0.25)
    failure = FailedRun(spec_hash="h2", benchmark="gzip", mechanism="TP",
                        attempts=2, error="boom", kind="error")
    journal.failed(failure)

    snap = fleet.snapshot()
    assert set(snap.done) == {"h1"}
    assert snap.done["h1"]["source"] == "simulated"
    assert snap.failures == {"h2": failure}
    assert snap.pending() == ["h3"]            # incomplete: h3 never ran
    assert snap.corrupt_lines == 0
    assert snap.lines == 7
    journal.done("h3", "store")
    assert not fleet.snapshot().pending()      # complete
    # Every line is one parseable record with the version stamp.
    for line in fleet.queue_path.read_text().splitlines():
        assert json.loads(line)["v"] == 1


def test_missing_queue_snapshots_as_empty(tmp_path):
    snap = Fleet(tmp_path / "absent").snapshot()
    assert not snap.enqueued and not snap.done and not snap.failures
    assert snap.lines == 0 and not snap.pending()


def test_journal_replay_is_last_record_wins(tmp_path):
    fleet, journal = _queue(tmp_path)
    journal.append("enqueue", spec="h1", payload={"benchmark": "swim"})
    failure = FailedRun(spec_hash="h1", benchmark="swim", mechanism="Base",
                        attempts=1, error="boom")
    journal.failed(failure)
    journal.done("h1", "simulated")                  # --retry-failed succeeded
    snap = fleet.snapshot()
    assert set(snap.done) == {"h1"} and not snap.failures

    journal.failed(failure)                          # ...and the reverse
    snap = fleet.snapshot()
    assert set(snap.failures) == {"h1"} and not snap.done

    # A requeue reopens it: pending again, and claimable.
    journal.append("requeue", spec="h1", payload={"benchmark": "swim"})
    snap = fleet.snapshot()
    assert not snap.failures and snap.pending() == ["h1"]


def test_timeout_failures_keep_their_kind_through_replay(tmp_path):
    fleet, journal = _queue(tmp_path)
    failure = FailedRun(spec_hash="h1", benchmark="swim", mechanism="Base",
                        attempts=3, error="hung", kind="timeout")
    journal.failed(failure)
    assert json.loads(fleet.queue_path.read_text())["kind"] == "failed"
    assert fleet.snapshot().failures["h1"].kind == "timeout"


def test_corrupt_journal_fault_tears_the_tail_only(tmp_path):
    fleet, journal = _queue(tmp_path)
    with fault_plan(FaultPlan(corrupt_journal=1.0)):
        journal.append("enqueue", spec="h1", payload={"benchmark": "swim"})
        journal.append("enqueue", spec="h2", payload={"benchmark": "gzip"})
        journal.done("h1", "simulated")
        journal.done("h2", "simulated")
        journal.append("interrupted", signal=2)
        journal.append("requeue", spec="h1", payload={"benchmark": "swim"})
    snap = fleet.snapshot()
    # Every tearable append was torn, every tear cost exactly its own
    # record; a torn enqueue or requeue would strand its spec under
    # --jobs N, so those always land whole.
    assert TEARABLE_KINDS == ("done", "failed", "interrupted")
    assert snap.corrupt_lines == 3 and not snap.done
    assert snap.pending() == ["h1", "h2"]
    assert snap.lines == 6  # torn lines still count (the sequence)
    assert fires("corrupt-journal", "k", 1) is False   # no plan installed

    # The sequence number continues across resumes, so the same record
    # re-appended later lands on a fresh schedule slot: with a seeded
    # half-rate plan the decision differs by sequence, not by content.
    half = FaultPlan(corrupt_journal=0.5, seed=3)
    decisions = {seq: half.decide("corrupt-journal", "done:h1", seq)
                 for seq in range(1, 40)}
    assert len(set(decisions.values())) == 2


# -- one log format: every log, every kind of damage ---------------------------
#
# The sweep queue (through the driver's writer), the fleet WAL and the
# ledger share one append and one replay (repro.exec.journal); each is
# driven here through its own writer and reader.  A log is (path,
# append(key), read() -> (keys, skipped lines)).

def _journal_log(tmp_path):
    fleet, journal = _queue(tmp_path)

    def read():
        snap = fleet.snapshot()
        return list(snap.done), snap.corrupt_lines

    return fleet.queue_path, lambda key: journal.done(key, "simulated"), read


def _wal_log(tmp_path):
    fleet = Fleet(tmp_path)

    def read():
        snap = fleet.snapshot()
        return list(snap.enqueued), snap.corrupt_lines

    return fleet.queue_path, lambda key: fleet.enqueue(
        {key: {"benchmark": "swim"}}), read


def _ledger_log(tmp_path):
    ledger = Ledger(tmp_path / "BENCH_obs.json")

    def read():
        records, problems = ledger.scan()
        return [r.label for r in records], len(problems)

    return ledger.path, lambda key: ledger.append(
        make_record(key, wall_seconds=1.0)), read


LOGS = {"journal": _journal_log, "wal": _wal_log, "ledger": _ledger_log}


def _newer_version(line):
    record = json.loads(line)
    record["v"] = 2
    return json.dumps(record, sort_keys=True).encode()


DAMAGE = {
    "torn": lambda line: line[: len(line) // 2],   # cut mid-write
    "non-object": lambda line: b"[1, 2, 3]",
    "non-utf8": lambda line: line[:5] + b"\xff" + line[6:],  # bit rot
    "newer-v": _newer_version,
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("log", sorted(LOGS))
def test_every_log_skips_only_the_damaged_line(tmp_path, log, damage):
    path, append, read = LOGS[log](tmp_path)
    for key in ("a", "b", "c"):
        append(key)
    lines = path.read_bytes().splitlines()
    lines[1] = DAMAGE[damage](lines[1])
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert read() == (["a", "c"], 1)


@pytest.mark.parametrize("log", sorted(LOGS))
def test_a_write_failing_mid_line_is_rolled_back(tmp_path, log):
    path, append, read = LOGS[log](tmp_path)
    append("a")
    # A full disk, as the kernel reports one: past RLIMIT_FSIZE the next
    # write lands part of its line, then fails with EFBIG.
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (path.stat().st_size + 16, hard))
    try:
        with pytest.raises(OSError):
            append("b")
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    append("c")
    assert read() == (["a", "c"], 0)


# -- executor integration: sweep queue + resume --------------------------------

def test_multi_spec_batches_journal_and_resume_serves(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    first = _executor(store)
    originals = first.run(specs)
    assert first.telemetry.simulated == len(specs)

    ((path, snap),) = _sweep_queues(store)
    assert not snap.pending() and set(snap.done) == {
        s.content_hash for s in specs
    }

    resumed = _executor(store, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.journal_served == len(specs)
    assert resumed.telemetry.simulated == 0
    assert resumed.telemetry.store_hits == 0
    assert _as_dicts(results) == _as_dicts(originals)   # bit-identical
    assert all(r.source == SOURCE_JOURNAL
               for r in resumed.telemetry.records)
    assert "journal-served" in resumed.telemetry.summary_line()


def test_single_spec_batches_do_not_journal(tmp_path):
    store = ResultStore(tmp_path / "cache")
    _executor(store).run([RunSpec("swim", n_instructions=N)])
    assert not store.journal_dir.exists()


def test_journaling_off_without_a_journal_dir(tmp_path):
    store = ResultStore(tmp_path / "cache")
    executor = Executor(jobs=1, store=store)   # library default: no journal
    executor.run(_grid_specs())
    assert not store.journal_dir.exists()


def test_fresh_run_overwrites_incomplete_journal_with_a_hint(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    _executor(store).run(specs)
    ((path, _),) = _sweep_queues(store)
    victim = specs[0].content_hash
    lines = [l for l in path.read_text().splitlines()
             if not ('"kind": "done"' in l and victim in l)]
    path.write_text("\n".join(lines) + "\n")
    assert Fleet(path.parent).snapshot().pending() == [victim]

    fresh = _executor(store)   # no --resume
    fresh.run(specs)
    err = capsys.readouterr().err
    assert "pass --resume" in err
    assert fresh.telemetry.journal_served == 0
    assert fresh.telemetry.store_hits == len(specs)
    # The old queue was discarded and the new one finished.
    assert _kinds_per_spec(path) == {
        s.content_hash: ["enqueue", "done"] for s in specs}


def test_a_warm_fresh_run_appends_nothing_to_a_complete_queue(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    _executor(store).run(specs)
    ((path, _),) = _sweep_queues(store)
    before = path.read_bytes()

    warm = _executor(store)   # no --resume
    warm.run(specs)
    # Served from the store, not the queue, and the queue kept as it was.
    assert warm.telemetry.store_hits == len(specs)
    assert warm.telemetry.journal_served == 0
    assert path.read_bytes() == before


def test_a_fresh_run_reruns_the_failures_a_kept_queue_holds(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    policy = RetryPolicy(**_LENIENT)
    with fault_plan(FaultPlan(crash=1.0)):
        _executor(store, policy=policy).run(specs)   # complete: all holes

    fresh = _executor(store, policy=policy)   # no --resume: holes not served
    results = fresh.run(specs)
    assert not any(isinstance(r, FailedRun) for r in results)
    assert fresh.telemetry.simulated == len(specs)
    assert fresh.telemetry.journal_served == 0
    ((path, _),) = _sweep_queues(store)
    assert _kinds_per_spec(path) == {
        s.content_hash: ["enqueue", "failed", "requeue", "done"]
        for s in specs}


def test_resume_with_missing_store_entry_resimulates(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    first = _executor(store)
    originals = first.run(specs)
    victim = specs[0]
    store.path_for(victim).unlink()   # the journal promises, the store rotted

    resumed = _executor(store, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.journal_served == len(specs) - 1
    assert resumed.telemetry.simulated == 1
    assert _as_dicts(results) == _as_dicts(originals)


def test_resume_reads_a_rotted_store_entry_once(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    originals = _executor(store).run(specs)
    victim = store.path_for(specs[0])
    victim.write_text(victim.read_text()[:40])   # truncated: one defect

    resumed = _executor(store, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.store_corrupt == 1
    assert capsys.readouterr().err.count("read as a miss") == 1
    assert resumed.telemetry.simulated == 1
    assert resumed.telemetry.journal_served == len(specs) - 1
    assert _as_dicts(results) == _as_dicts(originals)
    # The spec that must run again was requeued before it re-ran.
    ((path, _),) = _sweep_queues(store)
    assert _kinds_per_spec(path)[specs[0].content_hash] == [
        "enqueue", "done", "requeue", "done"]


def test_pool_runs_journal_and_resume_identically(tmp_path, leftovers):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    first = _executor(store, jobs=2)
    originals = first.run(specs)
    resumed = _executor(store, jobs=2, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.journal_served == len(specs)
    assert _as_dicts(results) == _as_dicts(originals)
    # The fleet ran in the sweep's directory: no private queue, and no
    # lease book outlived the run.
    leftovers()
    assert not list(store.journal_dir.glob("*/leases.jsonl"))


def test_journals_hold_the_same_record_kinds_at_any_job_count(tmp_path):
    specs = _grid_specs()
    kinds = {}
    for jobs in (1, 2):
        store = ResultStore(tmp_path / f"cache-{jobs}")
        _executor(store, jobs=jobs).run(specs)
        ((path, _snap),) = _sweep_queues(store)
        kinds[jobs] = _kinds_per_spec(path)
    assert kinds[1] == kinds[2]
    # One record vocabulary: the driver's enqueue, then one resolution
    # per spec (the worker's at --jobs 2), and nothing without a spec.
    assert kinds[1] == {s.content_hash: ["enqueue", "done"] for s in specs}


def test_corrupt_journal_chaos_degrades_to_store_hits(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    with fault_plan(FaultPlan(corrupt_journal=1.0)):
        originals = _executor(store).run(specs)   # queue useless, store intact

    resumed = _executor(store, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.journal_served == 0
    assert resumed.telemetry.store_hits == len(specs)
    assert _as_dicts(results) == _as_dicts(originals)


def test_corrupt_journal_chaos_at_jobs_2_completes_and_degrades_to_store_hits(
        tmp_path, leftovers):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    chaos = FaultPlan(corrupt_journal=1.0)
    # Cold: no enqueue is ever torn, so every spec stays claimable and
    # the workers resolve them all.
    start = time.monotonic()
    with fault_plan(chaos):
        originals = _executor(store, jobs=2).run(specs)
    assert time.monotonic() - start < DEFAULT_LEASE_TTL / 2
    ((path, snap),) = _sweep_queues(store)
    assert list(snap.enqueued) == [s.content_hash for s in specs]
    # Warm over that complete queue: every spec is a store hit the queue
    # already holds done, so the driver appends nothing to tear.
    warm = _executor(store, jobs=2)
    with fault_plan(chaos):
        assert _as_dicts(warm.run(specs)) == _as_dicts(originals)
    assert warm.telemetry.store_hits == len(specs)
    assert Fleet(path.parent).snapshot().corrupt_lines == 0

    resumed = _executor(store, jobs=2, resume=True)
    assert _as_dicts(resumed.run(specs)) == _as_dicts(originals)
    assert resumed.telemetry.journal_served == len(specs)
    assert resumed.telemetry.simulated == 0

    # The same specs in another order are another sweep: its new queue
    # gets the driver's own store-hit ``done`` records, every one of
    # them lands torn, and its resume degrades to store hits.
    reordered = specs[::-1]
    with fault_plan(chaos):
        _executor(store, jobs=2).run(reordered)
    queue = (store.journal_dir / sweep_identity(
        [s.content_hash for s in reordered], RetryPolicy())[:16]
        / "queue.jsonl")
    assert Fleet(queue.parent).snapshot().corrupt_lines == len(specs)
    resumed = _executor(store, jobs=2, resume=True)
    results = resumed.run(reordered)
    assert resumed.telemetry.journal_served == 0
    assert resumed.telemetry.store_hits == len(specs)
    assert resumed.telemetry.simulated == 0
    assert _as_dicts(results) == _as_dicts(originals[::-1])
    leftovers()


def test_jobs_2_workers_serve_torn_store_hits_without_simulating(
        tmp_path, leftovers):
    """A torn store-hit ``done`` leaves its spec pending on the queue;
    the worker that claims it reads the store instead of simulating."""
    store = ResultStore(tmp_path / "cache")
    warm = [RunSpec("swim", mechanism, n_instructions=N)
            for mechanism in GRID_MECHANISMS]
    cold = [RunSpec("gzip", mechanism, n_instructions=N)
            for mechanism in GRID_MECHANISMS]
    _executor(store).run(warm)
    chaotic = _executor(store, jobs=2)
    with fault_plan(FaultPlan(corrupt_journal=1.0)):
        chaotic.run(warm + cold)   # warm first: the first specs workers claim
    assert chaotic.telemetry.simulated == len(cold)
    queue = (store.journal_dir / sweep_identity(
        [s.content_hash for s in warm + cold], chaotic.policy)[:16]
        / "queue.jsonl")
    done = [r for r in replay(queue)[0]
            if r["kind"] == "done" and "worker" in r]
    simulated = sorted(r["spec"] for r in done if r["seconds"] > 0)
    assert simulated == sorted(s.content_hash for s in cold)
    assert all(r["seconds"] == 0 for r in done
               if r["spec"] not in simulated)
    leftovers()


# -- persisted failures and --retry-failed -------------------------------------

def test_journaled_failures_are_served_not_rerun(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    policy = RetryPolicy(**_LENIENT)
    with fault_plan(FaultPlan(crash=1.0)):
        holes = _executor(store, policy=policy).run(specs)
    assert all(isinstance(r, FailedRun) for r in holes)

    served = _executor(store, policy=policy, resume=True)   # faults gone
    results = served.run(specs)
    assert served.telemetry.journal_served == len(specs)
    assert served.telemetry.simulated == 0      # exhausted specs NOT re-run
    assert results == holes

    retried = _executor(store, policy=policy, resume=True, retry_failed=True)
    recovered = retried.run(specs)
    assert retried.telemetry.simulated == len(specs)
    assert not any(isinstance(r, FailedRun) for r in recovered)

    # Last-record-wins: the next resume serves the recovered results.
    again = _executor(store, policy=policy, resume=True)
    assert not any(isinstance(r, FailedRun) for r in again.run(specs))
    assert again.telemetry.journal_served == len(specs)


def test_strict_resume_reruns_journaled_failures(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    lenient = RetryPolicy(**_LENIENT)
    with fault_plan(FaultPlan(crash=1.0)):
        _executor(store, policy=lenient).run(specs)

    # A strict run must never serve a hole as an answer: re-run them.
    # (Different policy -> different sweep identity -> fresh journal.)
    strict = _executor(store, policy=RetryPolicy(strict=True), resume=True)
    results = strict.run(specs)
    assert strict.telemetry.simulated == len(specs)
    assert not any(isinstance(r, FailedRun) for r in results)


def test_jobs_2_poison_hole_is_served_on_resume_and_rerun_on_retry_failed(
        tmp_path, leftovers, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    victim = specs[1]
    policy = RetryPolicy(**_LENIENT)
    clean = Executor(jobs=1).run(specs)
    poisoned = _executor(store, jobs=2, policy=policy)
    with fault_plan(FaultPlan(poison=victim.content_hash[:12])):
        holes = poisoned.run(specs)
    assert isinstance(holes[1], FailedRun) and holes[1].kind == "poison"
    assert poisoned.telemetry.quarantined == 1
    ((path, snap),) = _sweep_queues(store)
    assert snap.quarantined == {victim.content_hash}

    served = _executor(store, jobs=2, policy=policy, resume=True)
    assert served.run(specs) == holes
    assert served.telemetry.journal_served == len(specs)
    assert served.telemetry.simulated == 0

    # The poison plan is gone; a fresh lease book gives the spec a full
    # lease budget again.
    retried = _executor(store, jobs=2, policy=policy, resume=True,
                        retry_failed=True)
    assert _as_dicts(retried.run(specs)) == _as_dicts(clean)
    assert retried.telemetry.simulated == 1
    assert retried.telemetry.quarantined == 0
    assert not Fleet(path.parent).snapshot().quarantined
    leftovers()


def test_a_dead_runs_leases_neither_block_nor_poison_a_resume(tmp_path,
                                                              leftovers):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    manager = ShutdownManager(grace=0.0)
    manager._handle(signal.SIGINT, None)
    with pytest.raises(SweepInterrupted):
        _executor(store, shutdown=manager).run(specs)
    ((path, snap),) = _sweep_queues(store)
    assert len(snap.pending()) == len(specs)
    # What two SIGKILLed drivers leave behind: every spec leased for the
    # whole default TTL, twice, by workers that are long gone.
    fleet = Fleet(path.parent)
    for spec in specs:
        for count in (1, 2):
            append_record(fleet.lease_path, {
                "v": 1, "kind": "lease", "spec": spec.content_hash,
                "worker": "w0-g1", "count": count,
                "expires": time.time() + DEFAULT_LEASE_TTL})

    manager.reset()
    resumed = _executor(store, jobs=2, resume=True, shutdown=manager)
    start = time.monotonic()
    results = resumed.run(specs)
    assert time.monotonic() - start < DEFAULT_LEASE_TTL / 2
    assert not any(isinstance(r, FailedRun) for r in results)
    assert resumed.telemetry.quarantined == 0
    assert resumed.telemetry.simulated == len(specs)
    assert not fleet.lease_path.exists()
    leftovers()


def test_a_second_driver_of_a_sweep_waits_for_its_lock(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    _executor(store).run(specs)
    ((path, _),) = _sweep_queues(store)
    before = path.read_bytes()
    second = _executor(store)
    driver = threading.Thread(target=second.run, args=(specs,))
    with locked(path.parent / SWEEP_LOCK):   # a live driver of this sweep
        driver.start()
        driver.join(0.5)
        assert driver.is_alive()              # waiting, not discarding
        assert path.read_bytes() == before
    driver.join(30)
    assert not driver.is_alive()
    assert second.telemetry.store_hits == len(specs)


# -- graceful shutdown ---------------------------------------------------------

def test_shutdown_manager_request_and_reset():
    manager = ShutdownManager(grace=1.0)
    assert manager.requested is None
    manager._handle(signal.SIGTERM, None)
    assert manager.requested == signal.SIGTERM
    interrupt = SweepInterrupted(manager.requested)
    assert interrupt.signum == signal.SIGTERM
    assert interrupt.exit_code == 143
    manager.reset()
    assert manager.requested is None


def test_shutdown_manager_install_restores_handlers():
    manager = ShutdownManager()
    before = signal.getsignal(signal.SIGTERM)
    manager.install((signal.SIGTERM,))
    assert signal.getsignal(signal.SIGTERM) == manager._handle
    manager.uninstall()
    assert signal.getsignal(signal.SIGTERM) == before


def test_sweep_interrupted_is_base_exception():
    # Lenient result handling catches Exception; the interrupt must
    # never be absorbable on the way out of a batch.
    assert not issubclass(SweepInterrupted, Exception)
    assert issubclass(SweepInterrupted, BaseException)
    assert SweepInterrupted(signal.SIGINT).exit_code == 130


def test_requested_shutdown_stops_dispatch_and_journals(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    manager = ShutdownManager(grace=0.0)
    manager._handle(signal.SIGINT, None)   # as if Ctrl-C already arrived
    executor = _executor(store, shutdown=manager)
    with pytest.raises(SweepInterrupted) as excinfo:
        executor.run(specs)
    assert excinfo.value.exit_code == 130
    assert executor.telemetry.simulated == 0   # stopped before dispatching

    ((path, snap),) = _sweep_queues(store)
    assert _interrupts(path) == [signal.SIGINT]
    assert snap.pending()

    manager.reset()
    resumed = _executor(store, resume=True, shutdown=manager)
    results = resumed.run(specs)
    assert not any(isinstance(r, FailedRun) for r in results)
    assert not Fleet(path.parent).snapshot().pending()


@pytest.mark.parametrize("exit_by", ["interrupt", "strict"])
def test_a_batch_that_raises_keeps_its_wall_time(tmp_path, exit_by):
    store = ResultStore(tmp_path / "cache")
    manager = ShutdownManager(grace=0.0)

    def progress(done, total, spec):
        manager._handle(signal.SIGINT, None)   # Ctrl-C after one spec

    if exit_by == "interrupt":
        executor = _executor(store, shutdown=manager, progress=progress)
        expected = SweepInterrupted
    else:
        executor = _executor(store, policy=RetryPolicy(strict=True))
        expected = SpecExhausted
    plan = FaultPlan(crash=1.0) if exit_by == "strict" else None
    with pytest.raises(expected), fault_plan(plan):
        executor.run(_grid_specs())
    assert executor.telemetry.wall_time > 0.0


# -- store integrity -----------------------------------------------------------

def _tamper_result(path):
    """Flip a result value while keeping the JSON perfectly parseable."""
    payload = json.loads(path.read_text())
    payload["result"]["ipc"] = payload["result"]["ipc"] + 1.0
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))


def test_checksum_catches_parseable_bit_rot(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    spec = RunSpec("swim", n_instructions=N)
    (original,) = Executor(jobs=1, store=store).run([spec])
    _tamper_result(store.path_for(spec))

    assert store.get(spec) is None
    assert store.corrupt_reads == 1
    assert "checksum mismatch" in capsys.readouterr().err

    # The executor re-simulates and heals the entry.
    (again,) = Executor(jobs=1, store=store).run([spec])
    assert dataclasses.asdict(again) == dataclasses.asdict(original)
    assert store.get(spec) is not None


def test_v2_entries_read_as_counted_misses(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    spec = RunSpec("swim", n_instructions=N)
    (original,) = Executor(jobs=1, store=store).run([spec])
    path = store.path_for(spec)
    payload = json.loads(path.read_text())
    assert payload["version"] == STORE_VERSION
    assert payload["checksum"] == result_checksum(payload["result"])

    # A pre-checksum (v2) entry is one counted version-mismatch miss.
    payload["version"] = 2
    del payload["checksum"]
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))
    assert store.get(spec) is None
    assert store.corrupt_reads == 1
    assert "version mismatch (entry 2, want 3)" in capsys.readouterr().err
    assert "version mismatch" in dict(store.fsck().problems)[path.name]
    # ...and so is a current entry without its checksum.
    payload["version"] = STORE_VERSION
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))
    assert store.get(spec) is None
    assert store.corrupt_reads == 2
    # The executor counts the same miss, re-simulates and rewrites it.
    (again,) = Executor(jobs=1, store=store).run([spec])
    assert dataclasses.asdict(again) == dataclasses.asdict(original)
    assert store.get(spec) is not None and store.corrupt_reads == 3


def test_fsck_detects_and_prunes(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    Executor(jobs=1, store=store).run(specs)
    good = store.path_for(specs[0])
    bad = store.path_for(specs[1])
    _tamper_result(bad)
    misfiled = good.with_name("0" * 64 + ".json")
    misfiled.write_text(good.read_text())          # cross-copied entry
    stale = store.root / ".x.json.999999999.tmp"   # dead writer's temp
    stale.write_text("partial")

    report = store.fsck()
    assert not report.clean
    assert report.scanned == len(specs) + 1
    assert report.ok == len(specs) - 1
    problems = dict(report.problems)
    assert "checksum mismatch" in problems[bad.name]
    assert "cross-copied" in problems[misfiled.name]
    assert report.stale_temps == [stale.name]
    assert not report.pruned                        # scan-only by default
    assert bad.exists()

    pruned = store.fsck(prune=True)
    assert sorted(pruned.pruned) == sorted(
        [bad.name, misfiled.name, stale.name]
    )
    assert not bad.exists() and not misfiled.exists() and not stale.exists()
    assert store.fsck().clean
    rendered = pruned.render()
    assert "BAD" in rendered and "pruned" in rendered


def test_fsck_report_describe_is_json_ready(tmp_path):
    report = ResultStore(tmp_path / "empty").fsck()
    assert report.clean
    assert json.loads(json.dumps(report.describe()))["scanned"] == 0


# -- telemetry and ledger plumbing ---------------------------------------------

def test_summary_line_shows_journal_served_only_when_nonzero():
    clean = Telemetry().summary_line()
    assert "journal" not in clean
    telemetry = Telemetry()
    telemetry.record(RunRecord(spec_hash="h", benchmark="swim",
                               mechanism="Base", source=SOURCE_JOURNAL))
    noisy = telemetry.summary_line()
    assert "1 journal-served" in noisy


def test_ledger_appends_serialise_under_concurrency(tmp_path):
    ledger = Ledger(tmp_path / "ledger.json")
    per_thread, threads = 25, 8

    def worker(i):
        for j in range(per_thread):
            ledger.append(make_record(f"t{i}-{j}", wall_seconds=0.1))

    pool = [threading.Thread(target=worker, args=(i,))
            for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    records, problems = ledger.scan()
    assert problems == []
    assert len(records) == per_thread * threads
    assert len({r.label for r in records}) == per_thread * threads


# -- the CLI under durability chaos --------------------------------------------

def _cli_env(tmp_path, faults=None, cache="cache"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    # Armed fault plans auto-ledger; keep that out of the repo's ledger.
    env["REPRO_LEDGER"] = str(tmp_path / "ledger.json")
    env["REPRO_CACHE_DIR"] = str(tmp_path / cache)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def _run_cli(env, *args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO,
    )


_FIG10_ARGS = ("fig10", "--n", "2000", "--benchmarks", "swim,art",
               "--jobs", "1")

#: Pinned: with seed=7 at rate 0.5 the fig10 sweep's spec hashes trigger
#: at least one injected orchestrator kill, and — because the kill fires
#: only after a spec was absorbed — every resume strictly advances the
#: journal, so the loop converges (observed: 2 resumes).
_KILL_SPEC = "kill-orchestrator:0.5,seed=7"


def test_cli_kill_orchestrator_chaos_converges_bit_identically(tmp_path):
    clean = _run_cli(_cli_env(tmp_path, cache="cache-clean"), *_FIG10_ARGS)
    assert clean.returncode == 0, clean.stderr

    env = _cli_env(tmp_path, faults=_KILL_SPEC, cache="cache-chaos")
    proc = _run_cli(env, *_FIG10_ARGS)
    kills = 0
    while proc.returncode == 75 and kills < 30:
        kills += 1
        assert "injected orchestrator kill" in proc.stderr
        proc = _run_cli(env, *_FIG10_ARGS, "--resume")
    assert proc.returncode == 0, proc.stderr
    assert kills >= 1                       # the chaos actually fired
    assert proc.stdout == clean.stdout      # resumed run is byte-identical
    assert "journal-served" in proc.stderr

    (path,) = _queue_paths(env)
    assert not Fleet(path.parent).snapshot().pending()


def _queue_paths(env):
    return sorted(Path(env["REPRO_CACHE_DIR"]).glob("journal/*/queue.jsonl"))


def _queued_done(env):
    return any('"kind": "done"' in path.read_text()
               for path in _queue_paths(env))


def _wait_for(predicate, proc, what, timeout=120.0):
    deadline = time.time() + timeout
    while not predicate():
        if time.time() > deadline or proc.poll() is not None:
            proc.kill()
            pytest.fail(f"{what} never happened")
        time.sleep(0.05)


def test_cli_sigint_graceful_shutdown_and_resume(tmp_path):
    env = _cli_env(tmp_path)
    args = [sys.executable, "-m", "repro", "matrix", "--n", "20000",
            "--benchmarks", "swim,gzip", "--jobs", "1"]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=env, cwd=REPO)
    _wait_for(lambda: _queued_done(env), proc, "a done record in the queue")
    proc.send_signal(signal.SIGINT)
    _out, err = proc.communicate(timeout=120)

    assert proc.returncode == 130           # 128 + SIGINT
    assert "SIGINT received" in err
    assert "rerun with --resume" in err
    (path,) = _queue_paths(env)
    snap = Fleet(path.parent).snapshot()
    assert _interrupts(path) == [signal.SIGINT]
    assert len(snap.done) >= 1              # the flush kept the progress
    assert snap.pending()
    served = len(snap.done)

    resumed = subprocess.run(args + ["--resume"], capture_output=True,
                             text=True, env=env, cwd=REPO)
    assert resumed.returncode == 0, resumed.stderr
    assert f"{served} journal-served" in resumed.stderr
    assert not Fleet(path.parent).snapshot().pending()


_MATRIX_ARGS = [sys.executable, "-m", "repro", "matrix", "--n", "20000",
                "--benchmarks", "swim,gzip", "--jobs", "2"]


@needs_proc
def test_cli_sigint_stops_the_local_fleet_gracefully(tmp_path):
    """Ctrl-C at --jobs 2: the driver asks its workers to finish the
    spec in hand, journals what landed, and leaves nothing behind."""
    env = _cli_env(tmp_path)
    env["TMPDIR"] = str(tmp_path / "tempdir")
    os.mkdir(env["TMPDIR"])
    proc = subprocess.Popen(_MATRIX_ARGS, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=REPO, start_new_session=True)
    try:
        _wait_for(lambda: _queued_done(env), proc,
                  "a done record in the queue")
        os.kill(proc.pid, signal.SIGINT)    # the driver alone: it forwards
        _out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130, err
    assert "SIGINT received" in err
    assert not live_group_members(proc.pid)
    assert os.listdir(env["TMPDIR"]) == []
    (path,) = _queue_paths(env)
    assert not path.with_name("leases.jsonl").exists()
    snap = Fleet(path.parent).snapshot()
    assert _interrupts(path) == [signal.SIGINT]
    assert len(snap.done) >= 1 and snap.pending()

    resumed = subprocess.run(_MATRIX_ARGS + ["--resume"], capture_output=True,
                             text=True, env=env, cwd=REPO)
    assert resumed.returncode == 0, resumed.stderr
    assert f"{len(snap.done)} journal-served" in resumed.stderr
    assert not Fleet(path.parent).snapshot().pending()


@needs_proc
def test_cli_fleet_workers_die_with_their_killed_driver(tmp_path):
    proc = subprocess.Popen(_MATRIX_ARGS, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=_cli_env(tmp_path),
                            cwd=REPO, start_new_session=True)
    try:
        # The driver and both forked workers are up.
        _wait_for(lambda: len(live_group_members(proc.pid)) >= 3, proc,
                  "the fleet start")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.time() + 10
        while live_group_members(proc.pid):
            assert time.time() < deadline, \
                "fleet workers outlived their SIGKILLed driver"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


@needs_proc
def test_cli_resume_after_sigkill_at_jobs_2_does_not_wait_out_leases(
        tmp_path):
    """A SIGKILLed driver's workers die holding live leases; the resume
    starts a fresh lease book, so neither the 60 s TTL nor the poison
    bound sees them."""
    clean = subprocess.run(_MATRIX_ARGS, capture_output=True, text=True,
                           env=_cli_env(tmp_path, cache="cache-clean"),
                           cwd=REPO)
    assert clean.returncode == 0, clean.stderr
    env = _cli_env(tmp_path)
    proc = subprocess.Popen(_MATRIX_ARGS, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=env, cwd=REPO,
                            start_new_session=True)
    try:
        _wait_for(lambda: _queued_done(env), proc,
                  "a done record in the queue")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    start = time.monotonic()
    resumed = subprocess.run(_MATRIX_ARGS + ["--resume"], capture_output=True,
                             text=True, env=env, cwd=REPO, timeout=120)
    assert time.monotonic() - start < 30
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == clean.stdout
    assert "journal-served" in resumed.stderr
    assert "quarantined" not in resumed.stderr


def test_cli_kill_orchestrator_chaos_at_jobs_2_converges_to_jobs_1(tmp_path):
    args = _FIG10_ARGS[:-1] + ("2",)
    clean = _run_cli(_cli_env(tmp_path, cache="cache-clean"), *_FIG10_ARGS)
    assert clean.returncode == 0, clean.stderr

    env = _cli_env(tmp_path, faults=_KILL_SPEC, cache="cache-chaos")
    proc = _run_cli(env, *args)
    kills = 0
    while proc.returncode == 75 and kills < 30:
        kills += 1
        assert "injected orchestrator kill" in proc.stderr
        proc = _run_cli(env, *args, "--resume")
    assert proc.returncode == 0, proc.stderr
    assert kills >= 1
    assert proc.stdout == clean.stdout
    assert "journal-served" in proc.stderr
    (path,) = _queue_paths(env)
    assert not Fleet(path.parent).snapshot().pending()
    assert not path.with_name("leases.jsonl").exists()


def test_cli_concurrent_identical_sweeps_share_the_queue(tmp_path):
    """The second driver of a sweep waits on the sweep's lock, then
    finds every result in the store instead of discarding the queue
    the first one is tailing."""
    env = _cli_env(tmp_path)
    args = [sys.executable, "-m", "repro", *_FIG10_ARGS[:-1], "2"]
    procs = [subprocess.Popen(args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              cwd=REPO, start_new_session=True)
             for _ in range(2)]
    try:
        outputs = [proc.communicate(timeout=60) for proc in procs]
    finally:
        for proc in procs:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    assert outputs[0][0] == outputs[1][0]
    (path,) = _queue_paths(env)
    assert not Fleet(path.parent).snapshot().pending()


#: Pinned: at rate 0.5, seed 1 hangs exactly one fig10 attempt in a
#: fleet worker, and its retry succeeds.
_HANG_ARGS = ("fig10", "--n", "1000", "--benchmarks", "swim", "--jobs", "2",
              "--retries", "3", "--timeout", "1")


def test_cli_pool_with_a_hung_worker_exits(tmp_path):
    """The worker's timer stops a hung attempt, so the CLI exits.

    The hung attempt is charged as a timeout and retried; no worker
    takes a signal for a graceful-shutdown request on the way.
    """
    clean = _run_cli(_cli_env(tmp_path, cache="cache-clean"), *_HANG_ARGS)
    assert clean.returncode == 0, clean.stderr
    env = _cli_env(tmp_path, faults="hang:0.5,seed=1", cache="cache-hang")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *_HANG_ARGS], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, cwd=REPO,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the CLI did not exit after its hung worker was stopped")
    assert proc.returncode == 0, err
    assert "1 timeouts" in err
    assert "received" not in err            # no worker took SIGTERM as a request
    assert out == clean.stdout


def test_cli_resume_requires_the_cache(tmp_path):
    proc = _run_cli(_cli_env(tmp_path), "fig10", "--n", "2000",
                    "--benchmarks", "swim", "--resume", "--no-cache")
    assert proc.returncode == 2
    assert "--resume needs the result store" in proc.stderr


def test_fsck_cli_detects_then_prunes(tmp_path):
    env = _cli_env(tmp_path)
    seeded = _run_cli(env, "run", "swim", "TP", "--n", "2000")
    assert seeded.returncode == 0, seeded.stderr
    cache = Path(env["REPRO_CACHE_DIR"])
    victim = sorted(cache.glob("[0-9a-f][0-9a-f]/*.json"))[0]
    _tamper_result(victim)

    def fsck(*extra):
        return subprocess.run(
            [sys.executable, "-m", "repro.exec", "fsck",
             "--cache-dir", str(cache), *extra],
            capture_output=True, text=True, env=env, cwd=REPO,
        )

    dirty = fsck()
    assert dirty.returncode == 1
    assert "checksum mismatch" in dirty.stdout
    assert "re-run with --prune" in dirty.stderr
    assert victim.exists()

    repaired = fsck("--prune")
    assert repaired.returncode == 0, repaired.stdout
    assert not victim.exists()

    clean = fsck()
    assert clean.returncode == 0
    assert "store is clean" in clean.stdout
    # Every fsck invocation journaled its report.
    fsck_log = cache / "journal" / "fsck.jsonl"
    reports = [json.loads(line) for line in
               fsck_log.read_text().splitlines()]
    assert len(reports) == 3
    assert all(r["kind"] == "fsck" for r in reports)
    assert reports[1]["report"]["pruned"] == [victim.name]


def test_fsck_of_a_missing_cache_dir_fails_and_creates_nothing(tmp_path,
                                                              capsys):
    from repro.exec.__main__ import main

    missing = tmp_path / "no" / "such" / "dir"
    assert main(["fsck", "--cache-dir", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"fsck: no cache directory at {missing}\n"
    assert "clean" not in captured.out
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("where", ["shard", "ckpt", "workloads"])
def test_fsck_lists_and_prunes_a_dead_writers_temp(tmp_path, capsys, where):
    """A temp whose writer died is listed by fsck and removed by
    ``--prune``, wherever a cache writer puts one."""
    from repro.exec.__main__ import main

    cache = tmp_path / "cache"
    temp = cache / {
        "shard": f"ab/.ab{'0' * 62}.json.999999999.tmp",
        "ckpt": f"ckpt/{'f' * 16}/.000000000700.ckpt.999999999.tmp",
        "workloads": "workloads/.swim-2000-0123456789abcdef.mar.999999999.tmp",
    }[where]
    temp.parent.mkdir(parents=True)
    temp.write_bytes(b"partial")
    fsck = ["fsck", "--cache-dir", str(cache)]

    main(fsck)
    assert temp.name in capsys.readouterr().out
    assert temp.exists()
    main(fsck + ["--prune"])
    assert temp.name in capsys.readouterr().out
    assert not temp.exists()
    assert main(fsck) == 0
    assert temp.name not in capsys.readouterr().out


def test_fsck_audits_every_queue_and_prunes_finished_sweeps(tmp_path,
                                                             capsys):
    from repro.exec.__main__ import main

    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    _executor(store).run(specs)                          # complete
    manager = ShutdownManager(grace=0.0)
    manager._handle(signal.SIGINT, None)
    with pytest.raises(SweepInterrupted):                # incomplete
        _executor(store, shutdown=manager).run(
            [RunSpec(benchmark, "GHB", n_instructions=N)
             for benchmark in GRID_BENCHMARKS])
    complete, incomplete = (
        path.parent.name for path, snap in sorted(
            _sweep_queues(store), key=lambda pair: bool(pair[1].pending())))
    # A --jobs N poison hole whose spec has since been stored: stale.
    poisoned = Fleet(store.journal_dir / "feedfacefeedface", max_leases=0)
    poisoned.enqueue({specs[0].content_hash: specs[0].describe()})
    assert poisoned.claim("w0-g1") is None
    old = store.journal_dir / "0123456789abcdef.jsonl"   # before queues
    old.write_text('{"kind": "sweep-start", "v": 1}\n')
    fsck = ["fsck", "--cache-dir", str(store.root)]

    assert main(fsck) == 1
    out = capsys.readouterr().out
    assert (f"queue journal/{complete}: 4 enqueued, 4 done, 0 failed, "
            "0 quarantined, 0 deadline-expired, complete") in out
    assert (f"queue journal/{incomplete}: 2 enqueued, 0 done, 0 failed, "
            "0 quarantined, 0 deadline-expired, incomplete (2 pending)") in out
    assert "queue journal/feedfacefeedface: 1 enqueued" in out
    assert "stale poison verdict" in out
    assert "no run can resume it" in out

    assert main(fsck + ["--prune"]) == 0
    out = capsys.readouterr().out
    assert "absolved" in out
    assert sorted(p.name for p in store.journal_dir.iterdir()) == sorted(
        ["fsck.jsonl", incomplete])
    assert main(fsck) == 0

