"""Production hardening of the sweep service: the four defences.

* **quarantine** — a spec that burns its lease budget (it keeps killing
  whoever runs it) is resolved fleet-wide as ``kind="poison"`` by a
  durable WAL record; only an explicit operator action (``quarantine
  clear`` or ``--retry-failed``) re-opens it, with a fresh pedigree.
* **admission control** — a bounded in-flight watermark and a
  per-client cap; over the line, the server answers ``overloaded`` with
  a deterministic retry hint and reserves nothing.  The client's seeded
  backoff converges — shed work completes late, never wrong.
* **deadlines** — a submission can bound how stale an answer it will
  accept; work the fleet cannot start in time comes back as
  ``kind="timeout"`` holes and exhibits render DEGRADED, not dead.
* **fail-clean writes** — a full disk (``disk-full`` chaos) aborts the
  append before any byte lands: no torn store entry, no torn WAL line,
  and the retry succeeds.

Every defence is pinned here twice where it matters: once at the
fleet/store unit level (the WAL arithmetic), once through a live server
(the streamed contract a client sees).
"""

import dataclasses
import errno
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec import ResultStore, RunSpec, journal
from repro.exec.faults import (
    parse_fault_spec,
    set_active_plan,
    should_fill_disk,
    should_poison,
)
from repro.exec.policy import FailedRun, RetryPolicy
from repro.exec.telemetry import RunRecord, Telemetry
from repro.exec.fleet import (
    KIND_ENQUEUE,
    KIND_QUARANTINE,
    KIND_RESET,
    Fleet,
)
from repro.exec.worker import Worker
from repro.serve import ServeUnavailable, spec_payload
from repro.serve.protocol import decode_message, submit_message

REPO = Path(__file__).resolve().parent.parent

N = 2000

HASH_A = "a" * 64
HASH_B = "b" * 64


def _spec(mechanism="TP", benchmark="swim"):
    return RunSpec(benchmark, mechanism, n_instructions=N)


def _as_dict(result):
    return dataclasses.asdict(result)


def _payload(benchmark="swim", mechanism="TP"):
    return {"benchmark": benchmark, "mechanism": mechanism}


# -- fault plan: poison selector and disk-full --------------------------------

def test_poison_selector_parses_and_matches_by_hash_prefix():
    plan = parse_fault_spec("kill-worker:0.5,poison:ab12,seed=7")
    # describe() round-trips the selector, so a respawned worker
    # re-parsing its own environment sees the identical plan.
    assert "poison:ab12" in plan.describe()
    assert should_poison(plan, "ab12" + "0" * 60)
    assert not should_poison(plan, "ab13" + "0" * 60)
    # No selector -> nothing is poison, whatever the other faults say.
    assert not should_poison(parse_fault_spec("kill-worker:0.5,seed=7"),
                             "ab12" + "0" * 60)


def test_bad_poison_prefix_is_rejected_at_parse_time():
    # A selector that can never match a lowercase-hex content hash is a
    # typo, not a no-op chaos plan.
    for bad in ("poison:XYZ", "poison:AB12", "poison:"):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


def test_disk_full_fires_once_per_fault_key():
    plan = parse_fault_spec("disk-full:1.0,seed=3")
    assert should_fill_disk(plan, "put:" + HASH_A, 1)
    # The retry of the same write is clean: disk-full is a one-shot
    # per key, so chaos runs converge instead of wedging on a write
    # that can never land.
    assert not should_fill_disk(plan, "put:" + HASH_A, 2)


# -- lease budget arithmetic ---------------------------------------------------

def test_retry_policy_derives_the_lease_bound():
    # One lease more than the attempt budget: every sanctioned retry
    # gets its lease, and the first claim *beyond* the budget is the
    # quarantine trigger.
    assert RetryPolicy().max_leases == RetryPolicy().max_attempts + 1
    assert RetryPolicy(retries=2).max_leases == 4


def test_fleet_quarantines_a_spec_that_burns_its_leases(tmp_path):
    fleet = Fleet(tmp_path, ttl=0.05)  # default max_leases = 2
    fleet.enqueue({HASH_A: _payload()})

    # Two workers lease it and (silently) die; each lease lapses.
    for count, worker in enumerate(("w1", "w2"), start=1):
        claim = fleet.claim(worker)
        assert claim is not None and claim.lease_count == count
        time.sleep(0.1)

    # The third claim transaction sees lease count 3 > 2 and, instead
    # of granting, resolves the spec durably as poison.
    assert fleet.claim("w3") is None
    snap = fleet.snapshot()
    assert snap.quarantined == {HASH_A}
    failure = snap.failures[HASH_A]
    assert failure.kind == "poison"
    assert snap.drained  # quarantine IS a resolution; the sweep ends

    # The verdict is a durable queue-WAL record, not claimant memory:
    # a fresh replay (new Fleet object) reaches the same state.
    records, skipped = journal.replay(fleet.queue_path)
    assert skipped == []
    assert [r["kind"] for r in records
            if r["kind"] == KIND_QUARANTINE] == [KIND_QUARANTINE]
    assert Fleet(tmp_path).snapshot().quarantined == {HASH_A}

    # Re-enqueueing (a naive resubmission) does NOT re-open it.
    fleet.enqueue({HASH_A: _payload()})
    assert fleet.claim("w4") is None
    assert Fleet(tmp_path).snapshot().quarantined == {HASH_A}


def test_clear_quarantine_reopens_with_a_fresh_pedigree(tmp_path):
    fleet = Fleet(tmp_path, ttl=0.05, max_leases=0)
    fleet.enqueue({HASH_A: _payload()})
    assert fleet.claim("w1") is None  # immediate quarantine at bound 0
    assert fleet.snapshot().quarantined == {HASH_A}

    assert fleet.clear_quarantine() == [HASH_A]
    snap = fleet.snapshot()
    assert not snap.quarantined and HASH_A in snap.enqueued

    # The clear also reset the crash-loop pedigree: the next lease is
    # count 1, not count 3 — the reopened spec gets a full budget.
    generous = Fleet(tmp_path, ttl=60.0)  # bound back at the default
    claim = generous.claim("w2")
    assert claim is not None and claim.lease_count == 1
    # And the reset is on disk, not in this process.
    records, _ = journal.replay(fleet.lease_path)
    assert KIND_RESET in [r["kind"] for r in records]


def test_selective_clear_quarantine_leaves_other_verdicts(tmp_path):
    fleet = Fleet(tmp_path, ttl=0.05, max_leases=0)
    fleet.enqueue({HASH_A: _payload(), HASH_B: _payload(benchmark="art")})
    while fleet.claim("w1") is not None:
        pass
    assert fleet.snapshot().quarantined == {HASH_A, HASH_B}
    assert fleet.clear_quarantine([HASH_A]) == [HASH_A]
    snap = fleet.snapshot()
    assert snap.quarantined == {HASH_B}
    assert HASH_A in snap.enqueued


# -- deadlines at the fleet level ---------------------------------------------

def test_expired_deadline_resolves_as_timeout_instead_of_granting(tmp_path):
    fleet = Fleet(tmp_path, ttl=60.0)
    fleet.enqueue({HASH_A: _payload()}, deadline=time.time() - 1.0)
    # The claim transaction expires it rather than handing a worker
    # work whose answer nobody will wait for.
    assert fleet.claim("w1") is None
    snap = fleet.snapshot()
    assert snap.expired == {HASH_A}
    assert snap.failures[HASH_A].kind == "timeout"
    assert snap.drained


def test_lease_renewal_respects_the_submission_deadline(tmp_path):
    fleet = Fleet(tmp_path, ttl=0.2)
    fleet.enqueue({HASH_A: _payload()}, deadline=time.time() + 0.25)
    claim = fleet.claim("w1")
    assert claim is not None
    # Before the deadline the heartbeat extends the lease as usual...
    assert fleet.renew(HASH_A, "w1") is not None
    time.sleep(0.3)
    # ...after it, no extension: the lease lapses on schedule and the
    # next claimant resolves the spec as expired.
    assert fleet.renew(HASH_A, "w1") is None
    assert fleet.claim("w2") is None
    assert Fleet(tmp_path).snapshot().expired == {HASH_A}


# -- disk-full: writes fail clean ---------------------------------------------

def test_store_put_under_disk_full_leaves_no_torn_entry(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = RunSpec("swim", "TP", n_instructions=500)
    result = spec.execute()
    set_active_plan(parse_fault_spec("disk-full:1.0,seed=1"))
    try:
        with pytest.raises(OSError) as err:
            store.put(spec, result, fault_attempt=1)
        assert err.value.errno == errno.ENOSPC
        # Fail-clean: no entry, and no stranded temp for fsck to find.
        assert store.get(spec) is None
        assert not list((tmp_path / "cache").rglob("*.tmp"))
        # The retry (attempt 2 never consults the schedule) lands.
        store.put(spec, result, fault_attempt=2)
    finally:
        set_active_plan(None)
    assert _as_dict(store.get(spec)) == _as_dict(result)
    report = store.fsck()
    assert report.clean


def test_wal_append_under_disk_full_leaves_no_torn_line(tmp_path):
    fleet = Fleet(tmp_path, ttl=60.0)
    fleet.enqueue({HASH_A: _payload()})
    size_before = fleet.queue_path.stat().st_size
    set_active_plan(parse_fault_spec("disk-full:1.0,seed=1"))
    try:
        # The first lease's done record is torn mid-line by ENOSPC...
        with pytest.raises(OSError):
            fleet.mark_done(HASH_A, "w1", 0.5, lease_count=1)
        # ...and rolled back: the log is exactly as it was, no torn
        # tail to tolerate.
        assert fleet.queue_path.stat().st_size == size_before
        records, skipped = journal.replay(fleet.queue_path)
        assert skipped == [] and [r["kind"] for r in records] == [KIND_ENQUEUE]
        # The retry (a second lease never consults the schedule) lands.
        fleet.mark_done(HASH_A, "w1", 0.5, lease_count=2)
    finally:
        set_active_plan(None)
    records, skipped = journal.replay(fleet.queue_path)
    assert skipped == []
    assert [r["kind"] for r in records] == [KIND_ENQUEUE, "done"]


def test_worker_releases_its_lease_when_the_store_write_fails(tmp_path):
    store = ResultStore(tmp_path / "cache")
    fleet = Fleet(store.serve_dir, ttl=60.0)
    spec = _spec()
    fleet.enqueue({spec.content_hash: spec_payload(spec)})
    # Every store put draws ENOSPC on its first attempt.  The plan is
    # armed process-globally, exactly as a worker process arms its
    # $REPRO_FAULTS at startup: the store's write hook consults the
    # active plan, not the worker object.
    plan = parse_fault_spec("disk-full:1.0,seed=1")
    sick = Worker(fleet, store, "w1", plan=plan)
    set_active_plan(plan)
    try:
        assert sick.run_one()
        snap = fleet.snapshot()
        # The simulation succeeded but nothing landed: the worker
        # released the lease (no TTL lapse needed) and recorded no
        # resolution.
        assert spec.content_hash in snap.enqueued
        assert spec.content_hash not in snap.done
        assert spec.content_hash not in snap.leases
        # The market re-grants immediately; the put's second attempt
        # is clean and the spec resolves with the write intact.
        assert sick.run_one()
    finally:
        set_active_plan(None)
    snap = fleet.snapshot()
    assert spec.content_hash in snap.done and snap.drained
    assert _as_dict(store.get(spec)) == _as_dict(spec.execute())


# -- protocol: hardening fields are omitted at their defaults ------------------

def test_submit_message_omits_deadline_and_retry_failed_by_default():
    specs = [_spec()]
    plain = submit_message(specs, "c1")
    record = decode_message(plain)
    assert "deadline" not in record and "retry_failed" not in record

    when = time.time() + 5.0
    armed = decode_message(submit_message(specs, "c1", deadline=when,
                                          retry_failed=True))
    assert armed["deadline"] == pytest.approx(when)
    assert armed["retry_failed"] is True


# -- a live server: quarantine, shedding, deadlines ---------------------------

def test_service_streams_quarantine_and_retry_failed_reopens(sweep_service):
    svc = sweep_service(ttl=0.1)
    spec = _spec()
    box = {}

    def submit(key, **kwargs):
        box[key] = svc.client(key).submit([spec], **kwargs)

    thread = threading.Thread(target=submit, args=("first",))
    thread.start()
    # Stand in for a crash-looping fleet: burn both sanctioned
    # leases without resolving, letting each lapse.
    for worker in ("w1", "w2"):
        deadline = time.monotonic() + 10.0
        while svc.fleet.claim(worker) is None:
            assert time.monotonic() < deadline, "claim never granted"
            time.sleep(0.02)
        time.sleep(0.2)
    # The third claim trips the quarantine; the watcher streams the
    # resolution to the blocked subscriber.
    assert svc.fleet.claim("w3") is None
    thread.join(timeout=30.0)
    assert not thread.is_alive()

    outcome = box["first"]
    assert outcome.results == {}
    assert outcome.failures[spec.content_hash].kind == "poison"
    assert outcome.quarantined == 1

    # A plain resubmission replays the verdict from the WAL —
    # instantly, with no fleet involvement at all.
    replay = svc.client("again").submit([spec])
    assert replay.failures[spec.content_hash].kind == "poison"
    assert replay.quarantined == 1

    # --retry-failed is the operator's re-open: the server clears
    # the quarantine and a (now healthy) worker runs it clean.
    svc.start_worker("healthy")
    retried = svc.client("retry").submit([spec], retry_failed=True)
    assert retried.failures == {}
    assert _as_dict(retried.results[spec.content_hash]) == \
        _as_dict(spec.execute())


def test_service_sheds_over_the_watermark_and_converges(sweep_service):
    svc = sweep_service(max_queue=1, retry_after=0.01)
    spec_a, spec_b = _spec("TP"), _spec("Base")
    box = {}

    def submit(key, spec):
        box[key] = svc.client(key).submit([spec])

    first = threading.Thread(target=submit, args=("a", spec_a))
    first.start()
    # Wait until A's batch owns the (size-1) in-flight table...
    deadline = time.monotonic() + 10.0
    while spec_a.content_hash not in svc.fleet.snapshot().enqueued:
        assert time.monotonic() < deadline, "first batch never admitted"
        time.sleep(0.01)
    # ...so B's submission is over the watermark: shed, not queued.
    second = threading.Thread(target=submit, args=("b", spec_b))
    second.start()
    time.sleep(0.15)  # let B absorb at least one overloaded answer
    svc.start_worker("w1")
    first.join(timeout=60.0)
    second.join(timeout=60.0)
    assert not first.is_alive() and not second.is_alive()

    # Shed work completed late, never wrong.
    assert box["b"].shed >= 1
    for key, spec in (("a", spec_a), ("b", spec_b)):
        assert _as_dict(box[key].results[spec.content_hash]) == \
            _as_dict(spec.execute())

    # Shedding reserved nothing: each hash was enqueued exactly
    # once, by the submission that was actually admitted.
    records, _ = journal.replay(svc.fleet.queue_path)
    enqueues = [r["spec"] for r in records if r["kind"] == KIND_ENQUEUE]
    assert sorted(enqueues) == sorted(
        [spec_a.content_hash, spec_b.content_hash])


def test_service_rejects_a_batch_over_the_per_client_cap(sweep_service):
    svc = sweep_service(max_client_inflight=1)
    with pytest.raises(ServeUnavailable, match="rejected"):
        svc.client("greedy").submit([_spec("TP"), _spec("Base")])
    # Nothing was reserved for the rejected batch.
    assert svc.fleet.snapshot().enqueued == {}
    # Within the cap the same client is served normally.
    svc.start_worker("w1")
    outcome = svc.client("greedy").submit([_spec("TP")])
    assert outcome.failures == {}


def test_service_expires_undispatched_work_at_the_deadline(sweep_service):
    svc = sweep_service()  # no workers: nothing dispatches
    spec = _spec()
    outcome = svc.client("impatient").submit(
        [spec], deadline=time.time() + 0.3)
    assert outcome.results == {}
    failure = outcome.failures[spec.content_hash]
    assert failure.kind == "timeout"
    assert outcome.expired == 1
    assert svc.fleet.snapshot().expired == {spec.content_hash}


# -- executor summary: new counters render only when nonzero -------------------

def test_summary_line_renders_hardening_parts_only_when_nonzero():
    telemetry = Telemetry()
    telemetry.record(RunRecord("h1", "swim", "TP", "simulated", 0.25))
    telemetry.record_batch(1, 1, 0.5)
    clean = telemetry.summary_line()
    # The clean line is byte-identical to what it always was: the
    # hardening counters are invisible until something actually sheds,
    # quarantines or expires.
    assert clean == ("executor: 1 results, 1 simulated, 0 cache hits "
                     "(0 memo, 0 store, 0 deduped), wall 0.50s, "
                     "avg 0.250s/sim")
    telemetry.shed = 2
    telemetry.quarantined = 1
    telemetry.expired = 3
    assert telemetry.summary_line() == \
        clean + ", 2 shed, 1 quarantined, 3 expired"


# -- fsck: quarantine cross-check ----------------------------------------------

def _fsck(cache_dir, *flags):
    from repro.exec.__main__ import main
    return main(["fsck", "--cache-dir", str(cache_dir), *flags])


def test_fsck_cross_checks_quarantine_against_the_store(tmp_path, capsys):
    cache = tmp_path / "cache"
    store = ResultStore(cache)
    spec = RunSpec("swim", "TP", n_instructions=500)
    fleet = Fleet(store.serve_dir, ttl=0.05, max_leases=0)
    fleet.enqueue({spec.content_hash: {"benchmark": "swim",
                                       "mechanism": "TP",
                                       "n_instructions": 500}})
    assert fleet.claim("w1") is None  # immediate quarantine at bound 0

    # Consistent state: the poison verdict and the store hole agree.
    assert _fsck(cache) == 0
    out = capsys.readouterr().out
    assert "1 quarantined" in out

    # A sound store entry behind the verdict is a stale quarantine: the
    # spec provably runs to a good result, yet every future submission
    # would replay the hole.
    store.put(spec, spec.execute())
    assert _fsck(cache) == 1
    out = capsys.readouterr().out
    assert "stale poison verdict" in out

    # --prune absolves it: done record supersedes, pedigree retired.
    assert _fsck(cache, "--prune") == 0
    out = capsys.readouterr().out
    assert "absolved" in out
    snap = Fleet(store.serve_dir).snapshot()
    assert not snap.quarantined and spec.content_hash in snap.done
    # Idempotent: the repaired store is simply clean now.
    assert _fsck(cache) == 0


# -- CLI surfaces (subprocess) -------------------------------------------------

def _cli_env(tmp_path, cache, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    env["REPRO_LEDGER"] = str(tmp_path / "ledger.json")
    env["REPRO_CACHE_DIR"] = str(tmp_path / cache)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def test_serve_client_cli_exits_2_when_the_server_is_absent(tmp_path):
    missing = str(tmp_path / "absent.sock")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", "client",
         "--socket", missing, "--n", "500"],
        capture_output=True, text=True,
        env=_cli_env(tmp_path, "cache"), cwd=REPO, timeout=60,
    )
    assert proc.returncode == 2
    # One operator-facing line, not a traceback.
    assert "Traceback" not in proc.stderr
    assert f"cannot connect to {missing} (is the server running?)" \
        in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_exhibit_cli_exits_2_when_the_server_is_absent(tmp_path):
    missing = str(tmp_path / "absent.sock")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fig10", "--n", "500",
         "--benchmarks", "swim", "--serve", missing],
        capture_output=True, text=True,
        env=_cli_env(tmp_path, "cache"), cwd=REPO, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"cannot connect to {missing} (is the server running?)" \
        in proc.stderr


def test_deadline_without_serve_is_a_usage_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fig10", "--n", "500",
         "--benchmarks", "swim", "--deadline", "5"],
        capture_output=True, text=True,
        env=_cli_env(tmp_path, "cache"), cwd=REPO, timeout=60,
    )
    assert proc.returncode == 2
    assert "--deadline" in proc.stderr


def test_cli_deadline_renders_degraded_exhibit(tmp_path):
    """An expiring deadline degrades the exhibit; it does not kill it.

    The cache is pre-warmed with one benchmark's results, then a
    two-benchmark exhibit runs against a server with *no fleet* and a
    deadline nothing can meet.  The warmed benchmark resolves from the
    store; the other expires into timeout holes — so the exhibit must
    drop it, render DEGRADED, and still exit 0.
    """
    env = _cli_env(tmp_path, "cache")
    warm = subprocess.run(
        [sys.executable, "-m", "repro", "fig10", "--n", str(N),
         "--benchmarks", "swim", "--jobs", "1"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=600,
    )
    assert warm.returncode == 0, warm.stderr

    socket_path = str(tmp_path / "serve.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "server",
         "--socket", socket_path],
        env=env, cwd=REPO, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not Path(socket_path).exists():
            assert server.poll() is None, "server died during startup"
            assert time.monotonic() < deadline, "server never listened"
            time.sleep(0.05)

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fig10", "--n", str(N),
             "--benchmarks", "swim,art", "--serve", socket_path,
             "--deadline", "1.0"],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
        )
    finally:
        server.terminate()
        server.wait(timeout=30)

    assert proc.returncode == 0, proc.stderr
    assert "DEGRADED" in proc.stdout
    assert "art" in proc.stdout  # the dropped benchmark is named
    # The holes are accounted as expirations, not generic failures.
    assert "expired" in proc.stderr
    # The ledger (one JSON record per line) accounted the expirations.
    lines = (tmp_path / "ledger.json").read_text().strip().splitlines()
    last = json.loads(lines[-1])
    assert last["metrics"]["expired"] > 0


# -- the composed chaos soak (subprocess) --------------------------------------

def test_soak_converges_at_seed_7(tmp_path):
    """The shipped harness, end to end, exactly as CI invokes it.

    Pinned at seed=7: serial baseline, chaos leg byte-identical to it,
    poison leg quarantining the seed-chosen hash, overload leg shedding
    and converging — each leg fsck-clean.  A pass here is the service's
    whole robustness story in one subprocess.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", "soak", "--seed", "7",
         "--n", "800", "--workers", "2", "--clients", "2",
         "--cache-dir", str(tmp_path / "soak")],
        capture_output=True, text=True,
        env=_cli_env(tmp_path, "unused-cache"), cwd=REPO, timeout=900,
    )
    assert proc.returncode == 0, \
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    assert "soak: PASS" in proc.stderr or "soak: PASS" in proc.stdout
