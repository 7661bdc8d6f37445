"""The sweep service: protocol, fleet leases, dedupe, chaos convergence.

The headline assertions here are the service's contract, stated as
invariants over the WALs rather than over timing:

* **exactly-once** — however many clients submit a hash, the queue WAL
  carries at most one ``enqueue``, one ``lease`` and one ``done`` record
  for it (a healthy fleet never simulates a spec twice);
* **bit-identical** — every result a client receives equals the result
  of executing the spec locally, field for field (specs are pure, the
  store is content-addressed, so *who* simulated is unobservable);
* **convergence** — a worker killed mid-lease by ``kill-worker`` chaos
  leaves a lease that expires and is reclaimed with count 2, and
  count-2 leases never consult the kill schedule, so the sweep always
  finishes.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec import ResultStore, RunSpec, journal
from repro.exec.faults import FaultPlan, fires
from repro.exec.telemetry import RunRecord, Telemetry
from repro.exec.fleet import (
    KIND_DONE,
    KIND_ENQUEUE,
    KIND_EXPIRE,
    KIND_LEASE,
    Fleet,
)
from repro.exec.runspec import SpecPayloadError, payload_hash, spec_from_payload
from repro.exec.worker import Worker
from repro.serve import ProtocolError, spec_payload
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
)

from tests.conftest import fault_plan

REPO = Path(__file__).resolve().parent.parent

N = 2000


def _spec(mechanism="TP", benchmark="swim"):
    return RunSpec(benchmark, mechanism, n_instructions=N)


def _as_dict(result):
    return dataclasses.asdict(result)


# -- protocol ------------------------------------------------------------------

def test_spec_payload_round_trips_content_hash():
    specs = [
        _spec("Base"),
        _spec("TP"),
        RunSpec("gzip", "VC", n_instructions=N,
                mechanism_kwargs=(("entries", 8),)),
    ]
    for spec in specs:
        payload = spec_payload(spec)
        # The wire hash agrees with the spec's own identity...
        assert payload_hash(payload) == spec.content_hash
        # ...and survives an actual JSON round trip (the wire format).
        wire = json.loads(json.dumps(payload))
        rebuilt = spec_from_payload(wire)
        assert rebuilt.content_hash == spec.content_hash
        assert rebuilt == spec


def test_bad_spec_payloads_are_rejected():
    with pytest.raises(SpecPayloadError):
        spec_from_payload("not an object")
    with pytest.raises(SpecPayloadError):
        spec_from_payload({"benchmark": "swim"})  # missing everything else
    # A payload whose reconstruction hashes differently is a lie about
    # identity: smuggle in a field the hash was not computed over.
    payload = spec_payload(_spec())
    payload["smuggled"] = True
    with pytest.raises(SpecPayloadError):
        spec_from_payload(payload)


def test_messages_are_versioned_json_lines():
    line = encode_message("result", spec="abc", seconds=0.5)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    record = decode_message(line)
    assert record["kind"] == "result"
    assert record["v"] == PROTOCOL_VERSION
    # A message from a newer protocol is rejected, not mis-parsed.
    newer = json.dumps({"v": PROTOCOL_VERSION + 1, "kind": "result"})
    with pytest.raises(ProtocolError):
        decode_message(newer.encode())
    with pytest.raises(ProtocolError):
        decode_message(b"[1, 2, 3]\n")
    with pytest.raises(ProtocolError):
        decode_message(b"{\"v\": 1}\n")  # no kind


# -- the WAL primitives --------------------------------------------------------

def test_wal_append_replay_round_trip(tmp_path):
    path = tmp_path / "queue.jsonl"
    journal.append_record(path, journal.versioned("enqueue", spec="h1"))
    journal.append_record(path, journal.versioned("done", spec="h1",
                                                  seconds=0.5))
    records, skipped = journal.replay(path)
    assert [r["kind"] for r in records] == ["enqueue", "done"]
    assert skipped == []
    # A missing file is an empty log, not an error.
    assert journal.replay(tmp_path / "absent.jsonl") == ([], [])


def test_read_tail_consumes_only_complete_lines(tmp_path):
    path = tmp_path / "queue.jsonl"
    journal.append_record(path, journal.versioned("enqueue", spec="h1"))
    # A worker mid-append: the final line has no newline yet.
    with open(path, "a") as handle:
        handle.write('{"v": 1, "kind": "done", "spec": "h1"')
    records, offset = journal.read_tail(path, 0)
    assert [r["kind"] for r in records] == ["enqueue"]
    # Completing the line makes it visible from the returned offset.
    with open(path, "a") as handle:
        handle.write(', "seconds": 0.5}\n')
    records, offset2 = journal.read_tail(path, offset)
    assert [r["kind"] for r in records] == ["done"]
    assert offset2 > offset
    # Nothing new: same offset back, no records.
    assert journal.read_tail(path, offset2) == ([], offset2)


# -- fleet leases --------------------------------------------------------------

def _payloads(*hashes):
    return {h: {"benchmark": "swim", "fake": h} for h in hashes}


def test_lease_lifecycle_and_exactly_one_claimant(tmp_path):
    fleet = Fleet(tmp_path, ttl=30.0)
    assert fleet.enqueue(_payloads("a" * 64, "b" * 64)) == \
        ["a" * 64, "b" * 64]
    # Re-submitting shared work must not grow the queue — and the
    # caller learns exactly which hashes the fleet already owned.
    assert fleet.enqueue(_payloads("a" * 64)) == []

    first = fleet.claim("w1")
    second = fleet.claim("w2")
    assert {first.spec_hash, second.spec_hash} == {"a" * 64, "b" * 64}
    assert first.lease_count == 1 and second.lease_count == 1
    # Both specs leased: a third worker finds nothing claimable.
    assert fleet.claim("w3") is None

    fleet.mark_done(first.spec_hash, "w1", 0.5)
    fleet.mark_done(second.spec_hash, "w2", 0.5)
    snap = fleet.snapshot()
    assert snap.drained
    assert set(snap.done) == {"a" * 64, "b" * 64}
    # Resolved specs are never re-leased.
    assert fleet.claim("w1") is None


def test_expired_lease_is_reclaimed_with_higher_count(tmp_path):
    fleet = Fleet(tmp_path, ttl=0.05)
    fleet.enqueue(_payloads("a" * 64))
    first = fleet.claim("w1")
    assert first.lease_count == 1
    # The abandoned lease blocks the spec only until it expires.
    assert fleet.claim("w2") is None
    time.sleep(0.1)
    reclaimed = fleet.claim("w2")
    assert reclaimed is not None
    assert reclaimed.spec_hash == "a" * 64
    assert reclaimed.lease_count == 2
    # The reclaim is durable and auditable: an expire record was logged.
    records, _ = journal.replay(fleet.lease_path)
    kinds = [r["kind"] for r in records]
    assert KIND_EXPIRE in kinds
    assert kinds.count(KIND_LEASE) == 2


def test_renew_extends_only_the_holders_live_lease(tmp_path):
    fleet = Fleet(tmp_path, ttl=0.4)
    fleet.enqueue(_payloads("a" * 64))
    assert fleet.claim("w1") is not None
    # The holder can keep the lease alive past its original TTL...
    for _ in range(3):
        time.sleep(0.2)
        assert fleet.renew("a" * 64, "w1") is not None
        assert fleet.claim("w2") is None
    # ...while a non-holder's heartbeat is refused outright.
    assert fleet.renew("a" * 64, "w2") is None
    # Once the lease lapses and w2 reclaims, the old holder's renew is
    # refused too — it must not stretch the reclaimant's deadline.
    time.sleep(0.5)
    reclaimed = fleet.claim("w2")
    assert reclaimed is not None and reclaimed.lease_count == 2
    assert fleet.renew("a" * 64, "w1") is None
    holder, _count, expires = fleet.snapshot().leases["a" * 64]
    assert holder == "w2"
    # Replay enforces the same rule for records already on disk: a
    # forged renew from the wrong worker changes nothing.
    journal.append_record(fleet.lease_path, journal.versioned(
        "renew", spec="a" * 64, worker="w1", expires=expires + 9999.0))
    assert fleet.snapshot().leases["a" * 64] == (holder, 2, expires)


def test_a_stale_release_cannot_drop_the_reclaimants_lease(tmp_path):
    fleet = Fleet(tmp_path, ttl=0.5)   # default max_leases = 2
    fleet.enqueue(_payloads("a" * 64))
    assert fleet.claim("A").lease_count == 1
    time.sleep(0.6)                    # A's lease lapses...
    assert fleet.claim("B").lease_count == 2   # ...and B reclaims it
    # A's failed-write path releases "its" lease: nothing happens.
    assert fleet.release("a" * 64, "A") is False
    assert fleet.snapshot().leases["a" * 64][0] == "B"
    # So the next claimant finds the spec leased, not burnt past its
    # bound: it is not quarantined while B simulates it.
    assert fleet.claim("C") is None
    assert fleet.snapshot().quarantined == set()
    assert fleet.renew("a" * 64, "B") is not None
    # Replay holds the same rule for a release already on disk, and a
    # stale worker's resolution does not release the holder's lease.
    journal.append_record(fleet.lease_path, journal.versioned(
        "release", spec="a" * 64, worker="A"))
    fleet.mark_done("a" * 64, "A", 0.1)
    assert fleet.snapshot().leases["a" * 64][0] == "B"
    fleet.mark_done("a" * 64, "B", 0.1)
    assert fleet.snapshot().drained


def test_release_worker_frees_only_that_workers_leases(tmp_path):
    fleet = Fleet(tmp_path, ttl=60.0)
    fleet.enqueue(_payloads("a" * 64, "b" * 64))
    mine = fleet.claim("w1").spec_hash
    theirs = fleet.claim("w2").spec_hash
    assert fleet.release_worker("w1") == [mine]
    assert fleet.release_worker("w1") == []
    assert set(fleet.snapshot().leases) == {theirs}
    # Released, not resolved: the spec is leased again, count 2.
    again = fleet.claim("w3")
    assert (again.spec_hash, again.lease_count) == (mine, 2)


def test_requeue_reopens_resolved_specs_but_not_pending_ones(tmp_path):
    fleet = Fleet(tmp_path, ttl=30.0)
    fleet.enqueue(_payloads("a" * 64, "b" * 64))
    claim = fleet.claim("w1")
    assert claim.spec_hash == "a" * 64
    fleet.mark_done(claim.spec_hash, "w1", 0.1)
    # Resolved specs are not pending, and enqueue cannot revive them.
    assert fleet.enqueue(_payloads("a" * 64)) == []
    assert fleet.snapshot().pending() == ["b" * 64]
    # requeue erases the resolution; the still-pending spec is skipped
    # (re-opening in-flight work would double-simulate it).
    assert fleet.requeue(_payloads("a" * 64, "b" * 64)) == ["a" * 64]
    snap = fleet.snapshot()
    assert snap.pending() == ["a" * 64, "b" * 64]
    assert "a" * 64 not in snap.done
    # The reopened spec is claimable again and its lease pedigree
    # continues — a count-2 lease never consults the chaos schedule.
    reclaimed = fleet.claim("w2")
    assert reclaimed.spec_hash == "a" * 64
    assert reclaimed.lease_count == 2


def test_failed_specs_resolve_the_queue(tmp_path):
    fleet = Fleet(tmp_path, ttl=30.0)
    fleet.enqueue(_payloads("a" * 64))
    claim = fleet.claim("w1")
    from repro.exec.policy import FailedRun
    fleet.mark_failed(FailedRun(
        spec_hash=claim.spec_hash, benchmark="swim", mechanism="TP",
        attempts=1, error="boom"), "w1")
    snap = fleet.snapshot()
    assert snap.drained
    assert claim.spec_hash in snap.failures
    assert snap.failures[claim.spec_hash].error == "boom"


def test_fleet_snapshot_tolerates_corrupt_wal_lines(tmp_path):
    fleet = Fleet(tmp_path, ttl=30.0)
    fleet.enqueue(_payloads("a" * 64))
    with open(fleet.queue_path, "a") as handle:
        handle.write("not json at all\n")
    snap = fleet.snapshot()
    assert list(snap.enqueued) == ["a" * 64]
    assert snap.corrupt_lines == 1


# -- the worker ----------------------------------------------------------------

def test_worker_simulates_stores_then_resolves(tmp_path):
    store = ResultStore(tmp_path / "cache")
    fleet = Fleet(store.serve_dir, ttl=60.0)
    spec = _spec()
    fleet.enqueue({spec.content_hash: spec_payload(spec)})
    worker = Worker(fleet, store, "w1")
    assert worker.run_one()
    assert worker.completed == 1
    # The result in the shared store is the spec's own, bit for bit.
    assert _as_dict(store.get(spec)) == _as_dict(spec.execute())
    snap = fleet.snapshot()
    assert snap.drained and spec.content_hash in snap.done
    # Nothing left: the next claim attempt reports no work.
    assert not worker.run_one()


def test_worker_resolves_a_stored_spec_without_simulating(tmp_path,
                                                         monkeypatch):
    """A pending spec whose result is already stored (its ``done``
    record was torn, say) is marked done, not simulated again."""
    store = ResultStore(tmp_path / "cache")
    fleet = Fleet(store.serve_dir, ttl=60.0)
    spec = _spec()
    store.put(spec, spec.execute())
    fleet.enqueue({spec.content_hash: spec_payload(spec)})

    def simulate(self, *args, **kwargs):
        raise AssertionError("a stored spec was simulated again")

    monkeypatch.setattr(RunSpec, "execute", simulate)
    worker = Worker(fleet, store, "w1")
    assert worker.run_one()
    assert worker.completed == 1 and worker.failed == 0
    snap = fleet.snapshot()
    assert snap.drained
    assert snap.done[spec.content_hash]["seconds"] == 0.0


def test_worker_resolves_unreconstructible_payload_as_failure(tmp_path):
    store = ResultStore(tmp_path / "cache")
    fleet = Fleet(store.serve_dir, ttl=60.0)
    fleet.enqueue({"f" * 64: {"benchmark": "swim", "garbage": True}})
    worker = Worker(fleet, store, "w1")
    assert worker.run_one()
    assert worker.failed == 1
    snap = fleet.snapshot()
    assert snap.drained
    failure = snap.failures["f" * 64]
    assert "SpecPayloadError" in failure.error


def test_kill_worker_schedule_is_deterministic_and_first_lease_only(tmp_path):
    plan = FaultPlan(seed=7, kill_worker=1.0)
    assert fires("kill-worker", "a" * 64) is False   # no plan installed
    # Purely a function of (seed, kind, hash): the same plan makes the
    # same decision everywhere, forever — including a fresh process.
    assert plan.decide("kill-worker", "a" * 64, 1) is True
    assert plan.decide("kill-worker", "a" * 64, 1) is True
    assert FaultPlan(seed=7, kill_worker=1.0).decide(
        "kill-worker", "a" * 64, 1) is True
    # Convergence is the schedule's one-shot rule: a reclaimed lease
    # (count > 1) never fires, so _maybe_die returns instead of dying
    # even at rate 1.0.
    assert plan.decide("kill-worker", "a" * 64, 2) is False
    from repro.exec.fleet import Claim
    store = ResultStore(tmp_path / "cache")
    worker = Worker(Fleet(store.serve_dir), store, "w1")
    with fault_plan(plan):
        worker._maybe_die(Claim(spec_hash="a" * 64, payload={},
                                lease_count=2, expires=0.0))


def test_worker_heartbeat_outlasts_a_slow_simulation(tmp_path, monkeypatch):
    """A simulation slower than the TTL keeps its lease via renewal."""
    store = ResultStore(tmp_path / "cache")
    fleet = Fleet(store.serve_dir, ttl=0.4)
    spec = _spec()
    fleet.enqueue({spec.content_hash: spec_payload(spec)})

    class Slow:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def execute(self):
            time.sleep(1.0)
            return self._inner.execute()

    monkeypatch.setattr(
        "repro.exec.worker.spec_from_payload",
        lambda payload: Slow(spec_from_payload(payload)),
    )
    worker = Worker(fleet, store, "w1")
    thread = threading.Thread(target=worker.run_one)
    thread.start()
    try:
        # Well past the original 0.4 s deadline the lease is still live
        # (renewed at ttl/2), so no one else can steal the spec.
        time.sleep(0.7)
        assert fleet.claim("w2") is None
    finally:
        thread.join(timeout=30.0)
    assert worker.completed == 1
    snap = fleet.snapshot()
    assert snap.drained and spec.content_hash in snap.done
    # Exactly one lease ever granted, kept alive by renew heartbeats.
    records, _ = journal.replay(fleet.lease_path)
    kinds = [r["kind"] for r in records]
    assert kinds.count(KIND_LEASE) == 1
    assert "renew" in kinds
    assert KIND_EXPIRE not in kinds


# -- the service end to end (in process) ---------------------------------------

def _queue_kind_counts(fleet, kind):
    records, _ = journal.replay(fleet.queue_path)
    counts = {}
    for record in records:
        if record.get("kind") == kind:
            spec = record.get("spec")
            counts[spec] = counts.get(spec, 0) + 1
    return counts


def test_store_answers_skip_the_fleet_entirely(sweep_service):
    service = sweep_service()
    # Pre-populate the store: a finished sweep from any client, any time.
    spec = _spec()
    service.store.put(spec, spec.execute())
    outcome = service.client("warm").submit([spec])
    assert outcome.store_hits == 1
    assert outcome.leased == 0 and outcome.shared == 0
    assert outcome.sources[spec.content_hash] == "store"
    assert _as_dict(outcome.results[spec.content_hash]) == \
        _as_dict(spec.execute())
    # Nothing was ever enqueued: the fleet never heard of this spec.
    assert _queue_kind_counts(service.fleet, KIND_ENQUEUE) == {}


def test_submission_lines_beyond_asyncios_default_limit_work(sweep_service):
    """Regression: a batch past ~44 specs used to kill the handler.

    Without ``limit=`` the asyncio streams cap buffered lines at 64 KiB
    and ``readline`` raises, so the client saw a bare closed stream.
    The duplicates dedupe to one store-answered hash, keeping the test
    cheap while the submit line itself stays genuinely oversized.
    """
    from repro.serve.protocol import submit_message

    service = sweep_service()

    spec = _spec()
    service.store.put(spec, spec.execute())
    specs = [spec] * 1000
    assert len(submit_message(list(specs), "bulk")) > (64 << 10)
    outcome = service.client("bulk").submit(specs)
    assert outcome.store_hits == 1
    assert _as_dict(outcome.results[spec.content_hash]) == \
        _as_dict(spec.execute())


def test_over_limit_submission_is_refused_with_an_error(sweep_service):
    from repro.serve import ServeUnavailable

    svc = sweep_service(max_line=1024)
    with pytest.raises(ServeUnavailable) as excinfo:
        svc.client("hog").submit([_spec()] * 50)
    # A protocol error, not a bare "server closed the stream".
    assert "limit" in str(excinfo.value)


def test_resolved_failure_in_the_queue_wal_streams_not_hangs(sweep_service):
    """A hash whose ``failed`` record predates the subscription.

    ``enqueue`` skips it (already in the queue WAL) and the watcher has
    long consumed its resolution, so without snapshot adoption every
    subscriber would hang until the socket timeout.
    """
    from repro.exec.policy import FailedRun

    service = sweep_service()

    spec = _spec()
    service.fleet.enqueue({spec.content_hash: spec_payload(spec)})
    claim = service.fleet.claim("w1")
    service.fleet.mark_failed(FailedRun(
        spec_hash=claim.spec_hash, benchmark=spec.benchmark,
        mechanism=spec.mechanism, attempts=1, error="boom"), "w1")
    time.sleep(0.1)  # let the watcher pass the failed record

    outcome = service.client("late").submit([spec])
    assert outcome.failures[spec.content_hash].error == "boom"
    assert outcome.leased == 0 and outcome.shared == 1
    assert outcome.store_hits == 0


def test_pruned_store_entry_behind_a_done_record_is_requeued(sweep_service):
    """A ``done`` record whose store entry was pruned must re-simulate.

    The fleet's promise broke; the server requeues the spec instead of
    leaving subscribers waiting on a resolution that can never replay.
    """
    service = sweep_service()
    spec = _spec()
    service.fleet.enqueue({spec.content_hash: spec_payload(spec)})
    worker = Worker(service.fleet, service.store, "w1")
    assert worker.run_one()
    time.sleep(0.1)  # let the watcher pass the done record
    service.store.shard_path(spec.content_hash).unlink()

    service.start_worker("w2")
    outcome = service.client("late").submit([spec])
    assert _as_dict(outcome.results[spec.content_hash]) == \
        _as_dict(spec.execute())
    assert outcome.sources[spec.content_hash] == "simulated"
    assert outcome.leased == 1 and outcome.shared == 0
    assert outcome.store_hits == 0
    # The WAL tells the full story: requeue, then a second done record.
    records, _ = journal.replay(service.fleet.queue_path)
    kinds = [r["kind"] for r in records]
    assert "requeue" in kinds
    assert kinds.count(KIND_DONE) == 2
    # And the store's promise holds again.
    assert service.store.get(spec) is not None


def test_pending_fleet_spec_is_adopted_as_shared_work(sweep_service):
    """A hash already pending on the queue (no live subscription) is
    shared, not re-enqueued, and its eventual resolution streams."""
    service = sweep_service()
    spec = _spec()
    service.fleet.enqueue({spec.content_hash: spec_payload(spec)})

    outcomes = {}

    def submit():
        outcomes["late"] = service.client("late").submit([spec])

    thread = threading.Thread(target=submit)
    thread.start()
    deadline = time.monotonic() + 10.0
    while service.server.shared_total < 1:
        assert time.monotonic() < deadline, "submission never registered"
        assert thread.is_alive(), "client died before the worker started"
        time.sleep(0.01)
    service.start_worker("w1")
    thread.join(timeout=120.0)
    assert not thread.is_alive()

    outcome = outcomes["late"]
    assert _as_dict(outcome.results[spec.content_hash]) == \
        _as_dict(spec.execute())
    assert outcome.leased == 0 and outcome.shared == 1
    # Exactly one enqueue and one done record fleet-wide.
    assert _queue_kind_counts(service.fleet, KIND_ENQUEUE) == \
        {spec.content_hash: 1}
    assert _queue_kind_counts(service.fleet, KIND_DONE) == \
        {spec.content_hash: 1}


def test_two_clients_share_inflight_work_exactly_once(sweep_service):
    """The tentpole invariant: overlap is shared, never re-simulated.

    Both clients submit before any worker exists, so the overlap is
    deterministically in-flight (not a store hit); then one worker
    drains the union and every subscriber gets bit-identical results.
    """
    service = sweep_service()
    specs_a = [_spec("Base"), _spec("TP"), _spec("VC")]
    specs_b = [_spec("TP"), _spec("VC"), _spec("SP")]
    overlap = 2
    union = {s.content_hash: s for s in specs_a + specs_b}

    outcomes = {}

    def submit(name, specs):
        outcomes[name] = service.client(name).submit(specs)

    thread_a = threading.Thread(target=submit, args=("a", specs_a))
    thread_a.start()
    # Client b subscribes only after a's reservation is fully in place,
    # so its accounting is deterministic: the overlap is in-flight.
    deadline = time.monotonic() + 10.0
    while len(service.fleet.snapshot().enqueued) < len(specs_a):
        assert time.monotonic() < deadline, "client a never enqueued"
        time.sleep(0.01)
    thread_b = threading.Thread(target=submit, args=("b", specs_b))
    thread_b.start()
    while len(service.fleet.snapshot().enqueued) < len(union):
        assert time.monotonic() < deadline, "client b never enqueued"
        time.sleep(0.01)

    service.start_worker("w1")
    thread_a.join(timeout=120.0)
    thread_b.join(timeout=120.0)
    assert not thread_a.is_alive() and not thread_b.is_alive()

    a, b = outcomes["a"], outcomes["b"]
    assert a.leased == 3 and a.shared == 0 and a.store_hits == 0
    assert b.leased == 1 and b.shared == overlap and b.store_hits == 0

    # Exactly-once, as WAL facts: one enqueue, one lease, one done per
    # unique hash across both submissions.
    assert _queue_kind_counts(service.fleet, KIND_ENQUEUE) == \
        {h: 1 for h in union}
    assert _queue_kind_counts(service.fleet, KIND_DONE) == \
        {h: 1 for h in union}
    lease_records, _ = journal.replay(service.fleet.lease_path)
    leases = [r["spec"] for r in lease_records if r["kind"] == KIND_LEASE]
    assert sorted(leases) == sorted(union)

    # Every client got every spec it asked for, bit-identical to a
    # local serial execution of the same spec.
    for name, specs in (("a", specs_a), ("b", specs_b)):
        outcome = outcomes[name]
        for spec in specs:
            remote = outcome.results[spec.content_hash]
            assert _as_dict(remote) == _as_dict(spec.execute()), \
                f"client {name}: {spec.mechanism} result drifted"

    # The shared results both clients saw are the same object value.
    for spec in specs_b[:overlap]:
        assert _as_dict(a.results[spec.content_hash]) == \
            _as_dict(b.results[spec.content_hash])

    # The server's lifetime accounting agrees with the clients'.
    assert service.server.leased_total == 4
    assert service.server.shared_total == overlap
    # And the store now holds the union, fsck-clean.
    report = service.store.fsck()
    assert report.scanned == len(union) and report.clean


def test_concurrent_submissions_keep_exact_lifetime_totals(sweep_service):
    """More submitting threads than cores, switching often: every
    submission completes, and no lifetime total loses an update."""
    service = sweep_service()
    specs = [_spec("Base"), _spec("TP"), _spec("VC")]
    for spec in specs:
        service.store.put(spec, spec.execute())
    outcomes = []

    def submit(name):
        client = service.client(name)
        for _ in range(5):
            outcomes.append(client.submit(specs))

    threads = [threading.Thread(target=submit, args=(f"c{i}",))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(outcomes) == 8 * 5
    assert all(outcome.store_hits == len(specs)
               and len(outcome.results) == len(specs)
               for outcome in outcomes)
    assert service.server.store_total == 8 * 5 * len(specs)


# -- executor integration ------------------------------------------------------

def test_summary_line_renders_lease_parts_only_when_nonzero():
    telemetry = Telemetry()
    telemetry.record(RunRecord("h1", "swim", "TP", "simulated", 0.25))
    telemetry.record_batch(1, 1, 0.5)
    clean = telemetry.summary_line()
    # The clean line is byte-identical to what it always was.
    assert clean == ("executor: 1 results, 1 simulated, 0 cache hits "
                     "(0 memo, 0 store, 0 deduped), wall 0.50s, "
                     "avg 0.250s/sim")
    telemetry.leased = 3
    telemetry.shared = 2
    assert telemetry.summary_line() == clean + ", 3 leased, 2 shared"


# -- chaos: the convergence proof (subprocess) ---------------------------------

def _cli_env(tmp_path, cache, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    env["REPRO_LEDGER"] = str(tmp_path / "ledger.json")
    env["REPRO_CACHE_DIR"] = str(tmp_path / cache)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


_FIG10_ARGS = ("fig10", "--n", "2000", "--benchmarks", "swim", "--jobs", "1")

#: Pinned: with seed=7 at rate 0.5 at least one of the fig10/swim spec
#: hashes draws an injected worker kill on its first lease; the
#: reclaimed lease (count 2) never consults the schedule, so the fleet
#: provably converges after the TTL.
_KILL_SPEC = "kill-worker:0.5,seed=7"


def test_cli_serve_kill_worker_chaos_converges_bit_identically(tmp_path):
    serial = subprocess.run(
        [sys.executable, "-m", "repro", *_FIG10_ARGS],
        capture_output=True, text=True,
        env=_cli_env(tmp_path, "cache-serial"), cwd=REPO, timeout=600,
    )
    assert serial.returncode == 0, serial.stderr

    env = _cli_env(tmp_path, "cache-fleet")
    cache = env["REPRO_CACHE_DIR"]
    socket_path = str(tmp_path / "serve.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "server",
         "--socket", socket_path],
        env=env, cwd=REPO, stderr=subprocess.PIPE, text=True,
    )
    fleet_proc = None
    try:
        deadline = time.monotonic() + 30.0
        while not Path(socket_path).exists():
            assert server.poll() is None, "server died during startup"
            assert time.monotonic() < deadline, "server never listened"
            time.sleep(0.05)

        # Only the workers live under the chaos plan: the injected kill
        # is a worker death, not a client or server fault.
        fleet_proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "fleet", "--workers", "2",
             "--drain", "--ttl", "2", "--idle-timeout", "60"],
            env=_cli_env(tmp_path, "cache-fleet", faults=_KILL_SPEC),
            cwd=REPO, stderr=subprocess.PIPE, text=True,
        )

        clients = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", *_FIG10_ARGS,
                 "--serve", socket_path],
                env=_cli_env(tmp_path, "cache-fleet"), cwd=REPO,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [proc.communicate(timeout=600) for proc in clients]
        for proc, (out, err) in zip(clients, outs):
            assert proc.returncode == 0, err
            # Byte-identical to the serial single-process run: the
            # fleet is unobservable in the exhibit's stdout.
            assert out == serial.stdout
        fleet_out, fleet_err = fleet_proc.communicate(timeout=120)
        assert fleet_proc.returncode == 0, fleet_err

        # Chaos actually fired and was survived, not skipped.
        assert "injected worker kill" in fleet_err
        assert "respawning" in fleet_err

        # Exactly-once even under chaos: one done record per spec.
        fleet = Fleet(Path(cache) / "serve")
        done = _queue_kind_counts(fleet, KIND_DONE)
        assert done and all(count == 1 for count in done.values())
        assert fleet.snapshot().drained

        # The shared store passes the full integrity check.
        fsck = subprocess.run(
            [sys.executable, "-m", "repro.exec", "fsck",
             "--cache-dir", cache],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
        )
        assert fsck.returncode == 0, fsck.stdout + fsck.stderr
    finally:
        if fleet_proc is not None and fleet_proc.poll() is None:
            fleet_proc.kill()
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


def test_sigint_stops_a_server_holding_a_live_submission(tmp_path):
    """A stopped server never waits on a live submission: with one
    held open by a fleet that never comes, SIGINT still exits at once,
    with the lifetime totals line."""
    from repro.serve import ServeUnavailable, SweepClient

    env = _cli_env(tmp_path, "cache")
    socket_path = str(tmp_path / "serve.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "server",
         "--socket", socket_path],
        env=env, cwd=REPO, stderr=subprocess.PIPE, text=True,
    )
    box = {}

    def submit():
        try:
            SweepClient(socket_path, "held").submit([_spec()])
        except ServeUnavailable as exc:
            box["error"] = exc

    client = threading.Thread(target=submit)
    try:
        deadline = time.monotonic() + 30.0
        while not Path(socket_path).exists():
            assert server.poll() is None, "server died during startup"
            assert time.monotonic() < deadline, "server never listened"
            time.sleep(0.05)
        client.start()
        fleet = Fleet(Path(env["REPRO_CACHE_DIR"]) / "serve")
        while not fleet.snapshot().enqueued:
            assert time.monotonic() < deadline, "submission never enqueued"
            time.sleep(0.05)
        server.send_signal(signal.SIGINT)
        _, err = server.communicate(timeout=5.0)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    client.join(timeout=10.0)
    assert server.returncode == 0, err
    assert "serve: shutting down (1 leased," in err
    # The held submission ends with the server, not with a result.
    assert "error" in box


# -- sharded store ----------------------------------------------------------------

def test_store_shards_entries_and_a_root_entry_is_misfiled(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    spec = _spec()
    store.put(spec, spec.execute())
    sharded = store.shard_path(spec.content_hash)
    assert sharded.exists()
    assert sharded.parent.name == spec.content_hash[:2]
    # An entry at the store root (the pre-shard layout) is never read:
    # a plain miss for get, a misfiled-entry defect for fsck.
    root_spec = _spec("VC")
    store.put(root_spec, root_spec.execute())
    at_root = store.root / f"{root_spec.content_hash}.json"
    os.replace(store.shard_path(root_spec.content_hash), at_root)
    assert store.get(root_spec) is None and store.corrupt_reads == 0
    assert len(store) == 1
    assert "misfiled" in store.verify_entry(at_root)

    report = store.fsck()
    assert report.scanned == 2 and report.ok == 1
    assert "store root" in dict(report.problems)[at_root.name]
    assert store.fsck(prune=True).pruned == [at_root.name]
    assert not at_root.exists() and store.fsck().clean


def test_fsck_migrate_is_plain_fsck(tmp_path, capsys):
    from repro.exec.__main__ import main

    store = ResultStore(tmp_path / "cache")
    spec = _spec()
    store.put(spec, spec.execute())
    at_root = store.root / f"{spec.content_hash}.json"
    at_root.write_bytes(store.shard_path(spec.content_hash).read_bytes())
    fsck = ["fsck", "--cache-dir", str(store.root)]

    for extra in ([], ["--migrate"]):
        assert main(fsck + extra) == 1
        assert "misfiled" in capsys.readouterr().out
        assert at_root.exists()
    assert main(fsck + ["--migrate", "--prune"]) == 0
    assert not at_root.exists()
    for extra in ([], ["--migrate"]):
        assert main(fsck + extra) == 0
        assert "store is clean" in capsys.readouterr().out


def test_misfiled_shard_entry_is_a_defect(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = _spec()
    store.put(spec, spec.execute())
    good = store.shard_path(spec.content_hash)
    wrong_shard = store.root / ("00" if spec.content_hash[:2] != "00"
                                else "ff")
    wrong_shard.mkdir(parents=True, exist_ok=True)
    misfiled = wrong_shard / good.name
    misfiled.write_bytes(good.read_bytes())
    problem = store.verify_entry(misfiled)
    assert problem is not None and "misfiled" in problem
    report = store.fsck(prune=True)
    assert any("misfiled" in why for _name, why in report.problems)
    assert not misfiled.exists()
    assert good.exists()
