"""A WAL-backed work queue and lease book shared by worker processes.

Everything N independent worker processes need to coordinate lives in
two logs plus one lock file under one directory.  ``--jobs N`` runs its
batch on the sweep's own queue, ``<cache>/journal/<sweep_id[:16]>/``
(a temporary directory when there is no result store; see
:meth:`repro.exec.executor.Executor._simulate_fleet`); the sweep
service (:mod:`repro.serve`) keeps a long-lived one under
``<cache>/serve/``, shared by any hosts that share the cache directory.
The logs are in the tree's one JSON-lines format
(:mod:`repro.exec.journal`: fsync'd appends rolled back on failure,
replay that skips unreadable lines):

``queue.jsonl``
    The work itself.  ``enqueue`` records carry the full spec payload
    (the :meth:`~repro.exec.runspec.RunSpec.describe` dict, hash-
    verified on read) and optionally a ``deadline``; ``done``/``failed``
    records resolve a spec; a ``requeue`` record re-opens a resolved
    spec that must run again (its promised store entry has gone
    missing, or a failure is being retried); a ``quarantine`` record
    resolves a poison spec fleet-wide (see below); an ``expired``
    record resolves a spec whose deadline passed before any worker
    could start it.  The submitter (a sweep's driver, or the server)
    appends ``enqueue``/``requeue``/``expired``, plus the resolutions
    it serves without a worker and a sweep driver's ``interrupted``;
    workers append ``done``/``failed``; whichever claimant trips the
    lease bound appends ``quarantine``; the submitter tails the file
    with :meth:`Fleet.tail` to learn of resolutions.  Replay is
    last-record-wins per spec.

``leases.jsonl``
    Who is working on what.  ``lease`` records carry the worker id, a
    monotonically increasing per-spec lease ``count`` and a wall-clock
    ``expires`` deadline; ``renew`` extends a live lease (appended by
    the worker's heartbeat thread while it simulates) and ``release``
    ends one deliberately, both honoured only from the lease's own
    holder; ``expire`` records a reclaim.  Replay is last-record-wins
    per spec.  A sweep's lease book lives for one run of its driver.

``fleet.lock``
    An advisory ``flock`` serialising every read-decide-append
    transaction (claiming, enqueueing, resolving).  The lock is held
    only for the transaction — never across a simulation — and a
    killed holder releases it with its file handle, so a dead worker
    can never wedge the fleet.

The claim protocol is what makes ``kill-worker`` chaos provably
converge: a worker's lease record is fsync'd *before* it starts
simulating, so a worker killed at any point leaves either (a) no
lease — the spec is simply free — or (b) a live lease.  A supervisor
that sees the death (:class:`repro.exec.worker.Supervisor`) releases
that lease at once; otherwise it expires after its TTL.  Either way
the next claimant leases the spec with ``count + 1``.  The injected
kill (``kill-worker`` in :mod:`repro.exec.faults`) fires only on a
spec's first lease, so the reclaimed lease always runs to completion —
the same one-shot schedule shape that makes ``kill-orchestrator``
resume loops terminate.

**Poison quarantine** closes the hole that one-shot schedules leave
open in real life: a spec that *deterministically* kills every worker
that leases it (a simulator bug, a pathological configuration) would
crash-loop the fleet forever — lease, die, release, reclaim, die, … .
The lease book already counts every lease a spec has ever burned, so
the claim transaction enforces a bound: a claimant that would grant a
lease past ``max_leases`` (derived from
:attr:`repro.exec.policy.RetryPolicy.max_leases` — one more than the
retry budget, so a single arbitrary worker death never trips it)
instead appends a durable ``quarantine`` record resolving the spec
fleet-wide as a ``FailedRun(kind="poison")`` hole.  Subscribers get the
hole streamed like any failure; the fleet moves on; the spec runs again
only after an explicit ``quarantine clear`` (a ``requeue`` plus a lease
``reset`` so its count restarts from zero).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, ContextManager, Dict, Iterable, List, Mapping, Optional,
    Set, Tuple, Union,
)

from repro.exec import journal
from repro.exec.faults import fires
from repro.exec.journal import (
    KIND_DONE,
    KIND_ENQUEUE,
    KIND_FAILED,
    KIND_REQUEUE,
)
from repro.exec.policy import FailedRun, RetryPolicy

#: Default lease TTL in seconds.  Workers renew their lease from a
#: heartbeat thread at half the TTL while a simulation runs, so the TTL
#: bounds how long a *dead* worker's spec stays unclaimable, not how
#: long a simulation may take.  It still must comfortably exceed one
#: renew interval under load: a lease that lapses mid-simulation gets
#: the spec re-leased and simulated twice (results are identical —
#: specs are pure — but the dedupe guarantee is per *healthy* fleet).
DEFAULT_LEASE_TTL = 60.0

KIND_QUARANTINE = "quarantine"
KIND_EXPIRED = "expired"
KIND_LEASE = "lease"
KIND_RENEW = "renew"
KIND_RELEASE = "release"
KIND_EXPIRE = "expire"
KIND_RESET = "reset"


@dataclass(frozen=True)
class Claim:
    """One successful claim: the spec to run and its lease pedigree."""

    spec_hash: str
    payload: Dict[str, Any]
    lease_count: int
    expires: float
    #: Absolute wall-clock deadline the submission travelled with, or
    #: None.  The worker checks it *before* simulating; a spec claimed
    #: in time may legitimately finish after it.
    deadline: Optional[float] = None


#: Queue kinds that resolve a spec as a FailedRun hole.
FAILURE_KINDS = (KIND_FAILED, KIND_QUARANTINE, KIND_EXPIRED)


@dataclass(frozen=True)
class Resolution:
    """How one awaited spec resolved, as :meth:`Fleet.tail` read it."""

    spec_hash: str
    #: The resolving queue record: a ``done`` (with the worker's
    #: ``seconds`` and cost counters) or one of :data:`FAILURE_KINDS`
    #: (with its ``failure`` payload).
    record: Dict[str, Any]
    #: What the caller's reader returned for a ``done``; None for a hole.
    result: Any = None


@dataclass
class FleetSnapshot:
    """What the replayed WALs say about the fleet right now."""

    #: spec hash -> enqueue payload, in enqueue order (insertion-ordered).
    enqueued: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: spec hash -> the ``done`` record that resolved it.
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: spec hash -> the persisted FailedRun of a spec resolved as a hole.
    failures: Dict[str, FailedRun] = field(default_factory=dict)
    #: spec hash -> (worker, count, expires) for live leases.
    leases: Dict[str, Tuple[str, int, float]] = field(default_factory=dict)
    #: spec hash -> total leases ever granted (feeds the next count).
    lease_counts: Dict[str, int] = field(default_factory=dict)
    #: Hashes resolved by a durable ``quarantine`` record (their
    #: FailedRun also sits in :attr:`failures`, kind ``poison``).
    quarantined: Set[str] = field(default_factory=set)
    #: Hashes resolved by a deadline-``expired`` record (their
    #: FailedRun also sits in :attr:`failures`, kind ``timeout``).
    expired: Set[str] = field(default_factory=set)
    #: spec hash -> absolute deadline its submission travelled with.
    deadlines: Dict[str, float] = field(default_factory=dict)
    #: Lines skipped as unreadable (torn writes, bit rot, newer
    #: versions) plus failure records whose payload would not load.
    corrupt_lines: int = 0
    #: Queue lines read or skipped (a sweep driver's append sequence
    #: continues from here).
    lines: int = 0

    def pending(self) -> List[str]:
        """Unresolved spec hashes, in enqueue order."""
        return [spec for spec in self.enqueued
                if spec not in self.done and spec not in self.failures]

    @property
    def drained(self) -> bool:
        """Every enqueued spec resolved and no lease still live."""
        return not self.pending() and not self.leases


def _append(path: Path, kind: str, tear: Optional[str] = None,
            **fields: Any) -> None:
    """Durably append one fleet-WAL record.

    The append's own lock covers one line; every mutator below also
    holds ``fleet.lock`` across its read-decide-append transaction.
    """
    journal.append_record(path, journal.versioned(kind, **fields), tear)


class Fleet:
    """Transactions over the queue and lease book, under ``fleet.lock``."""

    def __init__(
        self,
        root: Union[str, Path],
        ttl: float = DEFAULT_LEASE_TTL,
        max_leases: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        self.ttl = float(ttl)
        #: Leases a spec may burn before the claim transaction
        #: quarantines it as poison.  Defaults to the retry policy's
        #: derivation (one more than the attempt budget).
        self.max_leases = (RetryPolicy().max_leases
                           if max_leases is None else int(max_leases))
        self.queue_path = self.root / "queue.jsonl"
        self.lease_path = self.root / "leases.jsonl"
        self.lock_path = self.root / "fleet.lock"

    # -- locking --------------------------------------------------------------

    def _locked(self) -> ContextManager[int]:
        return journal.locked(self.lock_path)

    # -- state ----------------------------------------------------------------

    def snapshot(self) -> FleetSnapshot:
        """Replay both WALs into one consistent view.

        Callers that go on to append based on what they see must hold
        the lock around snapshot *and* append (every mutator below
        does); a bare snapshot is for observers (progress, tests,
        drain checks) and may be momentarily stale.
        """
        queue_records, queue_skipped = journal.replay(self.queue_path)
        leases, lease_counts, lease_skipped = self._replay_leases()
        snap = FleetSnapshot(
            corrupt_lines=len(queue_skipped) + lease_skipped,
            lines=len(queue_records) + len(queue_skipped),
            leases=leases, lease_counts=lease_counts)
        for record in queue_records:
            kind = record.get("kind")
            spec = record.get("spec", "")
            if not spec:
                continue
            if kind == KIND_ENQUEUE:
                payload = record.get("payload")
                if isinstance(payload, dict):
                    snap.enqueued.setdefault(spec, payload)
                    deadline = record.get("deadline")
                    if isinstance(deadline, (int, float)):
                        snap.deadlines.setdefault(spec, float(deadline))
                continue
            failure: Optional[FailedRun] = None
            if kind in FAILURE_KINDS:
                payload = record.get("failure")
                if not isinstance(payload, dict):
                    continue
                try:
                    failure = FailedRun.from_dict(payload)
                except TypeError:
                    snap.corrupt_lines += 1
                    continue
            elif kind not in (KIND_DONE, KIND_REQUEUE):
                continue
            # Last record wins: this one supersedes whatever resolved
            # the spec before it.
            snap.done.pop(spec, None)
            snap.failures.pop(spec, None)
            snap.quarantined.discard(spec)
            snap.expired.discard(spec)
            if kind == KIND_DONE:
                snap.done[spec] = record
            elif failure is not None:
                snap.failures[spec] = failure
                if kind == KIND_QUARANTINE:
                    snap.quarantined.add(spec)
                elif kind == KIND_EXPIRED:
                    snap.expired.add(spec)
            else:
                # A requeue leaves the spec pending (and claimable)
                # again.  Requeued work carries no deadline — the
                # original one already had its chance to expire it.
                payload = record.get("payload")
                if isinstance(payload, dict):
                    snap.enqueued.setdefault(spec, payload)
                snap.deadlines.pop(spec, None)
        return snap

    def _replay_leases(
        self,
    ) -> Tuple[Dict[str, Tuple[str, int, float]], Dict[str, int], int]:
        """Replay the lease book alone: live leases, lease counts, and
        the number of unreadable lines."""
        records, skipped = journal.replay(self.lease_path)
        leases: Dict[str, Tuple[str, int, float]] = {}
        counts: Dict[str, int] = {}
        for record in records:
            kind = record.get("kind")
            spec = record.get("spec", "")
            if not spec:
                continue
            if kind == KIND_LEASE:
                count = int(record.get("count", 1))
                leases[spec] = (str(record.get("worker", "")), count,
                                float(record.get("expires", 0.0)))
                counts[spec] = max(counts.get(spec, 0), count)
            elif kind in (KIND_RENEW, KIND_RELEASE) and spec in leases:
                # Only the lease's own holder can extend or end it: a
                # stale heartbeat or release from a worker that lost
                # the lease must not touch the reclaimant's.
                worker, count, _old = leases[spec]
                if str(record.get("worker", "")) != worker:
                    continue
                if kind == KIND_RENEW:
                    leases[spec] = (worker, count,
                                    float(record.get("expires", 0.0)))
                else:
                    del leases[spec]
            elif kind == KIND_EXPIRE:
                leases.pop(spec, None)
            elif kind == KIND_RESET:
                # ``quarantine clear`` absolution: the spec's lease
                # pedigree restarts from zero so the cleared run gets a
                # full budget again.
                leases.pop(spec, None)
                counts.pop(spec, None)
        return leases, counts, len(skipped)

    def _release_if_held(self, spec_hash: str, worker: str) -> bool:
        """Append ``worker``'s release of its lease on ``spec_hash``, if
        it still holds one (caller holds the lock)."""
        lease = self._replay_leases()[0].get(spec_hash)
        if lease is None or lease[0] != worker:
            return False
        _append(self.lease_path, KIND_RELEASE, spec=spec_hash, worker=worker)
        return True

    def tail(
        self,
        offset: int,
        awaited: Mapping[str, Dict[str, Any]],
        read: Callable[[str], Any],
    ) -> Tuple[List[Resolution], int]:
        """Resolutions of ``awaited`` specs appended past byte ``offset``.

        The one way a submitter waits on the fleet: the ``--jobs N``
        driver and every sweep-server submission poll this.
        ``awaited`` maps each hash the caller still waits on to its
        payload.  A ``done`` resolves only when ``read(spec_hash)``
        returns the result it promised; one that reads None is a broken
        promise, not a verdict, so :meth:`requeue` reopens the spec and
        the fleet simulates it afresh (the quarantine bound caps how
        often a rotting entry can recycle).  A failure record resolves
        its spec as a hole.  Each hash resolves at most once per call;
        the caller drops resolved hashes from ``awaited``.  Returns the
        resolutions in queue order and the offset to tail from next.
        """
        records, offset = journal.read_tail(self.queue_path, offset)
        resolved: List[Resolution] = []
        seen: Set[str] = set()
        for record in records:
            spec = str(record.get("spec", ""))
            if spec not in awaited or spec in seen:
                continue
            kind = record.get("kind")
            result = None
            if kind == KIND_DONE:
                result = read(spec)
                if result is None:
                    self.requeue({spec: awaited[spec]})
                    continue
            elif (kind not in FAILURE_KINDS
                  or not isinstance(record.get("failure"), dict)):
                continue
            seen.add(spec)
            resolved.append(Resolution(spec, record, result))
        return resolved, offset

    # -- transactions ----------------------------------------------------------

    def enqueue(self, payloads: Dict[str, Dict[str, Any]],
                deadline: Optional[float] = None) -> List[str]:
        """Add specs to the queue; returns the hashes actually appended.

        ``payloads`` maps content hash to describe-payload.  Hashes
        already enqueued (resolved or not) are skipped — the queue is a
        set with an order, and re-submitting shared work must not grow
        it.  Callers must treat a skipped hash as already owned by the
        fleet and consult a snapshot for its fate: it may be pending
        (a worker will resolve it), or already resolved (no worker will
        touch it again — see :meth:`requeue` for re-opening one whose
        promised result has gone missing).

        ``deadline`` (absolute wall-clock seconds) travels with each
        appended record; pending work past it resolves as a
        ``kind="timeout"`` hole instead of being simulated.
        """
        appended: List[str] = []
        with self._locked():
            snap = self.snapshot()
            for spec, payload in payloads.items():
                if spec in snap.enqueued:
                    continue
                if deadline is None:
                    _append(self.queue_path, KIND_ENQUEUE, spec=spec,
                            payload=payload)
                else:
                    _append(self.queue_path, KIND_ENQUEUE, spec=spec,
                            payload=payload, deadline=deadline)
                appended.append(spec)
        return appended

    def requeue(self, payloads: Dict[str, Dict[str, Any]]) -> List[str]:
        """Re-open resolved specs; returns the hashes actually reopened.

        A ``done`` record promises the result is re-readable from the
        store.  When that promise breaks (the entry was pruned or
        rotted), the spec must run again — but resolved specs are never
        pending, so a plain :meth:`enqueue` cannot revive them.  A
        ``requeue`` record erases the spec's resolution on replay and
        (re)carries its payload, making it claimable afresh.  Specs
        that are already pending are skipped — re-opening in-flight
        work would double-simulate it.
        """
        reopened: List[str] = []
        with self._locked():
            snap = self.snapshot()
            pending = set(snap.pending())
            for spec, payload in payloads.items():
                if spec in pending:
                    continue
                _append(self.queue_path, KIND_REQUEUE,
                        spec=spec, payload=payload)
                reopened.append(spec)
        return reopened

    def claim(self, worker: str) -> Optional[Claim]:
        """Lease the first free pending spec to ``worker``; None if none.

        One transaction under the lock: replay, reclaim every expired
        lease (``expire`` records make the reclaim durable and
        auditable), then lease the first pending spec that is neither
        resolved nor still validly leased.  The lease record is fsync'd
        before the lock is released, so by the time the worker starts
        simulating, every other fleet member can see who owns the spec
        and until when.

        The claim transaction is also where the fleet's two safety
        bounds bite, because every claimant passes through it:

        * a pending spec whose submission **deadline** has passed is
          resolved as a ``kind="timeout"`` hole (``expired`` record)
          instead of being leased — work nobody wants anymore is never
          simulated;
        * a pending spec that would burn a lease past
          :attr:`max_leases` is resolved as a ``kind="poison"`` hole
          (durable ``quarantine`` record) — a spec that kills every
          worker that touches it crash-loops into the bound, not
          forever.
        """
        with self._locked():
            snap = self.snapshot()
            now = time.time()
            for spec, (_owner, count, expires) in list(snap.leases.items()):
                if expires <= now:
                    _append(self.lease_path, KIND_EXPIRE,
                            spec=spec, count=count)
                    del snap.leases[spec]
            for spec in snap.pending():
                if spec in snap.leases:
                    continue
                deadline = snap.deadlines.get(spec)
                if deadline is not None and deadline <= now:
                    self._append_expired(snap, spec)
                    continue
                count = snap.lease_counts.get(spec, 0) + 1
                if count > self.max_leases:
                    self._append_quarantine(snap, spec, count - 1)
                    continue
                expires = now + self.ttl
                _append(self.lease_path, KIND_LEASE, spec=spec,
                        worker=worker, count=count, expires=expires)
                return Claim(
                    spec_hash=spec,
                    payload=snap.enqueued[spec],
                    lease_count=count,
                    expires=expires,
                    deadline=deadline,
                )
        return None

    def _append_expired(self, snap: FleetSnapshot, spec: str) -> FailedRun:
        """Resolve one past-deadline spec (caller holds the lock)."""
        payload = snap.enqueued.get(spec, {})
        failure = FailedRun(
            spec_hash=spec,
            benchmark=str(payload.get("benchmark", "?")),
            mechanism=str(payload.get("mechanism", "?")),
            attempts=snap.lease_counts.get(spec, 0),
            error="submission deadline passed before a worker could "
                  "start this spec",
            kind="timeout",
        )
        _append(self.queue_path, KIND_EXPIRED, spec=spec,
                failure=failure.describe())
        return failure

    def _append_quarantine(self, snap: FleetSnapshot, spec: str,
                           burned: int) -> FailedRun:
        """Quarantine one crash-looping spec (caller holds the lock)."""
        payload = snap.enqueued.get(spec, {})
        failure = FailedRun(
            spec_hash=spec,
            benchmark=str(payload.get("benchmark", "?")),
            mechanism=str(payload.get("mechanism", "?")),
            attempts=burned,
            error=f"quarantined: {burned} consecutive leases died without "
                  "resolving this spec (crash loop); re-attempt with "
                  "--retry-failed or `quarantine clear`",
            kind="poison",
        )
        _append(self.queue_path, KIND_QUARANTINE, spec=spec,
                failure=failure.describe())
        return failure

    def renew(self, spec_hash: str, worker: str) -> Optional[float]:
        """Extend ``worker``'s live lease on ``spec_hash``.

        Returns the new deadline, or ``None`` when ``worker`` no longer
        holds the lease (it lapsed and was reclaimed, or was released).
        The ownership check runs under the lock so a stale heartbeat
        can never append a renew record against the reclaimant's lease;
        replay enforces the same rule for records already on disk.
        """
        with self._locked():
            snap = self.snapshot()
            lease = snap.leases.get(spec_hash)
            if lease is None or lease[0] != worker:
                return None
            deadline = snap.deadlines.get(spec_hash)
            if deadline is not None and deadline <= time.time():
                # Renewal respects the submission deadline: a worker
                # still heartbeating past it gets no extension — the
                # lease lapses on schedule and the next claimant
                # resolves the spec as expired.
                return None
            expires = time.time() + self.ttl
            _append(self.lease_path, KIND_RENEW, spec=spec_hash,
                    worker=worker, expires=expires)
        return expires

    def release(self, spec_hash: str, worker: str) -> bool:
        """End ``worker``'s lease without resolving the spec.

        The clean way out of a failed *write* (a full disk, say): the
        simulation succeeded but neither store entry nor ``done``
        record could land, so the spec must go back on the market — now,
        not after a TTL lapse.  Only the holder's release counts: one
        from a worker whose lease lapsed and was reclaimed appends
        nothing and returns False.
        """
        with self._locked():
            return self._release_if_held(spec_hash, worker)

    def release_worker(self, worker: str) -> List[str]:
        """Release every live lease ``worker`` holds; returns the hashes.

        The supervisor calls this when a worker process dies: its specs
        go back on the market at once instead of after a TTL lapse.
        """
        with self._locked():
            leases = self._replay_leases()[0]
            held = [spec for spec, (owner, _count, _expires)
                    in leases.items() if owner == worker]
            for spec in held:
                _append(self.lease_path, KIND_RELEASE, spec=spec,
                        worker=worker)
        return held

    def mark_done(self, spec_hash: str, worker: str, seconds: float,
                  lease_count: int = 0,
                  counters: Optional[Dict[str, int]] = None) -> None:
        """Resolve a spec: durably record completion, release the lease.

        The caller stores the result **first**: a ``done`` record
        promises the result is re-readable from the store, so the
        promise must land last.

        ``lease_count`` opts the ``done`` append into the one-shot
        ``disk-full`` chaos schedule (first lease only); the append
        fails clean (no torn record) and the caller releases the lease
        for a prompt reclaim.  ``counters`` (retries, timeouts,
        checkpoints, ...) ride along on the record for the submitter's
        telemetry.
        """
        with self._locked():
            full = fires("disk-full", f"done:{spec_hash}", lease_count)
            _append(self.queue_path, KIND_DONE,
                    "disk-full" if full else None, spec=spec_hash,
                    worker=worker, seconds=round(seconds, 6),
                    **(counters or {}))
            self._release_if_held(spec_hash, worker)

    def mark_failed(self, failure: FailedRun, worker: str,
                    counters: Optional[Dict[str, int]] = None) -> None:
        """Resolve a spec as failed; subscribers receive the hole."""
        with self._locked():
            _append(self.queue_path, KIND_FAILED, spec=failure.spec_hash,
                    failure=failure.describe(), **(counters or {}))
            self._release_if_held(failure.spec_hash, worker)

    def mark_expired(self, spec_hash: str, worker: str) -> Optional[FailedRun]:
        """Resolve a claimed spec whose deadline passed before it ran.

        The worker's half of deadline propagation: it checks the
        deadline *after* claiming but *before* simulating, and hands
        the spec back as a ``kind="timeout"`` hole.  Returns the
        failure, or None when the spec was already resolved.
        """
        with self._locked():
            snap = self.snapshot()
            failure = None
            if spec_hash in snap.pending():
                failure = self._append_expired(snap, spec_hash)
            lease = snap.leases.get(spec_hash)
            if lease is not None and lease[0] == worker:
                _append(self.lease_path, KIND_RELEASE, spec=spec_hash,
                        worker=worker)
        return failure

    def expire_deadlines(self, now: Optional[float] = None) -> List[str]:
        """Resolve every pending, unleased spec whose deadline passed.

        The server's half of deadline propagation: a submission's
        handler calls it once its deadline has passed, so undispatched
        work expires even when no worker ever shows up to trip the
        check in :meth:`claim`.  Returns the hashes expired.
        """
        expired: List[str] = []
        with self._locked():
            snap = self.snapshot()
            moment = time.time() if now is None else now
            for spec in snap.pending():
                if spec in snap.leases:
                    continue
                deadline = snap.deadlines.get(spec)
                if deadline is not None and deadline <= moment:
                    self._append_expired(snap, spec)
                    expired.append(spec)
        return expired

    def clear_quarantine(
        self, hashes: Optional[Iterable[str]] = None
    ) -> List[str]:
        """Re-open quarantined specs with a fresh lease budget.

        Appends a ``requeue`` (erasing the poison resolution) plus a
        lease ``reset`` (restarting the spec's lease count from zero)
        for each quarantined hash — without the reset, the very next
        claim would re-trip the quarantine bound.  ``hashes`` limits
        the clear; None clears everything quarantined.  Returns the
        hashes cleared.
        """
        cleared: List[str] = []
        with self._locked():
            snap = self.snapshot()
            targets = snap.quarantined if hashes is None else (
                set(hashes) & snap.quarantined)
            for spec in sorted(targets):
                payload = snap.enqueued.get(spec)
                if payload is None:
                    continue
                _append(self.queue_path, KIND_REQUEUE,
                        spec=spec, payload=payload)
                _append(self.lease_path, KIND_RESET, spec=spec)
                cleared.append(spec)
        return cleared

    def absolve(self, spec_hash: str) -> bool:
        """Retire a quarantine record whose spec later completed.

        fsck's ``--prune`` repair: when a quarantined hash has a sound
        store entry after all (cleared and re-run through another
        journal, or hand-repaired), the poison verdict is stale.  A
        ``done`` record supersedes it — the promise it makes (the
        result is re-readable) is exactly what fsck just verified — and
        a lease ``reset`` retires the crash-loop pedigree.
        """
        with self._locked():
            snap = self.snapshot()
            if spec_hash not in snap.quarantined:
                return False
            _append(self.queue_path, KIND_DONE, spec=spec_hash,
                    worker="fsck", seconds=0.0)
            _append(self.lease_path, KIND_RESET, spec=spec_hash)
        return True
