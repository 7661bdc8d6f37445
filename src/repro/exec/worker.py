"""Fleet workers and the supervisor that forks them.

A :class:`Worker` is deliberately almost stateless: its whole contract
with the rest of the fleet is the lease book.  Per iteration it claims
the first free pending spec (:meth:`~repro.exec.fleet.Fleet.claim` —
the lease is durable before the claim returns), re-materialises the
spec from the payload the queue carries (hash-verified, so a corrupted
queue record can never run as the wrong spec), runs the executor's
attempt loop (:func:`repro.exec.executor.run_attempts`) while a
heartbeat thread renews the lease at half the TTL (:class:`_LeaseRenewer`
— a simulation slower than the TTL must not get its spec reclaimed and
run twice), writes the result to the content-addressed store, and only
then appends the ``done`` record that releases the lease and tells the
submitter the result is ready.  A claimed spec whose store entry
already reads back (its ``done`` record was torn, say) is marked done
without simulating.

A :class:`Supervisor` forks N workers over one fleet and keeps them
serving; ``--jobs N`` and ``python -m repro.serve fleet`` both use it.

Chaos: the worker asks :func:`repro.exec.faults.fires` with its lease
count *after* the lease is durable.  Under a ``kill-worker`` plan it
dies with ``os._exit`` exactly as an OOM kill would take it — no
cleanup, the lease left live.  Convergence is then the fleet's job:
the supervisor releases the lease (or it expires after the TTL), the
next claimant leases the spec with count 2, and ``kill-worker`` fires
only on a first lease.  With ``checkpoint_every`` armed,
``kill-midrun`` is the same shape cut deeper: the worker dies
*mid-simulation* right after a snapshot lands, and the count-2
claimant resumes from that snapshot instead of instruction zero
(:mod:`repro.exec.checkpoint`) — bit-identical either way.

Drain mode (``drain=True``) is how CI and tests run service fleets to
completion: the worker exits 0 once work has been seen and the queue is
fully resolved with no live leases.  Before any work arrives it idles
(the submitting clients may still be connecting), bounded by
``idle_timeout``.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import traceback
from contextlib import suppress
from typing import Callable, List, NoReturn, Optional, Tuple

# What every spec runs, loaded with this module: the ``--jobs N`` driver
# and ``repro.serve fleet`` import it just before they fork, so each
# worker starts with the machine and the workload generator in memory
# instead of importing them on its first spec.  Processes that fork no
# worker load neither.
import repro.core.simulation  # noqa: F401
import repro.workloads.spec2000  # noqa: F401
import repro.workloads.store  # noqa: F401
from repro.exec.checkpoint import discard_checkpoints
from repro.exec.executor import Attempts, run_attempts
from repro.exec.faults import (
    KILL_WORKER_EXIT,
    fires,
    maybe_corrupt_store_entry,
)
from repro.exec.fleet import Claim, Fleet
from repro.exec.policy import FailedRun, RetryPolicy
from repro.exec.runspec import SpecPayloadError, spec_from_payload
from repro.exec.store import ResultStore

#: How long an idle worker sleeps between claim attempts, seconds.
POLL_SECONDS = 0.05

#: How long a drain-mode worker requires the queue to *stay* resolved
#: before exiting, seconds.  A ``done`` record is a promise each
#: waiting submitter audits when its poll of the queue
#: (:meth:`~repro.exec.fleet.Fleet.tail`) reaches it; when the promised
#: store entry is unreadable (torn by a crash or chaos) the audit
#: requeues the spec.  A worker that quit the instant the queue looked
#: resolved could strand that requeue with no fleet left to serve it,
#: so drain exits only after the resolution survives a settle window
#: comfortably longer than the submitters' poll interval.
DRAIN_SETTLE_SECONDS = 0.5


class _LeaseRenewer:
    """Heartbeat thread keeping one claim's lease alive while it runs.

    A lease that silently outlives its TTL mid-simulation gets the spec
    reclaimed and simulated twice, so the worker renews at half the TTL
    for as long as the simulation (and the store/resolve writes after
    it) are in progress.  :meth:`~repro.exec.fleet.Fleet.renew` checks
    ownership under the fleet lock and returns ``None`` when the lease
    was lost anyway (e.g. the host slept past the TTL) — at that point
    renewing stops; the reclaimant owns the spec now and a stale
    heartbeat must not stretch its deadline.
    """

    def __init__(self, fleet: Fleet, claim: Claim, worker_id: str) -> None:
        self.fleet = fleet
        self.claim = claim
        self.worker_id = worker_id
        self.interval = max(fleet.ttl * 0.5, 0.01)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_LeaseRenewer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            renewed = self.fleet.renew(self.claim.spec_hash, self.worker_id)
            if renewed is None:
                return


class Worker:
    """The claim-simulate-resolve loop over one fleet.

    ``policy`` drives the attempt loop.  It defaults to one attempt with
    no timeout, which is what service fleets run; ``--jobs N`` passes
    the executor's own policy.
    """

    def __init__(
        self,
        fleet: Fleet,
        store: ResultStore,
        worker_id: str,
        checkpoint_every: int = 0,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.fleet = fleet
        self.store = store
        self.worker_id = worker_id
        self.checkpoint_every = max(0, int(checkpoint_every))
        self.policy = policy if policy is not None else RetryPolicy()
        self.completed = 0
        self.failed = 0
        #: Set by :meth:`stop`: finish the spec in hand, claim no more.
        self.stopping = False

    def stop(self) -> None:
        """Ask :meth:`run` to return once the current spec resolves."""
        self.stopping = True

    def run_one(self) -> bool:
        """Claim and resolve one spec; False when nothing was claimable."""
        claim = self.fleet.claim(self.worker_id)
        if claim is None:
            return False
        self._maybe_die(claim)
        if claim.deadline is not None and claim.deadline <= time.time():
            # Deadline propagation, worker half: the submission's
            # deadline passed between claim and here — nobody wants
            # this result anymore, so don't burn a simulation on it.
            print(
                f"worker {self.worker_id}: deadline passed for "
                f"{claim.spec_hash[:12]}…; resolving as expired",
                file=sys.stderr,
            )
            self.fleet.mark_expired(claim.spec_hash, self.worker_id)
            self.failed += 1
            return True
        if self.store.read_entry(
                self.store.shard_path(claim.spec_hash))[0] is not None:
            # Already stored (its ``done`` record was torn, say): the
            # promise holds without simulating.
            try:
                self.fleet.mark_done(claim.spec_hash, self.worker_id, 0.0,
                                     lease_count=claim.lease_count)
            except OSError:
                self.fleet.release(claim.spec_hash, self.worker_id)
                return True
            self.completed += 1
            return True
        # The heartbeat spans the simulation *and* the store/resolve
        # writes after it, so the lease cannot lapse between finishing
        # a long run and making its resolution durable.
        with _LeaseRenewer(self.fleet, claim, self.worker_id):
            try:
                spec = spec_from_payload(claim.payload)
            except SpecPayloadError as exc:
                # A queue record that cannot re-materialise resolves as
                # a failure: subscribers get an annotated hole instead
                # of a sweep that never completes.
                payload = claim.payload
                tally = Attempts(FailedRun(
                    spec_hash=claim.spec_hash,
                    benchmark=str(payload.get("benchmark", "?")),
                    mechanism=str(payload.get("mechanism", "?")),
                    attempts=claim.lease_count, error=repr(exc),
                ))
            else:
                tally = run_attempts(
                    spec, self.policy,
                    checkpoint_every=self.checkpoint_every,
                    ckpt_root=self.store.ckpt_root,
                    lease=claim.lease_count, in_worker=True,
                )
            if isinstance(tally.outcome, FailedRun):
                print(f"worker {self.worker_id}: giving up: "
                      f"{tally.outcome.summary()}", file=sys.stderr)
                self.fleet.mark_failed(tally.outcome, self.worker_id,
                                       tally.counters())
                self.failed += 1
                return True
            # Store first, then resolve: the ``done`` record promises the
            # result is re-readable (same write order as the sweep journal).
            try:
                self.store.put(spec, tally.outcome,
                               fault_attempt=claim.lease_count)
                # One-shot torn-entry chaos: the submitter finds the
                # promised entry unreadable and requeues; the reclaim
                # (lease 2) always writes a sound entry.
                maybe_corrupt_store_entry(self.store.path_for(spec),
                                          claim.spec_hash, claim.lease_count)
                self.fleet.mark_done(claim.spec_hash, self.worker_id,
                                     tally.seconds,
                                     lease_count=claim.lease_count,
                                     counters=tally.counters())
            except OSError as exc:
                # A failed *write* (ENOSPC, a yanked filesystem): the
                # store and WAL both fail clean, so nothing durable
                # claims the result exists.  Release the lease now —
                # the next claimant re-runs the spec without waiting
                # out the TTL, and its writes on lease 2 always land.
                print(
                    f"worker {self.worker_id}: write failed for "
                    f"{claim.spec_hash[:12]}… ({exc}); releasing lease "
                    "for a clean re-run",
                    file=sys.stderr,
                )
                self.fleet.release(claim.spec_hash, self.worker_id)
                return True
        if self.checkpoint_every:
            # The result is durable and promised; its snapshots served
            # their purpose (checkpoints are a cache, never an artifact).
            discard_checkpoints(self.store.ckpt_root / claim.spec_hash)
        self.completed += 1
        return True

    def run(
        self,
        drain: bool = False,
        idle_timeout: Optional[float] = None,
    ) -> int:
        """The worker loop; returns an exit status.

        ``drain=False`` serves until :meth:`stop` (a long-lived fleet
        member).  ``drain=True`` also exits 0 once the queue has been
        seen non-empty and has stayed fully resolved (no pending work,
        no live leases) for :data:`DRAIN_SETTLE_SECONDS`;
        ``idle_timeout`` bounds how long to wait for work to appear at
        all (exit 0 — an empty fleet run is not an error).
        """
        idle_since = time.monotonic()
        seen_work = False
        drained_since: Optional[float] = None
        while not self.stopping:
            if self.run_one():
                seen_work = True
                idle_since = time.monotonic()
                drained_since = None
                continue
            if drain:
                snap = self.fleet.snapshot()
                if snap.enqueued and snap.drained:
                    now = time.monotonic()
                    if drained_since is None:
                        drained_since = now
                    if now - drained_since >= DRAIN_SETTLE_SECONDS:
                        return 0
                else:
                    drained_since = None
                    if (not seen_work and idle_timeout is not None
                            and time.monotonic() - idle_since > idle_timeout):
                        return 0
            time.sleep(POLL_SECONDS)
        return 0

    # -- internals ------------------------------------------------------------

    def _maybe_die(self, claim: Claim) -> None:
        """Chaos mode: die like an OOM-killed worker, lease left live.

        Two schedules, opposite shapes.  ``poison`` fires on **every**
        lease of a matching spec — the deterministic crash loop only
        the quarantine bound can stop.  ``kill-worker`` fires only on a
        spec's first lease — see the module docstring for why that
        makes plain chaos fleets converge.
        """
        if fires("poison", claim.spec_hash, claim.lease_count):
            print(
                f"faults: poison spec {claim.spec_hash[:12]}… killed "
                f"{self.worker_id} (lease {claim.lease_count}; every "
                "lease dies until quarantine)",
                file=sys.stderr,
            )
            sys.stderr.flush()
            os._exit(KILL_WORKER_EXIT)
        if not fires("kill-worker", claim.spec_hash, claim.lease_count):
            return
        print(
            f"faults: injected worker kill ({self.worker_id}, lease on "
            f"{claim.spec_hash[:12]}… left live)",
            file=sys.stderr,
        )
        sys.stderr.flush()
        os._exit(KILL_WORKER_EXIT)


def _exit_when_orphaned(lifeline: int) -> None:
    """Exit once the supervisor's end of the (never written) pipe closes."""
    os.read(lifeline, 1)
    os._exit(1)


class Supervisor:
    """Fork ``size`` workers over one fleet and keep them serving.

    ``make_worker`` builds each child's :class:`Worker` after the fork.
    :meth:`poll` reaps exited workers: one that died holding a lease
    has the lease released at once and is replaced (counted in
    :attr:`respawns`), so a spec that keeps killing workers ends in
    quarantine; one that exited non-zero holding none is counted in
    :attr:`failures` and not replaced.  Every worker blocks a thread on
    a pipe whose write end only the supervisor holds, so when the
    supervisor dies for any reason, SIGKILL included, its workers exit.
    """

    def __init__(
        self,
        fleet: Fleet,
        make_worker: Callable[[str], Worker],
        size: int,
        drain: bool = False,
        idle_timeout: Optional[float] = None,
    ) -> None:
        self.fleet = fleet
        self.make_worker = make_worker
        self.size = size
        self.drain = drain
        self.idle_timeout = idle_timeout
        self.respawns = 0
        self.failures = 0
        #: True once :meth:`request_stop` or :meth:`stop` ran: dead
        #: workers are no longer replaced.
        self.stopping = False
        #: Per slot: (pid, generation) of the live worker, or None.
        self._slots: List[Optional[Tuple[int, int]]] = []
        self._lifeline: Optional[Tuple[int, int]] = None

    @property
    def alive(self) -> bool:
        """Whether any worker is still running."""
        return any(slot is not None for slot in self._slots)

    def start(self) -> None:
        self._lifeline = os.pipe()
        self._slots = [self._fork(index, 1) for index in range(self.size)]

    def run(self) -> int:
        """Start, supervise until every worker exited; the exit status."""
        try:
            self.start()
            while self.alive:
                self.poll()
                time.sleep(POLL_SECONDS)
        finally:
            self.stop()
        return 1 if self.failures else 0

    def poll(self) -> None:
        """Reap exited workers; release and replace the ones that died
        holding a lease."""
        for index, slot in enumerate(self._slots):
            if slot is None:
                continue
            pid, generation = slot
            try:
                reaped, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                reaped, status = pid, -1
            if not reaped:
                continue
            code = os.waitstatus_to_exitcode(status) if status >= 0 else -1
            worker_id = _worker_id(index, generation)
            held = self.fleet.release_worker(worker_id)
            self._slots[index] = None
            if held and not self.stopping:
                self.respawns += 1
                print(
                    f"fleet: worker {worker_id} died (exit {code}) holding "
                    f"{held[0][:12]}…; lease released, respawning "
                    f"(generation {generation + 1})",
                    file=sys.stderr,
                )
                self._slots[index] = self._fork(index, generation + 1)
            elif code != 0 and not self.stopping:
                self.failures += 1
                print(f"fleet: worker {worker_id} exited {code}",
                      file=sys.stderr)

    def request_stop(self) -> None:
        """Let every worker finish the spec it holds, then exit."""
        self.stopping = True
        for slot in self._slots:
            if slot is not None:
                with suppress(ProcessLookupError):
                    os.kill(slot[0], signal.SIGINT)

    def stop(self) -> None:
        """Kill and reap every live worker now."""
        self.stopping = True
        for index, slot in enumerate(self._slots):
            if slot is None:
                continue
            with suppress(ProcessLookupError):
                os.kill(slot[0], signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(slot[0], 0)
            self._slots[index] = None
        if self._lifeline is not None:
            for fd in self._lifeline:
                os.close(fd)
            self._lifeline = None

    def _fork(self, index: int, generation: int) -> Tuple[int, int]:
        # Flush first: a child must not inherit (and later re-emit)
        # output the parent has buffered but not yet written.
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            self._serve(_worker_id(index, generation))
        return pid, generation

    def _serve(self, worker_id: str) -> NoReturn:
        """The child's whole life: never returns into the parent's stack."""
        status = 1
        try:
            # The parent's handlers are not the worker's.  SIGTERM kills
            # it outright; SIGINT (Ctrl-C reaches the whole process
            # group) lets it finish the spec in hand and exit.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            assert self._lifeline is not None
            read_end, write_end = self._lifeline
            os.close(write_end)
            threading.Thread(target=_exit_when_orphaned, args=(read_end,),
                             daemon=True).start()
            worker = self.make_worker(worker_id)
            signal.signal(signal.SIGINT, lambda signum, frame: worker.stop())
            status = worker.run(drain=self.drain,
                                idle_timeout=self.idle_timeout)
        except BaseException:
            traceback.print_exc()
            raise
        finally:
            sys.stderr.flush()
            os._exit(status)


def _worker_id(index: int, generation: int) -> str:
    return f"w{index}-g{generation}"
