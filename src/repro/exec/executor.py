"""The Executor: batches of RunSpecs in, RunResults out, in order.

Resolution order per unique spec hash:

1. **memo** — results already resolved by this executor (process memory);
2. **store** — the on-disk content-addressed store, when configured;
3. **simulate** — in-process when ``jobs == 1`` (deterministic
   single-process debugging), else on a local fleet of forked workers
   (:meth:`Executor._simulate_fleet`).

Duplicate specs within a batch are simulated once and every caller
position gets the same result object.  Freshly simulated results are
written back to the store, so the next process — or the next exhibit in
the same ``python -m repro all`` — never pays for the same cell twice.

Fault tolerance
---------------
Long fan-outs must survive partial failure: one failing attempt, hang
or worker death must not destroy a multi-hour sweep.  Execution is
therefore governed by a :class:`~repro.exec.policy.RetryPolicy`,
applied by the one attempt loop (:func:`run_attempts`) that in-process
execution and every fleet worker share:

* failing attempts are retried up to ``retries`` times with a
  deterministic exponential backoff (seeded jitter, no ``random``);
* a fleet worker enforces the per-attempt ``timeout`` with a
  ``SIGALRM`` timer (in-process, only injected hangs time out);
* a dead worker's lease is released at once and the worker respawned;
  a spec that keeps killing workers is quarantined as a poison hole;
* a spec that exhausts every attempt becomes a
  :class:`~repro.exec.policy.FailedRun` hole in the batch (``strict``
  mode raises :class:`~repro.exec.policy.SpecExhausted` instead), so
  ``run``/``run_sweep`` return complete grids with annotated holes.

Every recovery path is exercisable on a deterministic schedule via
``REPRO_FAULTS``: the driver, the attempt loop and every fleet worker
ask the one process-wide plan through :func:`repro.exec.faults.fires`.

Durability
----------
Workers failing is one half of the problem; the *driver* dying (OOM
kill, SIGTERM, Ctrl-C, host reboot) is the other.  When ``journal_dir``
and a store are configured, every multi-spec batch runs on its sweep's
own fleet queue, ``<journal_dir>/<sweep_id[:16]>/queue.jsonl``
(:mod:`repro.exec.journal`): each spec's resolution is fsync'd as it
lands, so a killed driver leaves an exact record of what finished.
A fresh run keeps a complete queue, appending only what it resolves
differently (a warm rerun appends nothing), and discards an incomplete
one.  ``resume=True`` replays the queue — finished specs are served
from the queue + store, persisted :class:`FailedRun` holes are honoured
instead of silently re-running exhausted specs (``retry_failed=True``
opts back in) — and a ``shutdown`` manager turns SIGINT/SIGTERM into a
graceful stop: no new spec starts, in-flight ones drain within a
deadline, the stop is recorded in the queue, and
:class:`~repro.exec.shutdown.SweepInterrupted` carries the conventional
exit code up to the CLI.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import FrameType
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import MachineConfig, baseline_config
from repro.core.results import DEFAULT_INSTRUCTIONS, ResultSet, RunResult
from repro.exec import journal as log
from repro.exec.checkpoint import Checkpointer, discard_checkpoints
from repro.exec.faults import (
    HANG_SECONDS,
    KILL_ORCHESTRATOR_EXIT,
    KILL_WORKER_EXIT,
    InjectedCrash,
    InjectedHang,
    fires,
    maybe_corrupt_store_entry,
)
from repro.exec.fleet import KIND_QUARANTINE, Fleet, FleetSnapshot
from repro.exec.journal import (
    KIND_ENQUEUE,
    KIND_INTERRUPTED,
    KIND_REQUEUE,
    SweepJournal,
    sweep_identity,
)
from repro.exec.policy import (
    ExecutionError,
    FailedRun,
    RetryPolicy,
    SpecExhausted,
    SpecTimeout,
)
from repro.exec.runspec import RunSpec
from repro.exec.shutdown import SHUTDOWN, ShutdownManager, SweepInterrupted
from repro.exec.store import ResultStore
from repro.exec.telemetry import (
    SOURCE_FAILED,
    SOURCE_JOURNAL,
    SOURCE_MEMO,
    SOURCE_SIMULATED,
    SOURCE_STORE,
    RunRecord,
    Telemetry,
)
from repro.mechanisms.registry import ALL_MECHANISMS, BASELINE
from repro.obs.tracing import TRACER
from repro.workloads.registry import ALL_BENCHMARKS

#: progress(completed_simulations, total_simulations, spec_just_finished)
ProgressFn = Callable[[int, int, RunSpec], None]

#: One resolved batch entry: a result, or the hole a failed spec left.
Resolved = Union[RunResult, FailedRun]

#: The per-spec costs an attempt loop reports, named as the Telemetry
#: fields they add to; a worker's ``done``/``failed`` record carries them.
ATTEMPT_COUNTERS = ("retries", "timeouts", "checkpoints",
                    "resumed_from_ckpt")

#: The lock a sweep's driver holds for the whole batch, in the sweep's
#: directory: a second driver of the same sweep waits instead of
#: discarding the queue the first one is tailing.
SWEEP_LOCK = "sweep.lock"


@dataclass
class Attempts:
    """What one spec's attempt loop produced, and what it cost."""

    outcome: Resolved
    #: Wall seconds of the attempt that succeeded (0 for a hole).
    seconds: float = 0.0
    retries: int = 0
    timeouts: int = 0
    #: Snapshots cut / resumed by the attempt that succeeded.
    checkpoints: int = 0
    resumed_from_ckpt: int = 0

    def counters(self) -> Dict[str, int]:
        """The nonzero :data:`ATTEMPT_COUNTERS`."""
        return {name: getattr(self, name) for name in ATTEMPT_COUNTERS
                if getattr(self, name)}


@contextmanager
def _alarm(seconds: Optional[float], message: str) -> Iterator[None]:
    """Raise :class:`SpecTimeout` in the main thread after ``seconds``
    (a ``SIGALRM`` timer; ``None`` arms nothing)."""
    if seconds is None:
        yield
        return

    def expire(signum: int, frame: Optional[FrameType]) -> None:
        raise SpecTimeout(message)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_attempts(
    spec: RunSpec,
    policy: RetryPolicy,
    checkpoint_every: int = 0,
    ckpt_root: Optional[Path] = None,
    lease: int = 1,
    in_worker: bool = False,
) -> Attempts:
    """Attempt ``spec`` until it succeeds or ``policy`` gives up.

    In-process execution and every fleet worker call this one loop.
    The last failure becomes the :class:`FailedRun` outcome; strictness
    is the caller's business.  ``hang`` and ``crash`` are injected per
    attempt *before* the traced region, so a crashing attempt never
    leaves an unbalanced span.

    ``in_worker`` selects the process-level flavours: a ``SIGALRM``
    timer of ``policy.timeout`` per attempt, a hang that really sleeps
    (in-process it raises :class:`InjectedHang`, accounted as a
    timeout), and a ``kill-midrun`` that exits the process.  ``lease``
    is the worker's lease count: one-shot mid-run chaos fires only on
    the first attempt of the first lease, and later ones resume from
    the newest sound snapshot under ``ckpt_root``.
    """
    key = spec.content_hash
    started = time.monotonic()
    retries = timeouts = 0
    attempt = 1
    while True:
        ckpt = None
        if checkpoint_every and ckpt_root is not None:
            ckpt = Checkpointer(
                Path(ckpt_root), key, checkpoint_every,
                attempt=attempt + lease - 1,
                kill_exit=KILL_WORKER_EXIT if in_worker else None,
            )
        timeout = policy.timeout if in_worker else None
        try:
            with _alarm(timeout, f"{spec.benchmark}/{spec.mechanism} attempt "
                                 f"{attempt} exceeded {timeout or 0:g}s"):
                if fires("hang", key, attempt):
                    if in_worker:
                        time.sleep(HANG_SECONDS)
                    raise InjectedHang(f"injected hang (attempt {attempt})")
                if fires("crash", key, attempt):
                    raise InjectedCrash(f"injected crash (attempt {attempt})")
                tracing = TRACER.enabled
                if tracing:
                    TRACER.begin("exec.simulate", cat="exec",
                                 benchmark=spec.benchmark,
                                 mechanism=spec.mechanism)
                start = time.perf_counter()
                # Only pass the kwarg when armed: spec doubles (and any
                # older execute() signature) stay callable as-is.
                result = (spec.execute(checkpoint=ckpt) if ckpt is not None
                          else spec.execute())
                seconds = time.perf_counter() - start
                if tracing:
                    TRACER.end(seconds=round(seconds, 6))
        except Exception as exc:
            timed_out = isinstance(exc, (SpecTimeout, InjectedHang))
            timeouts += timed_out
            if attempt < policy.max_attempts:
                retries += 1
                time.sleep(policy.backoff_delay(key, attempt))
                attempt += 1
                continue
            failure = FailedRun(
                spec_hash=key,
                benchmark=spec.benchmark,
                mechanism=spec.mechanism,
                attempts=attempt,
                error=repr(exc),
                elapsed=round(time.monotonic() - started, 6),
                kind="timeout" if timed_out else "error",
            )
            return Attempts(failure, retries=retries, timeouts=timeouts)
        return Attempts(
            result, seconds, retries=retries, timeouts=timeouts,
            checkpoints=ckpt.cuts if ckpt is not None else 0,
            resumed_from_ckpt=ckpt.resumed if ckpt is not None else 0,
        )


class Executor:
    """Run batches of :class:`RunSpec`, deduplicated, cached and retried.

    ``jobs=1`` executes in-process (no fork, bit-for-bit reproducible
    stepping under a debugger); ``jobs>1`` runs each batch on a local
    fleet of that many forked workers.  ``jobs=None`` defaults to
    ``os.cpu_count()``.

    ``policy`` defaults to the fail-fast library behaviour (no retries,
    no timeout, strict); the CLI's ``--retries/--timeout/--strict``
    flags build a lenient one.  Faults come from the process-wide
    ``REPRO_FAULTS`` plan (:mod:`repro.exec.faults`).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[ResultStore] = None,
        telemetry: Optional[Telemetry] = None,
        progress: Optional[ProgressFn] = None,
        policy: Optional[RetryPolicy] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        retry_failed: bool = False,
        shutdown: Optional[ShutdownManager] = None,
        checkpoint_every: int = 0,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.store = store
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.progress = progress
        self.policy = policy if policy is not None else RetryPolicy()
        #: Where multi-spec batches keep their sweep queues (given a
        #: store); None disables them (the library default — importing
        #: must not write to disk).  The CLI wires it to
        #: ``store.journal_dir``.
        self.journal_dir = (Path(journal_dir) if journal_dir is not None
                            else None)
        #: Serve finished/failed specs from an existing sweep queue
        #: instead of re-running them (``--resume``).
        self.resume = resume
        #: Re-run specs the queue recorded as exhausted (``--retry-failed``).
        self.retry_failed = retry_failed
        #: Consulted between specs; the never-installed process singleton
        #: is inert, so library use pays nothing.
        self.shutdown = shutdown if shutdown is not None else SHUTDOWN
        #: Cut a durable mid-run snapshot every N trace records (0 = off,
        #: the default: the disabled path adds nothing to the record
        #: loop).  Checkpoints live under the store's ``ckpt/`` tree, so
        #: checkpointing requires a configured store.
        self._ckpt_root = (store.ckpt_root
                           if store is not None and checkpoint_every
                           else None)
        self.checkpoint_every = (max(0, int(checkpoint_every))
                                 if self._ckpt_root is not None else 0)
        self._memo: Dict[str, Resolved] = {}
        self._sweep_memo: Dict[Tuple[str, ...], ResultSet] = {}
        self._store_corrupt_base = store.corrupt_reads if store else 0
        #: The driver's writer to the current batch's sweep queue.
        self._journal: Optional[SweepJournal] = None
        #: Stops the live local fleet; run before a deliberate driver exit.
        self._teardown: Optional[Callable[[], None]] = None

    # -- batch execution ------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[Resolved]:
        """Resolve every spec; results align with ``specs`` by position.

        Under the default strict policy a failing spec raises (after any
        configured retries).  Under a lenient policy (``strict=False``)
        an exhausted spec resolves to a :class:`FailedRun` in its batch
        position, and the rest of the batch completes normally.
        """
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("exec.batch", cat="exec", specs=len(specs))
        start = time.perf_counter()
        order: List[str] = []
        unique: Dict[str, RunSpec] = {}
        for spec in specs:
            key = spec.content_hash
            order.append(key)
            if key not in unique:
                unique[key] = spec

        to_simulate: List[RunSpec] = []
        try:
            with self._sweep(order, unique) as snap:
                to_simulate = self._resolve_cached(unique, snap)
                if to_simulate:
                    self._simulate(to_simulate)
        except BaseException:
            # An interrupted or strict-failed batch took its time too.
            self.telemetry.wall_time += time.perf_counter() - start
            raise
        finally:
            if self.store is not None:
                self.telemetry.store_corrupt = (
                    self.store.corrupt_reads - self._store_corrupt_base
                )

        self.telemetry.record_batch(
            len(specs), len(unique), time.perf_counter() - start
        )
        if tracing:
            TRACER.end(unique=len(unique), simulated=len(to_simulate))
        return [self._memo[key] for key in order]

    # -- durability (sweep queue, resume, shutdown, driver kill) --------------

    @contextmanager
    def _sweep(
        self, order: List[str], unique: Dict[str, RunSpec]
    ) -> Iterator[FleetSnapshot]:
        """Open the batch's sweep queue; yields what it already holds.

        A multi-spec batch with a journal directory and a store runs on
        its sweep's own fleet queue, ``<journal_dir>/<sweep_id[:16]>/``,
        with the sweep's lock held for the whole batch: a second driver
        of the same sweep waits, then finds every result in the store.
        A fresh run keeps a complete queue and discards an incomplete
        one, hinting on stderr that ``--resume`` would serve it.  Each
        run starts a fresh lease book, and every unique spec the queue
        lacks is enqueued.
        """
        if self.journal_dir is None or self.store is None or len(order) < 2:
            yield FleetSnapshot()
            return
        sweep_id = sweep_identity(order, self.policy)
        fleet = Fleet(self.journal_dir / sweep_id[:16])
        with log.locked(fleet.root / SWEEP_LOCK):
            # A dead run's leases must neither hold specs for a TTL nor
            # count toward the poison bound.
            fleet.lease_path.unlink(missing_ok=True)
            snap = fleet.snapshot()
            pending = snap.pending()
            if pending and not self.resume:
                print(
                    f"executor: found an unfinished queue for this sweep "
                    f"({len(snap.done)} done, {len(snap.failures)} "
                    f"failed, {len(pending)} pending); pass --resume to "
                    "serve finished specs without re-simulation "
                    "(starting fresh, the old queue is discarded)",
                    file=sys.stderr,
                )
                fleet.queue_path.unlink(missing_ok=True)
                snap = FleetSnapshot()
            self._journal = SweepJournal(fleet.queue_path, seq=snap.lines)
            try:
                _enqueue(self._journal, {key: spec.describe()
                                         for key, spec in unique.items()
                                         if key not in snap.enqueued})
                yield snap
            finally:
                self._journal = None

    def _resolve_cached(
        self, unique: Dict[str, RunSpec], snap: FleetSnapshot
    ) -> List[RunSpec]:
        """Resolve what needs no simulation; returns the specs that do.

        Per spec: the memo; when resuming, a persisted failure in the
        queue, served as its hole unless strict mode or ``retry_failed``
        wants it re-run; then the store, read at most once — when
        resuming, a hit on a spec the queue holds ``done`` is served
        with provenance ``journal``.  A hit is appended to the queue
        only when the queue does not already resolve the spec that way,
        so a warm run over a complete queue appends nothing.  A spec
        the queue holds as resolved but that must run again is
        requeued, so ``--jobs N`` workers can claim it.
        """
        journal = self._journal
        to_simulate: List[RunSpec] = []
        for key, spec in unique.items():
            memo = self._memo.get(key)
            if memo is not None:
                self._record(spec, SOURCE_MEMO)
                if journal is not None:
                    if isinstance(memo, FailedRun):
                        if key not in snap.failures:
                            journal.failed(memo)
                    elif key not in snap.done:
                        journal.done(key, SOURCE_MEMO)
                continue
            failure = snap.failures.get(key)
            if (failure is not None and self.resume
                    and not self.policy.strict and not self.retry_failed):
                self._memo[key] = failure
                self._record(spec, SOURCE_JOURNAL)
                continue
            stored = self.store.get(spec) if self.store is not None else None
            if stored is not None:
                self._memo[key] = stored
                if key in snap.done:
                    self._record(spec, SOURCE_JOURNAL if self.resume
                                 else SOURCE_STORE)
                    continue
                self._record(spec, SOURCE_STORE)
                if journal is not None:
                    journal.done(key, SOURCE_STORE)
                continue
            to_simulate.append(spec)
            if journal is not None and (failure is not None
                                        or key in snap.done):
                journal.append(KIND_REQUEUE, spec=key,
                               payload=spec.describe())
        return to_simulate

    def _shutdown_signal(self) -> Optional[int]:
        """The pending shutdown signal, or None to keep going."""
        if self.shutdown is None:
            return None
        return self.shutdown.requested

    def _interrupt(self, signum: int) -> None:
        """Record the graceful stop and raise it out of the batch."""
        if self._journal is not None:
            self._journal.append(KIND_INTERRUPTED, signal=int(signum))
        raise SweepInterrupted(signum)

    def _maybe_kill_orchestrator(self, key: str) -> None:
        """Chaos mode: die like an OOM-killed driver, between specs.

        Runs driver-side only, right after ``key`` was absorbed —
        stored, and ``done`` in the queue — so the sweep provably
        advances by at least one spec per resumed run and the resume
        loop converges.  A live local fleet is torn down first so no
        workers outlive the "kill".
        """
        if not fires("kill-orchestrator", key):
            return
        print(
            "faults: injected orchestrator kill (sweep queue flushed; "
            "resume with --resume)",
            file=sys.stderr,
        )
        if self._teardown is not None:
            self._teardown()
        os._exit(KILL_ORCHESTRATOR_EXIT)

    # -- simulation -----------------------------------------------------------

    def _simulate(self, specs: List[RunSpec]) -> None:
        if self.jobs == 1 or len(specs) == 1:
            self._simulate_in_process(specs)
        else:
            self._simulate_fleet(specs)

    def _simulate_in_process(self, specs: List[RunSpec]) -> None:
        """Run ``specs`` one after another in this process."""
        for done, spec in enumerate(specs, 1):
            signum = self._shutdown_signal()
            if signum is not None:
                self._interrupt(signum)
            tally = run_attempts(spec, self.policy,
                                 checkpoint_every=self.checkpoint_every,
                                 ckpt_root=self._ckpt_root)
            self._count(tally.counters())
            if isinstance(tally.outcome, FailedRun):
                # Record the exhaustion first: even a strict abort
                # leaves it, and a resumed lenient sweep can honour it.
                if self._journal is not None:
                    self._journal.failed(tally.outcome)
                self._absorb_failure(spec, tally.outcome, done, len(specs))
                continue
            key = spec.content_hash
            if self.store is not None:
                path = self.store.put(spec, tally.outcome)
                # Chaos mode: a "torn write" lands now, is discovered (and
                # counted) by whoever reads the entry next.
                maybe_corrupt_store_entry(path, key, 1)
                if self._ckpt_root is not None:
                    # The result is durable; the spec's mid-run snapshots
                    # are now pure disk waste.
                    discard_checkpoints(self._ckpt_root / key)
            # After the store write: a ``done`` record promises the
            # result is re-readable, so the promise must land last.
            if self._journal is not None:
                self._journal.done(key, SOURCE_SIMULATED, tally.seconds)
            self._absorb(spec, tally.outcome, SOURCE_SIMULATED,
                         tally.seconds, done, len(specs))
            self._maybe_kill_orchestrator(key)

    def _simulate_fleet(self, specs: List[RunSpec]) -> None:
        """Run ``specs`` on a local fleet of forked workers.

        The fleet serves the batch's sweep queue, where every spec is
        already enqueued; a batch without one is enqueued on a private
        queue in a temporary directory (with a private store there when
        there is none).  ``min(jobs, n)`` workers run
        :func:`run_attempts` under this executor's policy, store each
        result and append its resolution to the queue.  The driver
        waits with :meth:`Fleet.tail`, as every sweep-server submission
        does, and absorbs each resolution.  Workers, the lease book and
        any temporary directory go with the batch on every exit through
        Python (see docs/executor.md).
        """
        from repro.exec.worker import POLL_SECONDS, Supervisor, Worker

        private = self._journal is None
        journal = (self._journal if self._journal is not None else
                   SweepJournal(Path(tempfile.mkdtemp(prefix="repro-jobs-"))
                                / "queue.jsonl"))
        by_hash = {spec.content_hash: spec for spec in specs}
        waiting = {key: spec.describe() for key, spec in by_hash.items()}
        if private:
            _enqueue(journal, waiting)
        fleet = Fleet(journal.path.parent, max_leases=self.policy.max_leases)
        store = (self.store if self.store is not None
                 else ResultStore(fleet.root / "store"))
        total = len(specs)
        offset = fleet.queue_path.stat().st_size
        supervisor = Supervisor(
            fleet,
            lambda worker_id: Worker(
                fleet, store, worker_id, policy=self.policy,
                checkpoint_every=self.checkpoint_every,
            ),
            size=min(self.jobs, total),
        )

        def absorb() -> bool:
            """Absorb the resolutions past ``offset``; True if it moved."""
            nonlocal offset
            start = offset
            resolutions, offset = fleet.tail(
                offset, waiting, lambda key: store.get(by_hash[key]))
            for resolution in resolutions:
                key, record = resolution.spec_hash, resolution.record
                spec = by_hash[key]
                del waiting[key]
                self._count(record)
                if resolution.result is not None:
                    self._absorb(spec, resolution.result, SOURCE_SIMULATED,
                                 float(record.get("seconds", 0.0)),
                                 total - len(waiting), total)
                    self._maybe_kill_orchestrator(key)
                    continue
                self.telemetry.quarantined += (
                    record.get("kind") == KIND_QUARANTINE)
                self._absorb_failure(
                    spec, FailedRun.from_dict(record["failure"]),
                    total - len(waiting), total)
            return offset != start

        def teardown() -> None:
            supervisor.stop()
            if private:
                shutil.rmtree(fleet.root, ignore_errors=True)
            else:
                fleet.lease_path.unlink(missing_ok=True)

        self._teardown = teardown
        if self.shutdown is not None:
            self.shutdown.add_emergency(teardown)
        try:
            supervisor.start()
            while waiting:
                signum = self._shutdown_signal()
                if signum is not None:
                    # Graceful stop: workers finish the spec they hold
                    # and claim no more; whatever lands within the
                    # grace period is absorbed, so a resume serves it.
                    supervisor.request_stop()
                    grace = time.monotonic() + (
                        self.shutdown.grace if self.shutdown else 0.0)
                    while (waiting and supervisor.alive
                           and time.monotonic() < grace):
                        time.sleep(POLL_SECONDS)
                        supervisor.poll()
                        absorb()
                    absorb()
                    self._interrupt(signum)
                progressed = absorb()
                supervisor.poll()
                if waiting and not supervisor.alive:
                    raise ExecutionError(
                        f"every fleet worker exited with {len(waiting)} "
                        "spec(s) unresolved")
                if not progressed:
                    time.sleep(POLL_SECONDS)
        finally:
            self._teardown = None
            if self.shutdown is not None:
                self.shutdown.remove_emergency(teardown)
            teardown()
            self.telemetry.pool_rebuilds += supervisor.respawns

    # -- accounting -----------------------------------------------------------

    def _count(self, counters: Mapping[str, Any]) -> None:
        """Add an attempt loop's cost counters to the telemetry."""
        for name in ATTEMPT_COUNTERS:
            value = int(counters.get(name, 0))
            if value:
                setattr(self.telemetry, name,
                        getattr(self.telemetry, name) + value)

    def _note_progress(self, done: int, total: int, spec: RunSpec) -> None:
        if self.progress is not None:
            self.progress(done, total, spec)

    def _absorb(
        self,
        spec: RunSpec,
        result: RunResult,
        source: str,
        seconds: float,
        done: int,
        total: int,
    ) -> None:
        """Resolve ``spec`` to ``result``, already in the store if any."""
        self._memo[spec.content_hash] = result
        self._record(spec, source, seconds)
        self._note_progress(done, total, spec)

    def _absorb_failure(
        self,
        spec: RunSpec,
        failure: FailedRun,
        done: int,
        total: int,
    ) -> None:
        """Resolve ``spec`` to its hole; strict mode raises instead."""
        self.telemetry.failures += 1
        if self.policy.strict:
            raise SpecExhausted(failure)
        print(f"executor: giving up: {failure.summary()}", file=sys.stderr)
        self._memo[spec.content_hash] = failure
        self._record(spec, SOURCE_FAILED, failure.elapsed)
        self._note_progress(done, total, spec)

    def _record(self, spec: RunSpec, source: str, seconds: float = 0.0) -> None:
        if TRACER.enabled:
            TRACER.instant("exec.resolve", cat="exec",
                           benchmark=spec.benchmark,
                           mechanism=spec.mechanism, source=source)
        self.telemetry.record(RunRecord(
            spec_hash=spec.content_hash,
            benchmark=spec.benchmark,
            mechanism=spec.mechanism,
            source=source,
            seconds=seconds,
        ))

    # -- grids ----------------------------------------------------------------

    def run_sweep(
        self,
        config: Optional[MachineConfig] = None,
        benchmarks: Sequence[str] = ALL_BENCHMARKS,
        mechanisms: Sequence[str] = ALL_MECHANISMS,
        n_instructions: int = DEFAULT_INSTRUCTIONS,
        mechanism_kwargs: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> ResultSet:
        """The mechanism x benchmark grid as a :class:`ResultSet`.

        The baseline is always included (speedup queries need it).  The
        assembled ResultSet is memoised by the tuple of spec hashes, so
        exhibits sharing a grid share the object too.  Under a lenient
        policy, exhausted specs land in the grid as annotated
        :class:`FailedRun` holes (see :meth:`ResultSet.add_failure`)
        rather than aborting the sweep.
        """
        mechanisms = list(mechanisms)
        if BASELINE not in mechanisms:
            mechanisms.insert(0, BASELINE)
        config = config or baseline_config()
        variants = mechanism_kwargs or {}
        specs = [
            RunSpec(
                benchmark=benchmark,
                mechanism=mechanism,
                config=config,
                n_instructions=n_instructions,
                mechanism_kwargs=variants.get(mechanism) or (),
            )
            for mechanism in mechanisms
            for benchmark in benchmarks
        ]
        key = tuple(spec.content_hash for spec in specs)
        if key in self._sweep_memo:
            for spec in specs:
                self._record(spec, SOURCE_MEMO)
            self.telemetry.record_batch(len(specs), len(specs), 0.0)
            return self._sweep_memo[key]
        results = self.run(specs)
        grid = ResultSet()
        for result in results:
            if isinstance(result, FailedRun):
                grid.add_failure(result)
            else:
                grid.add(result)
        self._sweep_memo[key] = grid
        return grid


def _enqueue(journal: SweepJournal,
             payloads: Mapping[str, Dict[str, Any]]) -> None:
    """Append one claimable ``enqueue`` record per spec payload."""
    for key, payload in payloads.items():
        journal.append(KIND_ENQUEUE, spec=key, payload=payload)
