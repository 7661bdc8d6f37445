"""The asyncio front-end: submissions in, deduped fleet work out.

One server process owns the **in-flight table**: a map from spec
content hash to the list of live subscriptions wanting its result.
That table is what turns overlapping submissions into shared work —
the headline of the service.  When a submission arrives, each of its
hashes is resolved in this order, and the reservation step happens
*synchronously inside the event loop* (no ``await`` between check and
insert), so two clients racing the same hash can never both enqueue it:

1. **in-flight** — some earlier submission already owns the hash: this
   one subscribes and will receive the same result (``shared``);
2. **store** — the shared content-addressed store already has it
   (``store`` hits, checked off the event loop);
3. **fleet** — the hash is enqueued exactly once to the fleet queue
   (``leased``); whichever worker claims it resolves every subscriber.

Results come back through the queue WAL, not a side channel: a watcher
task tails ``queue.jsonl`` by byte offset (complete lines only) and, on
every ``done``/``failed`` record, reads the result from the store,
harvests it into the metrics registry (:mod:`repro.obs.metrics`), and
streams one ``result``/``failed`` message — payload, wall seconds,
derived rates, per-submission progress — to every subscriber.  A
submission whose last hash resolves gets a final ``complete`` message
carrying its dedupe accounting.

Every blocking operation — store reads, WAL tails, flock-guarded
enqueues — is offloaded with ``asyncio.to_thread``; nothing on the
event loop touches a file.  simlint's SIM604 rule holds this module to
that (see :mod:`repro.analysis.asyncrules`).

Production hardening (see docs/service.md, "Overload, poison specs &
deadlines"): admission control sheds submissions with a deterministic
``overloaded`` retry hint when the in-flight table is at its watermark
(``--max-queue``) or a client exceeds its in-flight cap
(``--max-client-inflight``); the watcher doubles as the deadline
sweeper, expiring undispatched work whose submission deadline passed;
and ``quarantine``/``expired`` queue records stream to subscribers as
annotated ``FailedRun`` holes exactly like worker failures do.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.core.simulation import RunResult
from repro.exec import journal
from repro.exec.fleet import (
    KIND_DONE,
    KIND_EXPIRED,
    KIND_FAILED,
    KIND_QUARANTINE,
    Fleet,
)
from repro.exec.store import ResultStore
from repro.obs.metrics import derive_metrics, harvest_result
from repro.serve.protocol import (
    MSG_ACCEPTED,
    MSG_COMPLETE,
    MSG_ERROR,
    MSG_FAILED,
    MSG_OVERLOADED,
    MSG_RESULT,
    ProtocolError,
    batch_hashes,
    decode_message,
    encode_message,
)

#: How often the watcher polls the queue WAL for resolutions, seconds.
WATCH_SECONDS = 0.05

#: Longest accepted request line: a submission of a few thousand specs
#: is legitimate; an unbounded line is a memory hostage.  Passed to the
#: asyncio streams as their buffer ``limit`` — without it the reader's
#: 64 KiB default would make ``readline`` blow up on any batch past a
#: few dozen specs.
MAX_LINE_BYTES = 64 << 20


@dataclass
class _Subscription:
    """One submission's outstanding interest in a set of hashes."""

    client: str
    outbox: "asyncio.Queue[Optional[bytes]]"
    pending: Set[str] = field(default_factory=set)
    total: int = 0
    leased: int = 0
    shared: int = 0
    store_hits: int = 0
    quarantined: int = 0
    expired: int = 0
    finished: bool = False

    def progress(self) -> List[int]:
        return [self.total - len(self.pending), self.total]

    def complete_message(self) -> bytes:
        return encode_message(
            MSG_COMPLETE, leased=self.leased, shared=self.shared,
            store=self.store_hits, quarantined=self.quarantined,
            expired=self.expired,
        )


class SweepServer:
    """Accept sweep submissions; dedupe them against the fleet."""

    def __init__(
        self,
        store: ResultStore,
        fleet: Fleet,
        socket_path: Optional[Path] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        watch_seconds: float = WATCH_SECONDS,
        max_line: int = MAX_LINE_BYTES,
        max_queue: Optional[int] = None,
        max_client_inflight: Optional[int] = None,
        retry_after: float = 0.05,
    ) -> None:
        self.store = store
        self.fleet = fleet
        self.socket_path = (Path(socket_path) if socket_path is not None
                            else store.serve_dir / "serve.sock")
        self.host = host
        self.port = port
        self.watch_seconds = watch_seconds
        self.max_line = int(max_line)
        #: Admission watermark: a submission is admitted only while the
        #: in-flight table holds fewer than this many hashes (then its
        #: whole batch is reserved — a watermark, not a hard size cap,
        #: because a cap smaller than one batch could never admit it).
        #: None = unbounded, the pre-hardening behaviour.
        self.max_queue = max_queue
        #: Per-client ceiling on outstanding (unresolved) hashes.
        self.max_client_inflight = max_client_inflight
        #: Deterministic base retry hint quoted in ``overloaded``
        #: messages; clients jitter and exponentiate from it.
        self.retry_after = float(retry_after)
        #: hash -> subscriptions awaiting it.  Only ever touched from
        #: the event loop, and reservation happens without awaiting.
        self._inflight: Dict[str, List[_Subscription]] = {}
        #: Live subscriptions, for per-client in-flight accounting.
        self._subs: List[_Subscription] = []
        #: hash -> absolute deadline, for hashes this server enqueued
        #: with one; tells the watcher when a sweep is worth running.
        self._deadlines: Dict[str, float] = {}
        self._queue_offset = 0
        # Lifetime accounting (logged on shutdown, asserted by tests).
        self.leased_total = 0
        self.shared_total = 0
        self.store_total = 0
        self.shed_total = 0
        self.quarantined_total = 0
        self.expired_total = 0

    # -- lifecycle ------------------------------------------------------------

    async def serve(self) -> None:
        """Listen until cancelled; unix socket always, TCP when asked."""
        await asyncio.to_thread(self._prepare_socket_dir)
        servers = [await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path), limit=self.max_line
        )]
        endpoints = [f"unix:{self.socket_path}"]
        if self.host is not None and self.port is not None:
            servers.append(await asyncio.start_server(
                self._handle, host=self.host, port=self.port,
                limit=self.max_line,
            ))
            endpoints.append(f"tcp:{self.host}:{self.port}")
        watcher = asyncio.ensure_future(self._watch())
        print(f"serve: listening on {', '.join(endpoints)}", file=sys.stderr)
        sys.stderr.flush()
        try:
            await asyncio.gather(*[s.serve_forever() for s in servers])
        finally:
            watcher.cancel()
            for server in servers:
                server.close()
            await asyncio.to_thread(self._remove_socket)

    def _prepare_socket_dir(self) -> None:
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        # A stale socket from a killed server would make bind() fail.
        self.socket_path.unlink(missing_ok=True)

    def _remove_socket(self) -> None:
        self.socket_path.unlink(missing_ok=True)

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        """One connection, one submission, streamed until complete."""
        # simlint: allow[SIM605] bounded by the submission's spec count, which admission control caps before anything is queued
        outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        sender = asyncio.ensure_future(self._send_loop(writer, outbox))
        try:
            try:
                line = await reader.readline()
            except ValueError:
                # The reader refuses to buffer a line past its limit
                # (it raises rather than returning a truncated line) —
                # answer with a protocol error instead of dying and
                # leaving the client a bare closed stream.
                outbox.put_nowait(encode_message(
                    MSG_ERROR,
                    message=(f"submission line exceeds the server's "
                             f"{self.max_line}-byte limit"),
                ))
                return
            if not line:
                return
            try:
                record = decode_message(line)
            except ProtocolError as exc:
                outbox.put_nowait(encode_message(MSG_ERROR, message=str(exc)))
                return
            if record.get("kind") != "submit":
                outbox.put_nowait(encode_message(
                    MSG_ERROR,
                    message=f"unexpected message kind {record.get('kind')!r}",
                ))
                return
            await self._submit(record, outbox)
            # The watcher resolves the subscription; sending the final
            # None (below, in _resolve) ends the sender loop.
            await sender
            sender = None  # type: ignore[assignment]
        finally:
            if sender is not None:
                await outbox.put(None)
                await sender

    async def _send_loop(
        self,
        writer: "asyncio.StreamWriter",
        outbox: "asyncio.Queue[Optional[bytes]]",
    ) -> None:
        """Drain one connection's outbox; None ends the stream."""
        try:
            while True:
                message = await outbox.get()
                if message is None:
                    break
                writer.write(message)
                await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # subscriber went away; nothing to stream to
        finally:
            try:
                writer.close()
            except OSError:
                pass

    # -- submission ------------------------------------------------------------

    async def _submit(
        self,
        record: Dict[str, Any],
        outbox: "asyncio.Queue[Optional[bytes]]",
    ) -> None:
        hashes = batch_hashes(record)
        if hashes is None:
            outbox.put_nowait(encode_message(
                MSG_ERROR, message="submission carries no spec payloads"))
            outbox.put_nowait(None)
            return
        payloads = record["specs"]
        client = str(record.get("client", "?"))
        deadline = record.get("deadline")
        deadline = float(deadline) if isinstance(deadline, (int, float)) \
            else None
        retry_failed = bool(record.get("retry_failed"))
        unique = len(set(hashes))

        if (self.max_client_inflight is not None
                and unique > self.max_client_inflight):
            # Bigger than the client's whole budget: retrying can never
            # help, so this is an error, not an overload.
            outbox.put_nowait(encode_message(
                MSG_ERROR,
                message=(f"submission of {unique} specs exceeds the "
                         f"per-client in-flight cap of "
                         f"{self.max_client_inflight}"),
            ))
            outbox.put_nowait(None)
            return
        # Admission control, checked synchronously before anything is
        # reserved (so a shed submission leaves no trace to unwind).
        shed_why = self._admission_refusal(client, unique)
        if shed_why is not None:
            self.shed_total += 1
            outbox.put_nowait(encode_message(
                MSG_OVERLOADED, retry_after=self.retry_after,
                message=shed_why,
            ))
            outbox.put_nowait(None)
            print(f"serve: shed {client}: {shed_why}", file=sys.stderr)
            sys.stderr.flush()
            return
        sub = _Subscription(client=client, outbox=outbox)
        self._subs.append(sub)

        # Reservation is synchronous: between here and the end of the
        # loop there is no await, so a concurrent submission of the
        # same hash sees this one's reservation or none — never a torn
        # half-reserved state that double-enqueues.
        owned: Dict[str, Dict[str, Any]] = {}
        for spec_hash, payload in zip(hashes, payloads):
            if spec_hash in sub.pending:
                continue  # in-batch duplicate
            sub.pending.add(spec_hash)
            waiting = self._inflight.get(spec_hash)
            if waiting is not None:
                waiting.append(sub)
                sub.shared += 1
            else:
                self._inflight[spec_hash] = [sub]
                owned[spec_hash] = payload
        sub.total = len(sub.pending)

        # Owned hashes: the store may already have them (a finished
        # sweep from any client, any time); the rest go to the fleet.
        to_enqueue: Dict[str, Dict[str, Any]] = {}
        for spec_hash, payload in owned.items():
            entry = await asyncio.to_thread(self._load_entry, spec_hash)
            if entry is not None:
                sub.store_hits += 1
                self._resolve_done(spec_hash, entry, source="store",
                                   seconds=0.0)
            else:
                to_enqueue[spec_hash] = payload
        if to_enqueue:
            appended = set(await asyncio.to_thread(
                self.fleet.enqueue, to_enqueue, deadline))
            sub.leased += len(appended)
            if deadline is not None:
                for spec_hash in appended:
                    self._deadlines[spec_hash] = deadline
            skipped = {spec_hash: payload
                       for spec_hash, payload in to_enqueue.items()
                       if spec_hash not in appended}
            if skipped:
                await self._adopt_skipped(skipped, sub, retry_failed)

        self.leased_total += sub.leased
        self.shared_total += sub.shared
        self.store_total += sub.store_hits
        outbox.put_nowait(encode_message(
            MSG_ACCEPTED, n=sub.total, leased=sub.leased,
            shared=sub.shared, store=sub.store_hits,
        ))
        print(
            f"serve: {client}: {sub.total} specs "
            f"({sub.leased} leased, {sub.shared} shared, "
            f"{sub.store_hits} store)",
            file=sys.stderr,
        )
        sys.stderr.flush()
        self._finish_if_complete(sub)

    def _admission_refusal(self, client: str, unique: int) -> Optional[str]:
        """Why this submission must be shed right now, or None to admit.

        Runs synchronously on the event loop against the same state the
        reservation loop uses, so admission and reservation cannot
        disagree.
        """
        if (self.max_queue is not None
                and len(self._inflight) >= self.max_queue):
            return (f"server at capacity ({len(self._inflight)} hashes "
                    f"in flight, watermark {self.max_queue})")
        if self.max_client_inflight is not None:
            outstanding = sum(
                len(s.pending) for s in self._subs
                if s.client == client and not s.finished
            )
            if outstanding + unique > self.max_client_inflight:
                return (f"client {client} has {outstanding} specs in "
                        f"flight; {unique} more would exceed its cap of "
                        f"{self.max_client_inflight}")
        return None

    async def _adopt_skipped(
        self,
        skipped: Dict[str, Dict[str, Any]],
        sub: _Subscription,
        retry_failed: bool = False,
    ) -> None:
        """Hashes the fleet already owns: resolve or re-open them.

        ``enqueue`` skips a hash that is already in the queue WAL.  A
        skipped hash that is still *pending* is genuinely shared work —
        a worker will resolve it and the watcher will stream it.  But a
        skipped hash that is already *resolved* would hang its
        subscribers forever: no worker touches it again and its
        ``done``/``failed`` record may sit before the watcher's offset.
        So the resolution is replayed from a fleet snapshot here: a
        ``done`` whose store entry still reads resolves immediately; a
        ``failed`` streams its recorded failure; a ``done`` whose store
        entry has been pruned is a broken promise — the spec is
        requeued so the fleet simulates it afresh.

        ``retry_failed`` (an explicit client request) re-opens recorded
        failures instead of replaying them: quarantined hashes are
        cleared (requeue + lease reset — without the reset the next
        claim would instantly re-trip the quarantine bound), plain
        failures are requeued.
        """
        snap = await asyncio.to_thread(self.fleet.snapshot)
        to_requeue: Dict[str, Dict[str, Any]] = {}
        to_clear: List[str] = []
        for spec_hash, payload in skipped.items():
            if spec_hash in snap.done:
                entry = await asyncio.to_thread(self._load_entry, spec_hash)
                if entry is not None:
                    sub.store_hits += 1
                    self._resolve_done(spec_hash, entry, source="store",
                                       seconds=0.0)
                else:
                    to_requeue[spec_hash] = payload
            elif spec_hash in snap.failures:
                if retry_failed:
                    if spec_hash in snap.quarantined:
                        to_clear.append(spec_hash)
                        sub.leased += 1
                    else:
                        to_requeue[spec_hash] = payload
                else:
                    sub.shared += 1
                    self._resolve_failed(
                        spec_hash, snap.failures[spec_hash].describe(),
                        quarantined=spec_hash in snap.quarantined,
                        expired=spec_hash in snap.expired,
                    )
            else:
                sub.shared += 1  # pending: already in flight fleet-wide
        if to_clear:
            await asyncio.to_thread(self.fleet.clear_quarantine, to_clear)
        if to_requeue:
            reopened = await asyncio.to_thread(self.fleet.requeue,
                                               to_requeue)
            sub.leased += len(reopened)
            # Not reopened means another front-end requeued it first —
            # the work is in flight again either way; share it.
            sub.shared += len(to_requeue) - len(reopened)

    # -- resolution ------------------------------------------------------------

    async def _watch(self) -> None:
        """Tail the queue WAL; resolve subscribers as workers finish.

        Also the deadline sweeper: when any hash this server enqueued
        with a deadline comes due, one fleet transaction expires every
        pending, unleased spec past its deadline — the resulting
        ``expired`` records flow back through this very tail and
        resolve the subscribers.
        """
        while True:
            await self._sweep_deadlines()
            records, self._queue_offset = await asyncio.to_thread(
                journal.read_tail, self.fleet.queue_path, self._queue_offset
            )
            for record in records:
                kind = record.get("kind")
                spec_hash = str(record.get("spec", ""))
                if not spec_hash or spec_hash not in self._inflight:
                    continue
                if kind == KIND_DONE:
                    entry = await asyncio.to_thread(
                        self._load_entry, spec_hash
                    )
                    if entry is None:
                        # Promised by the WAL but unreadable: a broken
                        # promise, not a verdict — requeue so the fleet
                        # simulates it afresh (the quarantine bound
                        # caps how often a rotting entry can recycle).
                        await self._requeue_broken(spec_hash)
                        continue
                    self._resolve_done(
                        spec_hash, entry, source="simulated",
                        seconds=float(record.get("seconds", 0.0)),
                    )
                elif kind == KIND_FAILED:
                    failure = record.get("failure")
                    if isinstance(failure, dict):
                        self._resolve_failed(spec_hash, failure)
                elif kind == KIND_QUARANTINE:
                    failure = record.get("failure")
                    if isinstance(failure, dict):
                        self.quarantined_total += 1
                        print(f"serve: quarantined poison spec "
                              f"{spec_hash[:12]}…", file=sys.stderr)
                        sys.stderr.flush()
                        self._resolve_failed(spec_hash, failure,
                                             quarantined=True)
                elif kind == KIND_EXPIRED:
                    failure = record.get("failure")
                    if isinstance(failure, dict):
                        self.expired_total += 1
                        self._resolve_failed(spec_hash, failure,
                                             expired=True)
            await asyncio.sleep(self.watch_seconds)

    async def _sweep_deadlines(self) -> None:
        """Expire undispatched past-deadline work (watcher tick half)."""
        if not self._deadlines:
            return
        now = time.time()
        due = [spec_hash for spec_hash, deadline in self._deadlines.items()
               if deadline <= now]
        if not due:
            return
        # One transaction covers every due hash; a due hash that is
        # leased right now is legitimately running (claimed in time)
        # and resolves through its worker instead.
        await asyncio.to_thread(self.fleet.expire_deadlines)
        for spec_hash in due:
            self._deadlines.pop(spec_hash, None)

    async def _requeue_broken(self, spec_hash: str) -> None:
        """Re-open a ``done`` spec whose promised entry no longer reads."""
        snap = await asyncio.to_thread(self.fleet.snapshot)
        payload = snap.enqueued.get(spec_hash)
        if payload is None:
            # No payload to re-run from: surface the broken promise as
            # a failure rather than hanging the subscribers.
            self._resolve_failed(spec_hash, {
                "spec_hash": spec_hash,
                "benchmark": "?", "mechanism": "?",
                "attempts": 1,
                "error": "result store entry unreadable",
            })
            return
        await asyncio.to_thread(self.fleet.requeue, {spec_hash: payload})

    def _resolve_done(
        self,
        spec_hash: str,
        entry: Dict[str, Any],
        source: str,
        seconds: float,
    ) -> None:
        """Stream one finished spec to every subscriber (event loop only)."""
        result_payload = entry["result"]
        self._deadlines.pop(spec_hash, None)
        try:
            result = RunResult(**result_payload)
            harvest_result(result)
            metrics = derive_metrics(result)
        except (TypeError, ValueError):
            metrics = {}
        for sub in self._inflight.pop(spec_hash, []):
            if spec_hash not in sub.pending:
                continue
            sub.pending.discard(spec_hash)
            sub.outbox.put_nowait(encode_message(
                MSG_RESULT, spec=spec_hash, source=source,
                seconds=round(seconds, 6), result=result_payload,
                metrics=metrics, progress=sub.progress(),
            ))
            self._finish_if_complete(sub)

    def _resolve_failed(
        self, spec_hash: str, failure: Dict[str, Any],
        quarantined: bool = False, expired: bool = False,
    ) -> None:
        self._deadlines.pop(spec_hash, None)
        for sub in self._inflight.pop(spec_hash, []):
            if spec_hash not in sub.pending:
                continue
            sub.pending.discard(spec_hash)
            if quarantined:
                sub.quarantined += 1
            if expired:
                sub.expired += 1
            sub.outbox.put_nowait(encode_message(
                MSG_FAILED, spec=spec_hash, failure=failure,
                progress=sub.progress(),
            ))
            self._finish_if_complete(sub)

    def _finish_if_complete(self, sub: _Subscription) -> None:
        # Idempotent: resolutions inside _submit and the final check at
        # its tail may both observe the empty pending set.
        if not sub.pending and not sub.finished:
            sub.finished = True
            sub.outbox.put_nowait(sub.complete_message())
            sub.outbox.put_nowait(None)
            try:
                self._subs.remove(sub)
            except ValueError:
                pass

    # -- store access (thread side) --------------------------------------------

    def _load_entry(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The verified store entry for ``spec_hash``, or None.

        Runs in a worker thread.  Uses the store's own offline
        verification (parse, version, checksum, addressing) so a rotted
        entry is a miss that re-simulates, exactly as ``get`` would
        treat it — the service never streams a result the store could
        not vouch for.
        """
        for path in (self.store.shard_path(spec_hash),
                     self.store.flat_path(spec_hash)):
            if self.store.verify_entry(path) is None:
                try:
                    payload = json.loads(path.read_text("utf-8"))
                except (OSError, ValueError):
                    # Vanished (or rotted) between verify and read:
                    # fall through to the other layout rather than
                    # declaring a miss the flat path could still serve.
                    continue
                if isinstance(payload, dict):
                    return payload
        return None
