"""The sweep server: one thread per submission, waiting on the fleet queue.

:class:`SweepServer` listens on a unix socket
(:class:`socketserver.ThreadingUnixStreamServer`, one daemon thread per
connection).  A connection carries one submission — one ``submit``
line of spec payloads — and streams its answers back on the same
socket.  Each submitted hash resolves in this order:

1. **store** — the shared content-addressed store already holds a
   verified entry (``store`` hit);
2. **fleet** — the hash is enqueued (``leased``).
   :meth:`~repro.exec.fleet.Fleet.enqueue` skips, under the fleet lock,
   any hash already on the queue, which is what turns overlapping
   submissions into shared work: a skipped hash still pending is
   ``shared`` (whichever worker claims it resolves every submission
   waiting on it), and one already resolved is answered or reopened
   from a fleet snapshot (:meth:`SweepServer._adopt_skipped`).

Results come back through the queue, not a side channel: the handler
waits exactly as the ``--jobs N`` driver does, polling
:meth:`~repro.exec.fleet.Fleet.tail` from the queue offset it recorded
before looking anything up, and streams one ``result``/``failed`` line
per resolution — payload, wall seconds, per-submission progress — then
a final ``complete`` carrying its dedupe accounting.

Production hardening (see docs/service.md, "Overload, poison specs &
deadlines"): admission control sheds a submission with a deterministic
``overloaded`` retry hint while the live submissions await
``--max-queue`` hashes or more, or when its client would exceed
``--max-client-inflight``; a handler whose submission deadline has
passed expires the fleet's undispatched past-deadline work; and
``quarantine``/``expired`` queue records stream as annotated
``FailedRun`` holes exactly like worker failures do.
"""

from __future__ import annotations

import os
import socketserver
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.exec import journal
from repro.exec.fleet import KIND_EXPIRED, KIND_QUARANTINE, Fleet, Resolution
from repro.exec.store import ResultStore
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

#: How often a waiting submission polls the queue, seconds.
POLL_SECONDS = 0.05

#: Longest accepted request line: a submission of a few thousand specs
#: is legitimate; an unbounded line is a memory hostage.
MAX_LINE_BYTES = 64 << 20


@dataclass
class _Submission:
    """One live submission: what it still awaits, and its accounting."""

    client: str
    #: hash -> payload of every spec not yet answered.
    awaited: Dict[str, Dict[str, Any]]
    #: Writes one wire line to the submission's socket.
    send: Callable[[bytes], None]
    total: int = 0
    leased: int = 0
    shared: int = 0
    store_hits: int = 0
    quarantined: int = 0
    expired: int = 0

    def progress(self) -> List[int]:
        return [self.total - len(self.awaited), self.total]


class SweepServer(socketserver.ThreadingUnixStreamServer):
    """Accept sweep submissions; each waits on the fleet in its own thread.

    Binds ``socket_path`` (default ``<cache>/serve/serve.sock``) on
    construction; :meth:`serve_forever` accepts until :meth:`shutdown`
    or a ``KeyboardInterrupt``, and :meth:`server_close` releases every
    waiting handler without joining it, so a stopped server never waits
    on a live submission.
    """

    daemon_threads = True
    block_on_close = False
    #: Connections the kernel queues before an accept (socketserver's
    #: default of 5 refuses a burst of concurrent clients).
    request_queue_size = 100

    def __init__(
        self,
        store: ResultStore,
        fleet: Fleet,
        socket_path: Optional[Path] = None,
        poll_seconds: float = POLL_SECONDS,
        max_line: int = MAX_LINE_BYTES,
        max_queue: Optional[int] = None,
        max_client_inflight: Optional[int] = None,
        retry_after: float = 0.05,
    ) -> None:
        self.store = store
        self.fleet = fleet
        self.socket_path = (Path(socket_path) if socket_path is not None
                            else store.serve_dir / "serve.sock")
        self.poll_seconds = poll_seconds
        self.max_line = int(max_line)
        #: Admission watermark: a submission is admitted only while the
        #: live submissions await fewer than this many distinct hashes
        #: (then its whole batch is admitted — a watermark, not a hard
        #: size cap, because a cap smaller than one batch could never
        #: admit it).  None = unbounded.
        self.max_queue = max_queue
        #: Per-client ceiling on outstanding (unanswered) hashes.
        self.max_client_inflight = max_client_inflight
        #: Deterministic base retry hint quoted in ``overloaded``
        #: messages; clients jitter and exponentiate from it.
        self.retry_after = float(retry_after)
        #: Guards the live submissions (their ``awaited`` sets change
        #: only under it) and the lifetime totals.
        self._lock = threading.Lock()
        self._live: List[_Submission] = []
        #: Set by :meth:`server_close`: every waiting handler returns.
        self._closed = threading.Event()
        # Lifetime accounting (logged on shutdown, asserted by tests).
        self.leased_total = 0
        self.shared_total = 0
        self.store_total = 0
        self.shed_total = 0
        self.quarantined_total = 0
        self.expired_total = 0
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        # A stale socket from a killed server would make bind() fail.
        self.socket_path.unlink(missing_ok=True)
        # No handler class is ever built: finish_request serves each
        # connection itself.
        super().__init__(str(self.socket_path),
                         socketserver.BaseRequestHandler)

    def server_close(self) -> None:
        """Stop listening; every waiting handler returns, unanswered."""
        self._closed.set()
        super().server_close()
        self.socket_path.unlink(missing_ok=True)

    # -- one connection, one submission ---------------------------------------

    def finish_request(self, request: Any, client_address: Any) -> None:
        """Read one submission line and stream its answers back."""
        try:
            with request.makefile("rb") as reader:
                line = reader.readline(self.max_line + 1)
            try:
                if len(line) > self.max_line:
                    raise ProtocolError(
                        f"submission line exceeds the server's "
                        f"{self.max_line}-byte limit")
                if line:
                    self._submit(line, request.sendall)
            except ProtocolError as exc:
                # Refused with its reason, not a bare closed stream.
                request.sendall(encode_message(MSG_ERROR, message=str(exc)))
        except ConnectionError:
            pass  # the client went away; nothing to stream to

    def _submit(self, line: bytes, send: Callable[[bytes], None]) -> None:
        record = decode_message(line)
        if record.get("kind") != "submit":
            raise ProtocolError(
                f"unexpected message kind {record.get('kind')!r}")
        hashes = batch_hashes(record)
        if hashes is None:
            raise ProtocolError("submission carries no spec payloads")
        client = str(record.get("client", "?"))
        awaited = dict(zip(hashes, record["specs"]))
        sub = _Submission(client, awaited, send, total=len(awaited))
        if (self.max_client_inflight is not None
                and sub.total > self.max_client_inflight):
            # Bigger than the client's whole budget: retrying can never
            # help, so this is an error, not an overload.
            raise ProtocolError(
                f"submission of {sub.total} specs exceeds the per-client "
                f"in-flight cap of {self.max_client_inflight}")
        # Admission and registration are one step under the lock, so
        # two racing submissions cannot both slip under the watermark.
        with self._lock:
            shed_why = self._admission_refusal(client, sub.total)
            if shed_why is None:
                self._live.append(sub)
            else:
                self.shed_total += 1
        if shed_why is not None:
            send(encode_message(MSG_OVERLOADED,
                                retry_after=self.retry_after,
                                message=shed_why))
            print(f"serve: shed {client}: {shed_why}", file=sys.stderr,
                  flush=True)
            return
        deadline = record.get("deadline")
        try:
            self._serve(
                sub, bool(record.get("retry_failed")),
                float(deadline) if isinstance(deadline, (int, float))
                else None)
        finally:
            with self._lock:
                self._live.remove(sub)

    def _admission_refusal(self, client: str, unique: int) -> Optional[str]:
        """Why this submission must be shed right now, or None to admit
        (caller holds the lock)."""
        if self.max_queue is not None:
            in_flight = len(set().union(*(s.awaited for s in self._live)))
            if in_flight >= self.max_queue:
                return (f"server at capacity ({in_flight} hashes in "
                        f"flight, watermark {self.max_queue})")
        if self.max_client_inflight is not None:
            outstanding = sum(len(s.awaited) for s in self._live
                              if s.client == client)
            if outstanding + unique > self.max_client_inflight:
                return (f"client {client} has {outstanding} specs in "
                        f"flight; {unique} more would exceed its cap of "
                        f"{self.max_client_inflight}")
        return None

    def _serve(self, sub: _Submission, retry_failed: bool,
               deadline: Optional[float]) -> None:
        """Answer, enqueue, then stream resolutions until complete."""
        # Every resolution appended past this offset reaches the tail
        # below; an older one is in the store or in the snapshot that
        # adoption reads.  Appends hold the queue's lock, so the offset
        # falls on a record boundary.
        with journal.locked(self.fleet.queue_path) as fd:
            offset = os.fstat(fd).st_size
        for spec_hash in list(sub.awaited):
            entry = self._load_entry(spec_hash)
            if entry is not None:
                self._store_answer(sub, spec_hash, entry)
        if sub.awaited:
            appended = set(self.fleet.enqueue(sub.awaited, deadline))
            sub.leased += len(appended)
            skipped = {spec_hash: payload
                       for spec_hash, payload in sub.awaited.items()
                       if spec_hash not in appended}
            if skipped:
                self._adopt_skipped(skipped, sub, retry_failed)
        with self._lock:
            self.leased_total += sub.leased
            self.shared_total += sub.shared
            self.store_total += sub.store_hits
        sub.send(encode_message(MSG_ACCEPTED, n=sub.total,
                                leased=sub.leased, shared=sub.shared,
                                store=sub.store_hits))
        print(f"serve: {sub.client}: {sub.total} specs ({sub.leased} "
              f"leased, {sub.shared} shared, {sub.store_hits} store)",
              file=sys.stderr, flush=True)
        while sub.awaited and not self._closed.is_set():
            if deadline is not None and deadline <= time.time():
                # One fleet transaction expires every pending, unleased
                # spec past its deadline, even when no worker shows up
                # to trip the claim's check; a due spec leased right
                # now resolves through its worker.
                self.fleet.expire_deadlines()
                deadline = None
            start = offset
            resolutions, offset = self.fleet.tail(offset, sub.awaited,
                                                  self._load_entry)
            for resolution in resolutions:
                self._stream(sub, resolution)
            if offset == start:
                self._closed.wait(self.poll_seconds)
        if not sub.awaited:
            sub.send(encode_message(
                MSG_COMPLETE, leased=sub.leased, shared=sub.shared,
                store=sub.store_hits, quarantined=sub.quarantined,
                expired=sub.expired))

    def _adopt_skipped(
        self,
        skipped: Dict[str, Dict[str, Any]],
        sub: _Submission,
        retry_failed: bool,
    ) -> None:
        """Hashes the fleet already owns: share, answer or reopen them.

        ``enqueue`` skips a hash that is already on the queue.  One
        still *pending* is shared work: a worker will resolve it and the
        tail will stream it.  One already *resolved* would never be
        resolved again, so a fleet snapshot answers it here: a ``done``
        whose store entry still reads is a store answer; a recorded
        failure streams as its hole; a ``done`` whose store entry has
        been pruned is a broken promise, and the spec is requeued so the
        fleet simulates it afresh.

        ``retry_failed`` (an explicit client request) reopens recorded
        failures instead of replaying them: quarantined hashes are
        cleared (requeue + lease reset — without the reset the next
        claim would instantly re-trip the quarantine bound), plain
        failures are requeued.
        """
        snap = self.fleet.snapshot()
        to_requeue: Dict[str, Dict[str, Any]] = {}
        to_clear: List[str] = []
        for spec_hash, payload in skipped.items():
            if spec_hash in snap.done:
                entry = self._load_entry(spec_hash)
                if entry is not None:
                    self._store_answer(sub, spec_hash, entry)
                else:
                    to_requeue[spec_hash] = payload
            elif spec_hash in snap.failures:
                if not retry_failed:
                    sub.shared += 1
                    sub.quarantined += spec_hash in snap.quarantined
                    sub.expired += spec_hash in snap.expired
                    self._answer(sub, spec_hash, MSG_FAILED,
                                 failure=snap.failures[spec_hash].describe())
                elif spec_hash in snap.quarantined:
                    to_clear.append(spec_hash)
                    sub.leased += 1
                else:
                    to_requeue[spec_hash] = payload
            else:
                sub.shared += 1  # pending: already in flight fleet-wide
        if to_clear:
            self.fleet.clear_quarantine(to_clear)
        if to_requeue:
            reopened = self.fleet.requeue(to_requeue)
            sub.leased += len(reopened)
            # Not reopened means another submission requeued it first —
            # the work is in flight again either way; share it.
            sub.shared += len(to_requeue) - len(reopened)

    # -- answers ----------------------------------------------------------------

    def _stream(self, sub: _Submission, resolution: Resolution) -> None:
        """Stream one resolution the tail read."""
        spec_hash, record = resolution.spec_hash, resolution.record
        if resolution.result is not None:
            self._answer(sub, spec_hash, MSG_RESULT, source="simulated",
                         seconds=round(float(record.get("seconds", 0.0)), 6),
                         result=resolution.result["result"])
            return
        quarantined = record.get("kind") == KIND_QUARANTINE
        expired = record.get("kind") == KIND_EXPIRED
        sub.quarantined += quarantined
        sub.expired += expired
        if self._answer(sub, spec_hash, MSG_FAILED,
                        failure=record["failure"]):
            # Counted once per record: by the last live submission to
            # stream it.
            with self._lock:
                self.quarantined_total += quarantined
                self.expired_total += expired
            if quarantined:
                print(f"serve: quarantined poison spec {spec_hash[:12]}…",
                      file=sys.stderr, flush=True)

    def _store_answer(self, sub: _Submission, spec_hash: str,
                      entry: Dict[str, Any]) -> None:
        sub.store_hits += 1
        self._answer(sub, spec_hash, MSG_RESULT, source="store", seconds=0.0,
                     result=entry["result"])

    def _answer(self, sub: _Submission, spec_hash: str, kind: str,
                **fields: Any) -> bool:
        """Stream one ``result``/``failed`` line for ``spec_hash``; True
        when no other live submission still awaits the spec."""
        with self._lock:
            del sub.awaited[spec_hash]
            last = not any(spec_hash in other.awaited
                           for other in self._live)
        sub.send(encode_message(kind, spec=spec_hash,
                                progress=sub.progress(), **fields))
        return last

    def _load_entry(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The verified store entry for ``spec_hash``, or None.

        One read of the shard entry under the store's own offline
        verification (parse, version, checksum, addressing), so a
        rotted entry is a miss that re-simulates, exactly as ``get``
        would treat it — the service never streams a result the store
        could not vouch for.
        """
        return self.store.read_entry(self.store.shard_path(spec_hash))[0]
