"""Client side: a blocking submitter and the drop-in ServeExecutor.

:class:`SweepClient` is deliberately synchronous — the CLI and the
executor it serves are synchronous, and one submission is one
connection: connect, send the ``submit`` line, read streamed
``result``/``failed`` messages until ``complete``.  Messages arrive in
resolution order; the client indexes them by content hash, so callers
reassemble their own submission order trivially.

:class:`ServeExecutor` is the headline integration: a subclass of
:class:`~repro.exec.executor.Executor` that overrides **only** the
simulation fan-out.  Memoisation, store read-through, batch dedupe,
ordering, ``run_sweep`` grid assembly — every layer above
``_simulate`` is inherited unchanged, which is what makes
``python -m repro fig10 --serve SOCK`` produce byte-identical stdout
to the single-process path: the same specs resolve to the same
content-addressed results through the same rendering code; only *who
simulated them* differs.  Fleet accounting lands in the telemetry
(``leased``/``shared``) and surfaces in the stderr summary line only
when nonzero.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.results import RunResult
from repro.exec.executor import Executor
from repro.exec.faults import stable_fraction
from repro.exec.policy import FailedRun
from repro.exec.runspec import RunSpec
from repro.exec.telemetry import SOURCE_SIMULATED, SOURCE_STORE
from repro.serve.protocol import (
    MSG_ACCEPTED,
    MSG_COMPLETE,
    MSG_ERROR,
    MSG_FAILED,
    MSG_OVERLOADED,
    MSG_RESULT,
    ProtocolError,
    decode_message,
    submit_message,
)

#: Default per-connection socket timeout, seconds.  Generous: a cold
#: fleet may take a while to chew through a large sweep; None disables.
DEFAULT_TIMEOUT = 600.0

#: How many ``overloaded`` sheds one submission rides out before giving
#: up.  Generous on purpose: with exponential backoff this spans far
#: longer than any transient burst, while still bounding a submission
#: against a server that will never have room.
MAX_SHED_RETRIES = 50

#: Ceiling on any single backoff sleep, seconds.
BACKOFF_CAP = 2.0


class ServeUnavailable(ConnectionError):
    """The sweep service could not be reached or refused the submission."""


@dataclass
class SubmitOutcome:
    """Everything one submission resolved, indexed by content hash."""

    results: Dict[str, RunResult] = field(default_factory=dict)
    failures: Dict[str, FailedRun] = field(default_factory=dict)
    #: hash -> the server's source tag ("simulated" | "store").
    sources: Dict[str, str] = field(default_factory=dict)
    #: hash -> fleet simulation wall seconds (0 for store answers).
    seconds: Dict[str, float] = field(default_factory=dict)
    leased: int = 0
    shared: int = 0
    store_hits: int = 0
    #: ``overloaded`` refusals absorbed (and retried) on the way in.
    shed: int = 0
    #: Holes resolved by a fleet quarantine record (kind ``poison``).
    quarantined: int = 0
    #: Holes resolved by a deadline-expiry record (kind ``timeout``).
    expired: int = 0


class SweepClient:
    """One submission per connection over the server's unix socket."""

    def __init__(
        self,
        socket_path: str,
        client_id: str = "client",
        timeout: Optional[float] = DEFAULT_TIMEOUT,
    ) -> None:
        self.socket_path = socket_path
        self.client_id = client_id
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(self.timeout)
        try:
            conn.connect(self.socket_path)
        except OSError as exc:
            conn.close()
            raise ServeUnavailable(
                f"cannot reach the sweep service at {self.socket_path}: "
                f"{exc}"
            ) from None
        return conn

    def submit(
        self,
        specs: Sequence[RunSpec],
        deadline: Optional[float] = None,
        retry_failed: bool = False,
    ) -> SubmitOutcome:
        """Submit ``specs``; block until every unique hash resolves.

        An ``overloaded`` answer is not a failure: the server quoted a
        deterministic ``retry_after`` and reserved nothing, so the
        client sleeps a seeded, exponentially growing backoff (jittered
        per client so a shed burst does not re-arrive in lockstep) and
        resubmits, up to :data:`MAX_SHED_RETRIES` times.

        ``deadline`` is absolute epoch seconds: specs the fleet cannot
        start by then come back as ``kind="timeout"`` holes.
        ``retry_failed`` asks the server to re-open recorded failures
        (quarantined specs included) instead of replaying them.
        """
        outcome = SubmitOutcome()
        if not specs:
            return outcome
        message = submit_message(list(specs), self.client_id,
                                 deadline=deadline,
                                 retry_failed=retry_failed)
        attempt = 0
        while True:
            attempt += 1
            conn = self._connect()
            try:
                conn.sendall(message)
                stream = conn.makefile("rb")
                try:
                    retry_after = self._read_stream(stream, outcome)
                finally:
                    stream.close()
            finally:
                conn.close()
            if retry_after is None:
                return outcome
            outcome.shed += 1
            if attempt >= MAX_SHED_RETRIES:
                raise ServeUnavailable(
                    f"server still overloaded after {attempt} submission "
                    "attempts"
                )
            time.sleep(self._backoff(retry_after, attempt))

    def _backoff(self, retry_after: float, attempt: int) -> float:
        """Seconds to wait after shed number ``attempt``.

        Deterministic: exponential in the attempt with a [0, 1)-scaled
        jitter from a SHA-256 of (client id, attempt) — same discipline
        as the retry policy's backoff — so overload tests converge
        identically run to run, yet distinct clients never hammer back
        in lockstep.
        """
        base = max(retry_after, 0.001)
        raw = base * (2.0 ** (attempt - 1))
        jitter = stable_fraction(f"{self.client_id}:shed:{attempt}")
        return min(raw * (1.0 + jitter), BACKOFF_CAP)

    def _read_stream(self, stream, outcome: SubmitOutcome) -> Optional[float]:
        while True:
            line = stream.readline()
            if not line:
                raise ServeUnavailable(
                    "server closed the stream before completing the "
                    "submission"
                )
            record = decode_message(line)
            kind = record["kind"]
            if kind == MSG_ACCEPTED:
                continue
            if kind == MSG_RESULT:
                spec_hash = str(record.get("spec", ""))
                try:
                    outcome.results[spec_hash] = RunResult(**record["result"])
                except (KeyError, TypeError) as exc:
                    raise ProtocolError(
                        f"unusable result payload for {spec_hash[:12]}…: "
                        f"{exc!r}"
                    ) from None
                outcome.sources[spec_hash] = str(
                    record.get("source", "simulated"))
                outcome.seconds[spec_hash] = float(record.get("seconds", 0.0))
                continue
            if kind == MSG_FAILED:
                spec_hash = str(record.get("spec", ""))
                failure = record.get("failure")
                if isinstance(failure, dict):
                    try:
                        outcome.failures[spec_hash] = FailedRun.from_dict(
                            failure)
                        continue
                    except TypeError:
                        pass
                outcome.failures[spec_hash] = FailedRun(
                    spec_hash=spec_hash, benchmark="?", mechanism="?",
                    attempts=1, error="fleet reported an unparseable failure",
                )
                continue
            if kind == MSG_COMPLETE:
                outcome.leased = int(record.get("leased", 0))
                outcome.shared = int(record.get("shared", 0))
                outcome.store_hits = int(record.get("store", 0))
                outcome.quarantined = int(record.get("quarantined", 0))
                outcome.expired = int(record.get("expired", 0))
                return None
            if kind == MSG_OVERLOADED:
                # Nothing was reserved; the caller backs off and
                # resubmits the whole message.
                return float(record.get("retry_after", 0.05))
            if kind == MSG_ERROR:
                raise ServeUnavailable(
                    f"server rejected the submission: {record.get('message')}"
                )
            # Unknown-but-versioned kinds are skipped: an older client
            # keeps working against a server that streams more detail.


class ServeExecutor(Executor):
    """An :class:`Executor` whose simulations run on the fleet.

    Only ``_simulate`` differs from the parent: instead of running a
    local fleet, unresolved specs are submitted to the sweep service
    and the streamed results are absorbed through the same path the
    parent uses for results another process stored.  Everything observable
    above this layer — result values, ordering, exhibit stdout — is
    identical by construction.  The client journals nothing: the
    fleet's queue/lease WALs own durability.
    """

    def __init__(
        self,
        socket_path: str,
        client_id: str = "client",
        deadline: Optional[float] = None,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.client = SweepClient(socket_path=socket_path,
                                  client_id=client_id)
        #: Relative seconds granted per submission; converted to the
        #: absolute wire deadline at submit time.  None = no deadline.
        self.deadline = deadline

    def _simulate(self, specs: List[RunSpec]) -> None:
        absolute = (time.time() + self.deadline
                    if self.deadline is not None else None)
        outcome = self.client.submit(specs, deadline=absolute,
                                     retry_failed=self.retry_failed)
        self.telemetry.leased += outcome.leased
        self.telemetry.shared += outcome.shared
        self.telemetry.shed += outcome.shed
        self.telemetry.quarantined += outcome.quarantined
        self.telemetry.expired += outcome.expired
        total = len(specs)
        for done, spec in enumerate(specs, 1):
            key = spec.content_hash
            result = outcome.results.get(key)
            if result is not None:
                fleet_simulated = outcome.sources.get(key) != "store"
                self._absorb(
                    spec, result,
                    SOURCE_SIMULATED if fleet_simulated else SOURCE_STORE,
                    outcome.seconds.get(key, 0.0) if fleet_simulated else 0.0,
                    done, total)
                continue
            failure = outcome.failures.get(key)
            if failure is None:
                failure = FailedRun(
                    spec_hash=key, benchmark=spec.benchmark,
                    mechanism=spec.mechanism, attempts=1,
                    error="submission completed without resolving this spec",
                )
            self._absorb_failure(spec, failure, done, total)
