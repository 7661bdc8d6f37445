"""The one JSON-lines log format, and the sweep journal written in it.

Every durable log in the tree is a file in this format, and this module
is the only code that reads or writes one:

* the sweep journals, ``<cache>/journal/<sweep_id[:16]>.jsonl`` (below);
* fsck's audit trail, ``<cache>/journal/fsck.jsonl``
  (``python -m repro.exec fsck``);
* the fleet's queue and lease WALs, ``<cache>/serve/queue.jsonl`` and
  ``leases.jsonl`` (:mod:`repro.serve.fleet`);
* the benchmark ledger, ``BENCH_obs.json`` (:mod:`repro.obs.ledger`).

Format and guarantees
---------------------
One JSON object per line (``sort_keys``), append-only.  Records of
every log but the ledger carry a version ``v`` and a ``kind``
(:func:`versioned`); each log owns its vocabulary of kinds.

* :func:`append_record` writes one line under an exclusive ``flock``
  with a single ``write`` + ``fsync``, so concurrent appenders
  serialise and a crash corrupts at most the final line.  An
  ``OSError`` mid-write (a full disk) truncates the file back to its
  pre-append size before re-raising, so no unterminated tear survives
  to swallow the next record.
* :func:`replay` decodes each line on its own: a torn line, a
  non-UTF-8 byte, a non-object or a record with a newer ``v`` costs
  that line only, and the numbers of the skipped lines are returned.
* :func:`read_tail` reads only complete lines past a byte offset, so a
  poller never half-reads a record a writer is mid-append on.
* :class:`Outcomes` folds ``done`` and failure records
  last-record-wins per spec; ``--resume`` (:func:`read_state`) and
  :meth:`~repro.serve.fleet.Fleet.snapshot` both read through it.

The two log fault kinds are performed here; :mod:`repro.exec.faults`
only decides when they fire.  ``disk-full`` writes half the line and
raises ``OSError(ENOSPC)``, which the rollback undoes.
``corrupt-journal`` lands the line with its tail dropped but
newline-terminated, as a crash mid-``write`` would leave it, so replay
skips exactly that record.

The sweep journal
-----------------
A long sweep's orchestrating driver is routinely killed (OOM killer, a
scheduler's SIGTERM, Ctrl-C, a host reboot).  Before and after every
unit of work the executor appends one record describing the transition,
so a killed driver leaves a readable record of exactly which specs
finished (``done``), which exhausted every attempt (``failed`` /
``timeout``) and which were merely in flight.  ``--resume`` replays
it: finished specs resolve from the journal + result store without
re-dispatch, persisted failures are served as
:class:`~repro.exec.policy.FailedRun` holes instead of silently
re-running exhausted specs, and the resumed grid is bit-identical to an
uninterrupted run because results are the same content-addressed
payloads either way.  A record that fails to replay simply re-runs its
spec.

A journal belongs to one *sweep*: the SHA-256 of the ordered spec-hash
list plus the retry policy (:func:`sweep_identity`).  Re-submitting the
same batch — same specs, same order, same policy — therefore finds the
same journal file, which is what makes ``--resume`` safe: it can never
replay a journal onto a different workload.

Record kinds (the ``kind`` field)::

    sweep-start      identity, spec counts, policy     (first line)
    planned          one per unique spec, in order
    dispatched       one per attempt handed to a worker
    done             the spec resolved to a RunResult (source says how)
    failed|timeout   the spec exhausted every attempt; carries the
                     full FailedRun payload so resume can serve it
    interrupted      a graceful signal shutdown flushed and stopped
    sweep-complete   every spec resolved; the journal is finished
    fsck             a store repair report (in ``fsck.jsonl`` only)
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

try:
    import fcntl
except ImportError:  # non-POSIX: appends fall back to O_APPEND atomicity
    fcntl = None  # type: ignore[assignment]

from repro.exec.faults import FaultPlan, should_corrupt_journal
from repro.exec.policy import FailedRun, RetryPolicy

#: Bump when a record layout changes incompatibly; replay skips records
#: with a newer ``v`` rather than mis-parsing them.
JOURNAL_VERSION = 1

#: fsck's audit trail: lives beside the sweep journals, is not one.
FSCK_LOG = "fsck.jsonl"

KIND_START = "sweep-start"
KIND_PLANNED = "planned"
KIND_DISPATCHED = "dispatched"
KIND_DONE = "done"
KIND_FAILED = "failed"
KIND_TIMEOUT = "timeout"
KIND_INTERRUPTED = "interrupted"
KIND_COMPLETE = "sweep-complete"
KIND_FSCK = "fsck"


# -- the log format -----------------------------------------------------------

def versioned(kind: str, **fields: Any) -> Dict[str, Any]:
    """A ``kind`` record in the versioned layout every log but the ledger
    uses."""
    return {"v": JOURNAL_VERSION, "kind": kind, **fields}


def append_record(path: Union[str, Path], record: Dict[str, Any],
                  tear: Optional[str] = None) -> None:
    """Durably append ``record`` as one line; crash-safe at every byte.

    ``tear`` names a log fault the caller's schedule decided on —
    ``"disk-full"`` or ``"corrupt-journal"`` (see the module docs).
    """
    line = json.dumps(record, sort_keys=True).encode("utf-8")
    assert b"\n" not in line  # one record is always exactly one line
    if tear == "corrupt-journal":
        line = line[: len(line) - len(line) // 2]
    with locked(path) as fd:
        start = os.fstat(fd).st_size
        try:
            if tear == "disk-full":
                os.write(fd, line[: max(1, len(line) // 2)])
                raise OSError(errno.ENOSPC, "injected disk-full (chaos) "
                              f"appending to {Path(path).name}")
            data = memoryview(line + b"\n")
            while data:
                data = data[os.write(fd, data):]
            os.fsync(fd)
        except OSError:
            _truncate(fd, start)
            raise


@contextmanager
def locked(path: Union[str, Path]) -> Iterator[int]:
    """Hold an exclusive ``flock`` on ``path`` (created for appending).

    Yields the descriptor.  A killed holder releases the lock with it,
    so a dead process can never wedge the others.  The explicit unlock
    also covers a copy of the descriptor inherited by a forked child.
    Where the platform has no ``fcntl`` the lock degrades to a no-op.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield fd
    finally:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _truncate(fd: int, size: int) -> None:
    """Best-effort roll a failed append back to ``size`` bytes."""
    try:
        os.ftruncate(fd, size)
        os.fsync(fd)
    # simlint: allow[SIM601] rollback of a failed write is best-effort; the caller re-raises the original OSError
    except OSError:
        pass


def replay(
    path: Union[str, Path],
    parse: Optional[Callable[[Dict[str, Any]], Any]] = None,
) -> Tuple[List[Any], List[int]]:
    """Every readable record in ``path``, plus the skipped line numbers.

    ``parse`` maps each record to the caller's type; a ``TypeError`` or
    ``ValueError`` it raises skips that line too.  A missing file
    replays as empty.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return [], []
    return _parse(data.splitlines(), parse)


def read_tail(
    path: Union[str, Path], offset: int
) -> Tuple[List[Dict[str, Any]], int]:
    """Records appended past byte ``offset``; returns the new offset.

    Only complete lines are consumed: a final line without its newline
    is a write still in flight, so the returned offset stops before it
    and the next call re-reads it whole.  A missing file reads as no
    progress (offset unchanged).
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return [], offset
    end = chunk.rfind(b"\n") + 1
    return _parse(chunk[:end].splitlines())[0], offset + end


def _parse(
    lines: Iterable[bytes],
    parse: Optional[Callable[[Dict[str, Any]], Any]] = None,
) -> Tuple[List[Any], List[int]]:
    records: List[Any] = []
    skipped: List[int] = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            # A non-UTF-8 byte raises UnicodeDecodeError, a ValueError.
            record = json.loads(line.decode("utf-8"))
            if (not isinstance(record, dict)
                    or record.get("v", 0) > JOURNAL_VERSION):
                raise ValueError("not a readable record")
            records.append(record if parse is None else parse(record))
        except (ValueError, TypeError):
            skipped.append(number)
    return records, skipped


@dataclass
class Outcomes:
    """Per-spec resolutions, folded last-record-wins from a log."""

    #: spec hash -> the ``done`` record that resolved it.
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: spec hash -> the persisted FailedRun of an exhausted spec.
    failures: Dict[str, FailedRun] = field(default_factory=dict)
    #: Lines skipped as unreadable (torn writes, bit rot, newer
    #: versions) plus failure records whose payload would not load.
    corrupt_lines: int = 0

    @property
    def resolved(self) -> int:
        """Specs resolved either way."""
        return len(self.done) + len(self.failures)

    def fold(self, record: Dict[str, Any],
             failure_kinds: Sequence[str]) -> bool:
        """Apply ``record`` if it resolves a spec; True when it did.

        A ``done`` record supersedes an earlier failure and a failure
        record (any of ``failure_kinds``, carrying a FailedRun payload)
        an earlier ``done`` — a spec journaled ``failed`` and later
        (``--retry-failed``) ``done`` reads as done.
        """
        spec = record.get("spec", "")
        kind = record.get("kind")
        if not spec:
            return False
        if kind == KIND_DONE:
            self.done[spec] = record
            self.failures.pop(spec, None)
            return True
        failure = record.get("failure")
        if kind not in failure_kinds or not isinstance(failure, dict):
            return False
        try:
            self.failures[spec] = FailedRun.from_dict(failure)
        except TypeError:
            self.corrupt_lines += 1
            return False
        self.done.pop(spec, None)
        return True


# -- the sweep journal --------------------------------------------------------

def sweep_identity(
    spec_hashes: Sequence[str], policy: RetryPolicy
) -> str:
    """The sweep's identity: SHA-256 of the ordered hash list + policy.

    The *ordered* batch (duplicates included) is hashed, not the unique
    set: a driver that submits the same cells in a different shape is a
    different sweep.  The policy is part of identity because it changes
    outcomes — a journal of failures recorded under ``retries=0`` must
    not be replayed onto a ``retries=3`` run as if they were final.
    """
    payload = json.dumps(
        {
            "specs": list(spec_hashes),
            "policy": dataclasses.asdict(policy),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def journal_path(journal_dir: Union[str, Path], sweep_id: str) -> Path:
    """Where the journal for ``sweep_id`` lives under ``journal_dir``."""
    return Path(journal_dir) / f"{sweep_id[:16]}.jsonl"


@dataclass
class JournalState(Outcomes):
    """What a replayed journal says about a sweep."""

    sweep_id: str = ""
    path: Optional[Path] = None
    #: True once a ``sweep-complete`` record was read.
    complete: bool = False
    #: Records read or skipped — the append sequence continues from
    #: here so the fault schedule never reuses a sequence number.
    lines: int = 0
    #: Signals recorded by graceful shutdowns of earlier runs.
    interrupts: List[int] = field(default_factory=list)


def read_state(path: Union[str, Path]) -> Optional[JournalState]:
    """Replay the journal at ``path``; None when there is no file."""
    path = Path(path)
    if not path.is_file():
        return None
    records, skipped = replay(path)
    state = JournalState(path=path, corrupt_lines=len(skipped),
                         lines=len(records) + len(skipped))
    for record in records:
        if not state.sweep_id and record.get("sweep"):
            state.sweep_id = str(record["sweep"])
        if state.fold(record, (KIND_FAILED, KIND_TIMEOUT)):
            continue
        kind = record.get("kind")
        if kind == KIND_INTERRUPTED:
            state.interrupts.append(int(record.get("signal", 0)))
        elif kind == KIND_COMPLETE:
            state.complete = True
    return state


class SweepJournal:
    """Appender for one sweep's journal file.

    :meth:`append` is the journal's single write path.  Its sequence
    number feeds the deterministic ``corrupt-journal`` fault schedule
    (:func:`repro.exec.faults.should_corrupt_journal`), so chaos tests
    can tear specific writes.
    """

    def __init__(
        self,
        path: Union[str, Path],
        sweep_id: str,
        plan: Optional[FaultPlan] = None,
        seq: int = 0,
    ) -> None:
        self.path = Path(path)
        self.sweep_id = sweep_id
        self.plan = plan
        self._seq = seq

    def append(self, kind: str, **fields: Any) -> None:
        """Durably append one record; crash-safe at every byte."""
        seq = self._seq + 1
        torn = should_corrupt_journal(
            self.plan, f"{kind}:{fields.get('spec', '')}", seq)
        append_record(self.path, versioned(kind, sweep=self.sweep_id,
                                           **fields),
                      "corrupt-journal" if torn else None)
        self._seq = seq

    # -- lifecycle shorthands --------------------------------------------------

    def start(self, n_unique: int, n_batch: int,
              policy: RetryPolicy) -> None:
        self.append(KIND_START, specs=n_unique, batch=n_batch,
                    policy=dataclasses.asdict(policy))

    def planned(self, spec_hash: str, benchmark: str, mechanism: str) -> None:
        self.append(KIND_PLANNED, spec=spec_hash, benchmark=benchmark,
                    mechanism=mechanism)

    def dispatched(self, spec_hash: str, attempt: int) -> None:
        self.append(KIND_DISPATCHED, spec=spec_hash, attempt=attempt)

    def done(self, spec_hash: str, benchmark: str, mechanism: str,
             source: str, seconds: float = 0.0) -> None:
        self.append(KIND_DONE, spec=spec_hash, benchmark=benchmark,
                    mechanism=mechanism, source=source,
                    seconds=round(seconds, 6))

    def failed(self, failure: FailedRun) -> None:
        kind = KIND_TIMEOUT if failure.kind == "timeout" else KIND_FAILED
        self.append(kind, spec=failure.spec_hash,
                    failure=failure.describe())

    def interrupted(self, signum: int) -> None:
        self.append(KIND_INTERRUPTED, signal=int(signum))

    def complete(self, n_unique: int) -> None:
        self.append(KIND_COMPLETE, specs=n_unique)


def scan_journals(
    journal_dir: Union[str, Path]
) -> List[Tuple[Path, JournalState]]:
    """Every sweep journal under ``journal_dir`` with its replayed state.

    fsck's audit trail (:data:`FSCK_LOG`) is not a sweep journal and is
    excluded.  Missing directory reads as no journals.
    """
    journal_dir = Path(journal_dir)
    found: List[Tuple[Path, JournalState]] = []
    try:
        paths = sorted(journal_dir.glob("*.jsonl"))
    except OSError:
        return found
    for path in paths:
        if path.name == FSCK_LOG:
            continue
        state = read_state(path)
        if state is not None:
            found.append((path, state))
    return found


def hint_incomplete(state: JournalState) -> None:
    """The stderr nudge printed when an interrupted journal is detected."""
    print(
        f"executor: found an interrupted journal for this sweep "
        f"({len(state.done)} done, {len(state.failures)} failed); "
        "pass --resume to serve finished specs without re-simulation "
        "(starting fresh, the old journal is being overwritten)",
        file=sys.stderr,
    )
