"""The one JSON-lines log format, and the driver's writer for sweep queues.

Every durable log in the tree is a file in this format, and this module
is the only code that reads or writes one:

* the fleet's queue and lease WALs, ``queue.jsonl`` and
  ``leases.jsonl`` (:mod:`repro.exec.fleet`): a sweep's own queue under
  ``<cache>/journal/<sweep_id[:16]>/`` (below), a temporary one for a
  ``--jobs N`` batch without a result store, ``<cache>/serve/`` for the
  sweep service;
* fsck's audit trail, ``<cache>/journal/fsck.jsonl``
  (``python -m repro.exec fsck``);
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

The two log fault kinds are performed here; the writer asks
:func:`repro.exec.faults.fires` when they fire.  ``disk-full`` writes
half the line and raises ``OSError(ENOSPC)``, which the rollback
undoes.  ``corrupt-journal`` lands the line with its tail dropped but
newline-terminated, as a crash mid-``write`` would leave it, so replay
skips exactly that record.

The sweep queue
---------------
A long sweep's driver is routinely killed (OOM killer, a scheduler's
SIGTERM, Ctrl-C, a host reboot).  So a multi-spec batch with a result
store runs on a fleet queue of its own,
``<cache>/journal/<sweep_id[:16]>/queue.jsonl``, and that queue is the
sweep's write-ahead log.  The driver appends one ``enqueue`` per unique
spec (carrying the spec payload, so ``--jobs N`` workers can claim it),
then each spec's resolution as it lands: ``done`` (the result is in the
store) or ``failed`` (every attempt was exhausted; the record carries
the whole :class:`~repro.exec.policy.FailedRun`, a timeout keeping
``failure.kind``).  Under ``--jobs N`` the fleet's workers append the
resolutions they produce, and the driver only those it serves from its
memo or the store.  A resolved spec that must run again is reopened
with ``requeue``; a graceful signal stop appends ``interrupted``.  A
sweep is complete when its queue has nothing pending.

``--resume`` replays the queue (:meth:`~repro.exec.fleet.Fleet.snapshot`):
finished specs resolve from the queue + result store without
re-simulation, persisted failures are served as holes instead of
silently re-running exhausted specs, and the resumed grid is
bit-identical to an uninterrupted run because results are the same
content-addressed payloads either way.  A record that fails to replay
simply re-runs its spec.

A queue belongs to one *sweep*: the SHA-256 of the ordered spec-hash
list plus the retry policy (:func:`sweep_identity`).  Re-submitting the
same batch — same specs, same order, same policy — therefore finds the
same queue, which is what makes ``--resume`` safe: it can never replay
a queue onto a different workload.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

try:
    import fcntl
except ImportError:  # non-POSIX: appends fall back to O_APPEND atomicity
    fcntl = None  # type: ignore[assignment]

from repro.exec.faults import fires
from repro.exec.policy import FailedRun, RetryPolicy

#: Bump when a record layout changes incompatibly; replay skips records
#: with a newer ``v`` rather than mis-parsing them.
JOURNAL_VERSION = 1

#: fsck's audit trail: lives beside the sweep queues, is not one.
FSCK_LOG = "fsck.jsonl"

#: The queue records a sweep's driver writes (the fleet adds its own).
KIND_ENQUEUE = "enqueue"
KIND_REQUEUE = "requeue"
KIND_DONE = "done"
KIND_FAILED = "failed"
KIND_INTERRUPTED = "interrupted"
KIND_FSCK = "fsck"

#: The kinds ``corrupt-journal`` may tear.  Never an ``enqueue`` or a
#: ``requeue``: a spec whose claimable record is lost would strand a
#: ``--jobs N`` batch waiting for it.
TEARABLE_KINDS = (KIND_DONE, KIND_FAILED, KIND_INTERRUPTED)


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


# -- the sweep queue, driver side -------------------------------------------

def sweep_identity(
    spec_hashes: Sequence[str], policy: RetryPolicy
) -> str:
    """The sweep's identity: SHA-256 of the ordered hash list + policy.

    The *ordered* batch (duplicates included) is hashed, not the unique
    set: a driver that submits the same cells in a different shape is a
    different sweep.  The policy is part of identity because it changes
    outcomes — a queue of failures recorded under ``retries=0`` must
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


class SweepJournal:
    """The driver's appender to one sweep queue.

    :meth:`append` is the driver's single write path.  Its sequence
    number is the ``attempt`` of the deterministic ``corrupt-journal``
    fault schedule (:func:`repro.exec.faults.fires`), so chaos tests
    can tear specific writes; only :data:`TEARABLE_KINDS` are torn.
    ``seq`` is the number of lines already in the file, so a resumed
    run never reuses a schedule slot.
    """

    def __init__(self, path: Union[str, Path], seq: int = 0) -> None:
        self.path = Path(path)
        self._seq = seq

    def append(self, kind: str, **fields: Any) -> None:
        """Durably append one record; crash-safe at every byte."""
        seq = self._seq + 1
        torn = kind in TEARABLE_KINDS and fires(
            "corrupt-journal", f"{kind}:{fields.get('spec', '')}", seq)
        append_record(self.path, versioned(kind, **fields),
                      "corrupt-journal" if torn else None)
        self._seq = seq

    def done(self, spec_hash: str, source: str, seconds: float = 0.0) -> None:
        self.append(KIND_DONE, spec=spec_hash, source=source,
                    seconds=round(seconds, 6))

    def failed(self, failure: FailedRun) -> None:
        self.append(KIND_FAILED, spec=failure.spec_hash,
                    failure=failure.describe())
