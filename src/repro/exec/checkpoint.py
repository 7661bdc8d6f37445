"""Durable mid-run checkpoints: crash-safe cuts, bit-identical resume.

A simulation that dies mid-trace — OOM kill, preemption, a chaos-test
``os._exit`` — normally forfeits every record it already processed.  This
module bounds that loss: every ``--checkpoint-every N`` records the
core's pipeline loop pickles the live machine whole — the core and
everything it reaches: hierarchy, mechanism tree, kernel event queue and
memory image — together with its own loop state, and the next attempt
of the *same* spec unpickles the newest sound cut and runs that machine
on from the cut's record.  Resume-then-finish is bit-identical to an
uninterrupted run — pinned for every mechanism on both loops — so resume
can never change a result, only how much work producing it costs.

No class declares its layout, so a cut is only sound for the simulator
source that wrote it: the header carries a digest of that source
(:func:`source_digest`), and a cut written by other code is skipped as
defective rather than unpickled into classes that have since changed.

File format (one checkpoint per file)::

    <cache-dir>/ckpt/<spec-hash>/<record-index>.ckpt
    +------------------------------------------------------------+
    | JSON header line: version, spec, index, source digest,     |
    |                   payload_bytes, sha256 of the payload     |
    +------------------------------------------------------------+
    | pickled machine (payload_bytes bytes)                      |
    +------------------------------------------------------------+

Writes go through :func:`repro.cachedir.atomic_write`, durably, as the
result store's do — a crash mid-write leaves a stray ``.tmp`` (swept by
``fsck --prune``), never a torn ``.ckpt``.  Reads
verify everything the header declares; a checkpoint failing any check is
skipped in favour of the next-older one, and a spec with no sound
checkpoint simply starts from scratch.  Checkpoints are an attempt-local
cache, not an artifact: the executor discards a spec's directory as soon
as its result is durably stored.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.cachedir import atomic_write, stale_temps
from repro.exec.faults import InjectedCrash, fires, maybe_corrupt_checkpoint

#: On-disk checkpoint format version; bump on layout changes.  A version
#: mismatch is a *defect* (the reader cannot trust the payload), so old
#: checkpoints are discarded rather than migrated — they are a cache.
CKPT_VERSION = 2

#: The packages whose objects a cut pickles (and whose code runs on it).
_SIMULATOR_PACKAGES = ("cache", "core", "cpu", "dram", "isa", "kernel",
                       "mechanisms", "workloads")

#: Subdirectory of the store root holding all checkpoint state.
CKPT_DIRNAME = "ckpt"

#: Filename suffix of a finished checkpoint.
CKPT_SUFFIX = ".ckpt"


class CheckpointError(Exception):
    """A checkpoint file failed verification (torn, corrupt, mismatched)."""


@lru_cache(maxsize=1)
def source_digest() -> str:
    """Digest of the simulator source, stamped into every cut's header."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    h.update(f"format={CKPT_VERSION};tag={sys.implementation.cache_tag}".encode())
    for package in _SIMULATOR_PACKAGES:
        for path in sorted((root / package).glob("*.py")):
            h.update(f"{package}/{path.name}".encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def checkpoint_path(directory: Path, index: int) -> Path:
    """The canonical file name of the cut at ``index`` (sortable)."""
    return directory / f"{index:012d}{CKPT_SUFFIX}"


def write_checkpoint(
    directory: Path, spec_hash: str, index: int, state: Any,
) -> Path:
    """Atomically persist one cut; returns the final path.

    The header is a single JSON line so ``fsck`` can audit a checkpoint
    without unpickling (or trusting) the payload.
    """
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": CKPT_VERSION,
        "spec": spec_hash,
        "index": index,
        "source": source_digest(),
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_line = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"
    final = checkpoint_path(directory, index)
    atomic_write(final, header_line + payload, durable=True)
    return final


def read_header(path: Path) -> Dict[str, Any]:
    """Parse and sanity-check a checkpoint's header line."""
    with open(path, "rb") as handle:
        line = handle.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path.name}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path.name}: header is not an object")
    for key in ("version", "spec", "index", "payload_bytes", "sha256"):
        if key not in header:
            raise CheckpointError(f"{path.name}: header missing {key!r}")
    return header


def read_checkpoint(
    path: Path, expected_spec: Optional[str] = None,
) -> Tuple[int, Any]:
    """Verify and load one checkpoint; ``(record index, machine state)``.

    Every declared property is checked — format version, simulator
    source digest, spec hash, payload byte count, payload checksum —
    before the payload is unpickled.  Any defect raises
    :class:`CheckpointError`.
    """
    header = read_header(path)
    if header["version"] != CKPT_VERSION:
        raise CheckpointError(
            f"{path.name}: version {header['version']} != {CKPT_VERSION}"
        )
    if header.get("source") != source_digest():
        raise CheckpointError(
            f"{path.name}: written by other simulator source "
            f"({header.get('source')} != {source_digest()})"
        )
    if expected_spec is not None and header["spec"] != expected_spec:
        raise CheckpointError(
            f"{path.name}: spec {header['spec'][:12]}... does not match "
            f"{expected_spec[:12]}..."
        )
    with open(path, "rb") as handle:
        handle.readline()
        payload = handle.read()
    if len(payload) != header["payload_bytes"]:
        raise CheckpointError(
            f"{path.name}: torn payload ({len(payload)} of "
            f"{header['payload_bytes']} bytes)"
        )
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise CheckpointError(f"{path.name}: payload checksum mismatch")
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointError(f"{path.name}: unpicklable payload: {exc}") from None
    return int(header["index"]), state


def load_latest(
    directory: Path, spec_hash: str,
) -> Optional[Tuple[int, Any]]:
    """The newest sound checkpoint under ``directory``, or None.

    Defective files (torn, corrupt, wrong version or source, wrong
    spec) are skipped in favour of the next-older cut — exactly the
    fall-back the ``corrupt-checkpoint`` chaos kind exercises.
    """
    try:
        paths = sorted(directory.glob(f"*{CKPT_SUFFIX}"), reverse=True)
    except OSError:
        return None
    for path in paths:
        try:
            return read_checkpoint(path, expected_spec=spec_hash)
        except CheckpointError as exc:
            print(f"repro.exec.checkpoint: skipping {exc}", file=sys.stderr)
    return None


def discard_checkpoints(directory: Path) -> int:
    """Remove a spec's checkpoint directory; returns files removed.

    Called once the spec's result is durably stored — a checkpoint that
    outlives its result is pure disk waste (``fsck`` reports any that
    slip through, e.g. when the discarding process dies first).
    """
    removed = 0
    try:
        entries = list(directory.iterdir())
    except OSError:
        return 0
    for path in entries:
        try:
            path.unlink()
            removed += 1
        # simlint: allow[SIM601] losing a race to delete garbage is harmless
        except OSError:
            pass
    try:
        directory.rmdir()
    # simlint: allow[SIM601] non-empty on race; fsck reports leftovers
    except OSError:
        pass
    return removed


class Checkpointer:
    """One run's checkpoint policy, bound to a spec and an attempt.

    This is the duck-typed object :func:`~repro.core.simulation.run_trace`
    consumes: ``every`` (records between cuts; 0 disables),
    ``cut(index, state)`` and ``load()``.  On top of the durable file
    layer it carries the chaos hooks — after a cut lands it may tear the
    file (``corrupt-checkpoint``) or kill the process (``kill-midrun``),
    both of which fire only at ``attempt`` 1
    (:data:`repro.exec.faults.FIRST_ATTEMPT_ONLY`), so resumed attempts
    always converge.
    ``kill_exit`` selects the kill flavour: an exit code for real worker
    processes, ``None`` to raise :class:`InjectedCrash` where an
    ``os._exit`` would take the test runner down with it.
    """

    def __init__(
        self,
        root: Path,
        spec_hash: str,
        every: int,
        attempt: int = 1,
        kill_exit: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        self.spec_hash = spec_hash
        self.every = int(every)
        self.attempt = attempt
        self.kill_exit = kill_exit
        self.directory = self.root / spec_hash
        #: Cuts written by this attempt / whether ``load`` found one —
        #: harvested into the executor's telemetry.
        self.cuts = 0
        self.resumed = 0

    def cut(self, index: int, state: Any) -> None:
        """Persist one mid-run cut (and run the chaos hooks).

        ``state`` may hold the live machine: it is pickled here, before
        the run moves on.
        """
        path = write_checkpoint(self.directory, self.spec_hash, index, state)
        self.cuts += 1
        maybe_corrupt_checkpoint(path, self.spec_hash, index, self.attempt)
        if fires("kill-midrun", self.spec_hash, self.attempt):
            if self.kill_exit is not None:
                os._exit(self.kill_exit)
            raise InjectedCrash(
                f"injected mid-run kill after checkpoint {index} "
                f"(attempt {self.attempt})"
            )

    def load(self) -> Optional[Tuple[int, Any]]:
        """The newest sound cut for this spec, or None."""
        loaded = load_latest(self.directory, self.spec_hash)
        if loaded is not None:
            self.resumed = 1
        return loaded

    def discard(self) -> int:
        """Drop this spec's checkpoints (the result is durable now)."""
        return discard_checkpoints(self.directory)


# -- fsck -------------------------------------------------------------------


@dataclass
class CheckpointAudit:
    """What a ``ckpt/`` scan found (and, under prune, removed)."""

    scanned: int = 0
    ok: int = 0
    #: ``(relative path, reason)`` for every defective file.
    defective: List[Tuple[str, str]] = field(default_factory=list)
    #: Sound checkpoints shadowed by a newer sound cut of the same spec.
    superseded: List[str] = field(default_factory=list)
    #: Writer temp files with no live owner process.
    stale_temps: List[str] = field(default_factory=list)
    #: Relative paths removed by the pruning pass.
    pruned: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.defective or self.stale_temps)


def audit_checkpoints(
    ckpt_root: Path, prune: bool = False,
) -> CheckpointAudit:
    """Audit every checkpoint under ``ckpt_root``; optionally prune.

    Checks per file: header parses, format version and simulator source
    digest match, the header's spec hash agrees with the directory name,
    the payload is whole and matches its checksum.  Sound-but-superseded
    cuts and ownerless temp files are reported (resume only ever reads
    the newest sound cut, so both are dead weight); ``prune`` removes
    defective and superseded checkpoints and stale temps, leaving each
    spec at most its single newest sound cut.
    """
    audit = CheckpointAudit()
    try:
        spec_dirs = sorted(p for p in ckpt_root.iterdir() if p.is_dir())
    except OSError:
        return audit

    def remove(path: Path) -> None:
        try:
            path.unlink()
            audit.pruned.append(f"{path.parent.name}/{path.name}")
        # simlint: allow[SIM601] fsck must report, never crash, on races
        except OSError:
            pass

    for spec_dir in spec_dirs:
        spec_hash = spec_dir.name
        newest_sound: Optional[Path] = None
        for path in sorted(spec_dir.glob(f"*{CKPT_SUFFIX}"), reverse=True):
            audit.scanned += 1
            rel = f"{spec_hash}/{path.name}"
            try:
                read_checkpoint(path, expected_spec=spec_hash)
            except CheckpointError as exc:
                audit.defective.append((rel, str(exc)))
                if prune:
                    remove(path)
                continue
            audit.ok += 1
            if newest_sound is None:
                newest_sound = path
            else:
                audit.superseded.append(rel)
                if prune:
                    remove(path)
        for stray in stale_temps(spec_dir):
            audit.stale_temps.append(f"{spec_hash}/{stray.name}")
            if prune:
                remove(stray)
        if prune:
            try:
                spec_dir.rmdir()  # only succeeds once fully emptied
            # simlint: allow[SIM601] non-empty spec dirs are expected
            except OSError:
                pass
    return audit
