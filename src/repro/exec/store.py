"""Persistent, content-addressed result store.

One JSON file per :class:`~repro.exec.runspec.RunSpec` content hash under
a cache directory (``--cache-dir``, else the root
:func:`repro.cachedir.default_cache_dir` resolves).  Each file carries a
format version, the full spec description (so a human can audit what a
hash means) and the complete :class:`~repro.core.results.RunResult`.

Reads are forgiving: a missing, truncated, corrupted or
version-mismatched file is a cache miss, never an error — the executor
simply re-simulates and rewrites it.  Forgiving is not the same as
silent: a file that *exists* but cannot be used is counted in
:attr:`ResultStore.corrupt_reads` and reported with a one-line stderr
warning, because cache rot (a flaky disk, a torn write from a killed
run, schema drift) should be visible, not absorbed.  Writes are atomic
and durable (:func:`repro.cachedir.atomic_write`), so a worker killed
mid-write can never leave a truncated entry under a real hash — only a
stray ``*.tmp`` file, which reads ignore and the next
:meth:`ResultStore.put` into its shard sweeps up.

Integrity: every entry embeds a SHA-256 of its result payload, verified
on :meth:`ResultStore.get` — bit rot that still parses as JSON (a
flipped digit in an IPC) is caught, counted and re-simulated instead of
silently polluting every downstream exhibit.  An entry of another
format version (the checksum-less v2 included) is a counted miss.
``python -m repro.exec fsck`` runs the same verification offline over
the whole store (:meth:`ResultStore.fsck`), optionally pruning what
fails it.

Sharding: entries live under a two-hex-character shard directory keyed
by the leading byte of the content hash (``ab/<hash>.json``).  One flat
directory stops scaling long before the "millions of entries" target —
directory lookups, ``readdir`` over the entry glob and the stale-temp
sweep all degrade linearly, and a fleet of workers (:mod:`repro.serve`)
hammering one directory contends on its lock in the kernel.  256 shards
cap any single directory at 1/256th of the store.  Reads probe only the
entry's shard; an entry filed anywhere else (the store root included)
is a misfiled-entry defect that fsck reports and ``--prune`` removes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cachedir import atomic_write, default_cache_dir, stale_temps
from repro.core.results import RunResult
from repro.exec.faults import active_plan, should_fill_disk
from repro.exec.runspec import RunSpec, payload_hash

#: Bump when the stored payload layout (or RunResult schema) changes;
#: older entries then read as misses instead of crashing deserialisation.
#: 2: RunResult.stats gained the hierarchy's bus counters (finalize_stats).
#: 3: entries embed a SHA-256 checksum of the result payload, verified
#:    on read.
STORE_VERSION = 3

#: Leading hash characters that name an entry's shard directory.
SHARD_WIDTH = 2

#: Glob matching shard directories (two lowercase hex characters), used
#: so sibling subdirectories (``journal``, ``serve``, ``ckpt``,
#: ``workloads``) never read as shards.
_SHARD_GLOB = "[0-9a-f]" * SHARD_WIDTH


def result_checksum(result_payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON serialisation of one result."""
    canonical = json.dumps(result_payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _verify_payload(payload: Any) -> Optional[str]:
    """Why a parsed entry payload is unusable, or None when it is sound.

    Checks shape, format version and the embedded result checksum.
    Shared by the hot read path (:meth:`ResultStore.get`) and the
    offline verifier (:meth:`ResultStore.fsck`) so they can never
    disagree about what "corrupt" means.
    """
    if not isinstance(payload, dict):
        return "payload is not an object"
    version = payload.get("version")
    if version != STORE_VERSION:
        return f"version mismatch (entry {version!r}, want {STORE_VERSION})"
    result = payload.get("result")
    if not isinstance(result, dict):
        return "missing result payload"
    checksum = payload.get("checksum")
    if not checksum:
        return "missing checksum"
    if checksum != result_checksum(result):
        return "checksum mismatch (bit rot or a hand-edited payload)"
    return None


@dataclass
class FsckReport:
    """What ``ResultStore.fsck`` found (and, under prune, removed)."""

    root: str = ""
    scanned: int = 0
    ok: int = 0
    #: (file name, why it is unusable) per defective entry.
    problems: List[Tuple[str, str]] = field(default_factory=list)
    stale_temps: List[str] = field(default_factory=list)
    pruned: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No defective entries (stale temps are litter, not defects)."""
        return not self.problems

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary, journaled as the fsck repair report."""
        return {
            "root": self.root,
            "scanned": self.scanned,
            "ok": self.ok,
            "problems": [list(item) for item in self.problems],
            "stale_temps": list(self.stale_temps),
            "pruned": list(self.pruned),
        }

    def render(self) -> str:
        lines = [f"fsck {self.root}: {self.scanned} entries, {self.ok} ok"]
        for name, why in self.problems:
            lines.append(f"  BAD  {name}: {why}")
        for name in self.stale_temps:
            lines.append(f"  TMP  {name}: stale temp from a dead writer")
        for name in self.pruned:
            lines.append(f"  pruned {name}")
        if self.clean and not self.stale_temps:
            lines.append("  store is clean")
        return "\n".join(lines)


class ResultStore:
    """Sharded directory of ``<hash[:2]>/<content-hash>.json`` result files.

    Writes land in the shard named by the hash's leading byte, and reads
    probe only that shard (see the module docstring).
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        #: Entries that existed but could not be used (corrupt, truncated,
        #: version-mismatched, schema-drifted).  Monotonic over the store's
        #: lifetime; the executor mirrors it into its telemetry.
        self.corrupt_reads = 0

    def shard_path(self, content_hash: str) -> Path:
        """Where ``content_hash`` lives in the sharded layout."""
        return (self.root / content_hash[:SHARD_WIDTH]
                / f"{content_hash}.json")

    def path_for(self, spec: RunSpec) -> Path:
        return self.shard_path(spec.content_hash)

    def entry_paths(self) -> List[Path]:
        """Every entry file in the shards, sorted."""
        try:
            return sorted(self.root.glob(f"{_SHARD_GLOB}/*.json"))
        except OSError:
            return []

    @property
    def journal_dir(self) -> Path:
        """Where this store's sweep journals live (a sibling subdir,
        invisible to the shard glob — shard names are two hex chars)."""
        return self.root / "journal"

    @property
    def serve_dir(self) -> Path:
        """Where the sweep service (:mod:`repro.serve`) keeps its fleet
        state — submission queue, lease book, default socket."""
        return self.root / "serve"

    @property
    def ckpt_root(self) -> Path:
        """Where mid-run checkpoints live, one subdir per spec hash
        (see :mod:`repro.exec.checkpoint`; audited by ``fsck``)."""
        return self.root / "ckpt"

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The stored result for ``spec``, or None on any defect.

        A file that is simply absent is a quiet miss.  A file that is
        *present but unusable* is also a miss — the run re-simulates —
        but it is counted and warned about, because silent cache rot
        re-costs simulations forever without anyone noticing.
        """
        path = self.shard_path(spec.content_hash)
        try:
            text = path.read_text("utf-8")
        except FileNotFoundError:
            return None  # plain miss
        except OSError as exc:
            return self._defective(path, f"unreadable: {exc}")
        try:
            payload = json.loads(text)
        except ValueError:
            return self._defective(path, "not valid JSON (truncated or corrupt)")
        problem = _verify_payload(payload)
        if problem is not None:
            return self._defective(path, problem)
        try:
            return RunResult(**payload["result"])
        except (KeyError, TypeError):
            return self._defective(path, "schema drift or hand-edited payload")

    def _defective(self, path: Path, why: str) -> None:
        """Count and report one unusable entry; reads it as a miss."""
        self.corrupt_reads += 1
        print(f"repro.exec.store: {path.name} read as a miss: {why}",
              file=sys.stderr)
        return None

    def put(self, spec: RunSpec, result: RunResult,
            fault_attempt: Optional[int] = None) -> Path:
        """Atomically and durably persist ``result`` under ``spec``'s hash.

        ``fault_attempt`` opts this write into the deterministic
        ``disk-full`` chaos schedule (callers pass the spec's attempt or
        lease count): when the schedule fires, the write dies with
        ``OSError(ENOSPC)`` *mid-payload* — a torn temp file on a full
        disk — and this method's fail-clean guarantee is what the drill
        proves: the temp is removed, no entry lands under the real hash,
        and a retry (on a disk with room) succeeds from scratch.
        """
        result_payload = dataclasses.asdict(result)
        payload = {
            "version": STORE_VERSION,
            "spec": spec.describe(),
            "result": result_payload,
            "checksum": result_checksum(result_payload),
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        disk_full = fault_attempt is not None and should_fill_disk(
            active_plan(), f"put:{spec.content_hash}", fault_attempt)
        path = self.path_for(spec)
        atomic_write(path, text.encode("utf-8"), durable=True,
                     disk_full=disk_full)
        # Drop temps stranded in this shard by writers that no longer
        # exist: a killed writer's retry puts the same spec, so its temp
        # is here.  Live writers' temps are about to be renamed; fsck
        # audits every shard and the root.
        for stray in stale_temps(path.parent):
            try:
                stray.unlink()
            # simlint: allow[SIM601] losing a race to delete garbage is harmless
            except OSError:
                pass
        return path

    def _stale_temps(self) -> List[Path]:
        """Dead writers' temp files in the shards and at the root."""
        return (stale_temps(self.root, f"{_SHARD_GLOB}/.*.tmp")
                + stale_temps(self.root))

    def __len__(self) -> int:
        """Entries in the shards."""
        return len(self.entry_paths())

    # -- offline verification --------------------------------------------------

    def read_entry(
        self, path: Path,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """``(payload, None)`` for a sound entry at ``path``, else
        ``(None, why it is unusable)``; one read of the file.

        Runs every check :meth:`get` runs — parse, version, checksum,
        result schema — plus two only an offline pass can afford: the
        file name must equal the content hash of the spec description
        it carries, so a renamed or cross-copied entry (which would
        serve the wrong result under ``get``'s addressing) is caught;
        and the entry must be in the shard its hash names, or ``get`` —
        which probes only that shard — would never find it.
        """
        try:
            text = path.read_text("utf-8")
        except OSError as exc:
            return None, f"unreadable: {exc}"
        try:
            payload = json.loads(text)
        except ValueError:
            return None, "not valid JSON (truncated or corrupt)"
        problem = _verify_payload(payload)
        if problem is not None:
            return None, problem
        try:
            RunResult(**payload["result"])
        except (KeyError, TypeError):
            return None, "schema drift or hand-edited payload"
        spec_payload = payload.get("spec")
        if isinstance(spec_payload, dict):
            expected = payload_hash(spec_payload)
            if path.stem != expected:
                return None, (f"entry is filed under {path.stem[:12]}… but "
                              f"its spec hashes to {expected[:12]}… "
                              "(renamed or cross-copied entry)")
        shard = path.stem[:SHARD_WIDTH]
        if path.parent != self.root / shard:
            where = ("the store root" if path.parent == self.root
                     else f"shard {path.parent.name}/")
            return None, (f"filed in {where} but its hash names shard "
                          f"{shard}/ (misfiled entry; reads probe only the "
                          "right shard)")
        return payload, None

    def verify_entry(self, path: Path) -> Optional[str]:
        """Why the entry at ``path`` is unusable (:meth:`read_entry`),
        or None when sound."""
        return self.read_entry(path)[1]

    def fsck(self, prune: bool = False) -> FsckReport:
        """Scan and verify every entry; with ``prune``, remove failures.

        Files at the store root are scanned too: a ``<hash>.json`` there
        (the pre-shard layout) is a misfiled entry.  Never raises for a
        defective store — the report carries what was wrong (and what
        was removed) so callers can journal it.
        """
        report = FsckReport(root=str(self.root))
        try:
            at_root = sorted(self.root.glob("*.json"))
        except OSError:
            at_root = []
        for path in self.entry_paths() + at_root:
            report.scanned += 1
            problem = self.verify_entry(path)
            if problem is None:
                report.ok += 1
                continue
            report.problems.append((path.name, problem))
            if prune:
                try:
                    path.unlink()
                    report.pruned.append(path.name)
                except OSError as exc:
                    report.problems.append(
                        (path.name, f"prune failed: {exc}")
                    )
        for stray in self._stale_temps():
            report.stale_temps.append(stray.name)
            if prune:
                try:
                    stray.unlink()
                    report.pruned.append(stray.name)
                # simlint: allow[SIM601] losing a race to delete garbage is harmless
                except OSError:
                    pass
        return report
