"""Persistent, content-addressed result store.

One JSON file per :class:`~repro.exec.runspec.RunSpec` content hash under
a cache directory (default ``~/.cache/repro``, overridable with the
``REPRO_CACHE_DIR`` environment variable or the CLI's ``--cache-dir``).
Each file carries a format version, the full spec description (so a human
can audit what a hash means) and the complete
:class:`~repro.core.simulation.RunResult`.

Reads are forgiving: a missing, truncated, corrupted or
version-mismatched file is a cache miss, never an error — the executor
simply re-simulates and rewrites it.  Forgiving is not the same as
silent: a file that *exists* but cannot be used is counted in
:attr:`ResultStore.corrupt_reads` and reported with a one-line stderr
warning, because cache rot (a flaky disk, a torn write from a killed
run, schema drift) should be visible, not absorbed.  Writes are atomic and durable:
the payload is written to a same-directory temp file, flushed and
``fsync``'d, then ``os.replace``'d over the final name, so a worker
killed mid-write can never leave a truncated entry under a real hash —
only a stray ``*.tmp`` file, which reads ignore and
:meth:`ResultStore.put` sweeps up on the next write.

Integrity: every v3 entry embeds a SHA-256 of its result payload,
verified on :meth:`ResultStore.get` — bit rot that still parses as
JSON (a flipped digit in an IPC) is caught, counted and re-simulated
instead of silently polluting every downstream exhibit.  v2 entries
(predating the checksum) remain readable so a version bump never
invalidates a warm cache.  ``python -m repro.exec fsck`` runs the same
verification offline over the whole store (:meth:`ResultStore.fsck`),
optionally pruning what fails it.

Sharding: entries live under a two-hex-character shard directory keyed
by the leading byte of the content hash (``ab/<hash>.json``).  One flat
directory stops scaling long before the "millions of entries" target —
directory lookups, ``readdir`` over the entry glob and the stale-temp
sweep all degrade linearly, and a fleet of workers (:mod:`repro.serve`)
hammering one directory contends on its lock in the kernel.  256 shards
cap any single directory at 1/256th of the store.  Reads fall through
transparently to the *flat* pre-shard layout, so a warm v3 store keeps
answering without a flag day; ``python -m repro.exec fsck --migrate``
moves flat entries into their shards (idempotent, atomic per entry,
safe under live readers because reads check the shard first).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.simulation import RunResult
from repro.exec.faults import active_plan, maybe_disk_full
from repro.exec.runspec import RunSpec, payload_hash

#: Bump when the stored payload layout (or RunResult schema) changes;
#: older entries then read as misses instead of crashing deserialisation.
#: 2: RunResult.stats gained the hierarchy's bus counters (finalize_stats).
#: 3: entries embed a SHA-256 checksum of the result payload, verified
#:    on read; v2 entries stay readable (no checksum to verify).
STORE_VERSION = 3

#: Versions :meth:`ResultStore.get` accepts.  v2 entries carry no
#: checksum; everything else about their payload is identical.
COMPAT_VERSIONS = (2, STORE_VERSION)

#: Leading hash characters that name an entry's shard directory.
SHARD_WIDTH = 2

#: Glob matching shard directories (two lowercase hex characters), used
#: so sibling subdirectories (``journal``, ``serve``, ``codegen``) never
#: read as shards.
_SHARD_GLOB = "[0-9a-f]" * SHARD_WIDTH


def _is_content_hash(stem: str) -> bool:
    """Whether a file stem looks like a SHA-256 content hash."""
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


def result_checksum(result_payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON serialisation of one result."""
    canonical = json.dumps(result_payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def temp_owner_alive(path: Path) -> bool:
    """Whether the writer of temp file ``path`` is still alive.

    Writer temps are named ``.<final name>.<pid>.tmp``.  A pid part that
    is not a positive decimal number, or that lies beyond the platform's
    pid range, reads as dead: such a temp is stale garbage, never a
    crash for whoever sweeps it.
    """
    pid_part = path.name.rsplit(".", 2)[-2]
    pid = int(pid_part) if pid_part.isascii() and pid_part.isdigit() else 0
    if pid == 0:  # os.kill(0, ...) would probe our own process group
        return False
    try:
        os.kill(pid, 0)  # signal 0: an existence probe
    except (ProcessLookupError, OverflowError):
        return False
    except OSError:
        return True  # e.g. EPERM: it exists but is not ours
    return True


def _verify_payload(payload: Any) -> Optional[str]:
    """Why a parsed entry payload is unusable, or None when it is sound.

    Checks shape, version compatibility and — for v3 entries — the
    embedded result checksum.  Shared by the hot read path
    (:meth:`ResultStore.get`) and the offline verifier
    (:meth:`ResultStore.fsck`) so they can never disagree about what
    "corrupt" means.
    """
    if not isinstance(payload, dict):
        return "payload is not an object"
    version = payload.get("version")
    if version not in COMPAT_VERSIONS:
        return f"version mismatch (entry {version!r}, want {STORE_VERSION})"
    result = payload.get("result")
    if not isinstance(result, dict):
        return "missing result payload"
    if version == STORE_VERSION:
        checksum = payload.get("checksum")
        if not checksum:
            return "missing checksum"
        if checksum != result_checksum(result):
            return "checksum mismatch (bit rot or a hand-edited payload)"
    return None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass
class FsckReport:
    """What ``ResultStore.fsck`` found (and, under prune, removed)."""

    root: str = ""
    scanned: int = 0
    ok: int = 0
    ok_legacy: int = 0          # readable v2 entries (no checksum to verify)
    #: Sound entries still in the flat pre-shard layout (``--migrate``
    #: moves them into their shards).
    flat_entries: int = 0
    #: Entries ``--migrate`` moved into their shard this invocation.
    migrated: int = 0
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
            "ok_legacy": self.ok_legacy,
            "flat_entries": self.flat_entries,
            "migrated": self.migrated,
            "problems": [list(item) for item in self.problems],
            "stale_temps": list(self.stale_temps),
            "pruned": list(self.pruned),
        }

    def render(self) -> str:
        lines = [
            f"fsck {self.root}: {self.scanned} entries, {self.ok} ok"
            + (f" ({self.ok_legacy} legacy v2)" if self.ok_legacy else ""),
        ]
        if self.migrated:
            lines.append(f"  migrated {self.migrated} flat entr"
                         f"{'y' if self.migrated == 1 else 'ies'} into shards")
        if self.flat_entries:
            lines.append(f"  {self.flat_entries} entr"
                         f"{'y' if self.flat_entries == 1 else 'ies'} still in "
                         "the flat layout (run fsck --migrate to shard)")
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

    Writes land in the shard named by the hash's leading byte; reads
    fall through to the flat pre-shard layout so existing stores keep
    answering (see the module docstring).
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

    def flat_path(self, content_hash: str) -> Path:
        """Where ``content_hash`` lived in the flat pre-shard layout."""
        return self.root / f"{content_hash}.json"

    def path_for(self, spec: RunSpec) -> Path:
        return self.shard_path(spec.content_hash)

    def entry_paths(self) -> List[Path]:
        """Every entry file, sharded layout first, sorted within each.

        A hash present in both layouts (a crash between ``--migrate``'s
        copy and unlink cannot happen — the move is one ``os.replace`` —
        but a hand-copied entry can) is reported once per file; the
        sharded copy is the one reads serve.
        """
        try:
            sharded = sorted(self.root.glob(f"{_SHARD_GLOB}/*.json"))
            flat = sorted(self.root.glob("*.json"))
        except OSError:
            return []
        return sharded + flat

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

        The shard is checked first; a miss there falls through to the
        flat pre-shard layout, so un-migrated v3 stores keep answering.
        """
        path = self.shard_path(spec.content_hash)
        try:
            text = path.read_text("utf-8")
        except FileNotFoundError:
            path = self.flat_path(spec.content_hash)
            try:
                text = path.read_text("utf-8")
            except FileNotFoundError:
                return None  # plain miss in both layouts
            except OSError as exc:
                return self._defective(path, f"unreadable: {exc}")
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
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        result_payload = dataclasses.asdict(result)
        payload = {
            "version": STORE_VERSION,
            "spec": spec.describe(),
            "result": result_payload,
            "checksum": result_checksum(result_payload),
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                if fault_attempt is not None:
                    try:
                        maybe_disk_full(active_plan(),
                                        f"put:{spec.content_hash}",
                                        fault_attempt)
                    except OSError:
                        # Tear the write the way a real ENOSPC would:
                        # part of the payload lands, then the device
                        # refuses the rest.
                        handle.write(text[: len(text) // 2])
                        handle.flush()
                        raise
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            # Never leave a half-written temp behind on this code path;
            # a SIGKILL can still strand one, which sweep_stale handles.
            try:
                os.unlink(tmp)
            # simlint: allow[SIM601] best-effort cleanup while re-raising the real error below
            except OSError:
                pass
            raise
        self._sweep_stale()
        return path

    def _sweep_stale(self) -> None:
        """Drop temp files stranded by processes that no longer exist.

        Temp names embed the writer's pid; a temp whose writer is gone
        (or that another live writer owns) is garbage from a killed run.
        Live writers' files are left alone — they are about to be renamed.
        """
        for stray in self._temp_paths():
            if not temp_owner_alive(stray):
                try:
                    stray.unlink()
                # simlint: allow[SIM601] losing a race to delete garbage is harmless
                except OSError:
                    pass

    def _temp_paths(self) -> List[Path]:
        """Writer temp files in both layouts (shard dirs and flat root)."""
        try:
            return (sorted(self.root.glob(f"{_SHARD_GLOB}/.*.tmp"))
                    + sorted(self.root.glob(".*.tmp")))
        except OSError:
            return []

    def __len__(self) -> int:
        """Distinct entries across both layouts (a migrated-and-recopied
        hash counts once)."""
        return len({path.stem for path in self.entry_paths()})

    # -- offline verification --------------------------------------------------

    def verify_entry(self, path: Path) -> Optional[str]:
        """Why the entry at ``path`` is unusable, or None when sound.

        Runs every check :meth:`get` runs — parse, version, checksum,
        result schema — plus two only an offline pass can afford: the
        file name must equal the content hash of the spec description
        it carries, so a renamed or cross-copied entry (which would
        serve the wrong result under ``get``'s addressing) is caught;
        and an entry filed inside a shard directory must be in the
        shard its hash names, or ``get`` — which probes only the right
        shard — would never find it.
        """
        try:
            text = path.read_text("utf-8")
        except OSError as exc:
            return f"unreadable: {exc}"
        try:
            payload = json.loads(text)
        except ValueError:
            return "not valid JSON (truncated or corrupt)"
        problem = _verify_payload(payload)
        if problem is not None:
            return problem
        try:
            RunResult(**payload["result"])
        except (KeyError, TypeError):
            return "schema drift or hand-edited payload"
        spec_payload = payload.get("spec")
        if isinstance(spec_payload, dict):
            expected = payload_hash(spec_payload)
            if path.stem != expected:
                return (f"entry is filed under {path.stem[:12]}… but its "
                        f"spec hashes to {expected[:12]}… (renamed or "
                        "cross-copied entry)")
        if (path.parent != self.root
                and len(path.parent.name) == SHARD_WIDTH
                and path.stem[:SHARD_WIDTH] != path.parent.name):
            return (f"filed in shard {path.parent.name}/ but its hash "
                    f"starts with {path.stem[:SHARD_WIDTH]} (misfiled "
                    "entry; reads probe only the right shard)")
        return None

    def migrate(self) -> Tuple[int, int]:
        """Move flat-layout entries into their shards; (moved, dupes).

        Idempotent — a second run finds nothing flat — and atomic per
        entry: each move is one same-filesystem ``os.replace``, so a
        kill mid-migration leaves every entry whole in exactly one
        layout.  A hash already present in its shard makes the flat
        copy redundant (the shard is what reads serve); it is removed
        and counted as a duplicate.  Files whose name is not a content
        hash are left alone for fsck to flag.
        """
        moved = dupes = 0
        try:
            flat = sorted(self.root.glob("*.json"))
        except OSError:
            return 0, 0
        for path in flat:
            if not _is_content_hash(path.stem):
                continue
            target = self.shard_path(path.stem)
            try:
                if target.exists():
                    path.unlink()
                    dupes += 1
                else:
                    target.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(path, target)
                    moved += 1
            except OSError as exc:
                print(f"repro.exec.store: migrate skipped {path.name}: {exc}",
                      file=sys.stderr)
        return moved, dupes

    def fsck(self, prune: bool = False, migrate: bool = False) -> FsckReport:
        """Scan and verify every entry; with ``prune``, remove failures.

        ``migrate`` first moves flat-layout entries into their shards
        (see :meth:`migrate`); the scan then audits the store it left
        behind.  Never raises for a defective store — the report
        carries what was wrong (and what was moved or removed) so
        callers can journal it.
        """
        report = FsckReport(root=str(self.root))
        if migrate:
            report.migrated, _dupes = self.migrate()
        for path in self.entry_paths():
            report.scanned += 1
            problem = self.verify_entry(path)
            if problem is None:
                report.ok += 1
                if path.parent == self.root:
                    report.flat_entries += 1
                try:
                    if json.loads(path.read_text("utf-8")).get(
                            "version") != STORE_VERSION:
                        report.ok_legacy += 1
                # simlint: allow[SIM601] verified readable just above; a race here only misses the legacy tally
                except (OSError, ValueError):
                    pass
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
        for stray in self._temp_paths():
            if temp_owner_alive(stray):
                continue  # a live writer is about to rename it
            report.stale_temps.append(stray.name)
            if prune:
                try:
                    stray.unlink()
                    report.pruned.append(stray.name)
                # simlint: allow[SIM601] losing a race to delete garbage is harmless
                except OSError:
                    pass
        return report
