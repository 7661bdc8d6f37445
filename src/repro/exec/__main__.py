"""Store maintenance front end: ``python -m repro.exec fsck``.

Examples::

    python -m repro.exec fsck                       # verify the default store
    python -m repro.exec fsck --cache-dir .cache    # a specific store
    python -m repro.exec fsck --prune               # remove what fails

``fsck`` runs the offline integrity pass over every result-store entry
(:meth:`~repro.exec.store.ResultStore.verify_entry` — parse, version,
checksum, result schema, filename-vs-content addressing), reports stale
temp files stranded by killed writers, and audits every fleet queue
found alongside the store (below).  ``--prune`` removes defective
entries and stale temps.

``fsck`` audits every shard of the sharded layout (``ab/<hash>.json``)
and cross-checks each entry's shard prefix against its filename hash:
a misfiled entry is a defect, since reads probe only the right shard.
Entries at the store root (the pre-shard layout) are misfiled too.
``--migrate`` is still accepted and does nothing.

Every fleet queue under the cache is audited the same way: the sweep
service's (``<cache>/serve/``) and each sweep's
(``<cache>/journal/<sweep_id[:16]>/``).  ``fsck`` counts every
resolution — ``quarantine`` and deadline-``expired`` ones included —
and the corrupt lines replay skipped, says whether the queue is
complete (nothing pending), and cross-checks each quarantined hash
against the store.  A quarantined spec *should* be a store hole (that
is what quarantine means); one with a sound store entry is a stale
poison verdict, flagged as a defect.  ``--prune`` absolves it (a
``done`` record supersedes the quarantine, a lease ``reset`` retires
its crash-loop pedigree) so the next submission reads the result
instead of replaying the hole.  ``--prune`` also removes complete sweep
directories (a finished sweep's queue serves nothing; an *incomplete*
one is what ``--resume`` needs and is never pruned) and sweep journals
in the format before sweep queues, ``journal/*.jsonl``, which no run
can resume.

When mid-run checkpointing has run against this cache
(``<cache>/ckpt/`` exists), ``fsck`` audits every snapshot: header
parse, format version, simulator source digest, spec-hash cross-check
against the directory it lives in, payload length and SHA-256, plus
stale temps stranded by killed writers.  A defective checkpoint is never *served* — the loader
skips it and falls back to the next-older sound snapshot — so these are
disk-hygiene defects, not correctness ones; ``--prune`` removes them
along with superseded snapshots (anything older than the newest sound
one per spec).

``fsck`` also counts the workload store's files
(``<cache>/workloads/*.mar``) written under a generator digest other
than the running interpreter's, and the temps killed builders left
there: no build here reads either again, so they too are disk hygiene,
reported and never a defect.  ``--prune`` deletes them.  The digest is
read from the generator's source files without importing the generator.

Every invocation appends its report as one ``fsck`` record to
``<journal-dir>/fsck.jsonl`` — the log format of the fleet queues
(:mod:`repro.exec.journal`) — so repairs are themselves journaled.  Exit
status: 0 when the store is clean (or everything defective was pruned),
1 when defects remain, 2 when the cache directory does not exist (it is
never created).
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cachedir import stale_temps
from repro.exec.fleet import Fleet
from repro.exec.journal import FSCK_LOG, KIND_FSCK, append_record, versioned
from repro.exec.store import ResultStore


def _audit_queue(name: str, root: Path, store: ResultStore,
                 prune: bool) -> Tuple[int, bool]:
    """Audit the fleet queue under ``root``.

    Prints the queue's counts, corrupt lines and completeness, and
    returns the number of *unrepaired* defects plus whether the queue
    is complete (it exists and has nothing pending).  A defect is a
    quarantined hash whose store entry is sound — a stale poison
    verdict that would make every future submission replay a hole over
    a perfectly good result.  With ``prune`` those are absolved in
    place and don't count.
    """
    fleet = Fleet(root)
    if not fleet.queue_path.exists():
        return 0, False
    snap = fleet.snapshot()
    pending = len(snap.pending())
    plain_failed = (len(snap.failures) - len(snap.quarantined)
                    - len(snap.expired))
    line = (f"  queue {name}: {len(snap.enqueued)} enqueued, "
            f"{len(snap.done)} done, {plain_failed} failed, "
            f"{len(snap.quarantined)} quarantined, "
            f"{len(snap.expired)} deadline-expired")
    if snap.corrupt_lines:
        line += f", {snap.corrupt_lines} corrupt line(s) skipped"
    print(line + (f", incomplete ({pending} pending)" if pending
                  else ", complete"))
    defects = 0
    for spec_hash in sorted(snap.quarantined):
        if store.verify_entry(store.shard_path(spec_hash)) is not None:
            # Consistent: the poison verdict and the store hole agree
            # (a defective entry reads as a hole too).
            continue
        if prune:
            if fleet.absolve(spec_hash):
                print(f"  absolved {spec_hash[:12]}… (quarantined, but "
                      "its store entry is sound; done record appended)")
            continue
        defects += 1
        print(f"  queue {name}: {spec_hash[:12]}… is quarantined but its "
              "store entry is sound — stale poison verdict (re-run "
              "with --prune to absolve)")
    return defects, not pending


def _audit_ckpts(store: ResultStore, prune: bool) -> dict:
    """Audit the mid-run checkpoint tree (``<cache>/ckpt/``).

    Checkpoints are a cache, not an artifact: a defective one is never
    *served* (the loader skips it and falls back to the next-older
    snapshot), so the audit exists to reclaim disk and to surface torn
    writes early.  ``--prune`` removes defective files, superseded
    snapshots (anything older than the newest sound one per spec) and
    stale temps, then drops emptied spec directories.
    """
    from repro.exec.checkpoint import audit_checkpoints

    audit = audit_checkpoints(store.ckpt_root, prune=prune)
    if audit.scanned or audit.stale_temps:
        line = (f"  checkpoints: {audit.scanned} scanned, {audit.ok} sound, "
                f"{len(audit.defective)} defective, "
                f"{len(audit.superseded)} superseded")
        if audit.stale_temps:
            line += f", {len(audit.stale_temps)} stale temp(s)"
        if prune:
            line += f"; pruned {len(audit.pruned)}"
        print(line)
        for rel, why in audit.defective:
            print(f"  checkpoint {rel}: {why}"
                  + ("" if prune else " (re-run with --prune to remove)"))
        for rel in audit.stale_temps:
            print(f"  TMP  ckpt/{rel}: stale temp from a dead writer")
    return {
        "scanned": audit.scanned,
        "ok": audit.ok,
        "defective": [list(pair) for pair in audit.defective],
        "superseded": audit.superseded,
        "stale_temps": audit.stale_temps,
        "pruned": audit.pruned,
        "clean": audit.clean,
    }


def _audit_workloads(root: Path, prune: bool) -> Dict[str, object]:
    """Count (and under ``prune`` delete) stale workload-store files.

    A file under another generator digest, or a temp whose builder is
    dead, is never read again, so it is reported but never a defect:
    the exit status ignores it.
    """
    from repro.workloads.digest import stale_files

    directory = root / "workloads"
    stale = stale_files(directory)
    size = sum(path.stat().st_size for path in stale)
    if stale:
        line = (f"  workloads: {len(stale)} file(s) under a stale generator "
                f"digest, {size} bytes")
        if prune:
            for path in stale:
                path.unlink()
            line += f"; pruned {len(stale)}"
        print(line + ("" if prune else " (re-run with --prune to remove)"))
    temps = stale_temps(directory)
    for path in temps:
        print(f"  TMP  workloads/{path.name}: stale temp from a dead writer")
        if prune:
            path.unlink()
            print(f"  pruned workloads/{path.name}")
    names = [path.name for path in stale]
    temp_names = [path.name for path in temps]
    return {"stale": names, "bytes": size, "stale_temps": temp_names,
            "pruned": names + temp_names if prune else []}


def _cmd_fsck(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)  # None -> default cache dir
    if not store.root.is_dir():
        # A mistyped path must not pass the audit (or be created by it).
        print(f"fsck: no cache directory at {store.root}", file=sys.stderr)
        return 2
    report = store.fsck(prune=args.prune)
    print(report.render())

    fleet_defects = _audit_queue("serve", store.serve_dir, store,
                                 args.prune)[0]
    pruned_journals: List[str] = []
    sweeps = (sorted(store.journal_dir.iterdir())
              if store.journal_dir.is_dir() else [])
    for path in sweeps:
        name = f"journal/{path.name}"
        if path.is_dir():
            defects, complete = _audit_queue(name, path, store, args.prune)
            fleet_defects += defects
            if args.prune and complete:
                shutil.rmtree(path)
                pruned_journals.append(name)
                print(f"  pruned {name} (sweep finished; its queue serves "
                      "nothing)")
        elif path.suffix == ".jsonl" and path.name != FSCK_LOG:
            print(f"  {name}: a sweep journal from before sweep queues; "
                  "no run can resume it")
            if args.prune:
                path.unlink()
                pruned_journals.append(name)
                print(f"  pruned {name}")
    ckpt_report = _audit_ckpts(store, args.prune)
    workloads_report = _audit_workloads(store.root, args.prune)

    # The repair is itself journaled: one fsck record in the log format
    # of the queues it lives beside.
    payload = report.describe()
    payload["pruned_journals"] = pruned_journals
    payload["fleet_defects"] = fleet_defects
    payload["checkpoints"] = ckpt_report
    payload["workloads"] = workloads_report
    append_record(store.journal_dir / FSCK_LOG,
                  versioned(KIND_FSCK, sweep="fsck", report=payload))

    if report.problems and not args.prune:
        print(f"fsck: {len(report.problems)} defective entr"
              f"{'y' if len(report.problems) == 1 else 'ies'} remain "
              "(re-run with --prune to remove)", file=sys.stderr)
        return 1
    unpruned = [name for name, _why in report.problems
                if name not in report.pruned]
    # A pruned checkpoint defect is repaired, same as a pruned store
    # entry; without --prune it keeps the exit status honest.
    ckpt_defects = not ckpt_report["clean"] and not args.prune
    return 1 if unpruned or fleet_defects or ckpt_defects else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="result-store maintenance (integrity check and repair)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fsck = sub.add_parser(
        "fsck",
        help="verify every store entry's integrity; --prune removes failures",
    )
    fsck.add_argument("--cache-dir", default=None,
                      help="result-store directory (default ~/.cache/repro "
                           "or $REPRO_CACHE_DIR)")
    fsck.add_argument("--prune", action="store_true",
                      help="remove defective entries, stale temps, "
                           "finished sweep queues and stale workloads")
    fsck.add_argument("--migrate", action="store_true",
                      help="does nothing; kept so existing scripts run "
                           "(entries at the store root are misfiled "
                           "defects that --prune removes)")
    args = parser.parse_args(argv)
    if args.subcommand == "fsck":
        return _cmd_fsck(args)
    parser.error(f"unknown subcommand {args.subcommand!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
