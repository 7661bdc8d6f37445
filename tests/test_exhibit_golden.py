"""What every exhibit computes, pinned at a small scale.

The per-layer pins cover pieces: ``miss_path_pins.json`` pins machine
variants and ``test_workload_pins.py`` the generator.  This file pins
what the exhibits compute from them.  ``python -m repro all`` runs at
``--n 2000`` on swim, gzip and mcf with ``--jobs 1``, cold on a fresh
result store, then warm from that store with nothing simulated.  Both
passes must match ``exhibit_golden.json``: each exhibit's stdout, and
a SHA-256 of every result it used, keyed by spec hash.  The digest
covers the canonical JSON of the whole ``RunResult`` (the store's own
checksum), so a move below the printed precision shows.  A mismatch
names the exhibit and the spec.

Regenerate the golden only for a deliberate change to results, and list
every moved cell with that change::

    PYTHONPATH=src python tests/test_exhibit_golden.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import Any, Dict, List, Tuple
from unittest import mock

from repro import __main__ as cli
from repro.exec import Executor, FailedRun, RunSpec, reset_default_executor
from repro.exec.store import ResultStore, result_checksum

GOLDEN = Path(__file__).with_name("exhibit_golden.json")
ARGV = ["all", "--n", "2000", "--benchmarks", "swim,gzip,mcf", "--jobs", "1"]


def _label(spec: RunSpec) -> str:
    label = f"{spec.benchmark}/{spec.mechanism} n={spec.n_instructions}"
    if spec.selection is not None:
        label += f" selection={spec.selection}"
    return label


def record(store_dir: Path) -> Tuple[Dict[str, Any], str]:
    """One ``all`` pass on the store at ``store_dir``: (record, stderr).

    The record holds each exhibit's stdout lines and the hashes of the
    specs it ran, and each spec's label and result digest.
    """
    exhibits: Dict[str, Dict[str, List[str]]] = {}
    results: Dict[str, List[str]] = {}
    run_exhibit, run_batch = cli._run_exhibit, Executor.run

    def exhibit(name: str, args: Any, executor: Executor) -> int:
        exhibits[name] = {"stdout": [], "specs": []}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run_exhibit(name, args, executor)
        exhibits[name]["stdout"] = out.getvalue().splitlines()
        return status

    def batch(self: Executor, specs: List[RunSpec]) -> List[Any]:
        resolved = run_batch(self, specs)
        used = exhibits[next(reversed(exhibits))]["specs"]
        for spec, result in zip(specs, resolved):
            assert not isinstance(result, FailedRun), result.summary()
            if spec.content_hash not in used:
                used.append(spec.content_hash)
            results[spec.content_hash] = [
                _label(spec), result_checksum(dataclasses.asdict(result))]
        return resolved

    err = io.StringIO()
    with mock.patch.object(cli, "_run_exhibit", exhibit), \
            mock.patch.object(Executor, "run", batch), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            status = cli.main(ARGV + ["--cache-dir", str(store_dir)])
        finally:
            reset_default_executor()
    assert status == 0, err.getvalue()
    return ({"argv": ARGV, "exhibits": exhibits,
             "results": dict(sorted(results.items()))}, err.getvalue())


def mismatches(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Each difference between two records, naming exhibit and spec."""
    found = []
    names = list(want["exhibits"]) + [name for name in got["exhibits"]
                                      if name not in want["exhibits"]]
    for name in names:
        mine, theirs = got["exhibits"].get(name), want["exhibits"].get(name)
        if mine is None or theirs is None:
            found.append(f"{name}: {'not run' if mine is None else 'new'}")
            continue
        for number, (line, pinned) in enumerate(
                zip_longest(mine["stdout"], theirs["stdout"]), start=1):
            if line != pinned:
                found.append(f"{name}: stdout line {number} is {line!r}, "
                             f"golden {pinned!r}")
                break
        for spec_hash in dict.fromkeys(theirs["specs"] + mine["specs"]):
            now = got["results"].get(spec_hash) if (
                spec_hash in mine["specs"]) else None
            pinned = want["results"].get(spec_hash) if (
                spec_hash in theirs["specs"]) else None
            if now != pinned:
                label = (now or pinned)[0]
                found.append(
                    f"{name}: {label} ({spec_hash[:12]}): result "
                    f"{'not run' if now is None else now[1][:12]}, golden "
                    f"{'none' if pinned is None else pinned[1][:12]}")
    return found


def _assert_matches(got: Dict[str, Any], want: Dict[str, Any],
                    which: str) -> None:
    found = mismatches(got, want)
    assert not found, (f"{which} pass: {len(found)} mismatch(es) with "
                       f"{GOLDEN.name}:\n" + "\n".join(found[:20]))


def test_every_exhibit_matches_its_golden_cold_and_warm(tmp_path):
    want = json.loads(GOLDEN.read_text())
    store = tmp_path / "store"
    cold, cold_err = record(store)
    assert f" {len(cold['results'])} simulated" in cold_err, cold_err
    _assert_matches(cold, want, "cold")
    # Every stored entry carries the digest of the result it was run for.
    entries = {path.stem: json.loads(path.read_text())["checksum"]
               for path in ResultStore(store).entry_paths()}
    assert entries == {spec_hash: digest for spec_hash, (_label, digest)
                       in cold["results"].items()}

    warm, warm_err = record(store)
    assert " 0 simulated" in warm_err, warm_err
    _assert_matches(warm, want, "warm")


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        golden, _err = record(Path(scratch) / "store")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden['exhibits'])} exhibits and "
          f"{len(golden['results'])} results to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
