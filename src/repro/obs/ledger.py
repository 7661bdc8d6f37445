"""The benchmark ledger: a persistent, machine-readable perf trajectory.

Benchmark runs used to write free-text ``benchmarks/out/*.txt`` files:
human-readable, diff-hostile, and invisible to tooling — the repo had no
usable record of whether it was getting faster or slower.  The ledger
fixes that: every benchmark (and the CI smoke run) appends one record to
``BENCH_obs.json`` describing *what* ran (label, spec hash, trace
length), *how fast* (wall seconds, simulated trace records per second),
*how big* (peak RSS) and *where* (host fingerprint), so
``python -m repro.obs diff`` can print a per-metric regression report
between any two entries.

File format
-----------
The tree's one JSON-lines log format (:mod:`repro.exec.journal`): one
record per line, appended under an exclusive ``flock`` with one
``write`` + ``fsync`` and rolled back on a failed write, so concurrent
writers — parallel CI shards, a chaos loop resuming while a benchmark
finishes — serialise cleanly and a killed process corrupts at most its
own last line.  Reads skip unreadable lines — a corrupt entry costs one
record, never the ledger.  Ledger records carry no ``v``/``kind``:
their layout is :class:`LedgerRecord`, versioned by ``schema``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Bump when the record layout changes incompatibly; readers keep
#: accepting older records (missing fields default) but tools may warn.
LEDGER_SCHEMA = 1

#: Default ledger file, overridable with ``$REPRO_LEDGER``.
DEFAULT_LEDGER = "BENCH_obs.json"


def default_ledger_path() -> Path:
    env = os.environ.get("REPRO_LEDGER")
    if env:
        return Path(env).expanduser()
    return Path(DEFAULT_LEDGER)


def host_fingerprint() -> Dict[str, Any]:
    """Where a record was measured: enough to group comparable entries."""
    node = platform.node() or "unknown"
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "node": hashlib.sha256(node.encode("utf-8")).hexdigest()[:12],
    }


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


@dataclass(frozen=True)
class LedgerRecord:
    """One appended measurement."""

    label: str
    timestamp: str = ""
    spec_hash: str = ""
    benchmark: str = ""
    mechanism: str = ""
    n_instructions: int = 0
    wall_seconds: float = 0.0
    events_per_second: float = 0.0   # simulated trace records / wall second
    peak_rss_kb: int = 0
    retries: int = 0   # executor re-attempts behind this measurement
    failures: int = 0  # specs that exhausted every attempt (grid holes)
    host: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    schema: int = LEDGER_SCHEMA

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LedgerRecord":
        """Build a record from a parsed line, ignoring unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def make_record(
    label: str,
    wall_seconds: float,
    instructions: int = 0,
    spec_hash: str = "",
    benchmark: str = "",
    mechanism: str = "",
    n_instructions: int = 0,
    metrics: Optional[Dict[str, float]] = None,
    retries: int = 0,
    failures: int = 0,
) -> LedgerRecord:
    """Assemble a record, stamping time, host and peak RSS here.

    ``retries``/``failures`` carry the executor's fault accounting so a
    chaos run's ledger entry records how hard it had to fight — and so
    ``diff`` can flag a measurement polluted by retried work.
    """
    rate = instructions / wall_seconds if wall_seconds > 0 and instructions else 0.0
    return LedgerRecord(
        label=label,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        spec_hash=spec_hash,
        benchmark=benchmark,
        mechanism=mechanism,
        n_instructions=n_instructions or instructions,
        wall_seconds=round(wall_seconds, 6),
        events_per_second=round(rate, 3),
        peak_rss_kb=peak_rss_kb(),
        retries=retries,
        failures=failures,
        host=host_fingerprint(),
        metrics=dict(metrics or {}),
    )


class Ledger:
    """Append-only JSON Lines ledger with forgiving reads."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path).expanduser() if path else default_ledger_path()

    # -- writing --------------------------------------------------------------

    def append(self, record: LedgerRecord) -> LedgerRecord:
        """Durably append one record as a single line."""
        # Deferred: repro.exec imports the simulator, which imports
        # repro.obs — a module-level import here would be a cycle.
        from repro.exec.journal import append_record

        append_record(self.path, dataclasses.asdict(record))
        return record

    # -- reading --------------------------------------------------------------

    def scan(self) -> Tuple[List[LedgerRecord], List[str]]:
        """All readable records plus a note per skipped (corrupt) line."""
        from repro.exec.journal import replay

        records, skipped = replay(self.path, LedgerRecord.from_dict)
        return records, [f"{self.path}:{number}: skipped (unreadable "
                         "record)" for number in skipped]

    def read(self) -> List[LedgerRecord]:
        return self.scan()[0]

    def __len__(self) -> int:
        return len(self.read())

    # -- selection ------------------------------------------------------------

    def resolve(self, selector: str) -> LedgerRecord:
        """An entry by selector.

        * ``latest`` / ``prev`` — last / second-to-last entry;
        * an integer — positional index (negatives from the end);
        * ``<label>`` — newest entry with that label;
        * ``<label>@-2`` — nth-from-the-end entry with that label.
        """
        records = self.read()
        if not records:
            raise LookupError(f"ledger {self.path} is empty")
        if selector == "latest":
            return records[-1]
        if selector == "prev":
            if len(records) < 2:
                raise LookupError("ledger has no previous entry")
            return records[-2]
        try:
            return records[int(selector)]
        except ValueError:
            pass
        except IndexError:
            raise LookupError(
                f"index {selector} out of range ({len(records)} entries)"
            ) from None
        label, _, offset = selector.partition("@")
        matches = [r for r in records if r.label == label]
        if not matches:
            raise LookupError(f"no ledger entry labeled {label!r}")
        index = int(offset) if offset else -1
        try:
            return matches[index]
        except IndexError:
            raise LookupError(
                f"label {label!r} has only {len(matches)} entries"
            ) from None


# -- diffing -------------------------------------------------------------------

#: Direction of goodness for the built-in metrics.
LOWER_IS_BETTER = {"wall_seconds", "peak_rss_kb"}
HIGHER_IS_BETTER = {"events_per_second"}

#: Relative change beyond which a worsening metric counts as a regression.
REGRESSION_THRESHOLD = 0.02


@dataclass(frozen=True)
class DiffRow:
    """One metric compared across two ledger entries.

    ``exact`` marks a simulated metric of two records of the same cell
    (benchmark, mechanism, instruction count): simulation is
    deterministic, so any change at all is a correctness alarm, not
    noise.
    """

    metric: str
    a: float
    b: float
    exact: bool = False

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def pct(self) -> float:
        if self.a == 0:
            return 0.0
        return (self.b - self.a) / abs(self.a) * 100.0

    @property
    def regression(self) -> bool:
        if self.exact:
            return self.a != self.b
        if self.a == 0:
            return False
        rel = (self.b - self.a) / abs(self.a)
        if self.metric in LOWER_IS_BETTER:
            return rel > REGRESSION_THRESHOLD
        if self.metric in HIGHER_IS_BETTER:
            return rel < -REGRESSION_THRESHOLD
        return False


def diff_records(a: LedgerRecord, b: LedgerRecord) -> List[DiffRow]:
    """Per-metric comparison of ``a`` (before) and ``b`` (after)."""
    rows = [
        DiffRow("wall_seconds", a.wall_seconds, b.wall_seconds),
        DiffRow("events_per_second", a.events_per_second, b.events_per_second),
        DiffRow("peak_rss_kb", float(a.peak_rss_kb), float(b.peak_rss_kb)),
    ]
    # Fault accounting appears only when either side saw any, so diffs of
    # clean entries (and entries predating the fields) look as before.
    if a.retries or b.retries:
        rows.append(DiffRow("retries", float(a.retries), float(b.retries)))
    if a.failures or b.failures:
        rows.append(DiffRow("failures", float(a.failures), float(b.failures)))
    same_cell = bool(a.benchmark) and (
        (a.benchmark, a.mechanism, a.n_instructions)
        == (b.benchmark, b.mechanism, b.n_instructions))
    for key in sorted(set(a.metrics) | set(b.metrics)):
        rows.append(DiffRow(
            key, float(a.metrics.get(key, 0.0)),
            float(b.metrics.get(key, 0.0)), exact=same_cell,
        ))
    return rows


def render_diff(a: LedgerRecord, b: LedgerRecord) -> str:
    """The regression report ``python -m repro.obs diff`` prints."""
    rows = diff_records(a, b)
    same_host = a.host.get("node") == b.host.get("node")
    lines = [
        f"ledger diff: {a.label or '?'} ({a.timestamp}) -> "
        f"{b.label or '?'} ({b.timestamp})",
        f"  hosts: {'same' if same_host else 'DIFFERENT'}"
        f"  spec: {'same' if a.spec_hash == b.spec_hash and a.spec_hash else 'differs/unknown'}",
        f"  {'metric':<28} {'before':>12} {'after':>12} {'delta':>12} {'%':>8}",
    ]
    regressions = 0
    for row in rows:
        flag = ""
        if row.regression:
            flag = "  << regression"
            regressions += 1
        lines.append(
            f"  {row.metric:<28} {row.a:>12.3f} {row.b:>12.3f} "
            f"{row.delta:>+12.3f} {row.pct:>+7.1f}%{flag}"
        )
    lines.append(
        f"  {regressions} regression{'' if regressions == 1 else 's'} "
        f"(threshold {REGRESSION_THRESHOLD:.0%} on wall/rate/RSS; any "
        "change to a simulated metric of the same cell)"
    )
    return "\n".join(lines)
