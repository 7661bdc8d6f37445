"""Result containers for mechanism x benchmark sweeps.

:class:`RunResult` and the run-length defaults live here, not in
:mod:`repro.core.simulation`, so that the executor, the result store and
the exhibits can hold and serve results without importing the machine.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.mechanisms.registry import BASELINE

if TYPE_CHECKING:  # deferred at runtime: repro.exec imports this module
    from repro.exec.policy import FailedRun

#: Default trace length: scaled from the paper's 500M-instruction SimPoint
#: traces to what cycle-level pure-Python simulation sustains (DESIGN.md).
DEFAULT_INSTRUCTIONS = 30_000

#: Fraction of each trace treated as cache warm-up (IPC measured after it).
WARMUP_FRACTION = 0.2


@dataclass
class RunResult:
    """Everything a single simulation produced."""

    benchmark: str
    mechanism: str
    ipc: float
    cycles: int
    instructions: int
    l1_miss_rate: float
    l2_miss_rate: float
    avg_load_latency: float
    avg_memory_latency: float
    memory_accesses: float
    prefetches_issued: float
    useful_prefetches: float
    mechanism_table_accesses: float
    stats: Dict[str, float] = field(default_factory=dict)

    def speedup_over(self, base: "RunResult") -> float:
        """IPC speedup of this run over ``base`` (same benchmark)."""
        if self.benchmark != base.benchmark:
            raise ValueError(
                f"speedup across benchmarks: {self.benchmark} vs {base.benchmark}"
            )
        if base.ipc == 0:
            return 0.0
        return self.ipc / base.ipc


class ResultSet:
    """A grid of :class:`RunResult` keyed by (mechanism, benchmark).

    The baseline must be present for speedup queries.  Iteration orders
    follow insertion order of :meth:`add`, so sweeps built in paper order
    render in paper order.

    A grid may carry **holes**: cells whose spec exhausted every attempt
    under a lenient retry policy arrive as
    :class:`~repro.exec.policy.FailedRun` records via
    :meth:`add_failure`.  Holes are not results — :meth:`get` still
    raises for them (with the failure attached to the message) — but
    they are enumerable (:attr:`failures`, :meth:`failure_for`) so
    tables and reports can render the missing cells explicitly, and
    :meth:`dense` yields the largest hole-free sub-grid for analytics
    that need complete rows.
    """

    def __init__(self) -> None:
        self._results: Dict[Tuple[str, str], RunResult] = {}
        self._failures: Dict[Tuple[str, str], "FailedRun"] = {}
        self._mechanisms: List[str] = []
        self._benchmarks: List[str] = []

    # -- construction -------------------------------------------------------------

    def add(self, result: RunResult) -> None:
        key = (result.mechanism, result.benchmark)
        if key in self._results:
            raise ValueError(f"duplicate result for {key}")
        if key in self._failures:
            raise ValueError(f"cell {key} already recorded as failed")
        self._results[key] = result
        self._note_axes(result.mechanism, result.benchmark)

    def add_failure(self, failure: "FailedRun") -> None:
        """Record a cell whose spec failed every attempt.

        The cell keeps its place on both axes so renderers can show the
        hole where the number should have been.
        """
        key = (failure.mechanism, failure.benchmark)
        if key in self._results:
            raise ValueError(f"cell {key} already has a result")
        if key in self._failures:
            raise ValueError(f"duplicate failure for {key}")
        self._failures[key] = failure
        self._note_axes(failure.mechanism, failure.benchmark)

    def _note_axes(self, mechanism: str, benchmark: str) -> None:
        if mechanism not in self._mechanisms:
            self._mechanisms.append(mechanism)
        if benchmark not in self._benchmarks:
            self._benchmarks.append(benchmark)

    # -- access --------------------------------------------------------------------

    @property
    def mechanisms(self) -> List[str]:
        return list(self._mechanisms)

    @property
    def benchmarks(self) -> List[str]:
        return list(self._benchmarks)

    def get(self, mechanism: str, benchmark: str) -> RunResult:
        try:
            return self._results[(mechanism, benchmark)]
        except KeyError:
            failure = self._failures.get((mechanism, benchmark))
            if failure is not None:
                raise KeyError(
                    f"no result for ({mechanism}, {benchmark}): "
                    f"{failure.summary()}"
                ) from None
            raise KeyError(f"no result for ({mechanism}, {benchmark})") from None

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._results

    def __len__(self) -> int:
        return len(self._results)

    # -- failure accounting ---------------------------------------------------------

    @property
    def failures(self) -> List["FailedRun"]:
        """Every hole in the grid, in insertion order."""
        return list(self._failures.values())

    @property
    def complete(self) -> bool:
        """True when the grid has no failed cells."""
        return not self._failures

    def failure_for(self, mechanism: str, benchmark: str) -> Optional["FailedRun"]:
        """The failure occupying a cell, or None if it holds a result."""
        return self._failures.get((mechanism, benchmark))

    def incomplete_benchmarks(self) -> List[str]:
        """Benchmarks with at least one failed cell, in axis order."""
        holed = {benchmark for (_m, benchmark) in self._failures}
        return [b for b in self._benchmarks if b in holed]

    def dense(self) -> "ResultSet":
        """The largest hole-free sub-grid: benchmarks with no failed cell.

        Analytics that aggregate across a whole benchmark column (mean
        speedups, rankings, sensitivity sweeps) use this so one failed
        cell degrades one benchmark, not the whole analysis.
        """
        holed = {benchmark for (_m, benchmark) in self._failures}
        return self.subset(b for b in self._benchmarks if b not in holed)

    def ipc(self, mechanism: str, benchmark: str) -> float:
        return self.get(mechanism, benchmark).ipc

    def speedup(self, mechanism: str, benchmark: str) -> float:
        """IPC speedup of ``mechanism`` over the baseline on ``benchmark``."""
        base = self.get(BASELINE, benchmark)
        return self.get(mechanism, benchmark).speedup_over(base)

    def mean_speedup(
        self, mechanism: str, benchmarks: Optional[Sequence[str]] = None
    ) -> float:
        """Arithmetic-mean speedup over ``benchmarks`` (default: all)."""
        names = list(benchmarks) if benchmarks is not None else self._benchmarks
        if not names:
            raise ValueError("empty benchmark selection")
        return sum(self.speedup(mechanism, b) for b in names) / len(names)

    def speedup_row(self, mechanism: str) -> Dict[str, float]:
        """Per-benchmark speedups for one mechanism."""
        return {b: self.speedup(mechanism, b) for b in self._benchmarks}

    # -- persistence -----------------------------------------------------------------

    def to_json(self) -> str:
        payload = []
        for result in self._results.values():
            row = asdict(result)
            row.pop("stats", None)  # detailed stats stay in memory only
            payload.append(row)
        doc: Dict[str, object] = {"results": payload}
        if self._failures:
            doc["failures"] = [f.describe() for f in self._failures.values()]
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        data = json.loads(text)
        result_set = cls()
        for row in data["results"]:
            result_set.add(RunResult(**row))
        if data.get("failures"):
            # Imported here: repro.exec imports this module at package init.
            from repro.exec.policy import FailedRun

            for row in data["failures"]:
                result_set.add_failure(FailedRun.from_dict(row))
        return result_set

    # -- bulk helpers ----------------------------------------------------------------

    def subset(self, benchmarks: Iterable[str]) -> "ResultSet":
        """A new ResultSet restricted to ``benchmarks`` (holes included)."""
        wanted = set(benchmarks)
        out = ResultSet()
        for (mechanism, benchmark), result in self._results.items():
            if benchmark in wanted:
                out.add(result)
        for (mechanism, benchmark), failure in self._failures.items():
            if benchmark in wanted:
                out.add_failure(failure)
        return out
