"""Shared infrastructure for the figure/table regeneration benches.

Every bench runs one paper exhibit at full scale (all 26 benchmarks,
``REPRO_BENCH_N`` instructions per run — default 30000), prints the
paper-style rows, and saves them under ``benchmarks/out/`` for
EXPERIMENTS.md.  Sweeps are memoised process-wide, so the exhibits that
share the Figure 4 grid pay for it once.

Alongside the human-readable text, :func:`record` appends one
machine-readable entry per exhibit to the benchmark ledger
(``BENCH_obs.json`` at the repo root, or ``$REPRO_LEDGER``): wall-clock
charged to that exhibit, simulations run, trace records per second —
which ``python -m repro.obs diff`` tabulates between any two entries.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to watch the
tables stream by).  ``REPRO_BENCH_N=8000`` gives a quick pass.
"""

import os
from pathlib import Path

import pytest

from repro.exec import get_default_executor
from repro.obs.ledger import Ledger, make_record

#: Trace length per simulation in the benches.
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "30000"))

OUT_DIR = Path(__file__).parent / "out"

#: The repo-root ledger (``$REPRO_LEDGER`` still wins when set).
LEDGER_PATH = os.environ.get(
    "REPRO_LEDGER", str(Path(__file__).parent.parent / "BENCH_obs.json")
)

#: Telemetry snapshot at the previous :func:`record` call, so each
#: exhibit's ledger entry charges only its own share of the process-wide
#: executor's counters.
_seen = {"wall": 0.0, "simulated": 0, "results": 0}


def record(result) -> str:
    """Print and persist one exhibit's rendered rows; return the text.

    Also appends the exhibit's execution accounting to the ledger.
    """
    OUT_DIR.mkdir(exist_ok=True)
    text = result.render()
    slug = result.exhibit.lower().replace(" ", "_")
    (OUT_DIR / f"{slug}.txt").write_text(text + "\n")
    _ledger_entry(slug)
    print()
    print(text)
    return text


def _ledger_entry(slug: str) -> None:
    telemetry = get_default_executor().telemetry
    wall = telemetry.wall_time - _seen["wall"]
    simulated = telemetry.simulated - _seen["simulated"]
    results = telemetry.results_returned - _seen["results"]
    _seen.update(
        wall=telemetry.wall_time, simulated=telemetry.simulated,
        results=telemetry.results_returned,
    )
    Ledger(LEDGER_PATH).append(make_record(
        label=slug,
        wall_seconds=wall,
        instructions=simulated * BENCH_N,
        n_instructions=BENCH_N,
        metrics={
            "runs_simulated": float(simulated),
            "results_returned": float(results),
        },
    ))


@pytest.fixture(scope="session")
def bench_n():
    return BENCH_N
