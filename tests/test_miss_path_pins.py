"""Pinned results of the miss path under every machine variant it branches on.

``tests/test_fastpath.py`` compares the fast path with the slow one, and
``bench/golden`` pins the baseline machine only; both run whatever the
current ``Cache``/``MemoryHierarchy``/DRAM code does.  This file pins the
ipc, cycles and full ``stats`` dict of short runs under each variant the
miss path has a branch for (imprecise cache, infinite MSHRs, the three
memory models, the DRAM page policy and interleave, the prefetch throttle,
a set-associative L1d), so a rewrite of that path that drifts under any
of them fails here.

The pins in ``miss_path_pins.json`` were recorded before the miss path was
last rewritten.  Regenerate them only for a deliberate model change::

    PYTHONPATH=src python tests/test_miss_path_pins.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.core.config import (
    MEMORY_CONSTANT,
    MEMORY_SDRAM_FAST,
    MachineConfig,
    baseline_config,
)
from repro.core.simulation import run_trace
from repro.mechanisms.registry import BASELINE, create
from repro.workloads.registry import build as build_workload

PINS = Path(__file__).with_name("miss_path_pins.json")
N = 5000
#: mcf and gcc are the most miss-heavy; lucas is where GHB's prefetches
#: fill MSHRs and meet the throttle, so those two variants differ there.
BENCHMARKS = ("mcf", "gcc", "lucas")
MECHANISMS = (BASELINE, "VC", "GHB")


def _two_way_l1d(config: MachineConfig) -> MachineConfig:
    return dataclasses.replace(
        config, l1d=dataclasses.replace(config.l1d, assoc=2))


VARIANTS: Dict[str, Callable[[MachineConfig], MachineConfig]] = {
    "baseline": lambda c: c,
    "simplescalar_cache": lambda c: c.with_simplescalar_cache(),
    "infinite_mshr": lambda c: c.with_infinite_mshr(),
    "memory_constant": lambda c: c.with_memory_model(MEMORY_CONSTANT),
    "memory_sdram_fast": lambda c: c.with_memory_model(MEMORY_SDRAM_FAST),
    "closed_page": lambda c: dataclasses.replace(c, dram_page_policy="closed"),
    "linear_interleave": lambda c: dataclasses.replace(
        c, dram_interleave="linear"),
    "no_prefetch_throttle": lambda c: dataclasses.replace(
        c, prefetch_throttle=False),
    "l1d_2way": _two_way_l1d,
}


def cell_key(variant: str, benchmark: str, mechanism: str) -> str:
    return f"{variant}/{benchmark}/{mechanism}"


def fingerprint(variant: str, benchmark: str, mechanism: str) -> Dict[str, Any]:
    """ipc, cycles and stats of one cell, JSON-normalised."""
    trace, image = build_workload(benchmark, N)
    result = run_trace(
        list(trace), create(mechanism), VARIANTS[variant](baseline_config()),
        image, benchmark=benchmark, mechanism_name=mechanism,
    )
    return json.loads(json.dumps(
        {"ipc": result.ipc, "cycles": result.cycles, "stats": result.stats},
        sort_keys=True))


def _pins() -> Dict[str, Any]:
    return json.loads(PINS.read_text())


def test_pins_cover_every_cell():
    expected = {cell_key(v, b, m) for v in VARIANTS for b in BENCHMARKS
                for m in MECHANISMS}
    assert set(_pins()) == expected


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_matches_its_pins(variant):
    pins = _pins()
    for benchmark in BENCHMARKS:
        for mechanism in MECHANISMS:
            key = cell_key(variant, benchmark, mechanism)
            got = fingerprint(variant, benchmark, mechanism)
            want = pins[key]
            changed = sorted(name for name in set(got["stats"])
                             | set(want["stats"])
                             if got["stats"].get(name)
                             != want["stats"].get(name))
            assert not changed, f"{key}: stats differ: {changed}"
            assert (got["ipc"], got["cycles"]) == (want["ipc"],
                                                   want["cycles"]), key


def main() -> int:
    pins = {cell_key(v, b, m): fingerprint(v, b, m)
            for v in VARIANTS for b in BENCHMARKS for m in MECHANISMS}
    cells = (f"{json.dumps(key)}: {json.dumps(pins[key], sort_keys=True)}"
             for key in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(cells) + "\n}\n")
    print(f"wrote {len(pins)} cells to {PINS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
