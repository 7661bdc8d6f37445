"""Pinned output of the workload generator, byte for byte.

Every simulated result starts from ``SyntheticWorkload.build``: a trace
and a functional image drawn from one seeded ``random.Random``.  A
rewrite of the generator that moves one draw, reorders one image word or
miscounts one write changes results everywhere, often by too little for
any exhibit to show.  This file pins a SHA-256 of each build's whole
output: the trace, the image's ``(address, value)`` pairs in insertion
order, its heap bounds and its read/write counters.  Every benchmark is
built at its spec seed and at a second fixed seed, and a few longer
builds run well past the initialisation phase boundary.

The pins in ``workload_pins.json`` were recorded before the generator's
hot loops were last rewritten.  Regenerate them only for a deliberate
change to what the generator produces::

    PYTHONPATH=src python tests/test_workload_pins.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from array import array
from itertools import chain
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

from repro.workloads.base import SyntheticWorkload
from repro.workloads.image import MemoryImage
from repro.workloads.registry import ALL_BENCHMARKS, get_spec

PINS = Path(__file__).with_name("workload_pins.json")
N = 3000
#: Each benchmark is built at its spec's own seed (None) and at this one.
SEEDS = (None, 90210)
#: Longer builds: mcf's pointer chase reads the image it is building, and
#: apsi's five strided engines wrap their working sets.
LONG_BUILDS = (("mcf", 20_000), ("apsi", 30_000))


def build_key(name: str, n: int, seed: Optional[int]) -> str:
    return f"{name}/{n}/{'spec' if seed is None else seed}"


#: Pin key -> (benchmark, records, seed); seed None is the spec's own.
BUILDS: Dict[str, Tuple[str, int, Optional[int]]] = {
    build_key(*b): b for b in
    [(name, N, seed) for name in ALL_BENCHMARKS for seed in SEEDS]
    + [(name, n, None) for name, n in LONG_BUILDS]
}


def output_digest(trace: list, image: MemoryImage) -> str:
    """SHA-256 over everything a build hands the simulator.

    The trace's records and the image's addresses and values (in
    insertion order) go in as packed int64 columns, then the heap
    bounds and the read/write counters.
    """
    image._materialize()
    words = image._words
    h = hashlib.sha256()
    for column in (chain.from_iterable(trace), words.keys(), words.values(),
                   (len(trace), len(words), image.heap_lo, image.heap_hi,
                    image.reads, image.writes)):
        h.update(array("q", column).tobytes())
    return h.hexdigest()


def fingerprint(name: str, n: int, seed: Optional[int]) -> str:
    spec = get_spec(name)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return output_digest(*SyntheticWorkload(spec).build(n))


def _pins() -> Dict[str, str]:
    return json.loads(PINS.read_text())


def test_pins_cover_every_build():
    assert set(_pins()) == set(BUILDS)


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_build_matches_its_pin(key):
    assert fingerprint(*BUILDS[key]) == _pins()[key]


def main() -> int:
    pins = {key: fingerprint(*build) for key, build in BUILDS.items()}
    cells = (f"{json.dumps(key)}: {json.dumps(pins[key])}"
             for key in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(cells) + "\n}\n")
    print(f"wrote {len(pins)} builds to {PINS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
