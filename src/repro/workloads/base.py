"""Workload specification and the synthetic trace builder.

A :class:`WorkloadSpec` captures a benchmark's *memory personality*:
instruction mix, branch predictability, data-dependence density, value
locality, and a weighted mixture of address-pattern engines (optionally
varying across execution phases, which is what gives SimPoint something to
find).  :class:`SyntheticWorkload` turns a spec into a concrete
``(trace, image)`` pair deterministically (same spec + seed + length -> same
trace).
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Tuple

from repro.isa.instr import Op
from repro.workloads.image import WORD_BYTES, MemoryImage
from repro.workloads.patterns import (
    ENGINE_KINDS,
    FREQUENT_BITS,
    FREQUENT_VALUES,
    WIDE_BITS,
    WIDE_TAG,
    WIDE_VALUES,
    PatternEngine,
)

#: Spacing between engine data regions (keeps them in distinct DRAM areas).
_REGION_SPACING = 0x0400_0000
_REGION_BASE = 0x1000_0000
_CODE_BASE = 0x0040_0000
#: A record depends on a load fewer than this many records back, or on none.
_DEP_REACH = 500


@dataclass(frozen=True)
class PatternMix:
    """One engine in a workload's mixture: kind, weight, constructor args."""

    kind: str
    weight: float
    params: Tuple[Tuple[str, object], ...] = ()

    def make(self, base: int, rng: random.Random) -> PatternEngine:
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        return ENGINE_KINDS[self.kind](base, rng, **dict(self.params))


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to synthesise one benchmark's trace."""

    name: str
    suite: str                      # "int" or "fp"
    description: str
    patterns: Tuple[PatternMix, ...]
    mem_fraction: float = 0.35      # fraction of instructions that are loads/stores
    store_fraction: float = 0.25    # fraction of memory ops that are stores
    branch_fraction: float = 0.12
    fp_fraction: float = 0.0        # fraction of ALU ops that are FP
    mispredict_rate: float = 0.04
    value_locality: float = 0.3     # frequent-value share of stored/initial data
    dep_density: float = 0.5        # chance an ALU op consumes the latest load
    #: Execution phases: (fraction_of_trace, per-pattern weight multipliers).
    #: Empty means one homogeneous phase.
    phases: Tuple[Tuple[float, Tuple[float, ...]], ...] = ()
    #: Static code size (bytes) the PC stream walks through.  Footprints
    #: beyond the 32 KB L1 instruction cache create front-end fetch misses,
    #: as for the code-heavy SPEC INT members (gcc, perlbmk, crafty...).
    code_footprint: int = 4096
    seed: int = 1

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ValueError(f"suite must be 'int' or 'fp', got {self.suite!r}")
        if not self.patterns:
            raise ValueError(f"{self.name}: at least one pattern required")
        for fraction_name in ("mem_fraction", "branch_fraction"):
            value = getattr(self, fraction_name)
            if not 0 < value < 1:
                raise ValueError(f"{self.name}: {fraction_name}={value} out of (0,1)")
        for _, multipliers in self.phases:
            if len(multipliers) != len(self.patterns):
                raise ValueError(
                    f"{self.name}: phase multiplier count != pattern count"
                )
        weights = [mix.weight for mix in self.patterns]
        weights += [m for _, multipliers in self.phases for m in multipliers]
        if not all(0 <= w < math.inf for w in weights):
            raise ValueError(
                f"{self.name}: pattern weights and phase multipliers must "
                f"be finite and >= 0"
            )


class SyntheticWorkload:
    """Builds deterministic traces (lists of ISA records) from a spec."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec

    def build(
        self, n_instructions: int
    ) -> Tuple[List[Tuple[int, int, int, int, int]], MemoryImage]:
        """Generate ``n_instructions`` records; return ``(trace, image)``.

        One ``random.Random(spec.seed)`` makes every draw.  The engines
        draw first, each building its region of the image in turn.  Then,
        per record: ``random()`` picks the class.  A memory record picks
        its engine with ``random() * total`` against the phase's running
        weights (no draw if they are all zero), lets the engine draw its
        address, and unless the engine is chained draws store-or-load; a
        store draws its value.  A branch draws its misprediction.  An ALU
        op draws FP-or-int, then mul-or-alu, then (once a load exists) its
        load dependence, else a ``randint(1, 4)`` distance.
        ``tests/test_workload_pins.py`` pins the output byte for byte.
        """
        spec = self.spec
        rng = random.Random(spec.seed)
        image = MemoryImage()

        engines: List[PatternEngine] = []
        for i, mix in enumerate(spec.patterns):
            engine = mix.make(_REGION_BASE + i * _REGION_SPACING, rng)
            engine.setup(image, spec.value_locality)
            engines.append(engine)
        nexts = [engine.next for engine in engines]
        chained = [engine.chained for engine in engines]
        load_pcs = [_CODE_BASE + i * 0x100 for i in range(len(engines))]
        store_pcs = [pc + 0x40 for pc in load_pcs]

        trace: List[Tuple[int, int, int, int, int]] = []
        append = trace.append
        random_, getrandbits = rng.random, rng.getrandbits
        words = image._words
        load_op = int(Op.LOAD)
        store_op = int(Op.STORE)
        branch_op = int(Op.BRANCH)
        int_alu = int(Op.INT_ALU)
        fp_alu = int(Op.FP_ALU)
        int_mul = int(Op.INT_MUL)
        fp_mul = int(Op.FP_MUL)
        frequent = FREQUENT_VALUES
        n_freq = len(frequent)

        mem_cut = spec.mem_fraction
        branch_cut = mem_cut + spec.branch_fraction
        store_fraction = spec.store_fraction
        value_locality = spec.value_locality
        mispredict_rate = spec.mispredict_rate
        fp_fraction = spec.fp_fraction
        dep_density = spec.dep_density
        footprint = max(256, spec.code_footprint)
        #: Trace index of each chained engine's latest load.
        last_chain_load = [-_DEP_REACH] * len(engines)
        latest_load = -1
        n_stores = 0
        start = 0

        for phase, (stop, weights) in enumerate(
                zip(*self._phase_plan(n_instructions))):
            total = sum(weights)
            # The engine is the first whose running weight exceeds the
            # pick; the last one also takes any pick rounding leaves over.
            running = list(accumulate(weights))
            running[-1] = math.inf
            pc_base = _CODE_BASE + 0x10000 + (phase << 22)
            for idx in range(start, stop):
                r = random_()
                if r < mem_cut:
                    e = bisect(running, random_() * total) if total > 0 else 0
                    addr = nexts[e]()
                    if chained[e]:
                        dep = idx - last_chain_load[e]
                        if dep >= _DEP_REACH:
                            dep = 0
                        last_chain_load[e] = latest_load = idx
                        append((load_op, load_pcs[e], addr, dep, 0))
                    elif random_() < store_fraction:
                        if random_() < value_locality:
                            value = getrandbits(FREQUENT_BITS)
                            while value >= n_freq:
                                value = getrandbits(FREQUENT_BITS)
                            value = frequent[value]
                        else:
                            value = getrandbits(WIDE_BITS)
                            while value >= WIDE_VALUES:
                                value = getrandbits(WIDE_BITS)
                            value |= WIDE_TAG
                        # Functional execution at generation time: the image
                        # matches the trace before simulation ever runs.
                        words[addr & -WORD_BYTES] = value
                        n_stores += 1
                        append((store_op, store_pcs[e], addr, 0, value))
                    else:
                        latest_load = idx
                        append((load_op, load_pcs[e], addr, 0, 0))
                    continue
                # PC within the code region: basic blocks, not a byte walk.
                # Eight sequential 4-byte instructions per block, blocks
                # 132 bytes apart, skipping both 32-byte instruction-cache
                # lines and 64-byte L2 lines: the fetch stream is
                # sequential within a block, as real code is, but a
                # data-side next-line prefetcher gets no free
                # instruction-stream coverage from the unified L2.
                pc = pc_base + (idx >> 3) * 132 % footprint + (idx & 7) * 4
                if r < branch_cut:
                    append((branch_op, pc, 0, 0,
                            1 if random_() < mispredict_rate else 0))
                    continue
                if random_() < fp_fraction:
                    op = fp_mul if random_() < 0.2 else fp_alu
                else:
                    op = int_mul if random_() < 0.1 else int_alu
                if latest_load >= 0 and random_() < dep_density:
                    dep = idx - latest_load
                    if dep >= _DEP_REACH:
                        dep = 0
                elif idx:
                    dep = getrandbits(3)  # randint(1, 4)
                    while dep >= 4:
                        dep = getrandbits(3)
                    dep += 1
                else:
                    dep = 0
                append((op, pc, 0, dep, 0))
            start = max(start, stop)

        image.writes += n_stores
        return trace, image

    # -- helpers -------------------------------------------------------------

    def _phase_plan(
        self, n_instructions: int
    ) -> Tuple[List[int], List[List[float]]]:
        """Resolve the phase schedule into boundaries and engine weights."""
        spec = self.spec
        base = [mix.weight for mix in spec.patterns]
        if not spec.phases:
            return [n_instructions], [base]
        bounds: List[int] = []
        weights: List[List[float]] = []
        acc = 0.0
        for fraction, multipliers in spec.phases:
            acc += fraction
            bounds.append(min(n_instructions, int(acc * n_instructions)))
            weights.append([b * m for b, m in zip(base, multipliers)])
        bounds[-1] = n_instructions
        return bounds, weights
