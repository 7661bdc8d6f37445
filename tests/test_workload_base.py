"""Tests for the synthetic workload builder."""

import pytest

from repro.isa.instr import ADDR, DEP, EXTRA, OP, PC, Op
from repro.workloads.base import PatternMix, SyntheticWorkload, WorkloadSpec

KB = 1 << 10


def _spec(**overrides):
    fields = dict(
        name="toy", suite="int", description="test workload",
        patterns=(
            PatternMix("stride", 0.5, (("stride", 8), ("working_set", 4 * KB))),
            PatternMix("hot", 0.5, (("working_set", 2 * KB),)),
        ),
        mem_fraction=0.4, branch_fraction=0.1, seed=5,
    )
    fields.update(overrides)
    return WorkloadSpec(**fields)


def _mix_counts(trace):
    counts = {"mem": 0, "branch": 0, "alu": 0}
    for record in trace:
        if record[OP] in (Op.LOAD, Op.STORE):
            counts["mem"] += 1
        elif record[OP] == Op.BRANCH:
            counts["branch"] += 1
        else:
            counts["alu"] += 1
    return counts


def test_build_is_deterministic():
    workload = SyntheticWorkload(_spec())
    trace1, _ = workload.build(2000)
    trace2, _ = SyntheticWorkload(_spec()).build(2000)
    assert trace1 == trace2


def test_instruction_mix_matches_fractions():
    trace, _ = SyntheticWorkload(_spec()).build(10000)
    counts = _mix_counts(trace)
    assert abs(counts["mem"] / 10000 - 0.4) < 0.03
    assert abs(counts["branch"] / 10000 - 0.1) < 0.02


def test_trace_length():
    trace, _ = SyntheticWorkload(_spec()).build(1234)
    assert len(trace) == 1234


def test_store_values_written_to_image():
    trace, image = SyntheticWorkload(_spec(store_fraction=0.5)).build(4000)
    stores = [r for r in trace if r[OP] == Op.STORE]
    assert stores
    # The image reflects the last store to each word.
    last = {}
    for record in stores:
        last[record[ADDR] & ~7] = record[EXTRA]
    mismatches = sum(
        1 for addr, value in last.items() if image.read(addr) != value
    )
    assert mismatches == 0


def test_dependences_are_bounded_and_backwards():
    trace, _ = SyntheticWorkload(_spec()).build(5000)
    for i, record in enumerate(trace):
        assert 0 <= record[DEP] <= min(i, 499)


def test_loads_have_addresses_and_alu_ops_do_not():
    trace, _ = SyntheticWorkload(_spec()).build(3000)
    for record in trace:
        if record[OP] in (Op.LOAD, Op.STORE):
            assert record[ADDR] > 0
        else:
            assert record[ADDR] == 0


def test_pattern_pcs_are_stable_per_engine():
    """Stride prefetchers need each engine's loads to share a PC."""
    trace, _ = SyntheticWorkload(_spec()).build(5000)
    load_pcs = {r[PC] for r in trace if r[OP] == Op.LOAD}
    assert len(load_pcs) <= 2  # one load PC per engine


def test_phases_shift_the_engine_mix():
    spec = _spec(phases=((0.5, (1.0, 0.0)), (0.5, (0.0, 1.0))))
    trace, _ = SyntheticWorkload(spec).build(8000)
    half = len(trace) // 2
    first_pcs = {r[PC] for r in trace[:half] if r[OP] == Op.LOAD}
    second_pcs = {r[PC] for r in trace[half + 100:] if r[OP] == Op.LOAD}
    assert first_pcs and second_pcs
    assert first_pcs != second_pcs


def test_mispredict_rate_reflected_in_branches():
    spec = _spec(mispredict_rate=0.5, branch_fraction=0.3)
    trace, _ = SyntheticWorkload(spec).build(10000)
    branches = [r for r in trace if r[OP] == Op.BRANCH]
    mispredicted = sum(1 for r in branches if r[EXTRA])
    assert 0.35 < mispredicted / len(branches) < 0.65


class TestSpecValidation:
    def test_rejects_bad_suite(self):
        with pytest.raises(ValueError):
            _spec(suite="web")

    def test_rejects_empty_patterns(self):
        with pytest.raises(ValueError):
            _spec(patterns=())

    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValueError):
            _spec(mem_fraction=0.0)
        with pytest.raises(ValueError):
            _spec(branch_fraction=1.5)

    def test_rejects_mismatched_phase_multipliers(self):
        with pytest.raises(ValueError):
            _spec(phases=((1.0, (1.0,)),))

    @pytest.mark.parametrize("weight", [-0.5, float("inf"), float("nan")])
    def test_rejects_weights_the_engine_pick_cannot_order(self, weight):
        with pytest.raises(ValueError):
            _spec(patterns=(PatternMix("hot", weight, (("working_set", 64),)),))
        with pytest.raises(ValueError):
            _spec(phases=((1.0, (1.0, weight)),))

    def test_rejects_unknown_pattern_kind(self):
        spec = _spec(patterns=(PatternMix("bogus", 1.0, ()),))
        with pytest.raises(ValueError):
            SyntheticWorkload(spec).build(100)
