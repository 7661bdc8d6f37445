"""White-box tests for mechanism internals that black-box runs can miss."""

import random
from collections import Counter

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.config import baseline_config
from repro.mechanisms.registry import create


def _hierarchy(mech):
    return MemoryHierarchy(baseline_config(), mechanism=mech)


class TestGHBInternals:
    def test_buffer_wraparound_keeps_chains_sane(self):
        """After >256 misses the circular buffer wraps; stale links must
        never produce out-of-range walks or crashes."""
        ghb = create("GHB")
        h = _hierarchy(ghb)
        t = 0
        for i in range(600):  # > 2x GHB_ENTRIES, two PCs interleaved
            pc = 0x400 if i % 2 else 0x500
            t = h.load(pc, 0x100000 + i * 4096, t + 40)
        assert ghb._head < ghb.GHB_ENTRIES
        for addr, prev in ghb._buffer:
            assert -1 <= prev < ghb.GHB_ENTRIES

    def test_index_table_capacity_is_bounded(self):
        ghb = create("GHB")
        h = _hierarchy(ghb)
        t = 0
        for i in range(300):  # 300 distinct PCs > IT_ENTRIES
            t = h.load(0x1000 + i * 4, 0x100000 + i * 8192, t + 40)
        assert len(ghb._index) <= ghb.IT_ENTRIES


class TestTCPInternals:
    def test_reverse_engineered_key_aliases_across_sets(self):
        reference = create("TCP")
        misread = create("TCP", reverse_engineered=True)
        # Same tag pair in two different sets: the misread key collides.
        assert misread._pattern_key(3, 7, 9) == misread._pattern_key(4, 7, 9)
        assert reference._pattern_key(3, 7, 9) != reference._pattern_key(4, 7, 9)

    def test_pht_capacity_bounded(self):
        tcp = create("TCP")
        h = _hierarchy(tcp)
        t = 0
        for i in range(1500):
            t = h.load(0x400, 0x10000000 + i * (1 << 19), t + 30)
        assert len(tcp._pht) <= tcp.pht_capacity


class TestMarkovInternals:
    def test_table_capacity_bounded(self):
        markov = create("Markov")
        h = _hierarchy(markov)
        # The 1 MB table holds ~26k entries; we can't fill it in test time,
        # but the cap logic is the same dict-eviction path as a small cap.
        markov._table["sentinel"] = [1]
        assert markov.table_capacity > 20_000

    def test_probe_miss_leaves_buffer_untouched(self):
        markov = create("Markov")
        h = _hierarchy(markov)
        markov._buffer[1234] = 10
        assert markov.probe(99, 0) is None
        assert 1234 in markov._buffer


class TestSPInternals:
    def test_zero_delta_is_ignored(self):
        sp = create("SP")
        h = _hierarchy(sp)
        t = h.load(0x400, 0x100000, 0)
        t = h.load(0x400, 0x100000, t + 50)  # same address: delta 0
        entry = sp._table[0x400]
        assert entry[1] == 0  # stride never trained to zero


class TestVCInternals:
    def test_recapture_updates_dirty_union(self):
        vc = create("VC")
        h = _hierarchy(vc)
        block = h.l1d.block_of(0x100000)
        assert vc.on_evict(block, dirty=False, live=True, time=0)
        assert vc.on_evict(block, dirty=True, live=True, time=1)
        assert vc._entries[block] is True  # dirty sticks


class TestFVCInternals:
    def test_frequent_value_table_is_capped_at_seven(self):
        fvc = create("FVC")
        fvc._observe(tuple(range(100)))
        assert len(fvc.frequent_values()) <= fvc.N_FREQUENT

    @pytest.mark.parametrize("seed", range(8))
    def test_ranking_matches_most_common_after_every_line(self, seed):
        """The incrementally kept top values are ``most_common``'s, ties
        broken by first-seen order, after every line and at the freeze."""
        rng = random.Random(seed)
        alphabet = rng.randint(6, 24)
        fresh = rng.choice([0.0, 0.2, 0.6])  # share of never-repeated words
        fvc = create("FVC")
        counts: Counter = Counter()
        while fvc._frequent is None:
            line = tuple(
                rng.randrange(1 << 40) if rng.random() < fresh
                else rng.randrange(alphabet)
                for _ in range(4))
            fvc._observe(line)
            counts.update(line)
            expected = [v for v, _ in counts.most_common(fvc.N_FREQUENT)]
            assert fvc._top == expected
            assert fvc.frequent_values() == frozenset(expected)
        assert sum(counts.values()) >= fvc.WARMUP_SAMPLES
        assert fvc._ranks == {}


class TestCDPSPForwarding:
    def test_hooks_reach_both_halves(self):
        cdpsp = create("CDPSP")
        h = _hierarchy(cdpsp)
        t = h.load(0x400, 0x100000, 0)
        h.load(0x400, 0x100000 + 4096, t + 50)
        # SP trained (per-PC table) even though CDPSP owns the hook slot.
        assert 0x400 in cdpsp.sp._table
