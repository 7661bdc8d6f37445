"""Tests for the address-pattern engines."""

import random

import pytest

from repro.workloads.image import MemoryImage
from repro.workloads.patterns import (
    ConflictEngine,
    FREQUENT_VALUES,
    HotZipfEngine,
    LoopSequenceEngine,
    PointerChaseEngine,
    RandomEngine,
    StrideEngine,
)

BASE = 0x1000_0000


def _rng():
    return random.Random(42)


class TestStrideEngine:
    def test_walks_with_fixed_stride_and_wraps(self):
        engine = StrideEngine(BASE, _rng(), working_set=64, stride=16)
        addrs = [engine.next() for _ in range(6)]
        assert addrs == [BASE, BASE + 16, BASE + 32, BASE + 48, BASE, BASE + 16]

    def test_rejects_zero_stride(self):
        with pytest.raises(ValueError):
            StrideEngine(BASE, _rng(), working_set=64, stride=0)

    def test_setup_initialises_region(self):
        image = MemoryImage()
        engine = StrideEngine(BASE, _rng(), working_set=256, stride=8)
        engine.setup(image, value_locality=1.0)
        assert image.read(BASE) in FREQUENT_VALUES


class TestRandomEngine:
    def test_addresses_stay_in_region_and_aligned(self):
        engine = RandomEngine(BASE, _rng(), working_set=1024)
        for _ in range(200):
            addr = engine.next()
            assert BASE <= addr < BASE + 1024
            assert addr % 8 == 0

    @pytest.mark.parametrize("engine", [RandomEngine, LoopSequenceEngine])
    def test_rejects_a_working_set_without_a_word(self, engine):
        with pytest.raises(ValueError):
            engine(BASE, _rng(), working_set=4)


class TestHotZipfEngine:
    def test_skew_concentrates_accesses(self):
        engine = HotZipfEngine(BASE, _rng(), working_set=8192, skew=0.8)
        counts = {}
        for _ in range(2000):
            addr = engine.next()
            counts[addr] = counts.get(addr, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # The hottest 8 of 1024 words take a vastly super-uniform share.
        assert sum(top[:8]) > 0.2 * 2000
        assert sum(top[:64]) > 0.55 * 2000

    def test_rejects_bad_skew(self):
        with pytest.raises(ValueError):
            HotZipfEngine(BASE, _rng(), working_set=1024, skew=0.4)


class TestLoopSequenceEngine:
    def test_sequence_repeats_exactly_without_noise(self):
        engine = LoopSequenceEngine(BASE, _rng(), working_set=8192,
                                    sequence_length=16, noise=0.0)
        lap1 = [engine.next() for _ in range(16)]
        lap2 = [engine.next() for _ in range(16)]
        assert lap1 == lap2

    def test_conflict_sets_collide_in_l1(self):
        engine = LoopSequenceEngine(BASE, _rng(), working_set=8192,
                                    sequence_length=64, noise=0.0,
                                    conflict_sets=8, way_span=32 << 10)
        addrs = {engine.next() for _ in range(64)}
        l1_sets = {(addr >> 5) & 1023 for addr in addrs}
        # 8 conflict slots of 64 bytes -> at most 16 distinct L1 sets.
        assert len(l1_sets) <= 16
        ways = {addr // (32 << 10) for addr in addrs}
        assert len(ways) >= 4  # several colliding ways


class TestConflictEngine:
    def test_rotates_ways_within_same_l1_set(self):
        engine = ConflictEngine(BASE, _rng(), n_ways=2, set_stride=32 << 10,
                                n_sets_used=1)
        a, b, c = engine.next(), engine.next(), engine.next()
        assert a != b and a == c
        assert ((a >> 5) & 1023) == ((b >> 5) & 1023)  # same L1 set


class TestPointerChaseEngine:
    def _engine(self, **kwargs):
        image = MemoryImage()
        engine = PointerChaseEngine(BASE, _rng(), n_nodes=64, node_size=64,
                                    next_offset=0, n_chains=1, **kwargs)
        engine.setup(image, value_locality=0.3)
        return engine, image

    def test_requires_setup(self):
        engine = PointerChaseEngine(BASE, _rng(), n_nodes=8)
        with pytest.raises(RuntimeError):
            engine.next()

    def test_traversal_follows_stored_pointers(self):
        engine, image = self._engine()
        addr1 = engine.next()
        addr2 = engine.next()
        # The second address is the pointer stored at the first.
        assert addr2 == image.read(addr1) + 0  # next_offset == 0

    def test_chain_is_a_permutation_cycle(self):
        engine, _ = self._engine()
        seen = [engine.next() for _ in range(64)]
        assert len(set(seen)) == 64  # visits every node once per cycle
        again = [engine.next() for _ in range(64)]
        assert seen == again

    def test_heap_range_registered_for_cdp(self):
        _, image = self._engine()
        assert image.heap_lo == BASE
        assert image.heap_hi == BASE + 64 * 64

    def test_ammp_pathology_next_offset_beyond_line(self):
        """CDP prefetches the pointer target's base line, but with the next
        pointer 88 bytes into a 96-byte node the demand access always lands
        in a *different* 64-byte line — the prefetch is systematically
        useless (Section 3.1)."""
        image = MemoryImage()
        engine = PointerChaseEngine(BASE, _rng(), n_nodes=16, node_size=96,
                                    next_offset=88, n_chains=1)
        engine.setup(image, value_locality=0.3)
        for _ in range(16):
            addr = engine.next()          # demand address: node + 88
            node = addr - 88
            target = image.read(addr)     # pointer value: next node base
            # CDP would prefetch line(target); the demand will touch
            # line(target + 88) — always a different 64-byte line.
            assert (target + 88) // 64 != target // 64
            assert (node - BASE) % 96 == 0  # nodes are 96-byte slots

    def test_payload_pointers_produce_decoys(self):
        image = MemoryImage()
        engine = PointerChaseEngine(BASE, _rng(), n_nodes=32, node_size=64,
                                    next_offset=0, n_chains=1,
                                    payload_pointers=1.0)
        engine.setup(image, value_locality=0.3)
        addr = engine.next()
        node = addr  # next_offset == 0
        words = image.read_line(node & ~63, 64)
        pointer_like = [w for w in words if image.looks_like_pointer(w)]
        assert len(pointer_like) >= 4  # next pointer plus decoys

    def test_opaque_hops_still_traverse(self):
        image = MemoryImage()
        engine = PointerChaseEngine(BASE, _rng(), n_nodes=32, node_size=64,
                                    next_offset=0, n_chains=1,
                                    opaque_hops=1.0)
        engine.setup(image, value_locality=0.3)
        addrs = [engine.next() for _ in range(50)]
        assert all(BASE <= a < BASE + 32 * 64 for a in addrs)

    def test_n_next_validation(self):
        with pytest.raises(ValueError):
            PointerChaseEngine(BASE, _rng(), node_size=16, next_offset=8,
                               n_next=2)
        with pytest.raises(ValueError):
            PointerChaseEngine(BASE, _rng(), n_next=0)

    def test_branching_chains_have_multiple_pointers(self):
        image = MemoryImage()
        engine = PointerChaseEngine(BASE, _rng(), n_nodes=32, node_size=64,
                                    next_offset=0, n_chains=1, n_next=2)
        engine.setup(image, value_locality=0.3)
        addr = engine.next()
        node = addr - (addr - BASE) % 64
        first = image.read(node)
        second = image.read(node + 8)
        assert image.looks_like_pointer(first)
        assert image.looks_like_pointer(second)


# -- every inlined draw against the loop it replaced ----------------------------

#: Word counts beyond 0-400: primes, powers of two, and m * 2**k with odd
#: tails m up to 31 (the specs' hot sets are 1,024-3,584 words).
_PRIMES = (401, 509, 997, 1021, 2039, 4093)
_POWERS = tuple(1 << k for k in range(13))
_ODD_TAILS = tuple(m << k for m in range(1, 32, 2) for k in (1, 5, 9))
WORD_COUNTS = tuple(range(401)) + _PRIMES + _POWERS + _ODD_TAILS
SKEWS = (0.5, 0.6, 0.75, 0.9, 0.97, 0.999)


def _reference_hot(rng, n_words, skew):
    """``HotZipfEngine.next`` as first written: halve the whole range."""
    lo, hi = 0, n_words
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if rng.random() < skew:
            hi = mid
        else:
            lo = mid
    return BASE + lo * 8


def _reference_chains(rng, n_nodes, node_size, next_offset, n_chains,
                      payload_pointers, n_next):
    """``PointerChaseEngine.setup`` as first written, on ``rng``'s own
    ``shuffle``/``choice``/``randrange``: (words, members, cursors)."""
    words = {}
    order = list(range(n_nodes))
    rng.shuffle(order)
    node_addrs = [BASE + slot * node_size for slot in order]
    per_chain = max(1, n_nodes // n_chains)
    next_offsets = [next_offset + k * 8 for k in range(n_next)]
    payload = [off for off in range(0, node_size, 8)
               if off not in next_offsets]
    chains = []
    for chain in range(n_chains):
        members = node_addrs[chain * per_chain:(chain + 1) * per_chain]
        if not members:
            continue
        chains.append(members)
        for i, addr in enumerate(members):
            words[addr + next_offsets[0]] = members[(i + 1) % len(members)]
            for offset in next_offsets[1:]:
                words[addr + offset] = rng.choice(members)
            for off in payload:
                if payload_pointers and rng.random() < payload_pointers:
                    words[addr + off] = rng.choice(node_addrs)
                else:
                    words[addr + off] = rng.randrange(1 << 20)
    cursors = [node_addrs[min(chain * per_chain, n_nodes - 1)]
               for chain in range(n_chains)]
    return words, chains, cursors


def _reference_walk(rng, words, chains, cursors, next_offset, n_next,
                    opaque_hops, steps):
    """``PointerChaseEngine.next`` as first written, ``steps`` times."""
    out = []
    n_chains = len(cursors)
    for step in range(steps):
        chain = step % n_chains
        which = 0
        if n_next > 1 and rng.random() < 0.35:
            which = rng.randrange(1, n_next)
        pointer_addr = cursors[chain] + next_offset + which * 8
        out.append(pointer_addr)
        if opaque_hops and rng.random() < opaque_hops:
            cursors[chain] = rng.choice(chains[chain % len(chains)])
            continue
        nxt = words[pointer_addr]
        if nxt < BASE:
            nxt = cursors[(chain + 1) % n_chains]
        cursors[chain] = nxt
    return out


class TestDrawsMatchTheLoopsTheyReplaced:
    """Each rewritten draw site makes the same ``random.Random`` calls, in
    the same order, as its original loop: same outputs, same final state."""

    @pytest.mark.parametrize("skew", SKEWS)
    def test_hot_walk(self, skew):
        for n_words in WORD_COUNTS:
            rng, ref = random.Random(n_words), random.Random(n_words)
            # Bytes past the last whole word hold no word of their own.
            engine = HotZipfEngine(BASE, rng, working_set=n_words * 8 + 5,
                                   skew=skew)
            got = [engine.next() for _ in range(40)]
            assert got == [_reference_hot(ref, n_words, skew)
                           for _ in range(40)], n_words
            assert rng.getstate() == ref.getstate(), n_words

    def test_random_engine(self):
        for n_words in WORD_COUNTS[1:]:
            rng, ref = random.Random(n_words), random.Random(n_words)
            engine = RandomEngine(BASE, rng, working_set=n_words * 8)
            got = [engine.next() for _ in range(40)]
            assert got == [BASE + ref.randrange(n_words) * 8
                           for _ in range(40)], n_words
            assert rng.getstate() == ref.getstate(), n_words

    @pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
    def test_loop_sequence_noise(self, noise):
        for n_words in WORD_COUNTS[1::7]:
            rng, ref = random.Random(n_words), random.Random(n_words)
            engine = LoopSequenceEngine(BASE, rng, working_set=n_words * 8,
                                        sequence_length=12, noise=noise)
            sequence = [BASE + ref.randrange(n_words) * 8 for _ in range(12)]
            expected, pos = [], 0
            for _ in range(40):
                if ref.random() < noise:
                    expected.append(BASE + ref.randrange(n_words) * 8)
                else:
                    expected.append(sequence[pos])
                    pos = (pos + 1) % 12
            assert [engine.next() for _ in range(40)] == expected, n_words
            assert rng.getstate() == ref.getstate(), n_words

    @pytest.mark.parametrize("n_nodes,n_chains", [
        (1, 1), (2, 1), (3, 4), (7, 2), (97, 1), (100, 3), (64, 4),
        (1000, 6), (1023, 5),
    ])
    @pytest.mark.parametrize("n_next,payload_pointers,opaque_hops", [
        (1, 0.0, 0.0), (1, 0.45, 0.0), (2, 0.1, 0.6), (3, 1.0, 0.15),
    ])
    def test_pointer_chase(self, n_nodes, n_chains, n_next, payload_pointers,
                           opaque_hops):
        node_size, next_offset = 96, 8
        rng, ref = random.Random(n_nodes), random.Random(n_nodes)
        image = MemoryImage()
        engine = PointerChaseEngine(
            BASE, rng, n_nodes=n_nodes, node_size=node_size,
            next_offset=next_offset, n_chains=n_chains,
            payload_pointers=payload_pointers, n_next=n_next,
            opaque_hops=opaque_hops)
        engine.setup(image, value_locality=0.3)
        words, chains, cursors = _reference_chains(
            ref, n_nodes, node_size, next_offset, n_chains, payload_pointers,
            n_next)
        assert list(image._words.items()) == list(words.items())
        assert image.writes == len(words)
        assert (image.heap_lo, image.heap_hi) == (
            BASE, BASE + n_nodes * node_size)
        assert engine._members == chains
        assert engine._cursors == cursors
        assert rng.getstate() == ref.getstate()

        steps = 3 * n_nodes + 10
        got = [engine.next() for _ in range(steps)]
        assert got == _reference_walk(ref, words, chains, cursors,
                                      next_offset, n_next, opaque_hops, steps)
        assert rng.getstate() == ref.getstate()
