"""Address-pattern engines.

Each engine produces one component of a benchmark's address stream.  A
workload mixes several engines with per-phase weights (see
:class:`repro.workloads.base.WorkloadSpec`), which is how the 26 SPEC
stand-ins get their distinct memory personalities:

* :class:`StrideEngine` — array sweeps; what stride prefetchers (SP, GHB)
  and next-line prefetching (TP) love.  Long strides crossing DRAM rows
  make memory-bound, row-buffer-hostile streams (``lucas``).
* :class:`PointerChaseEngine` — genuine linked structures in the functional
  image; the next address is *read from memory*, so only content-directed
  prefetching can run ahead.  ``node_size``/``next_offset`` reproduce the
  ``ammp`` pathology (next pointer beyond the fetched line).
* :class:`HotZipfEngine` — small hot working sets; cache-friendly,
  insensitive benchmarks.
* :class:`RandomEngine` — irregular accesses over a working set.
* :class:`LoopSequenceEngine` — a fixed, non-arithmetic address sequence
  replayed with noise: invisible to stride detectors but perfect for the
  Markov prefetcher (``gzip``, ``ammp``).
* :class:`ConflictEngine` — addresses that collide in the direct-mapped L1
  (same set, different tags): the victim cache's reason to exist.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.workloads.image import WORD_BYTES, MemoryImage

#: Words written during region initialisation are capped so image building
#: stays cheap for multi-megabyte working sets.
_INIT_WORDS_CAP = 32768

#: The skewed value set used for frequent-value locality (FVC).
FREQUENT_VALUES = (0, 1, 2, 4, 16, 255, 1024, 4096)

# The per-word and per-access ``randrange(n)``, ``choice(seq)`` and
# ``shuffle`` draws below are made inline, as CPython's own
# ``Random._randbelow`` makes them on 3.9-3.13: ``getrandbits(
# n.bit_length())`` until the result is below ``n``.  The bit widths are
# computed once, here or when an engine is built.

#: Bits per draw of ``choice(FREQUENT_VALUES)``.
FREQUENT_BITS = len(FREQUENT_VALUES).bit_length()
#: A value outside the frequent set: ``randrange(1 << 32) | (1 << 33)``.
WIDE_VALUES = 1 << 32
WIDE_BITS = WIDE_VALUES.bit_length()
WIDE_TAG = 1 << 33
#: A pointer node's plain payload word: ``randrange(1 << 20)``.
PAYLOAD_VALUES = 1 << 20
PAYLOAD_BITS = PAYLOAD_VALUES.bit_length()


class PatternEngine:
    """Base class: produces effective addresses, one per call."""

    #: True when loads from this engine form an address dependence chain.
    chained = False

    def __init__(self, base: int, rng: random.Random):
        self.base = base
        self.rng = rng
        self._random = rng.random
        self._getrandbits = rng.getrandbits

    def setup(self, image: MemoryImage, value_locality: float) -> None:
        """Populate the engine's region of the functional image."""

    def next(self) -> int:
        """Return the next effective (byte) address."""
        raise NotImplementedError

    def _init_region(
        self, image: MemoryImage, n_bytes: int, value_locality: float
    ) -> None:
        """Fill (a capped prefix of) the region with value-local data.

        Each word is ``choice(FREQUENT_VALUES)`` with probability
        ``value_locality``, else ``randrange(1 << 32) | (1 << 33)``,
        written straight into the image's word dict in address order.
        """
        random_, getrandbits = self._random, self._getrandbits
        n_freq = len(FREQUENT_VALUES)
        n_words = min(n_bytes // WORD_BYTES, _INIT_WORDS_CAP)
        words = image._words
        start = self.base & -WORD_BYTES
        for addr in range(start, start + n_words * WORD_BYTES, WORD_BYTES):
            if random_() < value_locality:
                r = getrandbits(FREQUENT_BITS)
                while r >= n_freq:
                    r = getrandbits(FREQUENT_BITS)
                words[addr] = FREQUENT_VALUES[r]
            else:
                r = getrandbits(WIDE_BITS)
                while r >= WIDE_VALUES:
                    r = getrandbits(WIDE_BITS)
                words[addr] = r | WIDE_TAG
        image.writes += n_words


class StrideEngine(PatternEngine):
    """Walk ``working_set`` bytes with a fixed ``stride``, wrapping."""

    def __init__(self, base: int, rng: random.Random, working_set: int, stride: int):
        super().__init__(base, rng)
        if stride == 0:
            raise ValueError("stride must be nonzero")
        self.working_set = working_set
        self.stride = stride
        self._offset = 0

    def setup(self, image: MemoryImage, value_locality: float) -> None:
        self._init_region(image, self.working_set, value_locality)

    def next(self) -> int:
        addr = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.working_set
        return addr


class RandomEngine(PatternEngine):
    """Uniformly random word within the working set."""

    def __init__(self, base: int, rng: random.Random, working_set: int):
        super().__init__(base, rng)
        self.working_set = working_set
        self._n_words = working_set // WORD_BYTES
        if self._n_words < 1:
            raise ValueError(f"working_set {working_set} holds no word")
        self._bits = self._n_words.bit_length()

    def setup(self, image: MemoryImage, value_locality: float) -> None:
        self._init_region(image, self.working_set, value_locality)

    def next(self) -> int:
        getrandbits, n_words, bits = (self._getrandbits, self._n_words,
                                      self._bits)
        r = getrandbits(bits)  # randrange(n_words)
        while r >= n_words:
            r = getrandbits(bits)
        return self.base + r * WORD_BYTES


class HotZipfEngine(PatternEngine):
    """Skewed accesses over a small hot region (approximate Zipf).

    Implemented as repeated halving: with probability ``skew`` stay in the
    hotter half of the remaining range.  Each level draws one ``random()``.
    """

    def __init__(
        self, base: int, rng: random.Random, working_set: int, skew: float = 0.75
    ):
        super().__init__(base, rng)
        if not 0.5 <= skew < 1.0:
            raise ValueError(f"skew must be in [0.5, 1), got {skew}")
        self.working_set = working_set
        self.skew = skew
        self._n_words = working_set // WORD_BYTES
        # A range of even size splits into equal halves, so while the walk
        # halves n_words = tail * 2**k, the colder half of each level starts
        # a fixed distance past the hotter one: n_words >> 1, >> 2, ... tail.
        halves = []
        tail = self._n_words
        while tail > 1 and not tail & 1:
            tail >>= 1
            halves.append(tail)
        self._halves = tuple(halves)
        self._tail = tail

    def setup(self, image: MemoryImage, value_locality: float) -> None:
        self._init_region(image, self.working_set, value_locality)

    def next(self) -> int:
        random_, skew = self._random, self.skew
        lo = 0
        for half in self._halves:
            if random_() >= skew:
                lo += half
        # The odd tail's halves differ in size: walk them one by one.
        hi = lo + self._tail
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if random_() < skew:
                hi = mid
            else:
                lo = mid
        return self.base + lo * WORD_BYTES


class LoopSequenceEngine(PatternEngine):
    """A fixed pseudo-random address sequence replayed with noise.

    The sequence has no arithmetic structure, so stride detectors learn
    nothing — but it *repeats*, so address-correlating prefetchers (Markov,
    and to a degree TK/DBCP) predict it well.

    With ``conflict_sets`` set, the sequence's addresses are confined to
    that many cache-set-aligned slots spread across ``way_span``-apart
    ways, so the loop's lines collide in cache sets and the *miss* sequence
    itself recurs every iteration even though the footprint is modest —
    the recurrence tag/address correlators (Markov, TCP, DBCP, TK) feed on.
    A 32 KB span collides in the direct-mapped L1 while staying L2-resident
    (cheap recurring L1 misses); a 256 KB span collides in the L2's sets
    too, producing recurring *L2* misses.
    """

    def __init__(
        self,
        base: int,
        rng: random.Random,
        working_set: int,
        sequence_length: int = 256,
        noise: float = 0.05,
        conflict_sets: int = 0,
        way_span: int = 32 << 10,
    ):
        super().__init__(base, rng)
        self.working_set = working_set
        self.noise = noise
        n_words = working_set // WORD_BYTES
        if n_words < 1:
            raise ValueError(f"working_set {working_set} holds no word")
        if conflict_sets:
            slots = list(range(sequence_length))
            rng.shuffle(slots)
            self._sequence = [
                base
                + (slot % conflict_sets) * 64
                + (slot // conflict_sets) * way_span
                for slot in slots
            ]
        else:
            self._sequence = [
                base + rng.randrange(n_words) * WORD_BYTES
                for _ in range(sequence_length)
            ]
        self._pos = 0
        self._n_words = n_words
        self._bits = n_words.bit_length()

    def setup(self, image: MemoryImage, value_locality: float) -> None:
        self._init_region(image, self.working_set, value_locality)

    def next(self) -> int:
        if self._random() < self.noise:
            getrandbits, n_words, bits = (self._getrandbits, self._n_words,
                                          self._bits)
            r = getrandbits(bits)  # randrange(n_words)
            while r >= n_words:
                r = getrandbits(bits)
            return self.base + r * WORD_BYTES
        pos = self._pos
        self._pos = (pos + 1) % len(self._sequence)
        return self._sequence[pos]


class ConflictEngine(PatternEngine):
    """Round-robin over ``n_ways`` addresses mapping to the same L1 set.

    With a direct-mapped 32 KB L1, addresses 32 KB apart collide; cycling
    through more than one way misses every time — unless a victim cache
    catches the just-evicted line.
    """

    def __init__(
        self,
        base: int,
        rng: random.Random,
        n_ways: int = 3,
        set_stride: int = 32 << 10,
        n_sets_used: int = 8,
    ):
        super().__init__(base, rng)
        self.n_ways = n_ways
        self.set_stride = set_stride
        self.n_sets_used = n_sets_used
        self._way = 0
        self._set = 0

    def setup(self, image: MemoryImage, value_locality: float) -> None:
        self._init_region(
            image, self.n_ways * self.set_stride // 256, value_locality
        )

    def next(self) -> int:
        addr = self.base + self._way * self.set_stride + self._set * 64
        self._way += 1
        if self._way >= self.n_ways:
            self._way = 0
            self._set = (self._set + 1) % self.n_sets_used
        return addr


class PointerChaseEngine(PatternEngine):
    """Traverse linked lists built in the functional image.

    ``setup`` allocates ``n_nodes`` nodes of ``node_size`` bytes in a
    shuffled order and threads them into ``n_chains`` circular lists whose
    *next* pointer lives at ``next_offset`` inside the node.  ``next``
    returns the current node's address and advances by reading the pointer
    from the image — the traversal is genuinely data-dependent.

    ``payload_pointers`` sets the probability that a non-next payload word
    holds a pointer to a *random* node.  This is the ``mcf`` trap for
    content-directed prefetching: every fetched line is full of plausible
    pointers that the traversal will never follow, so CDP floods the memory
    bus with useless prefetches.

    ``n_next`` > 1 gives each node that many candidate successors (the ring
    pointer plus shortcuts into the same chain) with the traversal choosing
    among them at random — a branching structure no prefetcher can follow
    perfectly, which keeps content-directed prefetching honest.
    """

    chained = True

    def __init__(
        self,
        base: int,
        rng: random.Random,
        n_nodes: int = 4096,
        node_size: int = 64,
        next_offset: int = 0,
        n_chains: int = 4,
        payload_pointers: float = 0.0,
        n_next: int = 1,
        opaque_hops: float = 0.0,
    ):
        super().__init__(base, rng)
        if node_size % WORD_BYTES or next_offset % WORD_BYTES:
            raise ValueError("node_size and next_offset must be word-aligned")
        if n_next < 1:
            raise ValueError(f"n_next must be >= 1, got {n_next}")
        if next_offset + (n_next - 1) * WORD_BYTES >= node_size:
            raise ValueError("next pointers must fall inside the node")
        self.n_nodes = n_nodes
        self.node_size = node_size
        self.next_offset = next_offset
        self.n_chains = max(1, n_chains)
        self.payload_pointers = payload_pointers
        self.n_next = n_next
        #: Fraction of hops whose target comes from *computation* (array
        #: indexing) rather than a stored pointer: the traversal still
        #: serialises, but no stored word reveals the target, so
        #: content-directed prefetching cannot follow — the realistic upper
        #: bound on CDP coverage.
        self.opaque_hops = opaque_hops
        self._image: Optional[MemoryImage] = None
        self._members: List[List[int]] = []
        self._member_bits = 0
        self._shortcut_bits = (n_next - 1).bit_length()
        self._cursors: List[int] = []
        self._chain = 0

    def setup(self, image: MemoryImage, value_locality: float) -> None:
        """Build the chains in the image, node by node.

        First ``shuffle`` the node order.  Then per node, in this order:
        the ring pointer, each shortcut (``choice(members)``), then each
        payload word in offset order — ``choice(node_addrs)`` with
        probability ``payload_pointers``, else ``randrange(1 << 20)``.
        """
        self._image = image
        n_nodes = self.n_nodes
        random_, getrandbits = self._random, self._getrandbits
        order = list(range(n_nodes))
        for i in range(n_nodes - 1, 0, -1):
            bits = (i + 1).bit_length()
            j = getrandbits(bits)  # randrange(i + 1)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        node_addrs = [self.base + slot * self.node_size for slot in order]
        node_bits = n_nodes.bit_length()
        # Every chain that gets a node gets exactly per_chain of them.
        per_chain = max(1, n_nodes // self.n_chains)
        member_bits = self._member_bits = per_chain.bit_length()
        next_offsets = [
            self.next_offset + k * WORD_BYTES for k in range(self.n_next)
        ]
        ring, shortcuts = next_offsets[0], next_offsets[1:]
        payload = [off for off in range(0, self.node_size, WORD_BYTES)
                   if off not in next_offsets]
        payload_pointers = self.payload_pointers
        words = image._words
        self._members = []
        for chain in range(self.n_chains):
            members = node_addrs[chain * per_chain:(chain + 1) * per_chain]
            if not members:
                continue
            self._members.append(members)
            for i, addr in enumerate(members):
                # Offsets are word-aligned, so each word's key is the node's
                # aligned address plus the offset.
                node = addr & -WORD_BYTES
                # First successor: the ring; extras: shortcuts in-chain.
                words[node + ring] = members[(i + 1) % per_chain]
                for offset in shortcuts:
                    r = getrandbits(member_bits)
                    while r >= per_chain:
                        r = getrandbits(member_bits)
                    words[node + offset] = members[r]
                # Payload words around the pointers.
                for off in payload:
                    if payload_pointers and random_() < payload_pointers:
                        r = getrandbits(node_bits)
                        while r >= n_nodes:
                            r = getrandbits(node_bits)
                        words[node + off] = node_addrs[r]
                    else:
                        r = getrandbits(PAYLOAD_BITS)
                        while r >= PAYLOAD_VALUES:
                            r = getrandbits(PAYLOAD_BITS)
                        words[node + off] = r
            image.writes += per_chain * (len(next_offsets) + len(payload))
        image.note_heap(self.base, self.base + n_nodes * self.node_size)
        self._cursors = [
            node_addrs[min(chain * per_chain, n_nodes - 1)]
            for chain in range(self.n_chains)
        ]

    def next(self) -> int:
        if self._image is None:
            raise RuntimeError("setup() must run before next()")
        chain = self._chain
        self._chain = (chain + 1) % self.n_chains
        addr = self._cursors[chain]
        which = 0
        if self.n_next > 1 and self._random() < 0.35:
            n, bits = self.n_next - 1, self._shortcut_bits
            which = self._getrandbits(bits)  # randrange(1, n_next) - 1
            while which >= n:
                which = self._getrandbits(bits)
            which += 1
        pointer_addr = addr + self.next_offset + which * WORD_BYTES
        if self.opaque_hops and self._random() < self.opaque_hops:
            # Computed jump: the load still touches the node, but the next
            # target never appears as a stored pointer in the fetched line.
            members = self._members[chain % len(self._members)]
            n, bits = len(members), self._member_bits
            r = self._getrandbits(bits)  # randrange(len(members))
            while r >= n:
                r = self._getrandbits(bits)
            self._cursors[chain] = members[r]
            return pointer_addr
        nxt = self._image.read(pointer_addr)
        if nxt < self.base:  # defensive: broken chain falls back to restart
            nxt = self._cursors[(chain + 1) % self.n_chains]
        self._cursors[chain] = nxt
        return pointer_addr


#: Engine factory table used by :class:`repro.workloads.base.SyntheticWorkload`.
ENGINE_KINDS = {
    "stride": StrideEngine,
    "random": RandomEngine,
    "hot": HotZipfEngine,
    "loop_seq": LoopSequenceEngine,
    "conflict": ConflictEngine,
    "pointer": PointerChaseEngine,
}
