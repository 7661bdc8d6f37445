"""GHB — Global History Buffer (Nesbit & Smith, HPCA 2004).  L2, Table 3:
IT 256 entries, GHB 256 entries, request queue 4.

The global history buffer decouples *history storage* from *indexing*: an
index table (IT) maps a load PC to the head of a linked list threaded
through a small circular buffer of recent misses (the GHB).  On each miss
the prefetcher walks the list, recovers the PC's recent miss addresses,
and, when the deltas agree, issues up to ``DEGREE`` stride prefetches.

The paper finds GHB the best raw performer (Figure 4) but also — despite
its tiny tables — one of the most *power-hungry* mechanisms (Figure 5):
"each miss can induce up to 4 requests, and a table is scanned repeatedly".
The repeated list walk is exactly what :meth:`count_table_access` records,
and its aggressiveness is why the detailed SDRAM model hurts GHB more than
SP (Figure 8: "GHB increases memory pressure and is therefore sensitive to
stricter memory access rules").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mechanisms.base import Mechanism, StructureSpec


class GlobalHistoryBuffer(Mechanism):
    """PC-localised delta-correlating prefetcher over a global miss buffer."""

    LEVEL = "l2"
    ACRONYM = "GHB"
    YEAR = 2004
    QUEUE_SIZE = 4
    IT_ENTRIES = 256
    GHB_ENTRIES = 256
    DEGREE = 4          # prefetches issued per detected stride
    WALK_DEPTH = 3      # miss addresses recovered per walk

    def __init__(self, name: Optional[str] = None, parent=None):
        super().__init__(name, parent)
        # Circular buffer entries: [miss_addr, prev_index_for_same_pc].
        self._buffer: List[List[int]] = [[0, -1] for _ in range(self.GHB_ENTRIES)]
        self._head = 0
        self._count = 0
        self._index: Dict[int, int] = {}  # pc -> newest buffer slot

    def on_access(
        self, pc: int, block: int, hit: bool, was_prefetched: bool, time: int
    ) -> None:
        # A demand hit on a prefetched line is a miss the prefetcher hid;
        # feeding it back keeps the delta stream continuous so a stream
        # stays locked instead of re-detecting after every burst.
        if hit and was_prefetched:
            self._train(pc, block, time)

    def on_miss(self, pc: int, block: int, time: int) -> None:
        self._train(pc, block, time)

    def _train(self, pc: int, block: int, time: int) -> None:
        if pc == 0:
            return
        addr = self.cache.addr_of(block)
        slot = self._head
        prev = self._index.get(pc, -1)
        # A slot that has wrapped no longer belongs to this PC's chain.
        if prev == slot:
            prev = -1
        self._buffer[slot][0] = addr
        self._buffer[slot][1] = prev
        self._index[pc] = slot
        if len(self._index) > self.IT_ENTRIES:
            # Index table is full: drop an arbitrary (oldest-inserted) entry.
            self._index.pop(next(iter(self._index)))
        self._head = (self._head + 1) % self.GHB_ENTRIES
        self._count += 1
        self.count_table_access(2)  # IT read + GHB insert

        # Walk the PC's chain to recover recent miss addresses.
        history: List[int] = [addr]
        cursor = prev
        age = 0
        while cursor >= 0 and len(history) < self.WALK_DEPTH and age < self.GHB_ENTRIES:
            self.count_table_access()  # each link followed is a GHB read
            history.append(self._buffer[cursor][0])
            cursor = self._buffer[cursor][1]
            age += 1
        if len(history) < 3:
            return
        delta1 = history[0] - history[1]
        delta2 = history[1] - history[2]
        if delta1 == 0 or delta1 != delta2:
            return
        for k in range(1, self.DEGREE + 1):
            target = addr + delta1 * k
            if not self.cache.contains(target):
                self.emit_prefetch(target, time)

    def structures(self) -> List[StructureSpec]:
        return [
            StructureSpec("ghb_index_table", size_bytes=self.IT_ENTRIES * 8),
            StructureSpec("ghb_buffer", size_bytes=self.GHB_ENTRIES * 12),
            StructureSpec("ghb_request_queue", size_bytes=self.QUEUE_SIZE * 8),
        ]
