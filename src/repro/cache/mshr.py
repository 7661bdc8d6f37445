"""Miss Status Holding Registers (the miss address file).

SimpleScalar's MSHR "has unlimited capacity" (Section 2.2); the MicroLib
model gives it the Table 1 limits: 8 entries, each able to merge 4 reads.
An entry is occupied from the cycle the miss is issued until its refill
completes.  When all entries are busy, the next miss stalls until the
earliest in-flight refill returns — and that stall propagates backwards into
the cache pipeline and the LSQ.

``capacity=None`` gives the SimpleScalar behaviour (never stalls, unlimited
merging).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple


class MSHRFile:
    """Tracks in-flight line fills keyed by block address."""

    def __init__(self, capacity: Optional[int], reads_per_entry: int = 4):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        if reads_per_entry < 1:
            raise ValueError(f"reads_per_entry must be >= 1, got {reads_per_entry}")
        self.capacity = capacity
        self.reads_per_entry = reads_per_entry
        # block -> [ready_time, merged_reads]
        self._entries: Dict[int, List[int]] = {}
        self._completions: List[Tuple[int, int]] = []  # (ready_time, block) heap
        self.merges = 0
        self.merge_rejects = 0
        self.full_stalls = 0

    def _expire(self, time: int) -> None:
        """Drop entries whose refill completed at or before ``time``."""
        while self._completions and self._completions[0][0] <= time:
            ready, block = heapq.heappop(self._completions)
            entry = self._entries.get(block)
            if entry is not None and entry[0] == ready:
                del self._entries[block]

    def occupancy(self, time: int) -> int:
        """Number of entries still in flight at ``time``."""
        self._expire(time)
        return len(self._entries)

    def lookup(self, block: int, time: int) -> Optional[int]:
        """If ``block`` is already in flight, try to merge.

        Returns the in-flight refill's ready time when the read merges, or
        ``None`` when there is no live entry.  When the entry exists but its
        merge budget is spent the read cannot merge; it still completes with
        the refill, but only after stalling the pipeline — the caller
        handles that via :attr:`merge_rejects`.

        This is a miss's one expiry sweep: :meth:`allocate_time` at the
        same cycle finds nothing left to expire unless the file is full.
        """
        self._expire(time)
        entry = self._entries.get(block)
        if entry is None:
            return None
        if self.capacity is not None and entry[1] >= self.reads_per_entry:
            self.merge_rejects += 1
            return entry[0]
        entry[1] += 1
        self.merges += 1
        return entry[0]

    def allocate_time(self, time: int) -> int:
        """Earliest cycle a new entry can be allocated at/after ``time``.

        Expiry only removes entries, so a file with a free entry before
        the sweep has one after it: the sweep runs only when it looks full.
        """
        capacity = self.capacity
        if capacity is None or len(self._entries) < capacity:
            return time
        self._expire(time)
        if len(self._entries) < capacity:
            return time
        # Wait for the earliest live completion.
        while self._completions:
            ready, block = self._completions[0]
            entry = self._entries.get(block)
            if entry is None or entry[0] != ready:
                heapq.heappop(self._completions)
                continue
            self.full_stalls += 1
            return max(time, ready)
        return time  # pragma: no cover - entries imply completions

    def insert(self, block: int, ready_time: int) -> None:
        """Record a newly issued miss completing at ``ready_time``."""
        self._entries[block] = [ready_time, 1]
        heapq.heappush(self._completions, (ready_time, block))

    def reset(self) -> None:
        self._entries.clear()
        self._completions.clear()
        self.merges = 0
        self.merge_rejects = 0
        self.full_stalls = 0
