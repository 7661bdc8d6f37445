"""VC — Victim Cache (Jouppi, 1990).  L1, Table 3: 512 bytes, fully assoc.

A small fully-associative buffer that catches lines evicted from the
direct-mapped L1: conflict misses that would otherwise pay an L2 round trip
are satisfied with a one-cycle swap.  With 32-byte L1 lines the 512-byte
budget holds 16 victims.

The victim cache *owns* captured lines: their writeback obligation moves
with them and is honoured only when the victim cache itself evicts a dirty
line (or never, if the line is swapped back into L1 first).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.mechanisms.base import Mechanism, ProbeResult, StructureSpec


class VictimCache(Mechanism):
    """Fully-associative victim buffer with LRU replacement."""

    LEVEL = "l1"
    ACRONYM = "VC"
    YEAR = 1990
    SIZE_BYTES = 512

    def __init__(self, name: Optional[str] = None, parent=None):
        super().__init__(name, parent)
        self._entries: "OrderedDict[int, bool]" = OrderedDict()  # block -> dirty
        self.st_captures = self.add_stat("captures", "victims stored")
        self.st_writebacks = self.add_stat("writebacks", "dirty victims aged out")

    @property
    def capacity(self) -> int:
        line = self.cache.config.line_size if self.cache else 32
        return max(1, self.SIZE_BYTES // line)

    def should_capture(self, live: bool) -> bool:
        """The plain victim cache captures every victim (TKVC overrides)."""
        return True

    def on_evict(self, block: int, dirty: bool, live: bool, time: int) -> bool:
        self.count_table_access()
        if not self.should_capture(live):
            return False
        if block in self._entries:
            self._entries[block] = self._entries[block] or dirty
            self._entries.move_to_end(block)
            return True
        while len(self._entries) >= self.capacity:
            old_block, old_dirty = self._entries.popitem(last=False)
            if old_dirty:
                self.st_writebacks.add()
                self.cache.st_writebacks.add()
                if self.cache.writeback_next is not None:
                    self.cache.writeback_next(self.cache.addr_of(old_block), time)
        self._entries[block] = dirty
        self.st_captures.add()
        return True

    def probe(self, block: int, time: int) -> Optional[ProbeResult]:
        self.count_table_access()
        dirty = self._entries.pop(block, None)
        if dirty is None:
            return None
        self.st_probe_hits.add()
        return ProbeResult(latency=1, dirty=dirty)

    def __len__(self) -> int:
        return len(self._entries)

    def structures(self) -> List[StructureSpec]:
        line = self.cache.config.line_size if self.cache else 32
        return [
            StructureSpec(
                "vc_data", size_bytes=self.SIZE_BYTES,
                assoc=max(1, self.SIZE_BYTES // line),
            ),
        ]
