"""SP — Stride Prefetching (Chen & Baer 1992 formulation).  L2, Table 3:
512 PC entries, request queue 1.

A PC-indexed reference-prediction table records each load's last address and
last stride with a two-bit confidence state.  When a load's stride has been
confirmed (two consecutive accesses with the same delta), the next line
along the stride is prefetched.  The paper finds SP the *second best*
mechanism for raw performance and — because every miss induces exactly one
table lookup and at most one prefetch — the best overall once power and
cost are considered (Section 3.1: "SP seems like a clear winner").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.mechanisms.base import Mechanism, StructureSpec

# Two-bit confidence states of the reference prediction table.
_INITIAL, _TRANSIENT, _STEADY = 0, 1, 2


class StridePrefetcher(Mechanism):
    """Classic per-PC stride detection with a two-bit state machine."""

    LEVEL = "l2"
    ACRONYM = "SP"
    YEAR = 1992
    QUEUE_SIZE = 1
    PC_ENTRIES = 512

    def __init__(self, name: Optional[str] = None, parent=None):
        super().__init__(name, parent)
        # pc -> [last_addr, stride, state], LRU-ordered, capped.
        self._table: "OrderedDict[int, List[int]]" = OrderedDict()

    def on_access(
        self, pc: int, block: int, hit: bool, was_prefetched: bool, time: int
    ) -> None:
        if pc == 0:  # writebacks and prefetch traffic carry no PC
            return
        addr = self.cache.addr_of(block)
        self.count_table_access()
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.PC_ENTRIES:
                self._table.popitem(last=False)
            self._table[pc] = [addr, 0, _INITIAL]
            return
        self._table.move_to_end(pc)
        last_addr, stride, state = entry
        delta = addr - last_addr
        if delta == 0:
            return
        if delta == stride:
            entry[0] = addr
            entry[2] = _STEADY
            self.emit_prefetch(addr + stride, time)
        else:
            entry[0] = addr
            entry[1] = delta
            entry[2] = _TRANSIENT if state == _INITIAL else _INITIAL

    def structures(self) -> List[StructureSpec]:
        # 512 entries x (tag + addr + stride + state) ~ 16 bytes.
        return [
            StructureSpec("sp_rpt", size_bytes=self.PC_ENTRIES * 16, assoc=1),
            StructureSpec("sp_request_queue", size_bytes=self.QUEUE_SIZE * 8),
        ]
