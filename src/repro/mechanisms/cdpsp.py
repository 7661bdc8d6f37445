"""CDPSP — CDP + SP combination, as proposed in the CDP article.  L2,
Table 3: SP queue 1, CDP queue 128, SP PC entries 512, CDP depth 3.

The stride prefetcher covers the regular streams content-directed
prefetching is blind to, and CDP covers the pointer chains strides cannot
express.  The paper notes the combination "can be appropriate for a larger
range of benchmarks" than either part (Table 6); under the SDRAM model it
also inherits CDP's bandwidth appetite (Figure 8).

Implemented by composition: private :class:`StridePrefetcher` and
:class:`ContentDirectedPrefetcher` instances attached to the same cache,
with the composite forwarding every hook and exposing both request queues.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mechanisms.base import Mechanism, StructureSpec
from repro.mechanisms.cdp import ContentDirectedPrefetcher
from repro.mechanisms.stride import StridePrefetcher


class CDPPlusSP(Mechanism):
    """Composite of stride prefetching and content-directed prefetching."""

    LEVEL = "l2"
    ACRONYM = "CDPSP"
    YEAR = 2002
    QUEUE_SIZE = None  # queues live in the two sub-mechanisms

    def __init__(self, name: Optional[str] = None, parent=None):
        super().__init__(name, parent)
        self.sp = StridePrefetcher(name="cdpsp_sp", parent=self)
        self.cdp = ContentDirectedPrefetcher(name="cdpsp_cdp", parent=self)

    def attach(self, cache, hierarchy) -> None:
        super().attach(cache, hierarchy)
        # Sub-mechanisms share the cache but do not claim its hook slot.
        self.sp.cache = cache
        self.sp.hierarchy = hierarchy
        self.cdp.cache = cache
        self.cdp.hierarchy = hierarchy

    def iter_queues(self):
        yield self.sp.queue
        yield self.cdp.queue

    # -- forwarded hooks --------------------------------------------------------

    def on_access(
        self, pc: int, block: int, hit: bool, was_prefetched: bool, time: int
    ) -> None:
        self.sp.on_access(pc, block, hit, was_prefetched, time)

    def on_miss(self, pc: int, block: int, time: int) -> None:
        self.sp.on_miss(pc, block, time)
        self.cdp.on_miss(pc, block, time)

    def on_refill(
        self, block: int, victim_block: Optional[int], time: int,
        prefetched: bool = False,
    ) -> None:
        self.cdp.on_refill(block, victim_block, time, prefetched)

    def on_prefetch_fill(self, block: int, depth: int, time: int) -> None:
        self.cdp.on_prefetch_fill(block, depth, time)

    # -- aggregated accounting -----------------------------------------------------

    @property
    def total_table_accesses(self) -> float:
        return (
            self.st_table_accesses.value
            + self.sp.st_table_accesses.value
            + self.cdp.st_table_accesses.value
        )

    def structures(self) -> List[StructureSpec]:
        return self.sp.structures() + self.cdp.structures()
