"""Markov — Markov Prefetcher (Joseph & Grunwald, ISCA 1997).  L1,
Table 3: 1 MB prediction table, 4 predictions per entry, request queue 16,
128-line prefetch buffer.

Models the miss-address stream as a Markov chain: a prediction table maps a
miss address to the (up to four) addresses that most recently followed it.
On a miss, all recorded successors are prefetched — not into the cache, but
into a small fully-associative *prefetch buffer* probed in parallel with
L1, so wrong predictions never pollute the cache.

The paper's Section 3.2 highlights Markov as the benchmark-selection
cautionary tale: dreadful on average (rank 13 of 13 on all 26 benchmarks)
yet the outright winner on ``gzip`` and ``ammp``, whose miss sequences
repeat almost exactly; it "can perform well for up to 9-benchmark
selections".  Its megabyte-scale table also makes it the cost/power extreme
of Figure 5.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.mechanisms.base import Mechanism, ProbeResult, StructureSpec


class MarkovPrefetcher(Mechanism):
    """Miss-successor correlation with a dedicated prefetch buffer."""

    LEVEL = "l1"
    ACRONYM = "Markov"
    YEAR = 1997
    QUEUE_SIZE = 16
    USES_PREFETCH_BUFFER = True
    TABLE_BYTES = 1 << 20
    PREDICTIONS_PER_ENTRY = 4
    BUFFER_LINES = 128

    def __init__(self, name: Optional[str] = None, parent=None):
        super().__init__(name, parent)
        # miss block -> MRU list of successor blocks (most recent first).
        self._table: "OrderedDict[int, List[int]]" = OrderedDict()
        # prefetch buffer: block -> fill-ready time.
        self._buffer: "OrderedDict[int, int]" = OrderedDict()
        self._last_miss: Optional[int] = None
        self.st_predictions = self.add_stat("predictions_made")
        self.st_buffer_hits = self.add_stat("buffer_hits")

    @property
    def table_capacity(self) -> int:
        # Entry: tag (8B) + 4 predictions (8B each) = 40 bytes.
        return self.TABLE_BYTES // (8 + 8 * self.PREDICTIONS_PER_ENTRY)

    # -- prediction -----------------------------------------------------------------

    def on_access(
        self, pc: int, block: int, hit: bool, was_prefetched: bool, time: int
    ) -> None:
        # Train on every L1 miss *event*, including misses the prefetch
        # buffer will satisfy — a covered miss still extends the Markov
        # chain, otherwise successful prediction would starve the trigger.
        if not hit:
            self._train(block, time)

    def on_miss(self, pc: int, block: int, time: int) -> None:
        pass  # handled in on_access so buffer hits train too

    def _train(self, block: int, time: int) -> None:
        self.count_table_access()
        previous = self._last_miss
        self._last_miss = block
        if previous is not None and previous != block:
            successors = self._table.get(previous)
            if successors is None:
                if len(self._table) >= self.table_capacity:
                    self._table.popitem(last=False)
                self._table[previous] = [block]
            else:
                self._table.move_to_end(previous)
                if block in successors:
                    successors.remove(block)
                successors.insert(0, block)
                del successors[self.PREDICTIONS_PER_ENTRY:]
        predictions = self._table.get(block)
        if predictions:
            self._table.move_to_end(block)
            self.count_table_access()
            for successor in predictions:
                addr = self.cache.addr_of(successor)
                if successor in self._buffer or self.cache.contains(addr):
                    continue
                self.st_predictions.add()
                self.emit_prefetch(addr, time)

    # -- the prefetch buffer -----------------------------------------------------------

    def deliver_prefetch(self, addr: int, ready: int, time: int) -> bool:
        block = self.cache.block_of(addr)
        if block in self._buffer:
            return False
        while len(self._buffer) >= self.BUFFER_LINES:
            self._buffer.popitem(last=False)
        self._buffer[block] = ready
        return True

    def probe(self, block: int, time: int) -> Optional[ProbeResult]:
        self.count_table_access()
        ready = self._buffer.pop(block, None)
        if ready is None:
            return None
        self.st_probe_hits.add()
        self.st_buffer_hits.add()
        # A late prefetch still saves part of the miss latency.
        extra = 1 if ready <= time else (ready - time)
        return ProbeResult(latency=extra, dirty=False)

    def buffer_blocks(self) -> List[int]:
        """Blocks currently in the prefetch buffer (test helper)."""
        return list(self._buffer)

    def structures(self) -> List[StructureSpec]:
        line = self.cache.config.line_size if self.cache else 32
        return [
            StructureSpec("markov_table", size_bytes=self.TABLE_BYTES, assoc=4),
            StructureSpec(
                "markov_buffer", size_bytes=self.BUFFER_LINES * line,
                assoc=self.BUFFER_LINES,
            ),
            StructureSpec("markov_request_queue", size_bytes=self.QUEUE_SIZE * 8),
        ]
