"""SB — Stream Buffers (Jouppi, ISCA 1990).  L1.  *Library extension.*

Not one of the paper's twelve mechanisms: stream buffers come from the same
Jouppi paper as the victim cache, and the MicroLib project's stated goal is
that researchers keep *populating the library* with additional models.
This module is that story enacted — a thirteenth mechanism written against
the same plug-in interface, compared with the same harness.

Four FIFO buffers, each four entries deep.  An L1 miss that matches no
buffer *head* allocates a new buffer (round-robin over the least recently
used) and starts prefetching the successive lines.  A miss that matches a
head pops it — the line moves into L1 with a one-cycle penalty — and the
buffer tops itself up from the next sequential line.  Only heads are
compared, as in the original design.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.mechanisms.base import Mechanism, ProbeResult, StructureSpec


class _Stream:
    __slots__ = ("entries", "next_block", "last_use")

    def __init__(self) -> None:
        self.entries: Deque[Tuple[int, int]] = deque()  # (block, ready)
        self.next_block: Optional[int] = None
        self.last_use = 0


class StreamBuffers(Mechanism):
    """Jouppi's sequential stream buffers in front of the L1."""

    LEVEL = "l1"
    ACRONYM = "SB"
    YEAR = 1990
    QUEUE_SIZE = 16
    USES_PREFETCH_BUFFER = True
    N_BUFFERS = 4
    DEPTH = 4

    def __init__(self, name: Optional[str] = None, parent=None):
        super().__init__(name, parent)
        self._streams: List[_Stream] = [_Stream() for _ in range(self.N_BUFFERS)]
        # block -> stream awaiting that fill
        self._pending: Dict[int, _Stream] = {}
        self.st_allocations = self.add_stat("stream_allocations")
        self.st_head_hits = self.add_stat("head_hits")

    # -- stream management ------------------------------------------------------

    def _top_up(self, stream: _Stream, time: int) -> None:
        """Keep the stream DEPTH entries deep (counting in-flight fills)."""
        while (
            stream.next_block is not None
            and len(stream.entries) + self._in_flight(stream) < self.DEPTH
        ):
            block = stream.next_block
            stream.next_block = block + 1
            if self.cache.contains(self.cache.addr_of(block)):
                continue
            if len(self._pending) > 64:
                self._pending.clear()  # orphaned by dropped prefetches
            self._pending[block] = stream
            if not self.emit_prefetch(self.cache.addr_of(block), time):
                self._pending.pop(block, None)
                break

    def _in_flight(self, stream: _Stream) -> int:
        return sum(1 for s in self._pending.values() if s is stream)

    # -- hooks ----------------------------------------------------------------------

    def probe(self, block: int, time: int) -> Optional[ProbeResult]:
        self.count_table_access()
        for stream in self._streams:
            if stream.entries and stream.entries[0][0] == block:
                _, ready = stream.entries.popleft()
                stream.last_use = time
                self.st_head_hits.add()
                self.st_probe_hits.add()
                self._top_up(stream, time)
                extra = 1 if ready <= time else (ready - time)
                return ProbeResult(latency=extra, dirty=False)
        return None

    def on_miss(self, pc: int, block: int, time: int) -> None:
        # The probe already failed: allocate the LRU stream for this miss.
        stream = min(self._streams, key=lambda s: s.last_use)
        for pending_block in [b for b, s in self._pending.items() if s is stream]:
            del self._pending[pending_block]
        stream.entries.clear()
        stream.next_block = block + 1
        stream.last_use = time
        self.st_allocations.add()
        self._top_up(stream, time)

    def deliver_prefetch(self, addr: int, ready: int, time: int) -> bool:
        block = self.cache.block_of(addr)
        stream = self._pending.pop(block, None)
        if stream is None:
            return False
        stream.entries.append((block, ready))
        return True

    def structures(self) -> List[StructureSpec]:
        line = self.cache.config.line_size if self.cache else 32
        return [
            StructureSpec(
                "sb_buffers",
                size_bytes=self.N_BUFFERS * self.DEPTH * line,
                assoc=self.N_BUFFERS,
            ),
            StructureSpec("sb_request_queue", size_bytes=self.QUEUE_SIZE * 8),
        ]
