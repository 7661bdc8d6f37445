"""SDRAM controller: queue admission + device timing + data return.

The controller owns a finite request queue (32 entries in Table 1).  A
request occupies its slot from admission until its data has been returned;
when all slots are busy a new request waits for the earliest completion —
this is the back-pressure that makes aggressive prefetchers (GHB, CDPSP)
*slow programs down* under the SDRAM model while they looked great under
SimpleScalar's infinite-bandwidth constant-latency memory (Section 3.3).
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.core.config import SDRAMConfig
from repro.dram.scheduling import PERMUTATION_INTERLEAVE
from repro.dram.sdram import SDRAM
from repro.hotpath import hotpath
from repro.kernel.module import Component
from repro.obs.tracing import TRACER


class SDRAMController(Component):
    """Front end of the memory system: admits, schedules, completes."""

    def __init__(
        self,
        config: SDRAMConfig,
        scheme: str = PERMUTATION_INTERLEAVE,
        page_policy: str = SDRAM.OPEN_PAGE,
        name: str = "memctl",
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.config = config
        self.device = SDRAM(config, scheme, page_policy, parent=self)
        self._slots: List[int] = []    # heap of per-slot completion times
        # Hot-path hoists: the queue bound and the device's access method
        # are fixed for the controller's lifetime.
        self._queue_entries = config.queue_entries
        self._device_access = self.device.access
        self.st_requests = self.add_stat("requests", "requests admitted")
        self.st_queue_stall = self.add_stat(
            "queue_stall_cycles", "cycles requests waited for a queue slot"
        )
        self.st_latency = self.add_stat(
            "total_latency", "request-to-data latency including queue wait"
        )

    @hotpath
    def access(self, addr: int, time: int, is_write: bool = False) -> int:
        """Present a line request at ``time``; return the data-ready cycle.

        Writes occupy the queue and the bank like reads (the row must still
        be opened) but their completion does not gate the requester — the
        hierarchy simply drops the returned time for writebacks.
        """
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("dram.access", cat="dram")
        slots = self._slots
        admitted = time
        if len(slots) >= self._queue_entries:
            # The earliest completion frees the slot this request takes.
            earliest = slots[0]
            if earliest > admitted:
                self.st_queue_stall.value += earliest - admitted
                admitted = earliest
            ready = self._device_access(addr, admitted)
            heapq.heapreplace(slots, ready)
        else:
            ready = self._device_access(addr, admitted)
            heapq.heappush(slots, ready)
        self.st_requests.value += 1
        self.st_latency.value += ready - time
        if tracing:
            TRACER.end(cycles=ready - time, queue_wait=admitted - time,
                       write=is_write)
        return ready

    @hotpath
    def occupancy(self, time: int) -> int:
        """Requests still in flight at ``time`` (for prefetch throttling)."""
        slots = self._slots
        while slots and slots[0] <= time:
            heapq.heappop(slots)
        return len(slots)

    @property
    def average_latency(self) -> float:
        """Mean request-to-data latency, queue wait included.

        This is the number the paper quotes per benchmark (87 cycles for
        ``gzip`` up to 389 for ``lucas``): contention, not just device
        timing.
        """
        if not self.st_requests.value:
            return 0.0
        return self.st_latency.value / self.st_requests.value

    def reset(self) -> None:
        self._slots.clear()
        self.device.reset()
        self.reset_stats()
