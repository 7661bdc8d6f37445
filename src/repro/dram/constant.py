"""SimpleScalar-style constant-latency memory.

The model most of the original mechanism articles used: every access takes a
fixed number of cycles (70 by default) and bandwidth is unlimited.  The
paper shows (Figure 8) that this flatters bandwidth-hungry prefetchers —
speedups shrink by ~58% on average when the detailed SDRAM replaces it.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.module import Component
from repro.obs.tracing import TRACER


class ConstantLatencyMemory(Component):
    """``access`` always completes ``latency`` cycles after presentation."""

    def __init__(
        self,
        latency: int = 70,
        name: str = "constmem",
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        if latency < 1:
            raise ValueError(f"latency must be positive, got {latency}")
        self.latency = latency
        self.st_requests = self.add_stat("requests", "requests serviced")
        self.st_latency = self.add_stat("total_latency", "sum of access latencies")

    def access(self, addr: int, time: int, is_write: bool = False) -> int:
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("dram.access", cat="dram")
        self.st_requests.value += 1
        self.st_latency.value += self.latency
        if tracing:
            TRACER.end(cycles=self.latency, write=is_write)
        return time + self.latency

    @property
    def average_latency(self) -> float:
        return float(self.latency)

    def reset(self) -> None:
        self.reset_stats()
