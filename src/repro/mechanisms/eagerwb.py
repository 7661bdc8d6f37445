"""EW — Eager Writeback (Lee, Tyson & Farrens, MICRO 2000).
L1.  *Library extension.*

One of the mechanisms the paper collected but could **not** evaluate:
"eager writeback [15] ... is designed for and tested on memory-bandwidth
bound programs which were not available" (Section 1).  Our synthetic suite
has exactly such programs (``swim``, ``lucas``), so the reproduction can go
one step beyond the original study — the MicroLib vision working as
intended.

The idea: do not wait for eviction to write a dirty line back.  When a
dirty line has gone quiet (it left the MRU position and has not been
written for a while), write it back *during bus idle time* and mark it
clean.  Evictions of such lines then cost nothing at the moment of maximum
bus pressure; the writeback bandwidth is moved into the gaps.

Implementation: store hits arm a deferred check (via the hierarchy's event
simulator, like TK's decay clock); when the check fires and the line has
not been re-written since, its writeback is emitted ahead of time and the
line is marked clean.  Correctness follows the writeback protocol: a clean
line re-written later simply becomes dirty again (and re-arms).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mechanisms.base import Mechanism, StructureSpec


class EagerWriteback(Mechanism):
    """Write quiet dirty lines back early; evict them for free later."""

    LEVEL = "l1"
    ACRONYM = "EW"
    YEAR = 2000
    #: Cycles a dirty line must stay un-written before the eager writeback.
    QUIET_CYCLES = 512

    def __init__(self, name: Optional[str] = None, parent=None):
        super().__init__(name, parent)
        self._last_write: Dict[int, int] = {}
        self.st_eager_writebacks = self.add_stat("eager_writebacks")
        self.st_free_evictions = self.add_stat(
            "free_evictions", "evictions whose line was already cleaned"
        )

    # -- hooks --------------------------------------------------------------------

    def on_access(
        self, pc: int, block: int, hit: bool, was_prefetched: bool, time: int
    ) -> None:
        if not hit:
            return
        line = self.cache.peek(self.cache.addr_of(block))
        if line is not None and line.dirty:
            self._arm(block, time)

    def on_refill(
        self, block: int, victim_block: Optional[int], time: int,
        prefetched: bool = False,
    ) -> None:
        # The dirty bit for an allocating store is set *after* this hook
        # runs, so arm unconditionally — the quiet check verifies dirtiness
        # before doing anything.
        if not prefetched:
            self._arm(block, time)

    def on_evict(self, block: int, dirty: bool, live: bool, time: int) -> bool:
        if not dirty and block in self._last_write:
            self.st_free_evictions.add()
        self._last_write.pop(block, None)
        return False

    # -- the quiet clock ---------------------------------------------------------

    def _arm(self, block: int, time: int) -> None:
        self._last_write[block] = time
        if self.hierarchy is not None:
            self.hierarchy.sim.schedule(
                time + self.QUIET_CYCLES + 1, self._check_quiet, block, time
            )

    def _check_quiet(self, block: int, write_seen: int) -> None:
        last = self._last_write.get(block)
        if last is None or last != write_seen:
            return  # re-written since, or evicted; a newer check covers it
        cache = self.cache
        line = cache.peek(cache.addr_of(block))
        if line is None or not line.dirty:
            self._last_write.pop(block, None)
            return
        now = self.hierarchy.sim.now
        # Use the bus only when it is genuinely idle — the whole point.
        if not self.hierarchy.l1_l2_bus.idle_at(now):
            # Busy: try again after another quiet interval.
            self.hierarchy.sim.schedule(
                now + self.QUIET_CYCLES, self._check_quiet, block, write_seen
            )
            return
        self.count_table_access()
        self.st_eager_writebacks.add()
        line.dirty = False
        if cache.writeback_next is not None:
            cache.writeback_next(cache.addr_of(block), now)

    def structures(self) -> List[StructureSpec]:
        n_lines = self.cache.config.n_lines if self.cache else 1024
        # One quiet-counter (a few bits) per line.
        return [StructureSpec("ew_quiet_counters", size_bytes=n_lines // 2)]
