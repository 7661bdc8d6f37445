"""TK / TKVC — Timekeeping in the memory system (Hu, Kaxiras & Martonosi,
ISCA 2002).  L1.

Timekeeping techniques watch the *time* a cache line spends idle.  A line
untouched for more than a threshold (Table 3: 1023 cycles, observed with a
coarse 512-cycle refresh tick) is predicted dead.

**TK (prefetcher)** combines death prediction with an address-correlation
table (Table 3: 8 KB, 8-way) recording, per block, which block historically
replaced it.  When a resident line is predicted dead, the replacement
successor is prefetched *before* the demand miss arrives — a timely
prefetch into L1.  Request queue: 128 entries.

**TKVC (victim-cache filter)** uses the same liveness signal to decide
which victims deserve a slot in the 512-byte victim cache: lines evicted
while still "live" are probable conflict victims and are kept; dead lines
are bypassed.

The decay clock is implemented with deferred events on the hierarchy's
simulator: each refill/touch schedules a check ``threshold`` cycles out;
the check fires only if the line has genuinely been idle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.hotpath import hotpath
from repro.mechanisms.base import Mechanism, StructureSpec
from repro.mechanisms.victim import VictimCache


class TimekeepingPrefetcher(Mechanism):
    """Dead-line prediction + replacement-correlation prefetch into L1."""

    LEVEL = "l1"
    ACRONYM = "TK"
    YEAR = 2002
    QUEUE_SIZE = 128
    #: TK hides L2 latency with timely L1 fills; a predicted successor not
    #: resident in L2 is not worth a DRAM round trip.
    PREFETCH_FROM_L2_ONLY = True
    #: The paper's Table 3 uses a 512-cycle refresh and a 1023-cycle death
    #: threshold for 500M-instruction traces.  Our traces are ~10^4 times
    #: shorter, so per-line inter-touch gaps (in cycles) are several times
    #: sparser; the same *semantics* — "dead after ~a few average reuse
    #: intervals" — requires a proportionally larger threshold, or every
    #: merely-sleepy hot line gets declared dead and evicted.
    REFRESH = 2048         # decay-counter tick, cycles
    THRESHOLD = 8191       # idle cycles after which a line is dead
    CORR_BYTES = 8 << 10   # address-correlation table size
    CORR_ASSOC = 8

    def __init__(
        self,
        name: Optional[str] = None,
        parent=None,
        reverse_engineered: bool = False,
    ):
        super().__init__(name, parent)
        #: The "reverse-engineered" variant models a plausible misreading of
        #: the article (Figure 2): the threshold is taken as the refresh
        #: interval and dead-line checks are not re-armed on touches.
        self.reverse_engineered = reverse_engineered
        self.threshold = self.REFRESH if reverse_engineered else self.THRESHOLD
        self._corr: "OrderedDict[int, int]" = OrderedDict()  # victim -> successor
        self._last_touch: Dict[int, int] = {}
        # successor block -> the dead block whose frame it should reuse
        self._frame_of: Dict[int, int] = {}
        self.st_dead_predictions = self.add_stat("dead_predictions")
        self.st_corr_entries = self.add_stat("corr_learned")

    @property
    def corr_capacity(self) -> int:
        return self.CORR_BYTES // 8

    def _quantize(self, time: int) -> int:
        return (time // self.REFRESH) * self.REFRESH

    # -- learning -----------------------------------------------------------------

    def on_refill(
        self, block: int, victim_block: Optional[int], time: int,
        prefetched: bool = False,
    ) -> None:
        if victim_block is not None:
            self.count_table_access()
            entry = self._corr.get(victim_block)
            if entry is None:
                if len(self._corr) >= self.corr_capacity:
                    self._corr.popitem(last=False)
                self._corr[victim_block] = [block, 1]
            else:
                self._corr.move_to_end(victim_block)
                if entry[0] == block:
                    entry[1] = min(entry[1] + 1, 3)
                else:
                    entry[1] -= 1
                    if entry[1] <= 0:
                        entry[0] = block
                        entry[1] = 1
            self.st_corr_entries.add()
        if prefetched:
            # Our own prefetch fills are not decay-tracked until a demand
            # touch proves them useful; tracking them would let dead
            # predictions regenerate prefetches forever, a feedback loop a
            # real TK's demand-driven counters do not have.
            return
        self._touch(block, time)

    def on_access(
        self, pc: int, block: int, hit: bool, was_prefetched: bool, time: int
    ) -> None:
        if hit:
            self._touch(block, time)

    def on_evict(self, block: int, dirty: bool, live: bool, time: int) -> bool:
        self._last_touch.pop(block, None)
        return False

    # -- decay machinery ------------------------------------------------------------

    @hotpath
    def _touch(self, block: int, time: int) -> None:
        quantized = time - time % self.REFRESH
        last_touch = self._last_touch
        prev = last_touch.get(block)
        if prev == quantized:
            # Same decay quantum as the previous touch: the pending check
            # for (block, quantized) already covers this touch (it fires at
            # quantized + threshold + 1, still in the future), so a second
            # identical event would only fire as a no-op.  Skipping it cuts
            # the kernel's event traffic for hot lines by an order of
            # magnitude without changing a single prediction.
            return
        last_touch[block] = quantized
        if self.hierarchy is None:
            return
        if prev is None or not self.reverse_engineered:
            self.hierarchy.sim.schedule(
                quantized + self.threshold + 1, self._check_dead, block, quantized
            )

    @hotpath
    def _check_dead(self, block: int, touch_seen: int) -> None:
        last = self._last_touch.get(block)
        if last is None or last != touch_seen:
            return  # evicted or touched since; the newer check covers it
        if not self.cache.contains(self.cache.addr_of(block)):
            self._last_touch.pop(block, None)
            return
        self.st_dead_predictions.add()
        self.count_table_access()
        entry = self._corr.get(block)
        # Only a *confirmed* replacement correlation (reinforced at least
        # once) is worth a prefetch and the dead frame's reuse: in a
        # direct-mapped L1 every insertion evicts the set's resident, so a
        # speculative fill must be likelier right than wrong.
        successor = entry[0] if entry is not None and entry[1] >= 2 else None
        if (
            successor is not None
            and successor != block
            and not self.cache.contains(self.cache.addr_of(successor))
        ):
            # The prefetch will reuse the dead line's frame, not an LRU
            # victim's: timekeeping prefetch never displaces live data.
            if len(self._frame_of) > 4096:
                self._frame_of.clear()  # entries orphaned by dropped prefetches
            self._frame_of[successor] = block
            self.emit_prefetch(
                self.cache.addr_of(successor), self.hierarchy.sim.now
            )
        # Line is dead: stop tracking until it is touched again.
        self._last_touch.pop(block, None)

    def deliver_prefetch(self, addr: int, ready: int, time: int) -> bool:
        block = self.cache.block_of(addr)
        dead = self._frame_of.pop(block, None)
        if dead is not None and dead != block:
            self.cache.evict_block(dead, time)
        return super().deliver_prefetch(addr, ready, time)

    def structures(self) -> List[StructureSpec]:
        n_lines = self.cache.config.n_lines if self.cache else 1024
        return [
            StructureSpec(
                "tk_correlation", size_bytes=self.CORR_BYTES, assoc=self.CORR_ASSOC
            ),
            StructureSpec("tk_decay_counters", size_bytes=n_lines // 2),
            StructureSpec("tk_request_queue", size_bytes=self.QUEUE_SIZE * 8),
        ]


class TimekeepingVictimCache(VictimCache):
    """Victim cache admitting only lines evicted while still live."""

    ACRONYM = "TKVC"
    YEAR = 2002

    def __init__(
        self,
        name: Optional[str] = None,
        parent=None,
        reverse_engineered: bool = False,
    ):
        super().__init__(name, parent)
        #: The reverse-engineered variant inverts the filter's intent in a
        #: plausible way: it stores lines that were *dead* at eviction
        #: (reading "will be used again" as "has not been used recently").
        self.reverse_engineered = reverse_engineered
        self.st_bypassed = self.add_stat("bypassed", "victims not captured")

    def should_capture(self, live: bool) -> bool:
        capture = (not live) if self.reverse_engineered else live
        if not capture:
            self.st_bypassed.add()
        return capture

    def structures(self) -> List[StructureSpec]:
        specs = super().structures()
        n_lines = self.cache.config.n_lines if self.cache else 1024
        specs.append(StructureSpec("tkvc_decay_counters", size_bytes=n_lines // 2))
        return specs
