"""DBCP — Dead-Block Correlating Prefetcher (Lai, Fide & Falsafi,
ISCA 2001).  L1, Table 3: 1K-entry history, 2 MB 8-way correlation table,
request queue 128.

Every resident line carries a *signature*: an encoding of the sequence of
load/store instruction addresses that touched it since its fill.  When a
line dies, the (block, death-signature) pair is correlated with the block
that replaced it.  The next time the same block accumulates the same
signature, the line is predicted dead on the spot and its historical
successor is prefetched.

Two build variants reproduce the paper's Figure 3 case study in
reverse-engineering risk.  The authors' own first implementation was off by
38% until the DBCP authors helped them find three unstated details; the
``initial`` variant re-introduces exactly those defects:

* PCs are **not prehashed** before being folded into the signature, causing
  aliasing conflicts in the correlation table;
* the correlation table has **half** the correct number of entries (a
  misreading of the article's sizing text);
* confidence counters are **never decreased** when a signature stops
  inducing misses, so stale entries pollute the table.

The ``fixed`` variant (default) implements all three correctly.  In the
paper's fixed form DBCP outperforms TK by a wide margin — opposite to the
ranking published in the TK article, whose authors had reverse-engineered
DBCP themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.mechanisms.base import Mechanism, StructureSpec

_SIG_MASK = (1 << 24) - 1


def _prehash_pc(pc: int) -> int:
    """Knuth multiplicative mix — the unstated prehash of the article."""
    return ((pc * 2654435761) >> 8) & _SIG_MASK


class DeadBlockCorrelatingPrefetcher(Mechanism):
    """Per-line PC-trace signatures correlated with replacement blocks."""

    LEVEL = "l1"
    ACRONYM = "DBCP"
    YEAR = 2001
    QUEUE_SIZE = 128
    #: Dead-block prefetches hide L2 latency; successors not L2-resident
    #: are not worth a speculative DRAM round trip.
    PREFETCH_FROM_L2_ONLY = True
    HISTORY_ENTRIES = 1024
    CORR_BYTES = 2 << 20
    CORR_ASSOC = 8
    CONFIDENCE_MAX = 3
    CONFIDENCE_THRESHOLD = 2

    def __init__(
        self,
        name: Optional[str] = None,
        parent=None,
        variant: str = "fixed",
    ):
        super().__init__(name, parent)
        if variant not in ("fixed", "initial"):
            raise ValueError(f"variant must be 'fixed' or 'initial', got {variant!r}")
        self.variant = variant
        self.prehash = variant == "fixed"
        self.confidence_decay = variant == "fixed"
        entries = self.CORR_BYTES // 16
        self.corr_capacity = entries if variant == "fixed" else entries // 2
        # live signature per resident block
        self._signatures: Dict[int, int] = {}
        # miss PC awaiting the refill that starts the new generation
        self._pending_pc: Dict[int, int] = {}
        # successor block -> predicted-dead block whose frame it reuses
        self._frame_of: Dict[int, int] = {}
        # suppress death-history learning during our own frame evictions
        self._evicting_frame = False
        # recently dead blocks: block -> death signature (bounded history)
        self._history: "OrderedDict[int, int]" = OrderedDict()
        # correlation: (block, signature) -> [successor_block, confidence]
        self._corr: "OrderedDict[Tuple[int, int], List[int]]" = OrderedDict()
        self.st_predictions = self.add_stat("dead_predictions")
        self.st_corr_hits = self.add_stat("corr_hits")
        self.st_confidence_drops = self.add_stat("confidence_drops")

    # -- signature maintenance -----------------------------------------------------

    def _fold(self, signature: int, pc: int) -> int:
        token = _prehash_pc(pc) if self.prehash else (pc & 0xFFFF)
        return ((signature * 33) ^ token) & _SIG_MASK

    def on_access(
        self, pc: int, block: int, hit: bool, was_prefetched: bool, time: int
    ) -> None:
        if pc == 0:
            return
        if not hit:
            # The miss-causing access opens the new generation's signature;
            # its PC is folded in once the fill installs (on_refill).
            self._pending_pc[block] = pc
            return
        signature = self._fold(self._signatures.get(block, 0), pc)
        self._signatures[block] = signature
        self._predict(block, signature, time)

    # -- correlation-table access -------------------------------------------------
    #
    # The fixed build stores fully-tagged entries; the initial build models
    # the untagged/undersized table a misreading produces: entries live at
    # ``hash % capacity`` with no tag check, so aliasing silently returns
    # other blocks' predictions — the paper's "aliasing conflicts in the
    # correlation table" defect.

    def _corr_key(self, block: int, signature: int):
        if self.variant == "fixed":
            return (block, signature)
        return ((block * 31) ^ signature) % self.corr_capacity

    def _corr_lookup(self, block: int, signature: int) -> Optional[List[int]]:
        return self._corr.get(self._corr_key(block, signature))

    def _predict(self, block: int, signature: int, time: int) -> None:
        self.count_table_access()
        entry = self._corr_lookup(block, signature)
        if entry is None:
            return
        self.st_corr_hits.add()
        successor, confidence = entry
        if confidence >= self.CONFIDENCE_THRESHOLD:
            if self.cache.contains(self.cache.addr_of(successor)):
                return
            self.st_predictions.add()
            # The block is predicted dead *now*: the prefetched successor
            # will occupy its frame, never displacing live data — the
            # "prefetch into dead blocks" half of the DBCP idea.
            if len(self._frame_of) > 4096:
                self._frame_of.clear()
            self._frame_of[successor] = block
            self.emit_prefetch(self.cache.addr_of(successor), time)

    def deliver_prefetch(self, addr: int, ready: int, time: int) -> bool:
        block = self.cache.block_of(addr)
        dead = self._frame_of.pop(block, None)
        if dead is not None and dead != block:
            self._evicting_frame = True
            try:
                self.cache.evict_block(dead, time)
            finally:
                self._evicting_frame = False
        return super().deliver_prefetch(addr, ready, time)

    # -- learning ------------------------------------------------------------------

    def on_evict(self, block: int, dirty: bool, live: bool, time: int) -> bool:
        signature = self._signatures.pop(block, None)
        if signature is not None and not self._evicting_frame:
            # A frame eviction we caused is not a natural death: recording
            # its (shorter) signature would entrench premature predictions.
            if len(self._history) >= self.HISTORY_ENTRIES:
                self._history.popitem(last=False)
            self._history[block] = signature
        return False

    def on_refill(
        self, block: int, victim_block: Optional[int], time: int,
        prefetched: bool = False,
    ) -> None:
        pending = self._pending_pc.pop(block, None)
        signature = self._fold(0, pending) if pending is not None else 0
        self._signatures[block] = signature
        if pending is not None:
            # Predict on the fill access too: lines touched once per
            # generation reach their death signature immediately.
            self._predict(block, signature, time)
        if victim_block is None:
            return
        death_sig = self._history.get(victim_block)
        if death_sig is None:
            return
        self.count_table_access()
        key = self._corr_key(victim_block, death_sig)
        entry = self._corr.get(key)
        if entry is None:
            if len(self._corr) >= self.corr_capacity:
                self._corr.popitem(last=False)
            self._corr[key] = [block, 1]
        else:
            self._corr.move_to_end(key)
            if entry[0] == block:
                if entry[1] < self.CONFIDENCE_MAX:
                    entry[1] += 1
            else:
                if self.confidence_decay:
                    entry[1] -= 1
                    self.st_confidence_drops.add()
                    if entry[1] <= 0:
                        entry[0] = block
                        entry[1] = 1
                else:
                    entry[0] = block
                    entry[1] = max(entry[1], 1)

    def structures(self) -> List[StructureSpec]:
        return [
            StructureSpec("dbcp_history", size_bytes=self.HISTORY_ENTRIES * 8),
            StructureSpec(
                "dbcp_correlation",
                size_bytes=self.CORR_BYTES if self.variant == "fixed"
                else self.CORR_BYTES // 2,
                assoc=self.CORR_ASSOC,
            ),
            StructureSpec("dbcp_request_queue", size_bytes=self.QUEUE_SIZE * 8),
        ]
