"""FVC — Frequent Value Cache (Zhang, Yang & Gupta, ASPLOS 2000).  L1,
Table 3: 1024 lines, 7 frequent values + the "unknown" code.

A victim-buffer-like structure that only admits lines whose words can be
*compressed*: each word is replaced by a 3-bit index into a table of the
seven most frequent program values (the eighth code meaning "not
compressible"); a line qualifies when enough of its words are frequent
values.  Because entries are compressed, 1024 lines fit in a fraction of
the SRAM a real victim cache of that reach would need.

The frequent-value table is learned online from the words of evicted lines
and frozen after a warm-up sample, following the dynamic variant of the
original paper.  The study's observation (Section 3.1) is that FVC, which
looked strong under a *miss-ratio* metric in its article, "seems to perform
less favorably in a full processor environment" — an IPC-vs-miss-ratio
methodology effect this reproduction shows as well.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.mechanisms.base import Mechanism, ProbeResult, StructureSpec


class FrequentValueCache(Mechanism):
    """Compressed victim buffer admitting only value-compressible lines."""

    LEVEL = "l1"
    ACRONYM = "FVC"
    YEAR = 2000
    N_LINES = 1024
    N_FREQUENT = 7
    #: Fraction of a line's words that must be frequent values to qualify.
    COMPRESSIBLE_FRACTION = 0.75
    #: Words sampled before the frequent-value table freezes.
    WARMUP_SAMPLES = 4096

    def __init__(self, name: Optional[str] = None, parent=None):
        super().__init__(name, parent)
        self._entries: "OrderedDict[int, bool]" = OrderedDict()  # block -> dirty
        #: Sampled value -> [-count, first-seen index]: ascending order of
        #: these keys is ``Counter.most_common``'s ranking.
        self._ranks: Dict[int, List[int]] = {}
        #: The N_FREQUENT best-ranked sampled values, best first.
        self._top: List[int] = []
        self._sampled = 0
        self._frequent: Optional[frozenset] = None
        self.st_captures = self.add_stat("captures", "compressible victims stored")
        self.st_incompressible = self.add_stat(
            "incompressible", "victims rejected as not value-compressible"
        )

    # -- frequent-value learning ---------------------------------------------------

    def _observe(self, words: Tuple[int, ...]) -> None:
        if self._frequent is not None:
            return
        ranks = self._ranks
        for word in words:
            rank = ranks.get(word)
            if rank is None:
                ranks[word] = [-1, len(ranks)]
            else:
                rank[0] -= 1
        # Counts only grow, so a value this line did not touch cannot pass
        # any of the current top: only they and this line's words compete.
        top = sorted({*self._top, *words}, key=ranks.__getitem__)
        self._top = top[:self.N_FREQUENT]
        self._sampled += len(words)
        if self._sampled >= self.WARMUP_SAMPLES:
            self._frequent = frozenset(self._top)
            ranks.clear()

    def frequent_values(self) -> frozenset:
        """The current frequent-value set (pre-freeze: best guess so far)."""
        if self._frequent is not None:
            return self._frequent
        return frozenset(self._top)

    def _compressible(self, words: Tuple[int, ...]) -> bool:
        if not words:
            return False
        frequent = self.frequent_values()
        if not frequent:
            return False
        hits = sum(1 for word in words if word in frequent)
        return hits >= len(words) * self.COMPRESSIBLE_FRACTION

    # -- hooks ----------------------------------------------------------------------

    def on_evict(self, block: int, dirty: bool, live: bool, time: int) -> bool:
        if self.hierarchy is None or self.hierarchy.image is None:
            return False
        line_size = self.cache.config.line_size
        words = self.hierarchy.read_line_values(
            self.cache.addr_of(block), line_size
        )
        self.count_table_access(len(words))
        self._observe(words)
        if not self._compressible(words):
            self.st_incompressible.add()
            return False
        if block in self._entries:
            self._entries[block] = self._entries[block] or dirty
            self._entries.move_to_end(block)
            return True
        while len(self._entries) >= self.N_LINES:
            old_block, old_dirty = self._entries.popitem(last=False)
            if old_dirty:
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
        # Decompression adds a cycle on top of the swap.
        return ProbeResult(latency=2, dirty=dirty)

    def __len__(self) -> int:
        return len(self._entries)

    def structures(self) -> List[StructureSpec]:
        line = self.cache.config.line_size if self.cache else 32
        words_per_line = line // 8
        # 3 bits per word plus a tag per line, and the tiny value table.
        compressed_line_bits = words_per_line * 3 + 32
        return [
            StructureSpec(
                "fvc_lines",
                size_bytes=self.N_LINES * compressed_line_bits // 8,
                assoc=8,
            ),
            StructureSpec("fvc_value_table", size_bytes=self.N_FREQUENT * 8),
        ]
