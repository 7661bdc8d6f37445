"""TCP — Tag Correlating Prefetching (Hu, Martonosi & Kaxiras, HPCA 2003).
L2, Table 3: THT 1024 sets direct-mapped holding the 2 previous tags,
PHT 8 KB / 256 sets / 8-way, request queue 128.

Per cache *set*, a tag-history table (THT) remembers the last two miss
tags; the pair indexes a pattern-history table (PHT) that predicts the tag
of the *next* miss in that set, which is prefetched at the same set index.
Tag sequences repeat across sets for regular programs, so correlating on
tags instead of full addresses keeps the tables tiny.

This mechanism carries the paper's **second-guessing** experiment
(Section 3.4, Figure 10): the article never says how prefetch requests
reach memory.  The ``queue_size`` parameter reproduces the two readings —
a 1-entry buffer (prefetches dropped whenever one is pending) versus the
128-entry buffer the authors eventually matched against the article's
numbers, which "always contains pending prefetch requests and will seize
the bus whenever it is available", hurting ``lucas``-like memory-bound
programs while helping others.

A ``reverse_engineered`` build models a plausible misreading for Figure 2:
the PHT is indexed by the raw tag pair without folding in the set index,
creating cross-set aliasing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.mechanisms.base import Mechanism, PrefetchQueue, StructureSpec


class TagCorrelatingPrefetcher(Mechanism):
    """Per-set tag-pair -> next-tag correlation prefetcher."""

    LEVEL = "l2"
    ACRONYM = "TCP"
    YEAR = 2003
    QUEUE_SIZE = 128
    THT_SETS = 1024
    PHT_BYTES = 8 << 10
    PHT_ASSOC = 8

    def __init__(
        self,
        name: Optional[str] = None,
        parent=None,
        queue_size: Optional[int] = None,
        reverse_engineered: bool = False,
    ):
        super().__init__(name, parent)
        if queue_size is not None:
            if queue_size < 1:
                raise ValueError(f"queue_size must be >= 1, got {queue_size}")
            self.queue = PrefetchQueue(queue_size)
        self.reverse_engineered = reverse_engineered
        # THT: set index -> (tag_{-1}, tag_{-2}).
        self._tht: Dict[int, Tuple[int, int]] = {}
        # PHT: pattern key -> [predicted next tag, confidence], LRU-capped.
        # A pattern predicts only once confirmed (confidence >= 1): a
        # first-sighting guess is as likely to waste a DRAM access as not.
        self._pht: "OrderedDict[int, list]" = OrderedDict()
        self.st_predictions = self.add_stat("tag_predictions")

    @property
    def pht_capacity(self) -> int:
        return self.PHT_BYTES // 8

    def _set_and_tag(self, block: int) -> Tuple[int, int]:
        n_sets = self.cache.n_sets
        return block & (n_sets - 1), block >> (n_sets.bit_length() - 1)

    def _pattern_key(self, set_idx: int, tag1: int, tag2: int) -> int:
        key = (tag1 << 20) ^ tag2
        if not self.reverse_engineered:
            key = (key << 10) ^ set_idx % 1021
        return key

    def on_miss(self, pc: int, block: int, time: int) -> None:
        set_idx, tag = self._set_and_tag(block)
        tht_idx = set_idx % self.THT_SETS
        self.count_table_access()  # THT read
        history = self._tht.get(tht_idx)
        if history is not None:
            tag1, tag2 = history
            key = self._pattern_key(set_idx, tag1, tag2)
            self.count_table_access()  # PHT update
            entry = self._pht.get(key)
            if entry is None:
                if len(self._pht) >= self.pht_capacity:
                    self._pht.popitem(last=False)
                self._pht[key] = [tag, 0]
            else:
                self._pht.move_to_end(key)
                if entry[0] == tag:
                    entry[1] = min(entry[1] + 1, 3)
                else:
                    entry[1] -= 1
                    if entry[1] < 0:
                        entry[0] = tag
                        entry[1] = 0

            # Predict the *next* miss tag from the new most-recent pair.
            next_key = self._pattern_key(set_idx, tag, tag1)
            predicted = self._pht.get(next_key)
            self.count_table_access()  # PHT probe
            if predicted is not None and predicted[1] >= 1 and predicted[0] != tag:
                n_sets = self.cache.n_sets
                target_block = (predicted[0] << (n_sets.bit_length() - 1)) | set_idx
                target_addr = self.cache.addr_of(target_block)
                if not self.cache.contains(target_addr):
                    self.st_predictions.add()
                    self.emit_prefetch(target_addr, time)
            self._tht[tht_idx] = (tag, tag1)
        else:
            self._tht[tht_idx] = (tag, tag)

    def structures(self) -> List[StructureSpec]:
        queue_entries = self.queue.capacity if self.queue else self.QUEUE_SIZE
        return [
            StructureSpec("tcp_tht", size_bytes=self.THT_SETS * 8, assoc=1),
            StructureSpec("tcp_pht", size_bytes=self.PHT_BYTES, assoc=self.PHT_ASSOC),
            StructureSpec("tcp_request_queue", size_bytes=queue_entries * 8),
        ]
