"""Functional memory image.

The original MicroLib validated cache models by *executing* programs — "the
cache not only contains the addresses but the actual values of the data"
(Section 2.2) — and two mechanisms genuinely need values: the Frequent Value
Cache compresses lines whose words come from a small recurring value set,
and Content-Directed Prefetching scans refilled lines for words that look
like pointers.

:class:`MemoryImage` is a sparse word-addressable memory (8-byte words).
Workload generators populate it with arrays and linked data structures;
the simulated machine's stores update it; mechanisms read lines from it.
It also tracks the heap bounds so CDP's "does this word look like an
address?" test works exactly as in the original: value within the data
region and word-aligned.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Tuple

WORD_BYTES = 8


class MemoryImage:
    """Sparse functional memory with pointer-region tracking."""

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}
        #: Optional lazily-thawed base image: a pair of parallel address /
        #: value sequences (set by the on-disk workload store).  Reads and
        #: size queries materialise it into ``_words`` on first use; a run
        #: that only *writes* (most timing runs — values are only consumed
        #: by value-based mechanisms like FVC and CDP) never pays the cost
        #: of building a 60k-entry dict.
        self._pending = None
        self.heap_lo: int = 0
        self.heap_hi: int = 0
        self.reads = 0
        self.writes = 0

    def _materialize(self) -> None:
        """Thaw the pending base image under any overlay writes."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        base = dict(zip(*pending))
        base.update(self._words)  # stores made since load win, as they must
        self._words = base

    # -- region management -------------------------------------------------------

    def note_heap(self, lo: int, hi: int) -> None:
        """Extend the recorded heap (pointer-candidate) address range."""
        if self.heap_hi == 0:
            self.heap_lo, self.heap_hi = lo, hi
        else:
            self.heap_lo = min(self.heap_lo, lo)
            self.heap_hi = max(self.heap_hi, hi)

    def looks_like_pointer(self, value: int) -> bool:
        """CDP's candidate test: aligned and within the data region."""
        if value <= 0 or value % WORD_BYTES:
            return False
        return self.heap_lo <= value < self.heap_hi

    # -- word access ------------------------------------------------------------

    @staticmethod
    def _word_addr(addr: int) -> int:
        return addr & ~(WORD_BYTES - 1)

    @staticmethod
    def _uninitialised(word_addr: int) -> int:
        """Deterministic garbage for never-written words.

        Real memory is not zero-filled; returning 0 everywhere would make
        every untouched line look perfectly value-compressible to the FVC.
        The value is odd, so it can never satisfy the aligned-pointer test.
        """
        return ((word_addr * 2654435761) & 0xFFFFFFFF) | 1

    def write(self, addr: int, value: int) -> None:
        self._words[self._word_addr(addr)] = value
        self.writes += 1

    def read(self, addr: int) -> int:
        if self._pending is not None:
            self._materialize()
        self.reads += 1
        word_addr = self._word_addr(addr)
        value = self._words.get(word_addr)
        if value is None:
            return self._uninitialised(word_addr)
        return value

    def read_line(self, line_addr: int, line_bytes: int) -> Tuple[int, ...]:
        """All words of the aligned line starting at ``line_addr``."""
        if self._pending is not None:
            self._materialize()
        words = self._words
        base = self._word_addr(line_addr)
        self.reads += 1
        out = []
        for offset in range(0, line_bytes, WORD_BYTES):
            word_addr = base + offset
            value = words.get(word_addr)
            if value is None:
                value = self._uninitialised(word_addr)
            out.append(value)
        return tuple(out)

    # -- checkpointing ------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle without the untouched base image.

        A checkpoint cut pickles the live machine, image included.  The
        base is reproducible from the workload store (about 1 MB at swim
        n=3000), so a still-pending base pickles as a ``True`` marker and
        :meth:`reattach_base` gives it back on resume.
        """
        state = self.__dict__.copy()
        if self._pending is not None:
            state["_pending"] = True
        return state

    def reattach_base(self, source: "MemoryImage") -> None:
        """Give an unpickled image back the base it was cut without.

        ``source`` is an image of the same workload.  If it has already
        thawed its base, its words are that base: the stores it absorbed
        replay generation-time values.
        """
        if self._pending is True:
            words = source._words
            self._pending = (source._pending
                             or (tuple(words), tuple(words.values())))

    def snapshot(self) -> Dict[str, Any]:
        """The words, pending base and counters, for :meth:`restore`.

        A still-pending base is kept by reference (it is never mutated),
        so a snapshot costs a copy of the overlay words only.
        """
        return {"_words": dict(self._words), "_pending": self._pending,
                "heap_lo": self.heap_lo, "heap_hi": self.heap_hi,
                "reads": self.reads, "writes": self.writes}

    def restore(self, state: Dict[str, Any]) -> None:
        """Rewind to a :meth:`snapshot` of this image, in place.

        The pending base comes back as it was: a base thawed since the
        snapshot is pending again, under the snapshot's overlay, and one
        thawed before it stays folded into the words.
        """
        self._pending = state["_pending"]
        self._words.clear()
        self._words.update(state["_words"])
        self.heap_lo, self.heap_hi = state["heap_lo"], state["heap_hi"]
        self.reads, self.writes = state["reads"], state["writes"]

    @contextmanager
    def rewinding(self) -> Iterator["MemoryImage"]:
        """Undo, on leaving the block, whatever it did to this image."""
        saved = self.snapshot()
        try:
            yield self
        finally:
            self.restore(saved)

    def __len__(self) -> int:
        if self._pending is not None:
            self._materialize()
        return len(self._words)

    def __contains__(self, addr: int) -> bool:
        if self._pending is not None:
            self._materialize()
        return self._word_addr(addr) in self._words
