"""The mechanism plug-in interface — MicroLib's module contract.

A *mechanism* is a hardware data-cache optimization packaged as a component
that attaches to one cache level and reacts to that cache's events.  The
contract is deliberately small so that a mechanism written against it can be
"downloaded and plugged in" (the paper's MicroLib vision):

``LEVEL``
    ``"l1"`` or ``"l2"`` — which cache the mechanism attaches to.
``probe(block, time)``
    Called on a miss *before* the next level is consulted.  Return a
    :class:`ProbeResult` when a side structure (victim cache, frequent-value
    cache, Markov prefetch buffer) holds the line, or ``None``.
``on_access(pc, block, hit, was_prefetched, time)``
    Called after every lookup of the attached cache.
``on_miss(pc, block, time)``
    Called after a genuine miss (one that goes to the next level).
``on_refill(block, victim_block, time)``
    Called when a fill installs ``block``, evicting ``victim_block`` (or
    ``None``) — the learning point for correlation prefetchers.
``on_evict(block, dirty, live, time)``
    Called when a victim leaves the cache.  Return ``True`` to *capture* the
    line (victim-cache-style structures), which also transfers writeback
    duty to the mechanism.
``on_prefetch_fill(block, depth, time)``
    Called when one of this mechanism's prefetches lands (lets CDP chase
    pointers transitively).

Prefetches are *emitted* into the mechanism's bounded request queue (sized
per Table 3) via :meth:`Mechanism.emit_prefetch`; the hierarchy drains the
queue onto the appropriate bus.  Every table the mechanism adds to the chip
is declared as a :class:`StructureSpec` so the CACTI-style cost model and
the XCACTI-style power model (Figure 5) can price it; dynamic activity is
recorded with :meth:`Mechanism.count_table_access`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional, TYPE_CHECKING

from repro.kernel.module import Component
from repro.sanitize import SANITIZE, sanitize_failure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.cache import Cache
    from repro.cache.hierarchy import MemoryHierarchy


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a successful side-structure probe.

    ``latency`` is the extra cycles beyond the cache's own latency needed to
    move the line in; ``dirty`` restores the captured line's dirty state.
    """

    latency: int = 1
    dirty: bool = False


@dataclass(frozen=True)
class PrefetchRequest:
    """A queued prefetch: byte address, emission cycle, chase depth."""

    addr: int
    time: int
    depth: int = 0


@dataclass(frozen=True)
class StructureSpec:
    """A hardware table added by a mechanism, for the cost/power models."""

    name: str
    size_bytes: int
    assoc: int = 1
    ports: int = 1


class PrefetchQueue:
    """Bounded FIFO of outstanding prefetch requests (Table 3 sizes).

    When full, new requests are *dropped* — the paper's Section 3.4 shows
    that this single sizing choice (1 vs 128 for TCP) swings per-benchmark
    performance dramatically in both directions.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: Deque[PrefetchRequest] = deque()
        self.pushed = 0
        self.dropped = 0

    def push(self, request: PrefetchRequest) -> bool:
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(request)
        self.pushed += 1
        return True

    def pop(self) -> PrefetchRequest:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def clear(self) -> None:
        self._queue.clear()


class Mechanism(Component):
    """Base class for every data-cache optimization."""

    #: Which cache level the mechanism attaches to: ``"l1"`` or ``"l2"``.
    LEVEL = "l1"
    #: Acronym used in figures/tables (set by subclasses).
    ACRONYM = "?"
    #: Publication year, for the "are we making progress" axis of Figure 4.
    YEAR = 0
    #: Request-queue capacity (Table 3); ``None`` means no prefetch queue.
    QUEUE_SIZE: Optional[int] = None
    #: L1 mechanisms only: when True, prefetches that miss in L2 are dropped
    #: instead of escalating to main memory (a timeliness prefetcher that
    #: hides L2 latency, like TK, never pays DRAM bandwidth).
    PREFETCH_FROM_L2_ONLY = False
    #: True when deliver_prefetch fills a dedicated buffer (Markov) rather
    #: than the cache itself — such fills do not arbitrate for cache MSHRs.
    USES_PREFETCH_BUFFER = False

    def __init__(
        self, name: Optional[str] = None, parent: Optional[Component] = None
    ) -> None:
        super().__init__(name or type(self).__name__.lower(), parent)
        self.cache: Optional["Cache"] = None
        self.hierarchy: Optional["MemoryHierarchy"] = None
        self.queue: Optional[PrefetchQueue] = (
            PrefetchQueue(self.QUEUE_SIZE) if self.QUEUE_SIZE else None
        )
        self.st_table_accesses = self.add_stat(
            "table_accesses", "reads/writes of mechanism tables (power model)"
        )
        self.st_prefetches = self.add_stat("prefetches_emitted")
        self.st_probe_hits = self.add_stat("probe_hits")

    # -- wiring ---------------------------------------------------------------

    def attach(self, cache: "Cache", hierarchy: "MemoryHierarchy") -> None:
        """Bind to a cache level; called once by the hierarchy."""
        if self.cache is not None:
            raise RuntimeError(f"{self.path} already attached")
        self.cache = cache
        self.hierarchy = hierarchy
        cache.mechanism = self

    # -- hooks (no-op defaults) --------------------------------------------------

    def probe(self, block: int, time: int) -> Optional[ProbeResult]:
        return None

    def on_access(
        self, pc: int, block: int, hit: bool, was_prefetched: bool, time: int
    ) -> None:
        pass

    def on_miss(self, pc: int, block: int, time: int) -> None:
        pass

    def on_refill(
        self,
        block: int,
        victim_block: Optional[int],
        time: int,
        prefetched: bool = False,
    ) -> None:
        pass

    def on_evict(self, block: int, dirty: bool, live: bool, time: int) -> bool:
        return False

    def on_prefetch_fill(self, block: int, depth: int, time: int) -> None:
        pass

    # -- services for subclasses ---------------------------------------------------

    def iter_queues(self) -> Iterator[PrefetchQueue]:
        """All prefetch queues this mechanism owns (composites override)."""
        if self.queue is not None:
            yield self.queue

    def emit_prefetch(self, addr: int, time: int, depth: int = 0) -> bool:
        """Queue a prefetch for byte address ``addr``; False when dropped."""
        if self.queue is None:
            raise RuntimeError(f"{self.path} declares no prefetch queue")
        if SANITIZE and (addr < 0 or time < 0 or depth < 0):
            raise sanitize_failure(
                f"{self.path}: emit_prefetch(addr={addr}, time={time}, "
                f"depth={depth}) has a negative field"
            )
        accepted = self.queue.push(PrefetchRequest(addr, time, depth))
        if accepted:
            self.st_prefetches.add()
        return accepted

    def count_table_access(self, n: int = 1) -> None:
        """Record ``n`` mechanism-table accesses for the power model."""
        self.st_table_accesses.add(n)

    def deliver_prefetch(self, addr: int, ready: int, time: int) -> bool:
        """Install a completed prefetch.

        The default inserts the line into the attached cache; mechanisms
        with a dedicated prefetch buffer (Markov) override this to fill the
        buffer instead.  Returns False when the line was already resident.
        """
        if self.cache is None:
            raise RuntimeError(f"{self.path} not attached")
        return self.cache.insert_prefetch(addr, ready, time)

    # -- cost model ------------------------------------------------------------

    def structures(self) -> List[StructureSpec]:
        """Hardware tables this mechanism adds (empty for the baseline)."""
        return []

    # -- introspection ------------------------------------------------------------

    @property
    def useful_prefetches(self) -> float:
        """Demand hits on lines this mechanism prefetched."""
        if self.cache is None:
            return 0.0
        return self.cache.st_useful_prefetches.value
