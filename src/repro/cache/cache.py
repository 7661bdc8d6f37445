"""Set-associative cache with MSHRs, ports and a stalling tag pipeline.

This is the MicroLib cache model of Section 2.2.  The four behaviours that
distinguish it from SimpleScalar's cache — and that the paper shows account
for most of the 6.8% average IPC difference — are all implemented and all
switchable via ``precise`` / ``infinite_mshr``:

1. the MSHR has finite capacity (8 entries x 4 merged reads);
2. the tag pipeline can stall (a second miss to an in-flight line whose
   merge budget is spent, and the one-cycle MSHR-allocation bubble, both
   delay subsequent requests);
3. back-pressure reaches the LSQ (a stalled pipeline pushes every later
   request's grant time out, which the core observes);
4. refills consume real ports (with ``ports=2``, a refill cycle admits only
   one demand access).

A *mechanism* (see :mod:`repro.mechanisms.base`) may be attached to a cache;
the cache invokes its hooks at well-defined points: ``probe`` on a miss
(victim-cache-style side structures), ``on_access`` after every lookup,
``on_miss`` after a genuine miss, ``on_refill`` when a fill completes (with
the victim, for correlation learners), ``on_evict`` when a victim is
discarded (return ``True`` to capture the line and its writeback duty).

Tag-store layout
----------------
Line metadata lives in four flat parallel lists indexed by
``set * assoc + way`` — ``_tags`` (block number, ``-1`` invalid),
``_ready``, ``_touch`` and ``_flags`` (bit 0 dirty, bit 1 prefetched) —
instead of per-line objects.  Within a set's slice, valid ways are packed
at the front in MRU→LRU order, so a probe is one compare (direct-mapped)
or a C-level scan of the set's slice, and an LRU promotion is a slice
rotation.  :class:`CacheLine` is a write-through *view* of one slot, which
keeps the ``peek``/``insert_prefetch``/``evict_block`` API (and every
mechanism built on it) unchanged.

The miss path
-------------
A miss makes one MSHR expiry sweep (:meth:`MSHRFile.lookup`), builds no
per-fill object (:meth:`Cache._install` takes the new line's flags) and
raises no exception.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.core.config import CacheConfig
from repro.hotpath import hotpath
from repro.kernel.module import Component
from repro.kernel.resources import MultiPortResource, PipelinedResource
from repro.cache.mshr import MSHRFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mechanisms.base import Mechanism

#: ``_flags`` bits.
DIRTY = 1
PREFETCHED = 2

#: ``_tags`` sentinel for an empty way.
INVALID = -1

#: Window (cycles) within which an evicted line counts as "live"; matches
#: the TK threshold of Table 3.
LIVENESS_WINDOW = 1023


class CacheLine:
    """Write-through view of one resident line in the flat tag store.

    ``ready`` > now means the fill is still in flight.  The view reads and
    writes the cache's parallel metadata lists directly, so mechanisms that
    mutate a peeked line (e.g. eager writeback clearing ``dirty``) behave
    exactly as they did with per-line objects.  Views are positional: use
    them promptly, before another access reorders the set.
    """

    __slots__ = ("_cache", "_slot")

    def __init__(self, cache: "Cache", slot: int) -> None:
        self._cache = cache
        self._slot = slot

    @property
    def tag(self) -> int:
        return self._cache._tags[self._slot]

    @property
    def ready(self) -> int:
        return self._cache._ready[self._slot]

    @ready.setter
    def ready(self, value: int) -> None:
        self._cache._ready[self._slot] = value

    @property
    def last_touch(self) -> int:
        return self._cache._touch[self._slot]

    @last_touch.setter
    def last_touch(self, value: int) -> None:
        self._cache._touch[self._slot] = value

    @property
    def dirty(self) -> bool:
        return bool(self._cache._flags[self._slot] & DIRTY)

    @dirty.setter
    def dirty(self, value: bool) -> None:
        flags = self._cache._flags
        if value:
            flags[self._slot] |= DIRTY
        else:
            flags[self._slot] &= ~DIRTY

    @property
    def prefetched(self) -> bool:
        return bool(self._cache._flags[self._slot] & PREFETCHED)

    @prefetched.setter
    def prefetched(self, value: bool) -> None:
        flags = self._cache._flags
        if value:
            flags[self._slot] |= PREFETCHED
        else:
            flags[self._slot] &= ~PREFETCHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CacheLine tag={self.tag} ready={self.ready} "
                f"dirty={self.dirty} prefetched={self.prefetched}>")


# Fetch callback signature: (byte_addr, time, pc, is_prefetch) -> ready time.
FetchFn = Callable[[int, int, int, bool], int]
# Writeback callback signature: (byte_addr, time) -> None.
WritebackFn = Callable[[int, int], None]


class Cache(Component):
    """A single cache level (L1 data or unified L2)."""

    def __init__(
        self,
        config: CacheConfig,
        precise: bool = True,
        infinite_mshr: bool = False,
        name: Optional[str] = None,
        parent: Optional[Component] = None,
    ):
        super().__init__(name or config.name, parent)
        self.config = config
        self.precise = precise
        line = config.line_size
        if line & (line - 1):
            raise ValueError(f"line size must be a power of two, got {line}")
        self.line_bits = line.bit_length() - 1
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._set_mask = self.n_sets - 1
        n_slots = self.n_sets * self.assoc
        self._tags: List[int] = [INVALID] * n_slots
        self._ready: List[int] = [0] * n_slots
        self._touch: List[int] = [0] * n_slots
        self._flags: List[int] = [0] * n_slots
        self.ports = MultiPortResource(config.ports)
        self.pipeline = PipelinedResource(1)
        mshr_capacity = None if infinite_mshr else config.mshr_entries
        self.mshr = MSHRFile(mshr_capacity, config.mshr_reads)
        self.mechanism: Optional["Mechanism"] = None
        self.fetch_next: Optional[FetchFn] = None
        self.writeback_next: Optional[WritebackFn] = None

        self.st_reads = self.add_stat("reads")
        self.st_writes = self.add_stat("writes")
        self.st_read_misses = self.add_stat("read_misses")
        self.st_write_misses = self.add_stat("write_misses")
        self.st_writebacks = self.add_stat("writebacks")
        self.st_evictions = self.add_stat("evictions")
        self.st_prefetch_fills = self.add_stat("prefetch_fills")
        self.st_useful_prefetches = self.add_stat(
            "useful_prefetches", "demand hits on prefetched lines"
        )
        self.st_aux_hits = self.add_stat(
            "aux_hits", "misses satisfied by an attached side structure"
        )

    # -- address helpers -----------------------------------------------------

    def block_of(self, addr: int) -> int:
        return addr >> self.line_bits

    def addr_of(self, block: int) -> int:
        return block << self.line_bits

    def _set_index(self, block: int) -> int:
        return block & self._set_mask

    # -- lookup without side effects ------------------------------------------

    def _find(self, block: int) -> int:
        """Slot index of ``block``'s line, or -1 when not resident."""
        assoc = self.assoc
        base = (block & self._set_mask) * assoc
        if assoc == 1:
            return base if self._tags[base] == block else -1
        ways = self._tags[base:base + assoc]
        return base + ways.index(block) if block in ways else -1

    def peek(self, addr: int) -> Optional[CacheLine]:
        """Return the resident line for ``addr`` without touching LRU state."""
        slot = self._find(addr >> self.line_bits)
        if slot < 0:
            return None
        return CacheLine(self, slot)

    def contains(self, addr: int) -> bool:
        return self._find(addr >> self.line_bits) >= 0

    # -- the access path -------------------------------------------------------

    @hotpath
    def access(self, pc: int, addr: int, time: int, is_write: bool) -> int:
        """Perform a demand access; return the cycle the data is available.

        For writes the returned time is when the line is owned and dirty;
        the core does not wait on it (write buffer) but the traffic is real.
        """
        block = addr >> self.line_bits
        assoc = self.assoc
        base = (block & self._set_mask) * assoc
        if self.precise:
            t = self.pipeline.acquire(time)
            t = self.ports.acquire(t)
        else:
            t = self.ports.acquire(time)
        if is_write:
            self.st_writes.value += 1
        else:
            self.st_reads.value += 1

        tags = self._tags
        # Instruction-side traffic (pc == -1) shares the unified L2 but is
        # invisible to the attached *data*-cache mechanism, as in the
        # original study's wrappers.
        mech = self.mechanism if pc != -1 else None
        # _find inlined.  A miss decides by compare (direct-mapped) or by
        # a scan of the set's slice: a list.index miss raises ValueError,
        # which costs more than the rest of the probe.
        if assoc == 1:
            slot = base if tags[base] == block else -1
        else:
            ways = tags[base:base + assoc]
            slot = base + ways.index(block) if block in ways else -1
        if slot >= 0:
            ready_arr = self._ready
            touch = self._touch
            flags = self._flags
            if slot != base:
                # Promote to MRU: rotate the set's slice one slot right.
                line_ready = ready_arr[slot]
                line_flags = flags[slot]
                tags[base + 1:slot + 1] = tags[base:slot]
                tags[base] = block
                ready_arr[base + 1:slot + 1] = ready_arr[base:slot]
                ready_arr[base] = line_ready
                touch[base + 1:slot + 1] = touch[base:slot]
                flags[base + 1:slot + 1] = flags[base:slot]
                flags[base] = line_flags
            else:
                line_ready = ready_arr[base]
                line_flags = flags[base]
            was_prefetched = line_flags & PREFETCHED
            if was_prefetched:
                line_flags &= ~PREFETCHED
                self.st_useful_prefetches.value += 1
            if is_write:
                line_flags |= DIRTY
            flags[base] = line_flags
            touch[base] = t
            ready = t + self.config.latency
            if line_ready > ready:
                ready = line_ready
            if mech is not None:
                mech.on_access(pc, block, True, bool(was_prefetched), t)
            return ready

        # Miss.  Give the mechanism's side structure a chance first.
        if is_write:
            self.st_write_misses.value += 1
        else:
            self.st_read_misses.value += 1
        latency = self.config.latency
        if mech is not None:
            mech.on_access(pc, block, False, False, t)
            probe = mech.probe(block, t)
            if probe is not None:
                self.st_aux_hits.value += 1
                ready = t + latency + probe.latency
                self._install(block, ready,
                              DIRTY if probe.dirty or is_write else 0, mech)
                return ready

        # In-flight fill for this block?  (The miss's one MSHR sweep.)
        mshr = self.mshr
        rejects_before = mshr.merge_rejects
        merged_ready = mshr.lookup(block, t)
        if merged_ready is not None:
            if self.precise and mshr.merge_rejects > rejects_before:
                # A same-line miss past the merge budget stalls the cache
                # until the fill returns (Section 2.2, first bullet).
                self.pipeline.stall_until(merged_ready)
            ready = t + latency
            if merged_ready > ready:
                ready = merged_ready
            # The merged read sees the line once filled; mark dirty on write.
            if is_write:
                filled = self._find(block)
                if filled >= 0:
                    self._flags[filled] |= DIRTY
            return ready

        # Genuine miss: allocate an MSHR (may stall when full) and fetch.
        alloc_t = mshr.allocate_time(t)
        if self.precise:
            # Stall until the entry frees, plus "upon receiving a request
            # the MSHR is not available for one cycle" — the allocation
            # bubble.  One stall to alloc_t + 1 covers both.
            self.pipeline.stall_until(alloc_t + 1)
        fetch_next = self.fetch_next
        if fetch_next is None:
            raise RuntimeError(f"{self.path}: no next level bound")
        fill_ready = fetch_next(
            block << self.line_bits, alloc_t + latency, pc, False
        )
        mshr.insert(block, fill_ready)
        # Instruction fills (pc == -1, so mech is None) run no hooks.
        self._install(block, fill_ready, DIRTY if is_write else 0, mech)
        if mech is not None:
            mech.on_miss(pc, block, alloc_t)
        return fill_ready

    # -- fills ---------------------------------------------------------------

    def can_accept_prefetch(self, time: int) -> bool:
        """True when an MSHR entry is free for a prefetch fill at ``time``.

        Checked *before* the prefetch pays for bus and DRAM bandwidth: a
        real prefetcher arbitrates for an MSHR at issue, not at fill.
        """
        return (
            self.mshr.capacity is None
            or self.mshr.occupancy(time) < self.mshr.capacity
        )

    @hotpath
    def insert_prefetch(self, addr: int, ready: int, time: int) -> bool:
        """Install a prefetched line (fill completes at ``ready``).

        Returns False (and does nothing) when the block is already resident,
        or when every MSHR is busy with demand misses — a real machine drops
        the prefetch rather than stall for it.  (With the SimpleScalar-style
        infinite MSHR, prefetches are never dropped — one of the ways the
        imprecise model flatters prefetchers, Figure 9.)
        """
        block = addr >> self.line_bits
        if self._find(block) >= 0:
            return False
        if (
            self.mshr.capacity is not None
            and self.mshr.occupancy(time) >= self.mshr.capacity
        ):
            return False
        self.mshr.insert(block, ready)
        self.st_prefetch_fills.value += 1
        self._install(block, ready, PREFETCHED, self.mechanism)
        return True

    @hotpath
    def _install(self, block: int, ready: int, line_flags: int,
                 mechanism: Optional["Mechanism"]) -> None:
        """Insert ``block`` at MRU with ``line_flags``, evicting the LRU victim.

        ``mechanism`` is the one whose ``on_evict``/``on_refill`` hooks
        run, or None (instruction fills run none).  The new line's flags
        are in place before ``on_refill`` runs.
        """
        assoc = self.assoc
        base = (block & self._set_mask) * assoc
        limit = base + assoc
        last = limit - 1
        tags = self._tags
        ready_arr = self._ready
        touch = self._touch
        flags = self._flags
        victim_block = None
        if tags[last] != INVALID:
            # Set full: the LRU way (packed last) is the victim.  Remove it
            # before the hooks run, exactly as the list model popped it.
            victim_tag = tags[last]
            victim_dirty = flags[last] & DIRTY
            victim_touch = touch[last]
            tags[last] = INVALID
            end = last
            victim_block = victim_tag
            self.st_evictions.value += 1
            captured = False
            if mechanism is not None:
                live = (ready - victim_touch) < LIVENESS_WINDOW
                captured = mechanism.on_evict(
                    victim_tag, bool(victim_dirty), live, ready
                )
            if victim_dirty and not captured:
                self.st_writebacks.value += 1
                if self.writeback_next is not None:
                    self.writeback_next(victim_tag << self.line_bits, ready)
        else:
            end = tags.index(INVALID, base, limit)
        if self.precise:
            # The refill consumes a real port cycle when it arrives.
            self.ports.acquire(ready)
        if end != base:
            # Shift the set's valid ways one slot toward LRU.
            tags[base + 1:end + 1] = tags[base:end]
            ready_arr[base + 1:end + 1] = ready_arr[base:end]
            touch[base + 1:end + 1] = touch[base:end]
            flags[base + 1:end + 1] = flags[base:end]
        tags[base] = block
        ready_arr[base] = ready
        touch[base] = ready
        flags[base] = line_flags
        if mechanism is not None:
            mechanism.on_refill(block, victim_block, ready,
                                bool(line_flags & PREFETCHED))

    # -- maintenance -----------------------------------------------------------

    def _remove(self, slot: int) -> None:
        """Drop the line at ``slot``, keeping the set's valid ways packed."""
        assoc = self.assoc
        limit = (slot // assoc) * assoc + assoc
        last = limit - 1
        for arr in (self._tags, self._ready, self._touch, self._flags):
            arr[slot:last] = arr[slot + 1:limit]
        self._tags[last] = INVALID
        self._flags[last] = 0

    def evict_block(self, block: int, time: int) -> bool:
        """Evict ``block`` now (with writeback if dirty); True if resident.

        Used by timekeeping-style mechanisms that reclaim a predicted-dead
        line's frame for a prefetch instead of displacing a live LRU victim.
        """
        slot = self._find(block)
        if slot < 0:
            return False
        dirty = self._flags[slot] & DIRTY
        self._remove(slot)
        self.st_evictions.value += 1
        captured = False
        if self.mechanism is not None:
            captured = self.mechanism.on_evict(block, bool(dirty), False, time)
        if dirty and not captured:
            self.st_writebacks.value += 1
            if self.writeback_next is not None:
                self.writeback_next(block << self.line_bits, time)
        return True

    def invalidate(self, addr: int) -> None:
        """Drop the line for ``addr`` if resident (no writeback)."""
        slot = self._find(addr >> self.line_bits)
        if slot >= 0:
            self._remove(slot)

    def resident_blocks(self) -> List[int]:
        """All resident block numbers (test/debug helper)."""
        return [tag for tag in self._tags if tag != INVALID]

    @property
    def _sets(self) -> List[List[CacheLine]]:
        """Per-set line views, MRU→LRU (test/debug compatibility helper)."""
        tags = self._tags
        assoc = self.assoc
        return [
            [
                CacheLine(self, slot)
                for slot in range(base, base + assoc)
                if tags[slot] != INVALID
            ]
            for base in range(0, self.n_sets * assoc, assoc)
        ]

    @property
    def miss_rate(self) -> float:
        accesses = self.st_reads.value + self.st_writes.value
        if not accesses:
            return 0.0
        misses = self.st_read_misses.value + self.st_write_misses.value
        return misses / accesses

    def reset(self) -> None:
        n_slots = self.n_sets * self.assoc
        # In-place so long-lived references to the metadata lists (e.g. the
        # trace-speculation guards in repro.cpu.fastpath) stay valid.
        self._tags[:] = [INVALID] * n_slots
        self._ready[:] = [0] * n_slots
        self._touch[:] = [0] * n_slots
        self._flags[:] = [0] * n_slots
        self.ports.reset()
        self.pipeline.reset()
        self.mshr.reset()
        self.reset_stats()
