"""The two-level memory hierarchy of Table 1.

Wires together the L1 data cache, the unified L2, the 32-byte L1/L2 bus, the
64-byte 400 MHz memory bus, and one of the three main-memory models.  At
most one mechanism is attached per run (as in the paper's study); it lands
on L1 or L2 according to its ``LEVEL``.

Prefetch draining
-----------------
Mechanisms emit prefetches into their bounded request queue.  The hierarchy
drains the queue at every demand access: each queued prefetch seizes the
appropriate bus (L1/L2 bus for L1 mechanisms, the memory bus for L2
mechanisms) in FIFO order with demand traffic.  This is exactly the
contention channel through which the paper's SDRAM experiment (Figure 8)
punishes bandwidth-hungry prefetchers, and through which an over-large
prefetch queue "will seize the bus whenever it is available, increasing the
probability that normal miss requests are delayed" (Section 3.4, the
``lucas``/TCP discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.cache import Cache
from repro.core.config import (
    MEMORY_CONSTANT,
    MEMORY_SDRAM,
    MEMORY_SDRAM_FAST,
    MachineConfig,
    sdram70_config,
)
from repro.dram.constant import ConstantLatencyMemory
from repro.dram.controller import SDRAMController
from repro.hotpath import hotpath
from repro.kernel.engine import Simulator
from repro.kernel.module import Component
from repro.kernel.resources import Bus
from repro.mechanisms.base import Mechanism
from repro.obs.tracing import TRACER
from repro.sanitize import SANITIZE, sanitize_failure


@dataclass(frozen=True)
class AccessResult:
    """Where a probe would be satisfied (debug/teaching helper)."""

    level: str  # "l1" | "l2" | "memory"


class MemoryHierarchy(Component):
    """L1D + unified L2 + buses + main memory, with one optional mechanism."""

    def __init__(
        self,
        config: MachineConfig,
        mechanism: Optional[Mechanism] = None,
        image=None,
        name: str = "memory",
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.config = config
        self.image = image
        self.sim = Simulator()

        self.l1d = Cache(
            config.l1d,
            precise=config.precise_cache,
            infinite_mshr=config.infinite_mshr,
            parent=self,
        )
        self.l1i = Cache(
            config.l1i,
            precise=config.precise_cache,
            infinite_mshr=config.infinite_mshr,
            parent=self,
        )
        self.l2 = Cache(
            config.l2,
            precise=config.precise_cache,
            infinite_mshr=config.infinite_mshr,
            parent=self,
        )
        # Split-transaction buses: a one-cycle command/address channel and a
        # width-limited data-return channel.  An in-flight refill therefore
        # blocks the *data* channel only, not new requests.
        self.l1_l2_bus = Bus(config.l1_l2_bus.cpu_cycles_per_transfer)
        self.l1_l2_cmd = Bus(1)
        self.memory_bus = Bus(config.memory_bus.cpu_cycles_per_transfer)
        self.memory_cmd = Bus(1)

        self.l1d.fetch_next = self._fetch_from_l2
        self.l1d.writeback_next = self._writeback_to_l2
        # Instructions are read-only: fills from the unified L2, no
        # writebacks, and no mechanism slot (the study is data caches).
        self.l1i.fetch_next = self._fetch_from_l2
        self.l1i.writeback_next = None

        # The memory model is chosen here, once: the L2 is wired straight
        # to that model's plumbing.  ``throttle`` is how many controller
        # request slots an L2 prefetch may find busy and still issue
        # (see _drain_prefetches); constant memory has no queue.
        if config.memory_model in (MEMORY_SDRAM, MEMORY_SDRAM_FAST):
            sdram = (config.sdram if config.memory_model == MEMORY_SDRAM
                     else sdram70_config())
            self.memory = SDRAMController(
                sdram, scheme=config.dram_interleave,
                page_policy=config.dram_page_policy, parent=self,
            )
            self.l2.fetch_next = self._fetch_from_sdram
            self.l2.writeback_next = self._writeback_to_sdram
            throttle = (sdram.queue_entries * 3) // 4
        elif config.memory_model == MEMORY_CONSTANT:
            self.memory = ConstantLatencyMemory(
                config.constant_memory_latency, parent=self
            )
            self.l2.fetch_next = self._fetch_from_constant
            self.l2.writeback_next = self._writeback_to_constant
            throttle = None
        else:
            raise ValueError(f"unknown memory model {config.memory_model!r}")
        self._throttle_limit = throttle if config.prefetch_throttle else None

        self.mechanism = mechanism
        if mechanism is not None:
            target = self.l1d if mechanism.LEVEL == "l1" else self.l2
            mechanism.attach(target, self)
            if mechanism.parent is None:
                self.children.append(mechanism)
                mechanism.parent = self
        # Raw deques behind the mechanism's prefetch queues.  They are
        # created at mechanism construction and never replaced, so advance()
        # can gate the whole drain call on their truthiness instead of
        # paying a generator walk per demand access.
        self._mech_queues = (
            tuple(q._queue for q in mechanism.iter_queues())
            if mechanism is not None else ()
        )

        self.st_loads = self.add_stat("loads")
        self.st_stores = self.add_stat("stores")
        self.st_prefetches_issued = self.add_stat("prefetches_issued")
        self.st_prefetches_redundant = self.add_stat(
            "prefetches_redundant", "prefetches for already-resident lines"
        )
        # Bus accounting mirrored into StatCounters at end of run (see
        # finalize_stats) so stats_report — and through it every
        # RunResult's stats — sees the bus traffic.
        self.st_l1_l2_bus_busy = self.add_stat(
            "l1_l2_bus_busy_cycles", "cycles the L1/L2 data bus was seized"
        )
        self.st_l1_l2_bus_transfers = self.add_stat("l1_l2_bus_transfers")
        self.st_memory_bus_busy = self.add_stat(
            "memory_bus_busy_cycles", "cycles the memory data bus was seized"
        )
        self.st_memory_bus_transfers = self.add_stat("memory_bus_transfers")

        #: Sanitizer freeze fingerprint: the frozen MachineConfig's repr is
        #: deterministic, so any post-construction mutation (a back door
        #: around frozen=True, e.g. object.__setattr__) is detectable at
        #: run end by sanitize_verify().
        self._config_fingerprint = repr(config) if SANITIZE else None

    # -- demand interface (called by the core) ------------------------------------

    @hotpath
    def load(self, pc: int, addr: int, time: int) -> int:
        """Issue a load; return the cycle its data is ready."""
        # advance()'s clock drive inlined for when there is nothing to
        # bring up to ``time``: no event due, no prefetch queue.
        sim = self.sim
        if self._mech_queues or (sim._times and sim._times[0] <= time):
            self.advance(time)
        elif time > sim.now:
            sim.now = time
        self.st_loads.value += 1
        return self.l1d.access(pc, addr, time, False)

    #: Sentinel PC marking instruction-side traffic: the data-cache
    #: mechanisms of the study never see it (their wrappers sat on the
    #: data path), even though the unified L2 carries it.
    INSTRUCTION_PC = -1

    @hotpath
    def fetch_instruction(self, pc: int, time: int) -> int:
        """Front-end fetch of the line holding ``pc``; return ready cycle."""
        sim = self.sim  # as in load()
        if self._mech_queues or (sim._times and sim._times[0] <= time):
            self.advance(time)
        elif time > sim.now:
            sim.now = time
        return self.l1i.access(self.INSTRUCTION_PC, pc, time, False)

    @hotpath
    def store(self, pc: int, addr: int, value: int, time: int) -> int:
        """Issue a store (post-commit, from the write buffer)."""
        sim = self.sim  # as in load()
        if self._mech_queues or (sim._times and sim._times[0] <= time):
            self.advance(time)
        elif time > sim.now:
            sim.now = time
        self.st_stores.value += 1
        if self.image is not None:
            self.image.write(addr, value)
        return self.l1d.access(pc, addr, time, True)

    def advance(self, time: int) -> None:
        """Bring deferred work (decay events, queued prefetches) up to ``time``.

        This runs once per demand access, so it reads the kernel's bucket
        heap directly (``run_until`` skips cancelled buckets itself) and
        only enters the drain routine when some prefetch queue is
        non-empty.  The demand entry points call it only when there is
        deferred work to bring up: a due event, or a mechanism with
        prefetch queues.  Otherwise they just drive the clock.
        """
        sim = self.sim
        times = sim._times
        if times and times[0] <= time:
            sim.run_until(time)
        elif time > sim.now:
            sim.now = time
        for queue in self._mech_queues:
            if queue:
                self._drain_prefetches(self.mechanism, time)
                break

    # -- inter-level plumbing ---------------------------------------------------
    #
    # One function per hop, bound into the caches' fetch_next/writeback_next
    # at construction.  A fill is a command grant, the next level's access
    # and a data grant, with nothing decided per call.

    @hotpath
    def _fetch_from_l2(self, addr: int, time: int, pc: int, is_prefetch: bool) -> int:
        """L1 miss: command to L2, L2 access, data back over the data bus."""
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("cache.l1_fill", cat="cache")
        ready = self.l2.access(pc, addr, self.l1_l2_cmd.acquire(time), False)
        arrival = self.l1_l2_bus.acquire(ready)
        if tracing:
            TRACER.end(cycles=arrival - time, prefetch=is_prefetch)
        return arrival

    @hotpath
    def _writeback_to_l2(self, addr: int, time: int) -> None:
        """Dirty L1 victim: one data-bus transfer, then an L2 write access."""
        self.l2.access(0, addr, self.l1_l2_bus.acquire(time), True)

    @hotpath
    def _fetch_from_sdram(self, addr: int, time: int, pc: int, is_prefetch: bool) -> int:
        """L2 miss: command over the memory bus, DRAM, data return transfer."""
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("cache.l2_fill", cat="cache")
        ready = self.memory.access(addr, self.memory_cmd.acquire(time))
        arrival = self.memory_bus.acquire(ready)
        if tracing:
            TRACER.end(cycles=arrival - time, prefetch=is_prefetch)
        return arrival

    @hotpath
    def _writeback_to_sdram(self, addr: int, time: int) -> None:
        self.memory.access(addr, self.memory_bus.acquire(time), True)

    @hotpath
    def _fetch_from_constant(self, addr: int, time: int, pc: int, is_prefetch: bool) -> int:
        """L2 miss on SimpleScalar-style memory: fixed latency, no buses."""
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("cache.l2_fill", cat="cache")
        arrival = self.memory.access(addr, time)
        if tracing:
            TRACER.end(cycles=arrival - time, prefetch=is_prefetch)
        return arrival

    @hotpath
    def _writeback_to_constant(self, addr: int, time: int) -> None:
        self.memory.access(addr, time, True)

    # -- prefetch issue ------------------------------------------------------------

    def _drain_prefetches(self, mech: Mechanism, time: int) -> None:
        """Issue queued prefetches while the target bus is idle.

        Prefetches wait in their queue "until the bus is idle and a request
        can be sent" (Section 3.4): an L2 prefetch issues only while the
        memory controller has comfortable headroom (under three quarters of
        its 32 request slots in flight), at most a few per drain.  A
        congested memory system leaves the remainder queued for the next
        drain; a full queue meanwhile drops new requests.
        """
        throttle = None
        limit = self._throttle_limit
        if limit is not None and mech.LEVEL == "l2":
            throttle = lambda: self.memory.occupancy(time) >= limit
        budget = 4
        drained = 0
        for queue in mech.iter_queues():
            if SANITIZE and len(queue) > queue.capacity:
                raise sanitize_failure(
                    f"{mech.path}: prefetch queue holds {len(queue)} entries, "
                    f"capacity {queue.capacity} (Table 3 bound violated)"
                )
            while queue and budget:
                if throttle is not None and throttle():
                    budget = 0
                    break
                budget -= 1
                request = queue.pop()
                drained += 1
                if mech.LEVEL == "l2":
                    self._issue_l2_prefetch(mech, request.addr, time, request.depth)
                else:
                    self._issue_l1_prefetch(mech, request.addr, time, request.depth)
        if drained and TRACER.enabled:
            TRACER.instant("cache.prefetch_drain", cat="cache",
                           drained=drained, cycle=time)

    def _issue_l2_prefetch(self, mech: Mechanism, addr: int, time: int, depth: int) -> None:
        if self.l2.contains(addr) or not self.l2.can_accept_prefetch(time):
            self.st_prefetches_redundant.add()
            return
        ready = self.l2.fetch_next(addr, time, 0, True)
        if mech.deliver_prefetch(addr, ready, time):
            self.st_prefetches_issued.add()
            mech.on_prefetch_fill(self.l2.block_of(addr), depth, ready)
        else:
            self.st_prefetches_redundant.add()

    def _issue_l1_prefetch(self, mech: Mechanism, addr: int, time: int, depth: int) -> None:
        if self.l1d.contains(addr):
            self.st_prefetches_redundant.add()
            return
        if mech.PREFETCH_FROM_L2_ONLY and not self.l2.contains(addr):
            self.st_prefetches_redundant.add()
            return
        if not mech.USES_PREFETCH_BUFFER and not self.l1d.can_accept_prefetch(time):
            self.st_prefetches_redundant.add()
            return
        ready = self._fetch_from_l2(addr, time, 0, True)
        if mech.deliver_prefetch(addr, ready, time):
            self.st_prefetches_issued.add()
            mech.on_prefetch_fill(self.l1d.block_of(addr), depth, ready)
        else:
            self.st_prefetches_redundant.add()

    # -- end-of-run accounting -----------------------------------------------------

    def finalize_stats(self) -> None:
        """Mirror bus counters into StatCounters before reporting.

        The buses are deliberately bare (no Component machinery on the
        per-transfer path); run_trace calls this once at end of run so
        ``stats_report()`` — and through it the run's ``RunResult.stats``
        — still sees the traffic.  Idempotent.
        """
        self.st_l1_l2_bus_busy.value = self.l1_l2_bus.busy_cycles
        self.st_l1_l2_bus_transfers.value = self.l1_l2_bus.transfers
        self.st_memory_bus_busy.value = self.memory_bus.busy_cycles
        self.st_memory_bus_transfers.value = self.memory_bus.transfers

    # -- sanitizer -----------------------------------------------------------------

    def sanitize_verify(self) -> None:
        """End-of-run invariant sweep (no-op unless ``REPRO_SANITIZE=1``).

        Checks that the frozen config was never mutated behind the
        hierarchy's back, that the mechanism wiring is still reciprocal,
        and that every prefetch queue respects its declared capacity.
        """
        if self._config_fingerprint is None:
            return
        if repr(self.config) != self._config_fingerprint:
            raise sanitize_failure(
                "MachineConfig mutated after hierarchy construction; the "
                "RunSpec content hash no longer describes this run"
            )
        mech = self.mechanism
        if mech is not None:
            target = self.l1d if mech.LEVEL == "l1" else self.l2
            if mech.cache is not target or target.mechanism is not mech:
                raise sanitize_failure(
                    f"{mech.path}: attach wiring is not reciprocal with "
                    f"{target.path}"
                )
            for queue in mech.iter_queues():
                if len(queue) > queue.capacity:
                    raise sanitize_failure(
                        f"{mech.path}: prefetch queue holds {len(queue)} "
                        f"entries, capacity {queue.capacity}"
                    )

    # -- introspection -------------------------------------------------------------

    def classify(self, addr: int) -> AccessResult:
        """Which level currently holds ``addr`` (no state change)."""
        if self.l1d.contains(addr):
            return AccessResult("l1")
        if self.l2.contains(addr):
            return AccessResult("l2")
        return AccessResult("memory")

    def read_line_values(self, addr: int, line_size: int):
        """Words of the line containing ``addr`` from the functional image."""
        if self.image is None:
            return ()
        line_addr = addr & ~(line_size - 1)
        return self.image.read_line(line_addr, line_size)

    def reset(self) -> None:
        self.sim.reset()
        self.l1d.reset()
        self.l1i.reset()
        self.l2.reset()
        for bus in (self.l1_l2_bus, self.l1_l2_cmd, self.memory_bus,
                    self.memory_cmd):
            bus.reset()
        self.memory.reset()
        self.reset_stats()
