"""Timestamp-algebra resource primitives.

A *resource* here is anything with limited per-cycle throughput: cache ports,
the cache tag pipeline, the L1/L2 bus, the memory bus, a DRAM bank, a pool of
functional units.  Instead of simulating each cycle, a resource records when
it is next free and answers *acquire* requests with the cycle at which the
request is actually granted.  Provided requests are presented in
(approximately) nondecreasing time order — which the in-order trace drive
guarantees — this reproduces the same schedules a per-cycle model would
produce, at a tiny fraction of the cost.
"""

from __future__ import annotations

from typing import Dict


class MultiPortResource:
    """``n_ports`` identical ports, each usable once per cycle.

    Models cache read/write ports and functional-unit pools: with 4 ports,
    four requests are granted in the same cycle and the fifth slips to the
    next cycle.

    Grants are tracked in a sparse per-cycle ledger rather than a next-free
    heap, because requests do *not* arrive in time order: an out-of-order
    core issues younger instructions early, and cache refills reserve their
    port at a future completion cycle.  A future reservation must consume
    exactly its own cycle — never block an earlier request — which a
    next-free-time representation cannot express.

    >>> ports = MultiPortResource(2)
    >>> [ports.acquire(10) for _ in range(3)]
    [10, 10, 11]
    >>> ports.acquire(100)  # future reservation...
    100
    >>> ports.acquire(11)   # ...does not block earlier cycles
    11
    """

    __slots__ = ("n_ports", "_ledger", "grants", "_floor")

    #: Ledger entries older than this many grants trigger a prune sweep.
    _PRUNE_EVERY = 8192

    def __init__(self, n_ports: int, hold: int = 1) -> None:
        if n_ports < 1:
            raise ValueError(f"need at least one port, got {n_ports}")
        if hold != 1:
            raise ValueError("only single-cycle port occupancy is supported")
        self.n_ports = n_ports
        self._ledger: Dict[int, int] = {}
        self.grants = 0
        self._floor = 0  # cycles below this are assumed fully drained

    def acquire(self, time: int) -> int:
        """Reserve a port at or after ``time``; return the granted cycle."""
        ledger = self._ledger
        grant = time if time > self._floor else self._floor
        count = ledger.get(grant)
        if count is None:
            # Untouched cycle — the common case on the hot path: one dict
            # probe, one store.
            ledger[grant] = 1
        else:
            n = self.n_ports
            while count is not None and count >= n:
                grant += 1
                count = ledger.get(grant)
            ledger[grant] = 1 if count is None else count + 1
        self.grants += 1
        if len(ledger) > self._PRUNE_EVERY:
            self._prune(grant)
        return grant

    def _prune(self, current: int) -> None:
        """Drop ledger entries far in the past (they can never matter).

        Mutates the ledger dict *in place*: the trace-speculation fast path
        and the core's inlined acquire bind ``_ledger`` once per run, so the
        dict's identity must survive pruning (same contract as the kernel's
        heap compaction and ``Cache.reset``).
        """
        horizon = current - 2048
        if horizon <= self._floor:
            return
        ledger = self._ledger
        # Most entries are stale by now: refilling with the few live ones
        # is cheaper than deleting the rest one by one.
        live = {cycle: n for cycle, n in ledger.items() if cycle >= horizon}
        ledger.clear()
        ledger.update(live)
        self._floor = max(self._floor, 0)

    def earliest_grant(self, time: int) -> int:
        """Cycle at which an acquire at ``time`` would be granted (no reserve)."""
        grant = time if time > self._floor else self._floor
        while self._ledger.get(grant, 0) >= self.n_ports:
            grant += 1
        return grant

    def would_be_free(self, time: int) -> bool:
        """True if an acquire at ``time`` would be granted immediately."""
        return self.earliest_grant(time) == time

    def reset(self) -> None:
        self._ledger.clear()
        self.grants = 0
        self._floor = 0


class PipelinedResource:
    """A pipeline accepting one request per ``initiation_interval`` cycles.

    Also supports explicit *stalls*: the cache model stalls its pipeline for
    a few cycles on structural hazards (e.g. a second miss to a line already
    being refilled, or the one-cycle MSHR-allocation bubble the paper
    describes), which delays every subsequent request.
    """

    __slots__ = ("initiation_interval", "_next_start", "accepts", "stall_cycles")

    def __init__(self, initiation_interval: int = 1) -> None:
        if initiation_interval < 1:
            raise ValueError(
                f"initiation interval must be >= 1, got {initiation_interval}"
            )
        self.initiation_interval = initiation_interval
        self._next_start = 0
        self.accepts = 0
        self.stall_cycles = 0

    def acquire(self, time: int) -> int:
        """Enter the pipeline at or after ``time``; return the entry cycle."""
        start = time if self._next_start <= time else self._next_start
        self._next_start = start + self.initiation_interval
        self.accepts += 1
        return start

    def stall_until(self, time: int) -> None:
        """Block the pipeline so no request enters before ``time``."""
        if time > self._next_start:
            self.stall_cycles += time - self._next_start
            self._next_start = time

    @property
    def next_free(self) -> int:
        return self._next_start

    def reset(self) -> None:
        self._next_start = 0
        self.accepts = 0
        self.stall_cycles = 0


class Bus:
    """A shared FIFO bus transferring one packet per ``transfer_cycles``.

    ``acquire`` returns the cycle the packet is fully delivered; it seized
    the bus ``transfer_cycles`` earlier.  ``idle_at`` lets prefetchers
    implement the "send prefetches only when the bus is idle" policy that the
    paper identifies as a critical unstated implementation choice
    (Section 3.4).
    """

    __slots__ = ("transfer_cycles", "_next_free", "busy_cycles", "transfers")

    def __init__(self, transfer_cycles: int) -> None:
        if transfer_cycles < 1:
            raise ValueError(f"transfer must take >= 1 cycle, got {transfer_cycles}")
        self.transfer_cycles = transfer_cycles
        self._next_free = 0
        self.busy_cycles = 0
        self.transfers = 0

    def acquire(self, time: int) -> int:
        """Reserve the bus at or after ``time``; return the arrival cycle."""
        start = time if self._next_free <= time else self._next_free
        arrival = start + self.transfer_cycles
        self._next_free = arrival
        self.busy_cycles += self.transfer_cycles
        self.transfers += 1
        return arrival

    def idle_at(self, time: int) -> bool:
        """True when the bus has no pending transfer at ``time``."""
        return self._next_free <= time

    @property
    def next_free(self) -> int:
        return self._next_free

    def reset(self) -> None:
        self._next_free = 0
        self.busy_cycles = 0
        self.transfers = 0
