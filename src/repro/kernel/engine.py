"""Discrete-event scheduler.

Most of the memory-system timing in this library is computed synchronously
with timestamp algebra (see :mod:`repro.kernel.resources`), but a few things
are naturally deferred callbacks: MSHR entry release, write-buffer drains,
prefetch-queue retirement.  The :class:`Simulator` provides the event queue
for those.

The queue is *flattened*: instead of one binary heap of events, events are
bucketed per cycle (``{time: [events in seq order]}``) with a small heap of
bucket times.  Draining a cycle then walks one list — a run of same-cycle
events costs one heap pop total instead of one per event, and events a
callback schedules *for the cycle being drained* are appended to the live
bucket and fired in the same sweep, exactly where ``(time, seq)`` ordering
puts them.  Scheduling order within a cycle is append order, which is seq
order, so the observable firing sequence is identical to the classic heap.

Cancelled events are skipped at drain time as before, but the queue also
*compacts* itself: when cancelled entries outnumber live ones (they exceed
half the queue), the buckets are rebuilt without them, so workloads with
heavy MSHR/prefetch cancellation stop paying drain tax on dead events.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hotpath import hotpath
from repro.obs.tracing import TRACER
from repro.sanitize import SANITIZE, sanitize_failure


class Event:
    """A scheduled callback.

    Events compare by ``(time, sequence)`` so simultaneous events fire in
    scheduling order, which keeps runs deterministic.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., object],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} #{self.seq}{state} {self.fn!r}>"


class Simulator:
    """Bucketed discrete-event simulator with integer cycle time.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10, fired.append, "a")
    >>> _ = sim.schedule(5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Event]] = {}
        self._times: List[int] = []  # heap of bucket cycle numbers
        self._seq = 0  # next event sequence number (a plain int: it pickles)
        self._live = 0
        self._cancelled = 0
        self._draining = False
        self.now: int = 0

    @hotpath
    def schedule(self, time: int, fn: Callable[..., object], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time``.

        Scheduling in the past is clamped to *now*: the caller computed a
        completion timestamp that has already been passed by the driving
        clock, so the effect is immediate at the next drain.
        """
        if SANITIZE and not isinstance(time, int):
            raise sanitize_failure(
                f"non-integral event time {time!r} scheduled for {fn!r}; "
                "cycle times must be ints or replay order is ill-defined"
            )
        if time < self.now:
            time = self.now
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        bucket = self._buckets.get(time)
        if bucket is None:
            # simlint: allow[SIM702] first event of a cycle must open its bucket list
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._live += 1
        return event

    def schedule_in(self, delay: int, fn: Callable[..., object], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule(self.now + delay, fn, *args)

    @property
    def pending(self) -> int:
        """Number of not-yet-fired (possibly cancelled) events."""
        return self._live + self._cancelled

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` when the queue is empty."""
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            bucket = buckets.get(time)
            if bucket:
                for event in bucket:
                    if not event.cancelled:
                        return time
                # A bucket of nothing but cancelled events can be dropped
                # whole (the classic heap popped them one by one here).
                self._cancelled -= len(bucket)
            del buckets[time]
            heapq.heappop(times)
        return None

    # -- the drain loop ---------------------------------------------------------

    def run_until(self, time: int) -> None:
        """Fire every event scheduled at or before ``time``; advance *now*.

        *now* ends at ``time`` even if the queue drains earlier, so resource
        models can rely on it as the driving clock's current cycle.
        """
        times = self._times
        if times and times[0] <= time:
            self._drain(time)
        if time > self.now:
            self.now = time

    def run(self) -> None:
        """Fire all pending events."""
        if self._times:
            self._drain(None)

    @hotpath
    def _drain(self, limit: Optional[int]) -> None:
        """Fire buckets in time order up to ``limit`` (``None`` = everything).

        The tracer/sanitizer guards and the heap accessor are hoisted out of
        the loop; each cycle's events run off one list, including any the
        callbacks append for the cycle being drained (they carry larger
        sequence numbers than everything already in the bucket, so append
        order *is* ``(time, seq)`` order).
        """
        if self._draining:
            raise RuntimeError(
                "reentrant Simulator drain: an event callback called "
                "run()/run_until(); schedule follow-up work instead"
            )
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("kernel.drain", cat="kernel")
        fired = 0
        times = self._times
        buckets = self._buckets
        pop_time = heapq.heappop
        sanitize = SANITIZE
        self._draining = True
        try:
            while times and (limit is None or times[0] <= limit):
                time = times[0]
                bucket = buckets.get(time)
                if not bucket:
                    if bucket is not None:
                        del buckets[time]
                    pop_time(times)
                    continue
                if sanitize and time < self.now:
                    raise sanitize_failure(
                        f"event-time monotonicity broken: firing t={time} "
                        f"with now={self.now}"
                    )
                self.now = time
                index = 0
                while index < len(bucket):
                    event = bucket[index]
                    index += 1
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    self._live -= 1
                    event.fn(*event.args)
                    fired += 1
                del buckets[time]
                pop_time(times)
        finally:
            self._draining = False
        if self._cancelled > self._live:
            self._compact()
        if tracing:
            TRACER.end(events=fired, now=self.now)

    # -- cancellation compaction ---------------------------------------------------

    def _note_cancelled(self) -> None:
        """Book-keeping hook called by :meth:`Event.cancel`."""
        self._cancelled += 1
        self._live -= 1
        if self._cancelled > self._live and not self._draining:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without cancelled entries.

        Triggered when cancelled events exceed half the queue, so long runs
        with heavy MSHR/prefetch cancellation stop paying drain tax on dead
        events.  Live events keep their buckets and relative order, so the
        firing sequence is unchanged.
        """
        buckets = self._buckets
        survivors: Dict[int, List[Event]] = {}
        for time, bucket in buckets.items():
            live = [event for event in bucket if not event.cancelled]
            if live:
                survivors[time] = live
        self._buckets = survivors
        # In-place so long-lived references to the times heap (e.g. the
        # trace-speculation guards in repro.cpu.fastpath) stay valid.
        self._times[:] = survivors
        heapq.heapify(self._times)
        self._cancelled = 0

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to cycle 0."""
        self._buckets.clear()
        self._times.clear()
        self._live = 0
        self._cancelled = 0
        self.now = 0
