"""Host speed, sampled on every CPU while the timed steps run.

The host this benchmark was built on is shared.  Each of its two CPUs
slows down on its own, by up to 2.5x, in spells from a fraction of a
second to minutes, and a median over one run cannot remove a spell that
covers the run.  So one sampler process per CPU (:data:`_SAMPLER`) times
a fixed pure-Python loop of about 0.4 ms every 25 ms, and each timed
step is reported as it would have read at the reference speed: its time
is multiplied by the step's speed, ``REFERENCE_LOOP_S`` over the mean
loop time sampled during the step on the CPUs it ran on (rates are
divided by it).

On that host, in a noisy hour, rescaling this way cut the spread of
medians of 8 consecutive samples (quartile to quartile over the median)
from 5.3% to 1.7% for a 0.2 s simulation pinned to one CPU, and from
15.8% to 2.8% for a 1.3 s ``fig10 --jobs 2`` on both CPUs.  Timing the
loop only before and after a step tracked multi-second steps poorly.

A step on several CPUs is never credited with more than the reference
speed.  In a spell when the loop read up to 1.19x the reference on both
CPUs, steps pinned to one CPU sped up with it, but the cold ``serve``
invocation, spread over both, did not.  Rescaled by the full speed, its
ten-seed spread (quartile to quartile over the median of the ten run
medians) was 14.5% in that spell.  Over four ten-seed passes, with the
cap, no cold time or rate of ``sweep`` or ``serve`` spread by more than
6.5%.  Pinned steps keep the full speed: capping them widened the
spread of ``sim-miss`` to 16% in one pass.

The samplers run in their own processes and import nothing but the
standard library, so the program's heap and imports never reach the
loop.  They still share each CPU, its caches and the memory bus with
the program.  On that host the sampled speed of one CPU read the same
beside a process reading a 20-million-element list at random as beside
a tight arithmetic loop (median 0.796 against 0.794, six 3 s windows
each), so a program's memory footprint did not move it measurably.
They take about 2% of each CPU, the same for every commit measured.
Linux only (CPU affinity).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The sampler loop's typical time on the reference host: the 2-CPU host
#: this benchmark was built on.
REFERENCE_LOOP_S = 0.0004

#: Seconds between the starts of two samples on one CPU.
PERIOD_S = 0.025

#: ``python -c`` body of a sampler: pin to CPU ``argv[1]``, then every
#: ``argv[2]`` seconds time the loop and print its start and duration.
_SAMPLER = """\
import gc, os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
period = float(sys.argv[2])
gc.disable()

def loop():
    table = {}
    acc = 0
    for i in range(1500):
        table[i & 1023] = (i, acc)
        key = (i * 7) & 1023
        acc += table[key][0] if key in table else 1
    return acc

due = time.perf_counter()
while True:
    start = time.perf_counter()
    loop()
    print(start, time.perf_counter() - start, flush=True)
    due = max(due + period, time.perf_counter())
    time.sleep(max(0.0, due - time.perf_counter()))
"""

#: Longest wait for a sampler's next sample before giving up on it.
SAMPLE_TIMEOUT_S = 5.0


@dataclasses.dataclass
class Timing:
    """One timed step: its wall time and the host speed during it."""

    raw: float = 0.0
    speed: float = 1.0

    @property
    def seconds(self) -> float:
        """The step's time at the reference speed."""
        return self.raw * self.speed


class _Sampler:
    """One sampler process and the samples read from it so far."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _SAMPLER, str(cpu),
             str(PERIOD_S)], stdout=subprocess.PIPE)
        self.fd = self.proc.stdout.fileno()  # type: ignore[union-attr]
        self._partial = b""
        #: (start, duration) of every sample read and not yet discarded.
        self.samples: List[Tuple[float, float]] = []

    def read(self, timeout: float) -> bool:
        """Read what the sampler printed, waiting up to ``timeout`` s."""
        if not select.select([self.fd], [], [], timeout)[0]:
            return False
        chunk = os.read(self.fd, 1 << 16)
        if not chunk:
            raise RuntimeError("a host-speed sampler exited")
        *lines, self._partial = (self._partial + chunk).split(b"\n")
        for line in lines:
            start, duration = line.split()
            self.samples.append((float(start), float(duration)))
        return True

    def discard(self) -> None:
        """Drop every sample printed so far."""
        while self.read(0):
            pass
        self.samples.clear()

    def during(self, start: float, end: float) -> List[float]:
        """Loop times of the samples from ``start`` up to the first one
        that starts after ``end``, which this waits for."""
        deadline = time.perf_counter() + SAMPLE_TIMEOUT_S
        while not (self.samples and self.samples[-1][0] >= end):
            if time.perf_counter() > deadline:
                raise RuntimeError("a host-speed sampler stopped sampling")
            self.read(PERIOD_S)
        return [d for t, d in self.samples if t >= start]

    def close(self) -> None:
        self.proc.kill()
        self.proc.communicate()


class HostSpeed:
    """A sampler on every CPU this process may use."""

    def __init__(self) -> None:
        self.cpus: List[int] = sorted(os.sched_getaffinity(0))
        self._samplers: Dict[int, _Sampler] = {
            cpu: _Sampler(cpu) for cpu in self.cpus}

    @contextlib.contextmanager
    def timed(self, cpus: Sequence[int]) -> Iterator[Timing]:
        """Time the block; its speed comes from the samples on ``cpus``,
        at most 1 when there are several."""
        samplers = [self._samplers[cpu] for cpu in cpus]
        for sampler in samplers:
            sampler.discard()
        timing = Timing()
        start = time.perf_counter()
        yield timing
        end = time.perf_counter()
        loops = [d for sampler in samplers for d in sampler.during(start, end)]
        timing.raw = end - start
        timing.speed = REFERENCE_LOOP_S / statistics.fmean(loops)
        if len(cpus) > 1:
            timing.speed = min(timing.speed, 1.0)

    def close(self) -> None:
        while self._samplers:
            self._samplers.popitem()[1].close()


def pinned(cpu: Optional[int]) -> Optional[Callable[[], None]]:
    """A ``preexec_fn`` that pins a child process to ``cpu`` (if any)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def pin_threads(pid: int, cpu: int) -> None:
    """Pin every thread of running process ``pid`` to ``cpu``.

    Threads it starts later inherit the pinning from the thread that
    starts them.
    """
    with contextlib.suppress(FileNotFoundError):
        for tid in os.listdir(f"/proc/{pid}/task"):
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(int(tid), {cpu})
