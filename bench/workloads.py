"""The benchmark's five workloads, one per child process.

``python -m bench`` starts ``python -m bench.workloads`` once
per workload, in a private scratch directory that is also the child's
working directory and ``REPRO_CACHE_DIR``.  The child drives the program
only through its public entry points — ``run_trace`` for ``sim-*``, the
``python -m repro`` and ``python -m repro.serve`` command lines for
``sweep``/``serve`` — checks every output, and writes its samples to
the ``--result`` JSON file for ``python -m bench`` to summarise.

All load comes from this one closed-loop caller: it issues the next
simulation or CLI invocation only after the previous one returned.
Every timed step is rescaled to the reference host speed
(``bench/hostspeed.py``); the result file keeps the raw samples too.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import select
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro import __main__ as cli
from repro.core import simulation
from repro.mechanisms.registry import ALL_MECHANISMS, BASELINE, create
from repro.obs.tracing import validate_trace
from repro.workloads import registry
from repro.workloads.base import SyntheticWorkload

from bench.hostspeed import HostSpeed, Timing, pin_threads, pinned
from bench.layers import Profiler
from bench.procs import become_subreaper, reap_orphans

Cells = Tuple[Tuple[str, str], ...]
Inputs = Dict[str, Tuple[list, Any]]

#: ``sim-*`` cells (benchmark, mechanism) and records simulated per cell.
#: sim-hit: L1-resident traces that keep the generated hit replay busy.
#: sim-miss: the most miss-heavy traces, which live on the cache/DRAM path.
#: sim-mech: every mechanism of the paper, each on one of its six most
#: mechanism-sensitive benchmarks (cycled twice).
SIM_CELLS: Dict[str, Tuple[Cells, int]] = {
    "sim-hit": (tuple((b, BASELINE) for b in
                      ("wupwise", "sixtrack", "bzip2", "galgel")), 200_000),
    "sim-miss": (tuple((b, BASELINE) for b in
                       ("mcf", "lucas", "gcc", "ammp")), 80_000),
    "sim-mech": (tuple((registry.HIGH_SENSITIVITY[i % 6], mech)
                       for i, mech in enumerate(ALL_MECHANISMS[1:])), 30_000),
}
SIM_REPEATS = 3
#: Records of each cell replayed on both the fast and the reference loop.
CHECK_RECORDS = 5_000

#: The 26 benchmarks in 12 strata whose members cost about the same in
#: fig10: the time of its three cells at n=20000, measured on one CPU
#: with garbage collection held off (median of 7 interleaved rounds, two
#: trials), is within 6% across a stratum.  A sweep draws one benchmark
#: per stratum, so every seed simulates about the same amount of work.
#: Their memory images are all 8-11 MB but mcf's (17 MB), which is
#: always in.  mcf, ammp, lucas, gcc and swim have no peer.
STRATA: Tuple[Tuple[str, ...], ...] = (
    ("mcf",),
    ("gcc",),
    ("lucas",),
    ("ammp",),
    ("vortex", "apsi", "perlbmk", "crafty"),
    ("eon", "vpr", "gzip", "mgrid"),
    ("gap", "fma3d", "twolf", "parser"),
    ("equake", "facerec"),
    ("swim",),
    ("mesa", "art", "applu"),
    ("bzip2", "galgel"),
    ("sixtrack", "wupwise"),
)
SWEEP_N = 20_000
#: fig10 simulates Base and two TCP variants per benchmark.
SPECS_PER_BENCHMARK = 3
COLD_REPEATS = 3
#: Warm invocations after each cold one.  Spreading them over the run
#: samples more of the host's slow and fast spells than one block would.
WARM_PER_COLD = 3
#: Upper bound on the repeats a run adds to fill ``--seconds``.
MAX_REPEATS = 20

CLI_TIMEOUT = 120.0
SOCKET_TIMEOUT = 30.0
STOP_TIMEOUT = 5.0

_SIMULATED = re.compile(r"(\d+) simulated")
_LEASED = re.compile(r"(\d+) leased")


def derive_seed(seed: int, benchmark: str) -> int:
    """The trace seed for ``benchmark`` under benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{seed}/{benchmark}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def draw_subset(seed: int) -> List[str]:
    """The 12 benchmarks a ``sweep``/``serve`` run simulates."""
    rng = random.Random(f"bench-sweep-{seed}")
    return [rng.choice(stratum) for stratum in STRATA]


def fingerprint(result: Any) -> Dict[str, Any]:
    """What a simulation must reproduce exactly: ipc, cycles, stats."""
    return json.loads(json.dumps(
        {"ipc": result.ipc, "cycles": result.cycles, "stats": result.stats},
        sort_keys=True))


def digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def more(started: float, seconds: float, done: int, minimum: int) -> bool:
    """Repeat until ``minimum`` is done and ``seconds`` have been measured."""
    return done < minimum or (time.perf_counter() - started < seconds
                              and done < MAX_REPEATS)


#: ``python -c`` body of a timed fill: ``<n> <benchmark>...``.  Dropping
#: each build from the in-process memo keeps the filler's peak RSS at
#: one workload, not the whole subset.
_FILL = ("import sys\n"
         "from repro.workloads.registry import build, clear_cache\n"
         "for name in sys.argv[2:]:\n"
         "    build(name, int(sys.argv[1]))\n"
         "    clear_cache()\n")


def _exited(proc: "subprocess.Popen[str]", timeout: float) -> bool:
    """Wait up to ``timeout`` s for ``proc`` to exit, without reaping it."""
    try:
        fd = os.pidfd_open(proc.pid)
    except ProcessLookupError:  # already reaped
        return True
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


@contextlib.contextmanager
def _cache_dir(path: Path) -> Iterator[None]:
    """Point this process's ``REPRO_CACHE_DIR`` at ``path`` for a while."""
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = saved


class Run:
    """One workload run: samples, operations, checks and child processes."""

    def __init__(self, workload: str, seed: int, seconds: float = 0.0,
                 scale: float = 1.0, trace: bool = False,
                 golden: Optional[Path] = None,
                 update_golden: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.trace = trace
        self.golden_dir = golden
        self.update_golden = update_golden
        self.tmp = Path.cwd()
        metrics = ("records_per_s", "setup_s", "cold_s", "warm_s",
                   "peak_rss_mb")
        #: Samples at the reference host speed, and as measured.
        self.samples: Dict[str, List[float]] = {name: [] for name in metrics}
        self.raw_samples: Dict[str, List[float]] = {name: []
                                                    for name in metrics}
        #: Host speed during each timed step.
        self.speeds: List[float] = []
        self.host = HostSpeed()
        #: Largest ru_maxrss (KiB) of the processes reaped this repeat.
        self.peak_kb = 0
        #: Operation id -> still ok.  An operation is a sim cell, a CLI
        #: invocation, a fill, a service launch or an output check.
        self.ops: Dict[str, bool] = {}
        self.failures: List[str] = []
        self.notes: List[str] = []
        self.fingerprint: Optional[str] = None
        self.inputs: Optional[str] = None
        self.layers: Optional[Dict[str, float]] = None
        self.profiler = Profiler()
        #: The newest sim pass's inputs, for the fast/slow check.
        self.last_inputs: Optional[Inputs] = None
        #: Server and fleet processes still up; cleanup() stops them.
        self.services: List["subprocess.Popen[str]"] = []
        self._serial = 0

    # -- bookkeeping ------------------------------------------------------------

    def op(self, op_id: str) -> str:
        self.ops.setdefault(op_id, True)
        return op_id

    def fail(self, op_id: str, message: str) -> None:
        self.ops[op_id] = False
        self.failures.append(f"{op_id}: {message}")

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ops.values() if not ok)

    def records(self, n: int) -> int:
        return max(1000, int(n * self.scale))

    @contextlib.contextmanager
    def timed(self, cpus: Sequence[int]) -> Iterator[Timing]:
        """Time a step on ``cpus`` (:meth:`HostSpeed.timed`)."""
        with self.host.timed(cpus) as timing:
            yield timing
        self.speeds.append(timing.speed)

    def add(self, name: str, *steps: Timing) -> None:
        """One sample of time metric ``name``: the steps' total."""
        self.samples[name].append(sum(step.seconds for step in steps))
        self.raw_samples[name].append(sum(step.raw for step in steps))

    def add_rate(self, name: str, work: float, *steps: Timing) -> None:
        """One sample of rate metric ``name``: ``work`` over the steps."""
        self.samples[name].append(work / sum(step.seconds for step in steps))
        self.raw_samples[name].append(work / sum(step.raw for step in steps))

    def add_peak(self, kb: int) -> None:
        self.samples["peak_rss_mb"].append(kb / 1024.0)
        self.raw_samples["peak_rss_mb"].append(kb / 1024.0)

    def fresh_dir(self, prefix: str) -> Path:
        self._serial += 1
        path = self.tmp / f"{prefix}{self._serial}"
        path.mkdir()
        return path

    def compare(self, op_id: str, reference: Any, value: Any) -> Any:
        """Fail ``op_id`` unless ``value`` equals ``reference`` (if any)."""
        self.op(op_id)
        if reference is None:
            return value
        if value != reference:
            self.fail(op_id, "output differs from the first pass")
        return reference

    def check_golden(self, name: str, value: Any) -> None:
        """Compare ``value`` with ``<golden>/<name>-seed<seed>.json``."""
        if self.golden_dir is None:
            return
        op = self.op("golden")
        path = self.golden_dir / f"{name}-seed{self.seed}.json"
        value = json.loads(json.dumps(value, sort_keys=True))
        if self.update_golden:
            if self.failed:
                self.notes.append("golden not written: checks failed")
                return
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(
                {"seed": self.seed, "scale": self.scale, "value": value},
                indent=1, sort_keys=True) + "\n")
            self.notes.append(f"golden written: {path.name}")
            return
        if not path.exists():
            self.notes.append(f"no golden for seed {self.seed}")
            return
        golden = json.loads(path.read_text())
        if golden["scale"] != self.scale:
            self.notes.append(f"golden {path.name} is for scale "
                              f"{golden['scale']}, not {self.scale}")
        elif golden["value"] != value:
            self.fail(op, f"output differs from {path.name}")
        else:
            self.notes.append(f"matches golden {path.name}")

    # -- child processes --------------------------------------------------------

    def spawn(self, argv: List[str], cache_dir: Path,
              cpu: Optional[int] = None,
              **kwargs: Any) -> "subprocess.Popen[str]":
        """Start ``python <argv>`` in its own process group (on ``cpu``)."""
        return subprocess.Popen(
            [sys.executable, *argv], text=True, start_new_session=True,
            env=dict(os.environ, REPRO_CACHE_DIR=str(cache_dir)),
            preexec_fn=pinned(cpu), **kwargs)

    def call(self, op: str, argv: List[str], cache_dir: Path,
             cpu: Optional[int] = None) -> Tuple[Any, str, str]:
        """Run ``python <argv>`` to completion: status, stdout, stderr."""
        with tempfile.TemporaryFile("w+") as out, \
                tempfile.TemporaryFile("w+") as err:
            proc = self.spawn(argv, cache_dir, cpu, stdout=out, stderr=err)
            if not _exited(proc, CLI_TIMEOUT):
                self.fail(op, f"no answer in {CLI_TIMEOUT:.0f}s")
            self.stop(proc)  # and any pool worker it left behind
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    def fill(self, cache_dir: Path, subset: List[str], n: int,
             cpu: Optional[int] = None) -> None:
        """Build ``subset`` into a fresh workload store.

        Timed runs fill in a subprocess on ``cpu``, so that its peak RSS
        is the program's own.  Traced runs fill here, where the wrappers
        see it.
        """
        if self.trace:
            with _cache_dir(cache_dir):
                registry.clear_cache()
                for bench in subset:
                    registry.build(bench, n)
                registry.clear_cache()
            return
        op = self.op(f"fill-{cache_dir.name}")
        status, _, err = self.call(op, ["-c", _FILL, str(n), *subset],
                                   cache_dir, cpu)
        if status != 0:
            self.fail(op, f"exit {status}: {err.strip()[-300:]}")

    def stop(self, proc: "subprocess.Popen[str]") -> None:
        """SIGTERM ``proc``'s process group, then SIGKILL what is left.

        The group includes any pool or fleet workers the leader started.
        Every member is reaped here with ``wait4``, whose resource usage
        of a process covers the descendants it reaped, and the largest
        ``ru_maxrss`` goes into :attr:`peak_kb`.
        """
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGTERM)
        _exited(proc, STOP_TIMEOUT)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        while True:
            try:
                pid, status, usage = os.wait4(-proc.pid, 0)
            except ChildProcessError:
                break
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
        proc.wait()  # already reaped unless something else reaped it

    def cleanup(self) -> None:
        """Stop the helpers and every service still up, then kill and
        reap what is left."""
        self.host.close()
        while self.services:
            self.stop(self.services.pop())
        reap_orphans()

    def cli(self, op_id: str, argv: List[str], cache_dir: Path,
            simulated: int, cpu: Optional[int] = None) -> str:
        """Run one ``python -m repro`` invocation and check its output."""
        op = self.op(op_id)
        status, out, err = self.call(op, ["-m", "repro", *argv], cache_dir,
                                     cpu)
        self._check_cli(op, status, out, err, simulated)
        return out

    def in_process(self, op_id: str, argv: List[str], cache_dir: Path,
                   simulated: int) -> str:
        """Run ``repro.__main__.main(argv)`` here (traced runs only)."""
        op = self.op(op_id)
        out, err = io.StringIO(), io.StringIO()
        status: Any = 1
        try:
            with _cache_dir(cache_dir), self.profiler.span("invocation", op), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:  # recorded as this invocation's failure
            self.fail(op, traceback.format_exc(limit=3))
        self._check_cli(op, status, out.getvalue(), err.getvalue(), simulated)
        return out.getvalue()

    def _check_cli(self, op: str, status: Any, out: str, err: str,
                   simulated: int) -> None:
        if status != 0:
            self.fail(op, f"exit {status}: {err.strip()[-300:]}")
        for word in ("FAILED", "DEGRADED"):
            if word in out:
                self.fail(op, f"{word} in stdout")
        match = _SIMULATED.search(err)
        if match is None or int(match.group(1)) != simulated:
            said = match.group(0) if match else "nothing"
            self.fail(op, f"expected {simulated} simulated, stderr said {said}")
        leased = _LEASED.search(err)
        if leased is not None and self.profiler.active:
            self.profiler.counts["serve.leased"] += int(leased.group(1))

    # -- traced runs --------------------------------------------------------------

    def traced(self, one_pass: Callable[[str], Any]) -> Any:
        """Alternate untraced and traced passes; record per-layer metrics.

        Each pass is one complete set of the workload's operations.  Every
        pass must produce the first pass's output; that output is returned.
        """
        profiler = self.profiler
        walls: Dict[bool, List[float]] = {False: [], True: []}
        reference = None
        started = time.perf_counter()
        passes = 0
        while more(started, self.seconds, passes, 1):
            passes += 1
            for traced in (False, True):
                tag = f"{'t' if traced else 'u'}{passes}"
                with (profiler.installed() if traced
                      else contextlib.nullcontext()):
                    start = time.perf_counter()
                    with profiler.span("repeat", tag):
                        output = one_pass(tag)
                    walls[traced].append(time.perf_counter() - start)
                reference = self.compare(f"{tag}/output", reference, output)
        profiler.add_span("workload", started, time.perf_counter(),
                          self.workload)
        self.layers = profiler.metrics(
            passes, statistics.median(walls[True])
            / statistics.median(walls[False]))
        return reference


# -- sim-* -------------------------------------------------------------------------


def sim_inputs(seed: int, cells: Cells, n: int) -> Inputs:
    """Generate the seeded trace and image of every benchmark in ``cells``."""
    inputs = {}
    for bench in dict.fromkeys(b for b, _ in cells):
        spec = dataclasses.replace(registry.get_spec(bench),
                                   seed=derive_seed(seed, bench))
        inputs[bench] = SyntheticWorkload(spec).build(n)
    return inputs


def sim_pass(run: Run, tag: str, cells: Cells, n: int,
             cpu: int) -> Dict[str, Any]:
    """Generate the inputs, then simulate every cell once, on ``cpu``.

    Records one sample of each time: setup_s (generating the inputs),
    cold_s (the whole pass, from nothing), warm_s (the cells alone, with
    their inputs in hand) and records_per_s (inside ``run_trace`` only).
    Returns the cells' fingerprints and keeps the inputs for the
    fast/slow check.
    """
    # Untimed: free the previous pass's traces and machines (these sit in
    # reference cycles) so that no timed step pays for collecting them.
    run.last_inputs = None
    gc.collect()
    os.sched_setaffinity(0, {cpu})
    with run.timed([cpu]) as setup:
        inputs = sim_inputs(run.seed, cells, n)
    gc.collect()
    steps: List[Timing] = []
    simulating: List[Timing] = []
    fingerprints = {}
    for bench, mech in cells:
        op = run.op(f"{tag}/{bench}/{mech}")
        trace, image = inputs[bench]
        try:
            with run.timed([cpu]) as step, run.profiler.span("cell", op):
                mechanism = create(mech)
                start = time.perf_counter()
                result = simulation.run_trace(
                    trace, mechanism, image=image, benchmark=bench,
                    mechanism_name=mech)
                inner = time.perf_counter() - start
        except Exception:  # recorded as this cell's failure
            run.fail(op, traceback.format_exc(limit=3))
            continue
        steps.append(step)
        simulating.append(Timing(inner, step.speed))
        fingerprints[f"{bench}/{mech}"] = fingerprint(result)
    run.add("setup_s", setup)
    if steps:
        run.add("cold_s", setup, *steps)
        run.add("warm_s", *steps)
        run.add_rate("records_per_s", n * len(simulating), *simulating)
    if run.inputs is None:
        run.inputs = digest({b: [len(t), t[:200], t[-200:]]
                             for b, (t, _) in inputs.items()})
    run.last_inputs = inputs
    return fingerprints


def check_fast_slow(run: Run, cells: Cells, n: int) -> None:
    """The first records of every cell must match on both run loops."""
    k = min(CHECK_RECORDS, n)
    for bench, mech in cells:
        op = run.op(f"fast-vs-slow/{bench}/{mech}")
        trace, image = run.last_inputs[bench]
        saved = image.snapshot()
        got = []
        for fast in (True, False):
            image.restore(saved)
            got.append(fingerprint(simulation.run_trace(
                trace[:k], create(mech), image=image, benchmark=bench,
                mechanism_name=mech, fast=fast)))
        image.restore(saved)
        if got[0] != got[1]:
            run.fail(op, "fast path differs from the reference loop")


def run_sim(run: Run) -> None:
    cells, records = SIM_CELLS[run.workload]
    n = run.records(records)
    cpus = run.host.cpus
    if run.trace:
        reference = run.traced(
            lambda tag: sim_pass(run, tag, cells, n, cpus[0]))
    else:
        reference = None
        started = time.perf_counter()
        repeat = 0
        while more(started, run.seconds, repeat, SIM_REPEATS):
            repeat += 1
            # Alternate CPUs: each slows down on its own.
            output = sim_pass(run, f"r{repeat}", cells, n,
                              cpus[repeat % len(cpus)])
            reference = run.compare(f"r{repeat}/output", reference, output)
        run.add_peak(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    run.fingerprint = digest(reference)
    run.check_golden(run.workload, reference)
    check_fast_slow(run, cells, n)


# -- sweep / serve ---------------------------------------------------------------


#: A stage yields the cold and warm command lines, and a function that
#: moves the process a warm invocation talks to (if any) onto a CPU.
Commands = Tuple[List[str], List[str], Callable[[int], None]]
Stage = Callable[[Run, Path, List[str]],
                 "contextlib.AbstractContextManager[Commands]"]


@contextlib.contextmanager
def local(run: Run, cache: Path, argv: List[str]) -> Iterator[Commands]:
    """``sweep``: the cold and warm command lines on one local store.

    Cold runs the pool (``--jobs 2``); a traced run keeps it in-process.
    """
    cmd = argv + ["--cache-dir", str(cache / "store")]
    yield (cmd + ["--jobs", "1" if run.trace else "2"],
           cmd + ["--jobs", "1"], lambda cpu: None)


@contextlib.contextmanager
def served(run: Run, cache: Path, argv: List[str]) -> Iterator[Commands]:
    """``serve``: a server and a two-worker fleet on a fresh store.

    Yields the cold and warm client command lines once the server's
    socket accepts a connection, and a function that pins the server to
    a CPU.  Both process groups are stopped on the way out, whatever
    happened.
    """
    sock = f"{cache.name}.sock"  # relative: AF_UNIX paths are short
    store = str(cache / "store")
    op = run.op(f"launch-{cache.name}")
    with open(cache / "service.log", "w") as log:
        procs = [
            run.spawn(["-m", "repro.serve", "server", "--cache-dir", store,
                       "--socket", sock],
                      cache, stdout=log, stderr=subprocess.STDOUT),
            run.spawn(["-m", "repro.serve", "fleet", "--cache-dir", store,
                       "--workers", "2"],
                      cache, stdout=log, stderr=subprocess.STDOUT),
        ]
        run.services.extend(procs)
        try:
            if not _accepting(sock, procs[0]):
                run.fail(op, "server socket never accepted a connection")
            client = argv + ["--serve", sock]
            yield (client + ["--cache-dir", str(cache / "client")],
                   client + ["--no-cache"],
                   lambda cpu: pin_threads(procs[0].pid, cpu))
        finally:
            for proc in reversed(procs):
                run.services.remove(proc)
                run.stop(proc)


def _accepting(sock: str, server: "subprocess.Popen[str]") -> bool:
    deadline = time.monotonic() + SOCKET_TIMEOUT
    while time.monotonic() < deadline and server.poll() is None:
        with socket.socket(socket.AF_UNIX) as probe:
            try:
                probe.connect(sock)
                return True
            except OSError:
                pass
        time.sleep(0.01)
    return False


def run_exhibit(run: Run, stage: Stage) -> None:
    """Time the seeded fig10 exhibit cold and warm through ``stage``.

    Each cold repeat fills a fresh workload store (setup_s, plus the
    stage's own start-up), then invokes the exhibit on an empty result
    store, then warm on the store that filled.  A repeat's peak is the
    largest ru_maxrss of all the processes it ran; the run's
    peak_rss_mb is the smallest repeat's.  Every invocation's stdout
    must be byte-identical (and golden).
    """
    subset = draw_subset(run.seed)
    n = run.records(SWEEP_N)
    specs = SPECS_PER_BENCHMARK * len(subset)
    argv = ["fig10", "--n", str(n), "--benchmarks", ",".join(subset)]
    run.inputs = digest(subset)
    if run.trace:
        def one_pass(tag: str) -> List[str]:
            cache = run.fresh_dir("pass")
            run.fill(cache, subset, n)
            with stage(run, cache, argv) as (cold, warm, _):
                return [run.in_process(f"{tag}/cold", cold, cache, specs),
                        run.in_process(f"{tag}/warm", warm, cache, 0)]

        outputs = run.traced(one_pass)
    else:
        cpus = run.host.cpus
        started = time.perf_counter()
        outputs = []
        peaks = []
        for repeat in range(1, COLD_REPEATS + 1):
            # The filler and the warm invocation (with the server it talks
            # to) run pinned, alternating CPUs; the cold invocation, with
            # its pool or fleet, runs free and is timed against the speed
            # of every CPU.
            cpu = cpus[repeat % len(cpus)]
            cache = run.fresh_dir("cold")
            run.peak_kb = 0
            with contextlib.ExitStack() as services:
                with run.timed([cpu]) as fill:
                    run.fill(cache, subset, n, cpu)
                with run.timed(cpus) as launch:
                    cold, warm, pin_server = services.enter_context(
                        stage(run, cache, argv))
                run.add("setup_s", fill, launch)
                with run.timed(cpus) as step:
                    outputs.append(run.cli(f"cold{repeat}", cold, cache,
                                           specs))
                run.add("cold_s", step)
                run.add_rate("records_per_s", specs * n, step)
                pin_server(cpu)
                done = 0
                while (done < WARM_PER_COLD if repeat < COLD_REPEATS
                       else more(started, run.seconds, done, WARM_PER_COLD)):
                    done += 1
                    with run.timed([cpu]) as step:
                        outputs.append(run.cli(f"warm{repeat}.{done}", warm,
                                               cache, 0, cpu))
                    run.add("warm_s", step)
            peaks.append(run.peak_kb)
        # The largest process is a pool or fleet worker.  Which worker
        # runs which spec, and so which workloads it loads and keeps in
        # memory, changes from repeat to repeat: at seed 1, sweep's
        # repeats peaked at 75-80 MB or at 83-84 MB.  The smallest peak
        # keeps that draw out of the metric.
        run.add_peak(min(peaks))
    op = run.op("stdout-identity")
    if any(out != outputs[0] for out in outputs):
        run.fail(op, "cold and warm stdout differ")
    run.fingerprint = digest(outputs[0])
    run.check_golden("fig10", outputs[0])


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "sim-hit": run_sim,
    "sim-miss": run_sim,
    "sim-mech": run_sim,
    "sweep": lambda run: run_exhibit(run, local),
    "serve": lambda run: run_exhibit(run, served),
}


# -- child entry point --------------------------------------------------------------


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.workloads")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    # A benchmark started as a background job inherits SIGINT ignored,
    # and an ignored signal stays ignored across exec: restore Ctrl-C here
    # for this process and everything it starts.  SIGTERM, which
    # ``python -m bench`` sends to stop a child, unwinds through the
    # finally below, which stops the services.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    become_subreaper()
    run = Run(args.workload, args.seed, seconds=args.seconds,
              scale=args.scale, trace=bool(args.trace),
              golden=Path(args.golden), update_golden=args.update_golden)
    try:
        WORKLOADS[args.workload](run)
    except Exception:  # the result file reports it; the run fails
        run.fail(run.op("workload"), traceback.format_exc())
    finally:
        run.cleanup()
    trace_file = None
    if run.trace and run.layers is not None:
        payload = run.profiler.chrome_trace()
        problems = validate_trace(payload)
        if problems:
            run.fail(run.op("trace-file"), "; ".join(problems[:3]))
        Path(args.trace_out).write_text(json.dumps(payload) + "\n")
        trace_file = args.trace_out
    result = {
        "workload": run.workload, "seed": run.seed, "scale": run.scale,
        "trace": run.trace, "samples": run.samples,
        "raw_samples": run.raw_samples, "speeds": run.speeds,
        "attempted": len(run.ops), "failed": run.failed,
        "failures": run.failures, "notes": run.notes,
        "fingerprint": run.fingerprint, "inputs": run.inputs,
        "layers": run.layers, "trace_file": trace_file,
    }
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
