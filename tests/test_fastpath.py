"""Trace-speculation fast path: bit-identity, guards, and abort paths.

The fast path (:mod:`repro.cpu.fastpath`) is only allowed to exist because
it is invisible: the golden-fingerprint tests here run every registered
mechanism, and a spread of mechanisms under every cache and memory model,
on the same trace with the fast path on and off and require identical
``stats_report()`` output (plus the headline result fields).  The guard
mutation test cuts each guard out of the emitted loop and requires some
fast/slow pair to diverge, so no guard is dead weight the fingerprints
could not miss.  The unit tests then poke each guard directly — a miss
mid-replay, a prefetch queued mid-replay, a kernel event coming due — and
check the abort is taken, is side-effect-free, and lands on a slow path
that produces the same answer.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import run_benchmark
from repro.core.config import MEMORY_CONSTANT, baseline_config
from repro.core.simulation import build_machine, run_trace
from repro.cpu import codecache
from repro.cpu.fastpath import TraceSpeculator
from repro.cpu.ooo import OoOCore
from repro.exec import RunSpec
from repro.mechanisms.base import Mechanism, PrefetchQueue
from repro.mechanisms.registry import ALL_MECHANISMS, EXTENSIONS, create
from repro.sanitize import SanitizeError
from repro.workloads.image import MemoryImage
from repro.workloads.registry import build as build_workload

_N = 3000

#: Cache and memory models besides the default, by name.
_MODELS = {
    "simplescalar": baseline_config().with_simplescalar_cache(),
    "infinite-mshr": baseline_config().with_infinite_mshr(),
    "constant-memory": baseline_config().with_memory_model(MEMORY_CONSTANT),
}

#: Mechanisms that between them cover every kind of hit-block binding: no
#: mechanism, L1 and L2 hooks, one and two prefetch queues (CDPSP), a
#: side structure (VC) and kernel events (TK, EW).
_SPREAD = ("Base", "TK", "GHB", "CDPSP", "VC", "EW")


@pytest.fixture(scope="module")
def swim_trace():
    return build_workload("swim", _N)


# -- golden fingerprint --------------------------------------------------------

@pytest.mark.parametrize("mechanism", ALL_MECHANISMS + EXTENSIONS)
def test_fast_and_slow_paths_fingerprint_identically(mechanism, swim_trace):
    trace, image = swim_trace
    results = {}
    for fast in (True, False):
        results[fast] = run_trace(
            list(trace), create(mechanism), image=image, benchmark="swim",
            mechanism_name=mechanism, fast=fast,
        )
    fast_r, slow_r = results[True], results[False]
    assert fast_r.stats == slow_r.stats, (
        f"{mechanism}: stats_report diverged between fast and slow paths"
    )
    assert fast_r.ipc == slow_r.ipc
    assert fast_r.cycles == slow_r.cycles
    assert fast_r.l1_miss_rate == slow_r.l1_miss_rate
    assert fast_r.l2_miss_rate == slow_r.l2_miss_rate
    assert fast_r.avg_load_latency == slow_r.avg_load_latency
    assert fast_r.prefetches_issued == slow_r.prefetches_issued
    assert fast_r.useful_prefetches == slow_r.useful_prefetches


@pytest.mark.parametrize("model", sorted(_MODELS))
@pytest.mark.parametrize("mechanism", _SPREAD)
def test_fast_and_slow_paths_agree_under_every_model(mechanism, model,
                                                     swim_trace):
    trace, image = swim_trace
    fast_r, slow_r = (
        run_trace(list(trace), create(mechanism), config=_MODELS[model],
                  image=image, benchmark="swim", mechanism_name=mechanism,
                  fast=fast)
        for fast in (True, False)
    )
    assert fast_r.stats == slow_r.stats, f"{mechanism} under {model}"
    assert fast_r.ipc == slow_r.ipc


# -- every guard is needed -----------------------------------------------------

_GUARD = re.compile(r"^( *)# guard\[(?P<name>[\w-]+)\]$")

#: Per guard, mechanisms whose fast/slow pair diverges on swim once the
#: guard is cut from the emitted loop: EW's kernel events (eager
#: writebacks) change state a hit reads, GHB and CDPSP queue prefetches
#: between accesses, and every machine misses.
_GUARD_WITNESSES = {
    "event-drain": ("EW",),
    "queued-prefetch": ("GHB", "CDPSP"),
    "resident": _SPREAD,
}


def _without_guard(source, name):
    """``source`` with every ``name`` guard statement cut out."""
    lines = source.split("\n")
    kept, cuts, i = [], 0, 0
    while i < len(lines):
        mark = _GUARD.match(lines[i])
        if mark is None or mark["name"] != name:
            kept.append(lines[i])
            i += 1
            continue
        # Drop the marker, the guard's ``if`` and its deeper-indented body.
        body = mark.group(1) + " "
        i += 2
        while i < len(lines) and lines[i].startswith(body):
            i += 1
        cuts += 1
    assert cuts == 3, f"{name}: expected one guard per hit block, cut {cuts}"
    return "\n".join(kept)


@pytest.fixture(scope="module")
def slow_spread(swim_trace):
    trace, image = swim_trace
    return {mech: run_trace(list(trace), create(mech), image=image,
                            benchmark="swim", mechanism_name=mech, fast=False)
            for mech in _SPREAD}


@pytest.mark.parametrize("guard", sorted(_GUARD_WITNESSES))
def test_cutting_any_guard_makes_fast_and_slow_diverge(guard, swim_trace,
                                                       slow_spread,
                                                       monkeypatch):
    emit = OoOCore._emit_fast_loop

    def emit_without_guard(self, *args, **kwargs):
        source, bind = emit(self, *args, **kwargs)
        return _without_guard(source, guard), bind

    monkeypatch.setattr(OoOCore, "_emit_fast_loop", emit_without_guard)
    trace, image = swim_trace

    def diverges(mech):
        try:
            fast = run_trace(list(trace), create(mech), image=image,
                             benchmark="swim", mechanism_name=mech)
        except SanitizeError:
            # Under REPRO_SANITIZE=1 the runtime checks catch the mutant
            # first (an undrained event fires behind the clock).
            return True
        return fast.stats != slow_spread[mech].stats

    diverged = {mech for mech in _SPREAD if diverges(mech)}
    assert set(_GUARD_WITNESSES[guard]) <= diverged, (guard, diverged)


# -- one loop source -----------------------------------------------------------

def test_every_machine_emits_one_loop_source():
    configs = [baseline_config(), *_MODELS.values()]
    sources = set()
    for name in ALL_MECHANISMS + EXTENSIONS:
        for config in configs:
            for image in (None, MemoryImage()):
                core, _ = build_machine(config, create(name), image)
                sources.add(core._emit_fast_loop([0, 0, 0, 0], None)[0])
    assert len(sources) == 1


def test_more_prefetch_queues_than_slots_fail_at_bind(swim_trace):
    class ThreeQueues(Mechanism):
        LEVEL = "l2"
        QUEUE_SIZE = 4

        def __init__(self):
            super().__init__()
            self.extra = (PrefetchQueue(4), PrefetchQueue(4))

        def iter_queues(self):
            yield self.queue
            yield from self.extra

    trace, _ = swim_trace
    core, _ = build_machine(None, ThreeQueues())
    with pytest.raises(RuntimeError, match="prefetch queues"):
        core.run(list(trace))
    core, _ = build_machine(None, ThreeQueues())
    assert core.run(list(trace), fast=False).instructions == len(trace)


def test_fast_knob_flows_through_run_benchmark():
    fast_r = run_benchmark("art", "GHB", n_instructions=2000)
    slow_r = run_benchmark("art", "GHB", n_instructions=2000, fast=False)
    assert fast_r.stats == slow_r.stats
    assert fast_r.ipc == slow_r.ipc


def test_speculation_counters_stay_out_of_stats(swim_trace):
    trace, image = swim_trace
    core, hierarchy = build_machine(None, create("GHB"), image)
    core.run(list(trace))
    sp = core.speculation
    assert sp is not None and sp.commits > 0
    report = hierarchy.stats_report()
    assert not any("commit" in key or "abort" in key for key in report)


def test_slow_path_records_no_speculator(swim_trace):
    trace, image = swim_trace
    core, _ = build_machine(None, None, image)
    core.run(list(trace), fast=False)
    assert core.speculation is None


# -- the guards, one by one ----------------------------------------------------

def _machine(mechanism=None):
    core, hierarchy = build_machine(baseline_config(), mechanism)
    speculator = TraceSpeculator(hierarchy)
    return core, hierarchy, speculator


def test_replay_commits_on_a_resident_line():
    _, hierarchy, sp = _machine()
    slow_ready = hierarchy.load(0x100, 0x4000, 10)   # miss: installs the line
    assert sp.commits == 0
    fast_ready = sp.replay_load(0x100, 0x4000, slow_ready + 5)
    assert fast_ready is not None
    assert sp.commits == 1 and sp.aborts == 0


def test_miss_mid_replay_aborts_without_side_effects():
    _, hierarchy, sp = _machine()
    l1d = hierarchy.l1d
    before = (list(l1d._tags), list(l1d._flags),
              l1d.st_reads.value, l1d.st_read_misses.value,
              hierarchy.st_loads.value)
    assert sp.replay_load(0x100, 0x9000, 10) is None  # cold cache: a miss
    assert sp.abort_reasons()["miss"] == 1
    after = (list(l1d._tags), list(l1d._flags),
              l1d.st_reads.value, l1d.st_read_misses.value,
              hierarchy.st_loads.value)
    assert before == after, "an aborted replay must leave no trace"
    # The slow path then answers, and a retry of the replay commits.
    ready = hierarchy.load(0x100, 0x9000, 10)
    assert sp.replay_load(0x100, 0x9000, ready + 4) is not None


def test_prefetch_insert_mid_replay_aborts_to_the_drain():
    class Pusher(Mechanism):
        LEVEL = "l1"
        QUEUE_SIZE = 4

    mech = Pusher()
    _, hierarchy, sp = _machine(mech)
    hierarchy.load(0x100, 0x4000, 10)                # line now resident
    assert sp.replay_load(0x100, 0x4000, 20) is not None
    # A prefetch lands in the queue mid-run (as a hook would emit it).
    assert mech.emit_prefetch(0x8000, time=20)
    assert sp.replay_load(0x100, 0x4000, 25) is None
    assert sp.abort_reasons()["queued_prefetch"] == 1
    # The slow path drains the queue; replays resume committing after.
    hierarchy.load(0x100, 0x4000, 30)
    assert len(mech.queue) == 0
    assert sp.replay_load(0x100, 0x4000, 40) is not None


def test_due_kernel_event_is_drained_then_replay_commits():
    fired = []
    _, hierarchy, sp = _machine()
    hierarchy.load(0x100, 0x4000, 10)
    hierarchy.sim.schedule(100, fired.append, "later")
    # Event still in the future: advance() would not fire it either.
    assert sp.replay_load(0x100, 0x4000, 50) is not None
    assert sp.event_drains == 0
    # At its due time the replay first runs the kernel drain — the same
    # run_until the slow path's advance() performs — then commits.
    assert sp.replay_load(0x100, 0x4000, 100) is not None
    assert sp.event_drains == 1
    assert fired == ["later"]
    assert hierarchy.sim.now == 100


def test_ifetch_replay_skips_mechanism_hooks():
    class Spy(Mechanism):
        LEVEL = "l1"
        QUEUE_SIZE = 4

        def __init__(self):
            super().__init__()
            self.seen = []

        def on_access(self, pc, block, hit, was_prefetched, time):
            self.seen.append(pc)

    mech = Spy()
    _, hierarchy, sp = _machine(mech)
    hierarchy.fetch_instruction(0x4000, 5)           # install in L1I
    assert sp.replay_ifetch(0x4000, 0x4000, 10) is not None
    assert mech.seen == []                           # ifetch is invisible
    hierarchy.load(0x200, 0x4000, 15)                # data access is not
    assert mech.seen != []


# -- generated code: compiled once, never on disk --------------------------------

def test_codecache_compiles_each_source_once(monkeypatch):
    compiled = []
    real_compile = compile

    def counting_compile(source, filename, mode):
        compiled.append(source)
        return real_compile(source, filename, mode)

    monkeypatch.setattr("builtins.compile", counting_compile)
    source = "def f():\n    return 41\n"
    codecache._MEMO.pop(source, None)
    first = codecache.load_or_compile(source, "<test>")
    assert codecache.load_or_compile(source, "<test>") is first
    assert compiled == [source]
    namespace = {}
    exec(first, namespace)
    assert namespace["f"]() == 41


def test_replay_closures_share_one_code_object_across_machines():
    _, plain = build_machine(None, None, MemoryImage())
    _, other = build_machine(_MODELS["simplescalar"], create("CDPSP"))
    first, second = TraceSpeculator(plain), TraceSpeculator(other)
    assert first.replay_load.__code__ is second.replay_load.__code__
    assert first.replay_ifetch.__code__ is second.replay_ifetch.__code__
    assert first.replay_load.__code__ is not first.replay_ifetch.__code__


def test_simulation_writes_no_code_to_disk(tmp_path):
    """Generated code lives in the process only: a fresh interpreter's
    fast-path run leaves its workload under the cache root and nothing
    else."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "swim", "GHB", "--n", "1500",
         "--no-cache"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["workloads"]


# -- spec hashing --------------------------------------------------------------

def test_fast_knob_is_part_of_run_identity():
    fast_spec = RunSpec("swim", "GHB", n_instructions=2000)
    slow_spec = RunSpec("swim", "GHB", n_instructions=2000, fast=False)
    assert fast_spec.fast is True
    assert fast_spec.describe()["fast"] is True
    assert fast_spec.content_hash != slow_spec.content_hash
