"""Mid-run checkpointing: bit-identical resume, durability, chaos, fsck.

The contract under test (see :mod:`repro.exec.checkpoint`): a run that
is interrupted and resumed from a mid-run cut must finish with a
result **bit-identical** to an uninterrupted run — for every registered
mechanism, on both the interpreted reference loop and the generated
fast path — and the disabled path must cost nothing (its emitted source
is byte-identical to a checkpoint-free build).  On top of the in-memory
protocol, the durable layer is exercised end to end: atomic files,
corrupt-tail fallback to the next-older cut, cuts from other simulator
source skipped, executor crash-resume under ``kill-midrun`` chaos, a
fleet worker resuming another worker's cut across real process deaths,
and the ``fsck`` audit.
"""

import json
import os
import pickle
import subprocess
import sys
import time
import types
from array import array
from collections import deque
from pathlib import Path

import pytest

from repro.core.simulation import run_trace
from repro.exec import Executor, ResultStore, RetryPolicy, RunSpec
from repro.exec.checkpoint import (
    Checkpointer,
    audit_checkpoints,
    checkpoint_path,
    load_latest,
    source_digest,
    write_checkpoint,
)
from repro.exec.faults import (
    KILL_WORKER_EXIT,
    FaultPlan,
    fires,
    maybe_corrupt_checkpoint,
    parse_fault_spec,
)
from repro.mechanisms.registry import ALL_MECHANISMS, EXTENSIONS, create
from repro.workloads.registry import build as build_workload

from tests.conftest import fault_plan

REPO = Path(__file__).resolve().parent.parent

_N = 3000
_EVERY = 700


@pytest.fixture(scope="module")
def swim_trace():
    return build_workload("swim", _N)


class _MemCheckpointer:
    """In-memory double for :class:`Checkpointer`: same duck type.

    Cuts are stored *pickled*, so the test proves every snapshot is
    serializable exactly as the durable layer requires, and byte-level
    comparisons between attempts are meaningful.
    """

    def __init__(self, every, stash=None):
        self.every = every
        self.stash = stash       # (index, state) to resume from
        self.cuts = []           # [(index, pickled state), ...]
        self.resumed = 0

    def cut(self, index, state):
        self.cuts.append(
            (index, pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        )

    def load(self):
        if self.stash is None:
            return None
        self.resumed = 1
        return self.stash


def _run(swim_trace, mechanism, fast, checkpoint=None):
    trace, image = swim_trace
    return run_trace(
        list(trace), create(mechanism), image=image, benchmark="swim",
        mechanism_name=mechanism, fast=fast, checkpoint=checkpoint,
    )


#: Compared with ``==``: immutable values, plus the classes and functions
#: a graph refers to (module globals, never copied by pickle).
_ATOMS = (str, bytes, int, float, complex, bool, type(None), type,
          types.FunctionType, types.BuiltinFunctionType)


def _fields(obj):
    """An object's instance state: its ``__dict__`` plus set slots."""
    state = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot != "__dict__" and hasattr(obj, slot):
                state[slot] = getattr(obj, slot)
    return state


def _graph_diff(left, right, path="cut", pairs=None):
    """Where two object graphs first differ by value, or None.

    Walks both graphs in step: atoms compare with ``==`` (and must share
    a type), sequences and dicts item by item in order, sets as sets,
    bound methods by function and owner, other objects field by field.
    Every mutable object must pair with one and the same object on the
    other side, both ways, so aliasing is compared too.  Strings are
    atoms: which equal strings are one object is no part of a machine's
    value.
    """
    if pairs is None:
        pairs = ({}, {})
    if type(left) is not type(right):
        return (f"{path}: {type(left).__name__} != "
                f"{type(right).__name__}")
    if isinstance(left, _ATOMS):
        return None if left == right else f"{path}: {left!r} != {right!r}"
    if not isinstance(left, tuple):
        forward, backward = pairs
        if id(left) in forward or id(right) in backward:
            if forward.get(id(left)) is right:
                return None  # walked already (or on the stack: a cycle)
            return f"{path}: aliased differently"
        forward[id(left)] = right
        backward[id(right)] = left
    if isinstance(left, types.MethodType):
        if left.__func__ is not right.__func__:
            return f"{path}: {left.__name__} != {right.__name__}"
        return _graph_diff(left.__self__, right.__self__,
                           f"{path}.__self__", pairs)
    if isinstance(left, (list, tuple, deque)):
        if len(left) != len(right):
            return f"{path}: length {len(left)} != {len(right)}"
        items = zip(range(len(left)), left, right)
    elif isinstance(left, (set, frozenset, array)):
        return None if left == right else f"{path}: {left!r} != {right!r}"
    else:
        if not isinstance(left, dict):
            left, right = _fields(left), _fields(right)
        if list(left) != list(right):
            return f"{path}: keys {list(left)} != {list(right)}"
        items = ((key, left[key], right[key]) for key in left)
    for key, a, b in items:
        step = f".{key}" if isinstance(key, str) else f"[{key!r}]"
        diff = _graph_diff(a, b, path + step, pairs)
        if diff:
            return diff
    return None


def _assert_same(left, right, context):
    assert left.stats == right.stats, f"{context}: stats diverged"
    assert left.ipc == right.ipc, context
    assert left.cycles == right.cycles, context
    assert left.l1_miss_rate == right.l1_miss_rate, context
    assert left.avg_load_latency == right.avg_load_latency, context
    assert left.prefetches_issued == right.prefetches_issued, context


# -- the golden contract: resume == uninterrupted, every mechanism -------------

@pytest.mark.parametrize("mechanism", ALL_MECHANISMS + EXTENSIONS)
def test_resume_is_bit_identical_for_every_mechanism(mechanism, swim_trace):
    for fast in (True, False):
        label = f"{mechanism} fast={fast}"
        clean = _run(swim_trace, mechanism, fast)

        writer = _MemCheckpointer(_EVERY)
        with_ckpt = _run(swim_trace, mechanism, fast, checkpoint=writer)
        _assert_same(with_ckpt, clean, f"{label}: checkpointing enabled")
        assert [i for i, _blob in writer.cuts] == [700, 1400, 2100, 2800], (
            f"{label}: unexpected cut schedule"
        )

        # Resume from the *middle* cut and finish the run.
        index, blob = writer.cuts[2]
        resumer = _MemCheckpointer(_EVERY, stash=(index, pickle.loads(blob)))
        resumed = _run(swim_trace, mechanism, fast, checkpoint=resumer)
        assert resumer.resumed == 1
        _assert_same(resumed, clean, f"{label}: resumed from {index}")

        # The resumed attempt's own cut at 2800 equals the uninterrupted
        # attempt's by value, over the whole machine — the state
        # converged exactly.  (Not by pickle bytes: those also record
        # which equal strings are one object, and unpickled strings are
        # never the interned constants the uninterrupted run holds.)
        assert [i for i, _blob in resumer.cuts] == [2800], label
        diff = _graph_diff(pickle.loads(resumer.cuts[0][1]),
                           pickle.loads(writer.cuts[3][1]))
        assert diff is None, f"{label}: post-resume cut diverged: {diff}"


@pytest.mark.parametrize("mechanism, path, value", [
    ("GHB", "hierarchy.l1d._tags.0", -7),
    ("GHB", "hierarchy.mechanism._head", 99),
    # Each of these was left out of the per-class snapshots.
    ("DBCP", "hierarchy.mechanism._evicting_frame", True),
    ("Base", "hierarchy._throttle_limit", 1),
    ("Base", "hierarchy.l2.mshr.capacity", 3),
    ("TK", "hierarchy.sim._draining", True),
])
def test_cut_comparison_catches_one_changed_attribute(
        mechanism, path, value, swim_trace):
    writer = _MemCheckpointer(_EVERY)
    _run(swim_trace, mechanism, True, checkpoint=writer)
    blob = writer.cuts[-1][1]
    cut, mutant = pickle.loads(blob), pickle.loads(blob)
    assert _graph_diff(cut, mutant) is None

    *parents, leaf = path.split(".")
    owner = mutant["core"]
    for name in parents:
        owner = getattr(owner, name)
    if leaf.isdigit():
        owner[int(leaf)] = value
    else:
        assert getattr(owner, leaf) != value
        setattr(owner, leaf, value)
    # The walk may reach the owner by another route (say, through
    # ``children``), so only the changed attribute's own step is pinned.
    step = f"{parents[-1]}[{leaf}]" if leaf.isdigit() else f".{leaf}"
    diff = _graph_diff(cut, mutant)
    assert diff is not None and f"{step}: " in diff, diff


def test_cut_image_leaves_its_pending_base_out_and_gets_it_back():
    """A still-pending base is not pickled; resume re-attaches it."""
    from repro.workloads.image import MemoryImage

    def image_with_base():
        image = MemoryImage()
        image._pending = (array("q", range(0, 80_000, 8)),
                          array("q", range(10_000)))
        return image

    cut = image_with_base()
    cut.write(16, 99)                      # an overlay store
    blob = pickle.dumps(cut)
    assert len(blob) < 1000                # the 160 KB base stayed out
    thawed = image_with_base()
    len(thawed)                            # a source whose base was read
    for source in (image_with_base(), thawed):
        resumed = pickle.loads(blob)
        resumed.reattach_base(source)
        assert [resumed.read(a) for a in (8, 16, 24)] == [1, 99, 3]
        assert len(resumed) == 10_000


# -- zero-cost when disabled ---------------------------------------------------

def test_disabled_fast_loop_source_is_checkpoint_free(swim_trace):
    """No checkpointer → the emitted source never mentions checkpoints.

    Byte-identical disabled source means the codecache entry is shared
    with checkpoint-free builds: the feature costs literally nothing
    until armed (the same guarantee the tracer's disabled path makes).
    """
    from repro.core.simulation import build_machine
    from repro.cpu.fastpath import TraceSpeculator

    _trace, image = swim_trace
    core, _hierarchy = build_machine(None, create("GHB"), image)
    speculator = TraceSpeculator(core.hierarchy)
    plain, _bind = core._emit_fast_loop(speculator.counts, None)
    assert "ckpt" not in plain and "resume" not in plain

    writer = _MemCheckpointer(_EVERY)
    cut = core._checkpoint_cut(writer, speculator)
    armed, _bind = core._emit_fast_loop(
        speculator.counts, None, ckpt_cut=cut, ckpt_every=_EVERY)
    assert "ckpt_cut" in armed and armed != plain


def test_disabled_overhead_under_two_percent(swim_trace):
    """The disabled path adds no per-record work at all.

    The checkpoint check is compiled out of the fast path and guarded by
    a never-true sentinel comparison in the interpreted loop — the same
    `index >= threshold` shape the sampler already pays.  Measure that
    one comparison and bound it against the 2% budget the tracer's
    disabled path is held to.
    """
    clean = _run(swim_trace, "TK", True)  # warm trace + code caches
    start = time.perf_counter()
    _run(swim_trace, "TK", True)
    run_wall = time.perf_counter() - start
    assert clean is not None

    sentinel = 1 << 62
    reps = 200_000
    start = time.perf_counter()
    index = 0
    for _ in range(reps):
        if index >= sentinel:
            pass  # pragma: no cover - sentinel is never reached
        index += 1
    per_check = (time.perf_counter() - start) / reps

    estimated = _N * per_check
    assert estimated < 0.02 * run_wall, (
        f"estimated disabled-path overhead {estimated * 1e3:.3f}ms "
        f"exceeds 2% of the {run_wall * 1e3:.1f}ms reference run"
    )


# -- the durable layer ---------------------------------------------------------

def test_checkpointer_disk_roundtrip_and_discard(tmp_path, swim_trace):
    spec_hash = "a" * 16
    writer = Checkpointer(tmp_path, spec_hash, _EVERY)
    with_ckpt = _run(swim_trace, "GHB", True, checkpoint=writer)
    assert writer.cuts == 4
    files = sorted((tmp_path / spec_hash).glob("*.ckpt"))
    assert [f.name for f in files] == [
        f"{i:012d}.ckpt" for i in (700, 1400, 2100, 2800)
    ]

    reader = Checkpointer(tmp_path, spec_hash, _EVERY)
    resumed = _run(swim_trace, "GHB", True, checkpoint=reader)
    assert reader.resumed == 1
    _assert_same(resumed, with_ckpt, "disk resume")

    assert reader.discard() >= 4
    assert not (tmp_path / spec_hash).exists()


def test_corrupt_newest_falls_back_to_older_snapshot(tmp_path, swim_trace):
    spec_hash = "b" * 16
    writer = Checkpointer(tmp_path, spec_hash, _EVERY)
    clean = _run(swim_trace, "GHB", True, checkpoint=writer)

    newest = checkpoint_path(tmp_path / spec_hash, 2800)
    blob = newest.read_bytes()
    newest.write_bytes(blob[: len(blob) * 2 // 3])  # torn payload

    loaded = load_latest(tmp_path / spec_hash, spec_hash)
    assert loaded is not None and loaded[0] == 2100

    resumed = _run(swim_trace, "GHB", True,
                   checkpoint=Checkpointer(tmp_path, spec_hash, _EVERY))
    _assert_same(resumed, clean, "resume past a torn snapshot")

    # Every snapshot defective -> start from scratch, same answer.
    for path in (tmp_path / spec_hash).glob("*.ckpt"):
        path.write_bytes(b"not a checkpoint\n")
    fresh = Checkpointer(tmp_path, spec_hash, _EVERY)
    scratch = _run(swim_trace, "GHB", True, checkpoint=fresh)
    assert fresh.resumed == 0
    _assert_same(scratch, clean, "all snapshots torn")


def _rewrite_header(path, **changes):
    """Edit a cut's header line in place, leaving its payload intact."""
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header.update(changes)
    header = {k: v for k, v in header.items() if v is not None}
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def test_cuts_from_other_source_or_version_are_skipped(tmp_path, swim_trace):
    spec_hash = "e" * 16
    clean = _run(swim_trace, "GHB", True)
    _run(swim_trace, "GHB", True,
         checkpoint=Checkpointer(tmp_path, spec_hash, _EVERY))
    cuts = sorted((tmp_path / spec_hash).glob("*.ckpt"))
    assert len(cuts) == 4
    for i, path in enumerate(cuts):
        if i % 2:
            _rewrite_header(path, version=1, source=None)  # a v1 header
        else:
            _rewrite_header(path, source="0" * 16)
    audit = audit_checkpoints(tmp_path)
    assert audit.ok == 0 and len(audit.defective) == 4
    reasons = " ".join(why for _rel, why in audit.defective)
    assert "version 1 != 2" in reasons
    assert f"other simulator source (0000000000000000 != {source_digest()})" \
        in reasons

    fresh = Checkpointer(tmp_path, spec_hash, _EVERY)
    scratch = _run(swim_trace, "GHB", True, checkpoint=fresh)
    assert fresh.resumed == 0
    _assert_same(scratch, clean, "cuts from other code skipped")


def test_wrong_spec_hash_is_never_served(tmp_path):
    write_checkpoint(tmp_path / "dir", "c" * 16, 100, {"x": 1})
    # The directory name is the identity fsck cross-checks; a reader
    # asking for a different spec must not get this snapshot.
    assert load_latest(tmp_path / "dir", "d" * 16) is None


# -- fault kinds ---------------------------------------------------------------

def test_parse_fault_spec_accepts_checkpoint_kinds():
    plan = parse_fault_spec(
        "kill-midrun:0.5,corrupt-checkpoint:0.25,seed=3")
    assert plan.kill_midrun == 0.5
    assert plan.corrupt_checkpoint == 0.25


def test_kill_midrun_schedule_is_deterministic_and_rate_bound():
    def kills(plan, key, attempt=1):
        with fault_plan(plan):
            return fires("kill-midrun", key, attempt)

    always = FaultPlan(kill_midrun=1.0, seed=9)
    never = FaultPlan(kill_midrun=0.0, seed=9)
    assert kills(always, "f" * 16)
    assert not kills(always, "f" * 16, attempt=2)   # the resume runs on
    assert not kills(never, "f" * 16)
    some = FaultPlan(kill_midrun=0.5, seed=9)
    first = [kills(some, f"{i:016x}") for i in range(32)]
    again = [kills(some, f"{i:016x}") for i in range(32)]
    assert first == again and any(first) and not all(first)


def test_maybe_corrupt_checkpoint_truncates_first_attempt_only(tmp_path):
    path = write_checkpoint(tmp_path, "e" * 16, 700, {"big": list(range(64))})
    whole = path.stat().st_size
    with fault_plan(FaultPlan(corrupt_checkpoint=1.0, seed=4)):
        assert not maybe_corrupt_checkpoint(path, "e" * 16, 700, attempt=2)
        assert path.stat().st_size == whole
        assert maybe_corrupt_checkpoint(path, "e" * 16, 700, attempt=1)
    assert path.stat().st_size < whole
    with pytest.raises(Exception):
        from repro.exec.checkpoint import read_checkpoint
        read_checkpoint(path, expected_spec="e" * 16)


# -- executor: crash mid-run, retry resumes, result unchanged ------------------

def test_executor_kill_midrun_resumes_bit_identical(tmp_path):
    specs = [RunSpec("swim", m, n_instructions=_N) for m in ("GHB", "TK")]
    clean = Executor(jobs=1).run([RunSpec("swim", m, n_instructions=_N)
                                  for m in ("GHB", "TK")])

    executor = Executor(
        jobs=1, store=ResultStore(tmp_path),
        policy=RetryPolicy(retries=1), checkpoint_every=1000,
    )
    with fault_plan(FaultPlan(kill_midrun=1.0, seed=5)):
        results = executor.run(specs)

    for crashed, baseline in zip(results, clean):
        _assert_same(crashed, baseline, "kill-midrun + resume")
    telemetry = executor.telemetry
    assert telemetry.retries == 2          # every first attempt was killed
    assert telemetry.resumed_from_ckpt == 2
    assert telemetry.checkpoints > 0
    assert "resumed-from-ckpt" in telemetry.summary_line()
    # Durable results retire their snapshots.
    assert list((tmp_path / "ckpt").rglob("*.ckpt")) == []


def test_fleet_kill_midrun_resumes_from_the_dead_workers_snapshot(
        tmp_path, leftovers):
    """At --jobs 2 the kill is a real worker death: the respawned
    worker's lease 2 resumes from the snapshot the dead one cut."""
    specs = [RunSpec("swim", m, n_instructions=_N) for m in ("GHB", "TK")]
    clean = Executor(jobs=1).run(specs)
    executor = Executor(
        jobs=2, store=ResultStore(tmp_path / "cache"), checkpoint_every=1000,
    )
    with fault_plan(FaultPlan(kill_midrun=1.0, seed=5)):
        results = executor.run(specs)
    for resumed, baseline in zip(results, clean):
        _assert_same(resumed, baseline, "worker death + resume")
    telemetry = executor.telemetry
    assert telemetry.pool_rebuilds == 2    # every first lease died mid-run
    assert telemetry.resumed_from_ckpt == 2
    assert telemetry.retries == 0          # a death is not an attempt
    assert list((tmp_path / "cache" / "ckpt").rglob("*.ckpt")) == []
    leftovers()


def test_clean_summary_line_has_no_checkpoint_counters():
    executor = Executor(jobs=1)
    executor.run([RunSpec("swim", n_instructions=2000)])
    line = executor.telemetry.summary_line()
    assert "checkpoint" not in line and "ckpt" not in line


# -- fleet worker: die mid-run for real, another process resumes ---------------

def _worker_cmd(cache, every):
    return [
        sys.executable, "-m", "repro.serve", "worker",
        "--cache-dir", str(cache), "--ttl", "0.5",
        "--drain", "--idle-timeout", "10",
        "--checkpoint-every", str(every),
    ]


def test_serve_worker_resumes_anothers_snapshot(tmp_path):
    from repro.exec.fleet import Fleet

    spec = RunSpec("swim", "GHB", n_instructions=_N)
    clean = Executor(jobs=1).run([spec])[0]

    store = ResultStore(tmp_path)
    Fleet(store.serve_dir, ttl=0.5).enqueue(
        {spec.content_hash: spec.describe()})
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_FAULTS"] = "kill-midrun:1.0,seed=11"

    first = subprocess.run(_worker_cmd(tmp_path, 1000), env=env, text=True,
                           capture_output=True, timeout=120)
    assert first.returncode == KILL_WORKER_EXIT, first.stderr
    cuts = list((store.ckpt_root / spec.content_hash).glob("*.ckpt"))
    assert cuts, "the dying worker left no snapshot to resume from"

    second = subprocess.run(_worker_cmd(tmp_path, 1000), env=env, text=True,
                            capture_output=True, timeout=120)
    assert second.returncode == 0, second.stderr

    result = store.get(spec)
    assert result is not None
    _assert_same(result, clean, "fleet resume across process death")
    # mark_done retires the snapshots.
    assert list(store.ckpt_root.rglob("*.ckpt")) == []


# -- fsck ----------------------------------------------------------------------

def test_audit_checkpoints_reports_and_prunes(tmp_path):
    root = tmp_path / "ckpt"
    spec = "f" * 16
    write_checkpoint(root / spec, spec, 700, {"x": 1})
    newest = write_checkpoint(root / spec, spec, 1400, {"x": 2})
    torn = write_checkpoint(root / spec, spec, 2100, {"x": 3})
    torn.write_bytes(torn.read_bytes()[:-8])
    stray = root / spec / ".000000002800.ckpt.999999999.tmp"
    stray.write_bytes(b"partial")

    audit = audit_checkpoints(root)
    assert audit.scanned == 3 and audit.ok == 2
    assert [rel for rel, _why in audit.defective] == [f"{spec}/{torn.name}"]
    assert audit.superseded == [f"{spec}/000000000700.ckpt"]
    assert audit.stale_temps == [f"{spec}/{stray.name}"]
    assert not audit.clean and audit.pruned == []

    pruned = audit_checkpoints(root, prune=True)
    assert len(pruned.pruned) == 3
    assert sorted((root / spec).iterdir()) == [newest]


def test_fsck_cli_flags_then_prunes_checkpoints(tmp_path):
    store = ResultStore(tmp_path)
    spec = "9" * 16
    torn = write_checkpoint(store.ckpt_root / spec, spec, 700, {"x": 1})
    torn.write_bytes(torn.read_bytes()[:-4])

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cmd = [sys.executable, "-m", "repro.exec", "fsck",
           "--cache-dir", str(tmp_path)]
    flagged = subprocess.run(cmd, env=env, text=True, capture_output=True,
                             timeout=120)
    assert flagged.returncode == 1, flagged.stdout
    assert "checkpoints: 1 scanned" in flagged.stdout
    assert "torn payload" in flagged.stdout

    repaired = subprocess.run(cmd + ["--prune"], env=env, text=True,
                              capture_output=True, timeout=120)
    assert repaired.returncode == 0, repaired.stdout
    assert not (store.ckpt_root / spec).exists()

    clean = subprocess.run(cmd, env=env, text=True, capture_output=True,
                           timeout=120)
    assert clean.returncode == 0, clean.stdout
