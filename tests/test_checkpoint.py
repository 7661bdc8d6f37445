"""Mid-run checkpointing: bit-identical resume, durability, chaos, fsck.

The contract under test (see :mod:`repro.exec.checkpoint`): a run that
is interrupted and resumed from a mid-run snapshot must finish with a
result **bit-identical** to an uninterrupted run — for every registered
mechanism, on both the interpreted reference loop and the generated
fast path — and the disabled path must cost nothing (its emitted source
is byte-identical to a checkpoint-free build).  On top of the in-memory
protocol, the durable layer is exercised end to end: atomic files,
corrupt-tail fallback to the next-older snapshot, executor crash-resume
under ``kill-midrun`` chaos, a fleet worker resuming another worker's
snapshot across real process deaths, and the ``fsck`` audit.
"""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.simulation import run_trace
from repro.exec import Executor, ResultStore, RetryPolicy, RunSpec
from repro.exec.checkpoint import (
    Checkpointer,
    audit_checkpoints,
    checkpoint_path,
    load_latest,
    write_checkpoint,
)
from repro.exec.faults import (
    KILL_WORKER_EXIT,
    FaultPlan,
    maybe_corrupt_checkpoint,
    parse_fault_spec,
    set_active_plan,
    should_kill_midrun,
)
from repro.mechanisms.registry import ALL_MECHANISMS, EXTENSIONS, create
from repro.workloads.registry import build as build_workload

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

        # Resume from the *middle* snapshot and finish the run.
        index, blob = writer.cuts[2]
        resumer = _MemCheckpointer(_EVERY, stash=(index, pickle.loads(blob)))
        resumed = _run(swim_trace, mechanism, fast, checkpoint=resumer)
        assert resumer.resumed == 1
        _assert_same(resumed, clean, f"{label}: resumed from {index}")

        # The resumed attempt's own cut at 2800 is byte-identical to the
        # uninterrupted attempt's — the machine state converged exactly.
        assert resumer.cuts == [writer.cuts[3]], (
            f"{label}: post-resume snapshot diverged from the "
            "uninterrupted attempt's"
        )


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


def test_should_kill_midrun_is_deterministic_and_rate_bound():
    always = FaultPlan(kill_midrun=1.0, seed=9)
    never = FaultPlan(kill_midrun=0.0, seed=9)
    assert should_kill_midrun(always, "f" * 16)
    assert not should_kill_midrun(never, "f" * 16)
    some = FaultPlan(kill_midrun=0.5, seed=9)
    first = [should_kill_midrun(some, f"{i:016x}") for i in range(32)]
    again = [should_kill_midrun(some, f"{i:016x}") for i in range(32)]
    assert first == again and any(first) and not all(first)


def test_maybe_corrupt_checkpoint_truncates_first_attempt_only(tmp_path):
    plan = FaultPlan(corrupt_checkpoint=1.0, seed=4)
    path = write_checkpoint(tmp_path, "e" * 16, 700, {"big": list(range(64))})
    whole = path.stat().st_size
    assert not maybe_corrupt_checkpoint(plan, path, "e" * 16, 700, attempt=2)
    assert path.stat().st_size == whole
    assert maybe_corrupt_checkpoint(plan, path, "e" * 16, 700, attempt=1)
    assert path.stat().st_size < whole
    with pytest.raises(Exception):
        from repro.exec.checkpoint import read_checkpoint
        read_checkpoint(path, expected_spec="e" * 16)


# -- executor: crash mid-run, retry resumes, result unchanged ------------------

def test_executor_kill_midrun_resumes_bit_identical(tmp_path):
    specs = [RunSpec("swim", m, n_instructions=_N) for m in ("GHB", "TK")]
    clean = Executor(jobs=1).run([RunSpec("swim", m, n_instructions=_N)
                                  for m in ("GHB", "TK")])

    old = set_active_plan(FaultPlan(kill_midrun=1.0, seed=5))
    try:
        executor = Executor(
            jobs=1, store=ResultStore(tmp_path),
            policy=RetryPolicy(retries=1), checkpoint_every=1000,
        )
        results = executor.run(specs)
    finally:
        set_active_plan(old)

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
        faults=FaultPlan(kill_midrun=1.0, seed=5),
    )
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


# -- the SIM9xx lint guards the protocol ---------------------------------------

def test_sim901_catches_a_mutated_declaration(tmp_path):
    """Drop one field from a declaring class -> the lint must object."""
    from repro.analysis import analyze_paths

    snippet = tmp_path / "mutant.py"
    snippet.write_text(
        "class Table:\n"
        '    SNAPSHOT_FIELDS = ("_rows",)\n'
        '    SNAPSHOT_EXEMPT = ("width",)\n'
        "\n"
        "    def __init__(self, width):\n"
        "        self.width = width\n"
        "        self._rows = []\n"
        "        self._dirty = set()\n"   # the forgotten field
    )
    violations = analyze_paths([snippet])
    assert [v.rule for v in violations] == ["SIM901"]
    assert "_dirty" in violations[0].message

    # Declaring it heals the tree.
    snippet.write_text(snippet.read_text().replace(
        '("_rows",)', '("_rows", "_dirty")'))
    assert analyze_paths([snippet]) == []


def test_sim902_catches_a_phantom_declaration(tmp_path):
    from repro.analysis import analyze_paths

    snippet = tmp_path / "phantom.py"
    snippet.write_text(
        "class Table:\n"
        '    SNAPSHOT_FIELDS = ("_rows", "_gone")\n'
        "\n"
        "    def __init__(self):\n"
        "        self._rows = []\n"
    )
    violations = analyze_paths([snippet])
    assert [v.rule for v in violations] == ["SIM902"]
    assert "_gone" in violations[0].message


def test_sim901_resolves_inheritance_across_modules(tmp_path):
    """A subclass inherits its base's exemptions, wherever the base lives."""
    from repro.analysis import analyze_paths

    base = tmp_path / "basemod.py"
    base.write_text(
        "class Base:\n"
        '    SNAPSHOT_FIELDS = ("_state",)\n'
        '    SNAPSHOT_EXEMPT = ("config",)\n'
        "\n"
        "    def __init__(self, config):\n"
        "        self.config = config\n"
        "        self._state = 0\n"
    )
    child = tmp_path / "childmod.py"
    child.write_text(
        "class Child(Base):\n"
        '    SNAPSHOT_FIELDS = ("_extra",)\n'
        "\n"
        "    def __init__(self, config):\n"
        "        self.config = config\n"      # exempt via the base
        "        self._extra = []\n"
        "        self.stat = self.add_stat('hits')\n"  # auto-exempt
    )
    assert analyze_paths([base, child]) == []
