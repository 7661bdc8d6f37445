"""simlint static analyzer, the runtime sanitizer, and store atomicity."""

import dataclasses
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_paths
from repro.cache.hierarchy import MemoryHierarchy
from repro.cachedir import temp_owner_alive
from repro.core.config import baseline_config
from repro.core.simulation import RunResult
from repro.exec import ResultStore, RunSpec
from repro.exec.checkpoint import audit_checkpoints, write_checkpoint
from repro.workloads import store as workload_store
from repro.workloads.image import MemoryImage
from repro.mechanisms.base import Mechanism
from repro.kernel.engine import Event, Simulator
from repro.sanitize import SanitizeError

REPO = Path(__file__).resolve().parent.parent
SRC_TREE = REPO / "src" / "repro"
FIXTURES = REPO / "tests" / "analysis_fixtures"

#: Every known-bad fixture and the single rule it must trigger.
FIXTURE_RULES = {
    "bare_allowlist.py": "SIM001",
    "bad_level.py": "SIM101",
    "bad_hook_name.py": "SIM102",
    "bad_hook_signature.py": "SIM103",
    "raw_queue_push.py": "SIM104",
    "undeclared_structure.py": "SIM105",
    "bad_registry.py": "SIM106",
    "unseeded_rng.py": "SIM201",
    "wall_clock.py": "SIM202",
    "env_read.py": "SIM203",
    "set_iteration.py": "SIM204",
    "mutable_spec.py": "SIM301",
    "hash_omission.py": "SIM302",
    "unhashable_field.py": "SIM303",
    "duplicate_stat.py": "SIM401",
    "duplicate_port.py": "SIM402",
    "unbound_port.py": "SIM403",
    "orphan_stat.py": "SIM501",
    "fstring_span.py": "SIM502",
    "swallowed_exception.py": "SIM601",
    "trapped_interrupt.py": "SIM602",
    "blocking_async.py": "SIM604",
    "unbounded_queue.py": "SIM605",
    "unhoisted_chain.py": "SIM701",
    "loop_allocation.py": "SIM702",
    "per_iteration_frame.py": "SIM703",
    "unhoisted_subscript.py": "SIM704",
    "self_call_in_loop.py": "SIM705",
    "unguarded_state.py": "SIM801",
    "replay_out_of_order.py": "SIM802",
    "stale_constant.py": "SIM803",
}


def _lint_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=_lint_env(), cwd=REPO,
    )


# -- the analyzer --------------------------------------------------------------

def test_every_fixture_is_mapped():
    on_disk = {p.name for p in FIXTURES.glob("*.py")}
    assert on_disk == set(FIXTURE_RULES)


@pytest.mark.parametrize("fixture,expected", sorted(FIXTURE_RULES.items()))
def test_fixture_triggers_exactly_its_rule(fixture, expected):
    violations = analyze_paths([FIXTURES / fixture])
    assert violations, f"{fixture} produced no violations"
    assert {v.rule for v in violations} == {expected}


def test_shipped_tree_is_violation_free():
    violations = analyze_paths([SRC_TREE])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_rule_catalog_is_well_formed():
    rules = all_rules()
    assert len({r.rule_id for r in rules}) == len(rules)
    assert set(FIXTURE_RULES.values()) <= (
        {r.rule_id for r in rules} | {"SIM001"}
    )
    for r in rules:
        assert r.doc, f"{r.rule_id} has no doc"


def test_allow_with_reason_suppresses(tmp_path):
    bad = tmp_path / "snippet.py"
    bad.write_text(
        "import os\n"
        'FLAG = os.environ.get("X")  # simlint: allow[SIM203] read once at import\n'
    )
    assert analyze_paths([bad]) == []


def test_allow_on_preceding_line_suppresses(tmp_path):
    bad = tmp_path / "snippet.py"
    bad.write_text(
        "import os\n"
        "# simlint: allow[SIM203] read once at import\n"
        'FLAG = os.environ.get("X")\n'
    )
    assert analyze_paths([bad]) == []


def test_allow_for_other_rule_does_not_suppress(tmp_path):
    bad = tmp_path / "snippet.py"
    bad.write_text(
        "import os\n"
        'FLAG = os.environ.get("X")  # simlint: allow[SIM999] wrong rule\n'
    )
    assert {v.rule for v in analyze_paths([bad])} == {"SIM203"}


def test_bare_allow_is_itself_flagged(tmp_path):
    bad = tmp_path / "snippet.py"
    bad.write_text(
        "import os\n"
        'FLAG = os.environ.get("X")  # simlint: allow[SIM203]\n'
    )
    assert {v.rule for v in analyze_paths([bad])} == {"SIM001"}


def test_full_run_parses_each_file_exactly_once():
    from repro.analysis.core import clear_parse_cache, parse_count

    clear_parse_cache()
    try:
        n_files = len(list(SRC_TREE.rglob("*.py")))
        analyze_paths([SRC_TREE])
        assert parse_count() == n_files
        # A second run over the same (unchanged) tree is served entirely
        # from the parse cache.
        analyze_paths([SRC_TREE])
        assert parse_count() == n_files
    finally:
        clear_parse_cache()


def test_parse_cache_notices_edits(tmp_path):
    from repro.analysis.core import clear_parse_cache, parse_count

    clear_parse_cache()
    try:
        snippet = tmp_path / "snippet.py"
        snippet.write_text("A = 1\n")
        analyze_paths([snippet])
        assert parse_count() == 1
        # Same content, same mtime: cached.
        analyze_paths([snippet])
        assert parse_count() == 1
        snippet.write_text("A = 2  # changed\n")
        os.utime(snippet, ns=(1, 1))  # force a distinct mtime
        analyze_paths([snippet])
        assert parse_count() == 2
    finally:
        clear_parse_cache()


def test_syntax_error_becomes_sim000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    assert {v.rule for v in analyze_paths([bad])} == {"SIM000"}


def test_select_filters_rules():
    violations = analyze_paths(
        [FIXTURES / "unseeded_rng.py"], select=["SIM4"]
    )
    assert violations == []


# -- the CLI -------------------------------------------------------------------

def test_cli_clean_tree_exits_zero():
    proc = _run_cli(str(SRC_TREE))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violations" in proc.stderr


def test_cli_violations_exit_one():
    proc = _run_cli(str(FIXTURES / "wall_clock.py"))
    assert proc.returncode == 1
    assert "SIM202" in proc.stdout


def test_cli_sarif_format():
    import json

    proc = _run_cli(str(FIXTURES / "wall_clock.py"), "--format", "sarif")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["version"] == "2.1.0"
    run = report["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    results = run["results"]
    assert results, "expected at least one SARIF result"
    for result in results:
        assert result["ruleId"] in rule_ids
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("wall_clock.py")
        assert location["region"]["startLine"] >= 1
    assert any(r["ruleId"] == "SIM202" for r in results)


def test_cli_sarif_clean_tree():
    import json

    proc = _run_cli(str(SRC_TREE), "--format", "sarif")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["runs"][0]["results"] == []


def test_cli_bad_path_exits_two():
    proc = _run_cli(str(REPO / "no" / "such" / "path.py"))
    assert proc.returncode == 2


def test_cli_default_target_is_the_package():
    proc = _run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- the runtime sanitizer -----------------------------------------------------

def test_sanitizer_rejects_non_integer_event_time(monkeypatch):
    monkeypatch.setattr("repro.kernel.engine.SANITIZE", True)
    sim = Simulator()
    with pytest.raises(SanitizeError):
        sim.schedule(1.5, lambda: None)


def test_sanitizer_detects_broken_monotonicity(monkeypatch):
    monkeypatch.setattr("repro.kernel.engine.SANITIZE", True)
    sim = Simulator()
    sim.run_until(10)
    # Bypass schedule()'s clamp to model a corrupted queue.
    import heapq

    sim._buckets[5] = [Event(5, 0, lambda: None, ())]
    heapq.heappush(sim._times, 5)
    sim._live += 1
    with pytest.raises(SanitizeError):
        sim.run()


def test_sanitizer_rejects_negative_prefetch(monkeypatch):
    monkeypatch.setattr("repro.mechanisms.base.SANITIZE", True)

    class Toy(Mechanism):
        QUEUE_SIZE = 2

    mech = Toy()
    assert mech.emit_prefetch(64, time=3)
    with pytest.raises(SanitizeError):
        mech.emit_prefetch(-64, time=3)


def test_sanitize_verify_passes_on_healthy_hierarchy(monkeypatch):
    monkeypatch.setattr("repro.cache.hierarchy.SANITIZE", True)

    class Toy(Mechanism):
        LEVEL = "l1"
        QUEUE_SIZE = 2

    hier = MemoryHierarchy(baseline_config(), mechanism=Toy())
    hier.sanitize_verify()


def test_sanitize_verify_catches_config_mutation(monkeypatch):
    monkeypatch.setattr("repro.cache.hierarchy.SANITIZE", True)
    hier = MemoryHierarchy(baseline_config())
    object.__setattr__(hier.config, "precise_cache", not hier.config.precise_cache)
    with pytest.raises(SanitizeError):
        hier.sanitize_verify()


def test_sanitize_verify_catches_broken_wiring(monkeypatch):
    monkeypatch.setattr("repro.cache.hierarchy.SANITIZE", True)

    class Toy(Mechanism):
        LEVEL = "l1"

    hier = MemoryHierarchy(baseline_config(), mechanism=Toy())
    hier.l1d.mechanism = None
    with pytest.raises(SanitizeError):
        hier.sanitize_verify()


def test_sanitize_verify_is_noop_when_disarmed(monkeypatch):
    monkeypatch.setattr("repro.cache.hierarchy.SANITIZE", False)
    hier = MemoryHierarchy(baseline_config())
    object.__setattr__(hier.config, "precise_cache", not hier.config.precise_cache)
    hier.sanitize_verify()  # must not raise


def test_sanitized_run_end_to_end():
    env = _lint_env()
    env["REPRO_SANITIZE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.core import run_benchmark;"
         "r = run_benchmark('swim', 'TP', n_instructions=1500);"
         "assert r.cycles > 0"],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- store atomicity -----------------------------------------------------------

def _result(benchmark="swim", mechanism="Base"):
    return RunResult(
        benchmark=benchmark, mechanism=mechanism, ipc=1.0, cycles=10,
        instructions=10, l1_miss_rate=0.0, l2_miss_rate=0.0,
        avg_load_latency=1.0, avg_memory_latency=1.0, memory_accesses=0.0,
        prefetches_issued=0.0, useful_prefetches=0.0,
        mechanism_table_accesses=0.0,
    )


def test_put_leaves_no_temp_files(tmp_path):
    store = ResultStore(tmp_path)
    spec = RunSpec("swim", "Base", n_instructions=500)
    store.put(spec, _result())
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(tmp_path.glob(".*.tmp")) == []
    assert dataclasses.asdict(store.get(spec)) == dataclasses.asdict(_result())


def test_failed_write_preserves_existing_entry(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    spec = RunSpec("swim", "Base", n_instructions=500)
    store.put(spec, _result())
    before = store.path_for(spec).read_text("utf-8")

    def explode(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.cachedir.os.replace", explode)
    with pytest.raises(OSError):
        store.put(spec, _result(mechanism="TP"))
    assert store.path_for(spec).read_text("utf-8") == before
    assert list(tmp_path.glob(".*.tmp")) == []


class _TornFile(io.FileIO):
    """A file whose first write lands half its bytes, then fails."""

    def write(self, data):
        super().write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "no space left on device (test)")


def _write_with(caller, root):
    """Write one file of ``caller``'s kind under ``root``."""
    if caller == "put":
        ResultStore(root).put(RunSpec("swim", "Base", n_instructions=500),
                              _result())
    elif caller == "checkpoint":
        write_checkpoint(root / "ckpt" / ("f" * 16), "f" * 16, 700,
                         {"records": 700})
    else:
        workload_store.save("swim", 500, [], MemoryImage())


@pytest.mark.parametrize("caller", ["put", "checkpoint", "workload"])
def test_failed_write_leaves_no_temp_and_no_file(tmp_path, monkeypatch,
                                                 caller):
    """An OSError mid-write removes the temp and publishes nothing; the
    workload store, a best-effort cache, swallows the error."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr("repro.cachedir.open",
                        lambda path, mode: _TornFile(path, "w"),
                        raising=False)
    if caller == "workload":
        _write_with(caller, tmp_path)
    else:
        with pytest.raises(OSError):
            _write_with(caller, tmp_path)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
    monkeypatch.undo()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    _write_with(caller, tmp_path)  # the same write lands with room
    assert len([p for p in tmp_path.rglob("*") if p.is_file()]) == 1


def test_sweep_removes_dead_writers_temp(tmp_path):
    store = ResultStore(tmp_path)
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    stale = tmp_path / f".deadbeef.json.{proc.pid}.tmp"
    stale.write_text("{}")
    junk = tmp_path / ".deadbeef.json.notapid.tmp"
    junk.write_text("{}")
    mine = tmp_path / f".deadbeef.json.{os.getpid()}.tmp"
    mine.write_text("{}")

    store.put(RunSpec("swim", "Base", n_instructions=500), _result())
    assert not stale.exists(), "dead writer's temp should be swept"
    assert not junk.exists(), "malformed temp should be swept"
    assert mine.exists(), "a live writer's temp must be left alone"


@pytest.mark.parametrize("pid", ["0", "-4", "\u00b2", str(1 << 40),
                                 "9" * 20])
def test_temp_with_impossible_pid_reads_as_dead(tmp_path, pid):
    assert not temp_owner_alive(tmp_path / f".x.json.{pid}.tmp")
    assert temp_owner_alive(tmp_path / f".x.json.{os.getpid()}.tmp")


@pytest.mark.parametrize("path", ["put", "fsck", "audit_checkpoints"])
def test_out_of_range_temp_pid_is_swept_not_raised(tmp_path, path):
    """A temp whose pid overflows a C long is stale on every sweep path."""
    store = ResultStore(tmp_path)
    spec = RunSpec("swim", "Base", n_instructions=500)
    pid = "9" * 20
    if path == "audit_checkpoints":
        spec_dir = store.ckpt_root / ("f" * 16)
        spec_dir.mkdir(parents=True)
        stray = spec_dir / f".000000000700.ckpt.{pid}.tmp"
        stray.write_bytes(b"partial")
        audit = audit_checkpoints(store.ckpt_root)
        assert audit.stale_temps == [f"{spec_dir.name}/{stray.name}"]
        return
    shard = store.path_for(spec).parent
    shard.mkdir(parents=True, exist_ok=True)
    stray = shard / f".x.{pid}.tmp"
    stray.write_text("{}")
    if path == "fsck":
        assert store.fsck().stale_temps == [stray.name]
    else:
        store.put(spec, _result())
        assert store.get(spec) is not None
        assert not stray.exists()


def test_truncated_entry_reads_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    spec = RunSpec("swim", "Base", n_instructions=500)
    path = store.put(spec, _result())
    path.write_text(path.read_text("utf-8")[:40])
    assert store.get(spec) is None
