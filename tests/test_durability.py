"""Durable sweeps: write-ahead journal, resume, signals, store integrity.

The convergence arguments these tests rely on are deterministic by
construction: fault decisions are pure functions of (seed, kind, key,
sequence), the kill-orchestrator fault fires only *after* a spec was
absorbed (stored + journaled), and journal replay is last-record-wins —
so the subprocess chaos loops here provably terminate and the resumed
output is asserted byte-identical, not merely "close".
"""

import dataclasses
import glob
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec import (
    Executor,
    FailedRun,
    FaultPlan,
    ResultStore,
    RetryPolicy,
    RunSpec,
    ShutdownManager,
    SweepInterrupted,
    SweepJournal,
    read_state,
    scan_journals,
    sweep_identity,
)
from repro.exec.faults import should_corrupt_journal
from repro.exec.journal import journal_path
from repro.exec.store import STORE_VERSION, result_checksum
from repro.exec.telemetry import SOURCE_JOURNAL, RunRecord, Telemetry
from repro.obs.ledger import Ledger, make_record
from repro.obs.metrics import MetricsRegistry, executor_summary_line
from repro.serve import Fleet

REPO = Path(__file__).resolve().parent.parent

N = 2000
GRID_BENCHMARKS = ("swim", "gzip")
GRID_MECHANISMS = ("Base", "TP")

#: Lenient, no-sleep policy shared by the in-process resume tests.
_LENIENT = dict(retries=0, strict=False, backoff_base=0.0)


def _grid_specs():
    return [
        RunSpec(benchmark, mechanism, n_instructions=N)
        for mechanism in GRID_MECHANISMS
        for benchmark in GRID_BENCHMARKS
    ]


def _as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


def _executor(store, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("journal_dir", store.journal_dir)
    return Executor(store=store, **kwargs)


# -- sweep identity ------------------------------------------------------------

def test_sweep_identity_is_stable_and_sensitive():
    policy = RetryPolicy()
    base = sweep_identity(["h1", "h2"], policy)
    assert base == sweep_identity(["h1", "h2"], policy)
    assert base != sweep_identity(["h2", "h1"], policy)      # order matters
    assert base != sweep_identity(["h1", "h2", "h2"], policy)  # shape matters
    # The policy gates replay: failures recorded under one retry budget
    # must not be served to a run with a different one.
    assert base != sweep_identity(["h1", "h2"], RetryPolicy(retries=3))


def test_journal_path_is_stable(tmp_path):
    sweep = sweep_identity(["h1"], RetryPolicy())
    assert journal_path(tmp_path, sweep) == journal_path(tmp_path, sweep)
    assert journal_path(tmp_path, sweep).suffix == ".jsonl"


# -- the journal file ----------------------------------------------------------

def test_journal_round_trips_lifecycle(tmp_path):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, "abc")
    journal.start(2, 3, RetryPolicy())
    journal.planned("h1", "swim", "Base")
    journal.planned("h2", "gzip", "TP")
    journal.dispatched("h1", 1)
    journal.done("h1", "swim", "Base", "simulated", 0.25)
    failure = FailedRun(spec_hash="h2", benchmark="gzip", mechanism="TP",
                        attempts=2, error="boom", kind="error")
    journal.failed(failure)
    journal.complete(2)

    state = read_state(path)
    assert state is not None
    assert state.sweep_id == "abc"
    assert set(state.done) == {"h1"}
    assert state.done["h1"]["source"] == "simulated"
    assert state.failures == {"h2": failure}
    assert state.complete
    assert state.corrupt_lines == 0
    assert state.resolved == 2
    # Every line is one parseable record with the version stamp.
    for line in path.read_text().splitlines():
        assert json.loads(line)["v"] == 1


def test_read_state_missing_file_is_none(tmp_path):
    assert read_state(tmp_path / "absent.jsonl") is None


def test_journal_replay_is_last_record_wins(tmp_path):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, "abc")
    failure = FailedRun(spec_hash="h1", benchmark="swim", mechanism="Base",
                        attempts=1, error="boom")
    journal.failed(failure)
    journal.done("h1", "swim", "Base", "simulated")  # --retry-failed succeeded
    state = read_state(path)
    assert set(state.done) == {"h1"} and not state.failures

    journal.failed(failure)                          # ...and the reverse
    state = read_state(path)
    assert set(state.failures) == {"h1"} and not state.done


def test_timeout_failures_keep_their_kind_through_replay(tmp_path):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, "abc")
    failure = FailedRun(spec_hash="h1", benchmark="swim", mechanism="Base",
                        attempts=3, error="hung", kind="timeout")
    journal.failed(failure)
    assert json.loads(path.read_text())["kind"] == "timeout"
    assert read_state(path).failures["h1"].kind == "timeout"


def test_corrupt_journal_fault_tears_the_tail_only(tmp_path):
    path = tmp_path / "sweep.jsonl"
    plan = FaultPlan(corrupt_journal=1.0)
    journal = SweepJournal(path, "abc", plan=plan)
    journal.done("h1", "swim", "Base", "simulated")
    journal.done("h2", "gzip", "TP", "simulated")
    state = read_state(path)
    # Every append was torn, every tear cost exactly its own record.
    assert state.corrupt_lines == 2 and not state.done
    assert state.lines == 2  # torn lines still count (the sequence)
    assert should_corrupt_journal(None, "k", 1) is False

    # The sequence number continues across resumes, so the same record
    # re-appended later lands on a fresh schedule slot: with a seeded
    # half-rate plan the decision differs by sequence, not by content.
    half = FaultPlan(corrupt_journal=0.5, seed=3)
    decisions = {seq: half.decide("corrupt-journal", "done:h1", seq)
                 for seq in range(1, 40)}
    assert len(set(decisions.values())) == 2


# -- one log format: every log, every kind of damage ---------------------------
#
# The sweep journal, the fleet WAL and the ledger share one append and
# one replay (repro.exec.journal); each is driven here through its own
# writer and reader.  A log is (path, append(key), read() -> (keys,
# skipped lines)).

def _journal_log(tmp_path):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, "abc")

    def read():
        state = read_state(path)
        return list(state.done), state.corrupt_lines

    return path, lambda key: journal.done(key, "swim", "Base",
                                          "simulated"), read


def _wal_log(tmp_path):
    fleet = Fleet(tmp_path)

    def read():
        snap = fleet.snapshot()
        return list(snap.enqueued), snap.corrupt_lines

    return fleet.queue_path, lambda key: fleet.enqueue(
        {key: {"benchmark": "swim"}}), read


def _ledger_log(tmp_path):
    ledger = Ledger(tmp_path / "BENCH_obs.json")

    def read():
        records, problems = ledger.scan()
        return [r.label for r in records], len(problems)

    return ledger.path, lambda key: ledger.append(
        make_record(key, wall_seconds=1.0)), read


LOGS = {"journal": _journal_log, "wal": _wal_log, "ledger": _ledger_log}


def _newer_version(line):
    record = json.loads(line)
    record["v"] = 2
    return json.dumps(record, sort_keys=True).encode()


DAMAGE = {
    "torn": lambda line: line[: len(line) // 2],   # cut mid-write
    "non-object": lambda line: b"[1, 2, 3]",
    "non-utf8": lambda line: line[:5] + b"\xff" + line[6:],  # bit rot
    "newer-v": _newer_version,
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("log", sorted(LOGS))
def test_every_log_skips_only_the_damaged_line(tmp_path, log, damage):
    path, append, read = LOGS[log](tmp_path)
    for key in ("a", "b", "c"):
        append(key)
    lines = path.read_bytes().splitlines()
    lines[1] = DAMAGE[damage](lines[1])
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert read() == (["a", "c"], 1)


@pytest.mark.parametrize("log", sorted(LOGS))
def test_a_write_failing_mid_line_is_rolled_back(tmp_path, log):
    path, append, read = LOGS[log](tmp_path)
    append("a")
    # A full disk, as the kernel reports one: past RLIMIT_FSIZE the next
    # write lands part of its line, then fails with EFBIG.
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (path.stat().st_size + 16, hard))
    try:
        with pytest.raises(OSError):
            append("b")
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    append("c")
    assert read() == (["a", "c"], 0)


# -- executor integration: journal + resume ------------------------------------

def test_multi_spec_batches_journal_and_resume_serves(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    first = _executor(store)
    originals = first.run(specs)
    assert first.telemetry.simulated == len(specs)

    ((path, state),) = scan_journals(store.journal_dir)
    assert state.complete and set(state.done) == {
        s.content_hash for s in specs
    }

    resumed = _executor(store, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.journal_served == len(specs)
    assert resumed.telemetry.simulated == 0
    assert resumed.telemetry.store_hits == 0
    assert _as_dicts(results) == _as_dicts(originals)   # bit-identical
    assert all(r.source == SOURCE_JOURNAL
               for r in resumed.telemetry.records)
    assert "journal-served" in resumed.telemetry.summary_line()


def test_single_spec_batches_do_not_journal(tmp_path):
    store = ResultStore(tmp_path / "cache")
    _executor(store).run([RunSpec("swim", n_instructions=N)])
    assert scan_journals(store.journal_dir) == []


def test_journaling_off_without_a_journal_dir(tmp_path):
    store = ResultStore(tmp_path / "cache")
    executor = Executor(jobs=1, store=store)   # library default: no journal
    executor.run(_grid_specs())
    assert not store.journal_dir.exists()


def test_fresh_run_overwrites_incomplete_journal_with_a_hint(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    _executor(store).run(specs)
    ((path, _),) = scan_journals(store.journal_dir)
    lines = [l for l in path.read_text().splitlines()
             if "sweep-complete" not in l]
    path.write_text("\n".join(lines) + "\n")

    fresh = _executor(store)   # no --resume
    fresh.run(specs)
    err = capsys.readouterr().err
    assert "pass --resume" in err
    assert fresh.telemetry.journal_served == 0
    assert fresh.telemetry.store_hits == len(specs)
    assert read_state(path).complete   # the overwritten journal finished


def test_resume_with_missing_store_entry_resimulates(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    first = _executor(store)
    originals = first.run(specs)
    victim = specs[0]
    store.path_for(victim).unlink()   # the journal promises, the store rotted

    resumed = _executor(store, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.journal_served == len(specs) - 1
    assert resumed.telemetry.simulated == 1
    assert _as_dicts(results) == _as_dicts(originals)


def test_pool_runs_journal_and_resume_identically(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    first = _executor(store, jobs=2)
    originals = first.run(specs)
    resumed = _executor(store, jobs=2, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.journal_served == len(specs)
    assert _as_dicts(results) == _as_dicts(originals)


def test_corrupt_journal_chaos_degrades_to_store_hits(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    chaotic = _executor(store, faults=FaultPlan(corrupt_journal=1.0))
    originals = chaotic.run(specs)    # journal useless, store intact

    resumed = _executor(store, resume=True)
    results = resumed.run(specs)
    assert resumed.telemetry.journal_served == 0
    assert resumed.telemetry.store_hits == len(specs)
    assert _as_dicts(results) == _as_dicts(originals)


# -- persisted failures and --retry-failed -------------------------------------

def test_journaled_failures_are_served_not_rerun(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    policy = RetryPolicy(**_LENIENT)
    crashed = _executor(store, policy=policy, faults=FaultPlan(crash=1.0))
    holes = crashed.run(specs)
    assert all(isinstance(r, FailedRun) for r in holes)

    served = _executor(store, policy=policy, resume=True)   # faults gone
    results = served.run(specs)
    assert served.telemetry.journal_served == len(specs)
    assert served.telemetry.simulated == 0      # exhausted specs NOT re-run
    assert results == holes

    retried = _executor(store, policy=policy, resume=True, retry_failed=True)
    recovered = retried.run(specs)
    assert retried.telemetry.simulated == len(specs)
    assert not any(isinstance(r, FailedRun) for r in recovered)

    # Last-record-wins: the next resume serves the recovered results.
    again = _executor(store, policy=policy, resume=True)
    assert not any(isinstance(r, FailedRun) for r in again.run(specs))
    assert again.telemetry.journal_served == len(specs)


def test_strict_resume_reruns_journaled_failures(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    lenient = RetryPolicy(**_LENIENT)
    _executor(store, policy=lenient, faults=FaultPlan(crash=1.0)).run(specs)

    # A strict run must never serve a hole as an answer: re-run them.
    # (Different policy -> different sweep identity -> fresh journal.)
    strict = _executor(store, policy=RetryPolicy(strict=True), resume=True)
    results = strict.run(specs)
    assert strict.telemetry.simulated == len(specs)
    assert not any(isinstance(r, FailedRun) for r in results)


# -- graceful shutdown ---------------------------------------------------------

def test_shutdown_manager_request_and_reset():
    manager = ShutdownManager(grace=1.0)
    assert manager.requested is None and not manager.installed
    manager._handle(signal.SIGTERM, None)
    assert manager.requested == signal.SIGTERM
    assert manager.exit_code() == 143
    with pytest.raises(SweepInterrupted) as excinfo:
        manager.interrupt_if_requested()
    assert excinfo.value.signum == signal.SIGTERM
    assert excinfo.value.exit_code == 143
    manager.reset()
    assert manager.requested is None
    manager.interrupt_if_requested()   # no-op after reset


def test_shutdown_manager_install_restores_handlers():
    manager = ShutdownManager()
    before = signal.getsignal(signal.SIGTERM)
    manager.install((signal.SIGTERM,))
    assert manager.installed
    assert signal.getsignal(signal.SIGTERM) == manager._handle
    manager.uninstall()
    assert signal.getsignal(signal.SIGTERM) == before
    assert not manager.installed


def test_sweep_interrupted_is_base_exception():
    # Lenient result handling catches Exception; the interrupt must
    # never be absorbable on the way out of a batch.
    assert not issubclass(SweepInterrupted, Exception)
    assert issubclass(SweepInterrupted, BaseException)
    assert SweepInterrupted(signal.SIGINT).exit_code == 130


def test_requested_shutdown_stops_dispatch_and_journals(tmp_path):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    manager = ShutdownManager(grace=0.0)
    manager._handle(signal.SIGINT, None)   # as if Ctrl-C already arrived
    executor = _executor(store, shutdown=manager)
    with pytest.raises(SweepInterrupted) as excinfo:
        executor.run(specs)
    assert excinfo.value.exit_code == 130
    assert executor.telemetry.simulated == 0   # stopped before dispatching

    ((path, state),) = scan_journals(store.journal_dir)
    assert state.interrupts == [signal.SIGINT]
    assert not state.complete

    manager.reset()
    resumed = _executor(store, resume=True, shutdown=manager)
    results = resumed.run(specs)
    assert not any(isinstance(r, FailedRun) for r in results)
    assert read_state(path).complete


# -- store integrity -----------------------------------------------------------

def _tamper_result(path):
    """Flip a result value while keeping the JSON perfectly parseable."""
    payload = json.loads(path.read_text())
    payload["result"]["ipc"] = payload["result"]["ipc"] + 1.0
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))


def test_checksum_catches_parseable_bit_rot(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    spec = RunSpec("swim", n_instructions=N)
    (original,) = Executor(jobs=1, store=store).run([spec])
    _tamper_result(store.path_for(spec))

    assert store.get(spec) is None
    assert store.corrupt_reads == 1
    assert "checksum mismatch" in capsys.readouterr().err

    # The executor re-simulates and heals the entry.
    (again,) = Executor(jobs=1, store=store).run([spec])
    assert dataclasses.asdict(again) == dataclasses.asdict(original)
    assert store.get(spec) is not None


def test_v2_entries_read_without_checksum(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = RunSpec("swim", n_instructions=N)
    (original,) = Executor(jobs=1, store=store).run([spec])
    path = store.path_for(spec)
    payload = json.loads(path.read_text())
    assert payload["version"] == STORE_VERSION
    assert payload["checksum"] == result_checksum(payload["result"])

    # Rewrite as a warm pre-checksum cache entry: still a hit.
    payload["version"] = 2
    del payload["checksum"]
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))
    assert store.get(spec) is not None
    assert store.corrupt_reads == 0
    # ...but a v3 entry without its checksum is defective.
    payload["version"] = STORE_VERSION
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))
    assert store.get(spec) is None
    assert store.corrupt_reads == 1


def test_fsck_detects_and_prunes(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    specs = _grid_specs()
    Executor(jobs=1, store=store).run(specs)
    good = store.path_for(specs[0])
    bad = store.path_for(specs[1])
    _tamper_result(bad)
    misfiled = good.with_name("0" * 64 + ".json")
    misfiled.write_text(good.read_text())          # cross-copied entry
    stale = store.root / ".x.json.999999999.tmp"   # dead writer's temp
    stale.write_text("partial")

    report = store.fsck()
    assert not report.clean
    assert report.scanned == len(specs) + 1
    assert report.ok == len(specs) - 1
    problems = dict(report.problems)
    assert "checksum mismatch" in problems[bad.name]
    assert "cross-copied" in problems[misfiled.name]
    assert report.stale_temps == [stale.name]
    assert not report.pruned                        # scan-only by default
    assert bad.exists()

    pruned = store.fsck(prune=True)
    assert sorted(pruned.pruned) == sorted(
        [bad.name, misfiled.name, stale.name]
    )
    assert not bad.exists() and not misfiled.exists() and not stale.exists()
    assert store.fsck().clean
    rendered = pruned.render()
    assert "BAD" in rendered and "pruned" in rendered


def test_fsck_report_describe_is_json_ready(tmp_path):
    report = ResultStore(tmp_path / "empty").fsck()
    assert report.clean
    assert json.loads(json.dumps(report.describe()))["scanned"] == 0


# -- telemetry and ledger plumbing ---------------------------------------------

def test_summary_line_shows_journal_served_only_when_nonzero():
    clean = executor_summary_line(Telemetry(), MetricsRegistry())
    assert "journal" not in clean
    telemetry = Telemetry()
    telemetry.record(RunRecord(spec_hash="h", benchmark="swim",
                               mechanism="Base", source=SOURCE_JOURNAL))
    noisy = executor_summary_line(telemetry, MetricsRegistry())
    assert "1 journal-served" in noisy


def test_ledger_appends_serialise_under_concurrency(tmp_path):
    ledger = Ledger(tmp_path / "ledger.json")
    per_thread, threads = 25, 8

    def worker(i):
        for j in range(per_thread):
            ledger.append(make_record(f"t{i}-{j}", wall_seconds=0.1))

    pool = [threading.Thread(target=worker, args=(i,))
            for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    records, problems = ledger.scan()
    assert problems == []
    assert len(records) == per_thread * threads
    assert len({r.label for r in records}) == per_thread * threads


# -- the CLI under durability chaos --------------------------------------------

def _cli_env(tmp_path, faults=None, cache="cache"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    # Armed fault plans auto-ledger; keep that out of the repo's ledger.
    env["REPRO_LEDGER"] = str(tmp_path / "ledger.json")
    env["REPRO_CACHE_DIR"] = str(tmp_path / cache)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def _run_cli(env, *args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO,
    )


_FIG10_ARGS = ("fig10", "--n", "2000", "--benchmarks", "swim,art",
               "--jobs", "1")

#: Pinned: with seed=7 at rate 0.5 the fig10 sweep's spec hashes trigger
#: at least one injected orchestrator kill, and — because the kill fires
#: only after a spec was absorbed — every resume strictly advances the
#: journal, so the loop converges (observed: 2 resumes).
_KILL_SPEC = "kill-orchestrator:0.5,seed=7"


def test_cli_kill_orchestrator_chaos_converges_bit_identically(tmp_path):
    clean = _run_cli(_cli_env(tmp_path, cache="cache-clean"), *_FIG10_ARGS)
    assert clean.returncode == 0, clean.stderr

    env = _cli_env(tmp_path, faults=_KILL_SPEC, cache="cache-chaos")
    proc = _run_cli(env, *_FIG10_ARGS)
    kills = 0
    while proc.returncode == 75 and kills < 30:
        kills += 1
        assert "injected orchestrator kill" in proc.stderr
        proc = _run_cli(env, *_FIG10_ARGS, "--resume")
    assert proc.returncode == 0, proc.stderr
    assert kills >= 1                       # the chaos actually fired
    assert proc.stdout == clean.stdout      # resumed run is byte-identical
    assert "journal-served" in proc.stderr

    journal_dir = Path(env["REPRO_CACHE_DIR"]) / "journal"
    assert any(state.complete for _, state in scan_journals(journal_dir))


def test_cli_sigint_graceful_shutdown_and_resume(tmp_path):
    env = _cli_env(tmp_path)
    args = [sys.executable, "-m", "repro", "matrix", "--n", "20000",
            "--benchmarks", "swim,gzip", "--jobs", "1"]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=env, cwd=REPO)
    journal_glob = os.path.join(env["REPRO_CACHE_DIR"], "journal", "*.jsonl")
    deadline = time.time() + 120
    while time.time() < deadline:           # wait for >= 1 journaled done
        if any('"kind": "done"' in Path(p).read_text()
               for p in glob.glob(journal_glob)):
            break
        time.sleep(0.05)
    else:
        proc.kill()
        pytest.fail("sweep never journaled a done record")
    proc.send_signal(signal.SIGINT)
    _out, err = proc.communicate(timeout=120)

    assert proc.returncode == 130           # 128 + SIGINT
    assert "SIGINT received" in err
    assert "rerun with --resume" in err
    ((path, state),) = [
        (Path(p), read_state(p)) for p in glob.glob(journal_glob)
    ]
    assert state.interrupts == [signal.SIGINT]
    assert len(state.done) >= 1             # the flush kept the progress
    assert not state.complete
    served = len(state.done)

    resumed = subprocess.run(args + ["--resume"], capture_output=True,
                             text=True, env=env, cwd=REPO)
    assert resumed.returncode == 0, resumed.stderr
    assert f"{served} journal-served" in resumed.stderr
    assert read_state(path).complete


#: Pinned: at rate 0.5, seed 1 hangs exactly one fig10 attempt in a pool
#: worker, and its retry succeeds.
_HANG_ARGS = ("fig10", "--n", "1000", "--benchmarks", "swim", "--jobs", "2",
              "--retries", "3", "--timeout", "1")


def test_cli_pool_with_a_hung_worker_exits(tmp_path):
    """The watchdog's SIGTERM stops a hung pool worker, so the CLI exits.

    Forked workers used to inherit the CLI's graceful-shutdown handler,
    take the SIGTERM as a polite request and sleep on in the injected
    hang; interpreter exit then waited for them forever.
    """
    clean = _run_cli(_cli_env(tmp_path, cache="cache-clean"), *_HANG_ARGS)
    assert clean.returncode == 0, clean.stderr
    env = _cli_env(tmp_path, faults="hang:0.5,seed=1", cache="cache-hang")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *_HANG_ARGS], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, cwd=REPO,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the CLI did not exit after its hung worker was stopped")
    assert proc.returncode == 0, err
    assert "1 timeouts" in err
    assert "received" not in err            # no worker took SIGTERM as a request
    assert out == clean.stdout


def test_cli_resume_requires_the_cache(tmp_path):
    proc = _run_cli(_cli_env(tmp_path), "fig10", "--n", "2000",
                    "--benchmarks", "swim", "--resume", "--no-cache")
    assert proc.returncode == 2
    assert "--resume needs the result store" in proc.stderr


def test_fsck_cli_detects_then_prunes(tmp_path):
    env = _cli_env(tmp_path)
    seeded = _run_cli(env, "run", "swim", "TP", "--n", "2000")
    assert seeded.returncode == 0, seeded.stderr
    cache = Path(env["REPRO_CACHE_DIR"])
    victim = sorted(cache.glob("[0-9a-f][0-9a-f]/*.json"))[0]
    _tamper_result(victim)

    def fsck(*extra):
        return subprocess.run(
            [sys.executable, "-m", "repro.exec", "fsck",
             "--cache-dir", str(cache), *extra],
            capture_output=True, text=True, env=env, cwd=REPO,
        )

    dirty = fsck()
    assert dirty.returncode == 1
    assert "checksum mismatch" in dirty.stdout
    assert "re-run with --prune" in dirty.stderr
    assert victim.exists()

    repaired = fsck("--prune")
    assert repaired.returncode == 0, repaired.stdout
    assert not victim.exists()

    clean = fsck()
    assert clean.returncode == 0
    assert "store is clean" in clean.stdout
    # Every fsck invocation journaled its report.
    fsck_log = cache / "journal" / "fsck.jsonl"
    reports = [json.loads(line) for line in
               fsck_log.read_text().splitlines()]
    assert len(reports) == 3
    assert all(r["kind"] == "fsck" for r in reports)
    assert reports[1]["report"]["pruned"] == [victim.name]
