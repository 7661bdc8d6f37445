"""The observability subsystem: tracing, metrics, sampling, the ledger.

Covers the tentpole contracts:

* span nesting and Chrome ``trace_event`` export round-trip against the
  schema validator;
* metrics-harvest equivalence — every ``stats_report`` key a run records
  appears in the registry with the same value;
* the executor summary line renders identically through the registry;
* ledger append / selector resolution / diff / corrupt-line recovery;
* the disabled path costs under 2% of a reference run;
* the ``--trace`` CLI produces a valid trace spanning every layer and
  ``python -m repro.obs`` records and diffs ledger entries.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.simulation import run_benchmark
from repro.exec.telemetry import RunRecord, Telemetry
from repro.obs.__main__ import main as obs_main
from repro.obs.ledger import (
    Ledger,
    LedgerRecord,
    diff_records,
    make_record,
    render_diff,
)
from repro.obs.metrics import (
    MetricsRegistry,
    derive_metrics,
    executor_summary_line,
    get_default_registry,
    harvest_result,
    reset_default_registry,
)
from repro.obs.tracing import (
    TRACER,
    Tracer,
    disable_tracing,
    enable_tracing,
    validate_trace,
    validate_trace_file,
)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Every test starts and ends with the global tracer dark and empty."""
    disable_tracing()
    TRACER.clear()
    yield
    disable_tracing()
    TRACER.clear()


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.update(extra)
    return env


# -- tracing core --------------------------------------------------------------

def _fake_clock():
    """A deterministic nanosecond clock advancing 1us per reading."""
    state = {"now": 0}

    def clock():
        state["now"] += 1000
        return state["now"]

    return clock


def test_span_nesting_and_export_roundtrip(tmp_path):
    tracer = Tracer(clock=_fake_clock())
    tracer.start()
    tracer.begin("outer", cat="a", x=1)
    tracer.begin("inner", cat="b")
    tracer.instant("mark", cat="c", k=2)
    tracer.counter("rates", {"ipc": 1.5, "mpki": 20.0})
    tracer.end()
    tracer.end(done=True)
    assert tracer.depth == 0

    path = tmp_path / "trace.json"
    tracer.export(str(path))
    assert validate_trace_file(str(path)) == []

    payload = json.loads(path.read_text("utf-8"))
    events = payload["traceEvents"]
    complete = {e["name"]: e for e in events if e["ph"] == "X"}
    outer, inner = complete["outer"], complete["inner"]
    # Proper nesting: the inner span's interval sits inside the outer's.
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    # begin args and end args merge onto the completed event.
    assert outer["args"] == {"x": 1, "done": True}
    assert outer["cat"] == "a"
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["args"] == {"ipc": 1.5, "mpki": 20.0}


def test_unmatched_end_is_ignored():
    tracer = Tracer(clock=_fake_clock())
    tracer.start()
    tracer.end()  # nothing open: must not raise, must not record
    assert [e for e in tracer.events if e["ph"] == "X"] == []


def test_stop_closes_open_spans():
    tracer = Tracer(clock=_fake_clock())
    tracer.start()
    tracer.begin("left.open")
    tracer.stop()
    assert tracer.depth == 0
    assert any(e["ph"] == "X" and e["name"] == "left.open"
               for e in tracer.events)
    assert not tracer.enabled


def test_disabled_tracer_records_nothing():
    tracer = Tracer(clock=_fake_clock())
    tracer.begin("never")
    tracer.instant("never")
    tracer.counter("never", {"v": 1.0})
    tracer.end()
    assert len(tracer) == 0


def test_validator_rejects_malformed_events():
    assert validate_trace([]) != []
    assert validate_trace({"traceEvents": "nope"}) != []
    bad = {"traceEvents": [
        {"ph": "Z", "name": "x", "pid": 1, "tid": 0, "ts": 0},
        {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": -1},
        {"ph": "C", "name": "x", "pid": 1, "tid": 0, "ts": 0},
    ]}
    problems = validate_trace(bad)
    assert len(problems) >= 3


def test_traced_run_equals_untraced_run():
    """Observation must never change a result (store identity depends on it)."""
    plain = run_benchmark("swim", "TK", n_instructions=2000)
    enable_tracing()
    traced = run_benchmark("swim", "TK", n_instructions=2000)
    disable_tracing()
    assert traced.ipc == plain.ipc
    assert traced.cycles == plain.cycles
    assert traced.stats == plain.stats
    # ... and the trace actually saw the simulation.
    cats = {e.get("cat") for e in TRACER.events}
    assert {"sim", "cpu", "cache", "kernel"} <= cats


# -- metrics pipeline ----------------------------------------------------------

def test_harvest_matches_stats_report():
    result = run_benchmark("swim", "GHB", n_instructions=2500)
    registry = MetricsRegistry()
    harvest_result(result, registry)
    assert result.stats, "run produced no stats"
    for key, value in result.stats.items():
        series = registry.get(key, benchmark="swim", mechanism="GHB")
        assert series is not None, f"stat {key} not harvested"
        assert series.latest == value, key


def test_derived_rates_are_consistent():
    result = run_benchmark("swim", "GHB", n_instructions=2500)
    derived = derive_metrics(result)
    assert derived["ipc"] == result.ipc
    kilo = result.instructions / 1000.0
    expected_l1 = (result.stats["memory.l1d.read_misses"]
                   + result.stats["memory.l1d.write_misses"]) / kilo
    assert derived["l1_mpki"] == pytest.approx(expected_l1)
    assert 0.0 <= derived["l1_l2_bus_occupancy"] <= 1.0
    assert 0.0 <= derived["memory_bus_occupancy"] <= 1.0
    # The bus counters exist because run_trace finalizes them into stats.
    assert "memory.l1_l2_bus_busy_cycles" in result.stats
    assert "memory.memory_bus_busy_cycles" in result.stats


def test_summary_line_format_is_preserved():
    telemetry = Telemetry()
    telemetry.record(RunRecord("h1", "swim", "GHB", "simulated", 0.25))
    telemetry.record(RunRecord("h2", "swim", "Base", "memo"))
    telemetry.record(RunRecord("h3", "gzip", "Base", "store"))
    telemetry.record_batch(4, 3, 0.5)
    line = telemetry.summary_line()
    assert line == (
        "executor: 4 results, 1 simulated, 3 cache hits "
        "(1 memo, 1 store, 1 deduped), wall 0.50s, avg 0.250s/sim"
    )


def test_summary_line_publishes_to_registry():
    registry = MetricsRegistry()
    telemetry = Telemetry()
    telemetry.record(RunRecord("h1", "swim", "GHB", "simulated", 0.25))
    telemetry.record_batch(1, 1, 0.25)
    executor_summary_line(telemetry, registry)
    assert registry.latest("executor.results") == 1.0
    assert registry.latest("executor.simulated") == 1.0
    assert registry.latest("executor.sim_seconds") == 0.25


def test_interval_sampler_publishes_series():
    reset_default_registry()
    enable_tracing()
    run_benchmark("swim", "GHB", n_instructions=3000)
    disable_tracing()
    registry = get_default_registry()
    series = registry.get("interval.ipc", benchmark="swim", mechanism="GHB")
    assert series is not None
    assert len(series) >= 5, "expected several interval samples"
    assert all(p.x is not None for p in series.points)
    # Counter events landed in the trace too.
    assert any(e["ph"] == "C" and e["name"] == "sim.interval"
               for e in TRACER.events)
    reset_default_registry()


# -- the disabled-path overhead guard ------------------------------------------

def test_disabled_overhead_under_two_percent():
    """Estimated guard cost of a reference run stays under the 2% budget.

    Direct A/B wall-clock comparison of two full runs is far too noisy
    for CI, so this measures the two factors separately: how many guard
    checks a run performs (counted from an enabled run's event total plus
    the per-record sampling test) and what one disabled check costs
    (microbenchmarked in a tight loop, loop overhead included — an
    overestimate).  Their product must stay under 2% of the run's wall.
    """
    n = 4000
    run_benchmark("swim", "TK", n_instructions=n)  # warm the trace cache
    start = time.perf_counter()
    run_benchmark("swim", "TK", n_instructions=n)
    run_wall = time.perf_counter() - start

    TRACER.clear()
    enable_tracing()
    run_benchmark("swim", "TK", n_instructions=n)
    events = len(TRACER)
    disable_tracing()
    TRACER.clear()

    # Each span is one begin + one end guard; instants and counters one
    # each; every trace record pays one sampling comparison.
    guards = 2 * events + n
    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        if TRACER.enabled:
            pass  # pragma: no cover - tracer is disabled here
    per_guard = (time.perf_counter() - start) / reps

    estimated = guards * per_guard
    assert estimated < 0.02 * run_wall, (
        f"estimated disabled-path overhead {estimated * 1e3:.3f}ms "
        f"exceeds 2% of the {run_wall * 1e3:.1f}ms reference run "
        f"({guards} guards at {per_guard * 1e9:.1f}ns)"
    )


# -- the ledger ----------------------------------------------------------------

def _record(label, wall, **kwargs):
    return make_record(label=label, wall_seconds=wall, **kwargs)


def test_ledger_append_and_resolve(tmp_path):
    ledger = Ledger(tmp_path / "BENCH_obs.json")
    ledger.append(_record("smoke", 1.0, instructions=8000))
    ledger.append(_record("bench", 2.0, instructions=8000))
    ledger.append(_record("smoke", 0.9, instructions=8000))
    records, problems = ledger.scan()
    assert problems == []
    assert [r.label for r in records] == ["smoke", "bench", "smoke"]
    assert ledger.resolve("latest").wall_seconds == 0.9
    assert ledger.resolve("prev").label == "bench"
    assert ledger.resolve("0").label == "smoke"
    assert ledger.resolve("-2").label == "bench"
    assert ledger.resolve("smoke").wall_seconds == 0.9
    assert ledger.resolve("smoke@-2").wall_seconds == 1.0
    with pytest.raises(LookupError):
        ledger.resolve("nonesuch")


def test_ledger_records_carry_host_and_rss(tmp_path):
    ledger = Ledger(tmp_path / "BENCH_obs.json")
    ledger.append(_record("smoke", 0.5, instructions=8000))
    record = ledger.resolve("latest")
    assert record.peak_rss_kb > 0
    assert record.events_per_second == pytest.approx(8000 / 0.5)
    assert set(record.host) >= {"platform", "python", "machine", "cpus", "node"}
    assert record.timestamp  # ISO stamp applied


def test_ledger_ignores_unknown_fields():
    record = LedgerRecord.from_dict(
        {"label": "x", "wall_seconds": 1.0, "from_the_future": True}
    )
    assert record.label == "x"
    assert record.wall_seconds == 1.0


def test_diff_flags_regressions():
    before = _record("bench", 1.0, instructions=8000)
    after = _record("bench", 1.5, instructions=8000)
    rows = {row.metric: row for row in diff_records(before, after)}
    assert rows["wall_seconds"].regression        # 50% slower
    assert rows["events_per_second"].regression   # and lower throughput
    report = render_diff(before, after)
    assert "<< regression" in report
    assert "wall_seconds" in report


def test_diff_fails_any_simulated_metric_change_on_the_same_cell(tmp_path):
    cell = dict(benchmark="swim", mechanism="GHB", n_instructions=8000,
                wall_seconds=1.0, events_per_second=8000.0)
    before = LedgerRecord(label="before", metrics={"ipc": 1.0,
                                                   "l1_mpki": 3.0}, **cell)
    after = LedgerRecord(label="after", metrics={"ipc": 1.36,
                                                 "l1_mpki": 3.0}, **cell)
    rows = {row.metric: row for row in diff_records(before, after)}
    assert rows["ipc"].regression          # deterministic: any delta is one
    assert not rows["l1_mpki"].regression
    assert not any(row.regression for row in diff_records(before, before))
    # Another cell's simulated metrics are not comparable.
    other = dataclasses.replace(after, benchmark="art")
    assert not any(row.regression for row in diff_records(before, other))
    ledger = tmp_path / "BENCH_obs.json"
    Ledger(ledger).append(before)
    Ledger(ledger).append(after)
    assert obs_main(["--ledger", str(ledger), "diff", "before", "after",
                     "--fail-on-regression"]) == 1
    assert obs_main(["--ledger", str(ledger), "diff", "after", "after",
                     "--fail-on-regression"]) == 0


def test_diff_accepts_improvements():
    before = _record("bench", 1.5, instructions=8000)
    after = _record("bench", 1.0, instructions=8000)
    assert not any(r.regression for r in diff_records(before, after))


# -- CLI integration -----------------------------------------------------------

def test_cli_trace_covers_every_layer(tmp_path):
    """--trace writes a valid Chrome trace with spans from each layer."""
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "swim", "TK",
         "--n", "1500", "--trace", str(out)],
        capture_output=True, text=True, env=_env(), cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "trace:" in proc.stderr
    assert "executor:" in proc.stderr  # summary printed for single runs too
    assert validate_trace_file(str(out)) == []
    payload = json.loads(out.read_text("utf-8"))
    cats = {e.get("cat") for e in payload["traceEvents"] if e.get("cat")}
    assert {"kernel", "cache", "cpu", "dram", "exec", "sim"} <= cats


def test_cli_obs_record_list_diff_report(tmp_path):
    ledger = str(tmp_path / "BENCH_obs.json")

    def obs(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", "--ledger", ledger, *args],
            capture_output=True, text=True, env=_env(), cwd=REPO,
        )

    for _ in range(2):
        proc = obs("record", "--benchmark", "swim", "--mechanism", "GHB",
                   "--n", "1500", "--label", "ci-smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "recorded ci-smoke" in proc.stdout

    proc = obs("list")
    assert proc.returncode == 0
    assert proc.stdout.count("ci-smoke") == 2

    proc = obs("diff", "prev", "latest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ledger diff" in proc.stdout
    assert "wall_seconds" in proc.stdout
    assert "derived" not in proc.stdout or "ipc" in proc.stdout

    proc = obs("report")
    assert proc.returncode == 0
    assert "ci-smoke" in proc.stdout

    # Identical spec hashes: record both runs of the same cell.
    records = Ledger(ledger).read()
    assert records[0].spec_hash == records[1].spec_hash
    assert records[0].metrics.get("ipc") == records[1].metrics.get("ipc")


def test_cli_obs_diff_empty_ledger_errors(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs",
         "--ledger", str(tmp_path / "none.json"), "diff", "prev", "latest"],
        capture_output=True, text=True, env=_env(), cwd=REPO,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_obs_validate_trace(tmp_path):
    good = tmp_path / "good.json"
    tracer = Tracer(clock=_fake_clock())
    tracer.start()
    tracer.begin("x")
    tracer.end()
    tracer.export(str(good))
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"ph": "Z"}]}')

    def validate(path):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", "validate-trace", str(path)],
            capture_output=True, text=True, env=_env(), cwd=REPO,
        )

    assert validate(good).returncode == 0
    assert validate(bad).returncode == 1
