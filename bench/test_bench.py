"""Tests of the benchmark itself, at a reduced scale: ``pytest bench/``.

Each test drives ``python -m bench`` the way a user does and reads the
JSON result file it writes, except the sensitivity test, which times
``run_trace`` directly at 100k records per cell.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Tests run the minimum repeats at a small scale, not the declared run.
SCALE = "0.03"
SECONDS = "0"
TIMEOUT = 900

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.layers import PER_LAYER  # noqa: E402


def bench(tmp: Path, *args: str, env: Optional[Dict[str, str]] = None,
          ) -> Tuple["subprocess.CompletedProcess[str]", Dict[str, Any]]:
    """Run ``python -m bench`` at the test scale; return it and its JSON."""
    out = tmp / f"{uuid.uuid4().hex}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--scale", SCALE, "--seconds",
         SECONDS, "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT, env=env)
    result = json.loads(out.read_text()) if out.exists() else {}
    return proc, result


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("traced"), "--trace")


def test_every_metric_is_printed_with_its_unit(untraced):
    proc, _ = untraced
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            prefix = f"{workload} {metric['name']} "
            line = next((ln for ln in lines if ln.startswith(prefix)), "")
            assert f" {metric['unit']} (IQR " in line, (prefix, lines)
        assert f"{workload} failed_ratio 0 ratio" in proc.stdout
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert len(last["metrics"]) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_per_layer_table_matches_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == [(layer.name, layer.unit) for layer in PER_LAYER]


def test_trace_prints_every_layer_metric_and_a_valid_trace(traced):
    proc, result = traced
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in WORKLOADS:
        for layer in PER_LAYER:
            assert f"\n{workload} {layer.name} " in proc.stdout
        trace_file = result["workloads"][workload]["trace_file"]
        check = subprocess.run(
            [sys.executable, "-m", "repro.obs", "validate-trace", trace_file],
            cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert check.returncode == 0, check.stderr


def test_layer_counters_are_nonzero_where_their_layer_is_loaded(traced):
    _, result = traced
    for layer in PER_LAYER:
        for workload in layer.on:
            value = result["workloads"][workload]["layers"][layer.name]
            assert value > 0, (layer.name, workload)


def test_traced_and_untraced_fingerprints_are_identical(untraced, traced):
    for workload in WORKLOADS:
        plain = untraced[1]["workloads"][workload]["fingerprint"]
        assert plain is not None
        assert traced[1]["workloads"][workload]["fingerprint"] == plain


def test_different_seeds_produce_different_inputs(untraced, tmp_path):
    for workload in ("sim-hit", "sweep"):
        proc, other = bench(tmp_path, "--workload", workload, "--seed", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        seed1 = untraced[1]["workloads"][workload]["inputs"]
        assert other["workloads"][workload]["inputs"] not in (None, seed1)


def test_tampered_golden_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    args = ("--workload", "sim-mech", "--golden", str(golden))
    proc, _ = bench(tmp_path, *args, "--update-golden")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    path = golden / "sim-mech-seed1.json"
    payload = json.loads(path.read_text())
    cell = sorted(payload["value"])[0]
    payload["value"][cell]["cycles"] += 1
    path.write_text(json.dumps(payload))

    proc, result = bench(tmp_path, *args)
    assert proc.returncode != 0
    assert result["workloads"]["sim-mech"]["failed_ratio"] > 0
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def _processes_with(marker: str) -> List[int]:
    """Live processes whose environment carries ``marker``."""
    found = []
    for environ in Path("/proc").glob("[0-9]*/environ"):
        try:
            if marker.encode() in environ.read_bytes():
                found.append(int(environ.parent.name))
        except OSError:
            continue
    return found


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_no_child_process_outlives_the_run(tmp_path):
    marker = f"BENCH_TEST_MARKER={uuid.uuid4().hex}"
    key, value = marker.split("=")
    env = dict(os.environ, **{key: value})
    proc, result = bench(tmp_path, "--workload", "serve", env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["workloads"]["serve"]["attempted"] > 0
    assert _processes_with(marker) == []

    # Ctrl-C while the server and fleet are up: nothing may be orphaned.
    main = subprocess.Popen(
        [sys.executable, "-m", "bench", "--scale", SCALE, "--seconds",
         SECONDS, "--workload", "serve", "--out",
         str(tmp_path / "interrupted.json")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    deadline = time.monotonic() + 120
    fleet_up = False
    while not fleet_up and time.monotonic() < deadline:
        for pid in _processes_with(marker):
            with contextlib.suppress(OSError):
                fleet_up |= b"fleet" in Path(f"/proc/{pid}/cmdline").read_bytes()
        time.sleep(0.05)
    main.send_signal(signal.SIGINT)
    main.wait(timeout=120)
    assert fleet_up
    assert _processes_with(marker) == []


def test_sensitivity_fast_path_moves_sim_hit_not_sim_miss(tmp_path,
                                                         monkeypatch):
    """Losing the fast path breaks the records_per_s bound on sim-hit only.

    3 repeats of every cell at 100k records, each run on the fast path
    and on the interpreted reference loop back to back, on one CPU (the
    order alternating), each timed at the reference host speed as the
    benchmark times it.  The median slowdown must exceed the bound on
    sim-hit, where the fast path does most of the work, and stay within
    it on sim-miss, where most accesses leave the fast path.
    """
    from bench.hostspeed import HostSpeed
    from bench.workloads import SIM_CELLS, sim_inputs
    from repro.core import simulation
    from repro.mechanisms.registry import create

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "records_per_s")
    affinity = os.sched_getaffinity(0)
    cpu = min(affinity)

    def slowdowns(host: HostSpeed, workload: str) -> List[float]:
        cells, _ = SIM_CELLS[workload]
        inputs = sim_inputs(1, cells, 100_000)
        ratios = []
        for repeat in range(3):
            for bench, mech in cells:
                trace, image = inputs[bench]
                seconds: Dict[bool, float] = {}
                order = (True, False) if repeat % 2 else (False, True)
                for fast in order:
                    with host.timed([cpu]) as timing:
                        simulation.run_trace(trace, create(mech), image=image,
                                             benchmark=bench,
                                             mechanism_name=mech, fast=fast)
                    seconds[fast] = timing.seconds
                ratios.append(seconds[False] / seconds[True])
        return ratios

    os.sched_setaffinity(0, {cpu})
    host = HostSpeed()
    try:
        hit, miss = slowdowns(host, "sim-hit"), slowdowns(host, "sim-miss")
    finally:
        host.close()
        os.sched_setaffinity(0, affinity)
    assert statistics.median(hit) > 1 + bound, hit
    assert statistics.median(miss) < 1 + bound, miss
