"""Executor behaviour: ordering, dedupe, parallelism, the store, telemetry."""

import dataclasses
import json

import pytest

from repro.core.config import baseline_config
from repro.exec import Executor, ResultStore, RunSpec
from repro.exec.store import STORE_VERSION

N = 2000
GRID_BENCHMARKS = ("swim", "gzip")
GRID_MECHANISMS = ("Base", "TP")


def _grid_specs():
    return [
        RunSpec(benchmark, mechanism, n_instructions=N)
        for mechanism in GRID_MECHANISMS
        for benchmark in GRID_BENCHMARKS
    ]


def _as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


def test_results_align_with_input_order():
    executor = Executor(jobs=1)
    specs = _grid_specs()
    results = executor.run(specs)
    assert [(r.mechanism, r.benchmark) for r in results] == [
        (s.mechanism, s.benchmark) for s in specs
    ]


def test_duplicates_are_deduplicated():
    executor = Executor(jobs=1)
    spec = RunSpec("swim", "TP", n_instructions=N)
    results = executor.run([spec, spec, RunSpec("swim", "TP", n_instructions=N)])
    assert results[0] is results[1] is results[2]
    assert executor.telemetry.simulated == 1
    assert executor.telemetry.deduped == 2


def test_serial_and_parallel_results_are_byte_identical(leftovers):
    serial = Executor(jobs=1).run(_grid_specs())
    parallel = Executor(jobs=2).run(_grid_specs())
    assert json.dumps(_as_dicts(serial), sort_keys=True) == \
        json.dumps(_as_dicts(parallel), sort_keys=True)
    leftovers()   # the batch's workers and private queue went with it


def test_second_executor_gets_full_store_hits(tmp_path):
    store = ResultStore(tmp_path)
    first = Executor(jobs=1, store=store)
    originals = first.run(_grid_specs())
    assert first.telemetry.simulated == len(_grid_specs())

    second = Executor(jobs=1, store=store)
    replayed = second.run(_grid_specs())
    assert second.telemetry.simulated == 0
    assert second.telemetry.store_hits == len(_grid_specs())
    assert _as_dicts(replayed) == _as_dicts(originals)


def test_memo_answers_repeat_batches_without_touching_store(tmp_path):
    executor = Executor(jobs=1, store=ResultStore(tmp_path))
    executor.run(_grid_specs())
    executor.run(_grid_specs())
    assert executor.telemetry.simulated == len(_grid_specs())
    assert executor.telemetry.memo_hits == len(_grid_specs())


def test_corrupted_and_partial_store_files_are_skipped(tmp_path):
    store = ResultStore(tmp_path)
    specs = _grid_specs()
    Executor(jobs=1, store=store).run(specs)

    # Corrupt one entry, truncate another, version-skew a third.
    paths = [store.path_for(s) for s in specs]
    paths[0].write_text("{not json at all")
    paths[1].write_text(paths[1].read_text()[: len(paths[1].read_text()) // 2])
    good = json.loads(paths[2].read_text())
    good["version"] = STORE_VERSION + 1
    paths[2].write_text(json.dumps(good))

    replay = Executor(jobs=1, store=store)
    results = replay.run(specs)
    assert replay.telemetry.simulated == 3       # the three damaged entries
    assert replay.telemetry.store_hits == 1      # the untouched one
    assert replay.telemetry.store_corrupt == 3   # and they were counted
    assert store.corrupt_reads == 3
    assert [(r.mechanism, r.benchmark) for r in results] == [
        (s.mechanism, s.benchmark) for s in specs
    ]
    # Damaged entries were rewritten with valid payloads.
    for path in paths[:3]:
        payload = json.loads(path.read_text())
        assert payload["version"] == STORE_VERSION


def test_store_rejects_schema_drift(tmp_path):
    store = ResultStore(tmp_path)
    spec = RunSpec("swim", n_instructions=N)
    store.put(spec, Executor(jobs=1).run([spec])[0])
    payload = json.loads(store.path_for(spec).read_text())
    payload["result"]["no_such_field"] = 1.0
    store.path_for(spec).write_text(json.dumps(payload))
    assert store.get(spec) is None


def test_run_sweep_shares_grid_and_baseline():
    executor = Executor(jobs=1)
    grid = executor.run_sweep(benchmarks=GRID_BENCHMARKS,
                              mechanisms=GRID_MECHANISMS,
                              n_instructions=N)
    assert grid.mechanisms == list(GRID_MECHANISMS)
    assert grid.benchmarks == list(GRID_BENCHMARKS)
    again = executor.run_sweep(benchmarks=GRID_BENCHMARKS,
                               mechanisms=GRID_MECHANISMS,
                               n_instructions=N)
    assert again is grid  # memoised by spec-hash tuple
    # The baseline is inserted when missing, reusing the same cells.
    partial = executor.run_sweep(benchmarks=GRID_BENCHMARKS,
                                 mechanisms=("TP",), n_instructions=N)
    assert partial.mechanisms == ["Base", "TP"]
    assert executor.telemetry.simulated == len(_grid_specs())


def test_sweep_distinct_configs_distinct_grids():
    executor = Executor(jobs=1)
    a = executor.run_sweep(benchmarks=("swim",), mechanisms=("Base",),
                           n_instructions=N, config=baseline_config())
    b = executor.run_sweep(
        benchmarks=("swim",), mechanisms=("Base",), n_instructions=N,
        config=baseline_config().with_infinite_mshr(),
    )
    assert a is not b


def test_parallel_sweep_equals_serial_sweep(tmp_path):
    serial = Executor(jobs=1).run_sweep(
        benchmarks=GRID_BENCHMARKS, mechanisms=GRID_MECHANISMS,
        n_instructions=N,
    )
    parallel = Executor(jobs=2).run_sweep(
        benchmarks=GRID_BENCHMARKS, mechanisms=GRID_MECHANISMS,
        n_instructions=N,
    )
    for mechanism in GRID_MECHANISMS:
        for benchmark in GRID_BENCHMARKS:
            s = serial.get(mechanism, benchmark)
            p = parallel.get(mechanism, benchmark)
            assert dataclasses.asdict(s) == dataclasses.asdict(p)


def test_progress_callback_and_summary():
    seen = []
    executor = Executor(jobs=1, progress=lambda done, total, spec:
                        seen.append((done, total, spec.benchmark)))
    executor.run(_grid_specs())
    assert [s[0] for s in seen] == [1, 2, 3, 4]
    assert all(s[1] == 4 for s in seen)
    line = executor.telemetry.summary_line()
    assert "4 results" in line and "4 simulated" in line and "wall" in line


def test_jobs_default_is_cpu_count():
    import os
    assert Executor().jobs == max(1, os.cpu_count() or 1)
    assert Executor(jobs=0).jobs == 1
