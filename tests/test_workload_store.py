"""The workload store's digest and the image that built workloads share.

``repro.workloads.registry.build`` memoises each ``(benchmark, length)``
build in process and on disk, and every run of that pair shares its one
memory image.  These tests pin the two ways that sharing could hand a
run the wrong workload: a stored build replayed after an edit the store's
digest did not see, and an image left holding a sliced run's stores.
The last test covers fsck's audit of files under stale digests.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Set

import pytest

from repro.core.simulation import run_benchmark
from repro.exec.__main__ import main as exec_main
from repro.exec.runspec import RunSpec
from repro.trace.smarts import sampled_ipc
from repro.workloads import base, registry, store
from repro.workloads.base import SyntheticWorkload

BENCH = "swim"
FULL = 3000
SLICE = 1000


def _repro_imports(path: Path) -> Set[str]:
    """The ``repro`` modules that the source at ``path`` imports by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return {name for name in names
            if name.startswith("repro.") and name in sys.modules}


def test_digest_hashes_every_repro_module_the_generator_imports(
        monkeypatch):
    hashed = []
    read_bytes = Path.read_bytes

    def spy(path: Path) -> bytes:
        hashed.append(path.resolve())
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    monkeypatch.setattr(store, "_digest_cache", None)
    store._generator_digest()
    assert Path(base.__file__).resolve() in hashed
    for path in hashed:
        for name in _repro_imports(path):
            module = Path(sys.modules[name].__file__).resolve()
            assert module in hashed, (
                f"{path.name} imports {name}, which the digest skips")


def _built_words():
    """The words of a fresh build, in insertion order."""
    _trace, image = SyntheticWorkload(registry.get_spec(BENCH)).build(FULL)
    return list(image._words.items())


@pytest.fixture(params=["generated", "store-loaded"])
def shared_image(request, tmp_path, monkeypatch):
    """The image ``registry.build`` shares, fresh or loaded from disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    registry.clear_cache()
    if request.param == "store-loaded":
        registry.build(BENCH, FULL)
        registry.clear_cache()
    _trace, image = registry.build(BENCH, FULL)
    assert (image._pending is not None) == (request.param == "store-loaded")
    yield image
    registry.clear_cache()


def _smarts_sample() -> None:
    trace, image = registry.build(BENCH, FULL)
    sampled_ipc(trace, n_windows=2, window=500, warmup=500, image=image)


SLICED_RUNS = {
    "prefix": lambda: RunSpec(BENCH, "Base", n_instructions=SLICE,
                              trace_length=FULL).execute(),
    "window": lambda: RunSpec(BENCH, "Base", n_instructions=SLICE,
                              trace_length=FULL,
                              selection=("window", 500)).execute(),
    "simpoint": lambda: RunSpec(BENCH, "FVC", n_instructions=SLICE,
                                trace_length=FULL,
                                selection=("simpoint", 500)).execute(),
    "trace_window": lambda: run_benchmark(BENCH, "FVC", n_instructions=FULL,
                                          trace_window=(800, SLICE)),
    "smarts": _smarts_sample,
}


@pytest.mark.parametrize("run", sorted(SLICED_RUNS))
def test_sliced_run_leaves_the_shared_image_as_built(shared_image, run):
    SLICED_RUNS[run]()
    shared_image._materialize()
    assert list(shared_image._words.items()) == _built_words()


def test_value_based_result_does_not_depend_on_earlier_slices(
        tmp_path, monkeypatch):
    """Figure 11's recipe, scaled down: gzip's FVC window must give the
    same result fresh and after its benchmark's two Base selections."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def spec(mechanism, selection):
        return RunSpec("gzip", mechanism, n_instructions=SLICE,
                       trace_length=FULL, selection=selection)

    window, simpoint = ("window", SLICE // 8), ("simpoint", 500)
    registry.clear_cache()
    fresh = spec("FVC", window).execute()
    spec("Base", window).execute()
    spec("Base", simpoint).execute()
    after = spec("FVC", window).execute()
    registry.clear_cache()
    assert (after.ipc, after.stats) == (fresh.ipc, fresh.stats)


def test_fsck_reports_and_prunes_builds_of_other_generators(
        tmp_path, monkeypatch, capsys):
    """Stored builds under another generator digest are reported with
    their size and deleted by ``--prune``, without changing the exit
    status; the current build stays and ``registry.build`` still reads
    it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    registry.clear_cache()
    registry.build(BENCH, SLICE)
    current = store.path_for(BENCH, SLICE)
    stale = [current.with_name(f"{BENCH}-{SLICE}-{'0' * 16}.mar"),
             current.with_name(f"gzip-{FULL}-{'f' * 16}.mar")]
    for path in stale:
        path.write_bytes(current.read_bytes())
    size = sum(path.stat().st_size for path in stale)
    fsck = ["fsck", "--cache-dir", str(tmp_path)]

    assert exec_main(fsck) == 0
    assert (f"workloads: 2 file(s) under a stale generator digest, "
            f"{size} bytes (re-run with --prune to remove)"
            in capsys.readouterr().out)
    assert all(path.exists() for path in stale)

    assert exec_main(fsck + ["--prune"]) == 0
    assert f"digest, {size} bytes; pruned 2" in capsys.readouterr().out
    assert list(current.parent.iterdir()) == [current]

    def no_generation(self, n_instructions):
        raise AssertionError("the stored build was not read")

    registry.clear_cache()
    monkeypatch.setattr(SyntheticWorkload, "build", no_generation)
    _trace, image = registry.build(BENCH, SLICE)
    assert image._pending is not None
    registry.clear_cache()
