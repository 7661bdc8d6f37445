"""The workload store's digest and the image that built workloads share.

``repro.workloads.registry.build`` memoises each ``(benchmark, length)``
build in process and on disk, and every run of that pair shares its one
memory image.  These tests pin the two ways that sharing could hand a
run the wrong workload: a stored build replayed after an edit the store's
digest did not see, and an image left holding a sliced run's stores.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Set

import pytest

from repro.core.simulation import run_benchmark
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
