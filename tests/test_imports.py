"""What each entry point imports.

A process that only hashes specs, reads results from the store or
serves them never simulates, so it must not import numpy, the machine
(``repro.cache``/``cpu``/``dram``/``kernel``), a mechanism
implementation or the workload generator.  The sweep server and the
fleet launcher run no event loop, so they load no ``asyncio``.  Each
check runs in a fresh interpreter and reads its ``sys.modules`` at exit.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: ``python -c _PROBE OUT TARGET ARGS...``: run ``python -m TARGET ARGS``
#: (or exec TARGET when it is an import statement) and write the sorted
#: names in ``sys.modules`` to OUT as the interpreter exits.
_PROBE = """\
import atexit, json, runpy, sys
out, target, args = sys.argv[1], sys.argv[2], sys.argv[3:]

def dump():
    with open(out, "w") as handle:
        json.dump(sorted(sys.modules), handle)

atexit.register(dump)
if target.startswith("import "):
    exec(target)
else:
    sys.argv = [target] + args
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""

_MACHINE = ("repro.cache", "repro.cpu", "repro.dram", "repro.kernel")
_GENERATOR = {
    "repro.workloads.base", "repro.workloads.image",
    "repro.workloads.patterns", "repro.workloads.spec2000",
    "repro.workloads.store",
}


def _simulator(modules):
    """The modules of ``modules`` that only simulating or generating needs."""
    return [
        name for name in modules
        if name.split(".")[0] == "numpy"
        or any(name == p or name.startswith(p + ".") for p in _MACHINE)
        or (name.startswith("repro.mechanisms.")
            and name != "repro.mechanisms.registry")
        or name in _GENERATOR
    ]


def _env(cache):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache)
    return env


def _probe(tmp_path, target, *args):
    """Run ``target`` in a fresh interpreter; (its modules, stdout, stderr)."""
    out = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), target, *args],
        capture_output=True, text=True, env=_env(tmp_path / "cache"),
        cwd=REPO, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout, proc.stderr


def test_store_served_exhibit_and_fsck_load_no_simulator(tmp_path):
    store = str(tmp_path / "store")
    argv = ["fig10", "--n", "2000", "--benchmarks", "swim", "--jobs", "1",
            "--cache-dir", store]
    cold = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True,
                          env=_env(tmp_path / "cache"), cwd=REPO, timeout=120)
    assert cold.returncode == 0, cold.stderr[-2000:]
    assert " 3 simulated" in cold.stderr

    modules, out, err = _probe(tmp_path, "repro", *argv)
    assert " 0 simulated" in err
    assert out == cold.stdout
    assert _simulator(modules) == []

    modules, _, _ = _probe(tmp_path, "repro.exec", "fsck", "--cache-dir",
                           store)
    assert _simulator(modules) == []


@pytest.mark.parametrize("statement", [
    "import repro",
    "import repro.exec",
    "import repro.serve.server",
])
def test_package_imports_load_no_simulator(tmp_path, statement):
    modules, _, _ = _probe(tmp_path, statement)
    assert _simulator(modules) == []


def test_simlint_loads_nothing_it_lints(tmp_path):
    """simlint reads source only: a whole-tree run imports no ``repro``
    module beyond the analyzer and the lazy-export helper."""
    modules, _, _ = _probe(tmp_path, "repro.analysis")
    assert [
        name for name in modules
        if name.startswith("repro.") and name != "repro.lazy"
        and name.split(".")[1] != "analysis"
    ] == []


def test_server_and_fleet_load_no_asyncio(tmp_path):
    sock = tmp_path / "serve.sock"
    out = tmp_path / "server-modules.json"
    server = subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(out), "repro.serve", "server",
         "--socket", str(sock)],
        env=_env(tmp_path / "cache"), cwd=REPO, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # Its first line: listening, and stopped by SIGINT from here on.
        assert "serve: listening" in server.stderr.readline()
        server.send_signal(signal.SIGINT)
        _, err = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0, err[-2000:]
    assert "asyncio" not in json.loads(out.read_text())

    modules, _, _ = _probe(tmp_path, "repro.serve", "fleet", "--workers",
                           "1", "--drain", "--idle-timeout", "0")
    assert "asyncio" not in modules


def test_worker_module_loads_the_simulator_before_any_fork(tmp_path):
    """Fleet workers are forked after this import: they start with the
    machine and the generator instead of importing them per worker."""
    modules, _, _ = _probe(tmp_path, "import repro.exec.worker")
    assert "repro.core.simulation" in modules
    assert _GENERATOR <= set(modules)


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.obs", "repro.serve",
])
def test_every_lazy_name_resolves(package):
    module = __import__(package, fromlist=["__all__"])
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_lazy_names_are_the_defining_modules_objects():
    import repro
    from repro.core import results, simulation

    assert repro.run_trace is simulation.run_trace
    assert repro.RunResult is results.RunResult is simulation.RunResult
