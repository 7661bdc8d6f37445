"""Shared test configuration.

Registers a deterministic hypothesis profile (no wall-clock deadlines —
simulation-backed properties have variable runtimes), points every
on-disk cache at a directory of the session's own, keeps the
workload-trace cache from accumulating across the whole session,
provides the check that a ``jobs > 1`` batch left no worker process
and no private queue directory behind, and starts live sweep servers.
"""

import os
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True, scope="session")
def _session_cache_dir(tmp_path_factory):
    """``$REPRO_CACHE_DIR`` for the whole session, subprocesses included.

    The result store and the workload store default to
    ``~/.cache/repro``; the suite must not fill the user's.  A test of
    the default location sets or unsets the variable itself.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture(autouse=True, scope="module")
def _bounded_trace_cache():
    """Traces are memoised per (benchmark, length); drop them per module so
    a long test session's memory stays flat."""
    yield
    from repro.workloads.registry import clear_cache
    clear_cache()


def process_table():
    """pid -> (state, ppid, pgrp) for every process, read from /proc.

    Empty where there is no /proc, which makes the process checks below
    vacuous on such platforms rather than wrong.
    """
    table = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(stat.parent.name)] = (fields[0], int(fields[1]),
                                        int(fields[2]))
    return table


def children():
    """This process's children, zombies (unreaped workers) included."""
    me = os.getpid()
    return {pid for pid, (_state, ppid, _pgrp) in process_table().items()
            if ppid == me}


def live_group_members(pgrp):
    """Processes of group ``pgrp`` that are still running (not zombies)."""
    return {pid for pid, (state, _ppid, group) in process_table().items()
            if group == pgrp and state != "Z"}


@pytest.fixture
def leftovers(tmp_path, monkeypatch):
    """A check that no fleet worker and no private queue outlived a batch.

    Private queue directories are created under a scratch ``tempdir`` so
    the check can see them; call the returned function after the batch.
    """
    root = tmp_path / "tempdir"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    before = children()

    def check():
        assert children() <= before, "a fleet worker outlived its batch"
        assert not list(root.iterdir()), "a private queue outlived its batch"
    return check


class SweepService:
    """A live sweep server on a unix socket, plus worker threads on demand.

    The server answers from its own store and fleet under ``tmp_path``;
    :meth:`close` stops the workers, the server and every submission
    still waiting on it.
    """

    def __init__(self, tmp_path, ttl=60.0, **server_kwargs):
        from repro.exec import ResultStore
        from repro.exec.fleet import Fleet
        from repro.serve import SweepServer

        self.store = ResultStore(tmp_path / "cache")
        self.fleet = Fleet(self.store.serve_dir, ttl=ttl)
        self.socket_path = str(tmp_path / "serve.sock")
        self.server = SweepServer(self.store, self.fleet,
                                  socket_path=Path(self.socket_path),
                                  poll_seconds=0.02, **server_kwargs)
        self._stop = threading.Event()
        self._threads = [threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02},
            daemon=True)]
        self._threads[0].start()

    def start_worker(self, worker_id):
        from repro.exec.faults import FaultPlan
        from repro.exec.worker import Worker

        worker = Worker(self.fleet, self.store, worker_id, plan=FaultPlan())

        def loop():
            while not self._stop.is_set():
                if not worker.run_one():
                    time.sleep(0.01)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        self._threads.append(thread)
        return worker

    def client(self, client_id):
        from repro.serve import SweepClient

        return SweepClient(socket_path=self.socket_path,
                           client_id=client_id, timeout=120.0)

    def close(self):
        self._stop.set()
        self.server.shutdown()
        self.server.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)


@pytest.fixture
def sweep_service(tmp_path):
    """Start a :class:`SweepService` per call (``ttl`` and
    ``SweepServer`` keyword arguments configure it); all stop at
    teardown."""
    services = []

    def start(**kwargs):
        services.append(SweepService(tmp_path, **kwargs))
        return services[-1]

    yield start
    for service in services:
        service.close()
