"""Shared test configuration.

Registers a deterministic hypothesis profile (no wall-clock deadlines —
simulation-backed properties have variable runtimes), points every
on-disk cache at a directory of the session's own, keeps the
workload-trace cache from accumulating across the whole session, and
provides the check that a ``jobs > 1`` batch left no worker process
and no private queue directory behind.
"""

import os
import tempfile
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
