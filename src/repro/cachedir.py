"""Where the on-disk caches live, and the one way a cache file is written.

Every cache shares one root: ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/repro`` (:func:`default_cache_dir`).  The result store roots
at the CLI's ``--cache-dir`` when one is given; the workload store
(``<root>/workloads``) always follows the environment.

Every whole-file write goes through :func:`atomic_write`: the bytes go
to a temp named ``.<name>.<pid>.tmp`` beside the target, are
``fsync``'d when the caller needs durability, and are ``os.replace``'d
over the target, so a reader sees the old file or the new one and never
a torn one.  The temp is removed on any exception; only a SIGKILL can
strand one, and the pid in its name lets :func:`stale_temps` (the result
store's sweep, ``python -m repro.exec fsck``) tell a dead writer's
litter from a live writer's work in progress.

Stdlib only: the workload store imports this module without loading
:mod:`repro.exec`.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import List


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def temp_owner_alive(path: Path) -> bool:
    """Whether the writer of temp file ``path`` is still alive.

    Writer temps are named ``.<final name>.<pid>.tmp``.  A pid part that
    is not a positive decimal number, or that lies beyond the platform's
    pid range, reads as dead: such a temp is stale garbage, never a
    crash for whoever sweeps it.
    """
    pid_part = path.name.rsplit(".", 2)[-2]
    pid = int(pid_part) if pid_part.isascii() and pid_part.isdigit() else 0
    if pid == 0:  # os.kill(0, ...) would probe our own process group
        return False
    try:
        os.kill(pid, 0)  # signal 0: an existence probe
    except (ProcessLookupError, OverflowError):
        return False
    except OSError:
        return True  # e.g. EPERM: it exists but is not ours
    return True


def stale_temps(directory: Path, pattern: str = ".*.tmp") -> List[Path]:
    """The writer temps matching ``pattern`` under ``directory`` whose
    writer is dead, sorted (a live writer's temp is about to be renamed)."""
    try:
        temps = sorted(directory.glob(pattern))
    except OSError:
        return []
    return [path for path in temps if not temp_owner_alive(path)]


def atomic_write(path: Path, data: bytes, *, durable: bool,
                 disk_full: bool = False) -> None:
    """Replace ``path`` with ``data`` in one step; see the module docs.

    ``durable`` adds an ``fsync`` before the rename, for files a crash
    must not lose once this returns.  ``disk_full`` performs the chaos
    schedule's ``disk-full`` fault (:mod:`repro.exec.faults`): half the
    bytes land, then ``OSError(ENOSPC)`` is raised, as a full device
    would refuse the rest.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            if disk_full:
                handle.write(data[: len(data) // 2])
                handle.flush()
                raise OSError(errno.ENOSPC, "injected disk-full (chaos) "
                              f"writing {path.name}")
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass  # the real error is re-raised below
        raise
