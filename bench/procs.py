"""Process hygiene shared by ``python -m bench`` and its workload children.

Both become *subreapers*: a descendant whose parent dies (a fleet worker
after its fleet is killed, a pool worker after its CLI times out) is
re-parented to the nearest subreaper instead of init, so the benchmark
can kill and reap it and nothing outlives a run.

Workload children also start without address-space randomisation, and
with a fixed hash seed from ``python -m bench``.  The benchmark compares
medians across processes, and on a 2-CPU host eight fresh processes
timing one identical simulation had medians 15-30% apart (quartile to
quartile) with random layouts, 7% with a fixed layout and hash seed.
Linux only; elsewhere these are no-ops.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
from pathlib import Path
from typing import Callable, Optional

_PR_SET_CHILD_SUBREAPER = 36
_ADDR_NO_RANDOMIZE = 0x0040000
_QUERY_PERSONALITY = 0xFFFFFFFF


def become_subreaper() -> None:
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def fixed_layout() -> Optional[Callable[[], None]]:
    """A ``preexec_fn`` that turns off ASLR for the child and its children."""
    try:
        personality = ctypes.CDLL(None).personality
    except (OSError, AttributeError):
        return None
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int

    def preexec() -> None:
        personality(personality(_QUERY_PERSONALITY) | _ADDR_NO_RANDOMIZE)

    return preexec


def reap_orphans() -> None:
    """SIGKILL every remaining child's process group, then reap them all."""
    me, my_group = os.getpid(), os.getpgrp()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # Fields after the parenthesised command: state, ppid, pgrp.
            _, ppid, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError, ValueError):
            continue
        if int(ppid) != me:
            continue
        with contextlib.suppress(ProcessLookupError):
            if int(pgrp) == my_group:
                os.kill(int(stat.parent.name), signal.SIGKILL)
            else:
                os.killpg(int(pgrp), signal.SIGKILL)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return
