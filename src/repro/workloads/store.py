"""On-disk cache for generated workloads.

Building a synthetic trace is deterministic but not free: at 8k
instructions, the seeded RNG draws and image writes cost 0.4-4.4x (median
1.0x) the wall time of simulating the benchmark under Base on the fast
path, and mcf's pointer chains cost the most (one CPU of a shared 2-CPU
host, Python 3.11, median of three builds and three runs each).
Every fresh process (each CLI run, each fleet worker) used to pay that
cost again.  This store memoises the finished ``(trace, image)`` pair on
disk, keyed by benchmark, length and a digest of the generator sources,
so a build is paid once per machine instead of once per process.

Layout: one file per ``(benchmark, n)`` under ``<root>/workloads/``,
where ``<root>`` is :func:`repro.cachedir.default_cache_dir`
(``$REPRO_CACHE_DIR``, else ``~/.cache/repro``), next to the executor's
result store.  The payload is ``marshal``-encoded —
plain ints, tuples, lists and dicts — which loads an order of magnitude
faster than rebuilding.  Correctness guards:

* the file name embeds a SHA-256 digest over the workload generator
  sources (:data:`~repro.workloads.digest.GENERATOR_MODULES`, the ISA
  opcodes included) **and** the interpreter's cache tag, so editing any
  generator or switching Python versions invalidates every stale entry
  rather than silently replaying it (``python -m repro.exec fsck``
  reports the stale files and ``--prune`` deletes them);
* a corrupt or truncated file is treated as a miss and rebuilt in place;
* writes go through :func:`repro.cachedir.atomic_write`, so a crashed or
  concurrent builder can never publish a half-written entry.  They are
  not ``fsync``'d: a build a crash loses reads as a miss and is rebuilt.
  A killed builder's temp is one that ``fsck`` lists and ``--prune``
  removes.

The restored image is shared across runs on the same terms as the
in-process memo's (see :func:`repro.workloads.registry.build`).  Its
read/write counters are reset to their build-time values so a disk hit is
indistinguishable from a fresh build.
"""

from __future__ import annotations

import marshal
from array import array
from pathlib import Path
from typing import List, Optional, Tuple

from repro.cachedir import atomic_write, default_cache_dir
from repro.workloads.digest import generator_digest
from repro.workloads.image import MemoryImage

Trace = List[Tuple[int, int, int, int, int]]

_digest_cache: Optional[str] = None


def _generator_digest() -> str:
    """:func:`~repro.workloads.digest.generator_digest`, once per process."""
    global _digest_cache
    if _digest_cache is None:
        _digest_cache = generator_digest()
    return _digest_cache


def path_for(name: str, n_instructions: int) -> Path:
    return (default_cache_dir() / "workloads"
            / f"{name}-{n_instructions}-{_generator_digest()}.mar")


def load(name: str, n_instructions: int) -> Optional[Tuple[Trace, MemoryImage]]:
    """Return the cached ``(trace, image)`` or ``None`` on any miss."""
    try:
        blob = path_for(name, n_instructions).read_bytes()
        payload = marshal.loads(blob)
        trace, packed, addrs, values, heap_lo, heap_hi, reads, writes = payload
        if packed:
            # The common form: the words dict as two packed int64 columns.
            # ``frombytes`` is a memcpy — no per-word int objects exist until
            # a reader materialises the dict, which write-only timing runs
            # (everything except the value-based mechanisms) never do.
            addr_arr = array("q")
            addr_arr.frombytes(addrs)
            value_arr = array("q")
            value_arr.frombytes(values)
            addrs, values = addr_arr, value_arr
        if len(addrs) != len(values):
            return None
    except (OSError, ValueError, EOFError, TypeError):
        return None
    image = MemoryImage()
    image._pending = (addrs, values)
    image.heap_lo = heap_lo
    image.heap_hi = heap_hi
    image.reads = reads
    image.writes = writes
    return trace, image


def save(name: str, n_instructions: int, trace: Trace, image: MemoryImage) -> None:
    """Publish a freshly built workload (best effort: failures are silent)."""
    image._materialize()  # fold any pending base under overlay writes
    words = image._words
    try:
        # Packed int64 columns: loads via frombytes with no per-word objects.
        addrs = array("q", words.keys()).tobytes()
        values = array("q", words.values()).tobytes()
        packed = True
    except OverflowError:  # pragma: no cover - values exceeding 64 bits
        addrs = list(words.keys())
        values = list(words.values())
        packed = False
    payload = (
        trace,
        packed,
        addrs,
        values,
        image.heap_lo,
        image.heap_hi,
        image.reads,
        image.writes,
    )
    try:
        atomic_write(path_for(name, n_instructions), marshal.dumps(payload),
                     durable=False)
    except OSError:
        return
