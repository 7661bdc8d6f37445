"""On-disk cache for generated workloads.

Building a synthetic trace is deterministic but not free: the seeded RNG
draws and image writes for an 8k-instruction benchmark cost more wall time
than simulating it on the fast path.  Every fresh process (each CLI run,
each fleet worker) used to pay that cost again.  This store memoises the
finished ``(trace, image)`` pair on disk, keyed by benchmark, length and a
digest of the generator sources, so a build is paid once per machine
instead of once per process.

Layout: one file per ``(benchmark, n)`` under
``$REPRO_CACHE_DIR/workloads/`` (default ``~/.cache/repro/workloads``),
next to the executor's result store.  The payload is ``marshal``-encoded —
plain ints, tuples, lists and dicts — which loads an order of magnitude
faster than rebuilding.  Correctness guards:

* the file name embeds a SHA-256 digest over the workload generator
  sources **and** the interpreter's cache tag, so editing any generator or
  switching Python versions invalidates every stale entry rather than
  silently replaying it;
* a corrupt or truncated file is treated as a miss and rebuilt in place;
* writes go through a temp file + :func:`os.replace`, so a crashed or
  concurrent builder can never publish a half-written entry (same
  discipline as the result store).

Sharing the restored image across runs is sound for the same reason the
in-process memo may share it: the simulated machine's stores replay the
generation-time values.  The restored image's read/write counters are
reset to their build-time values so a disk hit is indistinguishable from a
fresh build.  Set ``REPRO_WORKLOAD_CACHE=0`` to disable entirely.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
import tempfile
from array import array
from pathlib import Path
from typing import List, Optional, Tuple

from repro.workloads.image import MemoryImage

Trace = List[Tuple[int, int, int, int, int]]

#: Bumped when the serialised layout changes shape.
_FORMAT = 2

_digest_cache: Optional[str] = None


def enabled() -> bool:
    return os.environ.get("REPRO_WORKLOAD_CACHE", "1") != "0"


def cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``/workloads, else ``~/.cache/repro/workloads``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    root = Path(env).expanduser() if env else Path.home() / ".cache" / "repro"
    return root / "workloads"


def _generator_digest() -> str:
    """Digest of everything a build's output depends on."""
    global _digest_cache
    if _digest_cache is None:
        from repro.workloads import base, image, patterns, spec2000

        h = hashlib.sha256()
        h.update(f"format={_FORMAT};tag={sys.implementation.cache_tag}".encode())
        for module in (base, image, patterns, spec2000):
            h.update(Path(module.__file__).read_bytes())
        _digest_cache = h.hexdigest()[:16]
    return _digest_cache


def path_for(name: str, n_instructions: int) -> Path:
    return cache_dir() / f"{name}-{n_instructions}-{_generator_digest()}.mar"


def load(name: str, n_instructions: int) -> Optional[Tuple[Trace, MemoryImage]]:
    """Return the cached ``(trace, image)`` or ``None`` on any miss."""
    if not enabled():
        return None
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
    if not enabled():
        return
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
        target = path_for(name, n_instructions)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(target.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(marshal.dumps(payload))
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        return
