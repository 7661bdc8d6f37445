"""Disk cache for generated hot-loop code objects.

The fast path generates Python source per machine shape (baked constants,
inline replay blocks) and compiles it once per process.  That compile is
~3 ms — irrelevant for long sessions, but a measurable slice of a single
cold benchmark run, such as one ``python -m repro run`` invocation.
Compiled code objects marshal cleanly, so they get the same treatment as
generated workloads (:mod:`repro.workloads.store`): one file per source
digest under ``$REPRO_CACHE_DIR/codegen`` (default
``~/.cache/repro/codegen``), written atomically, treated as a miss on any
decode error.

The digest covers the *source text*, the caller's emitter version, and
the interpreter's cache tag — marshal'd code objects are bytecode, valid
only for the interpreter version that produced them, and an emitter can
change what a binding name *means* without changing the source it emits,
so the version constant keeps an edited emitter from replaying a stale
code object written by an older one.  Set ``REPRO_CODE_CACHE=0`` to
disable the disk layer (the in-process memo stays).
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
import tempfile
from pathlib import Path
from types import CodeType
from typing import Dict, Tuple

#: In-process memo: (emitter version, source text) -> compiled code object.
_MEMO: Dict[Tuple[int, str], CodeType] = {}


def enabled() -> bool:
    # simlint: allow[SIM203] cache location only; cannot affect results
    return os.environ.get("REPRO_CODE_CACHE", "1") != "0"


def cache_dir() -> Path:
    # simlint: allow[SIM203] cache location only; cannot affect results
    env = os.environ.get("REPRO_CACHE_DIR")
    root = Path(env).expanduser() if env else Path.home() / ".cache" / "repro"
    return root / "codegen"


def _path_for(source: str, version: int) -> Path:
    digest = hashlib.sha256(
        f"tag={sys.implementation.cache_tag};v={version};".encode()
        + source.encode()
    ).hexdigest()[:24]
    return cache_dir() / f"{digest}.code"


def load_or_compile(source: str, filename: str, *, version: int = 0) -> CodeType:
    """Return the compiled form of ``source``, memoised twice.

    In-process by (``version``, source text), and on disk by the digest of
    the same pair so a fresh process skips the compile.  ``filename`` is
    what tracebacks and profiles show for the generated code; ``version``
    is the caller's emitter-version constant (bump it whenever the emitter
    changes semantics without changing emitted text).
    """
    memo_key = (version, source)
    code = _MEMO.get(memo_key)
    if code is not None:
        return code
    path = None
    if enabled():
        path = _path_for(source, version)
        try:
            code = marshal.loads(path.read_bytes())
            if not isinstance(code, CodeType):
                code = None
        except (OSError, ValueError, EOFError, TypeError):
            code = None
        if code is not None:
            _MEMO[memo_key] = code
            return code
    code = compile(source, filename, "exec")
    _MEMO[memo_key] = code
    if path is not None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(marshal.dumps(code))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        # simlint: allow[SIM601] best-effort cache write; the compiled code in hand is the result
        except OSError:
            pass
    return code
