"""In-process memo of compiled generated code.

The fast path generates Python source per machine shape (baked constants,
inline replay blocks) and compiles it.  Runs of one shape in a process
share one code object: :func:`load_or_compile` compiles each distinct
source once.  A compile costs 3.8-4.7 ms for a fig10 shape (2-CPU host,
Python 3.11), which is noise next to the simulation it serves, so
nothing is cached on disk.
"""

from __future__ import annotations

from types import CodeType
from typing import Dict

#: Source text -> compiled code object.
_MEMO: Dict[str, CodeType] = {}


def load_or_compile(source: str, filename: str) -> CodeType:
    """The compiled form of ``source``, compiled once per process.

    ``filename`` is what tracebacks and profiles show for the generated
    code.
    """
    code = _MEMO.get(source)
    if code is None:
        code = _MEMO[source] = compile(source, filename, "exec")
    return code
