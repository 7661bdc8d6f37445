"""Which generator wrote a stored workload.

Each file of the workload store (:mod:`repro.workloads.store`) is named
``<benchmark>-<n>-<digest>.mar``, where the digest covers the generator
sources and the interpreter that wrote it; the store reads only files
under the running interpreter's digest.  This module computes that
digest from the files :func:`importlib.util.find_spec` locates, without
importing them, so ``python -m repro.exec fsck`` can tell stale files
from current ones and still load neither the generator nor the
simulator.
"""

from __future__ import annotations

import hashlib
import sys
from importlib.util import find_spec
from pathlib import Path
from typing import List

#: Bumped when the store's serialised layout changes shape.
FORMAT = 2

#: Every module whose source a build's output depends on: the generator
#: modules and each ``repro`` module they import (the trace records carry
#: ``repro.isa.instr.Op`` codes).
GENERATOR_MODULES = (
    "repro.isa.instr",
    "repro.workloads.base",
    "repro.workloads.image",
    "repro.workloads.patterns",
    "repro.workloads.spec2000",
)


def generator_digest() -> str:
    """Digest of everything a build's output depends on."""
    h = hashlib.sha256()
    h.update(f"format={FORMAT};tag={sys.implementation.cache_tag}".encode())
    for name in GENERATOR_MODULES:
        spec = find_spec(name)
        if spec is None or spec.origin is None:
            raise ModuleNotFoundError(f"no source file for {name}")
        h.update(Path(spec.origin).read_bytes())
    return h.hexdigest()[:16]


def stale_files(directory: Path) -> List[Path]:
    """The stored builds in ``directory`` that no build here will read."""
    current = f"-{generator_digest()}.mar"
    return sorted(path for path in directory.glob("*.mar")
                  if not path.name.endswith(current))
