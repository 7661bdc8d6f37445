"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports every name it re-exports makes
importing any module below it pay for all of them; for ``repro`` that
is the whole simulator, which a process that only reads results from
the store never runs.  A package that uses :func:`lazy_exports` imports
nothing up front: ``from repro import run_benchmark`` and
``repro.RunResult`` still work, and import the defining module on the
first access.

Each access looks the name up in its defining module and nothing is
cached in the package's namespace, so a package attribute always agrees
with the module that defines it, also after that module's function is
replaced in place (the benchmark's per-layer timing does this).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """A ``__getattr__`` and ``__dir__`` pair for ``package``.

    ``exports`` maps each re-exported name to the module that defines
    it.  Assign the pair to the package's ``__getattr__`` and
    ``__dir__``.
    """

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        return getattr(import_module(module), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
