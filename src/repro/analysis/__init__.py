"""simlint — static contract & determinism analysis for the MicroLib model.

Run it as a module::

    PYTHONPATH=src python -m repro.analysis              # analyze src/repro
    python -m repro.analysis path/to/file.py --format json
    python -m repro.analysis --list-rules

Exit status: 0 clean, 1 violations found, 2 usage error.

The rule families (catalogue in ``docs/analysis.md``):

* **SIM0xx** analyzer hygiene — parse errors, bare allowlist comments.
* **SIM1xx** mechanism-contract conformance (``repro.mechanisms``).
* **SIM2xx** determinism lint (sim-path packages + ``workloads``).
* **SIM3xx** RunSpec/config purity (``repro.exec.runspec``, ``repro.core.config``).
* **SIM4xx** port/stat wiring (whole tree).
* **SIM5xx** observability wiring (whole tree) — orphan stats, dynamic
  span names.
* **SIM6xx** robustness discipline (sim path + ``repro.exec``) —
  swallowed exceptions that should propagate or become ``FailedRun``s;
  plus event-loop discipline for ``repro.serve`` — blocking calls in
  ``async def`` bodies that would stall every connected client.
* **SIM7xx** hot-path performance lint (sim-path packages) — allocation,
  unhoisted attribute chains, and per-iteration frames inside functions
  marked ``@hotpath``.
* **SIM8xx** fast-path guard completeness (``repro.cpu``) — the
  generated trace-speculation code is re-emitted for every machine shape
  and proven to guard every state it touches, replay the slow path's
  writes in order, and bake only fresh constants.

The same invariants have a *runtime* twin: setting ``REPRO_SANITIZE=1``
arms cheap assertions in the kernel and the cache hierarchy (see
``repro.sanitize``), so what the static pass proves about the source the
dynamic pass re-checks about the behaviour.
"""

from __future__ import annotations

# Importing the rule modules registers their rules.
from repro.analysis import (  # noqa: F401
    asyncrules,
    contract,
    determinism,
    fastpath,
    hotpath,
    obsrules,
    purity,
    robustness,
    wiring,
)
from repro.analysis.core import (
    Rule,
    SourceModule,
    Violation,
    all_rules,
    analyze_modules,
    analyze_paths,
    load_paths,
    rule,
)

__all__ = [
    "Rule",
    "SourceModule",
    "Violation",
    "all_rules",
    "analyze_modules",
    "analyze_paths",
    "load_paths",
    "rule",
]
