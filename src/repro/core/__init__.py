"""MicroLib core: configuration, simulation driver, comparison engine.

This package is the paper's primary contribution rendered as a library:

* :mod:`repro.core.config` — the Table 1 machine and its variants;
* :mod:`repro.core.simulation` — the machine: build one, attach a
  mechanism, run a benchmark trace, return IPC and detailed statistics;
* :mod:`repro.core.comparison` — sweep mechanisms x benchmarks into a
  result matrix (the substrate of every figure);
* :mod:`repro.core.selection` — rankings and the benchmark-subset winner
  search (Tables 6 and 7);
* :mod:`repro.core.sensitivity` — per-benchmark sensitivity analysis
  (Figures 6 and 7);
* :mod:`repro.core.results` — :class:`RunResult`, the run-length
  defaults and serialisable result sets;
* :mod:`repro.core.priorwork` — who compared against whom (Table 5).

The names below are resolved on first use (:mod:`repro.lazy`), so
importing one of these modules does not import the others:
``repro.core.config`` and ``repro.core.results`` load no simulator, and
``repro.core.run_benchmark`` imports :mod:`repro.core.simulation` (the
machine) when first read.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "BusConfig": "repro.core.config",
    "CacheConfig": "repro.core.config",
    "ComparisonSuite": "repro.core.comparison",
    "CoreConfig": "repro.core.config",
    "MEMORY_CONSTANT": "repro.core.config",
    "MEMORY_SDRAM": "repro.core.config",
    "MEMORY_SDRAM_FAST": "repro.core.config",
    "MachineConfig": "repro.core.config",
    "ResultSet": "repro.core.results",
    "RunResult": "repro.core.results",
    "SDRAMConfig": "repro.core.config",
    "baseline_config": "repro.core.config",
    "benchmark_sensitivity": "repro.core.sensitivity",
    "build_machine": "repro.core.simulation",
    "rank_mechanisms": "repro.core.selection",
    "ranking_table": "repro.core.selection",
    "run_benchmark": "repro.core.simulation",
    "sensitivity_split": "repro.core.sensitivity",
    "winners_by_subset_size": "repro.core.selection",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
