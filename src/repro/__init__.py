"""repro — a reproduction of MicroLib (Gracia Pérez, Mouchard & Temam,
MICRO 2004): an open library of modular simulator components and a fair
quantitative comparison of hardware data-cache optimizations.

Quick start::

    from repro import run_benchmark
    print(run_benchmark("swim", "GHB").ipc)

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.

Every name in ``__all__`` but ``__version__`` is resolved on first use
(:mod:`repro.lazy`): ``import repro`` loads neither the simulator nor
numpy, and ``repro.run_benchmark`` imports the simulator when first
read.
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "ALL_BENCHMARKS": "repro.workloads.registry",
    "ALL_MECHANISMS": "repro.mechanisms.registry",
    "BASELINE": "repro.mechanisms.registry",
    "ComparisonSuite": "repro.core.comparison",
    "MachineConfig": "repro.core.config",
    "ResultSet": "repro.core.results",
    "RunResult": "repro.core.results",
    "baseline_config": "repro.core.config",
    "build_machine": "repro.core.simulation",
    "create": "repro.mechanisms.registry",
    "run_benchmark": "repro.core.simulation",
    "run_trace": "repro.core.simulation",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS, "__version__"]
