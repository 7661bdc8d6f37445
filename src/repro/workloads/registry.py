"""Benchmark registry: names, suites, article selections, cached builds.

The canonical order of :data:`ALL_BENCHMARKS` matches the paper's Table 4
(the 14 CFP2000 benchmarks alphabetically, then the 12 CINT2000 ones).

``ARTICLE_SELECTIONS`` reproduces Table 4's "benchmarks used in validated
mechanisms" rows, which drive the Table 7 experiment (influence of benchmark
selection).  The printed table in the source paper does not legibly identify
*which* columns carry the check marks for DBCP (5 benchmarks) and GHB (12
benchmarks); we use selections consistent with those counts and with the
mechanisms' target behaviours (DBCP's article evaluated irregular,
miss-heavy programs; GHB's evaluated the memory-intensive majority), and
document the substitution here and in DESIGN.md.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    from repro.workloads.base import WorkloadSpec
    from repro.workloads.image import MemoryImage

FP_BENCHMARKS: Tuple[str, ...] = (
    "ammp", "applu", "apsi", "art", "equake", "facerec", "fma3d", "galgel",
    "lucas", "mesa", "mgrid", "sixtrack", "swim", "wupwise",
)
INT_BENCHMARKS: Tuple[str, ...] = (
    "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser",
    "perlbmk", "twolf", "vortex", "vpr",
)
ALL_BENCHMARKS: Tuple[str, ...] = FP_BENCHMARKS + INT_BENCHMARKS

#: Benchmark subsets used by the original mechanism articles (Table 4).
ARTICLE_SELECTIONS: Dict[str, Tuple[str, ...]] = {
    # 5 benchmarks (DBCP row of Table 4).
    "DBCP": ("art", "equake", "mcf", "parser", "vpr"),
    # 12 benchmarks (GHB row of Table 4).
    "GHB": (
        "ammp", "applu", "art", "equake", "facerec", "galgel",
        "lucas", "mcf", "mgrid", "swim", "twolf", "wupwise",
    ),
    # TK / TKVC / TCP were validated on all 26 (Table 4).
    "TK": ALL_BENCHMARKS,
    "TKVC": ALL_BENCHMARKS,
    "TCP": ALL_BENCHMARKS,
}

#: The six most and least mechanism-sensitive benchmarks named in the paper
#: (Section 3.2, Figure 7).
HIGH_SENSITIVITY: Tuple[str, ...] = ("apsi", "equake", "fma3d", "mgrid", "swim", "gap")
LOW_SENSITIVITY: Tuple[str, ...] = (
    "wupwise", "bzip2", "crafty", "eon", "perlbmk", "vortex",
)


def get_spec(name: str) -> WorkloadSpec:
    """Return the workload specification for benchmark ``name``."""
    from repro.workloads.spec2000 import SPECS

    try:
        return SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(ALL_BENCHMARKS)}"
        ) from None


@lru_cache(maxsize=64)
def build(
    name: str, n_instructions: int
) -> Tuple[List[Tuple[int, int, int, int, int]], MemoryImage]:
    """Build (and cache) the trace and functional image for ``name``.

    The same ``(name, n_instructions)`` pair always returns the same
    objects; callers must not mutate the trace.  The image absorbs the
    simulated machine's stores.  A run over the whole trace replays every
    generation-time store in order, so it leaves the image as it found it.
    A run over a slice (a prefix, window or SimPoint selection) would leave
    the slice's last stores behind, and value-based mechanisms in later
    runs would read them, so such a run must happen inside
    :meth:`MemoryImage.rewinding` (as ``RunSpec.execute``,
    ``run_benchmark`` and ``sampled_ipc`` do).

    Builds are memoised twice: in process by ``lru_cache``, and on disk by
    :mod:`repro.workloads.store` so fresh processes (CLI runs, ledger
    records, fleet workers) skip generation entirely.  The generator and
    the store are imported on the first call, not with this module, so
    the benchmark catalogue costs no generator import.
    """
    from repro.workloads import store
    from repro.workloads.base import SyntheticWorkload

    spec = get_spec(name)  # validates the name before any cache probe
    cached = store.load(name, n_instructions)
    if cached is not None:
        return cached
    trace, image = SyntheticWorkload(spec).build(n_instructions)
    store.save(name, n_instructions, trace, image)
    return trace, image


def clear_cache() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    build.cache_clear()
