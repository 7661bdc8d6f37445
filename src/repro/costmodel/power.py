"""XCACTI-style power model.

"Power is determined by cache area and activity" (Section 3.1).  Two terms:

* **dynamic energy** — per-access energy of each structure (growing with
  the square root of its size and with associativity, the CACTI/XCACTI
  shape) times its access count.  Mechanism activity comes from the
  ``table_accesses`` statistic every mechanism maintains, plus the memory
  traffic its prefetches add.
* **leakage** — proportional to area.

The paper's Figure 5 findings this model must (and does) preserve:
Markov/DBCP burn power through sheer table size; GHB, despite tiny tables,
is power-greedy because "each miss can induce up to 4 requests, and a table
is scanned repeatedly"; SP's single lookup per miss keeps it as efficient
as TP.  Off-chip access power is excluded, as in the paper (footnote 4).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.core.config import CacheConfig, MachineConfig, baseline_config
from repro.core.results import RunResult
from repro.costmodel.cacti import CactiModel

if TYPE_CHECKING:
    from repro.mechanisms.base import Mechanism

#: nJ per access for a structure of 1 KB, single-ported (0.18 um scale).
_BASE_ENERGY_NJ = 0.08
#: Leakage, watts per mm^2 (only ratios matter).
_LEAKAGE_W_PER_MM2 = 0.004
#: Core frequency for converting cycles to seconds.
_FREQ_HZ = 2e9


def access_energy_nj(size_bytes: int, assoc: int = 1, ports: int = 1) -> float:
    """Per-access dynamic energy of one SRAM structure, nanojoules."""
    if size_bytes <= 0:
        return 0.01
    kb = size_bytes / 1024
    return _BASE_ENERGY_NJ * math.sqrt(max(kb, 0.05)) * (1 + 0.15 * (assoc - 1)) * ports


class PowerModel:
    """Activity-based power: Figure 5's power-ratio metric."""

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or baseline_config()
        self.cacti = CactiModel(self.config)

    def _cache_access_energy(self, cache: CacheConfig) -> float:
        return access_energy_nj(cache.size, cache.assoc, cache.ports)

    def base_energy_nj(self, result: RunResult) -> float:
        """Dynamic + leakage energy of the baseline hierarchy for one run."""
        stats = result.stats
        l1 = self.config.l1d
        l2 = self.config.l2
        l1_accesses = stats.get("memory.l1d.reads", 0) + stats.get(
            "memory.l1d.writes", 0
        )
        l2_accesses = stats.get("memory.l2.reads", 0) + stats.get(
            "memory.l2.writes", 0
        )
        dynamic = (
            l1_accesses * self._cache_access_energy(l1)
            + l2_accesses * self._cache_access_energy(l2)
        )
        seconds = result.cycles / _FREQ_HZ
        leakage = self.cacti.base_area() * _LEAKAGE_W_PER_MM2 * seconds * 1e9
        return dynamic + leakage

    def mechanism_energy_nj(
        self, mechanism: Optional[Mechanism], result: RunResult
    ) -> float:
        """Energy the mechanism's tables and extra traffic add."""
        if mechanism is None:
            return 0.0
        structures = mechanism.structures()
        total_area = self.cacti.structures_area(structures)
        if structures:
            # Table accesses are charged at the (size-weighted) mean
            # structure energy — individual counters per table would change
            # nothing at ratio level.
            total_bytes = sum(s.size_bytes for s in structures)
            mean_energy = sum(
                access_energy_nj(s.size_bytes, s.assoc, s.ports)
                * (s.size_bytes / total_bytes if total_bytes else 1)
                for s in structures
            )
        else:
            mean_energy = 0.0
        table_accesses = getattr(
            mechanism, "total_table_accesses", mechanism.st_table_accesses.value
        )
        dynamic = table_accesses * mean_energy
        # Prefetch traffic re-reads the cache it fills.
        target = self.config.l1d if mechanism.LEVEL == "l1" else self.config.l2
        dynamic += result.prefetches_issued * self._cache_access_energy(target)
        seconds = result.cycles / _FREQ_HZ
        leakage = total_area * _LEAKAGE_W_PER_MM2 * seconds * 1e9
        return dynamic + leakage

    def power_ratio(
        self, mechanism: Optional[Mechanism], result: RunResult
    ) -> float:
        """Figure 5's metric: (base + mechanism) / base power.

        Power = energy / time; both runs share the result's cycle count, so
        the ratio reduces to an energy ratio for the same work.
        """
        base = self.base_energy_nj(result)
        return (base + self.mechanism_energy_nj(mechanism, result)) / base
