"""CACTI-style analytical area model.

CACTI decomposes an SRAM structure into data array, tag array, decoders,
sense amplifiers and output drivers.  At the granularity the paper uses the
model — *area ratios between whole mechanisms and the base cache* — the
dominant terms are:

* data storage, linear in bit count;
* tag/valid overhead, linear in line count and associativity;
* peripheral overhead (decoders, sense amps), sub-linear in size but
  multiplied by port count (each extra port nearly doubles cell area:
  CACTI's cell grows quadratically with ports);
* a fixed per-structure floor so a 64-byte scanner is not free.

Constants are calibrated to CACTI 3.2's published 0.18 um numbers
(a 32 KB direct-mapped cache ~= 1.6 mm^2; 1 MB 4-way ~= 42 mm^2), but only
ratios matter for the reproduction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.core.config import CacheConfig, MachineConfig, baseline_config

if TYPE_CHECKING:
    from repro.mechanisms.base import Mechanism, StructureSpec

#: mm^2 per SRAM bit at the modelled node (0.18 um, single-ported).
_MM2_PER_BIT = 4.1e-7
#: Tag + status overhead per line, bits.
_TAG_BITS = 28
#: Peripheral (decoder/sense/driver) overhead factor per sqrt(bit).
_PERIPHERY_MM2_PER_SQRT_BIT = 6.0e-5
#: Extra cell-area multiplier per port beyond the first.
_PORT_FACTOR = 0.85
#: Associativity adds comparators and muxes.
_ASSOC_FACTOR = 0.03
#: Fixed floor for any structure (control, wiring), mm^2.
_FLOOR_MM2 = 0.002


def area_mm2(
    size_bytes: int, assoc: int = 1, ports: int = 1, line_size: int = 32
) -> float:
    """CACTI-style area of one SRAM structure in mm^2."""
    if size_bytes <= 0:
        return _FLOOR_MM2
    if assoc < 1 or ports < 1:
        raise ValueError(f"assoc and ports must be >= 1 (got {assoc}, {ports})")
    data_bits = size_bytes * 8
    n_lines = max(1, size_bytes // max(line_size, 1))
    tag_bits = n_lines * _TAG_BITS
    bits = data_bits + tag_bits
    cell = bits * _MM2_PER_BIT * (1 + _PORT_FACTOR * (ports - 1)) ** 2
    periphery = _PERIPHERY_MM2_PER_SQRT_BIT * math.sqrt(bits) * ports
    assoc_overhead = cell * _ASSOC_FACTOR * (assoc - 1)
    return _FLOOR_MM2 + cell + periphery + assoc_overhead


class CactiModel:
    """Prices caches and mechanism structures; reports Figure 5's ratios."""

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or baseline_config()

    def cache_area(self, cache: CacheConfig) -> float:
        return area_mm2(
            cache.size, cache.assoc, cache.ports, cache.line_size
        )

    def base_area(self) -> float:
        """Area of the baseline data-cache hierarchy (L1D + L2)."""
        return self.cache_area(self.config.l1d) + self.cache_area(self.config.l2)

    def structures_area(self, structures: Iterable[StructureSpec]) -> float:
        return sum(
            area_mm2(spec.size_bytes, spec.assoc, spec.ports)
            for spec in structures
        )

    def mechanism_area(self, mechanism: Optional[Mechanism]) -> float:
        """Area the mechanism adds on top of the base hierarchy."""
        if mechanism is None:
            return 0.0
        return self.structures_area(mechanism.structures())

    def cost_ratio(self, mechanism: Optional[Mechanism]) -> float:
        """Figure 5's metric: (base + mechanism) / base area."""
        base = self.base_area()
        return (base + self.mechanism_area(mechanism)) / base

    def report(self, mechanisms: List[Optional[Mechanism]]) -> List[float]:
        return [self.cost_ratio(m) for m in mechanisms]
