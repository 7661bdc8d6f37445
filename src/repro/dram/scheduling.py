"""DRAM address mapping (bank-interleaving) schemes.

The paper's SDRAM model "uses a bank interleaving scheme [20, 30] which
allows the DRAM controller to hide the access latency by pipelining page
opening and closing operations", and the authors "implemented several
schedule schemes proposed by Green et al. [8] and retained one that
significantly reduces conflicts in row buffers".

We provide the two classic mappings those references describe:

* **linear interleave** — consecutive memory blocks rotate across banks;
  rows are the high-order bits.  Strided streams whose stride is a multiple
  of ``banks * row_bytes`` hammer a single bank and conflict heavily.
* **permutation-based interleave** (Zhang, Zhu & Zhang, MICRO 2000) — the
  bank index is XOR-ed with low-order row bits, spreading conflicting rows
  across banks.  This is the retained "conflict-reducing" scheme and the
  default.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import SDRAMConfig

LINEAR_INTERLEAVE = "linear"
PERMUTATION_INTERLEAVE = "permutation"

#: Bytes covered by one open row (row buffer size).  8 KB is typical of the
#: SDRAM generation the paper models (1024 columns x 64-bit devices).
ROW_BYTES = 8192


class AddressMapping:
    """Map a physical byte address to ``(bank, row)``.

    >>> mapping = AddressMapping(SDRAMConfig(), LINEAR_INTERLEAVE)
    >>> bank0, row0 = mapping.map(0)
    >>> bank1, row1 = mapping.map(ROW_BYTES)
    >>> bank0 == bank1
    False
    """

    def __init__(self, config: SDRAMConfig, scheme: str = PERMUTATION_INTERLEAVE):
        if scheme not in (LINEAR_INTERLEAVE, PERMUTATION_INTERLEAVE):
            raise ValueError(f"unknown interleaving scheme {scheme!r}")
        self.config = config
        self.scheme = scheme
        self.banks = config.banks
        if self.banks & (self.banks - 1):
            raise ValueError(f"bank count must be a power of two, got {self.banks}")
        self.row_bytes = ROW_BYTES
        self._bank_mask = self.banks - 1
        # Both sizes are powers of two: divisions become shifts.
        self._row_shift = ROW_BYTES.bit_length() - 1
        self._bank_shift = self.banks.bit_length() - 1
        self._rows = config.rows
        self._permute = scheme == PERMUTATION_INTERLEAVE

    def map(self, addr: int) -> Tuple[int, int]:
        """Return ``(bank, row)`` for byte address ``addr``."""
        block = addr >> self._row_shift
        bank = block & self._bank_mask
        row = (block >> self._bank_shift) % self._rows
        if self._permute:
            bank ^= row & self._bank_mask
        return bank, row
