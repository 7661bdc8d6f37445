"""Basic-block-vector extraction (the front half of SimPoint).

A trace is cut into fixed-length instruction intervals; each interval is
summarised by a vector counting executions per basic block.  Without a
control-flow graph, a *basic block* is approximated as an aligned 64-byte
PC region — the granularity the Basic Block Vector generator effectively
sees for straight-line code, and sufficient for phase discovery because our
workload generators encode the phase in the PC stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.isa.instr import PC

if TYPE_CHECKING:
    import numpy as np

#: PC bits dropped when mapping a PC to its basic-block id.
_BLOCK_SHIFT = 6


def basic_block_vectors(
    trace: Sequence, interval: int = 2000
) -> Tuple[np.ndarray, List[int]]:
    """Summarise ``trace`` as per-interval basic-block frequency vectors.

    Returns ``(matrix, block_ids)``: ``matrix[i, j]`` is how often block
    ``block_ids[j]`` executed in interval ``i``, each row L1-normalised as
    SimPoint prescribes.  The final partial interval is kept when it covers
    at least half an interval, dropped otherwise.
    """
    try:  # numpy is optional: imported, and gated, at use
        import numpy as np
    except ImportError:  # pragma: no cover - numpy present in the test env
        raise ModuleNotFoundError(
            "numpy is required for basic-block vectors") from None
    if interval < 1:
        raise ValueError(f"interval must be positive, got {interval}")
    block_index: Dict[int, int] = {}
    rows: List[Dict[int, int]] = []
    current: Dict[int, int] = {}
    count = 0
    for record in trace:
        block = record[PC] >> _BLOCK_SHIFT
        index = block_index.setdefault(block, len(block_index))
        current[index] = current.get(index, 0) + 1
        count += 1
        if count == interval:
            rows.append(current)
            current = {}
            count = 0
    if count >= interval // 2 and current:
        rows.append(current)

    matrix = np.zeros((len(rows), len(block_index)))
    for i, row in enumerate(rows):
        for j, freq in row.items():
            matrix[i, j] = freq
    sums = matrix.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    matrix /= sums
    ordered = sorted(block_index, key=block_index.get)
    return matrix, ordered
