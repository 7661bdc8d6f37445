"""SimPoint: k-means over basic-block vectors, representative selection.

Implements the core of Sherwood et al.'s SimPoint (ASPLOS 2002) at our
scale: project the interval BBV matrix, cluster with k-means (several k
tried, best Bayesian-information-criterion-style score kept), and pick the
interval closest to the centroid of the *largest* cluster as the single
simulation point — matching the paper's methodology of "skipping up to the
first SimPoint" and simulating one representative trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.trace.bbv import basic_block_vectors

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SimPointResult:
    """Outcome of SimPoint selection."""

    interval: int            # interval length used (instructions)
    chosen_interval: int     # index of the representative interval
    cluster_sizes: Tuple[int, ...]
    labels: Tuple[int, ...]  # cluster label per interval
    k: int

    @property
    def start_instruction(self) -> int:
        return self.chosen_interval * self.interval


def _kmeans(
    data: np.ndarray, k: int, seed: int = 7, iterations: int = 40
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Plain k-means; returns (labels, centroids, inertia)."""
    import numpy as np

    rng = np.random.RandomState(seed)
    n = data.shape[0]
    centroids = data[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = data[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:  # re-seed an empty cluster at the farthest point
                centroids[j] = data[distances.min(axis=1).argmax()]
    inertia = float(
        ((data - centroids[labels]) ** 2).sum()
    )
    return labels, centroids, inertia


def _bic_score(inertia: float, n: int, k: int, dims: int) -> float:
    """Lower is better: inertia penalised by model complexity (BIC-like)."""
    import numpy as np

    if n <= 1:
        return inertia
    return n * np.log(max(inertia / n, 1e-12)) + k * np.log(n) * max(dims, 1) * 0.05


def pick_simpoint(
    trace: Sequence, interval: int = 2000, max_k: int = 6, seed: int = 7
) -> SimPointResult:
    """Run the SimPoint pipeline on ``trace``; choose one representative."""
    matrix, _ = basic_block_vectors(trace, interval)  # gates numpy
    import numpy as np

    n = matrix.shape[0]
    if n == 0:
        raise ValueError("trace too short for the chosen interval")
    # Dimensionality reduction via random projection (SimPoint uses 15 dims).
    dims = min(15, matrix.shape[1])
    rng = np.random.RandomState(seed)
    projection = rng.randn(matrix.shape[1], dims) / np.sqrt(dims)
    reduced = matrix @ projection

    best: Tuple[float, int, np.ndarray] = None  # (score, k, labels)
    for k in range(1, min(max_k, n) + 1):
        labels, _, inertia = _kmeans(reduced, k, seed=seed)
        score = _bic_score(inertia, n, k, dims)
        if best is None or score < best[0]:
            best = (score, k, labels)
    _, k, labels = best

    counts = np.bincount(labels, minlength=k)
    top_cluster = int(counts.argmax())
    members = np.flatnonzero(labels == top_cluster)
    centroid = reduced[members].mean(axis=0)
    distances = ((reduced[members] - centroid) ** 2).sum(axis=1)
    chosen = int(members[distances.argmin()])
    return SimPointResult(
        interval=interval,
        chosen_interval=chosen,
        cluster_sizes=tuple(int(c) for c in counts),
        labels=tuple(int(label) for label in labels),
        k=k,
    )


def simpoint_trace(
    trace: Sequence, length: int, interval: int = 2000, seed: int = 7
) -> List:
    """The paper's trace selection: ``length`` instructions starting at the
    chosen SimPoint ("skipping up to the first SimPoint")."""
    result = pick_simpoint(trace, interval=interval, seed=seed)
    start = result.start_instruction
    if start + length > len(trace):
        start = max(0, len(trace) - length)
    return list(trace[start:start + length])
