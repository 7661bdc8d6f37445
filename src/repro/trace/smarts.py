"""SMARTS-style systematic sampling (Wunderlich et al., ISCA 2003).

The paper cites SMARTS alongside SimPoint as the rigorous alternatives to
arbitrary skip-and-simulate windows (Section 3.5).  SMARTS measures many
small, periodically spaced detailed windows instead of one long chunk, and
reports a confidence interval from the sample variance — turning "is this
trace representative?" into a statistical statement.

:func:`systematic_sample` extracts the windows; :func:`sampled_ipc` runs
each window once on a fresh machine (with a warm-up prefix, SMARTS'
functional warming idea scaled down) and aggregates mean IPC with a CLT
confidence interval.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import MachineConfig
from repro.core.simulation import build_machine


@dataclass(frozen=True)
class SampledEstimate:
    """Mean IPC over the sampled windows with its confidence half-width."""

    mean_ipc: float
    half_width: float       # at the requested confidence level
    n_windows: int
    window_ipcs: Tuple[float, ...]

    @property
    def relative_error(self) -> float:
        if self.mean_ipc == 0:
            return 0.0
        return self.half_width / self.mean_ipc


def systematic_sample(
    trace: Sequence,
    n_windows: int,
    window: int,
    warmup: int = 0,
) -> List[Tuple[List, int]]:
    """Cut ``n_windows`` evenly spaced ``(prefix+window, measure_from)``.

    Each element is a slice ending with the measured window and starting
    ``warmup`` instructions earlier (cache warm-up), plus the index within
    the slice where measurement starts.
    """
    if n_windows < 1 or window < 1 or warmup < 0:
        raise ValueError("n_windows and window must be >= 1, warmup >= 0")
    needed = n_windows * window
    if needed > len(trace):
        raise ValueError(
            f"{n_windows} windows of {window} need {needed} instructions; "
            f"trace has {len(trace)}"
        )
    period = len(trace) // n_windows
    samples = []
    for k in range(n_windows):
        end = k * period + window
        start = max(0, k * period - warmup)
        samples.append((list(trace[start:end]), k * period - start))
    return samples


def sampled_ipc(
    trace: Sequence,
    n_windows: int = 10,
    window: int = 1000,
    warmup: int = 2000,
    confidence: float = 0.95,
    config: Optional[MachineConfig] = None,
    image=None,
) -> SampledEstimate:
    """SMARTS estimate of a trace's IPC from systematic windows.

    Each window runs once, on a fresh machine, measured from the end of
    its warm-up prefix.
    """
    try:  # numpy is optional: imported, and gated, at use
        import numpy as np
    except ImportError:  # pragma: no cover - numpy present in the test env
        raise ModuleNotFoundError(
            "numpy is required for SMARTS estimates") from None
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    ipcs = []
    # The windows' stores must not stay in a shared (memoised) image.
    with image.rewinding() if image is not None else nullcontext():
        for slice_, measure_from in systematic_sample(
            trace, n_windows, window, warmup
        ):
            core, _ = build_machine(config, None, image)
            ipcs.append(core.run(slice_, measure_from=measure_from).ipc)
    data = np.asarray(ipcs)
    mean = float(data.mean())
    if len(data) > 1:
        # Normal-approximation CLT interval (SMARTS' large-sample regime).
        z = _z_value(confidence)
        half = float(z * data.std(ddof=1) / math.sqrt(len(data)))
    else:
        half = 0.0
    return SampledEstimate(
        mean_ipc=mean, half_width=half, n_windows=len(data),
        window_ipcs=tuple(float(x) for x in data),
    )


def _z_value(confidence: float) -> float:
    """Two-sided normal quantile via erf inversion (no scipy needed)."""
    # Newton iteration on erf(x/sqrt(2)) = confidence.
    target = confidence
    x = 1.0
    for _ in range(60):
        err = math.erf(x / math.sqrt(2)) - target
        slope = math.sqrt(2 / math.pi) * math.exp(-x * x / 2)
        if slope == 0:
            break
        step = err / slope
        x -= step
        if abs(step) < 1e-12:
            break
    return x
