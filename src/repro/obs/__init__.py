"""repro.obs — the observability subsystem, in three layers:

* **tracing** (:mod:`repro.obs.tracing`) — span/event API with a
  near-zero-cost disabled path, instrumented through the kernel, the
  cache hierarchy, the DRAM models, the core and the executor;
  exports Chrome ``trace_event`` JSON viewable in Perfetto
  (``python -m repro run swim GHB --trace out.json``).
* **interval sampling** (:mod:`repro.obs.sampling`) — per-interval
  IPC, MPKI and memory-traffic rates on traced runs, emitted as
  ``sim.interval`` counter events into the same trace.
* **ledger** (:mod:`repro.obs.ledger`) — the persistent benchmark
  trajectory in ``BENCH_obs.json``; ``python -m repro.obs`` lists and
  diffs entries.

Only the stdlib is imported here: arming the tracer never drags
simulator modules in, so the kernel can import
:data:`~repro.obs.tracing.TRACER` without a cycle.
"""

from __future__ import annotations

from repro.obs.ledger import (
    DiffRow,
    Ledger,
    LedgerRecord,
    default_ledger_path,
    diff_records,
    host_fingerprint,
    make_record,
    peak_rss_kb,
    render_diff,
)
from repro.obs.sampling import IntervalSampler, maybe_sampler
from repro.obs.tracing import (
    TRACER,
    Tracer,
    disable_tracing,
    enable_tracing,
    tracing_enabled,
    validate_trace,
    validate_trace_file,
)

__all__ = [
    "DiffRow",
    "IntervalSampler",
    "Ledger",
    "LedgerRecord",
    "TRACER",
    "Tracer",
    "default_ledger_path",
    "diff_records",
    "disable_tracing",
    "enable_tracing",
    "host_fingerprint",
    "make_record",
    "maybe_sampler",
    "peak_rss_kb",
    "render_diff",
    "tracing_enabled",
    "validate_trace",
    "validate_trace_file",
]
