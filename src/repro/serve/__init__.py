"""repro.serve: the sharded sweep service.

The execution substrate grown over the last several PRs — content-
hashed :class:`~repro.exec.runspec.RunSpec` identity, the sharded
content-addressed :class:`~repro.exec.store.ResultStore`, write-ahead
journals, deterministic chaos — promoted into a distributed job
system:

* :mod:`repro.serve.server` — an asyncio front-end
  (``python -m repro.serve``) accepting sweep submissions over a unix
  socket (and optional TCP) and streaming per-spec results and
  progress back to every subscriber;
* the worker fleet — N independent worker processes (any hosts sharing
  the cache directory) leasing specs through flock-guarded
  transactions over queue/lease WALs (:mod:`repro.exec.fleet`,
  :mod:`repro.exec.worker`: the same fleet ``--jobs N`` runs on a
  private queue), with release-on-death and expiry-based reclaim so
  ``kill-worker`` chaos provably converges;
* :mod:`repro.serve.client` — a blocking submitter and
  :class:`~repro.serve.client.ServeExecutor`, the drop-in executor
  behind ``python -m repro <exhibit> --serve SOCK``;
* :mod:`repro.serve.protocol` — the JSON-line wire format (specs
  travel by hash-verified value).

The headline is **multi-client in-flight dedupe**: overlapping sweeps
submitted by different clients share work *while it runs* — each spec
hash is simulated at most once fleet-wide and every subscriber receives
the result — not merely after it lands in the store.
"""

from __future__ import annotations

from repro.serve.client import (
    ServeExecutor,
    ServeUnavailable,
    SubmitOutcome,
    SweepClient,
)
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError, spec_payload
from repro.serve.server import SweepServer

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeExecutor",
    "ServeUnavailable",
    "SubmitOutcome",
    "SweepClient",
    "SweepServer",
    "spec_payload",
]
