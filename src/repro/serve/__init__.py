"""repro.serve: the sharded sweep service.

The execution substrate grown over the last several PRs — content-
hashed :class:`~repro.exec.runspec.RunSpec` identity, the sharded
content-addressed :class:`~repro.exec.store.ResultStore`, write-ahead
journals, deterministic chaos — promoted into a distributed job
system:

* :mod:`repro.serve.server` — a threaded front-end
  (``python -m repro.serve``) accepting sweep submissions over a unix
  socket and streaming per-spec results and progress back to each
  submitter, which waits on the fleet's queue exactly as the
  ``--jobs N`` driver does (:meth:`repro.exec.fleet.Fleet.tail`);
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
submitted by different clients share work *while it runs* — the fleet
queue takes each spec hash once, so it is simulated at most once
fleet-wide and every submission waiting on it receives the result —
not merely after it lands in the store.
"""

from __future__ import annotations

from repro.lazy import lazy_exports

# Resolved on first use (:mod:`repro.lazy`): a ``--serve`` client loads
# the client and the wire format, never the server.
_EXPORTS = {
    "PROTOCOL_VERSION": "repro.serve.protocol",
    "ProtocolError": "repro.serve.protocol",
    "ServeExecutor": "repro.serve.client",
    "ServeUnavailable": "repro.serve.client",
    "SubmitOutcome": "repro.serve.client",
    "SweepClient": "repro.serve.client",
    "SweepServer": "repro.serve.server",
    "spec_payload": "repro.serve.protocol",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
