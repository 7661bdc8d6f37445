"""Sweep-service front end: server, worker, fleet, client, soak.

Examples::

    python -m repro.serve                     # server on <cache>/serve/serve.sock
    python -m repro.serve server --max-queue 64 --max-client-inflight 32
    python -m repro.serve worker --drain      # one worker, exit when drained
    python -m repro.serve fleet --workers 4   # four forked workers, supervised
    python -m repro.serve client --benchmark swim --mechanism TP --n 2000
    python -m repro.serve quarantine          # list quarantined specs
    python -m repro.serve quarantine clear    # re-open them, fresh lease budget
    python -m repro.serve soak --seed 7       # composed-chaos soak harness

All roles share state only through the cache directory (``--cache-dir``
or ``$REPRO_CACHE_DIR``): the sharded result store, and the fleet's
queue/lease WALs under ``<cache>/serve/``.  Workers can therefore run
on different hosts than the server, as long as the directory is shared.

The ``fleet`` subcommand is a local convenience launcher: it forks N
workers through the :class:`~repro.exec.worker.Supervisor` that
``python -m repro --jobs N`` also uses.  A worker that dies holding a
lease (``kill-worker`` and ``poison`` chaos, a crash, an OOM kill) has
the lease released at once and is respawned, so chaos runs converge; a
worker that exits non-zero holding none makes the fleet exit 1.  With
``--drain`` the fleet exits 0 once its workers report the queue fully
resolved.

``soak`` (see :mod:`repro.serve.soak`) is the composed-chaos proof CI
runs: server + fleet + concurrent clients under every serve-relevant
fault kind at once, seed-pinned, asserting convergence, byte-identity
to a serial run, quarantine correctness and a clean fsck.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import List, Optional

from repro.exec.fleet import DEFAULT_LEASE_TTL, Fleet
from repro.exec.store import ResultStore
from repro.serve.server import SweepServer


def _store_and_fleet(args: argparse.Namespace) -> "tuple[ResultStore, Fleet]":
    store = ResultStore(args.cache_dir)  # None -> default cache dir
    return store, Fleet(store.serve_dir, ttl=args.ttl,
                        max_leases=args.max_leases)


def _cmd_server(args: argparse.Namespace) -> int:
    # SIGINT stops the server, even one started in the background of a
    # non-interactive shell, which inherits the signal ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    store, fleet = _store_and_fleet(args)
    server = SweepServer(
        store, fleet,
        socket_path=args.socket,
        max_queue=args.max_queue,
        max_client_inflight=args.max_client_inflight,
        retry_after=args.retry_after,
    )
    try:
        print(f"serve: listening on unix:{server.socket_path}",
              file=sys.stderr, flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print(
            f"serve: shutting down ({server.leased_total} leased, "
            f"{server.shared_total} shared, {server.store_total} store, "
            f"{server.shed_total} shed, "
            f"{server.quarantined_total} quarantined, "
            f"{server.expired_total} expired over this lifetime)",
            file=sys.stderr,
        )
    finally:
        server.server_close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    # Imported by the commands that simulate: it loads the simulator,
    # which the server and the client never need.
    from repro.exec.worker import Worker

    store, fleet = _store_and_fleet(args)
    worker_id = args.worker_id or f"worker-{os.getpid()}"
    worker = Worker(fleet, store, worker_id,
                    checkpoint_every=args.checkpoint_every)
    try:
        status = worker.run(drain=args.drain, idle_timeout=args.idle_timeout)
    except KeyboardInterrupt:
        status = 130
    print(
        f"worker {worker_id}: {worker.completed} completed, "
        f"{worker.failed} failed",
        file=sys.stderr,
    )
    return status


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.exec.worker import Supervisor, Worker

    store, fleet = _store_and_fleet(args)
    supervisor = Supervisor(
        fleet,
        lambda worker_id: Worker(fleet, store, worker_id,
                                 checkpoint_every=args.checkpoint_every),
        size=args.workers, drain=args.drain, idle_timeout=args.idle_timeout,
    )
    try:
        return supervisor.run()
    except KeyboardInterrupt:
        return 130


def _cmd_client(args: argparse.Namespace) -> int:
    """One spec, one submission — the smallest possible fleet client."""
    from repro.exec.runspec import RunSpec
    from repro.serve.client import ServeUnavailable, SweepClient

    store = ResultStore(args.cache_dir)
    sock = args.socket or str(store.serve_dir / "serve.sock")
    spec = RunSpec(benchmark=args.benchmark, mechanism=args.mechanism,
                   n_instructions=args.n)
    client = SweepClient(socket_path=sock, client_id=f"cli-{os.getpid()}")
    deadline = (time.time() + args.deadline
                if args.deadline is not None else None)
    try:
        outcome = client.submit([spec], deadline=deadline,
                                retry_failed=args.retry_failed)
    except ServeUnavailable as exc:
        if "cannot reach" in str(exc):
            print(f"cannot connect to {sock} (is the server running?)",
                  file=sys.stderr)
            return 2
        print(f"repro.serve client: {exc}", file=sys.stderr)
        return 1
    key = spec.content_hash
    failure = outcome.failures.get(key)
    if failure is not None:
        print(f"FAILED {key[:12]}… {failure.summary()}")
        return 1
    result = outcome.results.get(key)
    source = outcome.sources.get(key, "?")
    seconds = outcome.seconds.get(key, 0.0)
    ipc = getattr(result, "ipc", None)
    print(f"ok {key[:12]}… {args.benchmark}/{args.mechanism} "
          f"({source}, {seconds:.3f}s"
          + (f", ipc {ipc:.4f}" if isinstance(ipc, float) else "") + ")")
    return 0


def _cmd_quarantine(args: argparse.Namespace) -> int:
    """Inspect or clear the fleet's poison quarantine."""
    _store, fleet = _store_and_fleet(args)
    snap = fleet.snapshot()
    if args.action == "clear":
        targets = None
        if args.hash:
            targets = [h for h in snap.quarantined
                       if h.startswith(args.hash)]
        cleared = fleet.clear_quarantine(targets)
        for spec_hash in cleared:
            print(f"  reopened {spec_hash}")
        print(f"quarantine: cleared {len(cleared)} spec"
              f"{'' if len(cleared) == 1 else 's'}")
        return 0
    if args.action is not None:
        print(f"quarantine: unknown action {args.action!r} "
              "(expected: clear)", file=sys.stderr)
        return 1
    for spec_hash in sorted(snap.quarantined):
        failure = snap.failures.get(spec_hash)
        detail = f"  {failure.summary()}" if failure is not None else ""
        print(f"  {spec_hash}{detail}")
    print(f"quarantine: {len(snap.quarantined)} spec"
          f"{'' if len(snap.quarantined) == 1 else 's'}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="sharded sweep service: server, workers, fleets, "
                    "clients, chaos soaks",
    )
    parser.add_argument(
        "subcommand", nargs="?", default="server",
        choices=("server", "worker", "fleet", "client", "quarantine",
                 "soak"),
        help="server (default): accept submissions; worker: one fleet "
             "member; fleet: spawn and supervise N local workers; "
             "client: submit one spec; quarantine: list/clear poison "
             "specs; soak: seed-pinned composed-chaos harness",
    )
    parser.add_argument(
        "action", nargs="?", default=None,
        help="subcommand action (quarantine: 'clear')",
    )
    parser.add_argument("--cache-dir", default=None,
                        help="shared cache directory (default ~/.cache/repro "
                             "or $REPRO_CACHE_DIR); the store and the fleet "
                             "WALs live here")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="unix socket to listen on (server; default "
                             "<cache>/serve/serve.sock)")
    parser.add_argument("--ttl", type=float, default=DEFAULT_LEASE_TTL,
                        help="lease TTL in seconds (worker/fleet; must "
                             f"exceed one simulation's wall time; default "
                             f"{DEFAULT_LEASE_TTL:g})")
    parser.add_argument("--worker-id", default=None,
                        help="stable worker identity (worker; default "
                             "worker-<pid>)")
    parser.add_argument("--workers", type=int, default=2,
                        help="fleet size (fleet; default 2)")
    parser.add_argument("--drain", action="store_true",
                        help="exit 0 once the queue is fully resolved "
                             "(worker/fleet; default: serve forever)")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        metavar="SEC",
                        help="with --drain, exit 0 after SEC idle seconds "
                             "even if no work ever arrived")
    parser.add_argument("--max-queue", type=int, default=None, metavar="N",
                        help="admission watermark: shed submissions while "
                             "N or more hashes are in flight (server; "
                             "default unbounded)")
    parser.add_argument("--max-client-inflight", type=int, default=None,
                        metavar="N",
                        help="per-client cap on outstanding hashes "
                             "(server; default unbounded)")
    parser.add_argument("--retry-after", type=float, default=0.05,
                        metavar="SEC",
                        help="deterministic base retry hint quoted in "
                             "overloaded answers (server; default 0.05)")
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                        help="cut a crash-safe mid-run snapshot every N "
                             "committed instructions (worker/fleet; default "
                             "0 = off); a reclaimed lease resumes from the "
                             "newest snapshot instead of instruction zero, "
                             "bit-identical either way")
    parser.add_argument("--max-leases", type=int, default=None, metavar="N",
                        help="leases a spec may burn before quarantine "
                             "(worker/fleet; default: RetryPolicy-derived)")
    parser.add_argument("--benchmark", default="swim",
                        help="benchmark to submit (client; default swim)")
    parser.add_argument("--mechanism", default="TP",
                        help="mechanism to submit (client; default TP)")
    parser.add_argument("--n", type=int, default=2000,
                        help="instructions to simulate (client/soak; "
                             "default 2000)")
    parser.add_argument("--deadline", type=float, default=None, metavar="SEC",
                        help="relative submission deadline in seconds "
                             "(client); undispatched work past it becomes "
                             "timeout holes")
    parser.add_argument("--retry-failed", action="store_true",
                        help="re-open recorded failures, quarantined specs "
                             "included (client)")
    parser.add_argument("--hash", default=None, metavar="PREFIX",
                        help="limit `quarantine clear` to hashes with this "
                             "prefix")
    parser.add_argument("--seed", type=int, default=7,
                        help="chaos seed for soak (default 7)")
    parser.add_argument("--clients", type=int, default=2,
                        help="concurrent soak clients (default 2)")
    parser.add_argument("--benchmarks", default="swim,art",
                        help="comma-separated soak benchmarks "
                             "(default swim,art)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the soak scratch directory for "
                             "post-mortems")
    args = parser.parse_args(argv)
    if args.subcommand == "worker":
        return _cmd_worker(args)
    if args.subcommand == "fleet":
        return _cmd_fleet(args)
    if args.subcommand == "client":
        return _cmd_client(args)
    if args.subcommand == "quarantine":
        return _cmd_quarantine(args)
    if args.subcommand == "soak":
        from repro.serve.soak import run_soak
        return run_soak(args)
    return _cmd_server(args)


if __name__ == "__main__":
    sys.exit(main())
