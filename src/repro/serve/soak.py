"""The composed-chaos soak: every serve fault at once, seed-pinned.

``python -m repro.serve soak`` is the service's end-to-end robustness
proof — the thing CI runs to show the hardening layers *compose*.  One
invocation drives four legs, all scratch-dir isolated and entirely
deterministic in ``--seed``:

1. **Serial baseline** — the exhibit runs locally, no service, no
   faults.  Its stdout is the byte-identity oracle for everything
   after, and its store hashes are where the poison spec is chosen
   (``sorted(hashes)[seed % len]`` — pure arithmetic, no RNG).
2. **Chaos, no poison** — server + respawning fleet under
   ``kill-worker`` + ``corrupt-store`` + ``disk-full`` +
   ``kill-midrun`` + ``corrupt-checkpoint`` chaos (the fleet runs with
   ``--checkpoint-every``, so workers die mid-simulation and reclaims
   resume from snapshots — some deliberately torn), clients under
   ``corrupt-journal`` (serve-mode clients journal nothing, which
   is the point: an armed fault with no surface must stay inert), all
   seeded.  Every client's stdout must be **byte-identical to the
   serial baseline** — torn writes, killed workers and full disks are
   re-run noise, never output.
3. **Chaos + poison** — the same plan plus ``poison:PREFIX``: every
   worker that leases the chosen spec dies, so the fleet must converge
   through the quarantine bound instead.  All clients must agree
   byte-for-byte with each other, render the poison hole as a DEGRADED
   annotation, and the fleet WAL must hold exactly the chosen spec in
   quarantine — with a bounded respawn count (a crash *loop* is exactly
   what quarantine forbids).
4. **Overload** — a 1-deep admission watermark against more clients
   than it can hold, with the fleet started only once the server has
   shed its first submission (so the overload does not hang on client
   start-up skew).  The server must shed with ``overloaded``, the
   clients must recover through seeded backoff, and every final stdout
   must again equal the serial baseline.

A final ``python -m repro.exec fsck`` over each chaos cache must exit
0: quarantine records cross-check against store holes, and no torn
entry or stale temp survives.  Any violated assertion prints a
``soak: FAIL`` line with the evidence and exits 1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.fleet import Fleet
from repro.exec.store import ResultStore

#: Wall-clock ceiling for any single subprocess in the soak, seconds.
SUBPROCESS_TIMEOUT = 600.0

#: How long to wait for the server's socket to appear, seconds.
SOCKET_TIMEOUT = 30.0

#: How long the overload leg waits for the fleet-less server's first
#: shed before it starts the fleet, seconds.
SHED_TIMEOUT = 60.0

#: Lease TTL for soak fleets: short, so killed workers' specs are
#: reclaimed quickly and the poison crash loop trips its bound in
#: seconds, yet still several multiples of the renew interval.
SOAK_TTL = 1.0

#: Fault rates for the composed plan.  High enough that every kind
#: demonstrably fires on a fig10-sized sweep, low enough that most
#: specs still take the clean path.  ``kill-midrun`` and
#: ``corrupt-checkpoint`` only have a surface because the soak fleets
#: run with ``--checkpoint-every``: workers die mid-simulation right
#: after a snapshot lands (and some snapshots are torn), and the
#: reclaimant must resume bit-identically anyway.
CHAOS_RATES = ("kill-worker:0.4,corrupt-store:0.4,disk-full:0.4,"
               "kill-midrun:0.4,corrupt-checkpoint:0.4")

#: Mid-run snapshot cadence for soak fleets, committed instructions.
#: Small enough that a default ``--n 2000`` run cuts several snapshots
#: (so kill-midrun has somewhere to fire and resume has something to
#: load), large enough to stay a sliver of each run's wall time.
SOAK_CHECKPOINT_EVERY = 500


class SoakError(AssertionError):
    """One soak assertion, with enough evidence to debug from CI logs."""


@dataclass
class LegResult:
    """Everything one service leg produced, for assertions."""

    #: Per client: (exit status, stdout, stderr).
    clients: List[Tuple[int, str, str]]
    server_stderr: str
    fleet_stderr: str

    @property
    def respawns(self) -> int:
        return self.fleet_stderr.count("respawning")


def _say(message: str) -> None:
    print(f"soak: {message}", flush=True)


def _base_env(cache: Path) -> Dict[str, str]:
    """The inherited environment, scrubbed of ambient chaos/ledger state.

    ``REPRO_CACHE_DIR`` is ``cache``, the leg's own directory: the
    children's workload store stays in the soak's scratch with their
    results, never in the user's default cache.
    """
    env = dict(os.environ)
    for key in ("REPRO_FAULTS", "REPRO_LEDGER"):
        env.pop(key, None)
    env["REPRO_CACHE_DIR"] = str(cache)
    return env


def _exhibit_cmd(args: argparse.Namespace, cache: Path,
                 serve_sock: Optional[Path] = None) -> List[str]:
    cmd = [
        sys.executable, "-m", "repro", "fig10",
        "--n", str(args.n), "--benchmarks", args.benchmarks,
        "--cache-dir", str(cache),
    ]
    if serve_sock is None:
        cmd.extend(["--jobs", "1"])
    else:
        cmd.extend(["--serve", str(serve_sock)])
    return cmd


def _wait_for(ready: Callable[[], bool], server: "subprocess.Popen[str]",
              log: Path, timeout: float, what: str) -> None:
    """Poll ``ready()`` until it holds; the server must stay up meanwhile."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if ready():
            return
        if server.poll() is not None:
            raise SoakError(
                f"server exited {server.returncode} while waiting for "
                f"{what}:\n{log.read_text()}"
            )
        time.sleep(0.05)
    raise SoakError(f"timed out after {timeout:.0f}s waiting for {what}:\n"
                    f"{log.read_text()}")


def _stop(proc: "subprocess.Popen[str]", sig: int = signal.SIGINT,
          timeout: float = 10.0) -> Tuple[str, str]:
    """Signal ``proc`` and collect its (stdout, stderr)."""
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.communicate()


def _run_leg(
    args: argparse.Namespace,
    cache: Path,
    fleet_faults: Optional[str],
    client_faults: Optional[str],
    n_clients: int,
    max_queue: Optional[int] = None,
    retry_after: Optional[float] = None,
    checkpoint_every: int = 0,
    fleet_after_shed: bool = False,
) -> LegResult:
    """One service leg: server + drain fleet + concurrent clients.

    ``fleet_after_shed`` holds the fleet back until the server has shed
    a submission: nothing resolves the first admitted submission before
    then, so an overload is certain rather than a matter of how fast
    the clients start.
    """
    cache.mkdir(parents=True, exist_ok=True)
    sock = cache / "serve" / "serve.sock"
    server_log = cache / "server.stderr"
    env = _base_env(cache)

    server_cmd = [
        sys.executable, "-m", "repro.serve", "server",
        "--cache-dir", str(cache), "--socket", str(sock),
    ]
    if max_queue is not None:
        server_cmd.extend(["--max-queue", str(max_queue)])
    if retry_after is not None:
        server_cmd.extend(["--retry-after", str(retry_after)])
    fleet_cmd = [
        sys.executable, "-m", "repro.serve", "fleet",
        "--cache-dir", str(cache), "--workers", str(args.workers),
        "--ttl", str(SOAK_TTL), "--drain", "--idle-timeout", "30",
    ]
    if checkpoint_every:
        fleet_cmd.extend(["--checkpoint-every", str(checkpoint_every)])
    fleet_env = dict(env)
    if fleet_faults:
        fleet_env["REPRO_FAULTS"] = fleet_faults
    client_env = dict(env)
    if client_faults:
        client_env["REPRO_FAULTS"] = client_faults
        # An armed plan makes the CLI append a ledger record; point it
        # at scratch so the soak never grows a real ledger.
        client_env["REPRO_LEDGER"] = str(cache / "ledger.jsonl")

    with open(server_log, "w") as log:
        server = subprocess.Popen(server_cmd, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=log)
    fleet: Optional["subprocess.Popen[str]"] = None
    clients: List["subprocess.Popen[str]"] = []

    def start_fleet() -> "subprocess.Popen[str]":
        return subprocess.Popen(fleet_cmd, env=fleet_env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)

    try:
        _wait_for(sock.exists, server, server_log, SOCKET_TIMEOUT,
                  "its socket")
        if not fleet_after_shed:
            fleet = start_fleet()
        client_cmd = _exhibit_cmd(args, cache, serve_sock=sock)
        clients = [
            subprocess.Popen(client_cmd, env=client_env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(n_clients)
        ]
        if fleet is None:
            _wait_for(lambda: "serve: shed" in server_log.read_text(),
                      server, server_log, SHED_TIMEOUT, "its first shed")
            fleet = start_fleet()
        outcomes = []
        for proc in clients:
            try:
                out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                raise SoakError(
                    f"client never converged (killed after "
                    f"{SUBPROCESS_TIMEOUT:.0f}s):\n{err}"
                )
            outcomes.append((proc.returncode, out, err))
        try:
            _fleet_out, fleet_err = fleet.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            fleet.kill()
            _fleet_out, fleet_err = fleet.communicate()
            raise SoakError(f"fleet never drained:\n{fleet_err}")
        if fleet.returncode != 0:
            raise SoakError(f"fleet exited {fleet.returncode}:\n{fleet_err}")
        _stop(server)
        server_err = server_log.read_text()
    finally:
        for proc in clients:
            if proc.poll() is None:
                proc.kill()
        if fleet is not None and fleet.poll() is None:
            fleet.kill()
        if server.poll() is None:
            server.kill()
    return LegResult(clients=outcomes, server_stderr=server_err,
                     fleet_stderr=fleet_err)


def _check_clients(
    leg: str,
    outcomes: Sequence[Tuple[int, str, str]],
    oracle: Optional[str],
) -> None:
    """Every client exited 0; stdouts agree with each other (and oracle)."""
    for i, (status, out, err) in enumerate(outcomes):
        if status != 0:
            raise SoakError(f"{leg}: client {i} exited {status}:\n{err}")
        if out != outcomes[0][1]:
            raise SoakError(
                f"{leg}: client {i} stdout diverged from client 0 — "
                "concurrent clients must agree byte-for-byte")
    if oracle is not None and outcomes[0][1] != oracle:
        raise SoakError(
            f"{leg}: client stdout diverged from the serial baseline — "
            "chaos must be invisible in output")


def _fsck(cache: Path) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.exec", "fsck",
         "--cache-dir", str(cache)],
        env=_base_env(cache), text=True, capture_output=True,
        timeout=SUBPROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise SoakError(
            f"fsck over {cache} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}")


def _soak(args: argparse.Namespace, root: Path) -> None:
    """The four legs; raises :class:`SoakError` on the first violation."""
    seed = args.seed
    chaos = f"{CHAOS_RATES},seed={seed}"
    client_chaos = f"corrupt-journal:0.4,seed={seed}"

    # Leg 1: the serial oracle.
    _say(f"leg 1/4: serial baseline (seed={seed}, "
         f"benchmarks={args.benchmarks}, n={args.n})")
    serial_cache = root / "serial"
    serial = subprocess.run(
        _exhibit_cmd(args, serial_cache), env=_base_env(serial_cache),
        text=True, capture_output=True, timeout=SUBPROCESS_TIMEOUT,
    )
    if serial.returncode != 0:
        raise SoakError(
            f"serial baseline exited {serial.returncode}:\n{serial.stderr}")
    oracle = serial.stdout
    hashes = sorted(p.stem for p in ResultStore(serial_cache).entry_paths())
    if not hashes:
        raise SoakError("serial baseline stored no results")
    poison_prefix = hashes[seed % len(hashes)][:8]

    # Leg 2: composed chaos, no poison — byte-identity must hold.
    _say(f"leg 2/4: composed chaos ({chaos}) — expecting byte-identity "
         "to the baseline")
    leg2 = _run_leg(args, root / "chaos", chaos, client_chaos, args.clients,
                    checkpoint_every=SOAK_CHECKPOINT_EVERY)
    _check_clients("leg 2", leg2.clients, oracle)
    _fsck(root / "chaos")

    # Leg 3: the same chaos plus a poison spec.
    _say(f"leg 3/4: chaos + poison:{poison_prefix} — expecting "
         "quarantine, agreement, bounded respawns")
    leg3 = _run_leg(args, root / "poison",
                    f"{chaos},poison:{poison_prefix}", client_chaos,
                    args.clients, checkpoint_every=SOAK_CHECKPOINT_EVERY)
    _check_clients("leg 3", leg3.clients, None)
    stdout = leg3.clients[0][1]
    if stdout == oracle:
        raise SoakError(
            "leg 3: poisoned run matched the clean baseline — the poison "
            "spec never resolved as a hole")
    if "DEGRADED" not in stdout:
        raise SoakError(
            "leg 3: client output carries no DEGRADED annotation for the "
            "quarantined spec")
    snap = Fleet(ResultStore(root / "poison").serve_dir).snapshot()
    if not snap.quarantined:
        raise SoakError("leg 3: no quarantine record in the fleet WAL")
    strays = [h for h in snap.quarantined if not h.startswith(poison_prefix)]
    if strays:
        raise SoakError(
            f"leg 3: non-poison spec(s) quarantined: {strays} — ordinary "
            "chaos must never trip the lease bound")
    for spec_hash in snap.quarantined:
        failure = snap.failures.get(spec_hash)
        if failure is None or failure.kind != "poison":
            raise SoakError(
                f"leg 3: quarantined {spec_hash[:12]}… did not resolve "
                "as kind='poison'")
    # Every spec can die at most once to the one-shot lease-1 chaos
    # (kill-worker at claim, or kill-midrun mid-simulation — one lease,
    # so at most one of the two), plus max_leases deaths per poison
    # spec; anything past that is a crash loop the quarantine bound
    # failed to stop.
    bound = len(hashes) + 2 * len(snap.quarantined) + 2
    if leg3.respawns > bound:
        raise SoakError(
            f"leg 3: {leg3.respawns} respawns exceeds the bound {bound} — "
            "quarantine failed to stop the crash loop")
    _fsck(root / "poison")

    # Leg 4: overload — a 1-deep watermark against clients + 1.
    _say("leg 4/4: overload (--max-queue 1, "
         f"{args.clients + 1} clients) — expecting sheds + recovery")
    leg4 = _run_leg(args, root / "overload", None, None,
                    args.clients + 1, max_queue=1, retry_after=0.02,
                    fleet_after_shed=True)
    _check_clients("leg 4", leg4.clients, oracle)
    if "serve: shed" not in leg4.server_stderr:
        raise SoakError(
            "leg 4: the 1-deep server never shed a submission — admission "
            "control did not engage")
    sheds = leg4.server_stderr.count("serve: shed")
    _fsck(root / "overload")

    _say(f"PASS seed={seed}: {len(hashes)} specs, quarantined "
         f"{len(snap.quarantined)} (poison {poison_prefix}), "
         f"{leg3.respawns} respawns, {sheds} sheds absorbed, fsck clean")


def run_soak(args: argparse.Namespace) -> int:
    """Drive the soak; 0 on a fully clean run, 1 with evidence on FAIL."""
    if args.cache_dir:
        root = Path(args.cache_dir)
        root.mkdir(parents=True, exist_ok=True)
        ephemeral = False
    else:
        root = Path(tempfile.mkdtemp(prefix="repro-soak-"))
        ephemeral = True
    status = 0
    try:
        _soak(args, root)
    except SoakError as exc:
        print(f"soak: FAIL: {exc}", file=sys.stderr)
        status = 1
    if ephemeral:
        if status == 0 and not args.keep:
            shutil.rmtree(root, ignore_errors=True)
        else:
            print(f"soak: scratch kept at {root}", file=sys.stderr)
    return status
