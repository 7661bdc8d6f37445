"""Deterministic fault injection: ``REPRO_FAULTS=crash:0.1,hang:0.05,seed=7``.

The executor's recovery machinery — retries, timeouts, worker respawn,
quarantine, graceful degradation — is exactly the kind of code that silently rots
because its paths never run.  This module makes every path exercisable
on demand: a :class:`FaultPlan` carries a per-kind injection rate and a
seed, and each worker attempt consults a *deterministic* schedule (a
SHA-256 of seed, kind, spec hash and attempt number) to decide whether
to misbehave.  The same plan therefore produces the same faults on any
machine, in any process, on every rerun — chaos tests assert exact
counters, and a faulted sweep that eventually succeeds is bit-identical
to a clean one because retries are plain re-executions of pure specs.

Fault kinds (grammar: comma-separated ``kind:rate`` pairs plus ``seed=N``):

* ``crash`` — the attempt raises :class:`InjectedCrash` before
  simulating; exercises the per-spec retry path.
* ``hang`` — the attempt sleeps far past any sane deadline (fleet
  workers, until their ``SIGALRM`` timeout fires) or raises
  :class:`InjectedHang` (in-process execution, which cannot be
  preempted); exercises the timeout path.
* ``corrupt-store`` — the freshly written result-store entry is
  truncated after the fact, as a torn write would leave it; exercises
  the corrupt-entry accounting and re-simulation path.
* ``kill-orchestrator`` — the *driver* process ``os._exit``\\ s between
  batch waves (after absorbing a freshly simulated spec, stored and
  ``done`` in the sweep queue), exactly as an OOM kill or SIGKILL would
  take it down; exercises the sweep queue and ``--resume``.  Decided
  per absorbed spec, so every resumed run is guaranteed to make
  progress before it can be killed again.  Driver-side only: worker
  processes never consult it.
* ``corrupt-journal`` — a ``done``, ``failed`` or ``interrupted`` line
  a sweep's driver appends to its queue lands torn (its tail dropped),
  as a crash mid-``write`` would leave it; exercises the
  corruption-tolerant replay of :mod:`repro.exec.journal`, which also
  performs the tear.  Decided per (record kind, spec, append sequence
  number), so a re-appended record after resume lands on a fresh
  schedule slot.
* ``kill-worker`` (alias ``die``) — a fleet worker (``--jobs N``, or
  :mod:`repro.serve`) ``os._exit``\\ s after durably leasing a spec but
  before simulating it; exercises the release-on-death (or
  lease-expiry) and reclaim path.  Decided per spec on the *first*
  lease only (the worker consults it only when its lease record
  carries count 1), so a reclaimed lease always runs to completion and
  a chaos fleet provably converges — the same one-shot shape as
  ``kill-orchestrator``.  In-process execution has no worker to kill,
  so ``--jobs 1`` never consults it.
* ``disk-full`` — a store or fleet-WAL write raises
  ``OSError(ENOSPC)`` mid-write, as a full disk would; exercises the
  fail-clean discipline (no torn entry, no leaked temp, a torn WAL
  line rolled back by :mod:`repro.exec.journal`) and the fleet's
  release-and-reclaim path.  Fleet-side only, and consulted only on a
  spec's *first* lease — the retry after reclaim always writes
  through, so a chaos fleet provably converges.
* ``kill-midrun`` — the executing process ``os._exit``\\ s (or, in
  process, raises :class:`InjectedCrash`) from *inside the record
  loop*, immediately after a mid-run checkpoint lands on disk;
  exercises the resume-from-checkpoint path in
  :mod:`repro.exec.checkpoint`.  Decided per spec on the first attempt
  only — the retry never consults the schedule, resumes from the cut
  that just landed and runs to completion, so a chaos run provably
  converges.
* ``corrupt-checkpoint`` — the just-written checkpoint file's tail is
  torn (as a crash mid-``write`` that slipped past the atomic-rename
  discipline would leave it); exercises the checksum verification and
  the fall-back-to-next-older-snapshot path.  Decided per (spec,
  record index) on the first attempt, so one schedule can tear some
  cuts of a run and spare others.
* ``poison:HASH_PREFIX`` — not a rate but a spec selector: every
  fleet worker that leases a spec whose content hash starts with the
  prefix dies with ``os._exit(76)``, on *every* lease.  This is the
  deterministic crash-loop the quarantine machinery exists for: the
  spec burns through ``max_leases`` leases and the fleet durably
  quarantines it as a ``FailedRun(kind="poison")`` hole instead of
  crash-looping forever.

Like :mod:`repro.sanitize`, the environment variable is read **once, at
import**: worker processes inherit the environment (and, under the
default ``fork`` start method, this module's parsed state) before they
execute anything, so parent and workers always agree on the schedule.
Tests that need a plan without touching the environment pass one
directly to the :class:`~repro.exec.executor.Executor` or install it
with :func:`set_active_plan`.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: Environment variable carrying the fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Recognised fault kinds, in the order they are checked per attempt.
#: ``poison`` is deliberately absent: it is a hash-prefix selector, not
#: a rated kind (see :attr:`FaultPlan.poison`).
FAULT_KINDS = ("hang", "crash", "corrupt-store",
               "kill-orchestrator", "corrupt-journal", "kill-worker",
               "disk-full", "kill-midrun", "corrupt-checkpoint")

#: Older names the grammar still accepts, and the kinds they mean.
FAULT_ALIASES = {"die": "kill-worker"}

#: Exit code of an injected orchestrator kill (EX_TEMPFAIL: rerunnable,
#: distinct from the signal exits 130/143).
KILL_ORCHESTRATOR_EXIT = 75

#: Exit code of an injected fleet-worker kill (distinct from the codes
#: above, so a supervisor's log tells an injected death from a real one).
KILL_WORKER_EXIT = 76


class InjectedCrash(RuntimeError):
    """A fault-injection crash: the attempt failed before simulating."""


class InjectedHang(RuntimeError):
    """An injected hang surfaced in-process (where sleeping cannot be
    preempted, the hang is reported as a timeout instead)."""


def stable_fraction(key: str) -> float:
    """A deterministic value in ``[0, 1)`` derived from ``key``.

    SHA-256 rather than ``random``: the schedule must not depend on
    process-global RNG state, ``PYTHONHASHSEED`` or the wall clock, and
    must agree between the parent and every worker process.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultPlan:
    """Injection rates for each fault kind plus the schedule seed."""

    crash: float = 0.0
    hang: float = 0.0
    corrupt_store: float = 0.0
    kill_orchestrator: float = 0.0
    corrupt_journal: float = 0.0
    kill_worker: float = 0.0
    disk_full: float = 0.0
    kill_midrun: float = 0.0
    corrupt_checkpoint: float = 0.0
    #: Content-hash prefix naming the poison specs ("" = none): every
    #: fleet worker leasing a matching spec dies, on every lease.
    poison: str = ""
    seed: int = 0
    #: How long an injected hang sleeps in a fleet worker; far beyond any
    #: reasonable ``--timeout`` so the worker's timer always wins.
    hang_seconds: float = 3600.0

    @property
    def armed(self) -> bool:
        return (any(self._rate(kind) > 0 for kind in FAULT_KINDS)
                or bool(self.poison))

    def _rate(self, kind: str) -> float:
        return {
            "crash": self.crash,
            "hang": self.hang,
            "corrupt-store": self.corrupt_store,
            "kill-orchestrator": self.kill_orchestrator,
            "corrupt-journal": self.corrupt_journal,
            "kill-worker": self.kill_worker,
            "disk-full": self.disk_full,
            "kill-midrun": self.kill_midrun,
            "corrupt-checkpoint": self.corrupt_checkpoint,
        }[kind]

    def decide(self, kind: str, spec_hash: str, attempt: int) -> bool:
        """Whether fault ``kind`` fires for this spec attempt.

        Purely a function of (seed, kind, spec hash, attempt): the same
        plan makes the same decision everywhere, forever.
        """
        rate = self._rate(kind)
        if rate <= 0.0:
            return False
        return stable_fraction(
            f"{self.seed}:{kind}:{spec_hash}:{attempt}"
        ) < rate

    def describe(self) -> str:
        parts = [f"{kind}:{self._rate(kind):g}"
                 for kind in FAULT_KINDS if self._rate(kind) > 0]
        if self.poison:
            parts.append(f"poison:{self.poison}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


def parse_fault_spec(text: str) -> Optional[FaultPlan]:
    """Parse the ``REPRO_FAULTS`` grammar into a plan (None when empty).

    Grammar: comma-separated ``kind:rate`` pairs (rates in ``[0, 1]``;
    a kind may be spelled by its :data:`FAULT_ALIASES` name) with an
    optional ``seed=N`` and an optional ``poison:HASH_PREFIX``
    (a lowercase-hex content-hash prefix, not a rate).  Unknown kinds,
    malformed rates and out-of-range rates raise ``ValueError`` — a
    silently ignored fault spec would defeat the whole point of a
    chaos run.
    """
    text = text.strip()
    if not text:
        return None
    rates = {kind: 0.0 for kind in FAULT_KINDS}
    seed = 0
    poison = ""
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("seed="):
            try:
                seed = int(token[len("seed="):])
            except ValueError:
                raise ValueError(f"bad fault seed in {token!r}") from None
            continue
        kind, sep, rate_text = token.partition(":")
        if not sep:
            raise ValueError(
                f"bad fault token {token!r}; expected kind:rate or seed=N"
            )
        kind = FAULT_ALIASES.get(kind.strip(), kind.strip())
        if kind == "poison":
            # A hash-prefix selector, not a rate: validated as hex so a
            # typo'd rate ("poison:0.5") cannot silently select nothing.
            prefix = rate_text.strip()
            if not prefix or not all(c in "0123456789abcdef"
                                     for c in prefix):
                raise ValueError(
                    f"bad poison prefix in {token!r}; expected a "
                    "lowercase-hex content-hash prefix"
                )
            poison = prefix
            continue
        if kind not in rates:
            raise ValueError(
                f"unknown fault kind {kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}, poison, "
                f"{', '.join(FAULT_ALIASES)}"
            )
        try:
            rate = float(rate_text)
        except ValueError:
            raise ValueError(f"bad fault rate in {token!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate out of [0, 1] in {token!r}")
        rates[kind] = rate
    return FaultPlan(
        crash=rates["crash"],
        hang=rates["hang"],
        corrupt_store=rates["corrupt-store"],
        kill_orchestrator=rates["kill-orchestrator"],
        corrupt_journal=rates["corrupt-journal"],
        kill_worker=rates["kill-worker"],
        disk_full=rates["disk-full"],
        kill_midrun=rates["kill-midrun"],
        corrupt_checkpoint=rates["corrupt-checkpoint"],
        poison=poison,
        seed=seed,
    )


#: The process-wide plan, parsed once at import (None when unset).
_ACTIVE: Optional[FaultPlan] = parse_fault_spec(
    os.environ.get(FAULTS_ENV, "")
)


def active_plan() -> Optional[FaultPlan]:
    """The plan this process runs under, or None when faults are off."""
    return _ACTIVE


def set_active_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the process-wide plan; returns the old one.

    Tests use this instead of re-importing with a mutated environment;
    under the ``fork`` start method, worker processes inherit the
    installed plan too.
    """
    global _ACTIVE
    old = _ACTIVE
    _ACTIVE = plan
    return old


def inject_attempt_faults(
    plan: Optional[FaultPlan], spec_hash: str, attempt: int,
    in_process: bool,
) -> None:
    """Run the pre-execution injections due for this spec attempt.

    Called by the attempt loop before simulating.  ``in_process``
    selects the survivable flavour of ``hang``: in-process it raises
    :class:`InjectedHang` (accounted as a timeout) instead of blocking
    until a worker's timer fires.
    """
    if plan is None:
        return
    if plan.decide("hang", spec_hash, attempt):
        if not in_process:
            time.sleep(plan.hang_seconds)
        raise InjectedHang(f"injected hang (attempt {attempt})")
    if plan.decide("crash", spec_hash, attempt):
        raise InjectedCrash(f"injected crash (attempt {attempt})")


def maybe_corrupt_store_entry(
    plan: Optional[FaultPlan], path: Path, spec_hash: str, attempt: int,
) -> bool:
    """Truncate a just-written store entry when the schedule says so.

    Simulates a torn write that slipped past the atomic-rename
    discipline (a dying disk, a hand-edited file): the entry exists but
    no longer parses, so the next reader must count it as corrupt and
    re-simulate.  Returns True when the entry was corrupted.
    """
    if plan is None or not plan.decide("corrupt-store", spec_hash, attempt):
        return False
    try:
        text = path.read_text("utf-8")
        path.write_text(text[: max(1, len(text) // 3)], "utf-8")
    except OSError:
        return False
    return True


def should_kill_orchestrator(
    plan: Optional[FaultPlan], spec_hash: str,
) -> bool:
    """Whether the driver dies after absorbing ``spec_hash``.

    Only the *decision* lives here; the executor performs the exit so
    it can tear down a live local fleet first.  Keyed on the absorbed
    spec's hash (attempt 1): once the spec is ``done`` in the sweep
    queue a resumed run serves it without re-absorbing, so the same
    kill can never fire twice and every resume makes progress — the
    chaos loop in CI provably converges on a complete queue.
    """
    if plan is None:
        return False
    return plan.decide("kill-orchestrator", spec_hash, 1)


def should_kill_worker(
    plan: Optional[FaultPlan], spec_hash: str,
) -> bool:
    """Whether a fleet worker dies after durably leasing ``spec_hash``.

    Only the *decision* lives here; the worker performs the
    ``os._exit(KILL_WORKER_EXIT)`` after its lease record is fsync'd
    (so reclaim is actually exercised) and only when that lease is the
    spec's **first** — the caller checks the lease count before asking.
    Keyed on (spec, attempt 1) like ``kill-orchestrator``: the re-lease
    after expiry carries count 2, never consults the schedule, and runs
    to completion, so a chaos fleet provably converges.
    """
    if plan is None:
        return False
    return plan.decide("kill-worker", spec_hash, 1)


def should_poison(plan: Optional[FaultPlan], spec_hash: str) -> bool:
    """Whether ``spec_hash`` names a poison spec under ``plan``.

    A poison spec kills every fleet worker that leases it, on *every*
    lease (unlike ``kill-worker``'s first-lease-only shape) — that is
    what makes it a crash loop no retry can escape, and what the
    quarantine machinery in :mod:`repro.exec.fleet` exists to bound.
    """
    if plan is None or not plan.poison:
        return False
    return spec_hash.startswith(plan.poison)


def should_kill_midrun(
    plan: Optional[FaultPlan], spec_hash: str,
) -> bool:
    """Whether the simulating process dies after a checkpoint cut lands.

    Only the *decision* lives here; the
    :class:`~repro.exec.checkpoint.Checkpointer` performs the exit (or
    raises :class:`InjectedCrash` in-process) from inside the record
    loop, *after* the cut's atomic rename — so resume always has a
    snapshot to start from.  Keyed on (spec, attempt 1): the caller
    consults the schedule only on a spec's first attempt, the retry
    resumes and runs to completion, and a chaos run provably converges —
    the same one-shot shape as ``kill-orchestrator``.
    """
    if plan is None:
        return False
    return plan.decide("kill-midrun", spec_hash, 1)


def maybe_corrupt_checkpoint(
    plan: Optional[FaultPlan], path: Path, spec_hash: str,
    record_index: int, attempt: int = 1,
) -> bool:
    """Tear a just-written checkpoint's tail when the schedule says so.

    Truncates the file to roughly two thirds of its length — the shape a
    dying disk leaves behind when a rename outruns its data blocks — so
    the payload no longer matches the header's byte count and checksum.
    The next ``load`` must reject it and fall back to the next-older
    snapshot (or a scratch start).  Keyed on (spec, record index) at
    attempt 1: one schedule can tear some of a run's cuts and spare
    others, and re-cuts after a resume (attempt > 1) always survive, so
    a chaos run provably converges.  Returns True when torn.
    """
    if plan is None or attempt != 1:
        return False
    if not plan.decide("corrupt-checkpoint", f"{spec_hash}:{record_index}", 1):
        return False
    try:
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size * 2 // 3))
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:
        return False
    return True


def should_fill_disk(
    plan: Optional[FaultPlan], key: str, attempt: int,
) -> bool:
    """Whether the write keyed ``key`` draws ``OSError(ENOSPC)``.

    Consulted by fleet-side writers (the result store's ``put`` and the
    fleet WAL's resolution appends) with ``attempt`` = the spec's lease
    count; only first-lease writes consult the schedule, so the write
    after a release-and-reclaim always goes through and a chaos fleet
    provably converges — the same one-shot shape as ``kill-worker``.
    The tear itself is performed by the writer:
    :func:`repro.cachedir.atomic_write` for a store entry,
    :func:`repro.exec.journal.append_record` for a WAL line.
    """
    return (plan is not None and attempt == 1
            and plan.decide("disk-full", key, 1))


def should_corrupt_journal(
    plan: Optional[FaultPlan], key: str, seq: int,
) -> bool:
    """Whether the journal append keyed ``key`` lands torn.

    ``seq`` is the file's append sequence number: a record re-appended
    after a resume lands on a different slot, so deterministic
    corruption cannot pin one spec's ``done`` record forever.  The tear
    itself (the line's tail dropped, the rest newline-terminated so the
    reader skips exactly one record) is performed by
    :func:`repro.exec.journal.append_record`.
    """
    return plan is not None and plan.decide("corrupt-journal", key, seq)
