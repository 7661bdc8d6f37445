"""Deterministic fault injection: ``REPRO_FAULTS=crash:0.1,hang:0.05,seed=7``.

The executor's recovery machinery — retries, timeouts, worker respawn,
quarantine, graceful degradation — is exactly the kind of code that silently rots
because its paths never run.  This module makes every path exercisable
on demand: a :class:`FaultPlan` carries a per-kind injection rate and a
seed, and every chaos site asks :func:`fires` whether its fault fires
for its key (a spec hash, or a write's key) and attempt.  The answer is
*deterministic* — a SHA-256 of seed, kind, key and attempt number — so
the same plan produces the same faults on any machine, in any process,
on every rerun: chaos tests assert exact counters, and a faulted sweep
that eventually succeeds is bit-identical to a clean one because
retries are plain re-executions of pure specs.

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
  lease-expiry) and reclaim path.  In-process execution has no worker
  to kill, so ``--jobs 1`` never consults it.
* ``disk-full`` — a store or fleet-WAL write raises
  ``OSError(ENOSPC)`` mid-write, as a full disk would; exercises the
  fail-clean discipline (no torn entry, no leaked temp, a torn WAL
  line rolled back by :mod:`repro.exec.journal`) and the fleet's
  release-and-reclaim path.  Fleet-side only.
* ``kill-midrun`` — the executing process ``os._exit``\\ s (or, in
  process, raises :class:`InjectedCrash`) from *inside the record
  loop*, immediately after a mid-run checkpoint lands on disk;
  exercises the resume-from-checkpoint path in
  :mod:`repro.exec.checkpoint`.
* ``corrupt-checkpoint`` — the just-written checkpoint file's tail is
  torn (as a crash mid-``write`` that slipped past the atomic-rename
  discipline would leave it); exercises the checksum verification and
  the fall-back-to-next-older-snapshot path.  Keyed on (spec, record
  index), so one schedule can tear some cuts of a run and spare others.
* ``poison:HASH_PREFIX`` — not a rate but a spec selector: every
  fleet worker that leases a spec whose content hash starts with the
  prefix dies with ``os._exit(76)``, on *every* lease.  This is the
  deterministic crash-loop the quarantine machinery exists for: the
  spec burns through ``max_leases`` leases and the fleet durably
  quarantines it as a ``FailedRun(kind="poison")`` hole instead of
  crash-looping forever.

What the ``attempt`` a site passes means is the kind's business, and
:meth:`FaultPlan.decide` reads it from one table,
:data:`FIRST_ATTEMPT_ONLY`: the kinds listed there fire only at attempt
(or lease) 1, so the retry, the resume or the reclaim after one always
runs clean and a chaos run provably converges.  ``crash`` and ``hang``
are decided afresh per attempt, ``corrupt-journal`` per append sequence
number, and ``poison`` on every lease.

There is one plan per process.  Like :mod:`repro.sanitize`, the
environment variable is read **once, at import**: worker processes
inherit the environment (and, under the default ``fork`` start method,
this module's parsed state) before they execute anything, so parent
and workers always agree on the schedule.  Tests install a plan with
:func:`set_active_plan` instead of touching the environment.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

#: Environment variable carrying the fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Recognised rated fault kinds, in the order :meth:`FaultPlan.describe`
#: lists them; each is the :class:`FaultPlan` field of the same name
#: with ``-`` for ``_``.  ``poison`` is deliberately absent: it is a
#: hash-prefix selector, not a rated kind (see :attr:`FaultPlan.poison`).
FAULT_KINDS = ("hang", "crash", "corrupt-store",
               "kill-orchestrator", "corrupt-journal", "kill-worker",
               "disk-full", "kill-midrun", "corrupt-checkpoint")

#: The kinds that fire only at attempt (or lease) 1: the retry, resume
#: or reclaim after one always runs clean.  Every other rated kind is
#: decided afresh at whatever ``attempt`` its site passes — ``crash``
#: and ``hang`` per attempt, ``corrupt-journal`` per append sequence
#: number — and ``poison`` matches on every lease.
FIRST_ATTEMPT_ONLY = frozenset({
    "corrupt-store", "kill-orchestrator", "kill-worker", "disk-full",
    "kill-midrun", "corrupt-checkpoint",
})

#: Older names the grammar still accepts, and the kinds they mean.
FAULT_ALIASES = {"die": "kill-worker"}

#: Exit code of an injected orchestrator kill (EX_TEMPFAIL: rerunnable,
#: distinct from the signal exits 130/143).
KILL_ORCHESTRATOR_EXIT = 75

#: Exit code of an injected fleet-worker kill (distinct from the codes
#: above, so a supervisor's log tells an injected death from a real one).
KILL_WORKER_EXIT = 76

#: How long an injected hang sleeps in a fleet worker; far beyond any
#: reasonable ``--timeout`` so the worker's timer always wins.
HANG_SECONDS = 3600.0


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


def _field(kind: str) -> str:
    return kind.replace("-", "_")


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

    @property
    def armed(self) -> bool:
        return (any(self._rate(kind) > 0 for kind in FAULT_KINDS)
                or bool(self.poison))

    def _rate(self, kind: str) -> float:
        return float(getattr(self, _field(kind)))

    def decide(self, kind: str, key: str, attempt: int) -> bool:
        """Whether fault ``kind`` fires for ``key`` at ``attempt``.

        Purely a function of (seed, kind, key, attempt) — and of
        :data:`FIRST_ATTEMPT_ONLY`, which rules out every later attempt
        of a one-shot kind: the same plan makes the same decision
        everywhere, forever.  ``poison`` matches ``key`` (a spec hash)
        against the prefix instead.
        """
        if kind == "poison":
            return bool(self.poison) and key.startswith(self.poison)
        if attempt != 1 and kind in FIRST_ATTEMPT_ONLY:
            return False
        rate = self._rate(kind)
        if rate <= 0.0:
            return False
        return stable_fraction(f"{self.seed}:{kind}:{key}:{attempt}") < rate

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
    fields: Dict[str, Any] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("seed="):
            try:
                fields["seed"] = int(token[len("seed="):])
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
            fields["poison"] = prefix
            continue
        if kind not in FAULT_KINDS:
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
        fields[_field(kind)] = rate
    return FaultPlan(**fields)


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


def fires(kind: str, key: str, attempt: int = 1) -> bool:
    """Whether the process-wide plan fires fault ``kind`` for ``key``.

    The one question every chaos site asks (see
    :meth:`FaultPlan.decide`); False when no plan is installed.  The
    site performs the fault itself, or hands the decision to the
    writer that does: :func:`repro.cachedir.atomic_write` for a store
    entry, :func:`repro.exec.journal.append_record` for a log line.
    """
    plan = _ACTIVE
    return plan is not None and plan.decide(kind, key, attempt)


def maybe_corrupt_store_entry(path: Path, spec_hash: str,
                              attempt: int) -> bool:
    """Truncate a just-written store entry when the schedule says so.

    Simulates a torn write that slipped past the atomic-rename
    discipline (a dying disk, a hand-edited file): the entry exists but
    no longer parses, so the next reader must count it as corrupt and
    re-simulate.  Returns True when the entry was corrupted.
    """
    if not fires("corrupt-store", spec_hash, attempt):
        return False
    try:
        text = path.read_text("utf-8")
        path.write_text(text[: max(1, len(text) // 3)], "utf-8")
    except OSError:
        return False
    return True


def maybe_corrupt_checkpoint(path: Path, spec_hash: str, record_index: int,
                             attempt: int) -> bool:
    """Tear a just-written checkpoint's tail when the schedule says so.

    Truncates the file to roughly two thirds of its length — the shape a
    dying disk leaves behind when a rename outruns its data blocks — so
    the payload no longer matches the header's byte count and checksum.
    The next ``load`` must reject it and fall back to the next-older
    snapshot (or a scratch start).  Returns True when torn.
    """
    if not fires("corrupt-checkpoint", f"{spec_hash}:{record_index}",
                 attempt):
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
