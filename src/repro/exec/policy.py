"""Retry policy and failure records for fault-tolerant execution.

A :class:`RetryPolicy` says how hard the executor fights for each spec:
how many attempts, how long one attempt may run, how long to pause
between attempts, and whether an exhausted spec aborts the batch
(``strict``) or degrades into a :class:`FailedRun` hole the caller can
render and account for.

Backoff is **deterministic**: exponential in the attempt number with a
jitter derived from a SHA-256 of (seed, spec hash, attempt) — the same
discipline as the fault schedule in :mod:`repro.exec.faults` — so a
chaos run never consults ``random`` or the wall clock to decide its own
behaviour, and two reruns of the same faulted sweep retry on the same
cadence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exec.faults import stable_fraction


@dataclass(frozen=True)
class FailedRun:
    """The annotated hole a spec leaves when every attempt failed.

    Carries what a post-mortem needs: the content hash (to re-run the
    exact spec), the grid coordinates (to render the hole), the attempt
    count, the final exception's repr and the wall time burned.
    """

    spec_hash: str
    benchmark: str
    mechanism: str
    attempts: int
    error: str
    elapsed: float = 0.0
    kind: str = "error"   # "error" | "timeout" | "poison"

    def describe(self) -> Dict[str, Any]:
        """JSON-ready form; round-trips through :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FailedRun":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def summary(self) -> str:
        nouns = {"timeout": "timeout", "poison": "poison"}
        noun = nouns.get(self.kind, "error")
        return (f"{self.benchmark}/{self.mechanism} failed after "
                f"{self.attempts} attempt{'s' if self.attempts != 1 else ''} "
                f"({noun}: {self.error})")


class ExecutionError(RuntimeError):
    """Base class for executor-raised failures."""


class SpecTimeout(ExecutionError):
    """One attempt exceeded the policy's per-run timeout."""


class SpecExhausted(ExecutionError):
    """Strict mode: a spec failed every allowed attempt.

    Carries the :class:`FailedRun` so callers (the CLI) can report the
    grid coordinates and attempt count before exiting non-zero.
    """

    def __init__(self, failure: FailedRun) -> None:
        super().__init__(failure.summary())
        self.failure = failure


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor responds to failing, hanging or dying runs."""

    #: Re-attempts after the first try (0 = fail on the first error).
    retries: int = 0
    #: Per-attempt wall-clock budget in seconds, enforced in each fleet
    #: worker (``jobs > 1``) by a ``SIGALRM`` timer.  None disables it.
    #: In-process execution (``jobs=1``) cannot be preempted, so there
    #: only injected hangs surface as timeouts.
    timeout: Optional[float] = None
    #: True: raise :class:`SpecExhausted` on the first exhausted spec
    #: (fail-fast, the library default).  False: record a
    #: :class:`FailedRun` hole and keep the rest of the batch going.
    strict: bool = True
    #: First backoff delay in seconds; doubles per attempt, plus jitter.
    backoff_base: float = 0.05
    #: Upper bound on any single backoff delay.
    backoff_cap: float = 2.0
    #: Seed for the deterministic backoff jitter.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    @property
    def max_leases(self) -> int:
        """Fleet leases a spec may burn before it is quarantined as poison.

        One more than :attr:`max_attempts`: a single arbitrary worker
        death (the ``kill-worker`` drill) must never quarantine a spec,
        but a spec that takes down *every* worker that leases it crosses
        this bound on its deterministic crash-loop and gets resolved
        fleet-wide instead of wedging the fleet.
        """
        return self.max_attempts + 1

    def backoff_delay(self, spec_hash: str, attempt: int) -> float:
        """Seconds to wait before re-attempting after failed ``attempt``.

        Deterministic: exponential in the attempt number with a
        [0, 1)-scaled jitter from a SHA-256 of (seed, spec hash,
        attempt), capped at :attr:`backoff_cap`.
        """
        if self.backoff_base <= 0:
            return 0.0
        raw = self.backoff_base * (2.0 ** (attempt - 1))
        jitter = stable_fraction(f"{self.seed}:backoff:{spec_hash}:{attempt}")
        return min(raw * (1.0 + jitter), self.backoff_cap)
