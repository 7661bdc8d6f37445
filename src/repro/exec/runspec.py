"""Declarative run identity: everything one simulation needs, hashed.

A :class:`RunSpec` is the *complete* description of one simulation —
benchmark, mechanism (with variant keyword arguments), full
:class:`~repro.core.config.MachineConfig`, trace length, trace selection
and warm-up fraction.  Two specs are the same run if and only if their
``content_hash`` matches, and the hash is derived from the actual field
values (the config is serialised field by field), never from a label a
caller made up.  That property is what makes result caching across
exhibits — and across processes, via :mod:`repro.exec.store` — sound.

Specs cross process boundaries (the local fleet behind ``--jobs N``,
the sweep service) *by value*: :meth:`RunSpec.describe` is the payload,
and :func:`spec_from_payload` is its hash-verified inverse.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.config import (
    BusConfig,
    CacheConfig,
    CoreConfig,
    MachineConfig,
    SDRAMConfig,
    baseline_config,
)
from repro.core.results import DEFAULT_INSTRUCTIONS, WARMUP_FRACTION, RunResult
from repro.mechanisms.registry import BASELINE, create

#: Trace-selection kinds understood by :meth:`RunSpec.execute`.
SELECT_WINDOW = "window"
SELECT_SIMPOINT = "simpoint"


@dataclass(frozen=True)
class RunSpec:
    """One simulation, fully specified and content-addressable.

    ``mechanism_kwargs`` is stored as a sorted tuple of ``(name, value)``
    pairs so that specs are hashable, picklable and order-insensitive; a
    plain dict is accepted and canonicalised.

    ``selection`` describes how the simulated slice is taken from a
    generated trace of ``trace_length`` (default: ``n_instructions``)
    instructions:

    * ``None`` — simulate the first ``n_instructions`` of the trace;
    * ``("window", skip)`` — the paper's "skip some, simulate a lot"
      habit: ``n_instructions`` starting at ``skip`` (shifted back when
      the trace is too short, as :func:`repro.trace.sampling.window`);
    * ``("simpoint", interval)`` — SimPoint selection of the
      representative ``n_instructions`` slice using ``interval``-sized
      basic-block vectors.

    ``fast`` arms the trace-speculation fast path
    (:mod:`repro.cpu.fastpath`).  Results are bit-identical either way —
    the equivalence is pinned by the golden-fingerprint tests — but the
    knob is part of run identity (and so of ``content_hash``) because it
    selects which code path produced the numbers.
    """

    benchmark: str
    mechanism: str = BASELINE
    config: MachineConfig = field(default_factory=baseline_config)
    n_instructions: int = DEFAULT_INSTRUCTIONS
    mechanism_kwargs: Tuple[Tuple[str, object], ...] = ()
    trace_length: Optional[int] = None
    selection: Optional[Tuple[Any, ...]] = None
    warmup_fraction: float = WARMUP_FRACTION
    fast: bool = True

    def __post_init__(self) -> None:
        kwargs = self.mechanism_kwargs
        if kwargs is None:
            kwargs = ()
        if isinstance(kwargs, Mapping):
            kwargs = kwargs.items()
        canonical = tuple(sorted((str(k), v) for k, v in kwargs))
        object.__setattr__(self, "mechanism_kwargs", canonical)
        if self.selection is not None:
            selection = tuple(self.selection)
            if len(selection) != 2 or selection[0] not in (
                SELECT_WINDOW, SELECT_SIMPOINT
            ):
                raise ValueError(f"bad trace selection {self.selection!r}")
            object.__setattr__(self, "selection", selection)
        if self.n_instructions <= 0:
            raise ValueError(f"n_instructions must be > 0, got {self.n_instructions}")
        total = self.trace_length
        if total is not None and total < self.n_instructions:
            raise ValueError(
                f"trace_length {total} shorter than n_instructions "
                f"{self.n_instructions}"
            )

    # -- identity -------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """A JSON-ready dict of every field that defines run identity."""
        return {
            "benchmark": self.benchmark,
            "mechanism": self.mechanism,
            "mechanism_kwargs": [[k, v] for k, v in self.mechanism_kwargs],
            "config": dataclasses.asdict(self.config),
            "n_instructions": self.n_instructions,
            "trace_length": self.trace_length,
            "selection": list(self.selection) if self.selection else None,
            "warmup_fraction": self.warmup_fraction,
            "fast": self.fast,
        }

    @cached_property
    def content_hash(self) -> str:
        """SHA-256 over the canonical serialisation of :meth:`describe`."""
        return payload_hash(self.describe())

    # -- execution ------------------------------------------------------------

    def execute(self, checkpoint=None) -> RunResult:
        """Run the simulation this spec describes on a fresh machine.

        ``checkpoint`` is an optional mid-run checkpointer (see
        :class:`repro.exec.checkpoint.Checkpointer`), forwarded to
        :func:`run_trace`.  It is deliberately *not* a spec field: a
        resumed run's result is bit-identical to an uninterrupted one, so
        checkpointing must never perturb ``content_hash``.

        The simulator and the workload generator are imported here, on
        the first spec a process simulates, so a process that only
        hashes, stores or serves specs loads neither.  The names are
        looked up in their defining modules on every call, never kept in
        this module's globals.
        """
        from repro.core.simulation import run_trace
        from repro.trace.sampling import window
        from repro.trace.simpoint import simpoint_trace
        from repro.workloads.registry import build as build_workload

        total = self.trace_length or self.n_instructions
        trace, image = build_workload(self.benchmark, total)
        if self.selection is None:
            selected = trace if total == self.n_instructions else list(
                trace[:self.n_instructions]
            )
        elif self.selection[0] == SELECT_WINDOW:
            selected = window(trace, self.selection[1], self.n_instructions)
        else:  # SELECT_SIMPOINT, validated in __post_init__
            selected = simpoint_trace(
                trace, self.n_instructions, interval=self.selection[1]
            )
        mechanism = create(self.mechanism, **dict(self.mechanism_kwargs))
        # A slice's stores leave its own last values in the shared image;
        # rewind them so the next run sees the image the build made.
        with image.rewinding() if selected is not trace else nullcontext():
            result = run_trace(
                selected,
                mechanism,
                self.config,
                image,
                benchmark=self.benchmark,
                mechanism_name=self.mechanism,
                warmup_fraction=self.warmup_fraction,
                fast=self.fast,
                checkpoint=checkpoint,
            )
        return result


# -- specs by value ---------------------------------------------------------------

class SpecPayloadError(ValueError):
    """A describe-payload that is malformed, or that hashes differently
    than the spec it reconstructs (a payload lying about its identity)."""


def payload_hash(payload: Dict[str, Any]) -> str:
    """The content hash a describe-payload denotes.

    SHA-256 over the sorted, separator-free JSON serialisation — the
    definition of :attr:`RunSpec.content_hash` — so identity can be
    checked without re-materialising the spec.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _config_from_payload(payload: Dict[str, Any]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from its ``dataclasses.asdict``."""
    fields = dict(payload)
    nested = {
        "core": CoreConfig,
        "l1d": CacheConfig,
        "l1i": CacheConfig,
        "l2": CacheConfig,
        "l1_l2_bus": BusConfig,
        "memory_bus": BusConfig,
        "sdram": SDRAMConfig,
    }
    for name, cls in nested.items():
        if name in fields and isinstance(fields[name], dict):
            fields[name] = cls(**fields[name])
    return MachineConfig(**fields)


def spec_from_payload(payload: Dict[str, Any]) -> RunSpec:
    """The inverse of :meth:`RunSpec.describe`, hash-verified.

    Raises :class:`SpecPayloadError` when the payload is malformed or
    the reconstructed spec's content hash differs from the payload's —
    a client (or a corrupted queue record) must never be able to file
    work under a hash it does not actually describe.
    """
    if not isinstance(payload, dict):
        raise SpecPayloadError("spec payload is not an object")
    expected = payload_hash(payload)
    try:
        kwargs: Tuple[Tuple[str, Any], ...] = tuple(
            (str(k), v) for k, v in payload.get("mechanism_kwargs") or ()
        )
        selection = payload.get("selection")
        spec = RunSpec(
            benchmark=payload["benchmark"],
            mechanism=payload["mechanism"],
            config=_config_from_payload(payload["config"]),
            n_instructions=payload["n_instructions"],
            mechanism_kwargs=kwargs,
            trace_length=payload.get("trace_length"),
            selection=tuple(selection) if selection else None,
            warmup_fraction=payload["warmup_fraction"],
            fast=payload["fast"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecPayloadError(f"bad spec payload: {exc!r}") from None
    if spec.content_hash != expected:
        raise SpecPayloadError(
            f"spec payload hashes to {expected[:12]}… but reconstructs "
            f"as {spec.content_hash[:12]}… (field drift between the "
            "processes?)"
        )
    return spec
