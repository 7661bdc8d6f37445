"""Guarded trace-speculation fast path for the simulation hot loop.

Modeled on the CS6120 lesson-12 trace-speculation harness (SNIPPETS.md):
record a hot *linear* instruction sequence once, replay it behind guard
predicates, and abort to the general path the moment a guard fails.  Here
the "program" is the simulator itself and the hot linear sequence is the
(fetch → L1-hit) chain a record takes when it misses nothing:

    advance clock → tag-pipeline slot → port grant → tag match →
    LRU promote → stat bumps → hit latency

:class:`TraceSpeculator.` *records* that sequence at construction — it walks
the hierarchy once and compiles the chain into closures over the flat tag
stores, resource state and stat counters (the analogue of ``speculate``
blocks being injected ahead of the original code).  A due kernel event
(MSHR release, eager-writeback drain, dead-block check) is not a reason
to abort: the replay runs the kernel's ``run_until`` first — exactly the
drain :meth:`~repro.cache.hierarchy.MemoryHierarchy.advance` would
perform — and then re-runs the recorded sequence under two guards,
evaluated *after* that drain so anything the events mutated is seen:

* **no queued prefetch** — a non-empty mechanism request queue means the
  hierarchy would drain traffic onto the buses before this access;
* **the line is resident** — a tag mismatch is a miss, which belongs to
  the MSHR/bus/DRAM slow path.

Any failed guard returns ``None`` — the abort — and the caller falls back
to ``hierarchy.load`` / ``store`` / ``fetch_instruction``, which performs
the identical work the long way.  A successful replay performs *exactly*
the side effects of the slow path's hit case (same stat bumps, same LRU
rotation, same resource acquisitions, same mechanism ``on_access`` hook at
the same point), so results are bit-identical with the fast path on or
off; the golden-fingerprint tests in ``tests/test_fastpath.py`` pin that
across every registered mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.cache.cache import DIRTY, PREFETCHED
from repro.cpu import codecache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.hierarchy import MemoryHierarchy

#: Indices into the speculation counter block.
COMMITS = 0
EVENT_DRAINS = 1
ABORT_QUEUED_PREFETCH = 2
ABORT_MISS = 3

ReplayFn = Callable[..., Optional[int]]


# -- machine-readable emitter metadata -----------------------------------------
#
# The SIM8xx guard-completeness verifier (repro.analysis.fastpath) parses
# the *emitted* source and proves, per machine shape, that every piece of
# simulator state the generated code touches is covered.  These tables are
# the proof obligations' vocabulary; they live here, next to the emitters,
# so the two evolve in one diff.

@dataclass(frozen=True)
class GuardSpec:
    """One guard the emitters bake into every replay sequence.

    ``counter`` is the ``counts_`` slot the guard bumps when it fires
    (the verifier checks the baked index), and ``protects`` names the
    canonical states whose premise-read the guard re-validates at replay
    time — state protected by no guard and not provably invariant is a
    SIM801 violation.
    """

    name: str
    counter: int
    protects: Tuple[str, ...]


#: The guards, in the order the emitters lay them out: due kernel events
#: are drained first, then the prefetch queues are checked, then the tag
#: probe.  The verifier requires exactly this order — the queue and tag
#: guards are only sound *after* the drain has run whatever the events
#: would have mutated.
GUARDS: Tuple[GuardSpec, ...] = (
    GuardSpec("event-drain", EVENT_DRAINS, ("kernel.events", "kernel.clock")),
    GuardSpec("queued-prefetch", ABORT_QUEUED_PREFETCH, ("mechanism.queue",)),
    GuardSpec("resident", ABORT_MISS,
              ("cache.tags", "cache.ready", "cache.touch", "cache.flags")),
)

#: Canonical simulator state per emitter binding name (prefixes such as
#: ``ld_`` stripped; ``queue<N>`` bindings map to ``mechanism.queue`` by
#: pattern).  A name the emitted source references that resolves to no
#: entry here is *unaccounted state* — SIM801.
STATE_OF_BINDING: Dict[str, str] = {
    "tags": "cache.tags",
    "tags_index": "cache.tags",
    "ready_arr": "cache.ready",
    "touch": "cache.touch",
    "flags": "cache.flags",
    "pipe": "cache.pipeline",
    "ports": "cache.ports",
    "ledger": "cache.ports",
    "ledger_get": "cache.ports",
    "st_kind": "cache.stat.kind",
    "st_useful": "cache.stat.useful",
    "st_outer": "hierarchy.stat",
    "image_write": "image",
    "hook": "mechanism.hook",
    "sim": "kernel.clock",
    "event_times": "kernel.events",
    "run_until": "kernel.events",
    "counts_": "speculation.counters",
    # Bindings of the generated run loop (repro.cpu.ooo._emit_fast_loop).
    "latency": "core.tables",
    "fu_of": "core.tables",
    "h_load": "hierarchy.slowpath",
    "h_store": "hierarchy.slowpath",
    "h_fetch": "hierarchy.slowpath",
    "deque": "local",
    "sampler_sample": "obs.sampler",
}

#: States the fast path may touch without a guard because it only touches
#: them in the commit region, performing exactly the writes the slow
#: path's hit case performs (the SIM802 sequence check pins that): stat
#: bumps, resource ledgers, the write-through image, the mechanism hook,
#: and the speculation counters (diagnostics, not part of any result).
INVARIANT_STATES = frozenset({
    "cache.ports", "cache.pipeline", "cache.stat.kind", "cache.stat.useful",
    "hierarchy.stat", "image", "mechanism.hook", "speculation.counters",
    "core.tables", "hierarchy.slowpath", "obs.sampler", "local",
})


def _guard_tag(spec: GuardSpec) -> str:
    """The comment line tagging one emitted guard with what it protects."""
    return f"# guard[{spec.name}] protects: {', '.join(spec.protects)}"


def _emit_hit(cache, is_write, is_ifetch, hierarchy, queued, *, prefix,
              pc, addr, time, value, on_abort, on_commit, indent):
    """Emit the linear hit-replay source for one cache.

    Returns ``(lines, bindings)``: the statement lines (already indented by
    ``indent``) and the names the generated code expects bound in its
    namespace.  ``pc``/``addr``/``time``/``value`` are *expressions* pasted
    into the source, so the same emitter serves two consumers:

    * :class:`TraceSpeculator` wraps the body in a ``def`` (``on_abort``
      returns a ``return None``, ``on_commit`` a ``return``);
    * the generated run loop (:meth:`repro.cpu.ooo.OoOCore.run`) embeds the
      body inline at each call site inside a ``while True:``/``break``
      frame, with all locals and bindings renamed through ``prefix`` so the
      three sites coexist in one function scope.

    Either way the emitted sequence is the same recorded trace, so the two
    consumers cannot drift apart.
    """
    pipe = cache.pipeline
    if pipe.initiation_interval != 1:  # pragma: no cover - config guard
        raise RuntimeError("fast path assumes a 1-cycle tag pipeline")
    ports = cache.ports
    p = prefix
    i0 = indent
    i1 = indent + "    "
    i2 = indent + "        "

    bindings = {
        "counts_": None,  # caller substitutes the live counter block
        "sim": hierarchy.sim,
        "event_times": hierarchy.sim._times,
        "run_until": hierarchy.sim.run_until,
        f"{p}tags": cache._tags,
        f"{p}ready_arr": cache._ready,
        f"{p}touch": cache._touch,
        f"{p}flags": cache._flags,
        f"{p}pipe": pipe,
        f"{p}ports": ports,
        f"{p}ledger": ports._ledger,
        f"{p}ledger_get": ports._ledger.get,
        f"{p}st_kind": cache.st_writes if is_write else cache.st_reads,
        f"{p}st_useful": cache.st_useful_prefetches,
    }
    for qi, q in enumerate(queued):
        bindings[f"queue{qi}"] = q

    lines = [
        # A due kernel event (bucket time at or before the access cycle) is
        # *drained*, not aborted on: advance() would run exactly this drain
        # before the access proceeds.  The queue and tag guards below run
        # after it, so anything the events mutate is seen.
        f"{i0}{_guard_tag(GUARDS[0])}",
        f"{i0}if event_times and event_times[0] <= {time}:",
        f"{i1}run_until({time})",
        f"{i1}counts_[{EVENT_DRAINS}] += 1",
    ]
    # -- guards (pure: a failed guard leaves no trace beyond the drain the
    # slow path would also have run) ------------------------------------------
    for qi in range(len(queued)):
        lines.append(f"{i0}{_guard_tag(GUARDS[1])}")
        lines.append(f"{i0}if queue{qi}:")
        lines.append(f"{i1}counts_[{ABORT_QUEUED_PREFETCH}] += 1")
        lines += [i1 + s for s in on_abort()]
    assoc = cache.assoc
    lines += [
        f"{i0}{p}block = {addr} >> {cache.line_bits}",
        f"{i0}{p}base = ({p}block & {cache._set_mask}) * {assoc}",
    ]
    if assoc == 1:
        # Direct-mapped: one compare decides residency, where a list.index
        # miss would raise ValueError on every abort to the miss path.
        lines += [
            f"{i0}{p}slot = {p}base",
            f"{i0}{_guard_tag(GUARDS[2])}",
            f"{i0}if {p}tags[{p}base] != {p}block:",
        ]
    else:
        bindings[f"{p}tags_index"] = cache._tags.index
        lines += [
            f"{i0}{_guard_tag(GUARDS[2])}",
            f"{i0}try:",
            f"{i1}{p}slot = {p}tags_index({p}block, {p}base, {p}base + {assoc})",
            f"{i0}except ValueError:",
        ]
    lines += [
        f"{i1}counts_[{ABORT_MISS}] += 1",
        *[i1 + s for s in on_abort()],
        # -- commit: replay the recorded sequence ------------------------------
        # advance(): nothing to drain, just drive the clock.
        f"{i0}if {time} > sim.now:",
        f"{i1}sim.now = {time}",
    ]
    if is_write:
        bindings[f"{p}st_outer"] = hierarchy.st_stores
        lines.append(f"{i0}{p}st_outer.value += 1")
        if hierarchy.image is not None:
            bindings[f"{p}image_write"] = hierarchy.image.write
            lines.append(f"{i0}{p}image_write({addr}, {value})")
    elif not is_ifetch:
        bindings[f"{p}st_outer"] = hierarchy.st_loads
        lines.append(f"{i0}{p}st_outer.value += 1")
    if cache.precise:
        # pipeline.acquire inlined (initiation interval is 1).
        lines += [
            f"{i0}{p}next_start = {p}pipe._next_start",
            f"{i0}{p}t = {time} if {p}next_start <= {time} else {p}next_start",
            f"{i0}{p}pipe._next_start = {p}t + 1",
            f"{i0}{p}pipe.accepts += 1",
        ]
    else:
        lines.append(f"{i0}{p}t = {time}")
    lines += [
        # ports.acquire inlined: one ledger probe on the untouched-cycle
        # common case (_prune keeps the dict identity stable).
        f"{i0}{p}count = {p}ledger_get({p}t)",
        f"{i0}if {p}count is None:",
        f"{i1}{p}ledger[{p}t] = 1",
        f"{i0}else:",
        f"{i1}while {p}count is not None and {p}count >= {ports.n_ports}:",
        f"{i2}{p}t += 1",
        f"{i2}{p}count = {p}ledger_get({p}t)",
        f"{i1}{p}ledger[{p}t] = 1 if {p}count is None else {p}count + 1",
        f"{i0}{p}ports.grants += 1",
        f"{i0}if len({p}ledger) > {ports._PRUNE_EVERY}:",
        f"{i1}{p}ports._prune({p}t)",
        f"{i0}{p}st_kind.value += 1",
        # LRU promotion by slice rotation, as in Cache.access.
        f"{i0}if {p}slot != {p}base:",
        f"{i1}{p}line_ready = {p}ready_arr[{p}slot]",
        f"{i1}{p}line_flags = {p}flags[{p}slot]",
        f"{i1}{p}tags[{p}base + 1:{p}slot + 1] = {p}tags[{p}base:{p}slot]",
        f"{i1}{p}tags[{p}base] = {p}block",
        f"{i1}{p}ready_arr[{p}base + 1:{p}slot + 1] = {p}ready_arr[{p}base:{p}slot]",
        f"{i1}{p}ready_arr[{p}base] = {p}line_ready",
        f"{i1}{p}touch[{p}base + 1:{p}slot + 1] = {p}touch[{p}base:{p}slot]",
        f"{i1}{p}flags[{p}base + 1:{p}slot + 1] = {p}flags[{p}base:{p}slot]",
        f"{i0}else:",
        f"{i1}{p}line_ready = {p}ready_arr[{p}base]",
        f"{i1}{p}line_flags = {p}flags[{p}base]",
        f"{i0}{p}was_prefetched = {p}line_flags & {PREFETCHED}",
        f"{i0}if {p}was_prefetched:",
        f"{i1}{p}line_flags &= {~PREFETCHED}",
        f"{i1}{p}st_useful.value += 1",
    ]
    if is_write:
        lines.append(f"{i0}{p}line_flags |= {DIRTY}")
    lines += [
        f"{i0}{p}flags[{p}base] = {p}line_flags",
        f"{i0}{p}touch[{p}base] = {p}t",
        f"{i0}{p}ready = {p}t + {cache.config.latency}",
        f"{i0}if {p}line_ready > {p}ready:",
        f"{i1}{p}ready = {p}line_ready",
    ]
    if not is_ifetch and cache.mechanism is not None:
        bindings[f"{p}hook"] = cache.mechanism.on_access
        lines.append(
            f"{i0}{p}hook({pc}, {p}block, True, bool({p}was_prefetched), {p}t)"
        )
    lines.append(f"{i0}counts_[{COMMITS}] += 1")
    lines += [i0 + s for s in on_commit(f"{p}ready")]
    return lines, bindings


def emit_replay_source(hierarchy, kind):
    """Emit one replay closure's full source for ``kind`` on ``hierarchy``.

    ``kind`` is ``"load"``, ``"store"`` or ``"ifetch"``.  Returns
    ``(source, bindings)`` where ``source`` is a complete
    ``def replay(pc, addr, time, value=None):`` definition and ``bindings``
    maps every free name the source references to the live object it must
    be bound to (``counts_`` is left ``None`` for the caller to fill).

    This is the single emission path shared by :class:`TraceSpeculator`
    (which compiles and executes the source) and the SIM8xx
    guard-completeness verifier (:mod:`repro.analysis.fastpath`, which
    parses it) — whatever the speculator runs is, by construction, exactly
    what the verifier proves things about.
    """
    mech = hierarchy.mechanism
    queued = tuple(q._queue for q in mech.iter_queues()) if mech else ()
    cache = hierarchy.l1i if kind == "ifetch" else hierarchy.l1d
    lines, bindings = _emit_hit(
        cache,
        is_write=(kind == "store"),
        is_ifetch=(kind == "ifetch"),
        hierarchy=hierarchy,
        queued=queued,
        prefix="",
        pc="pc", addr="addr", time="time", value="value",
        on_abort=lambda: ["return None"],
        on_commit=lambda ready: [f"return {ready}"],
        indent="    ",
    )
    source = "\n".join(["def replay(pc, addr, time, value=None):"] + lines)
    return source, bindings


def emit_hit_inline(counts, hierarchy, kind, *, prefix, result,
                    pc, addr, time, value="None", indent):
    """Emit an inline replay block for embedding in a generated loop.

    The block assigns the hit-ready cycle to ``result``, or leaves it
    ``None`` on a guard abort — the caller follows it with the slow-path
    fallback (``if result is None: ...``).  ``counts`` is the live
    speculation counter list (shared with the :class:`TraceSpeculator`
    closures, so introspection sees inline and closure replays alike).
    """
    queued = (tuple(q._queue for q in hierarchy.mechanism.iter_queues())
              if hierarchy.mechanism else ())
    cache = hierarchy.l1i if kind == "ifetch" else hierarchy.l1d
    lines, bindings = _emit_hit(
        cache,
        is_write=(kind == "store"),
        is_ifetch=(kind == "ifetch"),
        hierarchy=hierarchy,
        queued=queued,
        prefix=prefix,
        pc=pc, addr=addr, time=time, value=value,
        on_abort=lambda: ["break"],
        on_commit=lambda ready: [f"{result} = {ready}", "break"],
        indent=indent + "    ",
    )
    bindings["counts_"] = counts
    block = [f"{indent}{result} = None", f"{indent}while True:"]
    block += lines
    return block, bindings


class TraceSpeculator:
    """Records the linear fetch→L1-hit sequence of one hierarchy and
    replays it under guards.

    Construct one per run, after the hierarchy is fully wired (mechanism
    attached, queues created): recording binds the live tag stores, the
    kernel's time heap and the mechanism queues, all of which the engine
    and cache maintain in place for exactly this reason.
    """

    __slots__ = ("counts", "_hierarchy", "_compiled")

    def __init__(self, hierarchy: "MemoryHierarchy") -> None:
        self.counts = [0, 0, 0, 0]
        self._hierarchy = hierarchy
        #: The replay closures, compiled on first use: the generated run
        #: loop embeds the same sequences inline (emit_hit_inline) and
        #: never calls them, so eager compilation would tax every run to
        #: serve only direct callers (tests, exploratory use).
        self._compiled = None

    # -- introspection -------------------------------------------------------

    @property
    def commits(self) -> int:
        """Replays that ran to completion on the fast path."""
        return self.counts[COMMITS]

    @property
    def aborts(self) -> int:
        """Replays that bailed to the slow path (any guard)."""
        return (self.counts[ABORT_QUEUED_PREFETCH]
                + self.counts[ABORT_MISS])

    @property
    def event_drains(self) -> int:
        """Replays that first drained due kernel events (not aborts: the
        drain is exactly what the slow path's ``advance`` would run)."""
        return self.counts[EVENT_DRAINS]

    def abort_reasons(self) -> dict:
        return {
            "queued_prefetch": self.counts[ABORT_QUEUED_PREFETCH],
            "miss": self.counts[ABORT_MISS],
        }

    # -- the replay closures (compiled on demand) -----------------------------

    @property
    def replay_load(self) -> ReplayFn:
        return self._closures()[0]

    @property
    def replay_store(self) -> ReplayFn:
        return self._closures()[1]

    @property
    def replay_ifetch(self) -> ReplayFn:
        return self._closures()[2]

    def _closures(self):
        if self._compiled is None:
            self._compiled = self._record(self._hierarchy)
        return self._compiled

    # -- recording -----------------------------------------------------------

    def _record(self, hierarchy: "MemoryHierarchy") -> None:
        """Walk the hierarchy once and compile the replay closures.

        Everything a replay touches is bound here — no attribute chains
        survive into the per-record path.  The bindings rely on three
        stability guarantees: :meth:`Cache.reset` and the kernel's
        ``_compact`` mutate their lists in place,
        :meth:`MultiPortResource._prune` mutates its ledger dict in place,
        and mechanism queues are created at construction and never replaced.

        Each replay variant is *generated* as straight-line source and
        compiled with :func:`exec` — the configuration-dependent branches
        (write vs read, data vs instruction fetch, precise vs imprecise
        timing, mechanism hook present or not, how many prefetch queues to
        guard) are resolved here, at record time, so the per-call path
        carries no dead conditionals.  This is the trace-speculation
        analogue of emitting the speculated block: the recorded sequence
        *is* the compiled function body.
        """
        def compile_hit(kind):
            """Generate + compile the linear hit sequence for one kind."""
            source, namespace = emit_replay_source(hierarchy, kind)
            namespace["counts_"] = self.counts
            code = codecache.load_or_compile(source, "<repro.cpu.fastpath>")
            exec(code, namespace)  # noqa: S102 - closed namespace, own source
            return namespace["replay"]

        # All three share the ``(pc, addr, time, value=None)`` signature so
        # callers pay no adapter frame.  Instruction fetch passes the PC as
        # the address and never reaches a mechanism hook (emit_replay_source
        # drops the hook for the ifetch case, mirroring the INSTRUCTION_PC
        # rule).
        return (
            compile_hit("load"),
            compile_hit("store"),
            compile_hit("ifetch"),
        )
