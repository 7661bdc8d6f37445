"""Guarded trace-speculation fast path for the simulation hot loop.

Modeled on the CS6120 lesson-12 trace-speculation harness (SNIPPETS.md):
record a hot *linear* instruction sequence once, replay it behind guard
predicates, and abort to the general path the moment a guard fails.  Here
the "program" is the simulator itself and the hot linear sequence is the
(fetch → L1-hit) chain a record takes when it misses nothing:

    advance clock → tag-pipeline slot → port grant → tag match →
    LRU promote → stat bumps → hit latency

The sequence is emitted as one fixed *hit block* per access kind (load,
store, instruction fetch), with the same text for every machine.  What
the block reads from the machine — the flat tag stores, resource state,
stat counters, cache geometry, the mechanism hook, the memory image's
writer and the prefetch queues — is a namespace binding
(:func:`hit_bindings`), read at run time; a feature the machine lacks
binds ``None`` (or ``()`` for an absent prefetch queue), so every machine
binds the same names.  A due kernel event (MSHR release, eager-writeback
drain, dead-block check) is not a reason to abort: the block runs the
kernel's ``run_until`` first — exactly the drain
:meth:`~repro.cache.hierarchy.MemoryHierarchy.advance` would perform — and
then checks two guards, evaluated *after* that drain so anything the
events mutated is seen:

* **no queued prefetch** — a non-empty mechanism request queue means the
  hierarchy would drain traffic onto the buses before this access;
* **the line is resident** — a tag mismatch is a miss, which belongs to
  the MSHR/bus/DRAM slow path.

Each guard carries a ``# guard[<name>]`` marker comment on the line above
it.  Any failed guard aborts, and the caller falls back to
``hierarchy.load`` / ``store`` / ``fetch_instruction``, which performs the
identical work the long way.  A successful replay performs *exactly* the
side effects of the slow path's hit case (same stat bumps, same LRU
rotation, same resource acquisitions, same mechanism ``on_access`` hook at
the same point), so results are bit-identical with the fast path on or
off; ``tests/test_fastpath.py`` pins that across every registered
mechanism and cache model, and shows that dropping any one guard makes
some fast/slow pair diverge; ``tests/test_fastpath_verifier.py`` checks,
machine by machine, that the guards are whole and read live state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.cache.cache import DIRTY, PREFETCHED
from repro.cpu import codecache
from repro.kernel.resources import MultiPortResource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.hierarchy import MemoryHierarchy

#: Indices into the speculation counter block.
COMMITS = 0
EVENT_DRAINS = 1
ABORT_QUEUED_PREFETCH = 2
ABORT_MISS = 3

#: Prefetch-queue slots the hit block guards.  No registered mechanism
#: owns more than two (CDPSP has two); a machine with more is refused
#: when the block is bound, never run with a queue unguarded.
QUEUE_SLOTS = 2

ReplayFn = Callable[..., Optional[int]]


def hit_bindings(hierarchy: "MemoryHierarchy", kind: str,
                 prefix: str = "") -> Dict[str, Any]:
    """The namespace the ``kind`` hit block reads, bound to this machine.

    ``kind`` is ``"load"``, ``"store"`` or ``"ifetch"``; ``prefix`` is
    the one :func:`_emit_hit` was given.  ``counts_`` is left ``None`` for
    the caller to fill with the live counter block.  Every machine binds
    the same names in the same order, so the emitted text never varies.
    """
    cache = hierarchy.l1i if kind == "ifetch" else hierarchy.l1d
    if cache.pipeline.initiation_interval != 1:  # pragma: no cover - config guard
        raise RuntimeError("fast path assumes a 1-cycle tag pipeline")
    queues = hierarchy._mech_queues
    if len(queues) > QUEUE_SLOTS:
        raise RuntimeError(
            f"fast path guards {QUEUE_SLOTS} prefetch queues; "
            f"{hierarchy.mechanism!r} has {len(queues)}")
    p = prefix
    ports = cache.ports
    bindings: Dict[str, Any] = {
        "counts_": None,
        "sim": hierarchy.sim,
        "event_times": hierarchy.sim._times,
        "run_until": hierarchy.sim.run_until,
    }
    for slot in range(QUEUE_SLOTS):
        bindings[f"queue{slot}"] = queues[slot] if slot < len(queues) else ()
    bindings.update({
        f"{p}line_bits": cache.line_bits,
        f"{p}set_mask": cache._set_mask,
        f"{p}assoc": cache.assoc,
        f"{p}tags": cache._tags,
        f"{p}tags_index": cache._tags.index,
        f"{p}ready_arr": cache._ready,
        f"{p}touch": cache._touch,
        f"{p}flags": cache._flags,
        f"{p}pipe": cache.pipeline if cache.precise else None,
        f"{p}ports": ports,
        f"{p}n_ports": ports.n_ports,
        f"{p}ledger": ports._ledger,
        f"{p}ledger_get": ports._ledger.get,
        f"{p}st_kind": cache.st_writes if kind == "store" else cache.st_reads,
        f"{p}st_useful": cache.st_useful_prefetches,
        f"{p}latency": cache.config.latency,
    })
    if kind == "store":
        bindings[f"{p}st_outer"] = hierarchy.st_stores
        bindings[f"{p}image_write"] = (hierarchy.image.write
                                       if hierarchy.image is not None
                                       else None)
    elif kind == "load":
        bindings[f"{p}st_outer"] = hierarchy.st_loads
    if kind != "ifetch":
        # Instruction fetch never reaches a mechanism hook (the
        # INSTRUCTION_PC rule).
        bindings[f"{p}hook"] = (cache.mechanism.on_access
                                if cache.mechanism is not None else None)
    return bindings


def _emit_hit(kind: str, *, prefix: str, pc: str, addr: str, time: str,
              value: str, on_abort: Callable[[], List[str]],
              on_commit: Callable[[str], List[str]],
              indent: str) -> List[str]:
    """Emit the linear hit-replay source of one access kind.

    Returns the statement lines, already indented by ``indent``; the
    names they read are :func:`hit_bindings`'s.  ``pc``/``addr``/
    ``time``/``value`` are *expressions* pasted into the source, so the
    same emitter serves two consumers:

    * :class:`TraceSpeculator` wraps the body in a ``def`` (``on_abort``
      returns a ``return None``, ``on_commit`` a ``return``);
    * the generated run loop (:meth:`repro.cpu.ooo.OoOCore.run`) embeds the
      body inline at each call site inside a ``while True:``/``break``
      frame, with all locals and bindings renamed through ``prefix`` so the
      three sites coexist in one function scope.

    Either way the emitted sequence is the same recorded trace, so the two
    consumers cannot drift apart.
    """
    is_write = kind == "store"
    is_ifetch = kind == "ifetch"
    p = prefix
    i0 = indent
    i1 = indent + "    "
    i2 = indent + "        "
    abort1 = [i1 + s for s in on_abort()]
    abort2 = [i2 + s for s in on_abort()]
    # Guards first, each pure: a failed guard leaves no trace beyond the
    # drain the slow path would also have run.  A due kernel event (bucket
    # time at or before the access cycle) is *drained*, not aborted on:
    # advance() would run exactly this drain before the access proceeds.
    lines = [
        f"{i0}# guard[event-drain]",
        f"{i0}if event_times and event_times[0] <= {time}:",
        f"{i1}run_until({time})",
        f"{i1}counts_[{EVENT_DRAINS}] += 1",
        f"{i0}# guard[queued-prefetch]",
        f"{i0}if {' or '.join(f'queue{s}' for s in range(QUEUE_SLOTS))}:",
        f"{i1}counts_[{ABORT_QUEUED_PREFETCH}] += 1",
        *abort1,
        f"{i0}{p}block = {addr} >> {p}line_bits",
        f"{i0}{p}base = ({p}block & {p}set_mask) * {p}assoc",
        f"{i0}{p}slot = {p}base",
        # The MRU way decides most probes with one compare; past it, a
        # direct-mapped set has missed, and a wider one scans the rest
        # (a list.index miss raises ValueError, so only there).
        f"{i0}# guard[resident]",
        f"{i0}if {p}tags[{p}base] != {p}block:",
        f"{i1}if {p}assoc == 1:",
        f"{i2}counts_[{ABORT_MISS}] += 1",
        *abort2,
        f"{i1}try:",
        f"{i2}{p}slot = {p}tags_index({p}block, {p}base + 1, {p}base + {p}assoc)",
        f"{i1}except ValueError:",
        f"{i2}counts_[{ABORT_MISS}] += 1",
        *abort2,
        # -- commit: the hit's writes, in Cache.access's order -----------------
        # advance(): nothing to drain, just drive the clock.
        f"{i0}if {time} > sim.now:",
        f"{i1}sim.now = {time}",
    ]
    if is_write:
        lines += [
            f"{i0}{p}st_outer.value += 1",
            f"{i0}if {p}image_write is not None:",
            f"{i1}{p}image_write({addr}, {value})",
        ]
    elif not is_ifetch:
        lines.append(f"{i0}{p}st_outer.value += 1")
    lines += [
        # pipeline.acquire inlined (initiation interval 1); an imprecise
        # cache has no tag pipeline to pass.
        f"{i0}if {p}pipe is None:",
        f"{i1}{p}t = {time}",
        f"{i0}else:",
        f"{i1}{p}next_start = {p}pipe._next_start",
        f"{i1}{p}t = {time} if {p}next_start <= {time} else {p}next_start",
        f"{i1}{p}pipe._next_start = {p}t + 1",
        f"{i1}{p}pipe.accepts += 1",
        # ports.acquire inlined: one ledger probe on the untouched-cycle
        # common case (_prune keeps the dict identity stable).
        f"{i0}{p}count = {p}ledger_get({p}t)",
        f"{i0}if {p}count is None:",
        f"{i1}{p}ledger[{p}t] = 1",
        f"{i0}else:",
        f"{i1}while {p}count is not None and {p}count >= {p}n_ports:",
        f"{i2}{p}t += 1",
        f"{i2}{p}count = {p}ledger_get({p}t)",
        f"{i1}{p}ledger[{p}t] = 1 if {p}count is None else {p}count + 1",
        f"{i0}{p}ports.grants += 1",
        f"{i0}if len({p}ledger) > {MultiPortResource._PRUNE_EVERY}:",
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
        f"{i0}{p}ready = {p}t + {p}latency",
        f"{i0}if {p}line_ready > {p}ready:",
        f"{i1}{p}ready = {p}line_ready",
    ]
    if not is_ifetch:
        lines += [
            f"{i0}if {p}hook is not None:",
            f"{i1}{p}hook({pc}, {p}block, True, bool({p}was_prefetched), {p}t)",
        ]
    lines.append(f"{i0}counts_[{COMMITS}] += 1")
    lines += [i0 + s for s in on_commit(f"{p}ready")]
    return lines


def _replay_source(kind: str) -> str:
    """One replay closure's full source for ``kind``.

    A complete ``def replay(pc, addr, time, value=None):`` definition
    whose free names are :func:`hit_bindings`'s with no prefix.
    """
    lines = _emit_hit(
        kind, prefix="", pc="pc", addr="addr", time="time", value="value",
        on_abort=lambda: ["return None"],
        on_commit=lambda ready: [f"return {ready}"],
        indent="    ",
    )
    return "\n".join(["def replay(pc, addr, time, value=None):"] + lines)


def emit_hit_inline(kind: str, *, prefix: str, result: str, pc: str,
                    addr: str, time: str, value: str = "None",
                    indent: str) -> List[str]:
    """Emit an inline replay block for embedding in a generated loop.

    The block assigns the hit-ready cycle to ``result``, or leaves it
    ``None`` on a guard abort — the caller follows it with the slow-path
    fallback (``if result is None: ...``).  Its free names are
    :func:`hit_bindings`'s under ``prefix``.
    """
    lines = _emit_hit(
        kind, prefix=prefix, pc=pc, addr=addr, time=time, value=value,
        on_abort=lambda: ["break"],
        on_commit=lambda ready: [f"{result} = {ready}", "break"],
        indent=indent + "    ",
    )
    return [f"{indent}{result} = None", f"{indent}while True:"] + lines


class TraceSpeculator:
    """The speculation counters of one run, and replay closures over one
    hierarchy.

    Construct one per run, after the hierarchy is fully wired (mechanism
    attached, queues created): binding reads the live tag stores, the
    kernel's time heap and the mechanism queues, all of which the engine
    and cache maintain in place for exactly this reason.
    """

    __slots__ = ("counts", "_hierarchy", "_replays")

    def __init__(self, hierarchy: "MemoryHierarchy") -> None:
        self.counts = [0, 0, 0, 0]
        self._hierarchy = hierarchy
        #: The replay closures by kind, compiled on first use: the
        #: generated run loop embeds the same blocks inline and never
        #: calls them, so only direct callers (tests, exploratory use)
        #: pay for them.
        self._replays: Dict[str, ReplayFn] = {}

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
        return self._replay("load")

    @property
    def replay_ifetch(self) -> ReplayFn:
        """Instruction fetch passes the PC as the address (the closures
        share the ``(pc, addr, time, value=None)`` signature)."""
        return self._replay("ifetch")

    def _replay(self, kind: str) -> ReplayFn:
        """The ``kind`` replay closure; one code object per kind across
        every machine, since the source never varies."""
        replay = self._replays.get(kind)
        if replay is None:
            namespace = hit_bindings(self._hierarchy, kind)
            namespace["counts_"] = self.counts
            code = codecache.load_or_compile(_replay_source(kind),
                                             "<repro.cpu.fastpath>")
            exec(code, namespace)  # noqa: S102 - closed namespace, own source
            replay = self._replays[kind] = namespace["replay"]
        return replay
