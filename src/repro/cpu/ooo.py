"""One-pass out-of-order core timeline model.

Each trace record is processed exactly once, in program order, computing the
cycle at which it fetches, dispatches, issues, completes and commits.  The
machine's structural limits appear as ``max`` terms on those timestamps:

* **fetch** — at most ``fetch_width`` records per cycle; stalled after a
  mispredicted branch until it resolves plus the refill penalty;
* **dispatch** — one cycle after fetch; waits for a free RUU entry (the
  RUU entry of the oldest in-flight instruction frees when it commits) and,
  for memory ops, a free LSQ entry;
* **issue** — waits for operands (the completion time of the producer
  ``DEP`` records earlier) and a functional unit from the right pool;
* **complete** — FU latency, or the memory hierarchy's answer for loads;
* **commit** — in order, at most ``commit_width`` per cycle, not before
  completion.

Loads enter the cache at issue time, so cache/LSQ back-pressure (a stalled
cache pipeline pushes the load's grant time out) directly delays completion
and, through the RUU-full term, every subsequent instruction — the paper's
"cache stalls (plus MSHR full) can temporarily stall the LSQ" behaviour.
Stores write the cache at commit time (write buffer) without blocking
commit, but their port/bus/MSHR traffic is real.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.config import CoreConfig
from repro.cpu import codecache
from repro.cpu.fastpath import TraceSpeculator, emit_hit_inline, hit_bindings
from repro.hotpath import hotpath
from repro.isa.instr import FU_LATENCY, FU_POOL, Op
from repro.kernel.module import Component
from repro.kernel.resources import MultiPortResource
from repro.obs.tracing import TRACER

#: Completion-history ring size for dependence lookups (power of two).
_RING = 512
_RING_MASK = _RING - 1

#: Sampling threshold meaning "never" (no sampler attached).
_NO_SAMPLE = 1 << 62


@dataclass
class CoreStats:
    """Outcome of one simulated trace."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredicts: int = 0
    load_latency_total: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

    @property
    def avg_load_latency(self) -> float:
        if not self.loads:
            return 0.0
        return self.load_latency_total / self.loads


class OoOCore(Component):
    """Trace-driven out-of-order core bound to one memory hierarchy."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        name: str = "core",
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.config = config
        self.hierarchy = hierarchy
        #: The last run's :class:`TraceSpeculator` (``None`` on slow-path
        #: runs).  Diagnostics only — its commit/abort counters are not part
        #: of ``stats_report()``, so fast and slow runs fingerprint alike.
        self.speculation: Optional[TraceSpeculator] = None
        self.fu = {
            "int_alu": MultiPortResource(config.int_alu),
            "int_mul": MultiPortResource(config.int_mul),
            "fp_alu": MultiPortResource(config.fp_alu),
            "fp_mul": MultiPortResource(config.fp_mul),
            "lsu": MultiPortResource(config.lsu),
        }

    def run(self, trace: Sequence, measure_from: int = 0,
            sampler=None, fast: bool = True, checkpoint=None,
            resume=None) -> CoreStats:
        """Simulate ``trace`` to completion; return the run's statistics.

        ``measure_from`` marks the end of the warm-up window: IPC is
        reported over instructions ``measure_from..end`` only (caches and
        predictors stay warm across the boundary), the standard discipline
        for short traces where cold misses would otherwise dominate.

        ``sampler`` is an optional :class:`repro.obs.IntervalSampler`:
        every ``sampler.interval`` records it snapshots the hierarchy's
        statistics for per-interval rate breakdowns.  It only observes —
        a sampled run's result is identical to an unsampled one — and
        when absent costs one integer comparison per record.

        ``fast`` arms the guarded trace-speculation fast path
        (:mod:`repro.cpu.fastpath`): accesses that miss nothing replay a
        pre-recorded L1-hit sequence and anything else aborts into the
        ordinary hierarchy calls.  Results are bit-identical either way;
        the knob exists so the equivalence is *testable* (and spec-hashed,
        see :class:`repro.exec.RunSpec`).

        ``checkpoint`` is an optional duck-typed checkpointer (``.every``,
        ``.cut(index, state)``; see
        :class:`repro.exec.checkpoint.Checkpointer`): every ``every``
        committed records the loop cuts this live machine whole (see
        :meth:`_checkpoint_cut`).  ``resume`` is a loaded cut whose
        ``"core"`` is this very (unpickled) core: the loop restarts from
        the cut's record with the saved loop state and speculator
        counters.  Resume-then-finish is bit-identical to an
        uninterrupted run; when no checkpointer is attached the loops are
        exactly today's code (the fast path's emitted source is
        unchanged, so the disabled path provably costs nothing).
        """
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("cpu.run", cat="cpu")
        saved_loop = resume["loop"] if resume is not None else None
        if fast:
            speculator = TraceSpeculator(self.hierarchy)
            self.speculation = speculator
            if resume is not None and resume["spec_counts"] is not None:
                speculator.counts[:] = resume["spec_counts"]
            loop = self._compile_fast_loop(speculator, sampler,
                                           checkpoint, saved_loop)
            outcome = loop(trace, measure_from)
        else:
            self.speculation = None
            outcome = self._slow_loop(trace, measure_from, sampler,
                                      checkpoint, saved_loop)
        (index, commit_cycle, warmup_end_cycle, n_loads, n_stores,
         n_branches, n_mispredicts, load_latency_total) = outcome

        stats = CoreStats()
        stats.instructions = index
        if measure_from and stats.instructions > measure_from:
            stats.instructions -= measure_from
            stats.cycles = commit_cycle - warmup_end_cycle
        else:
            stats.cycles = commit_cycle if stats.instructions else 0
        stats.loads = n_loads
        stats.stores = n_stores
        stats.branches = n_branches
        stats.mispredicts = n_mispredicts
        stats.load_latency_total = load_latency_total
        if sampler is not None:
            sampler.finish(index, commit_cycle)
        if tracing:
            TRACER.end(instructions=stats.instructions, cycles=stats.cycles)
        return stats

    @hotpath
    def _slow_loop(self, trace: Sequence, measure_from: int, sampler,
                   checkpoint=None, resume=None):
        """The reference pipeline walk, interpreted, no speculation.

        This is the loop the generated fast path must be indistinguishable
        from: every access goes the long way through the hierarchy.  The
        golden-fingerprint tests diff the two record by record (via their
        stats), which is why this stays plain, readable Python.

        ``checkpoint``/``resume`` mirror the fast path's mid-run checkpoint
        support: a disabled checkpointer costs one integer comparison per
        record (the same discipline as the sampler's ``_NO_SAMPLE``
        sentinel), and ``resume`` is the loop-state tuple a prior cut saved.
        """
        sample_every = sampler.interval if sampler is not None else 0
        next_sample = sample_every if sample_every else _NO_SAMPLE
        ckpt_every = checkpoint.every if checkpoint is not None else 0
        next_ckpt = ckpt_every if ckpt_every else _NO_SAMPLE
        ckpt_cut = self._checkpoint_cut(checkpoint, None) if ckpt_every else None
        cfg = self.config
        hierarchy = self.hierarchy
        load_op = int(Op.LOAD)
        store_op = int(Op.STORE)
        branch_op = int(Op.BRANCH)
        latency, fu_of = self._dispatch_tables()

        # Hot-path locals: every per-record attribute chain hoisted once.
        h_load = hierarchy.load
        h_store = hierarchy.store
        h_fetch = hierarchy.fetch_instruction

        fetch_cycle = 0
        fetch_slots = 0
        squash_until = 0
        # Instruction-cache state: one lookup per fetched line, not per
        # instruction — sequential fetch within a resident line is free.
        icache_line_bits = hierarchy.l1i.line_bits
        last_fetch_block = -1
        ruu = deque()
        lsq = deque()
        ruu_size = cfg.ruu_size
        lsq_size = cfg.lsq_size
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        penalty = cfg.mispredict_penalty
        commit_cycle = 0
        commit_slots = 0
        ring = [0] * _RING
        ring_pos = 0

        ruu_len = 0
        lsq_len = 0
        n_loads = 0
        n_stores = 0
        n_branches = 0
        n_mispredicts = 0
        load_latency_total = 0
        warmup_end_cycle = 0
        index = 0
        ruu_append = ruu.append
        ruu_popleft = ruu.popleft
        lsq_append = lsq.append
        lsq_popleft = lsq.popleft

        if resume is not None:
            (fetch_cycle, fetch_slots, squash_until, last_fetch_block,
             ruu_init, lsq_init, ruu_len, lsq_len, commit_cycle, commit_slots,
             ring_init, ring_pos, n_loads, n_stores, n_branches,
             n_mispredicts, load_latency_total, warmup_end_cycle,
             index) = resume
            ruu.extend(ruu_init)
            lsq.extend(lsq_init)
            ring[:] = ring_init
            trace = trace[index:]
            if sample_every:
                next_sample = ((index // sample_every) + 1) * sample_every
            if ckpt_every:
                next_ckpt = ((index // ckpt_every) + 1) * ckpt_every

        for record in trace:
            if index == measure_from:
                warmup_end_cycle = commit_cycle
            index += 1
            op, pc, addr, dep, extra = record

            # Fetch: width-limited, squash-gated, instruction-cache-gated.
            if squash_until > fetch_cycle:
                fetch_cycle = squash_until
                fetch_slots = 0
            fetch_block = pc >> icache_line_bits
            if fetch_block != last_fetch_block:
                last_fetch_block = fetch_block
                line_ready = h_fetch(pc, fetch_cycle)
                if line_ready > fetch_cycle + 1:
                    fetch_cycle = line_ready - 1
                    fetch_slots = 0
            if fetch_slots >= fetch_width:
                fetch_cycle += 1
                fetch_slots = 0
            fetch_slots += 1

            # Dispatch: decode bubble + RUU (and LSQ) availability.  Queue
            # occupancy is tracked in local ints (every record pushes exactly
            # one RUU entry, memory ops exactly one LSQ entry), saving two
            # len() calls per record.
            dispatch = fetch_cycle + 1
            if ruu_len >= ruu_size:
                oldest = ruu_popleft()
                if oldest > dispatch:
                    dispatch = oldest
            else:
                ruu_len += 1
            is_mem = op == load_op or op == store_op
            if is_mem:
                if lsq_len >= lsq_size:
                    oldest = lsq_popleft()
                    if oldest > dispatch:
                        dispatch = oldest
                else:
                    lsq_len += 1

            # Operand readiness through the completion ring.
            ready = dispatch
            if dep and dep < _RING:
                producer = ring[(ring_pos - dep) & _RING_MASK]
                if producer > ready:
                    ready = producer

            # Issue: functional unit from the right pool.
            # MultiPortResource.acquire inlined (the call was the hottest
            # line in the profile): one ledger probe on the untouched-cycle
            # common case.  _prune keeps the ledger dict's identity stable.
            res = fu_of[op]
            ledger = res._ledger
            start = ready
            count = ledger.get(start)
            if count is None:
                ledger[start] = 1
            else:
                n = res.n_ports
                while count is not None and count >= n:
                    start += 1
                    count = ledger.get(start)
                ledger[start] = 1 if count is None else count + 1
            res.grants += 1
            if len(ledger) > 8192:  # MultiPortResource._PRUNE_EVERY
                res._prune(start)

            # Complete.
            if op == load_op:
                complete = h_load(pc, addr, start)
                load_latency_total += complete - start
                n_loads += 1
            else:
                complete = start + latency[op]
                if op == store_op:
                    n_stores += 1
                elif op == branch_op:
                    n_branches += 1
                    if extra:
                        n_mispredicts += 1
                        resolve = complete
                        if squash_until < resolve + penalty:
                            squash_until = resolve + penalty

            # Commit: in order, width-limited.
            commit = complete + 1
            if commit > commit_cycle:
                commit_cycle = commit
                commit_slots = 1
            else:
                commit_slots += 1
                if commit_slots > commit_width:
                    commit_cycle += 1
                    commit_slots = 1
                commit = commit_cycle

            if op == store_op:
                # The write buffer performs the store after commit.
                h_store(pc, addr, extra, commit)

            ruu_append(commit)
            if is_mem:
                lsq_append(commit)
            ring[ring_pos] = complete
            ring_pos = (ring_pos + 1) & _RING_MASK
            if index >= next_sample:
                sampler.sample(index, commit_cycle)
                next_sample += sample_every
            if index >= next_ckpt:
                # simlint: allow[SIM702] guarded by next_ckpt: allocates once per checkpoint interval, never per record
                ckpt_cut((fetch_cycle, fetch_slots, squash_until,
                          last_fetch_block, list(ruu), list(lsq), ruu_len,
                          lsq_len, commit_cycle, commit_slots, list(ring),
                          ring_pos, n_loads, n_stores, n_branches,
                          n_mispredicts, load_latency_total,
                          warmup_end_cycle, index))
                next_ckpt += ckpt_every

        return (index, commit_cycle, warmup_end_cycle, n_loads, n_stores,
                n_branches, n_mispredicts, load_latency_total)

    def _checkpoint_cut(self, checkpoint, speculator):
        """Bind a one-call cut closure for the pipeline loops.

        The loop hands over its entire local state as one tuple (record
        index last).  The cut passes it on with the live machine — this
        core and everything it reaches — and the speculator's guard
        counters, all pickled in one go by ``checkpoint.cut``.  The
        speculator itself holds generated code, so it stays out (see
        :meth:`__getstate__`); a resumed run compiles a fresh one.
        """
        counts = speculator.counts if speculator is not None else None

        def cut(loop_state):
            checkpoint.cut(loop_state[-1], {
                "core": self, "spec_counts": counts, "loop": loop_state,
            })

        return cut

    def __getstate__(self):
        state = self.__dict__.copy()
        state["speculation"] = None  # generated code; rebuilt on resume
        return state

    def _dispatch_tables(self):
        """Dense per-op latency and FU-pool tables (list index beats dict)."""
        n_ops = max(int(op) for op in Op) + 1
        latency = [0] * n_ops
        for op, lat in FU_LATENCY.items():
            latency[int(op)] = lat
        fu_of = [None] * n_ops
        for op, pool in FU_POOL.items():
            fu_of[int(op)] = self.fu[pool]
        return latency, fu_of

    def _compile_fast_loop(self, speculator: TraceSpeculator, sampler,
                           checkpoint=None, resume=None):
        """Compile the generated pipeline walk and bind it to this core.

        The source (:meth:`_emit_fast_loop`) depends only on the core's
        configuration, the L1I line size and whether a sampler or a
        checkpointer is armed, so every machine with one core
        configuration runs one code object: :func:`codecache.load_or_compile`
        compiles each distinct source once per process.
        """
        ckpt_every = checkpoint.every if checkpoint is not None else 0
        ckpt_cut = (self._checkpoint_cut(checkpoint, speculator)
                    if ckpt_every else None)
        source, bind = self._emit_fast_loop(
            speculator.counts, sampler,
            ckpt_cut=ckpt_cut, ckpt_every=ckpt_every, resume=resume)
        code = codecache.load_or_compile(source, "<repro.cpu.ooo.fastloop>")
        namespace = {f"g_{name}": obj for name, obj in bind.items()}
        exec(code, namespace)  # noqa: S102 - closed namespace, own source
        return namespace["run_loop"]

    def _emit_fast_loop(self, counts, sampler,
                        ckpt_cut=None, ckpt_every=0, resume=None):
        """Generate the pipeline walk as one straight-line function.

        Returns ``(source, bind)``: the full ``def run_loop(...)`` source
        and the namespace objects it expects (bound under ``g_`` names and
        re-localized in the preamble).  The source is :meth:`_slow_loop`
        translated statement for statement, with three substitutions:

        * core configuration constants (widths, queue sizes, the L1I line
          bits, the mispredict penalty, the ring mask) are baked as
          literals;
        * the three hierarchy calls are preceded by the fixed inline hit
          blocks (:func:`repro.cpu.fastpath.emit_hit_inline`), the same
          sequences the replay closures compile, embedded at the call
          site so a committed replay costs no call frames at all, with
          the slow hierarchy call as each block's ``None`` fallback;
        * when no sampler is attached the sampling check is omitted rather
          than guarded.

        Checkpointing follows the same discipline as sampling: the cut
        check, the resume preamble and their bindings are emitted only when
        a checkpointer is armed, so the disabled path's source is
        byte-identical to today's — same codecache entry, zero cost.
        ``resume`` is the saved loop-state tuple; its record index is known
        at emit time, so the resumed thresholds are baked as literals.

        Everything the hit blocks read from the machine — tag stores,
        cache geometry, resources, stats, hook, image writer, prefetch
        queues (:func:`repro.cpu.fastpath.hit_bindings`) — and every other
        object the loop calls is bound through the exec namespace,
        localized once in the preamble.
        """
        hierarchy = self.hierarchy
        cfg = self.config
        latency, fu_of = self._dispatch_tables()

        bind = {
            "latency": latency,
            "fu_of": fu_of,
            "h_load": hierarchy.load,
            "h_store": hierarchy.store,
            "h_fetch": hierarchy.fetch_instruction,
            "deque": deque,
        }
        for kind, prefix in (("ifetch", "if_"), ("load", "ld_"),
                             ("store", "st_")):
            bind.update(hit_bindings(hierarchy, kind, prefix))
        bind["counts_"] = counts
        load_op = int(Op.LOAD)
        store_op = int(Op.STORE)
        branch_op = int(Op.BRANCH)

        ifetch_block = emit_hit_inline(
            "ifetch", prefix="if_", result="line_ready",
            pc="pc", addr="pc", time="fetch_cycle", indent=" " * 12)
        load_block = emit_hit_inline(
            "load", prefix="ld_", result="complete",
            pc="pc", addr="addr", time="start", indent=" " * 12)
        store_block = emit_hit_inline(
            "store", prefix="st_", result="store_done",
            pc="pc", addr="addr", time="commit", value="extra",
            indent=" " * 12)
        # A sampler with a falsy interval never fires (the interpreted loop
        # maps it to the _NO_SAMPLE sentinel); omit the check entirely.
        sampling = sampler is not None and sampler.interval
        if sampling:
            bind["sampler_sample"] = sampler.sample
        checkpointing = bool(ckpt_every)
        if checkpointing:
            bind["ckpt_cut"] = ckpt_cut
        if resume is not None:
            bind["resume_state"] = resume

        lines = ["def run_loop(trace, measure_from):"]
        # Preamble: rebind every namespace object to a local once.
        lines += [f"    {name} = g_{name}" for name in bind]
        if resume is None:
            lines += [
                "    ruu = deque()",
                "    lsq = deque()",
                "    ruu_append = ruu.append",
                "    ruu_popleft = ruu.popleft",
                "    lsq_append = lsq.append",
                "    lsq_popleft = lsq.popleft",
                f"    ring = [0] * {_RING}",
                "    ring_pos = 0",
                "    fetch_cycle = 0",
                "    fetch_slots = 0",
                "    squash_until = 0",
                "    last_fetch_block = -1",
                "    commit_cycle = 0",
                "    commit_slots = 0",
                "    ruu_len = 0",
                "    lsq_len = 0",
                "    n_loads = 0",
                "    n_stores = 0",
                "    n_branches = 0",
                "    n_mispredicts = 0",
                "    load_latency_total = 0",
                "    warmup_end_cycle = 0",
                "    index = 0",
            ]
            if sampling:
                lines.append(f"    next_sample = {sampler.interval}")
            if checkpointing:
                lines.append(f"    next_ckpt = {ckpt_every}")
        else:
            index0 = resume[-1]
            lines += [
                "    (fetch_cycle, fetch_slots, squash_until,",
                "     last_fetch_block, ruu_init, lsq_init, ruu_len,",
                "     lsq_len, commit_cycle, commit_slots, ring_init,",
                "     ring_pos, n_loads, n_stores, n_branches,",
                "     n_mispredicts, load_latency_total, warmup_end_cycle,",
                "     index) = resume_state",
                "    ruu = deque(ruu_init)",
                "    lsq = deque(lsq_init)",
                "    ring = list(ring_init)",
                "    ruu_append = ruu.append",
                "    ruu_popleft = ruu.popleft",
                "    lsq_append = lsq.append",
                "    lsq_popleft = lsq.popleft",
                "    trace = trace[index:]",
            ]
            if sampling:
                interval = sampler.interval
                lines.append(
                    f"    next_sample = {((index0 // interval) + 1) * interval}")
            if checkpointing:
                lines.append(
                    f"    next_ckpt = {((index0 // ckpt_every) + 1) * ckpt_every}")
        lines += [
            "    for record in trace:",
            "        if index == measure_from:",
            "            warmup_end_cycle = commit_cycle",
            "        index += 1",
            "        op, pc, addr, dep, extra = record",
            "        if squash_until > fetch_cycle:",
            "            fetch_cycle = squash_until",
            "            fetch_slots = 0",
            f"        fetch_block = pc >> {hierarchy.l1i.line_bits}",
            "        if fetch_block != last_fetch_block:",
            "            last_fetch_block = fetch_block",
            *ifetch_block,
            "            if line_ready is None:",
            "                line_ready = h_fetch(pc, fetch_cycle)",
            "            if line_ready > fetch_cycle + 1:",
            "                fetch_cycle = line_ready - 1",
            "                fetch_slots = 0",
            f"        if fetch_slots >= {cfg.fetch_width}:",
            "            fetch_cycle += 1",
            "            fetch_slots = 0",
            "        fetch_slots += 1",
            "        dispatch = fetch_cycle + 1",
            f"        if ruu_len >= {cfg.ruu_size}:",
            "            oldest = ruu_popleft()",
            "            if oldest > dispatch:",
            "                dispatch = oldest",
            "        else:",
            "            ruu_len += 1",
            f"        is_mem = op == {load_op} or op == {store_op}",
            "        if is_mem:",
            f"            if lsq_len >= {cfg.lsq_size}:",
            "                oldest = lsq_popleft()",
            "                if oldest > dispatch:",
            "                    dispatch = oldest",
            "            else:",
            "                lsq_len += 1",
            "        ready = dispatch",
            f"        if dep and dep < {_RING}:",
            f"            producer = ring[(ring_pos - dep) & {_RING_MASK}]",
            "            if producer > ready:",
            "                ready = producer",
            # MultiPortResource.acquire inlined, as in the interpreted loop.
            "        res = fu_of[op]",
            "        ledger = res._ledger",
            "        start = ready",
            "        count = ledger.get(start)",
            "        if count is None:",
            "            ledger[start] = 1",
            "        else:",
            "            n = res.n_ports",
            "            while count is not None and count >= n:",
            "                start += 1",
            "                count = ledger.get(start)",
            "            ledger[start] = 1 if count is None else count + 1",
            "        res.grants += 1",
            "        if len(ledger) > 8192:",
            "            res._prune(start)",
            f"        if op == {load_op}:",
            *load_block,
            "            if complete is None:",
            "                complete = h_load(pc, addr, start)",
            "            load_latency_total += complete - start",
            "            n_loads += 1",
            "        else:",
            "            complete = start + latency[op]",
            f"            if op == {store_op}:",
            "                n_stores += 1",
            f"            elif op == {branch_op}:",
            "                n_branches += 1",
            "                if extra:",
            "                    n_mispredicts += 1",
            "                    resolve = complete",
            f"                    if squash_until < resolve + {cfg.mispredict_penalty}:",
            f"                        squash_until = resolve + {cfg.mispredict_penalty}",
            "        commit = complete + 1",
            "        if commit > commit_cycle:",
            "            commit_cycle = commit",
            "            commit_slots = 1",
            "        else:",
            "            commit_slots += 1",
            f"            if commit_slots > {cfg.commit_width}:",
            "                commit_cycle += 1",
            "                commit_slots = 1",
            "            commit = commit_cycle",
            f"        if op == {store_op}:",
            *store_block,
            "            if store_done is None:",
            "                h_store(pc, addr, extra, commit)",
            "        ruu_append(commit)",
            "        if is_mem:",
            "            lsq_append(commit)",
            "        ring[ring_pos] = complete",
            f"        ring_pos = (ring_pos + 1) & {_RING_MASK}",
        ]
        if sampling:
            lines += [
                "        if index >= next_sample:",
                "            sampler_sample(index, commit_cycle)",
                f"            next_sample += {sampler.interval}",
            ]
        if checkpointing:
            lines += [
                "        if index >= next_ckpt:",
                "            ckpt_cut((fetch_cycle, fetch_slots,",
                "                      squash_until, last_fetch_block,",
                "                      list(ruu), list(lsq), ruu_len,",
                "                      lsq_len, commit_cycle, commit_slots,",
                "                      list(ring), ring_pos, n_loads,",
                "                      n_stores, n_branches, n_mispredicts,",
                "                      load_latency_total,",
                "                      warmup_end_cycle, index))",
                f"            next_ckpt += {ckpt_every}",
            ]
        lines += [
            "    return (index, commit_cycle, warmup_end_cycle, n_loads,",
            "            n_stores, n_branches, n_mispredicts,",
            "            load_latency_total)",
        ]
        return "\n".join(lines), bind

    def reset(self) -> None:
        for pool in self.fu.values():
            pool.reset()
