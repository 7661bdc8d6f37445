"""Outside-in per-layer timing for the traced benchmark run.

The program is measured without being edited: :meth:`Profiler.install`
replaces the public functions at each layer boundary with timing
wrappers, on their classes and modules, *before* any machine is built.
Hot loops bind some of these at machine build time (the generated fast
loop keeps ``hierarchy.load`` in a local and the mechanism's
``on_access`` in its namespace), so patching the class first is what
makes those pre-bound references land on the wrapper too.  Module-level
functions are replaced in every ``repro`` module that imported them by
name (``RunSpec`` holds its own ``build_workload`` and ``run_trace``).

Each wrapped function accumulates a call count, inclusive time and self
time (inclusive minus the time spent in wrapped callees).  The coarse
boundaries also become Chrome ``trace_event`` spans tagged with the id of
the cell or CLI invocation they belong to.

Timed runs never install a wrapper; only ``--trace`` runs do.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

SIM = ("sim-hit", "sim-miss", "sim-mech")
ALL = SIM + ("sweep", "serve")

#: Mechanism plug-in hooks (the contract in ``repro.mechanisms.base``).
HOOKS = ("probe", "on_access", "on_miss", "on_refill", "on_evict",
         "on_prefetch_fill")


class Layer(NamedTuple):
    """One per-layer metric and the workloads that load its layer, where
    it must read nonzero (bench/README.md has what each should move)."""

    name: str
    unit: str
    on: Tuple[str, ...]


PER_LAYER: Tuple[Layer, ...] = (
    Layer("workloads.build_calls", "count", ALL),
    Layer("workloads.build_s", "s", ALL),
    Layer("core.run_trace_calls", "count", SIM),
    Layer("core.run_trace_self_s", "s", SIM),
    Layer("cpu.run_self_s", "s", SIM),
    Layer("cpu.compile_calls", "count", SIM),
    Layer("cpu.compile_s", "s", SIM),
    Layer("cpu.fast_commits", "count", SIM),
    Layer("cpu.fast_abort_miss", "count", SIM),
    Layer("cpu.fast_abort_prefetch", "count", ("sim-mech",)),
    Layer("cpu.fast_event_drains", "count", ("sim-mech",)),
    Layer("cpu.fast_commit_ratio", "ratio", SIM),
    Layer("cache.slowpath_calls", "count", SIM),
    Layer("cache.slowpath_self_s", "s", SIM),
    Layer("cache.access_calls", "count", SIM),
    Layer("cache.access_self_s", "s", SIM),
    Layer("dram.access_calls", "count", SIM),
    Layer("dram.access_s", "s", SIM),
    Layer("kernel.run_until_calls", "count", ("sim-mech",)),
    Layer("kernel.run_until_self_s", "s", ("sim-mech",)),
    Layer("kernel.schedule_calls", "count", ("sim-mech",)),
    Layer("mechanisms.hook_calls", "count", ("sim-mech",)),
    Layer("mechanisms.hook_self_s", "s", ("sim-mech",)),
    Layer("exec.run_calls", "count", ("sweep", "serve")),
    Layer("exec.run_self_s", "s", ("sweep", "serve")),
    Layer("exec.simulate_calls", "count", ("sweep",)),
    Layer("exec.simulate_s", "s", ("sweep",)),
    Layer("exec.store_put_calls", "count", ("sweep",)),
    Layer("exec.store_put_s", "s", ("sweep",)),
    Layer("exec.journal_appends", "count", ("sweep",)),
    Layer("exec.journal_append_s", "s", ("sweep",)),
    Layer("exec.store_get_calls", "count", ("sweep", "serve")),
    Layer("exec.store_get_s", "s", ("sweep", "serve")),
    Layer("exec.store_hit_ratio", "ratio", ("sweep",)),
    Layer("harness.exhibit_self_s", "s", ("sweep", "serve")),
    Layer("serve.submit_calls", "count", ("serve",)),
    Layer("serve.submit_s", "s", ("serve",)),
    Layer("serve.leased", "count", ("serve",)),
    Layer("obs.trace_overhead_ratio", "ratio", ALL),
)


class Profiler:
    """Call counts, inclusive/self times and coarse spans, kept in memory."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Counts read from the program's own state or output.
        self.counts: Dict[str, int] = defaultdict(int)
        self.events: List[Dict[str, Any]] = []
        self.active = False
        self._stack: List[float] = []
        self._ids: List[str] = []
        self._undo: List[Callable[[], None]] = []
        self._t0 = time.perf_counter()
        self._pid = os.getpid()

    # -- spans ----------------------------------------------------------------

    def add_span(self, name: str, start: float, end: float,
                 span_id: Optional[str]) -> None:
        event: Dict[str, Any] = {
            "name": name, "cat": "bench", "ph": "X",
            "ts": (start - self._t0) * 1e6, "dur": (end - start) * 1e6,
            "pid": self._pid, "tid": 0,
        }
        if span_id is not None:
            event["args"] = {"id": span_id}
        self.events.append(event)

    @contextmanager
    def span(self, name: str, span_id: Optional[str] = None) -> Iterator[None]:
        """A coarse span; ``span_id`` also tags the spans nested inside it."""
        if not self.active:
            yield
            return
        if span_id is not None:
            self._ids.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            current = self._ids[-1] if self._ids else None
            if span_id is not None:
                self._ids.pop()
            self.add_span(name, start, time.perf_counter(), current)

    def chrome_trace(self) -> Dict[str, Any]:
        meta = {"name": "process_name", "ph": "M", "pid": self._pid,
                "tid": 0, "args": {"name": "bench"}}
        return {"traceEvents": [meta] + self.events,
                "displayTimeUnit": "ms"}

    # -- wrappers -------------------------------------------------------------

    def wrap(self, key: str, fn: Callable[..., Any], span: Optional[str] = None,
             after: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
             ) -> Callable[..., Any]:
        stack = self._stack
        calls, incl, self_s = self.calls, self.incl, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[key] += 1
                incl[key] += elapsed
                self_s[key] += elapsed - inner
                if span is not None:
                    self.add_span(span, start, end,
                                  self._ids[-1] if self._ids else None)
            if after is not None:
                after(args, result)
            return result

        # registry.clear_cache() calls build.cache_clear() through the
        # module global, which is the wrapper while it is installed.
        if hasattr(fn, "cache_clear"):
            setattr(timed, "cache_clear", fn.cache_clear)
        return timed

    def patch_method(self, cls: type, name: str, key: str,
                     **kwargs: Any) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self.wrap(key, original, **kwargs))
        self._undo.append(lambda: setattr(cls, name, original))

    def patch_function(self, module: Any, name: str, key: str,
                       **kwargs: Any) -> None:
        """Replace ``module.name`` everywhere a ``repro`` module holds it."""
        original = getattr(module, name)
        wrapper = self.wrap(key, original, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(
                        lambda m=mod, a=attr: setattr(m, a, original))
        from repro import __main__ as cli

        for exhibit, fn in list(cli.EXHIBITS.items()):
            if fn is original:
                cli.EXHIBITS[exhibit] = wrapper
                self._undo.append(
                    lambda e=exhibit: cli.EXHIBITS.__setitem__(e, original))

    def install(self) -> None:
        """Wrap every layer boundary; undone by :meth:`uninstall`."""
        from repro.cache.cache import Cache
        from repro.cache.hierarchy import MemoryHierarchy
        from repro.core import simulation
        from repro.cpu import codecache
        from repro.cpu.ooo import OoOCore
        from repro.dram.constant import ConstantLatencyMemory
        from repro.dram.controller import SDRAMController
        from repro.exec.executor import Executor
        from repro.exec.journal import SweepJournal
        from repro.exec.runspec import RunSpec
        from repro.exec.store import ResultStore
        from repro.harness import experiments
        from repro.kernel.engine import Simulator
        from repro.serve.client import SweepClient
        from repro.workloads import registry
        from repro.workloads.base import SyntheticWorkload

        counts = self.counts

        def after_core_run(args: Tuple[Any, ...], _result: Any) -> None:
            speculator = args[0].speculation
            if speculator is not None:
                reasons = speculator.abort_reasons()
                counts["fast_commits"] += speculator.commits
                counts["fast_event_drains"] += speculator.event_drains
                counts["fast_abort_miss"] += reasons["miss"]
                counts["fast_abort_prefetch"] += reasons["queued_prefetch"]

        def after_store_get(_args: Tuple[Any, ...], result: Any) -> None:
            if result is not None:
                counts["store_hits"] += 1

        self.patch_method(SyntheticWorkload, "build", "workloads")
        self.patch_function(registry, "build", "workloads")
        self.patch_function(simulation, "run_trace", "core.run_trace")
        self.patch_method(OoOCore, "run", "cpu.run", after=after_core_run)
        self.patch_function(codecache, "load_or_compile", "cpu.compile")
        for name in ("load", "store", "fetch_instruction"):
            self.patch_method(MemoryHierarchy, name, "cache.slowpath")
        self.patch_method(Cache, "access", "cache.access")
        self.patch_method(SDRAMController, "access", "dram.access")
        self.patch_method(ConstantLatencyMemory, "access", "dram.access")
        self.patch_method(Simulator, "run_until", "kernel.run_until")
        self.patch_method(Simulator, "schedule", "kernel.schedule")
        for cls in _mechanism_classes():
            for hook in HOOKS:
                if hook in cls.__dict__:
                    self.patch_method(cls, hook, "mechanisms.hook")
        self.patch_method(Executor, "run", "exec.run", span="Executor.run")
        self.patch_method(RunSpec, "execute", "exec.simulate",
                          span="RunSpec.execute")
        self.patch_method(ResultStore, "get", "exec.store_get",
                          span="ResultStore.get", after=after_store_get)
        self.patch_method(ResultStore, "put", "exec.store_put",
                          span="ResultStore.put")
        self.patch_method(SweepJournal, "append", "exec.journal_append")
        self.patch_function(experiments, "fig10_second_guessing",
                            "harness.exhibit")
        self.patch_method(SweepClient, "submit", "serve.submit",
                          span="SweepClient.submit")
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- metrics ----------------------------------------------------------------

    def metrics(self, passes: int, overhead_ratio: float) -> Dict[str, float]:
        """Every :data:`PER_LAYER` value, counts and times per traced pass."""
        c, i, s, k = self.calls, self.incl, self.self_s, self.counts
        spec_attempts = (k["fast_commits"] + k["fast_abort_miss"]
                         + k["fast_abort_prefetch"])
        totals = {
            "workloads.build_calls": c["workloads"],
            "workloads.build_s": s["workloads"],
            "core.run_trace_calls": c["core.run_trace"],
            "core.run_trace_self_s": s["core.run_trace"],
            "cpu.run_self_s": s["cpu.run"],
            "cpu.compile_calls": c["cpu.compile"],
            "cpu.compile_s": i["cpu.compile"],
            "cpu.fast_commits": k["fast_commits"],
            "cpu.fast_abort_miss": k["fast_abort_miss"],
            "cpu.fast_abort_prefetch": k["fast_abort_prefetch"],
            "cpu.fast_event_drains": k["fast_event_drains"],
            "cache.slowpath_calls": c["cache.slowpath"],
            "cache.slowpath_self_s": s["cache.slowpath"],
            "cache.access_calls": c["cache.access"],
            "cache.access_self_s": s["cache.access"],
            "dram.access_calls": c["dram.access"],
            "dram.access_s": i["dram.access"],
            "kernel.run_until_calls": c["kernel.run_until"],
            "kernel.run_until_self_s": s["kernel.run_until"],
            "kernel.schedule_calls": c["kernel.schedule"],
            "mechanisms.hook_calls": c["mechanisms.hook"],
            "mechanisms.hook_self_s": s["mechanisms.hook"],
            "exec.run_calls": c["exec.run"],
            "exec.run_self_s": s["exec.run"],
            "exec.simulate_calls": c["exec.simulate"],
            "exec.simulate_s": i["exec.simulate"],
            "exec.store_put_calls": c["exec.store_put"],
            "exec.store_put_s": i["exec.store_put"],
            "exec.journal_appends": c["exec.journal_append"],
            "exec.journal_append_s": i["exec.journal_append"],
            "exec.store_get_calls": c["exec.store_get"],
            "exec.store_get_s": i["exec.store_get"],
            "harness.exhibit_self_s": s["harness.exhibit"],
            "serve.submit_calls": c["serve.submit"],
            "serve.submit_s": i["serve.submit"],
            "serve.leased": k["serve.leased"],
        }
        values = {name: value / passes for name, value in totals.items()}
        values["cpu.fast_commit_ratio"] = (
            k["fast_commits"] / spec_attempts if spec_attempts else 0.0)
        values["exec.store_hit_ratio"] = (
            k["store_hits"] / c["exec.store_get"] if c["exec.store_get"]
            else 0.0)
        values["obs.trace_overhead_ratio"] = overhead_ratio
        return {layer.name: values[layer.name] for layer in PER_LAYER}


def _mechanism_classes() -> List[type]:
    """Every registered mechanism class, its parts and their bases."""
    from repro.mechanisms.base import Mechanism
    from repro.mechanisms.registry import (
        ALL_MECHANISMS,
        BASELINE,
        EXTENSIONS,
        create,
    )

    classes = {Mechanism}
    for name in ALL_MECHANISMS + EXTENSIONS:
        if name == BASELINE:
            continue
        for component in create(name).walk():
            classes.update(cls for cls in type(component).__mro__
                           if issubclass(cls, Mechanism))
    return sorted(classes, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
