"""Guard structure of the emitted fast path, machine by machine.

Every machine runs the same fixed hit blocks (:mod:`repro.cpu.fastpath`),
so what can go wrong per machine is the binding: a guard reading a copy of
a tag store or prefetch queue instead of the live one, a queue left out of
the guarded slots, a name the block reads left unbound.  For each machine
(the bare baseline, every registered mechanism, and SimpleScalar-style
imprecise variants) and each artifact (the load, store and ifetch hit
blocks and the generated run loop) these tests check that

* the source carries the three guards (event drain, queued prefetch,
  residency) in that order, each a marked ``if`` that aborts (the event
  drain: that drains), with nothing but locals and the speculation
  counters written ahead of the last one;
* every name the source reads is bound, and the guards read the machine's
  live event heap, prefetch queues and L1 tag store;
* cutting any one guard is noticed: by the structure check, and for the
  hit blocks by replaying the mutant on a state built to trip the guard,
  where it must act differently from the intact block.

The fast==slow fingerprints in ``tests/test_fastpath.py`` show the fast
path agrees with the slow one on the traces they run; these tests show,
machine by machine, the guard structure that makes the agreement
necessary.
"""

import ast
import builtins
import re

import pytest

from repro.core.config import baseline_config
from repro.core.simulation import build_machine
from repro.cpu.fastpath import (
    ABORT_MISS,
    ABORT_QUEUED_PREFETCH,
    EVENT_DRAINS,
    QUEUE_SLOTS,
    _replay_source,
    hit_bindings,
)
from repro.mechanisms.base import PrefetchRequest
from repro.mechanisms.registry import ALL_MECHANISMS, EXTENSIONS, create
from repro.workloads.image import MemoryImage

_IMPRECISE = baseline_config().with_simplescalar_cache()

#: The machines by label: ``(config, mechanism name)``.
MACHINES = {
    "baseline": (None, None),
    **{name: (None, name) for name in ALL_MECHANISMS + EXTENSIONS},
    "baseline-imprecise": (_IMPRECISE, None),
    "TK-imprecise": (_IMPRECISE, "TK"),
}
KINDS = ("load", "store", "ifetch", "loop")
LABELS = [f"{machine}/{kind}" for machine in MACHINES for kind in KINDS]

#: The loop's inline hit blocks: their binding prefix and L1 by kind.
_LOOP_BLOCKS = (("if_", "ifetch"), ("ld_", "load"), ("st_", "store"))

_ORDER = ("event-drain", "queued-prefetch", "resident")
_MARKER = re.compile(r"^( *)# guard\[(?P<name>[\w-]+)\]$")


def _machine(machine):
    config, mechanism = MACHINES[machine]
    return build_machine(config, create(mechanism) if mechanism else None,
                         MemoryImage())


def _artifact(machine, kind):
    """``(hierarchy, source, namespace, blocks)`` of ``kind`` on a fresh
    ``machine``: the emitted source, the names it is bound to and its
    number of hit blocks."""
    core, hierarchy = _machine(machine)
    if kind == "loop":
        source, bind = core._emit_fast_loop([0, 0, 0, 0], None)
        return (hierarchy, source,
                {f"g_{name}": obj for name, obj in bind.items()}, 3)
    namespace = hit_bindings(hierarchy, kind)
    namespace["counts_"] = [0, 0, 0, 0]
    return hierarchy, _replay_source(kind), namespace, 1


# -- the checks ----------------------------------------------------------------

def _guard_problems(source, blocks):
    """What is wrong with the guards of ``source``, which should hold
    ``blocks`` hit blocks; empty when every block is whole."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [f"does not parse: {exc}"]
    marks = []
    for number, text in enumerate(source.split("\n"), 1):
        mark = _MARKER.match(text)
        if mark is not None:
            marks.append((number, mark["name"]))
    names = [name for _, name in marks]
    if names != list(_ORDER) * blocks:
        return [f"guards {names}, expected {blocks} x {list(_ORDER)}"]
    statements = {node.lineno: node for node in ast.walk(tree)
                  if isinstance(node, ast.stmt)}
    problems = []
    for first in range(0, len(marks), len(_ORDER)):
        for number, name in marks[first:first + len(_ORDER)]:
            guard = statements.get(number + 1)
            if not isinstance(guard, ast.If):
                problems.append(f"line {number}: {name} marks no guard")
                continue
            body = [node for stmt in guard.body for node in ast.walk(stmt)]
            if name == "event-drain":
                acts = any(isinstance(node, ast.Call)
                           and isinstance(node.func, ast.Name)
                           and node.func.id == "run_until" for node in body)
            else:
                acts = any(isinstance(node, (ast.Return, ast.Break))
                           for node in body)
            if not acts:
                problems.append(f"line {number}: the {name} guard never "
                                f"{'drains' if name == 'event-drain' else 'aborts'}")
        if problems:
            continue
        # Ahead of the last guard only locals and counters may change.
        start = marks[first][0]
        end = statements[marks[first + len(_ORDER) - 1][0] + 1].end_lineno
        for node in ast.walk(tree):
            if not start <= getattr(node, "lineno", 0) <= end:
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign)
                       else [])
            for target in targets:
                if isinstance(target, ast.Name) or (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "counts_"):
                    continue
                problems.append(f"line {node.lineno}: writes "
                                f"{ast.unparse(target)} before the last guard")
    return problems


def _unbound_names(source, namespace):
    """Names ``source`` reads that neither it nor ``namespace`` binds."""
    tree = ast.parse(source)
    bound = set(namespace) | set(dir(builtins))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.FunctionDef):
            bound.add(node.name)
    return sorted(read - bound)


def _stale_bindings(hierarchy, kind, namespace):
    """Guard inputs in ``namespace`` that are not ``hierarchy``'s live
    state: the event heap, the prefetch queues and the L1 tag store."""
    g = "g_" if kind == "loop" else ""
    blocks = _LOOP_BLOCKS if kind == "loop" else (("", kind),)
    queues = hierarchy._mech_queues
    live = {
        "event_times": hierarchy.sim._times,
        "run_until": hierarchy.sim,
        **{f"queue{slot}": queues[slot] if slot < len(queues) else ()
           for slot in range(QUEUE_SLOTS)},
    }
    for prefix, block_kind in blocks:
        cache = hierarchy.l1i if block_kind == "ifetch" else hierarchy.l1d
        live[f"{prefix}tags"] = cache._tags
        live[f"{prefix}tags_index"] = cache._tags
    stale = []
    for name, state in live.items():
        bound = namespace[g + name]
        if name.endswith(("run_until", "tags_index")):
            bound = bound.__self__
        if bound is not state:
            stale.append(name)
    return stale


def _without_guard(source, name, keep_marker=False):
    """``source`` with every ``name`` guard's ``if`` and body cut out (and
    its marker, unless ``keep_marker``)."""
    lines = source.split("\n")
    kept, i = [], 0
    while i < len(lines):
        mark = _MARKER.match(lines[i])
        if mark is None or mark["name"] != name:
            kept.append(lines[i])
            i += 1
            continue
        if keep_marker:
            kept.append(lines[i])
        body = mark.group(1) + " "
        i += 2
        while i < len(lines) and lines[i].startswith(body):
            i += 1
    return "\n".join(kept)


# -- tripping a guard ----------------------------------------------------------

_PC, _ADDR = 0x100, 0x4000
#: A cycle by which the test line's miss, and all it set off, is done.
_SETTLED = 100_000


def _trip(machine, kind, guard, source, slot=0):
    """Replay ``source`` once on a fresh ``machine`` in a state that trips
    ``guard`` (for the queue guard: a request in queue ``slot``); return
    ``(aborted, counters, events fired)``."""
    _, hierarchy = _machine(machine)
    fired = []
    if guard != "resident":
        # The line is resident and nothing else is pending, so the
        # tripped guard alone stands between the replay and a commit.
        if kind == "load":
            hierarchy.load(_PC, _ADDR, 10)
        elif kind == "store":
            hierarchy.store(_PC, _ADDR, 7, 10)
        else:
            hierarchy.fetch_instruction(_ADDR, 10)
        hierarchy.advance(_SETTLED)
    if guard == "queued-prefetch":
        hierarchy._mech_queues[slot].append(PrefetchRequest(0x8000, _SETTLED))
    elif guard == "event-drain":
        hierarchy.sim.schedule(_SETTLED, fired.append, "due")
    namespace = hit_bindings(hierarchy, kind)
    counts = namespace["counts_"] = [0, 0, 0, 0]
    exec(compile(source, "<mutant>", "exec"), namespace)  # noqa: S102
    ready = namespace["replay"](_PC, _ADDR, _SETTLED, 7)
    return ready is None, counts, fired


#: What the intact block does in each guard's tripping state.
_TRIPPED = {
    "event-drain": lambda aborted, counts, fired: (
        not aborted and counts[EVENT_DRAINS] == 1 and fired == ["due"]),
    "queued-prefetch": lambda aborted, counts, fired: (
        aborted and counts[ABORT_QUEUED_PREFETCH] == 1),
    "resident": lambda aborted, counts, fired: (
        aborted and counts[ABORT_MISS] == 1),
}


def _slots(machine, guard):
    """The queue slots to trip ``guard`` through on ``machine``; none
    for the queue guard on a machine without prefetch queues."""
    if guard != "queued-prefetch":
        return [0]
    return list(range(len(_machine(machine)[1]._mech_queues)))


# -- every machine, every artifact ---------------------------------------------

@pytest.mark.parametrize("label", LABELS)
def test_emitted_source_verifies_clean(label):
    machine, kind = label.rsplit("/", 1)
    hierarchy, source, namespace, blocks = _artifact(machine, kind)
    assert _guard_problems(source, blocks) == []
    assert _unbound_names(source, namespace) == []
    assert _stale_bindings(hierarchy, kind, namespace) == []


def test_all_registered_shapes_are_covered():
    # The three hit blocks and the run loop of the bare baseline, every
    # mechanism and the imprecise variants; each kind one text for all.
    machines = {label.rsplit("/", 1)[0] for label in LABELS}
    assert machines == {"baseline", "baseline-imprecise", "TK-imprecise",
                        *ALL_MECHANISMS, *EXTENSIONS}
    for machine in machines:
        kinds = {label.rsplit("/", 1)[1] for label in LABELS
                 if label.rsplit("/", 1)[0] == machine}
        assert kinds == set(KINDS)
    for kind in KINDS:
        assert len({_artifact(m, kind)[1] for m in machines}) == 1, kind


# -- THE mutation test: every guard, every machine -----------------------------

@pytest.mark.parametrize("label", LABELS)
def test_dropping_any_guard_is_flagged(label):
    """Cut each guard from the emitted source: the structure check must
    flag it, and a hit block's mutant must act differently from the
    intact block wherever the guard can trip on this machine."""
    machine, kind = label.rsplit("/", 1)
    _, source, _, blocks = _artifact(machine, kind)
    for guard in _ORDER:
        for keep_marker in (False, True):
            mutant = _without_guard(source, guard, keep_marker)
            assert mutant != source
            ast.parse(mutant)  # the mutant must stay syntactically valid
            assert _guard_problems(mutant, blocks), (
                f"{label}: cutting the {guard} guard went unflagged")
        if kind == "loop":
            continue
        mutant = _without_guard(source, guard)
        for slot in _slots(machine, guard):
            intact = _trip(machine, kind, guard, source, slot)
            assert _TRIPPED[guard](*intact), (label, guard, slot, intact)
            assert _trip(machine, kind, guard, mutant, slot) != intact, (
                f"{label}: without the {guard} guard slot {slot} still "
                "acts as guarded")


def test_queue_guard_mutations_exist_for_prefetchers():
    # Every queue a registered mechanism owns sits in a guarded slot, so
    # the queue guard can trip on every prefetcher (twice on CDPSP).
    prefetchers = {}
    for name in ALL_MECHANISMS + EXTENSIONS:
        mechanism = create(name)
        _, hierarchy = build_machine(None, mechanism, MemoryImage())
        bindings = hit_bindings(hierarchy, "load")
        owned = ([queue._queue for queue in mechanism.iter_queues()]
                 if mechanism is not None else [])
        guarded = [bindings[f"queue{slot}"] for slot in range(QUEUE_SLOTS)]
        assert len(owned) <= QUEUE_SLOTS, name
        assert all(g is q for g, q in zip(guarded, owned)), name
        assert guarded[len(owned):] == [()] * (QUEUE_SLOTS - len(owned)), name
        if owned:
            prefetchers[name] = len(owned)
    assert prefetchers["GHB"] == 1 and prefetchers["CDPSP"] == 2


def test_shape_of_reflects_the_machine():
    # TK is an L1-level prefetcher: its hook hangs off l1d, so the store
    # block binds both the hook and the prefetch queue.  (L2-level
    # mechanisms like GHB leave l1d.mechanism None: the hook binds None.)
    _, hierarchy = build_machine(None, create("TK"), MemoryImage())
    store = hit_bindings(hierarchy, "store")
    assert store["hook"] == hierarchy.l1d.mechanism.on_access
    assert store["image_write"] == hierarchy.image.write
    assert store["queue0"] is hierarchy._mech_queues[0]
    assert store["assoc"] == hierarchy.l1d.assoc
    assert store["pipe"] is hierarchy.l1d.pipeline
    _, l2_machine = build_machine(None, create("GHB"), MemoryImage())
    assert hit_bindings(l2_machine, "store")["hook"] is None
    ifetch = hit_bindings(hierarchy, "ifetch")
    assert "hook" not in ifetch and "image_write" not in ifetch
    assert ifetch["line_bits"] == hierarchy.l1i.line_bits
    _, imprecise = build_machine(_IMPRECISE, None)
    assert hit_bindings(imprecise, "load")["pipe"] is None
    assert hit_bindings(imprecise, "store")["image_write"] is None
