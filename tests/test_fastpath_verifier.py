"""SIM8xx guard-completeness verifier: proofs about the *emitted* fast path.

The headline property: for every machine shape the emitters can produce,
deleting ANY single guard from the emitted source is caught as SIM801.
The golden replay tests show the fast path agrees with the slow path on
the traces they run; these tests show the guard structure that makes the
agreement *necessary* cannot silently erode.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.fastpath import (
    ArtifactShape,
    iter_guard_mutations,
    iter_tree_artifacts,
    shape_of,
    verify_source,
)
from repro.core.simulation import build_machine
from repro.cpu import codecache
from repro.cpu.fastpath import (
    GUARDS,
    STATE_OF_BINDING,
    emit_replay_source,
)
from repro.mechanisms.registry import create
from repro.workloads.image import MemoryImage

#: (label, source, artifacts) for every shape the emitters produce —
#: computed once; building ~17 machines per parametrized test would
#: dominate the suite's runtime.
ARTIFACTS = list(iter_tree_artifacts())
LABELS = [label for label, _, _ in ARTIFACTS]


# -- the verifier accepts what the emitters produce ----------------------------

@pytest.mark.parametrize("label", LABELS)
def test_emitted_source_verifies_clean(label):
    _, source, artifacts = next(a for a in ARTIFACTS if a[0] == label)
    assert verify_source(source, artifacts) == []


def test_all_registered_shapes_are_covered():
    # Three closures + the run loop per machine; at least the baseline,
    # every mechanism, and the imprecise variants must appear.
    machines = {label.rsplit("/", 1)[0] for label in LABELS}
    assert "baseline" in machines
    assert "baseline-imprecise" in machines
    assert {"GHB", "TK", "TKVC", "SB"} <= machines
    for machine in machines:
        kinds = {label.rsplit("/", 1)[1] for label in LABELS
                 if label.rsplit("/", 1)[0] == machine}
        assert kinds == {"load", "store", "ifetch", "loop"}


# -- THE mutation test: every guard, every shape -------------------------------

@pytest.mark.parametrize("label", LABELS)
def test_dropping_any_guard_is_flagged(label):
    """Delete each guard from the emitted source; SIM801 must fire."""
    _, source, artifacts = next(a for a in ARTIFACTS if a[0] == label)
    mutations = list(iter_guard_mutations(source))
    assert mutations, f"{label}: no guards found to mutate"
    # Every emitted artifact carries an event drain and a residency probe.
    names = {name for name, _ in mutations}
    assert {"event-drain", "resident"} <= names
    for guard, mutated in mutations:
        ast.parse(mutated)  # the mutant must stay syntactically valid
        findings = verify_source(mutated, artifacts)
        assert any(rule == "SIM801" for rule, _, _ in findings), (
            f"{label}: dropping the {guard} guard went undetected"
        )


def test_queue_guard_mutations_exist_for_prefetchers():
    label = "GHB/load"
    _, source, artifacts = next(a for a in ARTIFACTS if a[0] == label)
    names = [name for name, _ in iter_guard_mutations(source)]
    assert "queued-prefetch" in names


# -- targeted synthetic breakage ----------------------------------------------

def _baseline_load():
    return next(a for a in ARTIFACTS if a[0] == "baseline/load")


def test_reordered_commit_writes_fire_sim802():
    _, source, artifacts = _baseline_load()
    mutated = source.replace(
        "    flags[base] = line_flags\n    touch[base] = t\n",
        "    touch[base] = t\n    flags[base] = line_flags\n",
    )
    assert mutated != source
    assert {rule for rule, _, _ in verify_source(mutated, artifacts)} \
        == {"SIM802"}


def test_dropped_commit_write_fires_sim802():
    _, source, artifacts = _baseline_load()
    mutated = source.replace("    touch[base] = t\n", "")
    assert mutated != source
    findings = verify_source(mutated, artifacts)
    assert any(rule == "SIM802" for rule, _, _ in findings)


def test_stale_baked_constant_fires_sim803():
    _, source, artifacts = _baseline_load()
    for needle, patch in (
        ("addr >> 5", "addr >> 6"),          # line bits
        ("count >= 4", "count >= 2"),        # port count
        ("> 8192", "> 16"),                  # ledger prune threshold
    ):
        mutated = source.replace(needle, patch)
        assert mutated != source, needle
        assert {rule for rule, _, _ in verify_source(mutated, artifacts)} \
            == {"SIM803"}, needle


def test_dirty_marking_in_load_replay_fires_sim803():
    _, source, artifacts = _baseline_load()
    mutated = source.replace(
        "    flags[base] = line_flags\n",
        "    line_flags |= 1\n    flags[base] = line_flags\n", 1,
    )
    findings = verify_source(mutated, artifacts)
    assert {rule for rule, _, _ in findings} == {"SIM803"}


def test_store_replay_without_dirty_marking_fires_sim803():
    _, source, artifacts = next(
        a for a in ARTIFACTS if a[0] == "baseline/store"
    )
    mutated = source.replace(" |= 1\n", " |= 0 + 1\n")
    assert mutated != source
    findings = verify_source(mutated, artifacts)
    assert any(rule == "SIM803" for rule, _, _ in findings)


def test_early_state_write_fires_sim801():
    _, source, artifacts = _baseline_load()
    mutated = source.replace(
        "    block = addr >> 5\n",
        "    block = addr >> 5\n    touch[0] = time\n", 1,
    )
    findings = verify_source(mutated, artifacts)
    assert any(
        rule == "SIM801" and "before the last abort point" in message
        for rule, _, message in findings
    )


def test_unknown_binding_fires_sim801():
    _, source, artifacts = _baseline_load()
    mutated = source.replace(
        "    counts_[0] += 1\n",
        "    mystery.value += 1\n    counts_[0] += 1\n", 1,
    )
    findings = verify_source(mutated, artifacts)
    assert any(
        rule == "SIM801" and "mystery" in message
        for rule, _, message in findings
    )


def test_emitter_metadata_is_coherent():
    # Guard specs protect disjoint, non-empty state sets, and every
    # canonical state referenced by a binding is either protected by some
    # guard or declared invariant.
    from repro.cpu.fastpath import INVARIANT_STATES

    protected = set()
    for spec in GUARDS:
        assert spec.protects
        protected.update(spec.protects)
    for state in STATE_OF_BINDING.values():
        assert state in protected or state in INVARIANT_STATES \
            or state == "speculation.counters", state


# -- shape extraction ----------------------------------------------------------

def test_shape_of_reflects_the_machine():
    # TK is an L1-level prefetcher: its hook hangs off l1d, so the store
    # shape must carry both the hook and the prefetch queue.  (L2-level
    # mechanisms like GHB leave l1d.mechanism None — no hook baked.)
    _, hierarchy = build_machine(None, create("TK"), MemoryImage())
    shape = shape_of(hierarchy, "store")
    assert shape.write and shape.image and shape.hook
    assert shape.queues == len(hierarchy._mech_queues) > 0
    _, l2_machine = build_machine(None, create("GHB"), MemoryImage())
    assert not shape_of(l2_machine, "store").hook
    assert shape.assoc == hierarchy.l1d.assoc
    ifetch = shape_of(hierarchy, "ifetch")
    assert not ifetch.hook and not ifetch.write
    assert ifetch.line_bits == hierarchy.l1i.line_bits


def test_verify_rejects_unparseable_source():
    shape = shape_of(build_machine(None, None, MemoryImage())[1], "load")
    findings = verify_source("def replay(:\n", {"": shape})
    assert any(rule == "SIM801" for rule, _, _ in findings)


# -- the code memo: one code object per source, compiled once ------------------

def test_codecache_compiles_each_source_once(monkeypatch):
    compiled = []
    real_compile = compile

    def counting_compile(source, filename, mode):
        compiled.append(source)
        return real_compile(source, filename, mode)

    monkeypatch.setattr("builtins.compile", counting_compile)
    source = "def f():\n    return 41\n"
    codecache._MEMO.pop(source, None)
    first = codecache.load_or_compile(source, "<test>")
    assert codecache.load_or_compile(source, "<test>") is first
    assert compiled == [source]
    namespace = {}
    exec(first, namespace)
    assert namespace["f"]() == 41


def test_speculator_shares_one_code_object_per_source():
    _, hierarchy = build_machine(None, None, MemoryImage())
    source, _ = emit_replay_source(hierarchy, "load")
    code = codecache.load_or_compile(source, "<repro.cpu.fastpath>")
    assert codecache._MEMO[source] is code
    _, other = build_machine(None, None, MemoryImage())
    again, _ = emit_replay_source(other, "load")
    assert again == source
    assert codecache.load_or_compile(again, "<repro.cpu.fastpath>") is code


def test_simulation_writes_no_code_to_disk(tmp_path):
    """Generated code lives in the process only: a fresh interpreter's
    fast-path run leaves its workload under the cache root and nothing
    else."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "swim", "GHB", "--n", "1500",
         "--no-cache"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["workloads"]


# -- the standalone marker ----------------------------------------------------

def test_marker_shape_round_trip():
    from repro.analysis.fastpath import _marker_shape

    text = (
        "# sim-fastpath: kind=store queues=2 hook=1 precise=0 image=1 "
        "line_bits=6 set_mask=255 assoc=4 n_ports=2 latency=3 "
        "prune_every=128\n"
    )
    shape = _marker_shape(text)
    assert shape == ArtifactShape(
        kind="store", queues=2, hook=True, write=True, image=True,
        precise=False, line_bits=6, set_mask=255, assoc=4, n_ports=2,
        latency=3, prune_every=128,
    )
    assert _marker_shape("# no marker here\n") is None
