"""Tests for the two-level memory hierarchy."""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.config import (
    MEMORY_CONSTANT,
    baseline_config,
)
from repro.mechanisms.registry import create
from repro.workloads.image import MemoryImage


def _hierarchy(mechanism=None, config=None, image=None):
    return MemoryHierarchy(config or baseline_config(), mechanism=mechanism,
                           image=image)


def test_cold_load_goes_to_memory_then_hits_everywhere():
    h = _hierarchy()
    ready = h.load(pc=1, addr=0x4000, time=0)
    assert ready > 50  # DRAM round trip
    assert h.classify(0x4000).level == "l1"
    second = h.load(pc=1, addr=0x4000, time=ready + 1)
    assert second <= ready + 4  # L1 hit


def test_l2_hit_faster_than_memory_slower_than_l1():
    h = _hierarchy()
    t = h.load(1, 0x4000, 0)
    # Evict from L1 (direct-mapped, 32 KB apart collides) but stay in L2.
    t2 = h.load(1, 0x4000 + (32 << 10), t + 1)
    l2_hit = h.load(1, 0x4000, t2 + 1)
    assert h.classify(0x4000 + (32 << 10)).level in ("l1", "l2")
    cold = t - 0
    assert l2_hit - (t2 + 1) < cold  # L2 hit cheaper than DRAM trip


def test_store_updates_functional_image():
    image = MemoryImage()
    h = _hierarchy(image=image)
    h.store(pc=1, addr=0x8000, value=77, time=0)
    assert image.read(0x8000) == 77


def test_constant_memory_model_fixed_latency():
    config = baseline_config().with_memory_model(MEMORY_CONSTANT)
    h = _hierarchy(config=config)
    first = h.load(1, 0x4000, 0)
    h_2 = _hierarchy(config=config)
    second = h_2.load(1, 0x14000, 0)
    assert first == second  # identical path length regardless of address


def test_classify_levels():
    h = _hierarchy()
    assert h.classify(0x4000).level == "memory"
    t = h.load(1, 0x4000, 0)
    assert h.classify(0x4000).level == "l1"
    h.load(1, 0x4000 + (32 << 10), t + 1)  # evict L1 line; L2 retains it
    assert h.classify(0x4000).level == "l2"


def test_mechanism_attaches_to_its_level():
    vc = create("VC")
    h = _hierarchy(mechanism=vc)
    assert h.l1d.mechanism is vc
    tp = create("TP")
    h2 = _hierarchy(mechanism=tp)
    assert h2.l2.mechanism is tp


def test_prefetch_drain_issues_queued_requests():
    tp = create("TP")
    h = _hierarchy(mechanism=tp)
    t = h.load(1, 0x4000, 0)             # L2 miss -> TP queues next line
    assert len(tp.queue) == 1
    h.load(1, 0x9000, t + 50)            # next access drains the queue
    # The first prefetch issued (the new miss queued a fresh one).
    assert h.st_prefetches_issued.value >= 1
    assert h.l2.contains(0x4040)         # next 64-byte line landed in L2


def test_l1_prefetch_l2_only_gate():
    tk = create("TK")
    h = _hierarchy(mechanism=tk)
    # Queue a prefetch for a line that is nowhere in the hierarchy.
    tk.emit_prefetch(0xABC000, 0)
    h.load(1, 0x4000, 10)
    assert h.st_prefetches_issued.value == 0
    assert h.st_prefetches_redundant.value == 1


def test_read_line_values_uses_image():
    image = MemoryImage()
    image.write(0x4000, 11)
    image.write(0x4008, 22)
    h = _hierarchy(image=image)
    words = h.read_line_values(0x4004, 32)
    assert words[0] == 11 and words[1] == 22
    assert _hierarchy().read_line_values(0x4000, 32) == ()  # no image


def test_writeback_propagates_to_l2():
    h = _hierarchy()
    t = h.store(1, 0x4000, 1, 0)
    l2_writes_before = h.l2.st_writes.value
    # Conflict eviction of the dirty line (32 KB apart in direct-mapped L1).
    h.load(1, 0x4000 + (32 << 10), t + 1)
    assert h.l2.st_writes.value > l2_writes_before


def test_deferred_events_run_on_advance():
    h = _hierarchy()
    fired = []
    h.sim.schedule(100, fired.append, "tick")
    h.load(1, 0x4000, 200)
    assert fired == ["tick"]


def test_reset():
    h = _hierarchy()
    h.load(1, 0x4000, 0)
    h.reset()
    assert h.classify(0x4000).level == "memory"
    assert h.st_loads.value == 0


def test_unknown_memory_model_rejected():
    import dataclasses
    config = dataclasses.replace(baseline_config(), memory_model="weird")
    with pytest.raises(ValueError):
        MemoryHierarchy(config)


def test_reset_hierarchy_times_loads_like_a_fresh_one():
    used = _hierarchy()
    for i in range(50):
        used.load(1, 0x100000 + i * 4096, i * 10)
    used.reset()
    fresh = _hierarchy()
    sequence = [(0x4000 + i * 0x2040, i * 7) for i in range(50)]
    assert ([used.load(1, addr, time) for addr, time in sequence]
            == [fresh.load(1, addr, time) for addr, time in sequence])
    assert used.stats_report() == fresh.stats_report()
