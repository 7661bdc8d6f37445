"""Unit and property tests for the timestamp-algebra resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.resources import Bus, MultiPortResource, PipelinedResource


class TestMultiPortResource:
    def test_same_cycle_grants_up_to_port_count(self):
        ports = MultiPortResource(3)
        assert [ports.acquire(5) for _ in range(4)] == [5, 5, 5, 6]

    def test_later_request_unaffected_by_drained_cycle(self):
        ports = MultiPortResource(1)
        assert ports.acquire(5) == 5
        assert ports.acquire(10) == 10

    def test_future_reservation_does_not_block_earlier_request(self):
        # The regression the ledger exists for: a refill reserving a future
        # cycle must not delay a demand access at an earlier cycle.
        ports = MultiPortResource(1)
        assert ports.acquire(100) == 100
        assert ports.acquire(10) == 10

    def test_spill_chain(self):
        ports = MultiPortResource(1)
        grants = [ports.acquire(0) for _ in range(4)]
        assert grants == [0, 1, 2, 3]

    def test_earliest_grant_does_not_reserve(self):
        ports = MultiPortResource(1)
        ports.acquire(5)
        assert ports.earliest_grant(5) == 6
        assert ports.earliest_grant(5) == 6  # still unreserved

    def test_would_be_free(self):
        ports = MultiPortResource(2)
        ports.acquire(3)
        assert ports.would_be_free(3)
        ports.acquire(3)
        assert not ports.would_be_free(3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            MultiPortResource(0)
        with pytest.raises(ValueError):
            MultiPortResource(2, hold=2)

    def test_reset(self):
        ports = MultiPortResource(1)
        ports.acquire(0)
        ports.reset()
        assert ports.acquire(0) == 0
        assert ports.grants == 1

    @settings(max_examples=60, deadline=None)
    @given(
        n_ports=st.integers(min_value=1, max_value=4),
        times=st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                       max_size=120),
    )
    def test_never_overgrants_a_cycle(self, n_ports, times):
        """Property: no cycle ever receives more grants than ports."""
        ports = MultiPortResource(n_ports)
        granted = {}
        for t in times:
            grant = ports.acquire(t)
            assert grant >= t
            granted[grant] = granted.get(grant, 0) + 1
        assert max(granted.values()) <= n_ports


class TestPipelinedResource:
    def test_initiation_interval(self):
        pipe = PipelinedResource(2)
        assert [pipe.acquire(0) for _ in range(3)] == [0, 2, 4]

    def test_idle_gap_resets_contention(self):
        pipe = PipelinedResource(1)
        pipe.acquire(0)
        assert pipe.acquire(50) == 50

    def test_stall_delays_subsequent_requests(self):
        pipe = PipelinedResource(1)
        pipe.acquire(0)
        pipe.stall_until(10)
        assert pipe.acquire(1) == 10
        assert pipe.stall_cycles == 9

    def test_stall_in_the_past_is_ignored(self):
        pipe = PipelinedResource(1)
        pipe.acquire(20)
        pipe.stall_until(5)
        assert pipe.stall_cycles == 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            PipelinedResource(0)


class TestBus:
    def test_transfer_serialisation(self):
        bus = Bus(5)
        assert bus.acquire(0) == 5
        assert bus.acquire(0) == 10
        assert bus.acquire(100) == 105

    def test_idle_detection(self):
        bus = Bus(5)
        bus.acquire(0)
        assert not bus.idle_at(4)
        assert bus.idle_at(5)

    def test_utilisation_accounting(self):
        bus = Bus(3)
        bus.acquire(0)
        bus.acquire(10)
        assert bus.busy_cycles == 6
        assert bus.transfers == 2

    def test_rejects_bad_transfer_time(self):
        with pytest.raises(ValueError):
            Bus(0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                    max_size=60))
    def test_transfers_never_overlap(self, times):
        """Property: granted windows are disjoint for any request order."""
        bus = Bus(4)
        windows = sorted((end - 4, end) for end in map(bus.acquire, times))
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert e1 <= s2
