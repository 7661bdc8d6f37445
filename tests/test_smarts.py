"""Tests for SMARTS-style systematic sampling."""

import pytest

from repro.isa.instr import Op, make_load, make_op
from repro.trace.smarts import SampledEstimate, sampled_ipc, systematic_sample, _z_value
from repro.workloads.registry import build


def _trace(n=12000):
    records = []
    for i in range(n):
        if i % 4 == 0:
            records.append(make_load(0x400, 0x100000 + (i % 512) * 8))
        else:
            records.append(make_op(Op.INT_ALU, 0x410 + (i % 16) * 4))
    return records


class TestSystematicSample:
    def test_window_count_and_length(self):
        samples = systematic_sample(_trace(), n_windows=5, window=500,
                                    warmup=1000)
        assert len(samples) == 5
        # First window has no room for warm-up.
        first_slice, first_from = samples[0]
        assert first_from == 0 and len(first_slice) == 500
        # Later windows carry their warm-up prefix.
        later_slice, later_from = samples[2]
        assert later_from == 1000
        assert len(later_slice) == 1500

    def test_windows_are_evenly_spaced(self):
        trace = list(range(1000))
        samples = systematic_sample(trace, n_windows=4, window=10, warmup=0)
        starts = [s[0][0] for s in samples]
        assert starts == [0, 250, 500, 750]

    def test_rejects_oversized_request(self):
        with pytest.raises(ValueError):
            systematic_sample(_trace(1000), n_windows=10, window=500)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            systematic_sample(_trace(), n_windows=0, window=10)


class TestSampledIPC:
    def test_estimate_structure(self):
        estimate = sampled_ipc(_trace(), n_windows=6, window=400, warmup=400)
        assert isinstance(estimate, SampledEstimate)
        assert estimate.n_windows == 6
        assert len(estimate.window_ipcs) == 6
        assert estimate.mean_ipc > 0
        assert estimate.half_width >= 0

    def test_estimate_tracks_the_full_run(self):
        """The sampled mean approximates the full-trace IPC."""
        from repro.core.simulation import run_trace
        trace = _trace(16000)
        full = run_trace(trace, warmup_fraction=0.1)
        estimate = sampled_ipc(trace, n_windows=8, window=600, warmup=800)
        assert abs(estimate.mean_ipc - full.ipc) < 0.5 * full.ipc

    def test_homogeneous_trace_has_tight_interval(self):
        estimate = sampled_ipc(_trace(), n_windows=8, window=500, warmup=500)
        assert estimate.relative_error < 0.5

    def test_on_real_workload(self):
        trace, image = build("mesa", 12000)
        estimate = sampled_ipc(trace, n_windows=5, window=600, warmup=600,
                               image=image)
        assert estimate.mean_ipc > 0

    def test_each_window_simulates_once(self, monkeypatch):
        """One core run per window, over the window and its warm-up
        prefix; the window IPCs are pinned to their recorded values."""
        from repro.cpu.ooo import OoOCore

        lengths = []
        run = OoOCore.run

        def counting(self, trace, *args, **kwargs):
            lengths.append(len(trace))
            return run(self, trace, *args, **kwargs)

        monkeypatch.setattr(OoOCore, "run", counting)
        trace, image = build("gzip", 12000)
        estimate = sampled_ipc(trace, n_windows=4, window=1000, warmup=1000,
                               image=image)
        assert lengths == [1000, 2000, 2000, 2000]
        assert estimate.window_ipcs == (
            0.03805464647233427, 0.11704119850187265,
            0.12889920082495487, 0.11041183614883515,
        )

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            sampled_ipc(_trace(), confidence=1.5)


def test_z_value_matches_known_quantiles():
    assert _z_value(0.95) == pytest.approx(1.9599, abs=2e-3)
    assert _z_value(0.99) == pytest.approx(2.5758, abs=2e-3)
