"""Measurement plumbing: meters, latency, utilization, statistics."""

import numpy as np
import pytest

from repro.metrics.latency import LatencyStats
from repro.metrics.stats import CONFIDENCES, batch_means, mean_ci, t_critical
from repro.metrics.throughput import ThroughputMeter
from repro.metrics.utilization import (
    BLOCKED_CODE,
    BUSY_CODE,
    IDLE_CODE,
    state_matrix,
    summarize_trace,
)
from repro.raw import costs
from repro.sim.trace import Trace


class TestThroughputMeter:
    def test_counts_in_window(self):
        m = ThroughputMeter(warmup_cycles=100)
        m.record(50, 64)  # before warmup: ignored
        m.record(150, 64)
        m.record(250, 64)
        assert m.packets == 2
        assert m.bits == 2 * 64 * 8
        assert m.total_seen == 3

    def test_stop_cycle(self):
        m = ThroughputMeter(warmup_cycles=0, stop_cycle=200)
        m.record(100, 64)
        m.record(250, 64)
        assert m.packets == 1

    def test_gbps_arithmetic(self):
        m = ThroughputMeter()
        m.record(10, 1250)  # 10,000 bits
        # 10,000 bits over 1,000 cycles at 250 MHz = 2.5 Gbps.
        assert m.gbps(end_cycle=1000) == pytest.approx(2.5)
        assert m.mpps(end_cycle=1000) == pytest.approx(0.25)

    def test_empty_meter(self):
        m = ThroughputMeter()
        assert m.gbps() == 0.0
        assert m.mpps() == 0.0

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter(warmup_cycles=-1)


class TestLatencyStats:
    def test_basic_percentiles(self):
        ls = LatencyStats()
        for d in range(1, 101):
            ls.record(0, d)
        assert ls.mean() == pytest.approx(50.5)
        assert ls.percentile(50) == pytest.approx(50.5)
        assert ls.percentile(99) == pytest.approx(99.01, rel=0.01)

    def test_summary_units(self):
        ls = LatencyStats()
        ls.record(0, 250)  # 250 cycles at 250 MHz = 1 us
        s = ls.summary()
        assert s["mean_us"] == pytest.approx(1.0)

    def test_negative_rejected(self):
        ls = LatencyStats()
        with pytest.raises(ValueError):
            ls.record(10, 5)

    def test_empty(self):
        ls = LatencyStats()
        assert ls.empty
        assert ls.summary() == {}
        assert np.isnan(ls.mean())


class TestUtilization:
    def _trace(self):
        t = Trace()
        t.record("a", "busy", 0, 60)
        t.record("a", "rx", 60, 100)
        t.record("b", "mem", 0, 30)
        return t

    def test_summary_fractions(self):
        s = summarize_trace(self._trace(), 0, 100)
        assert s["a"].busy_frac == pytest.approx(0.6)
        assert s["a"].blocked_frac == pytest.approx(0.4)
        assert s["a"].idle == 0
        assert s["b"].blocked_frac == pytest.approx(0.3)
        assert s["b"].idle == 70

    def test_windowed_summary(self):
        s = summarize_trace(self._trace(), 50, 100)
        assert s["a"].busy == 10
        assert s["a"].blocked == 40

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            summarize_trace(self._trace(), 10, 10)

    def test_state_matrix(self):
        mat = state_matrix(self._trace(), ["a", "b"], 0, 100)
        assert mat.shape == (2, 100)
        assert mat[0, 0] == BUSY_CODE
        assert mat[0, 99] == BLOCKED_CODE
        assert mat[1, 50] == IDLE_CODE


class TestStats:
    def test_mean_ci_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = mean_ci(rng.normal(0, 1, 10))
        large = mean_ci(rng.normal(0, 1, 1000))
        assert large[1] < small[1]

    def test_single_sample(self):
        assert mean_ci([5.0]) == (5.0, 0.0)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_batch_means(self):
        data = list(range(100))
        batches = batch_means(data, 10)
        assert len(batches) == 10
        assert batches[0] == pytest.approx(4.5)

    def test_batch_means_validation(self):
        with pytest.raises(ValueError):
            batch_means([1, 2, 3], 10)
        with pytest.raises(ValueError):
            batch_means([1, 2, 3], 1)


class TestTQuantile:
    """The in-repo Student-t quantile against scipy as an oracle."""

    DFS = list(range(1, 201)) + [250, 500, 1000, 10_000, 100_000, 10**7]

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_matches_scipy(self, confidence):
        pytest.importorskip("scipy")
        from scipy import stats

        for df in self.DFS:
            want = float(stats.t.ppf((1 + confidence) / 2, df))
            assert t_critical(confidence, df) == pytest.approx(want, rel=1e-6), df

    def test_supported_confidences(self):
        assert CONFIDENCES == (0.90, 0.95, 0.99)

    @pytest.mark.parametrize("confidence", [0.5, 0.975, 1.0])
    def test_unsupported_confidence_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            t_critical(confidence, 10)
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([1.0, 2.0, 3.0], confidence)
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([1.0], confidence)

    def test_df_must_be_positive(self):
        with pytest.raises(ValueError, match="df"):
            t_critical(0.95, 0)

    def test_tends_to_normal_and_decreases(self):
        for confidence, z in [(0.90, 1.6448536269514722),
                              (0.95, 1.959963984540054),
                              (0.99, 2.5758293035489004)]:
            values = [t_critical(confidence, df) for df in range(1, 500)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert t_critical(confidence, 10**9) == pytest.approx(z, rel=1e-8)

    def test_mean_ci_uses_student_t(self):
        x = [3.0, 1.0, 4.0, 1.0, 5.0]
        mean, half = mean_ci(x, 0.99)
        sem = np.std(x, ddof=1) / np.sqrt(len(x))
        assert mean == pytest.approx(2.8)
        # t_{0.995, 4}: the 99% value, not the normal 2.576.
        assert half == pytest.approx(4.604094871349992 * sem)
        assert mean_ci(x, 0.90)[1] == pytest.approx(2.1318467863266495 * sem)

