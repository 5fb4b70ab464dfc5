"""ServiceStats: percentile windows, rollover, and the new scheduler
counters.

The percentile reservoirs are bounded deques — the tests pin the three
regimes that matter operationally: empty (no division by zero, zeros
out), single sample (both percentiles collapse to it), and rollover
(old samples leave the window, so a recovered service stops reporting
its bad past).
"""

from __future__ import annotations

import json

import pytest

from repro.serve.stats import ServiceStats


class TestLatencyPercentiles:
    def test_empty_window_reports_zero(self):
        stats = ServiceStats()
        assert stats.latency_percentiles() == (0.0, 0.0)
        assert stats.shard_time_percentiles() == (0.0, 0.0)
        assert stats.batch_time_percentiles() == (0.0, 0.0)

    def test_single_sample_collapses_both_percentiles(self):
        stats = ServiceStats()
        stats.record_completed(0.25)
        p50, p99 = stats.latency_percentiles()
        assert p50 == pytest.approx(250.0)
        assert p99 == pytest.approx(250.0)

    def test_p99_tracks_the_tail(self):
        stats = ServiceStats()
        for _ in range(99):
            stats.record_completed(0.001)
        stats.record_completed(1.0)
        p50, p99 = stats.latency_percentiles()
        assert p50 == pytest.approx(1.0)
        # Linear interpolation between ranks 99 and 100 pulls the
        # 1000 ms outlier into the tail estimate.
        assert p99 > 10.0 * p50

    def test_window_rolls_over(self):
        stats = ServiceStats(latency_window=8)
        for _ in range(8):
            stats.record_completed(10.0)  # a terrible past
        for _ in range(8):
            stats.record_completed(0.001)  # a recovered present
        p50, p99 = stats.latency_percentiles()
        assert p99 == pytest.approx(1.0)  # the past left the window

    def test_batch_times_only_recorded_when_timed(self):
        stats = ServiceStats()
        stats.record_batch(8, 64)  # untimed dispatch: lanes only
        assert stats.batch_time_percentiles() == (0.0, 0.0)
        stats.record_batch(8, 64, elapsed_s=0.002)
        p50, _ = stats.batch_time_percentiles()
        assert p50 == pytest.approx(2.0)
        assert stats.batches == 2


class TestSchedulerCounters:
    def test_admission_and_scheduling_counters(self):
        stats = ServiceStats()
        stats.record_admission_rejected()
        stats.record_scheduled()
        stats.record_scheduled()
        snap = stats.snapshot()
        assert snap["admission_rejected"] == 1
        assert snap["scheduled_batches"] == 2

    def test_scheduler_gauge_appears_in_snapshot(self):
        stats = ServiceStats()
        assert "scheduler" not in stats.snapshot()
        stats.set_scheduler_gauge(lambda: {"slo_ms": 5.0})
        snap = stats.snapshot()
        assert snap["scheduler"] == {"slo_ms": 5.0}
        json.dumps(snap)  # the whole snapshot stays JSON-able

    def test_render_includes_new_counters(self):
        stats = ServiceStats()
        stats.record_admission_rejected()
        text = stats.render()
        assert "admission_rejected" in text
        assert "batch_p99_ms" in text
