"""End-to-end tests for the micro-batching alignment service.

Covers the subsystem-level guarantees the issue pins: lane-occupancy
accounting, deadline expiry resolving (not hanging), cache hits being
bit-identical to cold runs, and a many-threads concurrency smoke test.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import (AlignmentService, EngineFailedError,
                         QueueFullError, ServiceStoppedError)
from repro.engines import ENGINES
from repro.serve.errors import DeadlineExceededError
from repro.swa.scoring import DEFAULT_SCHEME, ScoringScheme
from repro.swa.sequential import sw_max_score


def random_pair(rng, m=12, n=12):
    return (rng.integers(0, 4, m, dtype=np.uint8),
            rng.integers(0, 4, n, dtype=np.uint8))


class TestScoring:
    def test_scores_match_gold(self, rng):
        with AlignmentService(workers=2, max_wait_ms=1) as svc:
            pairs = [random_pair(rng) for _ in range(30)]
            futures = [svc.submit(q, s) for q, s in pairs]
            for (q, s), fut in zip(pairs, futures):
                assert fut.result(timeout=30).score == \
                    sw_max_score(q, s, DEFAULT_SCHEME)

    def test_accepts_strings_and_thresholds(self):
        with AlignmentService(max_wait_ms=1) as svc:
            r = svc.align("ACGTACGT", "ACGTACGT", threshold=15,
                          result_timeout_s=30)
            assert r.score == 16 and r.passed is True
            r = svc.align("ACGTACGT", "ACGTACGT", threshold=16,
                          result_timeout_s=30)
            assert r.passed is False  # strictly greater than tau

    def test_per_request_schemes_coexist(self, rng):
        heavy = ScoringScheme(3, 2, 2)
        with AlignmentService(max_wait_ms=1) as svc:
            q, s = random_pair(rng, 16, 16)
            f1 = svc.submit(q, s)
            f2 = svc.submit(q, s, scheme=heavy)
            assert f1.result(timeout=30).score == \
                sw_max_score(q, s, DEFAULT_SCHEME)
            assert f2.result(timeout=30).score == \
                sw_max_score(q, s, heavy)

    @pytest.mark.parametrize("engine", ["numpy", "gpusim"])
    def test_alternate_engines(self, rng, engine):
        word_bits = 32 if engine == "gpusim" else 64
        with AlignmentService(engine=engine, max_wait_ms=1,
                              word_bits=word_bits) as svc:
            pairs = [random_pair(rng, 8, 10) for _ in range(5)]
            futures = [svc.submit(q, s) for q, s in pairs]
            for (q, s), fut in zip(pairs, futures):
                assert fut.result(timeout=60).score == \
                    sw_max_score(q, s, DEFAULT_SCHEME)


class TestLaneOccupancy:
    def test_full_batch_counts_full_lanes(self, rng):
        svc = AlignmentService(workers=1, max_batch=64,
                               max_wait_ms=500, cache_size=0)
        with svc:
            pairs = [random_pair(rng, 8, 8) for _ in range(64)]
            futures = [svc.submit(q, s) for q, s in pairs]
            for fut in futures:
                fut.result(timeout=60)
        assert svc.stats.lanes_used == 64
        assert svc.stats.lane_slots == 64
        assert svc.stats.mean_lane_occupancy == 1.0
        assert svc.stats.batches == 1

    def test_single_request_burns_a_lane_word(self, rng):
        svc = AlignmentService(workers=1, max_wait_ms=1, cache_size=0)
        with svc:
            q, s = random_pair(rng)
            svc.submit(q, s).result(timeout=30)
        assert svc.stats.lanes_used == 1
        assert svc.stats.lane_slots == 64
        assert svc.stats.mean_lane_occupancy == pytest.approx(1 / 64)


class TestDeadlines:
    def test_expired_deadline_errors_without_hanging(self, rng):
        with AlignmentService(max_wait_ms=1) as svc:
            q, s = random_pair(rng)
            fut = svc.submit(q, s, timeout_ms=0)  # already expired
            with pytest.raises(DeadlineExceededError):
                fut.result(timeout=30)
        assert svc.stats.expired == 1

    def test_generous_deadline_still_completes(self, rng):
        with AlignmentService(max_wait_ms=1) as svc:
            q, s = random_pair(rng)
            r = svc.submit(q, s, timeout_ms=60_000).result(timeout=30)
            assert r.score == sw_max_score(q, s, DEFAULT_SCHEME)


class TestCache:
    def test_hit_is_bit_identical_to_cold_run(self, rng):
        with AlignmentService(max_wait_ms=1) as svc:
            q, s = random_pair(rng, 20, 20)
            cold = svc.submit(q, s).result(timeout=30)
            assert not cold.cached
            batches_before = svc.stats.batches
            warm = svc.submit(q, s).result(timeout=30)
            assert warm.cached
            assert warm.score == cold.score  # bit-identical
            assert svc.stats.batches == batches_before  # engine skipped
            assert svc.cache.hits == 1

    def test_threshold_reevaluated_on_hits(self, rng):
        with AlignmentService(max_wait_ms=1) as svc:
            q = np.zeros(8, dtype=np.uint8)
            cold = svc.submit(q, q, threshold=100).result(timeout=30)
            warm = svc.submit(q, q, threshold=0).result(timeout=30)
            assert cold.passed is False and warm.passed is True

    def test_cache_disabled(self, rng):
        with AlignmentService(max_wait_ms=1, cache_size=0) as svc:
            q, s = random_pair(rng)
            svc.submit(q, s).result(timeout=30)
            again = svc.submit(q, s).result(timeout=30)
            assert not again.cached


class TestConcurrency:
    def test_many_threads_all_futures_resolve(self, rng):
        """8 submitting threads, jittered lengths, every future must
        resolve to the exact DP score."""
        svc = AlignmentService(workers=2, max_wait_ms=2,
                               bin_granularity=8, cache_size=0)
        results: dict[int, list] = {}
        errors: list[Exception] = []
        seeds = rng.integers(0, 2**31, size=8)

        def client(tid, seed):
            local = np.random.default_rng(seed)
            out = []
            try:
                pairs = [random_pair(local, int(local.integers(10, 25)),
                                     int(local.integers(10, 25)))
                         for _ in range(16)]
                futures = [svc.submit(q, s) for q, s in pairs]
                for (q, s), fut in zip(pairs, futures):
                    out.append((q, s, fut.result(timeout=60)))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            results[tid] = out

        with svc:
            threads = [threading.Thread(target=client, args=(i, s))
                       for i, s in enumerate(seeds)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        assert not errors
        assert sum(len(v) for v in results.values()) == 8 * 16
        for out in results.values():
            for q, s, r in out:
                assert r.score == sw_max_score(q, s, DEFAULT_SCHEME)


class TestFailureModes:
    def test_submit_on_stopped_service(self, rng):
        svc = AlignmentService()
        with pytest.raises(ServiceStoppedError):
            svc.submit(*random_pair(rng))

    def test_engine_exception_fails_futures(self, rng):
        def broken(X, Y, scheme, word_bits):
            raise RuntimeError("kaboom")

        with AlignmentService(engine=broken, max_wait_ms=1) as svc:
            fut = svc.submit(*random_pair(rng))
            with pytest.raises(EngineFailedError):
                fut.result(timeout=30)
            assert svc.stats.failed == 1

    def test_backpressure_rejects_under_saturation(self, rng):
        release = threading.Event()

        def slow(X, Y, scheme, word_bits):
            release.wait(timeout=60)
            return ENGINES["numpy"].score(X, Y, scheme, word_bits)

        svc = AlignmentService(engine=slow, workers=1, max_queue=1,
                               max_batch=1, max_wait_ms=0,
                               cache_size=0)
        futures = []
        try:
            with svc:
                with pytest.raises(QueueFullError):
                    for _ in range(64):
                        futures.append(svc.submit(*random_pair(rng)))
                assert svc.stats.rejected == 1
                release.set()
                for fut in futures:
                    fut.result(timeout=60)
        finally:
            release.set()

    def test_invalid_inputs_rejected(self):
        with AlignmentService(max_wait_ms=1) as svc:
            with pytest.raises(Exception):
                svc.submit("", "ACGT")
            with pytest.raises(Exception):
                svc.submit("ACGTX", "ACGT")

    def test_stats_snapshot_shape(self, rng):
        with AlignmentService(max_wait_ms=1) as svc:
            svc.submit(*random_pair(rng)).result(timeout=30)
            snap = svc.stats.snapshot()
        for key in ("requests_submitted", "requests_completed",
                    "mean_lane_occupancy", "latency_p50_ms",
                    "latency_p99_ms", "queue_depth", "batches"):
            assert key in snap
        assert "\n" in svc.stats.render()
