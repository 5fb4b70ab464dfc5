"""AdaptiveScheduler: cost model, admission, shaping, the shard-width
hint, and end-to-end bit-identity of an SLO-scheduled service.

The scheduler only ever decides *when and how wide* a batch runs, so
the one invariant no test here may weaken is: scores served under an
SLO equal the scalar reference.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.serve import AdmissionRejected, AlignmentService
from repro.serve.packer import PackedBatch
from repro.serve.queue import AlignmentRequest, RequestQueue
from repro.serve.scheduler import (AdaptiveScheduler, batch_ops,
                                   DEFAULT_NS_PER_OP, EWMA_ALPHA)
from repro.serve.stats import ServiceStats
from repro.swa.scoring import DEFAULT_SCHEME, ScoringScheme
from repro.swa.sequential import sw_max_score

SCHEME = ScoringScheme(2, 1, 1)


def _codes(rng, n):
    return rng.integers(0, 4, size=n, dtype=np.uint8)


def _req(rng, m=32, n=32, scheme=SCHEME, priority=0):
    return AlignmentRequest(query=_codes(rng, m), subject=_codes(rng, n),
                            scheme=scheme, threshold=None, deadline=None,
                            future=Future(),
                            enqueued_at=time.monotonic(),
                            priority=priority)


def _batch(rng, pairs=8, m=32, n=32, scheme=SCHEME):
    reqs = [_req(rng, m, n, scheme) for _ in range(pairs)]
    X = np.stack([r.query for r in reqs])
    Y = np.stack([r.subject for r in reqs])
    return PackedBatch(requests=reqs, X=X, Y=Y, scheme=scheme,
                       padded=False)


class TestCostModel:
    def test_batch_ops_monotone_in_shape(self):
        base = batch_ops(8, 32, 32, SCHEME)
        assert batch_ops(16, 32, 32, SCHEME) >= base
        assert batch_ops(8, 64, 32, SCHEME) > base
        assert batch_ops(8, 32, 64, SCHEME) > base

    def test_batch_ops_handles_protein_schemes(self):
        from repro.core.matrices import BLOSUM62
        from repro.core.protein import ProteinScheme

        scheme = ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1)
        assert batch_ops(8, 32, 32, scheme) > 0

    def test_rate_starts_pessimistic_then_learns(self):
        sched = AdaptiveScheduler(slo_ms=100.0)
        assert sched.rate() == DEFAULT_NS_PER_OP
        ops = batch_ops(8, 32, 32, SCHEME)
        sched.observe(8, 32, 32, SCHEME, elapsed_s=ops * 0.25e-9)
        # First sample seeds the EWMA outright.
        assert sched.rate() == pytest.approx(0.25)
        sched.observe(8, 32, 32, SCHEME, elapsed_s=ops * 0.75e-9)
        expected = 0.25 + EWMA_ALPHA * (0.75 - 0.25)
        assert sched.rate() == pytest.approx(expected)
        assert sched.observations == 2

    def test_estimate_scales_with_width(self):
        sched = AdaptiveScheduler(slo_ms=100.0)
        one = sched.estimate_ms(64, 128, 128, SCHEME, width=1)
        four = sched.estimate_ms(64, 128, 128, SCHEME, width=4)
        assert four == pytest.approx(one / 4)

    def test_degenerate_observations_are_ignored(self):
        sched = AdaptiveScheduler(slo_ms=100.0)
        sched.observe(8, 32, 32, SCHEME, elapsed_s=0.0)
        sched.observe(0, 32, 32, SCHEME, elapsed_s=1.0)
        assert sched.observations == 0
        assert sched.rate() == DEFAULT_NS_PER_OP


class TestAdmission:
    def test_cheap_request_is_admitted(self):
        sched = AdaptiveScheduler(slo_ms=1000.0)
        est = sched.admit(32, 32, SCHEME)
        assert est < 1000.0
        assert sched.admitted == 1

    def test_expensive_request_is_rejected_typed(self):
        sched = AdaptiveScheduler(slo_ms=1e-6)
        # Warm the model first: a cold scheduler deliberately admits.
        sched.observe(1, 512, 512, SCHEME, elapsed_s=0.001)
        with pytest.raises(AdmissionRejected, match="SLO"):
            sched.admit(512, 512, SCHEME)
        assert sched.rejected == 1

    def test_cold_scheduler_admits_despite_the_model(self):
        # Before any observation the default rate is a guess; reject-
        # ing on it would starve the model of the batches it needs to
        # learn (and did, before this was pinned).  Cold admission
        # must pass even when the modelled estimate dwarfs the SLO.
        sched = AdaptiveScheduler(slo_ms=1e-6)
        est = sched.admit(512, 512, SCHEME)
        assert est > sched.slo_ms
        assert sched.admitted == 1 and sched.rejected == 0

    def test_backlog_tightens_admission(self):
        sched = AdaptiveScheduler(slo_ms=1000.0, max_batch=64)
        # observe() at the admitted shape makes estimate == elapsed:
        # one 400 ms request fits the 1000 ms SLO alone, but not
        # behind a deep backlog of peers.
        sched.observe(1, 256, 256, SCHEME, elapsed_s=0.4)
        sched.admit(256, 256, SCHEME, queue_depth=0)
        with pytest.raises(AdmissionRejected, match="queue depth"):
            sched.admit(256, 256, SCHEME, queue_depth=10_000)

    def test_live_p50_floors_the_estimate(self):
        stats = ServiceStats()
        for _ in range(32):
            stats.record_completed(5.0)  # 5000 ms observed latency
        sched = AdaptiveScheduler(slo_ms=100.0, stats=stats)
        # The model alone would admit this tiny request; the observed
        # p50 says the service is drowning.
        with pytest.raises(AdmissionRejected):
            sched.admit(8, 8, SCHEME)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="slo_ms"):
            AdaptiveScheduler(slo_ms=0)
        with pytest.raises(ValueError, match="max_batch"):
            AdaptiveScheduler(slo_ms=1.0, max_batch=0)


class TestShapingAndHints:
    def test_batch_window_respects_static_caps(self):
        sched = AdaptiveScheduler(slo_ms=10_000.0, max_batch=64,
                                  max_wait_s=2e-3)
        items, wait = sched.batch_window()
        assert 1 <= items <= 64
        assert wait <= 2e-3

    def test_tight_slo_shrinks_the_window(self):
        slow = AdaptiveScheduler(slo_ms=1.0)
        # One lane alone takes 10 ms — far past half the 1 ms SLO —
        # so the window collapses to single-request batches.
        slow.observe(1, 128, 512, DEFAULT_SCHEME, elapsed_s=0.01)
        items, wait = slow.batch_window()
        assert items == 1
        assert wait == pytest.approx(1.0 / 1e3 / 4)

    def test_width_hint_is_minimal_sufficient_fanout(self, rng):
        sched = AdaptiveScheduler(slo_ms=100.0, shard_workers=8)
        # A 125 ms single-worker batch against a 50 ms budget needs
        # ceil(125 / 50) = 3 workers — no more.
        sched.observe(8, 32, 32, SCHEME, elapsed_s=0.125)
        batch = sched.plan_batch(_batch(rng))
        assert batch.shard_width_hint == 3

    def test_cheap_batch_skips_fanout(self, rng):
        sched = AdaptiveScheduler(slo_ms=10_000.0, shard_workers=8)
        batch = sched.plan_batch(_batch(rng, pairs=2, m=8, n=8))
        assert batch.shard_width_hint == 1

    def test_unsharded_pool_gets_no_width_hint(self, rng):
        sched = AdaptiveScheduler(slo_ms=100.0, shard_workers=None)
        batch = sched.plan_batch(_batch(rng))
        assert batch.shard_width_hint is None

    def test_snapshot_round_trips_to_json(self):
        import json

        sched = AdaptiveScheduler(slo_ms=50.0)
        sched.observe(4, 16, 16, SCHEME,
                      elapsed_s=batch_ops(4, 16, 16, SCHEME) * 1e-9)
        snap = json.loads(json.dumps(sched.snapshot()))
        assert snap["slo_ms"] == 50.0
        assert snap["observations"] == 1
        assert snap["ns_per_op"] == pytest.approx(1.0)


class TestPriorityQueue:
    def test_higher_classes_drain_first_fifo_within(self, rng):
        q = RequestQueue(maxsize=16)
        for prio, tag in [(0, "a"), (2, "b"), (0, "c"), (1, "d"),
                          (2, "e")]:
            req = _req(rng, 8, 8, priority=prio)
            req._tag = tag
            q.put(req)
        drained = [r._tag
                   for _ in range(5)
                   for r in q.drain(max_items=1, max_wait=0.0)]
        assert drained == ["b", "e", "d", "a", "c"]

    def test_default_priority_preserves_fifo(self, rng):
        q = RequestQueue(maxsize=16)
        for tag in "abc":
            req = _req(rng, 8, 8)
            req._tag = tag
            q.put(req)
        got = [r._tag for r in q.drain(max_items=3, max_wait=0.0)]
        assert got == ["a", "b", "c"]

    def test_capacity_spans_all_classes(self, rng):
        from repro.serve.errors import QueueFullError

        q = RequestQueue(maxsize=2)
        q.put(_req(rng, 8, 8, priority=0))
        q.put(_req(rng, 8, 8, priority=0))
        with pytest.raises(QueueFullError):
            q.put(_req(rng, 8, 8, priority=5))


class TestEndToEnd:
    def test_slo_service_is_bit_identical(self, rng):
        pairs = [(_codes(rng, rng.integers(8, 40)),
                  _codes(rng, rng.integers(8, 40))) for _ in range(24)]
        service = AlignmentService(workers=1, max_wait_ms=1.0,
                                   slo_ms=30_000.0, cache_size=0)
        service.start()
        try:
            futures = [service.submit(q, s) for q, s in pairs]
            scores = [f.result(timeout=60.0).score for f in futures]
        finally:
            service.stop()
        expected = [sw_max_score(q, s, DEFAULT_SCHEME)
                    for q, s in pairs]
        assert scores == expected
        snap = service.stats.snapshot()
        assert snap["scheduler"]["observations"] > 0
        assert snap["scheduled_batches"] > 0

    def test_impossible_slo_rejects_with_typed_error(self, rng):
        service = AlignmentService(workers=1, max_wait_ms=1.0,
                                   slo_ms=1e-6, cache_size=0)
        service.start()
        try:
            # The first request rides the cold-start pass — and its
            # batch teaches the scheduler the engine's real rate (the
            # pool observes *before* resolving futures, so result()
            # returning means the rate has landed)...
            first = service.submit(_codes(rng, 64), _codes(rng, 64))
            assert first.result(timeout=60.0).score >= 0
            # ...after which nothing can meet a 1 ns SLO.
            with pytest.raises(AdmissionRejected):
                service.submit(_codes(rng, 64), _codes(rng, 64))
            snap = service.stats.snapshot()
        finally:
            service.stop()
        assert snap["admission_rejected"] == 1
        assert snap["requests_rejected"] == 1
