"""Serving throughput: micro-batching vs one-request-per-engine-call.

The acceptance claim of the serving subsystem, measured: with
randomly-arriving length-100 DNA pairs at 64-bit words, the
micro-batcher must deliver **>= 4x the requests/sec** of a naive
client that makes one engine call per request, while keeping **mean
lane occupancy >= 50%**.

The naive baseline is exactly what `cli.py score` did for a single
pair before this subsystem existed: encode a ``(1, m)`` batch and run
the BPBC wavefront engine with 63 of 64 lanes idle.  Its rate is
measured over a subsample (each call costs the same regardless of how
many we make — the engine's work scales with diagonals, not occupied
lanes) to keep the benchmark's wall clock sane; the served rate is
measured over the full stream, submission to last-future-resolved.

Under a burst the service cannot absorb in time, the SLO-aware
scheduler must shed load at admission (typed, counted) and thereby
hold completed-request p99 far below the unscheduled service drowning
in its own queue, at identical scores for everything it does answer.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.filter.screening import bulk_max_scores
from repro.serve import AlignmentService
from repro.workloads.traffic import request_stream

from .conftest import SCHEME
from .traffic import replay

#: Pair length of the acceptance workload.
SERVE_M = 100

#: Requests replayed through the service.
SERVE_REQUESTS = 256

#: Requests timed one-per-engine-call (rate extrapolates; see module
#: docstring).
NAIVE_REQUESTS = 16

WORD_BITS = 64

#: The overload burst for the scheduler benchmark: long pairs make
#: every batch expensive enough that a one-worker service genuinely
#: cannot drain the burst inside the SLO — the shape admission
#: control exists for.  A small warm-up teaches the scheduler the
#: engine's real rate first (a cold scheduler deliberately admits),
#: and small batches keep the backlog term sensitive to queue depth.
SCHED_WARMUP = 8
SCHED_WARMUP_RPS = 4.0
SCHED_REQUESTS = 256
SCHED_M = 512
SCHED_SLO_MS = 100.0
SCHED_MAX_BATCH = 8


@pytest.fixture(scope="module")
def serve_stream():
    rng = np.random.default_rng(7)
    return list(request_stream(rng, SERVE_REQUESTS,
                               rate_per_s=50_000.0, m=SERVE_M))


def test_micro_batching_beats_naive_by_4x(serve_stream):
    # -- naive: one engine call per request --------------------------
    t0 = time.perf_counter()
    naive_scores = [
        int(bulk_max_scores(req.query[None, :], req.subject[None, :],
                            SCHEME, word_bits=WORD_BITS)[0])
        for req in serve_stream[:NAIVE_REQUESTS]
    ]
    naive_rate = NAIVE_REQUESTS / (time.perf_counter() - t0)

    # -- served: same pairs arriving as traffic ----------------------
    service = AlignmentService(engine="bpbc", workers=2,
                               word_bits=WORD_BITS, max_queue=4096,
                               max_wait_ms=5.0, cache_size=0)
    with service:
        t0 = time.perf_counter()
        start = t0
        futures = []
        for req in serve_stream:
            # Replay the Poisson arrival process in real time.
            delay = req.at_s - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            futures.append(service.submit(req.query, req.subject))
        results = [f.result(timeout=300) for f in futures]
        served_rate = SERVE_REQUESTS / (time.perf_counter() - t0)
    occupancy = service.stats.mean_lane_occupancy

    # Same engine, same pairs: scores must agree bit for bit.
    assert [r.score for r in results[:NAIVE_REQUESTS]] == naive_scores

    speedup = served_rate / naive_rate
    print(f"\nnaive:  {naive_rate:8.1f} req/s  "
          f"(1 pair / engine call)")
    print(f"served: {served_rate:8.1f} req/s  "
          f"({service.stats.batches} batches, "
          f"occupancy {occupancy:.1%}) -> {speedup:.1f}x")
    assert speedup >= 4.0, (
        f"micro-batching speedup {speedup:.2f}x below the 4x bar "
        f"({served_rate:.0f} vs {naive_rate:.0f} req/s)"
    )
    assert occupancy >= 0.5, (
        f"mean lane occupancy {occupancy:.1%} below 50%"
    )


@pytest.mark.benchmark(group="serve")
def test_bench_served_throughput(benchmark):
    """pytest-benchmark view of one 64-request burst through the
    service (submission to last future resolved)."""
    rng = np.random.default_rng(11)
    reqs = list(request_stream(rng, 64, rate_per_s=np.inf, m=SERVE_M))
    service = AlignmentService(engine="bpbc", workers=2,
                               word_bits=WORD_BITS, max_queue=4096,
                               max_wait_ms=5.0, cache_size=0)

    def burst():
        futures = [service.submit(r.query, r.subject) for r in reqs]
        return [f.result(timeout=300) for f in futures]

    with service:
        results = benchmark(burst)
    assert len(results) == 64


def test_adaptive_scheduler_sheds_load_and_holds_p99():
    rng = np.random.default_rng(41)
    warm = list(request_stream(rng, SCHED_WARMUP,
                               rate_per_s=SCHED_WARMUP_RPS, m=SCHED_M))
    burst = list(request_stream(rng, SCHED_REQUESTS,
                                rate_per_s=np.inf, m=SCHED_M))
    expected = bulk_max_scores(np.stack([r.query for r in burst]),
                               np.stack([r.subject for r in burst]),
                               SCHEME)

    static = AlignmentService(engine="bpbc", workers=1,
                              max_wait_ms=2.0, cache_size=0,
                              max_batch=SCHED_MAX_BATCH,
                              max_queue=4096)
    with static:
        replay(static, warm)
        static_report = replay(static, burst, realtime=False)

    adaptive = AlignmentService(engine="bpbc", workers=1,
                                max_wait_ms=2.0, cache_size=0,
                                max_batch=SCHED_MAX_BATCH,
                                max_queue=4096, slo_ms=SCHED_SLO_MS)
    with adaptive:
        # The paced warm-up rides the cold-start admission pass and
        # teaches the scheduler the engine's real ns-per-op rate —
        # gently, so the live p50 reflects uncontended batches; the
        # burst then meets a model with grounded estimates.
        warm_report = replay(adaptive, warm)
        adaptive_report = replay(adaptive, burst, realtime=False)
    sched_snap = adaptive.stats.snapshot()["scheduler"]

    # Identity first: every completed score (both services) matches
    # the single-process reference.  Admission only decides *whether*
    # a pair is scored, never what its score is.
    assert ([r.score for r in static_report.results]
            == expected.tolist())
    assert ([r.score for r in adaptive_report.results]
            == [int(expected[i]) for i in adaptive_report.indices])

    print(f"\nburst of {SCHED_REQUESTS} x {SCHED_M} nt pairs, "
          f"SLO {SCHED_SLO_MS:.0f} ms:")
    print(f"  static:   {static_report.completed:4d} completed, "
          f"p99 {static_report.p99_ms:9.1f} ms, "
          f"goodput {static_report.goodput_rps(SCHED_SLO_MS):7.1f}/s")
    print(f"  adaptive: {adaptive_report.completed:4d} completed "
          f"({adaptive_report.rejected} shed), "
          f"p99 {adaptive_report.p99_ms:9.1f} ms, "
          f"goodput {adaptive_report.goodput_rps(SCHED_SLO_MS):7.1f}/s")

    # Under an overload burst the scheduler must be *doing* something:
    # shedding load typed-and-counted, with the model having learned
    # a real rate from the batches it did run.
    assert adaptive_report.rejected > 0
    assert sched_snap["rejected"] == (warm_report.rejected
                                      + adaptive_report.rejected)
    assert sched_snap["observations"] > 0
    # And the point of shedding: the requests it does serve are not
    # stuck behind a doomed queue.  The static service's tail is the
    # whole burst's drain time; the adaptive tail must sit well under
    # it (2x margin keeps shared-runner noise out of the gate).
    assert adaptive_report.p99_ms * 2 < static_report.p99_ms, (
        f"adaptive p99 {adaptive_report.p99_ms:.1f} ms not clearly "
        f"below static p99 {static_report.p99_ms:.1f} ms"
    )
