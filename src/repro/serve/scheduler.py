"""SLO-aware adaptive batch scheduling for the alignment service.

The static packer fires on a fixed size-or-latency trigger and hands
every batch to the same engine at the pool's full shard width.  That
is the right default with no latency target, but under an explicit SLO
it leaves two failure modes open: a queue that has already fallen
behind keeps accepting doomed requests, and a tiny batch pays the same
fan-out overhead as a huge one.

:class:`AdaptiveScheduler` closes both with the repo's own cost model.
:mod:`repro.perfmodel` gives the *shape* of a batch's cost — bitwise
operations per packed batch, exactly the count the paper's Table IV
converts to time — and a live EWMA over observed engine timings gives
the machine's current rate (ns per modelled op).  Prediction is then
``ops x rate``, which adapts to the machine, the engine, and drift
(a thermal throttle or noisy neighbour shifts the EWMA within a few
batches) while inheriting the model's extrapolation across shapes:
observing 64x128x512 batches is enough to predict 8x300x300 ones.

Three decisions ride on that estimate:

* **Admission** (:meth:`admit`): a request whose predicted completion
  time — queue backlog plus its own batch — already exceeds the SLO is
  rejected *now* with a typed :class:`~repro.serve.errors.
  AdmissionRejected`, instead of burning engine time on an answer that
  will arrive too late.  The live p50 from ``serve.stats`` is folded
  in as a floor, so a backlog the model cannot see (GC, page cache)
  still tightens admission.
* **Batch shaping** (:meth:`batch_window`): the drain window is sized
  so one predicted batch fits in a fraction of the SLO, instead of
  always waiting for ``max_batch`` lanes.
* **Dispatch hint** (:meth:`plan_batch`): a per-batch shard
  ``width`` — a batch predicted to finish within budget on one worker
  skips the fan-out overhead entirely.

Fault site ``serve.sched.mispredict`` models a stale or wrong rate:
the estimate is inflated, so admission turns *conservative* (sheds
load it could have served).  Scores are never affected — the scheduler
only ever decides when and how wide, never what is computed.
"""

from __future__ import annotations

import threading

from ..perfmodel.opcounts import (WorkloadSpec, score_bits_paper,
                                  swa_bulk_ops)
from ..resilience.faults import should_inject
from ..swa.scoring import DEFAULT_SCHEME as _DEFAULT_SCHEME
from .errors import AdmissionRejected
from .packer import PackedBatch
from .stats import ServiceStats

__all__ = ["AdaptiveScheduler", "batch_ops"]

#: Fraction of the SLO one batch (queueing excluded) may consume.
#: The remainder absorbs queueing, packing, and estimate error.
BATCH_SLO_FRACTION = 0.5

#: EWMA smoothing for observed ns-per-op rates: high enough to track
#: drift within a few batches, low enough to ride out one outlier.
EWMA_ALPHA = 0.2

#: Starting rate before any observation (ns per modelled bitwise op).
#: Deliberately pessimistic — the first real batch corrects it, and
#: until then admission errs towards accepting (see ``admit``).
DEFAULT_NS_PER_OP = 1.0

#: Inflation applied by the ``serve.sched.mispredict`` fault site: the
#: model believes everything is this many times slower than reality.
MISPREDICT_FACTOR = 16.0


def batch_ops(pairs: int, m: int, n: int, scheme,
              word_bits: int = 64) -> int:
    """Modelled bitwise ops for one packed batch.

    ``s`` comes from the paper's score-width rule over the scheme's
    match weight; protein schemes (whose weights are matrix-valued)
    fall back to the same rule over their maximum weight, which keeps
    the estimate monotone in shape — all the scheduler needs.
    """
    c1 = int(getattr(scheme, "match_score", 0) or 0)
    if c1 <= 0:
        # Substitution-matrix schemes: bound by the largest weight.
        weights = getattr(scheme, "weights", None)
        try:
            c1 = max(1, int(weights().max()) if callable(weights)
                     else int(max(map(max, weights))))
        except Exception:
            c1 = 2
    s = score_bits_paper(c1, m)
    spec = WorkloadSpec(pairs=pairs, m=m, n=n, word_bits=word_bits)
    return swa_bulk_ops(spec, s, paper=True)


class AdaptiveScheduler:
    """Latency predictor + admission controller + dispatch planner.

    Parameters
    ----------
    slo_ms:
        The target: a request admitted now should complete within this
        many milliseconds end to end.
    word_bits:
        Lane word width of the service (enters the op counts).
    stats:
        The service's :class:`~repro.serve.stats.ServiceStats`; its
        live p50 floors the admission estimate and scheduler counters
        are recorded into it.  Optional (tests drive the scheduler
        bare).
    max_batch / max_wait_s:
        The static packer's triggers — upper bounds the adaptive
        window never exceeds.
    shard_workers:
        Shard width of the engine (``None``/1 = unsharded); bounds the
        ``width`` dispatch hint.
    """

    def __init__(self, slo_ms: float, word_bits: int = 64,
                 stats: ServiceStats | None = None,
                 max_batch: int = 64,
                 max_wait_s: float = 2e-3,
                 shard_workers: int | None = None) -> None:
        if slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {slo_ms}")
        if max_batch <= 0:
            raise ValueError(
                f"max_batch must be positive, got {max_batch}"
            )
        self.slo_ms = float(slo_ms)
        self.word_bits = word_bits
        self.stats = stats
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.shard_workers = (shard_workers
                              if shard_workers is not None else 1)
        self._lock = threading.Lock()
        #: Learned EWMA rate, ns per modelled op (``None`` until the
        #: first observation).
        self._ns_per_op: float | None = None
        #: Predicted-over-observed log for introspection/tests.
        self.observations = 0
        self.admitted = 0
        self.rejected = 0

    # -- the model ------------------------------------------------------
    def rate(self) -> float:
        """Current ns-per-op estimate (EWMA)."""
        with self._lock:
            r = self._ns_per_op
            return DEFAULT_NS_PER_OP if r is None else r

    def observe(self, pairs: int, m: int, n: int, scheme,
                elapsed_s: float) -> None:
        """Fold one completed batch's timing into the rate EWMA."""
        ops = batch_ops(pairs, m, n, scheme, self.word_bits)
        if ops <= 0 or elapsed_s <= 0:
            return
        sample = elapsed_s * 1e9 / ops
        with self._lock:
            prev = self._ns_per_op
            self._ns_per_op = (
                sample if prev is None
                else prev + EWMA_ALPHA * (sample - prev))
            self.observations += 1

    def estimate_ms(self, pairs: int, m: int, n: int, scheme,
                    width: int = 1) -> float:
        """Predicted engine time for one batch, in milliseconds.

        ``width``-way sharding divides the compute (the balanced-LPT
        partition keeps shards within a pair of each other) but adds a
        per-shard dispatch constant absorbed into the learned rate.
        Fault site ``serve.sched.mispredict`` inflates the estimate —
        a *conservative* failure: admission sheds load it could have
        served, completed scores stay exact.
        """
        ops = batch_ops(pairs, m, n, scheme, self.word_bits)
        est = ops * self.rate() / max(1, width) / 1e6
        if should_inject("serve.sched.mispredict"):
            est *= MISPREDICT_FACTOR
        return est

    # -- admission ------------------------------------------------------
    def admit(self, m: int, n: int, scheme,
              queue_depth: int = 0) -> float:
        """Admit one request or raise :class:`AdmissionRejected`.

        The request's predicted completion time is its own single-lane
        cost plus the backlog ahead of it (``queue_depth`` requests
        modelled at the same shape — pessimistic for mixed traffic,
        but backlog pessimism is the point of admission control),
        floored by the live p50 when stats are attached.  Before the
        first observation the model-based rejection is suspended (the
        default rate is a guess; rejecting on it would deadlock the
        learning loop) — only the live-p50 floor can reject a cold
        scheduler.  Returns the estimate (ms) so callers can log it.
        """
        width = self.shard_workers
        own = self.estimate_ms(1, m, n, scheme, width=width)
        backlog_batches = -(-max(0, queue_depth) // self.max_batch)
        backlog = backlog_batches * self.estimate_ms(
            self.max_batch, m, n, scheme, width=width)
        est = own + backlog
        p50 = 0.0
        if self.stats is not None:
            p50, _p99 = self.stats.latency_percentiles()
            est = max(est, p50)
        with self._lock:
            cold = not self.observations
        if cold and p50 <= self.slo_ms:
            # Cold start: the default rate is deliberately pessimistic
            # and would reject everything — which would also starve
            # the model of the very batches it needs to learn the real
            # rate.  Err towards accepting until one batch has been
            # observed (the SLO then bites with a grounded estimate);
            # only a live p50 already past the SLO — measured latency,
            # not a guess — overrides the cold-start pass.
            with self._lock:
                self.admitted += 1
            return est
        if est > self.slo_ms:
            with self._lock:
                self.rejected += 1
            raise AdmissionRejected(
                f"predicted completion {est:.2f} ms exceeds the "
                f"{self.slo_ms:.2f} ms SLO "
                f"(queue depth {queue_depth}); shed or retry later"
            )
        with self._lock:
            self.admitted += 1
        return est

    # -- batch shaping --------------------------------------------------
    def batch_window(self, m: int = 128,
                     n: int = 512) -> tuple[int, float]:
        """``(max_items, max_wait_s)`` for the next drain window.

        Sized so one predicted batch of the given representative shape
        fits in ``BATCH_SLO_FRACTION`` of the SLO; the static triggers
        cap both. The wait trigger shrinks with the SLO too — a 10 ms
        SLO cannot afford the default 2 ms collection window plus a
        full batch.
        """
        budget_ms = self.slo_ms * BATCH_SLO_FRACTION
        scheme_ms = self.estimate_ms(1, m, n, _DEFAULT_SCHEME,
                                     width=self.shard_workers)
        if scheme_ms <= 0:
            items = self.max_batch
        else:
            items = max(1, min(self.max_batch,
                               int(budget_ms / scheme_ms)))
        wait = min(self.max_wait_s, self.slo_ms / 1e3 / 4)
        return items, wait

    # -- dispatch hint --------------------------------------------------
    def plan_batch(self, batch: PackedBatch) -> PackedBatch:
        """Attach a shard-width hint to a packed batch.

        The hint is the smallest shard fan-out predicted to land the
        batch inside the batch budget; 1 skips fan-out overhead
        entirely.
        """
        if self.shard_workers > 1:
            budget_ms = self.slo_ms * BATCH_SLO_FRACTION
            base = self.estimate_ms(batch.pairs, batch.m, batch.n,
                                    batch.scheme, width=1)
            width = int(-(-base // budget_ms)) if budget_ms > 0 else 1
            batch.shard_width_hint = min(self.shard_workers,
                                         max(1, width))
        if self.stats is not None:
            self.stats.record_scheduled()
        return batch

    # -- introspection --------------------------------------------------
    def snapshot(self) -> dict:
        """Scheduler state as one JSON-able dict (for stats gauges)."""
        with self._lock:
            rate = self._ns_per_op
            return {
                "slo_ms": self.slo_ms,
                "observations": self.observations,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "ns_per_op": None if rate is None else round(rate, 4),
            }
