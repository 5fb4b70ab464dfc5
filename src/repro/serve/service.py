"""The alignment service: queue + packer loop + engine pool + cache.

:class:`AlignmentService` is the in-process facade the CLI server and
the tests drive.  One background *packer* thread runs the
size-or-latency drain loop (fire when ``max_batch`` lanes fill or
``max_wait_ms`` elapses, whichever comes first), length-bins and packs
the drained requests, and hands the resulting batches to the worker
pool.  Each request's caller holds a future that resolves to an
:class:`~repro.serve.queue.AlignmentResult` or to a
:class:`~repro.serve.errors.ServeError`.

Flow of one request::

    submit() -- cache hit? --> future resolves immediately
        \\-- miss --> RequestQueue -- drain --> pack_requests
                 --> EnginePool worker --> scores --> futures + cache

Backpressure is end to end: the pool's internal queue is bounded, so a
saturated engine stalls the packer, the request queue fills, and
``submit`` rejects with ``QueueFullError`` — the caller sees load
instead of the process seeing OOM.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np

from ..core.encoding import encode
from ..resilience.retry import RetryPolicy
from ..swa.scoring import DEFAULT_SCHEME, ScoringScheme
from .cache import ResultCache, cache_key
from .engine_pool import EnginePool
from .errors import AdmissionRejected, ServiceStoppedError
from .packer import pack_requests
from .queue import AlignmentRequest, AlignmentResult, RequestQueue
from .scheduler import AdaptiveScheduler
from .stats import ServiceStats

__all__ = ["AlignmentService"]


def _as_codes(seq, scheme=None) -> np.ndarray:
    """Accept a sequence string or a code array; return ``(len,)`` uint8.

    Strings encode through the scheme's alphabet when it carries one
    (protein), else as 2-bit DNA.
    """
    if isinstance(seq, str):
        alph = getattr(scheme, "alphabet", None)
        arr = encode(seq) if alph is None else alph.encode(seq)
    else:
        arr = np.ascontiguousarray(seq, dtype=np.uint8)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(
            f"expected a non-empty sequence, got shape {arr.shape}"
        )
    return arr


class AlignmentService:
    """Micro-batching alignment service over the BPBC engines.

    Parameters
    ----------
    engine:
        A :data:`repro.engines.ENGINES` name (``"bpbc"``, the
        default, ``"numpy"`` or ``"gpusim"``), ``"resilient"``, or
        any callable ``(X, Y, scheme, word_bits) -> scores``.
    workers:
        Engine worker threads.
    word_bits:
        Lane word width; also the default ``max_batch`` (one full lane
        word per batch).
    max_queue:
        Bound on pending requests; beyond it ``submit`` raises
        ``QueueFullError``.
    max_batch:
        Lanes per micro-batch (the size trigger).  Defaults to
        ``word_bits``.
    max_wait_ms:
        Latency trigger: a partially filled batch fires this long
        after its first request arrived.
    bin_granularity:
        Length-bin rounding ``g``; requests whose rounded-up
        ``(m, n)`` shapes coincide share a batch with < ``g``
        sentinel-padded positions per sequence.  ``1`` = exact shapes.
    cache_size:
        LRU entries for the result cache (0 disables caching).
    shard_workers:
        With a value > 1, every batch is additionally sharded across
        that many *processes* via
        :class:`~repro.serve.engine_pool.ShardedEngine` (shardable
        engines only); per-shard timings surface in
        ``stats.snapshot()``.
    resilience:
        ``True`` (or a ready-made
        :class:`~repro.resilience.fallback.EngineFallbackChain`)
        attaches a fallback chain to the engine pool: a batch the
        primary engine fails is rescored on the chain instead of
        failing its futures, expired lanes get a typed deadline error,
        and per-engine circuit-breaker state appears in
        ``stats.snapshot()["resilience"]``.  Implied by
        ``engine="resilient"`` (which also *scores* every batch
        through the chain).
    max_retries:
        Rescue retry budget (re-tries after the first rescue attempt);
        only meaningful with ``resilience``.
    slo_ms:
        Latency SLO in milliseconds.  Setting it attaches an
        :class:`~repro.serve.scheduler.AdaptiveScheduler`: submissions
        whose predicted completion would miss the SLO are shed with a
        typed :class:`~repro.serve.errors.AdmissionRejected`, drain
        windows shrink to fit the budget, and batches carry a
        shard-width dispatch hint.  ``None`` (default) keeps the
        static packer.
    """

    def __init__(self, engine="bpbc", workers: int = 2,
                 word_bits: int = 64, max_queue: int = 1024,
                 max_batch: int | None = None,
                 max_wait_ms: float = 2.0,
                 bin_granularity: int = 1,
                 cache_size: int = 4096,
                 shard_workers: int | None = None,
                 resilience=False,
                 max_retries: int = 1,
                 slo_ms: float | None = None) -> None:
        if max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {max_wait_ms}"
            )
        if bin_granularity <= 0:
            raise ValueError(
                f"bin_granularity must be positive, got {bin_granularity}"
            )
        self.word_bits = word_bits
        self.max_batch = max_batch if max_batch is not None else word_bits
        self.max_wait_s = max_wait_ms / 1e3
        self.bin_granularity = bin_granularity
        self.stats = ServiceStats()
        self.cache = ResultCache(cache_size)
        self.queue = RequestQueue(
            maxsize=max_queue,
            on_expired=lambda req: self.stats.record_expired(),
        )
        self.stats.set_queue_gauge(lambda: self.queue.depth)
        fallback = None
        if resilience or engine == "resilient":
            from ..resilience.fallback import EngineFallbackChain

            fallback = resilience if isinstance(
                resilience, EngineFallbackChain) \
                else EngineFallbackChain(word_bits=word_bits)
        #: The SLO scheduler (``None`` without ``slo_ms``); built
        #: before the pool so the observer hook can feed it timings.
        self.scheduler: AdaptiveScheduler | None = None
        if slo_ms is not None:
            self.scheduler = AdaptiveScheduler(
                slo_ms, word_bits=word_bits, stats=self.stats,
                max_batch=self.max_batch, max_wait_s=self.max_wait_s,
                shard_workers=shard_workers)
            self.stats.set_scheduler_gauge(self.scheduler.snapshot)
        self.pool = EnginePool(engine=engine, workers=workers,
                               word_bits=word_bits, cache=self.cache,
                               stats=self.stats,
                               shard_workers=shard_workers,
                               fallback=fallback,
                               retry=RetryPolicy(max_retries=max_retries),
                               observer=self._observe_batch)
        #: The attached fallback chain (``None`` without resilience).
        self.fallback_chain = self.pool.fallback_chain
        if self.fallback_chain is not None:
            chain = self.fallback_chain
            self.stats.set_resilience_gauge(lambda: {
                "active_engine": chain.active_engine,
                "breakers": chain.states(),
                "chain_scored_batches": chain.scored_batches,
                "chain_fallback_batches": chain.fallback_batches,
            })
        self._stop = threading.Event()
        self._packer: threading.Thread | None = None

    def _observe_batch(self, batch, elapsed_s) -> None:
        """Engine-pool observer: feed completed timings to the model."""
        if self.scheduler is not None:
            self.scheduler.observe(batch.pairs, batch.m, batch.n,
                                   batch.scheme, elapsed_s)

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._packer is not None and self._packer.is_alive()

    def start(self) -> "AlignmentService":
        """Start workers and the packer loop (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self.pool.start()
        self._packer = threading.Thread(target=self._packer_loop,
                                        name="repro-serve-packer",
                                        daemon=True)
        self._packer.start()
        return self

    def stop(self) -> None:
        """Drain-free shutdown: fail queued requests, join all threads."""
        if self._packer is None:
            return
        self._stop.set()
        self._packer.join()
        self._packer = None
        self.queue.fail_all(ServiceStoppedError("service stopped"))
        self.pool.stop()

    def __enter__(self) -> "AlignmentService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission -----------------------------------------------------
    def submit(self, query, subject,
               scheme: ScoringScheme | None = None,
               threshold: int | None = None,
               timeout_ms: float | None = None,
               priority: int = 0) -> Future:
        """Queue one pair; returns a future of ``AlignmentResult``.

        ``query`` / ``subject`` are sequence strings or 1-D code
        arrays; strings encode through the scheme's alphabet when it
        carries one (protein schemes), else as DNA.
        ``timeout_ms`` sets a dispatch deadline: a request still queued
        when it expires resolves with ``DeadlineExceededError``.
        ``priority`` picks the queue class — higher classes drain
        first at every packer window.
        Raises ``QueueFullError`` (backpressure), ``AdmissionRejected``
        (the SLO scheduler predicts a miss; only with ``slo_ms``) or
        ``ServiceStoppedError`` immediately; never blocks.
        """
        if not self.running:
            raise ServiceStoppedError(
                "submit on a stopped service; call start() first"
            )
        scheme = scheme or DEFAULT_SCHEME
        q = _as_codes(query, scheme)
        s = _as_codes(subject, scheme)
        now = time.monotonic()
        self.stats.record_submitted()
        future: Future = Future()
        request = AlignmentRequest(
            query=q, subject=s, scheme=scheme, threshold=threshold,
            deadline=None if timeout_ms is None else now + timeout_ms / 1e3,
            future=future, enqueued_at=now, priority=priority,
        )
        cached = self.cache.get(cache_key(q, s, scheme))
        if cached is not None:
            latency = request.resolve(cached, cached=True)
            self.stats.record_cache_hit(latency)
            return future
        if self.scheduler is not None:
            try:
                self.scheduler.admit(len(q), len(s), scheme,
                                     queue_depth=self.queue.depth)
            except AdmissionRejected:
                self.stats.record_admission_rejected()
                self.stats.record_rejected()
                raise
        try:
            self.queue.put(request)
        except Exception:
            self.stats.record_rejected()
            raise
        return future

    def align(self, query, subject,
              scheme: ScoringScheme | None = None,
              threshold: int | None = None,
              timeout_ms: float | None = None,
              priority: int = 0,
              result_timeout_s: float | None = None) -> AlignmentResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(query, subject, scheme=scheme,
                           threshold=threshold,
                           timeout_ms=timeout_ms,
                           priority=priority).result(
                               timeout=result_timeout_s)

    # -- the micro-batching loop ---------------------------------------
    def _packer_loop(self) -> None:
        while not self._stop.is_set():
            max_items, max_wait = self.max_batch, self.max_wait_s
            if self.scheduler is not None:
                max_items, max_wait = self.scheduler.batch_window()
            requests = self.queue.drain(max_items, max_wait,
                                        stop=self._stop)
            if not requests:
                continue
            for batch in pack_requests(requests, self.bin_granularity):
                if self.scheduler is not None:
                    self.scheduler.plan_batch(batch)
                self.pool.submit(batch)
