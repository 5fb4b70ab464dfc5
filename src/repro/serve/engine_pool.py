"""Worker pool fanning packed batches out to pluggable engines.

An *engine* is a :data:`repro.engines.ENGINES` name or any callable
``(X, Y, scheme, word_bits) -> (P,) scores`` returning exact per-pair
maximum scores; the pool hands it each packed batch's sentinel-padded
``X`` / ``Y`` code matrices (see :mod:`repro.serve.packer`).

The pool owns N worker threads over a *bounded* internal queue, so a
slow engine backs pressure up into the request queue (whose ``put``
rejects) instead of buffering unboundedly.  Workers demultiplex scores
back onto request futures, feed the result cache and record batch
stats; an engine exception fails every future in the batch with
:class:`~repro.serve.errors.EngineFailedError` — nothing hangs.

For multi-core machines, :class:`ShardedEngine` wraps a shardable
engine (``bpbc`` or ``numpy``) in a :class:`repro.shard.ShardExecutor`:
each packed batch is split into cost-balanced shards and scored across
a process pool, with per-shard timings fed into ``serve.stats``.
Construct it via ``EnginePool(engine="bpbc", shard_workers=N)`` or
pass an instance as the engine.
"""

from __future__ import annotations

import queue as _stdqueue
import random
import threading
import time

import numpy as np

from ..engines import resolve
from ..resilience.errors import FallbackExhaustedError
from ..resilience.retry import RetryPolicy
from .cache import ResultCache, cache_key
from .errors import DeadlineExceededError, EngineFailedError
from .packer import PackedBatch
from .stats import ServiceStats

__all__ = ["EnginePool", "ShardedEngine", "ResilientEngine"]


class ShardedEngine:
    """Engine wrapper scoring each batch across a shard process pool.

    Wraps a *shardable* engine (``shardable`` in
    :data:`repro.engines.ENGINES`; the gpusim engine is
    simulation-bound and not) in a persistent
    :class:`repro.shard.ShardExecutor`.  Satisfies the engine protocol
    ``(X, Y, scheme, word_bits) -> scores``, so it plugs straight into
    :class:`EnginePool` / :class:`~repro.serve.service.AlignmentService`;
    the optional ``width`` caps one call's shard fan-out.
    Sentinel-padded batches shard exactly: the shard workers score
    them through the same engine table.

    Per-shard timings are recorded through ``stats.record_shard`` when
    a :class:`~repro.serve.stats.ServiceStats` is attached (the pool
    attaches its own automatically when it builds the wrapper from
    ``shard_workers=``).
    """

    def __init__(self, engine="bpbc", workers: int | None = None,
                 word_bits: int = 64,
                 stats: ServiceStats | None = None,
                 timeout_s: float | None = None) -> None:
        from ..shard import ShardExecutor

        self._executor = ShardExecutor(workers=workers, engine=engine,
                                       word_bits=word_bits,
                                       timeout_s=timeout_s)
        self.workers = self._executor.workers
        self.stats = stats

    def __call__(self, X, Y, scheme, word_bits: int,
                 width: int | None = None) -> np.ndarray:
        result = self._executor.run(X, Y, scheme, width=width)
        if self.stats is not None:
            for t in result.timings:
                self.stats.record_shard(t.pairs, t.elapsed_s)
        return result.scores

    def close(self) -> None:
        """Tear down the underlying process pool (idempotent)."""
        self._executor.close()


class ResilientEngine:
    """Engine adapter scoring every batch through a fallback chain.

    Satisfies the engine protocol ``(X, Y, scheme, word_bits) ->
    scores`` but dispatches to an
    :class:`~repro.resilience.fallback.EngineFallbackChain`: the batch
    lands on the fastest engine whose circuit breaker admits traffic,
    demoting native -> generated NumPy -> interpreted -> wordwise on
    failure.  Select it with ``engine="resilient"`` on
    :class:`EnginePool` / :class:`~repro.serve.service.AlignmentService`.
    """

    def __init__(self, chain=None, word_bits: int = 64) -> None:
        if chain is None:
            from ..resilience.fallback import EngineFallbackChain

            chain = EngineFallbackChain(word_bits=word_bits)
        self.chain = chain

    def __call__(self, X, Y, scheme, word_bits: int) -> np.ndarray:
        scores, _engine = self.chain.score(X, Y, scheme, word_bits)
        return scores


class EnginePool:
    """N worker threads draining a bounded queue of packed batches.

    ``shard_workers > 1`` wraps a shardable engine name in a
    :class:`ShardedEngine`, so every batch is additionally spread
    across that many processes (capped per batch by the scheduler's
    ``shard_width_hint``); the pool owns the wrapper and closes it in
    :meth:`stop`.

    ``fallback`` attaches an
    :class:`~repro.resilience.fallback.EngineFallbackChain` (pass
    ``True`` to build the default chain) used to *rescue* batches the
    primary engine fails: lanes whose deadline already expired are
    failed with ``DeadlineExceededError``, the live lanes are rescored
    on the chain under ``retry`` (deadline-aware, so a rescue never
    sleeps past the earliest lane deadline), and only when the chain
    itself is exhausted do the futures see ``EngineFailedError``.
    """

    def __init__(self, engine="bpbc", workers: int = 2,
                 word_bits: int = 64,
                 cache: ResultCache | None = None,
                 stats: ServiceStats | None = None,
                 queue_depth: int | None = None,
                 shard_workers: int | None = None,
                 fallback=None,
                 retry: RetryPolicy | None = None,
                 observer=None) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if shard_workers is not None and shard_workers <= 0:
            raise ValueError(
                f"shard_workers must be positive, got {shard_workers}"
            )
        if fallback is True or (fallback is None and engine == "resilient"):
            from ..resilience.fallback import EngineFallbackChain

            fallback = EngineFallbackChain(word_bits=word_bits)
        self.fallback_chain = fallback if fallback is not False else None
        self._retry = retry if retry is not None \
            else RetryPolicy(max_retries=1)
        if engine == "resilient":
            engine = ResilientEngine(self.fallback_chain,
                                     word_bits=word_bits)
        self._owned_sharded: ShardedEngine | None = None
        if shard_workers is not None and shard_workers > 1:
            if not isinstance(engine, str):
                raise ValueError(
                    "shard_workers requires a shardable engine name, "
                    f"got {engine!r}"
                )
            self._owned_sharded = ShardedEngine(
                engine, workers=shard_workers, word_bits=word_bits,
                stats=stats)
            engine = self._owned_sharded
        self._engine = resolve(engine)
        self._observer = observer
        self.workers = workers
        self.word_bits = word_bits
        self._cache = cache
        self._stats = stats
        self._q: _stdqueue.Queue = _stdqueue.Queue(
            maxsize=queue_depth if queue_depth is not None
            else workers * 4)
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        if self._threads:
            return
        for i in range(self.workers):
            t = threading.Thread(target=self._run,
                                 name=f"repro-serve-engine-{i}",
                                 daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        """Finish queued batches, then join the workers."""
        for _ in self._threads:
            self._q.put(None)
        for t in self._threads:
            t.join()
        self._threads.clear()
        if self._owned_sharded is not None:
            self._owned_sharded.close()

    def submit(self, batch: PackedBatch) -> None:
        """Hand a batch to the workers (blocks when the pool is saturated
        — that is the backpressure path into the request queue)."""
        self._q.put(batch)

    def _run(self) -> None:
        while True:
            batch = self._q.get()
            if batch is None:
                return
            t0 = time.perf_counter()
            try:
                if isinstance(self._engine, ShardedEngine):
                    scores = self._engine(batch.X, batch.Y, batch.scheme,
                                          self.word_bits,
                                          width=batch.shard_width_hint)
                else:
                    scores = self._engine(batch.X, batch.Y, batch.scheme,
                                          self.word_bits)
            except Exception as exc:  # noqa: BLE001 - must not kill worker
                if self.fallback_chain is not None:
                    self._rescue(batch, exc)
                    continue
                err = EngineFailedError(
                    f"engine failed on {batch.pairs}-pair batch: {exc!r}"
                )
                for req in batch.requests:
                    req.fail(err)
                if self._stats is not None:
                    self._stats.record_failed(batch.pairs)
                continue
            elapsed = time.perf_counter() - t0
            if self._stats is not None:
                self._stats.record_batch(batch.pairs, self.word_bits,
                                         elapsed)
            if self._observer is not None:
                try:
                    self._observer(batch, elapsed)
                except Exception:  # noqa: BLE001 - observer is advisory
                    pass
            self._deliver(batch.requests, scores)

    def _deliver(self, requests, scores) -> None:
        """Demultiplex scores onto futures; feed cache and stats."""
        for req, score in zip(requests, scores):
            if self._cache is not None:
                self._cache.put(
                    cache_key(req.query, req.subject, req.scheme),
                    int(score),
                )
            latency = req.resolve(int(score), cached=False)
            if self._stats is not None:
                self._stats.record_completed(latency)

    def _rescue(self, batch: PackedBatch, exc: BaseException) -> None:
        """Re-dispatch a failed batch onto the fallback chain.

        Expired lanes are failed immediately with a typed
        ``DeadlineExceededError`` — retrying on their behalf would only
        deliver an answer nobody is waiting for.  Live lanes are
        rescored on the chain under the retry policy, bounded by the
        earliest remaining lane deadline; scores recovered this way are
        bit-identical to what the primary engine would have returned
        (the chain engines are pinned identical by the fuzz suite), so
        they feed the cache and futures exactly like a normal batch.
        """
        now = time.monotonic()
        live: list[int] = []
        for p, req in enumerate(batch.requests):
            if req.expired(now):
                req.fail(DeadlineExceededError(
                    "deadline expired before the engine failure on this "
                    f"batch could be retried ({exc!r})"
                ))
                if self._stats is not None:
                    self._stats.record_expired()
            else:
                live.append(p)
        if not live:
            return
        idx = np.asarray(live)
        known = [batch.requests[p].deadline for p in live
                 if batch.requests[p].deadline is not None]
        deadline = min(known) if known else None
        try:
            scores, engine = self._retry.call(
                lambda: self.fallback_chain.score(
                    batch.X[idx], batch.Y[idx], batch.scheme,
                    self.word_bits),
                retry_on=(FallbackExhaustedError,),
                deadline=deadline,
                rng=random.Random(batch.pairs),
            )
        except Exception as rexc:  # noqa: BLE001 - RetriesExhausted etc.
            err = EngineFailedError(
                f"engine failed on {batch.pairs}-pair batch ({exc!r}) "
                f"and the fallback chain could not rescue the "
                f"{len(live)} live lane(s): {rexc!r}"
            )
            for p in live:
                batch.requests[p].fail(err)
            if self._stats is not None:
                self._stats.record_failed(len(live))
            return
        if self._stats is not None:
            self._stats.record_batch(len(live), self.word_bits)
            self._stats.record_recovered(len(live), engine)
        self._deliver([batch.requests[p] for p in live], scores)
