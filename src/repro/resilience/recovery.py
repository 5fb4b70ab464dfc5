"""Partial-result recovery for sharded bulk runs.

A sharded bulk run (:mod:`repro.shard`) already confines a worker
crash, hang, or engine exception to its shard and reports exactly the
affected pair indices.  This module closes the loop: instead of
aborting the whole batch, the failed pairs are rescored *in-process*
on the :class:`~repro.resilience.fallback.EngineFallbackChain` (with a
:class:`~repro.resilience.retry.RetryPolicy` around the rescore), so a
flaky pool costs latency on a few pairs rather than the batch.  Only
when the fallback chain itself cannot score the pairs does the caller
see an error — a typed :class:`BulkRecoveryError` naming the missing
pair indices, never a silent ``-1`` in the scores.
"""

from __future__ import annotations

import random

import numpy as np

from ..swa.scoring import DEFAULT_SCHEME, ScoringScheme
from .errors import BulkRecoveryError, FallbackExhaustedError
from .fallback import EngineFallbackChain, default_chain
from .retry import RetriesExhausted, RetryPolicy

__all__ = ["RecoveryReport", "recover_failures",
           "shard_scores_with_recovery"]


class RecoveryReport:
    """What a recovery pass did (attached to the scores for callers
    that want observability, ignored by those that do not)."""

    def __init__(self, recovered: np.ndarray, engine: str | None,
                 shard_errors) -> None:
        #: Submission-order pair indices rescored on the fallback chain.
        self.recovered = recovered
        #: Chain engine that produced the recovered scores (``None``
        #: when nothing needed recovery).
        self.engine = engine
        #: The original per-shard failures, for logging/stats.
        self.shard_errors = list(shard_errors)


def recover_failures(result, X, Y,
                     scheme: ScoringScheme | None = None,
                     word_bits: int = 64,
                     chain: EngineFallbackChain | None = None,
                     retry: RetryPolicy | None = None,
                     seed: int = 0) -> RecoveryReport:
    """Rescore a :class:`~repro.shard.ShardRunResult`'s failed pairs.

    ``result.scores`` is patched **in place** at the failed indices;
    the returned :class:`RecoveryReport` says which pairs were
    recovered and on which engine.  Raises :class:`BulkRecoveryError`
    (naming the pairs) when the fallback chain cannot score them
    either.
    """
    failed = result.failed_pairs
    if failed.size == 0:
        return RecoveryReport(failed, None, result.errors)
    scheme = scheme or DEFAULT_SCHEME
    chain = chain if chain is not None else default_chain(word_bits)
    retry = retry if retry is not None else RetryPolicy(max_retries=1)
    Xf = np.ascontiguousarray(np.asarray(X)[failed])
    Yf = np.ascontiguousarray(np.asarray(Y)[failed])
    engine_used: list[str] = []

    def rescore():
        scores, engine = chain.score(Xf, Yf, scheme, word_bits)
        engine_used.append(engine)
        return scores

    try:
        scores = retry.call(rescore,
                            retry_on=(FallbackExhaustedError,),
                            rng=random.Random(seed))
    except RetriesExhausted as exc:
        raise BulkRecoveryError(
            f"{failed.size} pair(s) lost by failed shards and not "
            f"recoverable on the fallback chain: indices "
            f"{failed.tolist()}", failed, cause=exc.cause) from exc
    result.scores[failed] = scores
    return RecoveryReport(failed, engine_used[-1], result.errors)


def shard_scores_with_recovery(X, Y, scheme: ScoringScheme | None = None,
                               word_bits: int = 64,
                               workers: int | None = None,
                               max_shard_pairs: int | None = None,
                               timeout_s: float | None = None,
                               recover: bool = True,
                               chain: EngineFallbackChain | None = None,
                               retry: RetryPolicy | None = None) -> np.ndarray:
    """Sharded bulk scoring that survives worker failure.

    The resilient counterpart of
    :func:`repro.shard.shard_bulk_max_scores`: completed shards keep
    their scores, failed shards are rescored in-process on the
    fallback chain, and only an unrecoverable loss raises (typed,
    with pair indices).  With ``recover=False`` the first
    :class:`~repro.shard.ShardError` propagates exactly as before.
    """
    from ..shard.executor import ShardExecutor

    with ShardExecutor(workers=workers, word_bits=word_bits,
                       timeout_s=timeout_s,
                       max_shard_pairs=max_shard_pairs) as executor:
        result = executor.run(X, Y, scheme,
                              errors="return" if recover else "raise")
    if recover and result.errors:
        recover_failures(result, X, Y, scheme, word_bits,
                         chain=chain, retry=retry)
    return result.scores
