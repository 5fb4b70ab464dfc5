"""Threshold screening: the paper's application of BPBC-SWA (§III).

"The proposed BPBC technique is used [to] identify the input strings
in which the maximum value of the scoring matrix is larger than a
given threshold τ.  Once such strings are identified, a detailed
matching can be computed by a conventional SWA on the CPU."

:func:`screen_pairs` runs the bulk bitwise engine over all pairs and
re-aligns the survivors on the CPU (:func:`repro.swa.traceback.align`:
the C Gotoh fill, or the numpy row scan without a compiler, then the
walk), returning full local alignments for exactly the pairs that
pass τ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.encoding import (encode_batch_bit_transposed,
                             encode_batch_char_planes, scheme_pads)
from ..core.sw_bpbc import bpbc_sw_wavefront, bpbc_sw_wavefront_planes
from ..swa.affine import AffineScheme
from ..swa.numpy_batch import sw_batch_max_scores
from ..swa.scoring import DEFAULT_SCHEME, ScoringScheme
from ..swa.sequential import sw_matrix  # noqa: F401
from ..swa.traceback import Alignment, align

__all__ = ["ScreenHit", "ScreenResult", "screen_pairs", "bulk_max_scores",
           "bpbc_max_scores", "wordwise_max_scores"]

#: The survivor CPU pass (DP fill + walk).  Module globals on
#: purpose: the traced benchmark times ``swa.traceback`` by wrapping
#: ``traceback`` and ``sw_matrix`` here; nothing calls ``sw_matrix``
#: (the pure-Python oracle) any more, and it goes when the benchmark
#: stops wrapping it.
traceback = align


@dataclass(frozen=True)
class ScreenHit:
    """One pair that passed the threshold, with its full alignment."""

    pair_index: int
    score: int
    alignment: Alignment


@dataclass
class ScreenResult:
    """Output of a screening run."""

    scores: np.ndarray          # (P,) bulk max scores
    threshold: int
    hits: list[ScreenHit]

    @property
    def survivor_indices(self) -> np.ndarray:
        """Indices of pairs whose score *strictly exceeds* the threshold."""
        return np.flatnonzero(self.scores > self.threshold)

    @property
    def pass_rate(self) -> float:
        """Fraction of pairs strictly exceeding the threshold.

        Derived from the scores (not from ``hits``), so it is correct
        even when the run skipped survivor alignment
        (``align_survivors=False``) and ``hits`` is empty.
        """
        return len(self.survivor_indices) / max(1, len(self.scores))


def bulk_max_scores(X: np.ndarray, Y: np.ndarray,
                    scheme: ScoringScheme | None = None,
                    word_bits: int = 64,
                    chunk_size: int | None = None,
                    workers: int | None = None,
                    recover: bool = True,
                    timeout_s: float | None = None,
                    max_retries: int = 1) -> np.ndarray:
    """Max SW score per pair via the BPBC wavefront engine.

    ``X`` is ``(P, m)`` and ``Y`` ``(P, n)`` wordwise code matrices,
    optionally sentinel-padded (see :mod:`repro.serve.packer`); lane
    padding is handled (and trimmed) internally.  With
    ``chunk_size`` set, the batch is encoded and scored in slices of
    at most that many pairs, bounding peak memory to one chunk's
    planes instead of one ``(P, m)``-sized allocation.

    ``workers > 1`` shards the batch across a process pool
    (:mod:`repro.shard`); results are identical to the single-process
    path and ``chunk_size`` becomes the per-shard pair cap.  With
    ``recover`` (the default) a shard lost to a worker crash, hang
    (bounded by ``timeout_s``) or engine error is rescored in-process
    on the :class:`~repro.resilience.fallback.EngineFallbackChain` —
    bit-identically — and only an unrecoverable loss raises
    :class:`~repro.resilience.errors.BulkRecoveryError` naming the
    missing pair indices.  ``recover=False`` restores the strict
    behaviour: the first failure raises
    :class:`repro.shard.ShardError`.
    """
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"expected (P, m) / (P, n) code matrices, got {X.shape} and "
            f"{Y.shape}"
        )
    scheme = scheme or DEFAULT_SCHEME
    P = X.shape[0]
    if chunk_size is not None and chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if workers is not None and workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if workers is not None and workers > 1:
        if recover:
            from ..resilience.recovery import shard_scores_with_recovery
            from ..resilience.retry import RetryPolicy

            return shard_scores_with_recovery(
                X, Y, scheme, word_bits=word_bits, workers=workers,
                max_shard_pairs=chunk_size, timeout_s=timeout_s,
                retry=RetryPolicy(max_retries=max_retries))
        from ..shard import shard_bulk_max_scores

        return shard_bulk_max_scores(X, Y, scheme, word_bits=word_bits,
                                     workers=workers,
                                     max_shard_pairs=chunk_size)
    if chunk_size is None or P <= chunk_size:
        return bpbc_max_scores(X, Y, scheme, word_bits)
    scores = np.empty(P, dtype=np.int64)
    for start in range(0, P, chunk_size):
        stop = min(start + chunk_size, P)
        scores[start:stop] = bpbc_max_scores(X[start:stop], Y[start:stop],
                                             scheme, word_bits)
    return scores


def bpbc_max_scores(X: np.ndarray, Y: np.ndarray, scheme,
                    word_bits: int = 64,
                    cell: str | None = None) -> np.ndarray:
    """Max BPBC score per pair of one rectangular code batch.

    The one place the bulk path is chosen from the scheme kind, for
    rectangular batches whose rows may carry trailing sentinel pads.
    The plane width follows the codes: protein schemes take
    ``alphabet.pad_bits`` character planes, DNA batches holding pads
    (codes above 3) take 3, and unpadded DNA takes 2 — the paper's
    ``(H, L)`` bit-transposed planes on the linear path.  Affine
    schemes (DNA ``AffineScheme`` or an affine protein scheme) run the
    Gotoh engine, everything else the linear cell.  ``cell`` pins the
    cell evaluator (see :func:`repro.core.sw_bpbc.bpbc_sw_wavefront`).
    """
    P = X.shape[0]
    protein = callable(getattr(scheme, "weights_key", None))
    affine = (isinstance(scheme, AffineScheme)
              or (protein and scheme.is_affine))
    if protein or (X.size and X.max() > 3) or (Y.size and Y.max() > 3):
        _, _, eps = scheme_pads(scheme)
    elif affine:
        eps = 2
    else:
        # Module globals on purpose: the traced benchmark wraps these
        # two names to time the W2B and SW stages.
        XH, XL = encode_batch_bit_transposed(X, word_bits)
        YH, YL = encode_batch_bit_transposed(Y, word_bits)
        return bpbc_sw_wavefront(XH, XL, YH, YL, scheme, word_bits,
                                 cell=cell).max_scores[:P]
    Xp = encode_batch_char_planes(X, word_bits, char_bits=eps)
    Yp = encode_batch_char_planes(Y, word_bits, char_bits=eps)
    if affine:
        from ..core.affine_bpbc import bpbc_gotoh_wavefront_planes

        result = bpbc_gotoh_wavefront_planes(Xp, Yp, scheme, word_bits,
                                             cell=cell)
    else:
        result = bpbc_sw_wavefront_planes(Xp, Yp, scheme, word_bits,
                                          cell=cell)
    return result.max_scores[:P]


def wordwise_max_scores(X: np.ndarray, Y: np.ndarray, scheme,
                        word_bits: int = 64) -> np.ndarray:
    """Max score per pair on the wordwise NumPy baselines.

    Same contract as :func:`bpbc_max_scores` (``word_bits`` is
    accepted and unused): sentinel codes never compare equal and score
    the matrix minimum through the padded weight table, so padding is
    exact here too.
    """
    if callable(getattr(scheme, "weights_key", None)):
        from ..core.protein import subst_gotoh_batch_max_scores

        return subst_gotoh_batch_max_scores(X, Y, scheme)
    if isinstance(scheme, AffineScheme):
        from ..swa.affine import gotoh_batch_max_scores

        return gotoh_batch_max_scores(X, Y, scheme)
    return sw_batch_max_scores(X, Y, scheme)


def screen_pairs(X: np.ndarray, Y: np.ndarray, threshold: int,
                 scheme: ScoringScheme | None = None,
                 word_bits: int = 64,
                 align_survivors: bool = True,
                 chunk_size: int | None = None,
                 workers: int | None = None,
                 recover: bool = True,
                 timeout_s: float | None = None,
                 max_retries: int = 1) -> ScreenResult:
    """Bulk-score all pairs; fully align those scoring above ``threshold``.

    The bulk phase never computes tracebacks — exactly the paper's
    division of labour.  Survivor alignments are exact (C or numpy
    row-scan matrix fill + traceback, :func:`repro.swa.traceback.align`)
    and their scores are asserted to agree with the bulk engine's,
    which doubles as an end-to-end self-check.
    ``workers > 1`` shards the bulk phase across processes, with
    fallback-chain recovery of failed shards unless ``recover=False``
    (see :func:`bulk_max_scores`); survivor alignment stays
    in-process.
    """
    scheme = scheme or DEFAULT_SCHEME
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    scores = bulk_max_scores(X, Y, scheme, word_bits,
                             chunk_size=chunk_size, workers=workers,
                             recover=recover, timeout_s=timeout_s,
                             max_retries=max_retries)
    hits: list[ScreenHit] = []
    if align_survivors:
        for p in np.flatnonzero(scores > threshold):
            aln = traceback(X[p], Y[p], scheme)
            if aln.score != scores[p]:  # pragma: no cover - self check
                raise AssertionError(
                    f"bulk/CPU score mismatch on pair {p}: "
                    f"{scores[p]} vs {aln.score}"
                )
            hits.append(ScreenHit(pair_index=int(p), score=int(scores[p]),
                                  alignment=aln))
    return ScreenResult(scores=scores, threshold=threshold, hits=hits)
