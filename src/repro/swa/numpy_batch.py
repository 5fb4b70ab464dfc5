"""Batch wordwise Smith-Waterman — the paper's "wordwise" baseline.

This engine is the conventional formulation the paper compares BPBC
against: every DP value lives in its own machine word (here an
``int32`` array element).  It processes ``P`` independent pairs by
walking anti-diagonals and vectorising over *both* the pattern axis and
the pair axis, which is the strongest wordwise implementation NumPy
allows (a scalar per-cell Python loop would be unfairly slow as a
baseline).

Only maximum scores are tracked — matching the paper's pipeline, which
returns one score per pair and defers traceback to the CPU for pairs
that pass the threshold.
"""

from __future__ import annotations

import numpy as np

from .scoring import ScoringScheme

__all__ = ["sw_batch_max_scores"]


def sw_batch_max_scores(X: np.ndarray, Y: np.ndarray,
                        scheme: ScoringScheme) -> np.ndarray:
    """Maximum SW score of each pair ``(X[p], Y[p])``.

    ``X`` is ``(P, m)`` and ``Y`` is ``(P, n)`` (code matrices).
    Returns ``(P,)`` int64 scores.  Memory is O(P * m); time is
    O((m + n) * P * m / simd_width).
    """
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"expected (P, m) and (P, n) code matrices, got {X.shape} "
            f"and {Y.shape}"
        )
    P, m = X.shape
    n = Y.shape[1]
    c1 = np.int32(scheme.match_score)
    c2 = np.int32(scheme.mismatch_penalty)
    gap = np.int32(scheme.gap_penalty)
    prev2 = np.zeros((P, m), dtype=np.int32)
    prev1 = np.zeros((P, m), dtype=np.int32)
    best = np.zeros(P, dtype=np.int32)
    rows = np.arange(m)
    for t in range(m + n - 1):
        lo = max(0, t - n + 1)
        hi = min(m - 1, t)
        i_idx = rows[lo:hi + 1]
        j_idx = t - i_idx
        up = np.zeros((P, hi - lo + 1), dtype=np.int32)
        diag = np.zeros((P, hi - lo + 1), dtype=np.int32)
        inner = i_idx > 0
        up[:, inner] = prev1[:, i_idx[inner] - 1]
        diag[:, inner] = prev2[:, i_idx[inner] - 1]
        left = prev1[:, i_idx]
        jz = j_idx > 0
        left[:, ~jz] = 0
        diag[:, ~jz] = 0
        w = np.where(X[:, i_idx] == Y[:, j_idx], c1, -c2)
        cur = np.maximum(
            0,
            np.maximum(np.maximum(up - gap, left - gap), diag + w),
        ).astype(np.int32)
        best = np.maximum(best, cur.max(axis=1))
        prev2 = prev1
        nxt = prev1.copy()
        nxt[:, lo:hi + 1] = cur
        prev1 = nxt
    return best.astype(np.int64)

