"""Pure-Python alignment oracles used only by the tests.

:func:`gotoh_matrices` is the full ``(H, E, F)`` Gotoh DP computed one
cell at a time.  It is the only reference for the E and F matrices of
:func:`repro.swa.traceback.fill_matrices`; the library's own oracles
(:func:`~repro.swa.sequential.sw_matrix`,
:func:`~repro.swa.affine.gotoh_matrix`,
:func:`~repro.core.protein.subst_gotoh_matrix`) return H only.
:func:`oracle_align` builds an alignment from these matrices and
per-cell weights with the library's unchanged walks, so a test can
compare it with :func:`repro.swa.traceback.align`.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import decode
from repro.core.protein import padded_weight_table
from repro.swa.sequential import sw_matrix
from repro.swa.traceback import Alignment, gotoh_traceback, traceback


def _gaps(scheme) -> tuple[int, int]:
    """``(gap_open, gap_extend)``; a linear scheme opens at its gap."""
    if hasattr(scheme, "gap_open"):
        return scheme.gap_open, scheme.gap_extend
    return scheme.gap_penalty, scheme.gap_penalty


def _pair_weight(scheme):
    """Scalar weight of one item pair: protein through the substitution
    matrix (by character for strings, through the padded weight table
    for codes), DNA through the equality gate."""
    if callable(getattr(scheme, "weights_key", None)):
        def w(a, b):
            if isinstance(a, (str, np.str_)):
                return scheme.matrix.score(a, b)
            return int(padded_weight_table(scheme)[int(a), int(b)])
    else:
        c1, c2 = scheme.match_score, scheme.mismatch_penalty

        def w(a, b):
            return c1 if a == b else -c2
    return w


def pair_weights(x, y, scheme) -> np.ndarray:
    """The ``(m, n)`` weight matrix, one scalar weight at a time."""
    w = _pair_weight(scheme)
    return np.array([[w(a, b) for b in y] for a in x],
                    dtype=np.int64).reshape(len(x), len(y))


def gotoh_matrices(x, y, scheme):
    """The full ``(H, E, F)`` Gotoh DP (zero-clamped E/F)."""
    m, n = len(x), len(y)
    H = np.zeros((m + 1, n + 1), dtype=np.int64)
    E = np.zeros((m + 1, n + 1), dtype=np.int64)
    F = np.zeros((m + 1, n + 1), dtype=np.int64)
    go, ge = _gaps(scheme)
    w = _pair_weight(scheme)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            E[i, j] = max(0, H[i, j - 1] - go, E[i, j - 1] - ge)
            F[i, j] = max(0, H[i - 1, j] - go, F[i - 1, j] - ge)
            diag = H[i - 1, j - 1] + w(x[i - 1], y[j - 1])
            H[i, j] = max(0, E[i, j], F[i, j], diag)
    return H, E, F


def _letters(seq, scheme) -> str:
    if isinstance(seq, str):
        return seq
    alphabet = getattr(scheme, "alphabet", None)
    return alphabet.decode(seq) if alphabet is not None else decode(seq)


def oracle_align(x, y, scheme, matrices=None) -> Alignment:
    """The alignment the unchanged walks trace through the oracle
    matrices and the scalar weights.  ``matrices`` (default: computed
    here) is :func:`gotoh_matrices`' output, whose H a linear scheme's
    walk reads; otherwise a linear scheme walks
    :func:`~repro.swa.sequential.sw_matrix`."""
    W = pair_weights(x, y, scheme)
    rows = _letters(x, scheme), _letters(y, scheme)
    if hasattr(scheme, "gap_open"):
        if matrices is None:
            matrices = gotoh_matrices(x, y, scheme)
        return gotoh_traceback(matrices, W, *rows, scheme)
    H = sw_matrix(x, y, scheme) if matrices is None else matrices[0]
    return traceback(H, W, *rows, scheme)
