"""Bit-sliced BPBC engine for affine-gap (Gotoh) Smith-Waterman.

Extends the paper's technique to the three-matrix Gotoh recurrence
(see :mod:`repro.swa.affine` for the recurrence and the
zero-clamping argument).  Per wavefront step and per lane the circuit
is::

    E = max_B(SSub_B(H_left, open), SSub_B(E_left, extend))
    F = max_B(SSub_B(H_up,   open), SSub_B(F_up,   extend))
    H = max_B(max_B(E, F), diag)

where ``diag`` is the paper's ``matching_B`` equality gate for
DNA-style schemes and the substitution mux tree of
:mod:`repro.core.subst` for protein schemes — costing
``4 * (9s-4) + 4 * (9s-2) + diag`` bitwise operations per cell,
roughly 1.8x the linear cell of Theorem 6, deciding
``word_bits x lanes`` pairs at once exactly as before.

State is fully zero-copy (mirroring the linear wavefront engine): H
double-buffers across two row-padded plane sets whose roles swap each
diagonal, E and F live in single row-padded plane sets updated *in
place* — E is read and rewritten at the same padded row (the diagonal
column shift), F read one row above its write.  Every evaluator
computes the whole cell before storing (the compiled ones by
construction, the generic one because its outputs are fresh
arrays), and the C kernel walks rows descending so the H write at
padded ``r + 1`` lands only after that row has been consumed as a
diagonal input — the same hazard argument as the linear engine.
"""

from __future__ import annotations

import numpy as np

from .bitops import BitOpsError, OpCounter, word_dtype
from .bitsliced import ints_from_slices
from .circuits import matching_b_ops_exact, max_b, max_b_ops, ssub_b_ops
from .subst import gotoh_cell_b
from .sw_bpbc import CELL_EVALUATORS, BPBCResult, reduce_max_rows

__all__ = ["bpbc_gotoh_wavefront", "bpbc_gotoh_wavefront_planes",
           "gotoh_cell_ops_exact", "gotoh_cell_reference"]


def gotoh_cell_ops_exact(s: int, eps: int = 2) -> int:
    """Bitwise operations of one affine cell: four saturating
    subtractions, four maxima (E, F, and the two-level H fold) and one
    matching multiplexer.  For the substitution-matrix variant see
    :func:`repro.core.subst.subst_gotoh_cell_ops_exact`."""
    return (4 * ssub_b_ops(s) + 4 * max_b_ops(s)
            + matching_b_ops_exact(s, eps))


def bpbc_gotoh_wavefront(XH, XL, YH, YL, scheme, word_bits: int,
                         s: int | None = None,
                         counter: OpCounter | None = None,
                         cell: str | None = None) -> BPBCResult:
    """Anti-diagonal bit-sliced Gotoh over 2-bit H/L lane arrays.

    Thin wrapper over :func:`bpbc_gotoh_wavefront_planes` (the
    character-plane form), mirroring
    :func:`repro.core.sw_bpbc.bpbc_sw_wavefront`.
    """
    return bpbc_gotoh_wavefront_planes(
        np.stack([np.asarray(XL), np.asarray(XH)]),
        np.stack([np.asarray(YL), np.asarray(YH)]),
        scheme, word_bits, s=s, counter=counter, cell=cell,
    )


def bpbc_gotoh_wavefront_planes(Xp, Yp, scheme, word_bits: int,
                                s: int | None = None,
                                counter: OpCounter | None = None,
                                cell: str | None = None) -> BPBCResult:
    """General-alphabet affine wavefront engine over character planes.

    Same input/output contract as
    :func:`repro.core.sw_bpbc.bpbc_sw_wavefront_planes`; ``scheme`` is
    an :class:`~repro.swa.affine.AffineScheme` (DNA equality diagonal)
    or a :class:`repro.core.protein.ProteinScheme` (substitution mux
    tree).  ``cell`` picks the evaluator exactly as in the linear
    engine — ``"generic"`` (interpreted, op-countable) or
    ``"compiled"``/``"compiled-c"``/``"compiled-numpy"`` (the
    :mod:`repro.jit` fused Gotoh step); any other value raises
    :class:`BitOpsError`.  All are bit-identical, pinned against the
    scalar Gotoh reference by the differential battery.
    """
    Xp = np.asarray(Xp)
    Yp = np.asarray(Yp)
    if Xp.ndim != 3 or Yp.ndim != 3:
        raise BitOpsError(
            "expected (eps, positions, lanes) character planes, got "
            f"{Xp.shape} and {Yp.shape}"
        )
    eps = Xp.shape[0]
    if Yp.shape[0] != eps:
        raise BitOpsError(
            f"character width mismatch: {eps} vs {Yp.shape[0]} planes"
        )
    if Xp.shape[2:] != Yp.shape[2:]:
        raise BitOpsError(
            f"lane shape mismatch: {Xp.shape[2:]} vs {Yp.shape[2:]}"
        )
    m, n = Xp.shape[1], Yp.shape[1]
    if m == 0 or n == 0:
        raise BitOpsError("sequences must be non-empty")
    if s is None:
        s = scheme.score_bits(m, n)
    dt = word_dtype(word_bits)
    lanes = Xp.shape[2]
    go, ge = scheme.gap_open, scheme.gap_extend
    wk = None
    get_wk = getattr(scheme, "weights_key", None)
    if callable(get_wk):
        wk = get_wk()
        c1 = c2 = None
    else:
        c1, c2 = scheme.match_score, scheme.mismatch_penalty
    if cell is None:
        cell = "generic" if counter is not None else "compiled"
    step = None
    if cell in ("compiled", "compiled-c", "compiled-numpy"):
        if counter is not None:
            raise BitOpsError(
                "op counting is only supported for the generic cell"
            )
        from .. import jit

        backend = {"compiled": "auto", "compiled-c": "c",
                   "compiled-numpy": "numpy"}[cell]
        step = jit.gotoh_wavefront_step(s, go, ge, eps, word_bits,
                                        backend=backend, c1=c1, c2=c2,
                                        weights=wk)
        Xp = np.ascontiguousarray(Xp, dtype=dt)
        Yp = np.ascontiguousarray(Yp, dtype=dt)
    elif cell == "generic":
        def eval_cell(h_left, e_left, h_up, f_up, h_diag, x, y):
            return gotoh_cell_b(h_left, e_left, h_up, f_up, h_diag,
                                x, y, go, ge, word_bits, weights=wk,
                                c1=c1, c2=c2, counter=counter)
    else:
        raise BitOpsError(
            f"unknown cell evaluator {cell!r}; expected one of "
            f"{CELL_EVALUATORS}"
        )
    # Row-padded state: padded index i + 1 holds DP row i, padded row 0
    # is a permanent zero.  h1/h2 double-buffer H (h2 also serves the
    # diagonal reads); e/f are updated in place.  Rows outside the
    # written band hold stale data but are never read again — the
    # band's bounds are monotone in t (same argument as the linear
    # engine), and rows not yet entered read their init zeros.
    if step is not None and step.backend == "c":
        best = step.run(Xp, Yp)
    else:
        h1 = np.zeros((s, m + 1, lanes), dtype=dt)
        h2 = np.zeros((s, m + 1, lanes), dtype=dt)
        e = np.zeros((s, m + 1, lanes), dtype=dt)
        f = np.zeros((s, m + 1, lanes), dtype=dt)
        best = np.zeros((s, m, lanes), dtype=dt)
        for t in range(m + n - 1):
            lo = max(0, t - n + 1)
            hi = min(m - 1, t)
            if step is not None:
                step(h1, h2, e, f, best, Xp, Yp, t, lo, hi)
            else:
                rows = slice(lo, hi + 1)   # active DP rows (0-based)
                up = slice(lo, hi + 1)     # padded index i -> row i-1
                dst = slice(lo + 1, hi + 2)  # padded index i+1 -> row i
                x = [Xp[b, rows] for b in range(eps)]
                y = [Yp[b, t - hi:t - lo + 1][::-1] for b in range(eps)]
                H, E, F = eval_cell(
                    [h1[h, dst] for h in range(s)],   # H[i][j-1]
                    [e[h, dst] for h in range(s)],    # E[i][j-1]
                    [h1[h, up] for h in range(s)],    # H[i-1][j]
                    [f[h, up] for h in range(s)],     # F[i-1][j]
                    [h2[h, up] for h in range(s)],    # H[i-1][j-1]
                    x, y,
                )
                for h in range(s):
                    h2[h, dst] = H[h]
                    e[h, dst] = E[h]
                    f[h, dst] = F[h]
                new_best = max_b([best[h, rows] for h in range(s)], H,
                                 counter)
                for h in range(s):
                    best[h, rows] = new_best[h]
            h1, h2 = h2, h1
    final = reduce_max_rows(best, word_bits, counter, in_place=True)
    planes = np.stack(final)
    return BPBCResult(
        score_planes=planes,
        max_scores=ints_from_slices(planes, word_bits).astype(np.int64),
        s=s,
        word_bits=word_bits,
    )


def gotoh_cell_reference(h_left, e_left, h_up, f_up, h_diag, x, y,
                         gap_open: int, gap_extend: int, s: int,
                         c1: int | None = None, c2: int | None = None,
                         weights=None, eps: int | None = None):
    """Value semantics of one Gotoh cell on *arbitrary* ``s``-bit
    inputs; returns ``(H, E, F)`` int64 arrays.

    Matches ``synth_gotoh_cell`` / :func:`repro.core.subst.gotoh_cell_b`
    exactly: penalties clamp to the bus width, the saturating
    subtractions floor at zero, and the diagonal term is the equality
    gate (``c1``/``c2``) or the substitution mux tree (``weights``).
    The equivalence prover (:mod:`repro.analyze.prove`) checks every
    shipped affine netlist against this oracle over the full input
    cube at small ``s``.
    """
    from .circuits import clamp_penalty, matching_reference
    from .subst import subst_matching_reference

    go = clamp_penalty(gap_open, s)
    ge = clamp_penalty(gap_extend, s)
    h_left = np.asarray(h_left, dtype=np.int64)
    e_left = np.asarray(e_left, dtype=np.int64)
    h_up = np.asarray(h_up, dtype=np.int64)
    f_up = np.asarray(f_up, dtype=np.int64)
    E = np.maximum(np.maximum(h_left - go, 0), np.maximum(e_left - ge, 0))
    F = np.maximum(np.maximum(h_up - go, 0), np.maximum(f_up - ge, 0))
    if weights is not None:
        diag = subst_matching_reference(h_diag, x, y, weights,
                                        int(eps), s)
    else:
        diag = matching_reference(h_diag, x, y, int(c1), int(c2), s)
    H = np.maximum(np.maximum(E, F), diag)
    return H, E, F
