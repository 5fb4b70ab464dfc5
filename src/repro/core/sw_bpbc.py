"""The BPBC Smith-Waterman engines (paper §IV-B).

Two engines compute the Smith-Waterman maximum score for
``word_bits x lanes`` sequence pairs simultaneously, evaluating the
bitwise SW-cell circuit of :mod:`repro.core.circuits` over bit-sliced
DP state:

* :func:`bpbc_sw_sequential` — the paper's "[BPBC sequential for SWA]"
  listing: a row-major double loop, one circuit evaluation per cell.
  O(mn) circuit evaluations; the reference for the bulk technique.
* :func:`bpbc_sw_wavefront` — the paper's "[BPBC parallel for SWA]":
  anti-diagonal order, evaluating one circuit per *diagonal* with the
  pattern axis folded into the lane arrays (each of the ``m`` paper
  "threads" becomes a row of the plane arrays).  Identical results,
  ``m + n - 1`` circuit evaluations.

Both operate on bit-transposed inputs (see
:func:`repro.core.encoding.encode_batch_bit_transposed`) and return the
per-instance maximum score — the quantity the paper's pipeline ships
back to the host for threshold screening.

Score width: ``s`` defaults to ``ScoringScheme.score_bits(m)`` =
``bit_length(c1 * m)``; the circuits use saturating arithmetic so no
cell can exceed ``c1 * m`` and no overflow is possible at that width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..swa.scoring import ScoringScheme
from .bitops import BitOpsError, OpCounter, word_dtype
from .bitsliced import ints_from_slices
from .circuits import max_b, sw_cell

__all__ = ["BPBCResult", "CELL_EVALUATORS", "bpbc_sw_sequential",
           "bpbc_sw_wavefront", "bpbc_sw_wavefront_planes",
           "reduce_max_rows"]


@dataclass
class BPBCResult:
    """Output of a BPBC Smith-Waterman run.

    Attributes
    ----------
    score_planes:
        ``(s, *lanes)`` bit-sliced maximum scores (the engine's native
        output, what Step 4 of the GPU pipeline bit-untransposes).
    max_scores:
        Per-instance maximum scores, wordwise ``int64``.
    s:
        Score width in bits.
    word_bits:
        Lane-word width.
    """

    score_planes: np.ndarray
    max_scores: np.ndarray
    s: int
    word_bits: int


def _validate_inputs(XH, XL, YH, YL):
    if XH.shape != XL.shape or YH.shape != YL.shape:
        raise BitOpsError("H/L plane shapes must match")
    if XH.shape[1:] != YH.shape[1:]:
        raise BitOpsError(
            f"lane shape mismatch: {XH.shape[1:]} vs {YH.shape[1:]}"
        )
    if XH.ndim != 2:
        raise BitOpsError("expected (positions, lanes) planes")
    m, n = XH.shape[0], YH.shape[0]
    if m == 0 or n == 0:
        raise BitOpsError("sequences must be non-empty")
    return m, n


def reduce_max_rows(planes: np.ndarray, word_bits: int,
                    counter: OpCounter | None = None,
                    in_place: bool = False) -> list[np.ndarray]:
    """Tree-reduce ``(s, rows, lanes)`` planes to the per-lane row maximum.

    Pairwise :func:`repro.core.circuits.max_b` halving, ``ceil(log2
    rows)`` rounds — the software analogue of the paper's running-max
    hand-off along the bottom diagonal (§V step 5).

    The reduction runs in place over a scratch copy of ``planes``
    (merged halves overwrite the low rows each round) instead of
    re-copying the surviving rows every round.  With ``in_place=True``
    even the scratch copy is skipped and ``planes`` itself is used as
    workspace — callers that are done with the buffer (both wavefront
    engines reducing their ``best`` planes) pass this to make the
    reduction copy-free.
    """
    rows = planes.shape[1]
    if rows == 1:
        return [planes[h, 0] for h in range(planes.shape[0])]
    work = planes if in_place else planes.copy()
    while rows > 1:
        half = rows // 2
        lo = [work[h, :half] for h in range(work.shape[0])]
        hi = [work[h, rows - half:rows] for h in range(work.shape[0])]
        merged = max_b(lo, hi, counter)
        for h in range(work.shape[0]):
            work[h, :half] = merged[h]
        rows -= half
    return [work[h, 0] for h in range(work.shape[0])]


def bpbc_sw_sequential(XH, XL, YH, YL, scheme: ScoringScheme,
                       word_bits: int, s: int | None = None,
                       counter: OpCounter | None = None,
                       keep_matrix: bool = False) -> BPBCResult:
    """Row-major BPBC Smith-Waterman (paper's sequential listing).

    Inputs are ``(m, lanes)`` / ``(n, lanes)`` bit planes.  One
    :func:`~repro.core.circuits.sw_cell` circuit evaluation per DP cell
    — ``46s - 16 + 2e`` bitwise operations deciding every lane at once.

    With ``keep_matrix=True`` the full bit-sliced DP matrix is retained
    and returned as an extra ``matrix_planes`` attribute of shape
    ``(s, m + 1, n + 1, lanes)`` (memory-hungry; for tests/examples).
    """
    XH = np.asarray(XH)
    XL = np.asarray(XL)
    YH = np.asarray(YH)
    YL = np.asarray(YL)
    m, n = _validate_inputs(XH, XL, YH, YL)
    if s is None:
        s = scheme.score_bits(m, n)
    dt = word_dtype(word_bits)
    lanes = XH.shape[1]
    # D[h][i][j] with a zero boundary at i=0 / j=0.
    D = np.zeros((s, m + 1, n + 1, lanes), dtype=dt)
    best = np.zeros((s, lanes), dtype=dt)
    gap, c1, c2 = (scheme.gap_penalty, scheme.match_score,
                   scheme.mismatch_penalty)
    for i in range(1, m + 1):
        x = [XL[i - 1], XH[i - 1]]
        for j in range(1, n + 1):
            y = [YL[j - 1], YH[j - 1]]
            cell = sw_cell(
                [D[h, i - 1, j] for h in range(s)],
                [D[h, i, j - 1] for h in range(s)],
                [D[h, i - 1, j - 1] for h in range(s)],
                x, y, gap, c1, c2, word_bits, counter,
            )
            for h in range(s):
                D[h, i, j] = cell[h]
            best_l = max_b([best[h] for h in range(s)], cell, counter)
            for h in range(s):
                best[h] = best_l[h]
    result = BPBCResult(
        score_planes=best,
        max_scores=ints_from_slices(best, word_bits).astype(np.int64),
        s=s,
        word_bits=word_bits,
    )
    if keep_matrix:
        result.matrix_planes = D  # type: ignore[attr-defined]
    return result


def bpbc_sw_wavefront(XH, XL, YH, YL, scheme: ScoringScheme,
                      word_bits: int, s: int | None = None,
                      counter: OpCounter | None = None,
                      cell: str | None = None) -> BPBCResult:
    """Anti-diagonal BPBC Smith-Waterman (paper's parallel listing).

    The paper assigns thread ``i`` to pattern row ``i``; here the row
    axis is an extra array dimension, so one circuit evaluation per
    diagonal step ``t`` advances all active rows *and* all lanes — the
    same dataflow the GPU kernel executes, with NumPy playing the
    CUDA block.

    State arrays are row-padded: plane index ``i`` stores DP row
    ``i`` with a permanent zero row at index 0, which makes every
    boundary read (``i - 1`` at the top, ``j - 1`` off the band) land
    on zeros without branching — mirroring how the paper's kernel
    feeds zeros into border threads.

    ``cell`` selects the circuit evaluator (see
    :func:`bpbc_sw_wavefront_planes` for the full list): ``"generic"``
    runs the paper-literal straight-line circuit and ``"compiled"``
    runs the :mod:`repro.jit` generated evaluator — the default when
    no op counter is requested.  Results are bit-identical across all
    evaluators; the op counter is only supported for ``"generic"``.
    """
    return bpbc_sw_wavefront_planes(
        np.stack([np.asarray(XL), np.asarray(XH)]),
        np.stack([np.asarray(YL), np.asarray(YH)]),
        scheme, word_bits, s=s, counter=counter, cell=cell,
    )


#: Valid ``cell=`` strings for the wavefront engines.
CELL_EVALUATORS = ("generic", "compiled", "compiled-c", "compiled-numpy")


def bpbc_sw_wavefront_planes(Xp, Yp, scheme: ScoringScheme,
                             word_bits: int, s: int | None = None,
                             counter: OpCounter | None = None,
                             cell: str | None = None) -> BPBCResult:
    """General-alphabet wavefront engine over character planes.

    ``Xp`` has shape ``(eps, m, lanes)`` and ``Yp`` ``(eps, n,
    lanes)``: plane ``b`` carries bit ``b`` of every character (LSB
    first — :meth:`repro.core.alphabet.Alphabet.batch_planes` produces
    exactly this).  DNA is the ``eps = 2`` case; protein search uses
    ``eps = 5`` at a cost of ``2 * eps`` extra operations per cell in
    the match-flag loop, nothing more.

    ``scheme`` may be a DNA-style :class:`~repro.swa.scoring.ScoringScheme`
    or a *linear* :class:`repro.core.protein.ProteinScheme` (one whose
    ``gap_open == gap_extend``) — the substitution mux tree of
    :mod:`repro.core.subst` then replaces the equality gate in every
    evaluator, including the compiled ones ("the compiler sees just a
    bigger netlist").  Affine protein schemes go through
    :func:`repro.core.affine_bpbc.bpbc_gotoh_wavefront_planes`.

    ``cell`` picks the circuit evaluator — all bit-identical; any
    name outside :data:`CELL_EVALUATORS` raises :class:`BitOpsError`:

    ``"generic"``
        The paper-literal straight-line circuit of
        :func:`repro.core.circuits.sw_cell`; the oracle, and the only
        evaluator that supports the op ``counter``.
    ``"compiled"`` / ``"compiled-c"`` / ``"compiled-numpy"``
        The :mod:`repro.jit` fused cell + running-max step, generated
        from the constant-folded netlist of
        :func:`repro.core.netlist.build_sw_cell_netlist` —
        ``"compiled"`` auto-selects the native backend when a C
        toolchain exists and the generated-NumPy backend otherwise;
        the suffixed forms force one backend.
    ``None`` (default)
        ``"compiled"``, unless a ``counter`` is supplied, in which
        case ``"generic"`` so op accounting keeps working.  The
        compiled evaluators are safe under concurrent callers (their
        scratch state is thread-local / stateless), so the default
        holds for serve's multi-threaded worker pool too.
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
    # Protein schemes carry a weights_key() substitution table; DNA-style
    # schemes carry c1/c2.  Duck-typed so this module never imports
    # repro.core.protein (which imports the engines).
    wk = None
    get_wk = getattr(scheme, "weights_key", None)
    if callable(get_wk):
        wk = get_wk()
        gap, c1, c2 = scheme.gap_penalty, None, None
    else:
        gap, c1, c2 = (scheme.gap_penalty, scheme.match_score,
                       scheme.mismatch_penalty)
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
        if wk is not None:
            step = jit.subst_wavefront_step(s, gap, wk, eps, word_bits,
                                            backend=backend)
        else:
            step = jit.sw_wavefront_step(s, gap, c1, c2, eps, word_bits,
                                         backend=backend)
        Xp = np.ascontiguousarray(Xp, dtype=dt)
        Yp = np.ascontiguousarray(Yp, dtype=dt)
    elif cell == "generic":
        if wk is not None:
            from .subst import subst_sw_cell

            def eval_cell(up, left, diag, x, y):
                return subst_sw_cell(up, left, diag, x, y, gap, wk,
                                     word_bits, counter)
        else:
            def eval_cell(up, left, diag, x, y):
                return sw_cell(up, left, diag, x, y, gap, c1, c2,
                               word_bits, counter)
    else:
        raise BitOpsError(
            f"unknown cell evaluator {cell!r}; expected one of "
            f"{CELL_EVALUATORS}"
        )
    # prev1/prev2[h, i+1, :] = row i's value on diagonals t-1 / t-2;
    # row padding keeps index 0 at zero forever.  The buffers double-
    # buffer with *no* per-diagonal copy: fresh planes land directly in
    # the destination rows of prev2 and the buffers swap roles.  Rows
    # outside the written band hold stale data, but the next diagonal
    # only ever reads the zero pad row, rows written this step, or
    # rows never written on either buffer (still zero) — the active
    # band's bounds are monotone in t, so retired rows are never read
    # again.
    if step is not None and step.backend == "c":
        best = step.run(Xp, Yp)
    else:
        prev1 = np.zeros((s, m + 1, lanes), dtype=dt)
        prev2 = np.zeros((s, m + 1, lanes), dtype=dt)
        best = np.zeros((s, m, lanes), dtype=dt)
        for t in range(m + n - 1):
            lo = max(0, t - n + 1)
            hi = min(m - 1, t)
            if step is not None:
                step(prev1, prev2, best, Xp, Yp, t, lo, hi)
            else:
                rows = slice(lo, hi + 1)   # active DP rows (0-based)
                up = slice(lo, hi + 1)     # padded index i -> row i-1
                dst = slice(lo + 1, hi + 2)  # padded index i+1 -> row i
                x = [Xp[b, rows] for b in range(eps)]
                y = [Yp[b, t - hi:t - lo + 1][::-1] for b in range(eps)]
                fresh = eval_cell(
                    [prev1[h, up] for h in range(s)],    # d[i-1][j]
                    [prev1[h, dst] for h in range(s)],   # d[i][j-1]
                    [prev2[h, up] for h in range(s)],    # d[i-1][j-1]
                    x, y,
                )
                for h in range(s):
                    prev2[h, dst] = fresh[h]
                new_best = max_b([best[h, rows] for h in range(s)], fresh,
                                 counter)
                for h in range(s):
                    best[h, rows] = new_best[h]
            prev1, prev2 = prev2, prev1
    final = reduce_max_rows(best, word_bits, counter, in_place=True)
    planes = np.stack(final)
    return BPBCResult(
        score_planes=planes,
        max_scores=ints_from_slices(planes, word_bits).astype(np.int64),
        s=s,
        word_bits=word_bits,
    )
