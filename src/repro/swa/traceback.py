"""Traceback and local-alignment extraction for Smith-Waterman.

The BPBC pipeline reports only the maximum score per pair; pairs whose
score passes the threshold are re-aligned here on the CPU, as the paper
prescribes (§III: "Once such strings are identified, a detailed
matching can be computed by a conventional SWA on the CPU, where the
score and traceback matrices can be used to identify similar regions").
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scoring import ScoringScheme

__all__ = ["Alignment", "weight_matrix", "fill_matrices", "traceback",
           "gotoh_traceback", "align", "format_alignment"]

#: Traceback direction codes.
_STOP, _DIAG, _UP, _LEFT = 0, 1, 2, 3


@dataclass(frozen=True)
class Alignment:
    """A local alignment between two sequences.

    ``x_start``/``x_end`` and ``y_start``/``y_end`` are half-open
    0-based ranges into the original sequences; ``aligned_x`` /
    ``aligned_y`` are the gapped alignment rows (``-`` = gap) and
    ``score`` the Smith-Waterman score of the region.
    """

    score: int
    x_start: int
    x_end: int
    y_start: int
    y_end: int
    aligned_x: str
    aligned_y: str

    @property
    def length(self) -> int:
        """Number of alignment columns (including gaps)."""
        return len(self.aligned_x)

    @property
    def identity(self) -> float:
        """Fraction of alignment columns that are exact matches."""
        if not self.aligned_x:
            return 0.0
        matches = sum(
            1 for a, b in zip(self.aligned_x, self.aligned_y)
            if a == b and a != "-"
        )
        return matches / len(self.aligned_x)


def weight_matrix(x, y, scheme) -> np.ndarray:
    """The ``(m, n)`` substitution weights ``W[i, j]`` of ``x_i``
    against ``y_j``.

    :func:`fill_matrices` fills from ``W`` and the walks read it back,
    so the two can never disagree on a weight.  A
    :class:`~repro.core.protein.ProteinScheme` indexes its padded
    weight table (strings are encoded through the scheme's alphabet),
    so wildcard and sentinel codes score exactly as in the bulk
    engines; DNA schemes score ``match_score`` on equal items and
    ``-mismatch_penalty`` otherwise.
    """
    a, b = _items(x, scheme), _items(y, scheme)
    if callable(getattr(scheme, "weights_key", None)):
        from ..core.protein import padded_weight_table

        return padded_weight_table(scheme)[np.ix_(a, b)]
    return np.where(a[:, None] == b[None, :], scheme.match_score,
                    -scheme.mismatch_penalty)


def _items(seq, scheme) -> np.ndarray:
    """``seq`` as an array of comparable items: code arrays as they
    are, strings as alphabet codes (protein) or as code points (DNA,
    compared character for character)."""
    protein = callable(getattr(scheme, "weights_key", None))
    if isinstance(seq, str):
        if protein:
            return scheme.alphabet.encode(seq)
        return np.frombuffer(seq.encode("utf-32-le"), dtype=np.uint32)
    return np.asarray(seq, dtype=np.intp) if protein else np.asarray(seq)


#: The survivor DP fill in C: a scalar Gotoh recurrence over row-major
#: ``(m+1, n+1)`` matrices whose boundary row and column the caller
#: zeroed, with zero-clamped E/F (linear gaps run as ``go == ge``).
#: One fixed source with an int32 and an int64 symbol, compiled once
#: per machine through :func:`repro.jit.cbackend.compile_kernel`.
_FILL_BODY = """
void repro_fill_{name}(const {T}* restrict w, {T}* restrict H,
                       {T}* restrict E, {T}* restrict F,
                       long m, long n, long gap_open, long gap_extend)
{{
    const {T} go = ({T})gap_open, ge = ({T})gap_extend;
    const long s = n + 1;
    for (long i = 1; i <= m; ++i) {{
        const {T}* wr = w + (i - 1) * n;
        const {T}* hu = H + (i - 1) * s;
        const {T}* fu = F + (i - 1) * s;
        {T}* h = H + i * s;
        {T}* e = E + i * s;
        {T}* f = F + i * s;
        {T} hl = 0, el = 0;
        for (long j = 1; j <= n; ++j) {{
            const {T} ev = MAX(MAX(hl - go, el - ge), 0);
            const {T} fv = MAX(MAX(hu[j] - go, fu[j] - ge), 0);
            const {T} hv = MAX(MAX(hu[j - 1] + wr[j - 1], 0), MAX(ev, fv));
            e[j] = el = ev;
            f[j] = fv;
            h[j] = hl = hv;
        }}
    }}
}}
"""

_FILL_SOURCE = ("#include <stdint.h>\n"
                "#define MAX(a, b) ((a) > (b) ? (a) : (b))\n") + "".join(
    _FILL_BODY.format(name=t, T=f"{t}_t") for t in ("int32", "int64"))


@lru_cache(maxsize=None)
def _fill_kernel(dtype: np.dtype):
    """The native fill for ``dtype``, or ``None`` when no compiler is
    present or the compile or load fails (the numpy scan takes over)."""
    from ..jit import JitError, cbackend

    try:
        return cbackend.compile_kernel(
            _FILL_SOURCE, f"repro_fill_{dtype.name}",
            [ctypes.c_void_p] * 4 + [ctypes.c_long] * 4)
    except JitError:
        return None


def fill_matrices(W: np.ndarray, gap_open: int, gap_extend: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(H, E, F)`` local-alignment DP over weights ``W``.

    Each matrix is ``(m+1) x (n+1)`` with the zero boundary row and
    column and zero-clamped E/F: cell for cell what the pure-Python
    oracles (:func:`~repro.swa.sequential.sw_matrix`,
    :func:`~repro.swa.affine.gotoh_matrix`,
    :func:`~repro.core.protein.subst_gotoh_matrix`) compute, with
    linear gaps as ``gap_open == gap_extend``.  Values are int32 (half
    the memory traffic) unless some intermediate could leave that
    range, then int64.  The fill is the C kernel ``_FILL_SOURCE`` when
    a compiler is present, compiled lazily on the first call, and
    :func:`_scan_fill` otherwise; the two are cell-identical.
    """
    if gap_extend > gap_open:
        raise ValueError(
            f"gap_extend must not exceed gap_open ({gap_extend} > "
            f"{gap_open}); the numpy row-scan fill relies on it")
    W = np.asarray(W)
    m, n = W.shape
    bound = (int(np.abs(W).max(initial=0)) * (min(m, n) + 1)
             + gap_open + gap_extend * n)
    dtype = np.dtype(np.int32 if bound < 2**31 else np.int64)
    W = np.ascontiguousarray(W, dtype=dtype)
    H = np.zeros((m + 1, n + 1), dtype=dtype)
    E = np.zeros_like(H)
    F = np.zeros_like(H)
    if m == 0 or n == 0:
        return H, E, F
    kernel = _fill_kernel(dtype)
    if kernel is None:
        _scan_fill(W, gap_open, gap_extend, H, E, F)
    else:
        kernel(W.ctypes.data, H.ctypes.data, E.ctypes.data,
               F.ctypes.data, m, n, int(gap_open), int(gap_extend))
    return H, E, F


def _scan_fill(W, gap_open, gap_extend, H, E, F) -> None:
    """Fill the zeroed ``(H, E, F)`` in place, one numpy row at a time.

    In row ``i``, F and ``H' = max(0, F, H[i-1, j-1] + W[i-1, j-1])``
    are elementwise.  The in-row recurrence ``E[j] = max(0, H[j-1] -
    go, E[j-1] - ge)`` unrolls to ``max(0, max_{k<j}(H'[k] + ge*k) - go
    - ge*(j-1))``, one ``np.maximum.accumulate``: a gap run re-opened
    from an E cell never beats the run opened from the H' cell that
    started it, because ``gap_open >= gap_extend``.  This is Snytsar's
    lazy-F loop (arXiv:1909.00899) turned into a prefix scan.
    """
    m, n = W.shape
    ramp = gap_extend * np.arange(n, dtype=W.dtype)
    opened = ramp + gap_open
    scan = np.empty(n, dtype=W.dtype)
    for i in range(1, m + 1):
        h, e, f = H[i, 1:], E[i, 1:], F[i, 1:]
        np.maximum(H[i - 1, 1:] - gap_open, F[i - 1, 1:] - gap_extend,
                   out=f)
        np.maximum(f, 0, out=f)
        np.add(H[i - 1, :-1], W[i - 1], out=h)
        np.maximum(h, f, out=h)
        np.maximum(h, 0, out=h)
        # scan[k] = H'[i, k] + ge*k over k = 0..n-1 (H'[i, 0] = 0).
        scan[0] = 0
        np.add(h[:-1], ramp[1:], out=scan[1:])
        np.maximum.accumulate(scan, out=scan)
        np.subtract(scan, opened, out=e)
        np.maximum(e, 0, out=e)
        np.maximum(h, e, out=h)


def traceback(d: np.ndarray, W: np.ndarray, x, y, scheme: ScoringScheme,
              end: tuple[int, int] | None = None) -> Alignment:
    """Trace one optimal linear-gap local alignment back from ``end``.

    ``d`` is the ``(m+1) x (n+1)`` H matrix filled from the weights
    ``W`` (:func:`weight_matrix`) by :func:`fill_matrices` or the
    :func:`repro.swa.sequential.sw_matrix` oracle; ``x``/``y`` spell
    the alignment rows; ``end`` defaults to the argmax cell.  Ties are
    broken diagonal-first (the conventional choice, preferring
    substitutions over gaps).
    """
    m, n = len(x), len(y)
    if d.shape != (m + 1, n + 1):
        raise ValueError(
            f"matrix shape {d.shape} does not fit sequences "
            f"({m + 1} x {n + 1} expected)"
        )
    if end is None:
        flat = int(np.argmax(d))
        end = (flat // (n + 1), flat % (n + 1))
    i, j = end
    score = int(d[i, j])
    gap = scheme.gap_penalty
    ax: list[str] = []
    ay: list[str] = []
    x_end, y_end = i, j
    while i > 0 and j > 0 and d[i, j] > 0:
        here = d[i, j]
        if here == d[i - 1, j - 1] + W[i - 1, j - 1]:
            ax.append(str(x[i - 1]))
            ay.append(str(y[j - 1]))
            i -= 1
            j -= 1
        elif here == d[i - 1, j] - gap:
            ax.append(str(x[i - 1]))
            ay.append("-")
            i -= 1
        elif here == d[i, j - 1] - gap:
            ax.append("-")
            ay.append(str(y[j - 1]))
            j -= 1
        else:  # pragma: no cover - would indicate a corrupted matrix
            raise ValueError(
                f"inconsistent scoring matrix at cell ({i}, {j})"
            )
    return Alignment(
        score=score,
        x_start=i,
        x_end=x_end,
        y_start=j,
        y_end=y_end,
        aligned_x="".join(reversed(ax)),
        aligned_y="".join(reversed(ay)),
    )


def gotoh_traceback(matrices, W: np.ndarray, x, y, scheme,
                    end: tuple[int, int] | None = None) -> Alignment:
    """Trace one optimal affine-gap local alignment back from ``end``.

    ``scheme`` is an :class:`~repro.swa.affine.AffineScheme` or a
    :class:`~repro.core.protein.ProteinScheme`; ``matrices`` the
    ``(H, E, F)`` triple of the Gotoh DP (zero-clamped E/F) that
    :func:`fill_matrices` filled from the weights ``W``; ``x``/``y``
    spell the alignment rows.  The trace is a three-state machine over
    H/E/F: in H, diagonal steps are preferred (substitutions over
    gaps) and gap runs are entered through E (gap in ``x``) before F
    (gap in ``y``); inside E/F the run extends until the opening step
    pays ``gap_open`` back into H.
    """
    m, n = len(x), len(y)
    H, E, F = matrices
    if H.shape != (m + 1, n + 1):
        raise ValueError(
            f"matrix shape {H.shape} does not fit sequences "
            f"({m + 1} x {n + 1} expected)"
        )
    if end is None:
        flat = int(np.argmax(H))
        end = (flat // (n + 1), flat % (n + 1))
    i, j = end
    score = int(H[i, j])
    go, ge = scheme.gap_open, scheme.gap_extend
    ax: list[str] = []
    ay: list[str] = []
    x_end, y_end = i, j
    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            here = H[i, j]
            if here == 0:
                break
            if here == H[i - 1, j - 1] + W[i - 1, j - 1]:
                ax.append(str(x[i - 1]))
                ay.append(str(y[j - 1]))
                i -= 1
                j -= 1
            elif here == E[i, j]:
                state = "E"
            elif here == F[i, j]:
                state = "F"
            else:  # pragma: no cover - corrupted matrices
                raise ValueError(
                    f"inconsistent Gotoh matrices at cell ({i}, {j})"
                )
        elif state == "E":
            here = E[i, j]
            ax.append("-")
            ay.append(str(y[j - 1]))
            if here == H[i, j - 1] - go:
                state = "H"
            elif here != E[i, j - 1] - ge:  # pragma: no cover
                raise ValueError(
                    f"inconsistent E matrix at cell ({i}, {j})"
                )
            j -= 1
        else:  # state == "F"
            here = F[i, j]
            ax.append(str(x[i - 1]))
            ay.append("-")
            if here == H[i - 1, j] - go:
                state = "H"
            elif here != F[i - 1, j] - ge:  # pragma: no cover
                raise ValueError(
                    f"inconsistent F matrix at cell ({i}, {j})"
                )
            i -= 1
    return Alignment(
        score=score,
        x_start=i,
        x_end=x_end,
        y_start=j,
        y_end=y_end,
        aligned_x="".join(reversed(ax)),
        aligned_y="".join(reversed(ay)),
    )


def align(x, y, scheme=None) -> Alignment:
    """Best local alignment of ``x`` against ``y`` under any scheme.

    ``x``/``y`` are strings or code arrays; the alignment rows spell
    code arrays in the scheme's letters.  One :func:`weight_matrix`
    feeds :func:`fill_matrices` and the walk: a linear
    :class:`~repro.swa.scoring.ScoringScheme` walks ``H`` with
    :func:`traceback`; affine DNA and protein schemes walk ``(H, E,
    F)`` with :func:`gotoh_traceback`.
    """
    from .scoring import DEFAULT_SCHEME

    scheme = scheme or DEFAULT_SCHEME
    W = weight_matrix(x, y, scheme)
    x, y = _letters(x, scheme), _letters(y, scheme)
    if hasattr(scheme, "gap_open"):
        matrices = fill_matrices(W, scheme.gap_open, scheme.gap_extend)
        return gotoh_traceback(matrices, W, x, y, scheme)
    gap = scheme.gap_penalty
    return traceback(fill_matrices(W, gap, gap)[0], W, x, y, scheme)


def _letters(seq, scheme) -> str:
    """``seq`` spelled in the scheme's alphabet (strings as they are)."""
    if isinstance(seq, str):
        return seq
    alphabet = getattr(scheme, "alphabet", None)
    if alphabet is not None:
        return alphabet.decode(seq)
    from ..core.encoding import decode

    return decode(seq)


def format_alignment(a: Alignment) -> str:
    """Three-row pretty print: query, match bars, subject."""
    bars = "".join(
        "|" if p == q and p != "-" else " "
        for p, q in zip(a.aligned_x, a.aligned_y)
    )
    return (
        f"score={a.score} x[{a.x_start}:{a.x_end}] "
        f"y[{a.y_start}:{a.y_end}] identity={a.identity:.2f}\n"
        f"  {a.aligned_x}\n  {bars}\n  {a.aligned_y}"
    )
