"""Compiled SW-cell factories and the fused wavefront step.

:func:`compiled_sw_cell`
    LRU-cached ``(s, gap, c1, c2, eps, word_bits)`` →
    :class:`~repro.jit.compiler.CompiledNetlist` of the plain SW-cell
    circuit — a drop-in for ``build_sw_cell_netlist(...).evaluate``.

:func:`sw_wavefront_step`
    LRU-cached factory for the engine's hot loop: the SW cell *fused*
    with the running-max update
    (:func:`repro.core.netlist.build_sw_cell_best_netlist`), lowered to
    either a native step kernel (``backend="c"``, via
    :mod:`repro.jit.cbackend`) or a generated zero-alloc NumPy function
    (``backend="numpy"``).  ``backend="auto"`` prefers native and
    silently falls back when no C toolchain is available — results are
    bit-identical either way (pinned by the differential fuzz suite).

Both caches key on plain ints, so repeated engine calls reuse the same
compiled artifact instead of re-synthesising and re-lowering the
circuit.  Memoisation makes the artifacts process-wide shared objects,
and both are safe to call concurrently: the C kernel is stateless, and
the generated-NumPy evaluator keeps its scratch pools in thread-local
storage (see :class:`~repro.jit.compiler.CompiledNetlist`), which is
what lets serve's multi-threaded ``EnginePool`` drive them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.bitops import BitOpsError, word_dtype
from ..core.netlist import (build_gotoh_cell_best_netlist,
                            build_subst_sw_cell_best_netlist,
                            build_sw_cell_best_netlist,
                            build_sw_cell_netlist)
from . import cbackend
from .compiler import CompiledNetlist, JitError, plan_netlist

__all__ = ["compiled_sw_cell", "sw_wavefront_step",
           "subst_wavefront_step", "gotoh_wavefront_step", "NumpyStep",
           "CStep", "GotohNumpyStep"]


@lru_cache(maxsize=128)
def _compiled_sw_cell_cached(s: int, gap: int, c1: int, c2: int,
                             eps: int, word_bits: int) -> CompiledNetlist:
    net = build_sw_cell_netlist(s, gap, c1, c2, eps=eps)
    return CompiledNetlist(net, word_bits, name=f"sw_cell[s={s}]")


def compiled_sw_cell(s: int, gap: int, c1: int, c2: int, eps: int = 2,
                     word_bits: int = 64) -> CompiledNetlist:
    """A compiled SW-cell evaluator (memoised per parameter tuple).

    Repeated calls with equal parameters return the *same*
    :class:`~repro.jit.compiler.CompiledNetlist` — its temporary pools
    warm up once per process, after which every evaluation is
    allocation-free.
    """
    return _compiled_sw_cell_cached(int(s), int(gap), int(c1), int(c2),
                                    int(eps), int(word_bits))


class NumpyStep:
    """One fused wavefront step via the generated-NumPy evaluator.

    Calling convention matches the zero-copy engine loop: ``p1``/``p2``
    are the ``(s, m + 1, lanes)`` row-padded state planes of diagonals
    ``t - 1`` / ``t - 2`` (padded row 0 permanently zero), ``best`` the
    ``(s, m, lanes)`` running maxima, ``Xp``/``Yp`` the character
    planes.  Fresh cell planes are written straight into the
    destination rows of ``p2`` and the new maxima into ``best`` — the
    compiled function computes everything into pooled temporaries
    before its trailing output copies, so the in-place aliasing is
    safe.
    """

    backend = "numpy"

    def __init__(self, compiled: CompiledNetlist, s: int, eps: int) -> None:
        self.compiled = compiled
        self.source = compiled.source
        self._s = s
        self._eps = eps

    def __call__(self, p1: np.ndarray, p2: np.ndarray, best: np.ndarray,
                 Xp: np.ndarray, Yp: np.ndarray,
                 t: int, lo: int, hi: int) -> None:
        s, eps = self._s, self._eps
        up = slice(lo, hi + 1)          # padded index i  -> row i - 1
        dst = slice(lo + 1, hi + 2)     # padded index i + 1 -> row i
        # Row r of the active band aligns with y position t - r; the
        # reversed slice view realises that gather with no copy.
        ins = ([p1[h, up] for h in range(s)]
               + [p1[h, dst] for h in range(s)]
               + [p2[h, up] for h in range(s)]
               + [Xp[b, up] for b in range(eps)]
               + [Yp[b, t - hi:t - lo + 1][::-1] for b in range(eps)]
               + [best[h, up] for h in range(s)])
        outs = ([p2[h, dst] for h in range(s)]
                + [best[h, up] for h in range(s)])
        self.compiled.run(ins, outs)


class CStep:
    """One fused wavefront step as a native kernel (see cbackend).

    Unlike the NumPy steps, which the engine calls once per diagonal,
    a ``CStep`` drives the whole sweep itself: :meth:`run` owns the
    lane padding the kernel contract needs, for the linear and the
    Gotoh engine alike (``n_state`` is 2 for ``p1``/``p2``, 4 for
    ``h1``/``h2``/``e``/``f``).
    """

    backend = "c"

    def __init__(self, fn, source: str, s: int, eps: int, word_bits: int,
                 n_state: int) -> None:
        self.fn = fn
        self.source = source
        self.vec_words = cbackend.vec_words(word_bits)
        self._s = s
        self._eps = eps
        self._dtype = word_dtype(word_bits)
        self._n_state = n_state

    def run(self, Xp: np.ndarray, Yp: np.ndarray) -> np.ndarray:
        """Sweep every anti-diagonal of ``(eps, m, lanes)`` /
        ``(eps, n, lanes)`` character planes from zero state; return
        the ``(s, m, lanes)`` running maxima (a view).

        State, ``best`` and the character planes are allocated at
        ``lanes`` rounded up to a multiple of :attr:`vec_words`; the
        zero pad lanes score 0 and are sliced off again.
        """
        _, m, lanes = Xp.shape
        v = self.vec_words
        width = -(-lanes // v) * v
        Xp, Yp = _pad_lanes(Xp, width, self._dtype), \
            _pad_lanes(Yp, width, self._dtype)
        state = [np.zeros((self._s, m + 1, width), self._dtype)
                 for _ in range(self._n_state)]
        best = np.zeros((self._s, m, width), self._dtype)
        self.sweep(state, best, Xp, Yp)
        return best[..., :lanes]

    def sweep(self, state: list[np.ndarray], best: np.ndarray,
              Xp: np.ndarray, Yp: np.ndarray) -> None:
        """Call the kernel on diagonals ``0 .. m + n - 2`` in place,
        swapping ``state[0]``/``state[1]`` after each.

        Every buffer is checked once, before the first call: an
        out-of-bounds vector access would corrupt the heap silently,
        so any dtype, contiguity or shape mismatch (including a last
        axis that is not ``L * vec_words``) raises
        :class:`~repro.core.bitops.BitOpsError` instead.
        """
        L = self._check(state, best, Xp, Yp)
        m, n = Xp.shape[1], Yp.shape[1]
        a1, a2 = state[0].ctypes.data, state[1].ctypes.data
        rest = [a.ctypes.data for a in (*state[2:], best, Xp, Yp)]
        fn = self.fn
        for t in range(m + n - 1):
            lo = t - n + 1 if t >= n else 0
            hi = m - 1 if t >= m else t
            fn(a1, a2, *rest, t, lo, hi, m, n, L)
            a1, a2 = a2, a1

    def _check(self, state, best, Xp, Yp) -> int:
        bufs = [*state, best, Xp, Yp]
        if len(state) != self._n_state or any(
                not isinstance(a, np.ndarray) or a.ndim != 3
                for a in bufs):
            raise BitOpsError(
                f"C step expects {self._n_state} state planes, best, Xp "
                "and Yp, each a 3-d array")
        s, eps, v = self._s, self._eps, self.vec_words
        m, n, width = Xp.shape[1], Yp.shape[1], best.shape[2]
        if width % v:
            raise BitOpsError(f"C step lane axis {width} is not a "
                              f"multiple of {v} words")
        shapes = ([(s, m + 1, width)] * len(state)
                  + [(s, m, width), (eps, m, width), (eps, n, width)])
        names = ([f"state[{i}]" for i in range(len(state))]
                 + ["best", "Xp", "Yp"])
        for name, a, shape in zip(names, bufs, shapes):
            if a.shape != shape or a.dtype != self._dtype \
                    or not a.flags.c_contiguous:
                raise BitOpsError(
                    f"C step buffer {name}: got {a.shape} {a.dtype}"
                    f"{'' if a.flags.c_contiguous else ' non-contiguous'}"
                    f", kernel needs C-contiguous {shape} {self._dtype}")
        return width // v


def _pad_lanes(a: np.ndarray, width: int, dtype) -> np.ndarray:
    """``a`` as a C-contiguous ``dtype`` array whose last axis is
    zero-padded to ``width``."""
    if a.shape[-1] == width:
        return np.ascontiguousarray(a, dtype=dtype)
    out = np.zeros(a.shape[:-1] + (width,), dtype)
    out[..., :a.shape[-1]] = a
    return out


@lru_cache(maxsize=64)
def _step_cached(s: int, gap: int, c1: int, c2: int, eps: int,
                 word_bits: int, backend: str):
    net = build_sw_cell_best_netlist(s, gap, c1, c2, eps=eps)
    if backend in ("auto", "c"):
        try:
            plan = plan_netlist(net)
            source = cbackend.c_step_source(plan, s, eps, word_bits)
            return CStep(cbackend.compile_step(source), source, s, eps,
                         word_bits, n_state=2)
        except JitError:
            if backend == "c":
                raise
    compiled = CompiledNetlist(net, word_bits,
                               name=f"sw_cell_best[s={s}]")
    return NumpyStep(compiled, s, eps)


def sw_wavefront_step(s: int, gap: int, c1: int, c2: int, eps: int,
                      word_bits: int, backend: str = "auto"):
    """The fused cell + running-max step for one scoring configuration.

    ``backend``: ``"auto"`` (native when a C compiler is present,
    NumPy otherwise), ``"c"`` (native or raise
    :class:`~repro.jit.compiler.JitError`), or ``"numpy"``.  Returns a
    :class:`CStep` or :class:`NumpyStep`; inspect ``.backend`` and
    ``.source``.  Memoised — one lowering per configuration per
    process.
    """
    _check_backend(backend)
    return _step_cached(int(s), int(gap), int(c1), int(c2), int(eps),
                        int(word_bits), backend)


def _check_backend(backend: str) -> None:
    if backend not in ("auto", "c", "numpy"):
        raise JitError(
            f"unknown jit backend {backend!r}; expected 'auto', 'c', "
            "or 'numpy'"
        )


@lru_cache(maxsize=64)
def _subst_step_cached(s: int, gap: int, weights, eps: int,
                       word_bits: int, backend: str):
    net = build_subst_sw_cell_best_netlist(s, gap, weights, eps=eps)
    if backend in ("auto", "c"):
        try:
            plan = plan_netlist(net)
            source = cbackend.c_step_source(plan, s, eps, word_bits)
            return CStep(cbackend.compile_step(source), source, s, eps,
                         word_bits, n_state=2)
        except JitError:
            if backend == "c":
                raise
    compiled = CompiledNetlist(net, word_bits,
                               name=f"subst_sw_cell_best[s={s}]")
    return NumpyStep(compiled, s, eps)


def subst_wavefront_step(s: int, gap: int, weights, eps: int,
                         word_bits: int, backend: str = "auto"):
    """The fused substitution-matrix cell + running-max step.

    Identical calling convention and bus layout to
    :func:`sw_wavefront_step` — the mux tree of
    :mod:`repro.core.subst` replaces the equality gate, so the same C
    emitter and NumPy evaluator lower it unchanged ("the compiler sees
    just a bigger netlist").  ``weights`` is any square int table;
    memoised per hashable table form.
    """
    from ..core.subst import weights_key

    _check_backend(backend)
    return _subst_step_cached(int(s), int(gap), weights_key(weights),
                              int(eps), int(word_bits), backend)


class GotohNumpyStep:
    """One fused affine wavefront step via the generated-NumPy evaluator.

    ``h1``/``h2`` double-buffer the H planes exactly like the linear
    step's ``p1``/``p2``; ``e``/``f`` are single-buffered
    ``(s, m + 1, lanes)`` planes updated in place (safe because the
    compiled function finishes every read before its trailing output
    copies).  The caller swaps ``h1``/``h2`` after each step.
    """

    backend = "numpy"

    def __init__(self, compiled: CompiledNetlist, s: int, eps: int) -> None:
        self.compiled = compiled
        self.source = compiled.source
        self._s = s
        self._eps = eps

    def __call__(self, h1: np.ndarray, h2: np.ndarray, e: np.ndarray,
                 f: np.ndarray, best: np.ndarray,
                 Xp: np.ndarray, Yp: np.ndarray,
                 t: int, lo: int, hi: int) -> None:
        s, eps = self._s, self._eps
        up = slice(lo, hi + 1)          # padded index i  -> row i - 1
        dst = slice(lo + 1, hi + 2)     # padded index i + 1 -> row i
        ins = ([h1[h, dst] for h in range(s)]       # H[i][j-1]
               + [e[h, dst] for h in range(s)]      # E[i][j-1]
               + [h1[h, up] for h in range(s)]      # H[i-1][j]
               + [f[h, up] for h in range(s)]       # F[i-1][j]
               + [h2[h, up] for h in range(s)]      # H[i-1][j-1]
               + [Xp[b, up] for b in range(eps)]
               + [Yp[b, t - hi:t - lo + 1][::-1] for b in range(eps)]
               + [best[h, up] for h in range(s)])
        outs = ([h2[h, dst] for h in range(s)]
                + [e[h, dst] for h in range(s)]
                + [f[h, dst] for h in range(s)]
                + [best[h, up] for h in range(s)])
        self.compiled.run(ins, outs)


@lru_cache(maxsize=64)
def _gotoh_step_cached(s: int, go: int, ge: int, c1, c2, weights,
                       eps: int, word_bits: int, backend: str):
    net = build_gotoh_cell_best_netlist(s, go, ge, c1=c1, c2=c2,
                                        weights=weights, eps=eps)
    if backend in ("auto", "c"):
        try:
            plan = plan_netlist(net)
            source = cbackend.c_gotoh_step_source(plan, s, eps, word_bits)
            fn = cbackend.compile_step(source,
                                       symbol=cbackend.GOTOH_STEP_SYMBOL,
                                       num_ptr_args=7)
            return CStep(fn, source, s, eps, word_bits, n_state=4)
        except JitError:
            if backend == "c":
                raise
    compiled = CompiledNetlist(net, word_bits,
                               name=f"gotoh_cell_best[s={s}]")
    return GotohNumpyStep(compiled, s, eps)


def gotoh_wavefront_step(s: int, gap_open: int, gap_extend: int,
                         eps: int, word_bits: int,
                         backend: str = "auto", c1: int | None = None,
                         c2: int | None = None, weights=None):
    """The fused affine (Gotoh) cell + running-max step.

    The diagonal term is the DNA equality gate with ``c1``/``c2`` or
    the substitution mux tree with ``weights`` (exactly one of the
    two).  Returns a :class:`CStep` (seven-pointer native kernel, see
    :func:`repro.jit.cbackend.c_gotoh_step_source`) or a
    :class:`GotohNumpyStep`.  Memoised per configuration.
    """
    from ..core.subst import weights_key

    _check_backend(backend)
    wk = None if weights is None else weights_key(weights)
    c1i = None if c1 is None else int(c1)
    c2i = None if c2 is None else int(c2)
    return _gotoh_step_cached(int(s), int(gap_open), int(gap_extend),
                              c1i, c2i, wk, int(eps), int(word_bits),
                              backend)
