"""Tests for repro.jit.cells: cached cell factories and step kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitops import BitOpsError
from repro.core.bitsliced import BitSlicedUInt
from repro.core.netlist import build_sw_cell_netlist
from repro.jit import (
    CStep,
    JitError,
    NumpyStep,
    cc_available,
    compiled_sw_cell,
    sw_wavefront_step,
)
from repro.jit.cbackend import STEP_SYMBOL

needs_cc = pytest.mark.skipif(not cc_available(),
                              reason="no C compiler on this machine")


def _planes(vals, s, w=64):
    return list(BitSlicedUInt.from_ints(np.asarray(vals), s, w).data)


class TestCompiledSwCell:
    def test_memoised_same_object(self):
        assert compiled_sw_cell(8, 1, 2, 1) is compiled_sw_cell(8, 1, 2, 1)

    def test_numpy_ints_normalise(self):
        a = compiled_sw_cell(8, 1, 2, 1, word_bits=64)
        b = compiled_sw_cell(np.int64(8), np.uint8(1), np.int32(2),
                             np.int64(1), word_bits=np.int64(64))
        assert a is b

    def test_distinct_word_bits_distinct_objects(self):
        assert compiled_sw_cell(8, 1, 2, 1, word_bits=32) \
            is not compiled_sw_cell(8, 1, 2, 1, word_bits=64)

    def test_matches_netlist_evaluate(self, rng):
        s, P = 8, 150
        cell = compiled_sw_cell(s, 1, 2, 1, word_bits=64)
        net = build_sw_cell_netlist(s, 1, 2, 1)
        hi = (1 << s) - 2
        ins = {
            "up": _planes(rng.integers(0, hi, P), s),
            "left": _planes(rng.integers(0, hi, P), s),
            "diag": _planes(rng.integers(0, hi, P), s),
            "x": _planes(rng.integers(0, 4, P), 2),
            "y": _planes(rng.integers(0, 4, P), 2),
        }
        np.testing.assert_array_equal(
            np.stack(cell.evaluate(ins)),
            np.stack(net.evaluate(ins, word_bits=64)))


class TestSwWavefrontStep:
    def test_memoised_same_object(self):
        assert sw_wavefront_step(6, 1, 2, 1, 2, 64) \
            is sw_wavefront_step(6, 1, 2, 1, 2, 64)

    def test_unknown_backend_rejected(self):
        with pytest.raises(JitError):
            sw_wavefront_step(6, 1, 2, 1, 2, 64, backend="cuda")

    def test_numpy_backend(self):
        step = sw_wavefront_step(6, 1, 2, 1, 2, 64, backend="numpy")
        assert isinstance(step, NumpyStep)
        assert step.backend == "numpy"
        assert step.source.startswith("def ")

    @needs_cc
    def test_c_backend(self):
        step = sw_wavefront_step(6, 1, 2, 1, 2, 64, backend="c")
        assert isinstance(step, CStep)
        assert step.backend == "c"
        assert STEP_SYMBOL in step.source
        assert callable(step.fn)

    def test_auto_backend_resolves(self):
        step = sw_wavefront_step(7, 1, 2, 1, 2, 64, backend="auto")
        expected = CStep if cc_available() else NumpyStep
        assert isinstance(step, expected)


@needs_cc
class TestCStepContract:
    """The native sweep checks every buffer once, before the first
    kernel call: a plane the 4-word vector kernel would overrun must
    raise a typed error, not corrupt the heap."""

    S, EPS, M, N = 6, 2, 3, 5

    def _buffers(self, n_state, width):
        s, eps, m, n = self.S, self.EPS, self.M, self.N
        state = [np.zeros((s, m + 1, width), np.uint64)
                 for _ in range(n_state)]
        best = np.zeros((s, m, width), np.uint64)
        return (state, best, np.zeros((eps, m, width), np.uint64),
                np.zeros((eps, n, width), np.uint64))

    def _steps(self):
        from repro.jit import gotoh_wavefront_step

        return [(sw_wavefront_step(self.S, 1, 2, 1, self.EPS, 64,
                                   backend="c"), 2),
                (gotoh_wavefront_step(self.S, 3, 1, self.EPS, 64,
                                      backend="c", c1=2, c2=1), 4)]

    def test_padded_buffers_accepted(self):
        for step, n_state in self._steps():
            assert step.vec_words == 4
            step.sweep(*self._buffers(n_state, 2 * step.vec_words))

    def test_short_plane_raises(self):
        for step, n_state in self._steps():
            v = step.vec_words
            state, best, xp, yp = self._buffers(n_state, v)
            state[1] = state[1][..., :1].copy()  # one word, not four
            with pytest.raises(BitOpsError, match=r"state\[1\]"):
                step.sweep(state, best, xp, yp)

    def test_lane_axis_not_a_vector_multiple_raises(self):
        for step, n_state in self._steps():
            bufs = self._buffers(n_state, 3)
            with pytest.raises(BitOpsError, match="multiple of 4"):
                step.sweep(*bufs)

    def test_wrong_dtype_or_layout_raises(self):
        for step, n_state in self._steps():
            state, best, xp, yp = self._buffers(n_state, 4)
            with pytest.raises(BitOpsError, match="Xp"):
                step.sweep(state, best, xp.astype(np.uint32), yp)
            wide = np.zeros((self.EPS, self.N, 8), np.uint64)
            with pytest.raises(BitOpsError, match="non-contiguous"):
                step.sweep(state, best, xp, wide[..., ::2])
            with pytest.raises(BitOpsError, match="state planes"):
                step.sweep(state[:1], best, xp, yp)

    def test_run_pads_and_slices_lanes(self):
        """``run`` hands the kernel padded planes and returns exactly
        the caller's lane count."""
        step, _ = self._steps()[0]
        xp = np.zeros((self.EPS, self.M, 5), np.uint64)
        yp = np.zeros((self.EPS, self.N, 5), np.uint64)
        assert step.run(xp, yp).shape == (self.S, self.M, 5)
