"""Tests for the survivor DP fill (repro.swa.traceback.fill_matrices)
against the pure-Python oracles, on the edge schemes and shapes.  Every
test runs on both fills: the default (the C kernel where a compiler
exists) and the numpy row scan it falls back to."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.swa.affine import AffineScheme, gotoh_matrix
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_matrix
from repro.swa.traceback import align, fill_matrices, weight_matrix

from ..oracles import gotoh_matrices, oracle_align

traceback_module = importlib.import_module("repro.swa.traceback")

codes = st.lists(st.integers(0, 3), min_size=1, max_size=12).map(
    lambda v: np.array(v, dtype=np.uint8))


def test_default_fill_is_native():
    from repro.jit import cc_available

    if not cc_available():
        pytest.skip("no C compiler on this machine")
    assert traceback_module._fill_kernel(np.dtype(np.int32)) is not None
    assert traceback_module._fill_kernel(np.dtype(np.int64)) is not None


class TestFillMatrices:
    def test_extend_above_open_rejected(self):
        kernel = traceback_module._fill_kernel
        kernel.cache_clear()
        with pytest.raises(ValueError, match="gap_extend"):
            fill_matrices(np.zeros((2, 2)), 1, 2)
        assert kernel.cache_info().misses == 0  # raised before any compile

    @pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (0, 0)])
    def test_empty_side_is_all_boundary(self, m, n):
        H, E, F = fill_matrices(np.zeros((m, n), dtype=np.int64), 3, 1)
        assert H.shape == E.shape == F.shape == (m + 1, n + 1)
        assert H.dtype == E.dtype == F.dtype == np.int32
        assert not (H.any() or E.any() or F.any())
        assert align("ACGTA"[:m], "ACGTA"[:n]).score == 0

    def test_scores_beyond_int32_widen(self):
        scheme = ScoringScheme(2**30, 1, 1)
        x, y = "ACGTACGT", "ACGTTACGT"
        H, E, F = fill_matrices(weight_matrix(x, y, scheme), 1, 1)
        assert H.dtype == E.dtype == F.dtype == np.int64
        np.testing.assert_array_equal(H, sw_matrix(x, y, scheme))
        for a, b in zip((H, E, F), gotoh_matrices(x, y, scheme)):
            np.testing.assert_array_equal(a, b)
        assert align(x, y, scheme).score == int(H.max()) > 2**31

    # TestNumpyScanFill inherits this test, hence two executors.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(x=codes, y=codes, match=st.integers(1, 4),
           mismatch=st.integers(0, 3), gap_open=st.integers(0, 4),
           extend_share=st.floats(0, 1))
    # gap = 0, mismatch = 0, length-1 inputs and m > n, pinned.
    @example(x=np.array([0, 1, 2, 3, 0], np.uint8),
             y=np.array([0, 2], np.uint8), match=2, mismatch=1,
             gap_open=0, extend_share=0.0)
    @example(x=np.array([1, 1, 3, 2], np.uint8),
             y=np.array([1, 3, 3], np.uint8), match=1, mismatch=0,
             gap_open=2, extend_share=1.0)
    @example(x=np.array([2], np.uint8), y=np.array([2], np.uint8),
             match=3, mismatch=0, gap_open=0, extend_share=0.0)
    @example(x=np.array([3], np.uint8), y=np.array([0, 3, 1], np.uint8),
             match=1, mismatch=2, gap_open=3, extend_share=0.5)
    def test_edge_schemes_match_oracles(self, x, y, match, mismatch,
                                        gap_open, extend_share):
        gap_extend = int(gap_open * extend_share)
        linear = ScoringScheme(match, mismatch, gap_open)
        affine = AffineScheme(match, mismatch, gap_open, gap_extend)
        for scheme, h_oracle, gaps in (
                (linear, sw_matrix, (gap_open, gap_open)),
                (affine, gotoh_matrix, (gap_open, gap_extend))):
            got = fill_matrices(weight_matrix(x, y, scheme), *gaps)
            want = gotoh_matrices(x, y, scheme)
            np.testing.assert_array_equal(got[0], h_oracle(x, y, scheme))
            for a, b in zip(got, want):
                assert a.dtype == np.int32
                np.testing.assert_array_equal(a, b)
            assert align(x, y, scheme) == oracle_align(
                x, y, scheme, matrices=want)


@pytest.mark.usefixtures("numpy_fill")
class TestNumpyScanFill(TestFillMatrices):
    """The same cases on the numpy row scan (no compiler)."""
