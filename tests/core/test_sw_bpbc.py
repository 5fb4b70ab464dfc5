"""Tests for repro.core.sw_bpbc: the bulk Smith-Waterman engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.affine_bpbc import bpbc_gotoh_wavefront_planes
from repro.core.bitops import BitOpsError, OpCounter
from repro.core.bitsliced import BitSlicedUInt
from repro.core.circuits import max_b_ops, sw_cell_ops_exact
from repro.core.encoding import encode_batch_bit_transposed
from repro.core.sw_bpbc import (
    CELL_EVALUATORS,
    bpbc_sw_sequential,
    bpbc_sw_wavefront,
    reduce_max_rows,
)
from repro.swa.affine import AffineScheme
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score

from ..conftest import ALL_WIDTHS, MAIN_WIDTHS

SCHEME = ScoringScheme(match_score=2, mismatch_penalty=1, gap_penalty=1)


def _planes(rng, P, m, n, w):
    X = rng.integers(0, 4, (P, m), dtype=np.uint8)
    Y = rng.integers(0, 4, (P, n), dtype=np.uint8)
    XH, XL = encode_batch_bit_transposed(X, w)
    YH, YL = encode_batch_bit_transposed(Y, w)
    return X, Y, XH, XL, YH, YL


def _gold(X, Y, scheme=SCHEME):
    return np.array([sw_max_score(x, y, scheme) for x, y in zip(X, Y)])


class TestSequentialEngine:
    @pytest.mark.parametrize("w", ALL_WIDTHS)
    def test_matches_gold(self, rng, w):
        X, Y, XH, XL, YH, YL = _planes(rng, 2 * w + 3, 5, 11, w)
        r = bpbc_sw_sequential(XH, XL, YH, YL, SCHEME, w)
        np.testing.assert_array_equal(r.max_scores[:len(X)], _gold(X, Y))

    def test_full_matrix_matches_gold(self, rng):
        from repro.core.bitsliced import ints_from_slices
        from repro.swa.sequential import sw_matrix

        X, Y, XH, XL, YH, YL = _planes(rng, 4, 4, 7, 32)
        r = bpbc_sw_sequential(XH, XL, YH, YL, SCHEME, 32,
                               keep_matrix=True)
        planes = r.matrix_planes
        for p in range(4):
            want = sw_matrix(X[p], Y[p], SCHEME)
            for i in range(5):
                for j in range(8):
                    got = ints_from_slices(planes[:, i, j, :], 32)[p]
                    assert got == want[i, j], (p, i, j)

    def test_op_count_per_cell(self, rng):
        m, n = 3, 5
        _, _, XH, XL, YH, YL = _planes(rng, 32, m, n, 32)
        c = OpCounter()
        r = bpbc_sw_sequential(XH, XL, YH, YL, SCHEME, 32, counter=c)
        s = r.s
        per_cell = sw_cell_ops_exact(s, 2) + max_b_ops(s)
        assert c.ops == m * n * per_cell

    def test_default_score_width(self, rng):
        _, _, XH, XL, YH, YL = _planes(rng, 8, 6, 9, 32)
        r = bpbc_sw_sequential(XH, XL, YH, YL, SCHEME, 32)
        assert r.s == SCHEME.score_bits(6, 9)

    def test_explicit_score_width(self, rng):
        _, _, XH, XL, YH, YL = _planes(rng, 8, 4, 6, 32)
        r = bpbc_sw_sequential(XH, XL, YH, YL, SCHEME, 32, s=10)
        assert r.s == 10
        assert r.score_planes.shape[0] == 10


class TestWavefrontEngine:
    @pytest.mark.parametrize("w", ALL_WIDTHS)
    def test_matches_gold(self, rng, w):
        X, Y, XH, XL, YH, YL = _planes(rng, w + 5, 6, 14, w)
        r = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, w)
        np.testing.assert_array_equal(r.max_scores[:len(X)], _gold(X, Y))

    def test_matches_sequential_engine(self, rng):
        _, _, XH, XL, YH, YL = _planes(rng, 40, 7, 9, 32)
        r1 = bpbc_sw_sequential(XH, XL, YH, YL, SCHEME, 32)
        r2 = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32)
        np.testing.assert_array_equal(r1.max_scores, r2.max_scores)
        np.testing.assert_array_equal(r1.score_planes, r2.score_planes)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 8), (8, 1), (3, 3),
                                     (5, 2)])
    def test_degenerate_shapes(self, rng, m, n):
        X, Y, XH, XL, YH, YL = _planes(rng, 10, m, n, 32)
        r = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32)
        np.testing.assert_array_equal(r.max_scores[:10], _gold(X, Y))

    def test_m_longer_than_n(self, rng):
        """The paper assumes m << n; the engine must still be correct
        when the pattern is longer than the text."""
        X, Y, XH, XL, YH, YL = _planes(rng, 10, 12, 4, 32)
        r = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32)
        np.testing.assert_array_equal(r.max_scores[:10], _gold(X, Y))

    def test_identical_sequences_score_c1_m(self, rng):
        m = 6
        X = rng.integers(0, 4, (5, m), dtype=np.uint8)
        XH, XL = encode_batch_bit_transposed(X, 32)
        r = bpbc_sw_wavefront(XH, XL, XH, XL, SCHEME, 32)
        np.testing.assert_array_equal(r.max_scores[:5],
                                      SCHEME.match_score * m)

    def test_alternative_scoring_schemes(self, rng):
        for scheme in (ScoringScheme(1, 1, 1), ScoringScheme(3, 2, 2),
                       ScoringScheme(5, 0, 1), ScoringScheme(2, 4, 3)):
            X, Y, XH, XL, YH, YL = _planes(rng, 20, 5, 9, 32)
            r = bpbc_sw_wavefront(XH, XL, YH, YL, scheme, 32)
            np.testing.assert_array_equal(r.max_scores[:20],
                                          _gold(X, Y, scheme))

    def test_lane_padding_scores_are_full_match(self, rng):
        """Padded lanes hold all-A sequences; their score is c1*min(m,n)
        — callers must trim, and this pins the behaviour."""
        X, Y, XH, XL, YH, YL = _planes(rng, 3, 4, 9, 32)
        r = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32)
        np.testing.assert_array_equal(r.max_scores[3:],
                                      SCHEME.match_score * 4)

    def test_empty_sequences_rejected(self):
        empty = np.zeros((0, 1), dtype=np.uint32)
        with pytest.raises(BitOpsError):
            bpbc_sw_wavefront(empty, empty, empty, empty, SCHEME, 32)

    def test_lane_shape_mismatch_rejected(self, rng):
        _, _, XH, XL, _, _ = _planes(rng, 32, 4, 8, 32)
        _, _, _, _, YH, YL = _planes(rng, 64, 4, 8, 32)
        with pytest.raises(BitOpsError):
            bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32)

    def test_scores_bounded_by_c1_min_mn(self, rng):
        X, Y, XH, XL, YH, YL = _planes(rng, 50, 8, 20, 32)
        r = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32)
        assert (r.max_scores <= SCHEME.match_score * 8).all()
        assert (r.max_scores >= 0).all()


class TestReduceMaxRows:
    @staticmethod
    def _planes_of(rng, rows, lanes=40, bits=6, word_bits=32):
        vals = rng.integers(0, 2**bits, size=(rows, lanes))
        planes = np.stack([
            BitSlicedUInt.from_ints(vals[r], bits, word_bits).data
            for r in range(rows)
        ], axis=1)  # (s, rows, lanes)
        return vals, planes

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 8, 13])
    def test_matches_numpy_max(self, rng, rows):
        vals, planes = self._planes_of(rng, rows)
        out = reduce_max_rows(planes, 32)
        got = BitSlicedUInt(np.stack(out), 32).to_ints(40)
        np.testing.assert_array_equal(got, vals.max(axis=0))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 8, 13])
    def test_in_place_bit_identical(self, rng, rows):
        """in_place=True must produce bit-identical planes to the
        copying path — same op sequence, just no scratch copy."""
        _, planes = self._planes_of(rng, rows)
        scratch = planes.copy()
        ref = reduce_max_rows(planes, 32)
        out = reduce_max_rows(scratch, 32, in_place=True)
        np.testing.assert_array_equal(np.stack(out), np.stack(ref))

    @pytest.mark.parametrize("rows", [2, 5, 8])
    def test_default_leaves_input_untouched(self, rng, rows):
        _, planes = self._planes_of(rng, rows)
        before = planes.copy()
        reduce_max_rows(planes, 32)
        np.testing.assert_array_equal(planes, before)

    def test_single_row_returns_views(self, rng):
        """rows == 1 short-circuits to views of the input — no copy,
        matching the pre-refactor contract."""
        _, planes = self._planes_of(rng, 1)
        out = reduce_max_rows(planes, 32)
        for h, plane in enumerate(out):
            assert np.shares_memory(plane, planes[h])

    @pytest.mark.parametrize("rows", [3, 8, 13])
    def test_counter_sequence_unchanged(self, rng, rows):
        """The in-place rewrite must not change the counted op
        sequence (the paper's op-count model depends on it)."""
        _, planes = self._planes_of(rng, rows)
        c_copy, c_inplace = OpCounter(), OpCounter()
        reduce_max_rows(planes.copy(), 32, counter=c_copy)
        reduce_max_rows(planes.copy(), 32, counter=c_inplace,
                        in_place=True)
        assert c_copy.ops == c_inplace.ops


class TestMonotonicity:
    def test_score_monotone_in_match_score(self, rng):
        X, Y, XH, XL, YH, YL = _planes(rng, 30, 6, 12, 32)
        lo = bpbc_sw_wavefront(XH, XL, YH, YL, ScoringScheme(1, 1, 1),
                               32).max_scores
        hi = bpbc_sw_wavefront(XH, XL, YH, YL, ScoringScheme(3, 1, 1),
                               32).max_scores
        assert (hi >= lo).all()

    def test_score_antitone_in_penalties(self, rng):
        X, Y, XH, XL, YH, YL = _planes(rng, 30, 6, 12, 32)
        soft = bpbc_sw_wavefront(XH, XL, YH, YL, ScoringScheme(2, 0, 0),
                                 32).max_scores
        hard = bpbc_sw_wavefront(XH, XL, YH, YL, ScoringScheme(2, 3, 3),
                                 32).max_scores
        assert (soft >= hard).all()


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 14),
    P=st.integers(1, 70),
    w=st.sampled_from(MAIN_WIDTHS),
    seed=st.integers(0, 2**31),
)
def test_wavefront_equals_gold_property(m, n, P, w, seed):
    """For arbitrary shapes and batches the bulk engine equals the
    scalar gold DP on every instance."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, (P, m), dtype=np.uint8)
    Y = rng.integers(0, 4, (P, n), dtype=np.uint8)
    XH, XL = encode_batch_bit_transposed(X, w)
    YH, YL = encode_batch_bit_transposed(Y, w)
    r = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, w)
    np.testing.assert_array_equal(r.max_scores[:P], _gold(X, Y))


def _not_a_cell(*planes):
    return planes


class TestCellEvaluatorSet:
    """``cell=`` is a closed set of names; anything else is rejected."""

    BAD_CELLS = pytest.mark.parametrize(
        "cell", ["simd", "folded", _not_a_cell],
        ids=["simd", "folded", "callable"],
    )

    def test_names(self):
        assert CELL_EVALUATORS == ("generic", "compiled", "compiled-c",
                                   "compiled-numpy")

    @BAD_CELLS
    def test_unknown_evaluator_rejected(self, rng, cell):
        _, _, XH, XL, YH, YL = _planes(rng, 8, 3, 5, 32)
        with pytest.raises(BitOpsError, match="unknown cell evaluator"):
            bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32, cell=cell)

    @BAD_CELLS
    def test_unknown_gotoh_evaluator_rejected(self, rng, cell):
        _, _, XH, XL, YH, YL = _planes(rng, 8, 3, 5, 32)
        Xp, Yp = np.stack([XL, XH]), np.stack([YL, YH])
        with pytest.raises(BitOpsError, match="unknown cell evaluator"):
            bpbc_gotoh_wavefront_planes(Xp, Yp, AffineScheme(2, 1, 3, 1),
                                        32, cell=cell)


class TestCompiledCellEvaluator:
    """The repro.jit cell evaluators (``cell="compiled*"``)."""

    CELLS = ("compiled", "compiled-numpy")

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("w", [32, 64])
    def test_equals_generic(self, rng, cell, w):
        _, _, XH, XL, YH, YL = _planes(rng, 70, 6, 12, w)
        g = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, w,
                              cell="generic")
        c = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, w, cell=cell)
        np.testing.assert_array_equal(g.max_scores, c.max_scores)
        np.testing.assert_array_equal(g.score_planes, c.score_planes)

    def test_c_backend_equals_generic(self, rng):
        from repro.jit import cc_available

        if not cc_available():
            pytest.skip("no C compiler on this machine")
        _, _, XH, XL, YH, YL = _planes(rng, 70, 6, 12, 64)
        g = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 64,
                              cell="generic")
        c = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 64,
                              cell="compiled-c")
        np.testing.assert_array_equal(g.max_scores, c.max_scores)
        np.testing.assert_array_equal(g.score_planes, c.score_planes)

    def test_compiled_with_other_schemes(self, rng):
        for scheme in (ScoringScheme(1, 1, 1), ScoringScheme(3, 2, 2)):
            X, Y, XH, XL, YH, YL = _planes(rng, 20, 5, 9, 64)
            c = bpbc_sw_wavefront(XH, XL, YH, YL, scheme, 64,
                                  cell="compiled")
            np.testing.assert_array_equal(c.max_scores[:20],
                                          _gold(X, Y, scheme))

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 8), (8, 1), (12, 4)])
    def test_compiled_degenerate_shapes(self, rng, m, n):
        X, Y, XH, XL, YH, YL = _planes(rng, 10, m, n, 32)
        r = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32,
                              cell="compiled")
        np.testing.assert_array_equal(r.max_scores[:10], _gold(X, Y))

    def test_compiled_rejects_counter(self, rng):
        _, _, XH, XL, YH, YL = _planes(rng, 8, 3, 5, 32)
        with pytest.raises(BitOpsError):
            bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32,
                              counter=OpCounter(), cell="compiled")

    def test_default_cell_is_compiled(self, rng):
        """With no counter the engine defaults to the compiled
        evaluator; with a counter it falls back to the countable
        generic interpreter."""
        _, _, XH, XL, YH, YL = _planes(rng, 8, 3, 5, 32)
        d = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32)
        g = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32,
                              cell="generic")
        np.testing.assert_array_equal(d.score_planes, g.score_planes)
        c = OpCounter()
        bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32, counter=c)
        assert c.ops > 0
