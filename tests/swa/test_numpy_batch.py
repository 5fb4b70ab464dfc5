"""Tests for repro.swa.numpy_batch: the wordwise baseline engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score

SCHEME = ScoringScheme(2, 1, 1)


class TestBatchMaxScores:
    def test_matches_gold(self, rng):
        P, m, n = 60, 7, 15
        X = rng.integers(0, 4, (P, m), dtype=np.uint8)
        Y = rng.integers(0, 4, (P, n), dtype=np.uint8)
        gold = [sw_max_score(X[p], Y[p], SCHEME) for p in range(P)]
        np.testing.assert_array_equal(
            sw_batch_max_scores(X, Y, SCHEME), gold
        )

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 9), (9, 1), (6, 6),
                                     (9, 4)])
    def test_shapes(self, rng, m, n):
        X = rng.integers(0, 4, (5, m), dtype=np.uint8)
        Y = rng.integers(0, 4, (5, n), dtype=np.uint8)
        gold = [sw_max_score(X[p], Y[p], SCHEME) for p in range(5)]
        np.testing.assert_array_equal(
            sw_batch_max_scores(X, Y, SCHEME), gold
        )

    def test_single_pair(self, rng):
        X = rng.integers(0, 4, (1, 6), dtype=np.uint8)
        Y = rng.integers(0, 4, (1, 11), dtype=np.uint8)
        assert sw_batch_max_scores(X, Y, SCHEME)[0] == \
            sw_max_score(X[0], Y[0], SCHEME)

    def test_shape_validation(self, rng):
        X = rng.integers(0, 4, (3, 4))
        Y = rng.integers(0, 4, (4, 4))
        with pytest.raises(ValueError):
            sw_batch_max_scores(X, Y, SCHEME)
        with pytest.raises(ValueError):
            sw_batch_max_scores(X[0], Y, SCHEME)

    def test_alternative_scheme(self, rng):
        scheme = ScoringScheme(3, 2, 1)
        X = rng.integers(0, 4, (20, 5), dtype=np.uint8)
        Y = rng.integers(0, 4, (20, 9), dtype=np.uint8)
        gold = [sw_max_score(X[p], Y[p], scheme) for p in range(20)]
        np.testing.assert_array_equal(
            sw_batch_max_scores(X, Y, scheme), gold
        )

    @settings(max_examples=20, deadline=None)
    @given(P=st.integers(1, 30), m=st.integers(1, 8),
           n=st.integers(1, 12), seed=st.integers(0, 2**31))
    def test_matches_gold_property(self, P, m, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, (P, m), dtype=np.uint8)
        Y = rng.integers(0, 4, (P, n), dtype=np.uint8)
        gold = [sw_max_score(X[p], Y[p], SCHEME) for p in range(P)]
        np.testing.assert_array_equal(
            sw_batch_max_scores(X, Y, SCHEME), gold
        )

