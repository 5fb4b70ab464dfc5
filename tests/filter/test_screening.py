"""Tests for repro.filter.screening: the threshold application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import QUERY_PAD, SUBJECT_PAD
from repro.filter.screening import bulk_max_scores, screen_pairs
from repro.swa.affine import AffineScheme, gotoh_batch_max_scores
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score
from repro.workloads.dna import MutationModel, homologous_pairs

SCHEME = ScoringScheme(2, 1, 1)


class TestBulkMaxScores:
    @pytest.mark.parametrize("word_bits", [32, 64])
    def test_matches_gold(self, rng, word_bits):
        X = rng.integers(0, 4, (37, 6), dtype=np.uint8)
        Y = rng.integers(0, 4, (37, 14), dtype=np.uint8)
        got = bulk_max_scores(X, Y, SCHEME, word_bits=word_bits)
        want = [sw_max_score(X[p], Y[p], SCHEME) for p in range(37)]
        np.testing.assert_array_equal(got, want)

    def test_trims_lane_padding(self, rng):
        X = rng.integers(0, 4, (3, 5), dtype=np.uint8)
        Y = rng.integers(0, 4, (3, 9), dtype=np.uint8)
        assert len(bulk_max_scores(X, Y, SCHEME)) == 3

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            bulk_max_scores(np.zeros((2, 3)), np.zeros((3, 5)), SCHEME)

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
    def test_chunked_equals_one_shot(self, rng, chunk_size):
        X = rng.integers(0, 4, (41, 6), dtype=np.uint8)
        Y = rng.integers(0, 4, (41, 14), dtype=np.uint8)
        np.testing.assert_array_equal(
            bulk_max_scores(X, Y, SCHEME, chunk_size=chunk_size),
            bulk_max_scores(X, Y, SCHEME),
        )

    @pytest.mark.parametrize("chunk_size", [0, -1, -64])
    def test_bad_chunk_size(self, rng, chunk_size):
        X = rng.integers(0, 4, (4, 6), dtype=np.uint8)
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            bulk_max_scores(X, X, SCHEME, chunk_size=chunk_size)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_bad_workers(self, rng, workers):
        X = rng.integers(0, 4, (4, 6), dtype=np.uint8)
        with pytest.raises(ValueError, match="workers must be positive"):
            bulk_max_scores(X, X, SCHEME, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_equal_one_shot(self, rng, workers):
        X = rng.integers(0, 4, (41, 6), dtype=np.uint8)
        Y = rng.integers(0, 4, (41, 14), dtype=np.uint8)
        np.testing.assert_array_equal(
            bulk_max_scores(X, Y, SCHEME, workers=workers),
            bulk_max_scores(X, Y, SCHEME),
        )

    def test_workers_with_chunk_size_caps_shards(self, rng):
        # chunk_size doubles as the per-shard pair cap on the sharded
        # path; results must stay identical.
        X = rng.integers(0, 4, (30, 6), dtype=np.uint8)
        Y = rng.integers(0, 4, (30, 10), dtype=np.uint8)
        np.testing.assert_array_equal(
            bulk_max_scores(X, Y, SCHEME, chunk_size=7, workers=2),
            bulk_max_scores(X, Y, SCHEME),
        )

    @pytest.mark.parametrize("affine", [False, True],
                             ids=["linear", "affine"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_sentinel_padded_dna(self, rng, workers, affine):
        # Rows shorter than the batch carry the serve packer's trailing
        # sentinels; in-process and sharded scoring must both accept
        # them and match the wordwise reference exactly.
        X = rng.integers(0, 4, (24, 12), dtype=np.uint8)
        Y = rng.integers(0, 4, (24, 16), dtype=np.uint8)
        for p in range(0, 24, 3):
            X[p, rng.integers(4, 12):] = QUERY_PAD
            Y[p, rng.integers(4, 16):] = SUBJECT_PAD
        if affine:
            scheme = AffineScheme(2, 1, 3, 1)
            want = gotoh_batch_max_scores(X, Y, scheme)
        else:
            scheme = SCHEME
            want = sw_batch_max_scores(X, Y, scheme)
        np.testing.assert_array_equal(
            bulk_max_scores(X, Y, scheme, workers=workers), want)


class TestScreenPairs:
    def test_survivors_have_alignments(self, rng):
        X, Y, labels = homologous_pairs(
            rng, 30, 16, 64, related_fraction=0.5,
            model=MutationModel(sub_rate=0.02),
        )
        tau = 20
        result = screen_pairs(X, Y, tau, SCHEME)
        assert result.threshold == tau
        surv = set(result.survivor_indices.tolist())
        assert {h.pair_index for h in result.hits} == surv
        for h in result.hits:
            assert h.score > tau
            assert h.alignment.score == h.score

    def test_screening_separates_planted_pairs(self, rng):
        """With a reasonable tau, most planted-homology pairs pass and
        most random pairs do not — the application the paper pitches."""
        X, Y, labels = homologous_pairs(
            rng, 60, 24, 96, related_fraction=0.5,
            model=MutationModel(sub_rate=0.02),
        )
        tau = 30  # well above random-pair background for m=24
        result = screen_pairs(X, Y, tau, SCHEME, align_survivors=False)
        passed = result.scores > tau
        # Every passer should be a planted pair; most planted pairs pass.
        assert (~passed[~labels]).all()
        assert passed[labels].mean() > 0.8

    def test_no_survivors(self, rng):
        X = rng.integers(0, 4, (10, 4), dtype=np.uint8)
        Y = rng.integers(0, 4, (10, 8), dtype=np.uint8)
        result = screen_pairs(X, Y, 8, SCHEME)  # max possible score
        assert result.hits == []
        assert result.pass_rate == 0.0

    def test_all_survive_threshold_zero_on_identical(self, rng):
        X = rng.integers(0, 4, (5, 6), dtype=np.uint8)
        result = screen_pairs(X, X.copy(), 0, SCHEME)
        assert len(result.hits) == 5
        for h in result.hits:
            assert h.score == 12  # full match 6 * c1
            assert h.alignment.identity == 1.0

    def test_align_survivors_flag(self, rng):
        X = rng.integers(0, 4, (5, 6), dtype=np.uint8)
        result = screen_pairs(X, X.copy(), 0, SCHEME,
                              align_survivors=False)
        assert result.hits == []
        assert len(result.survivor_indices) == 5

    def test_negative_threshold_rejected(self, rng):
        X = rng.integers(0, 4, (2, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            screen_pairs(X, X, -1, SCHEME)

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_bad_chunk_size(self, rng, chunk_size):
        X = rng.integers(0, 4, (4, 6), dtype=np.uint8)
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            screen_pairs(X, X, 5, SCHEME, chunk_size=chunk_size)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_bad_workers(self, rng, workers):
        X = rng.integers(0, 4, (4, 6), dtype=np.uint8)
        with pytest.raises(ValueError, match="workers must be positive"):
            screen_pairs(X, X, 5, SCHEME, workers=workers)

    def test_sharded_screen_matches_one_shot(self, rng):
        X, Y, _ = homologous_pairs(rng, 20, 12, 48,
                                   related_fraction=0.5)
        whole = screen_pairs(X, Y, 15, SCHEME)
        sharded = screen_pairs(X, Y, 15, SCHEME, workers=2)
        np.testing.assert_array_equal(whole.scores, sharded.scores)
        assert [h.pair_index for h in whole.hits] == \
            [h.pair_index for h in sharded.hits]

    def test_chunked_screen_matches_one_shot(self, rng):
        X, Y, _ = homologous_pairs(rng, 20, 12, 48,
                                   related_fraction=0.5)
        whole = screen_pairs(X, Y, 15, SCHEME)
        chunked = screen_pairs(X, Y, 15, SCHEME, chunk_size=7)
        np.testing.assert_array_equal(whole.scores, chunked.scores)
        assert [h.pair_index for h in whole.hits] == \
            [h.pair_index for h in chunked.hits]

    def test_threshold_is_strictly_greater_everywhere(self, rng):
        """hits, survivor_indices and pass_rate must all use the same
        strictly-greater-than-tau rule (the paper's 'larger than a
        given threshold'), with or without survivor alignment."""
        X = rng.integers(0, 4, (6, 5), dtype=np.uint8)
        result = screen_pairs(X, X.copy(), 10, SCHEME)  # max score = 10
        assert len(result.hits) == 0
        assert len(result.survivor_indices) == 0
        assert result.pass_rate == 0.0
        result = screen_pairs(X, X.copy(), 9, SCHEME)
        assert {h.pair_index for h in result.hits} == set(range(6))
        assert set(result.survivor_indices.tolist()) == set(range(6))
        assert result.pass_rate == 1.0
        # pass_rate must agree with survivors even when hits are not
        # materialised (the historical asymmetry risk).
        unaligned = screen_pairs(X, X.copy(), 9, SCHEME,
                                 align_survivors=False)
        assert unaligned.hits == []
        assert unaligned.pass_rate == 1.0
