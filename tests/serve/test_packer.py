"""Tests for length binning and lane packing (exactness included)."""

from __future__ import annotations

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.engines import ENGINES
from repro.serve.packer import (QUERY_PAD, SUBJECT_PAD, bin_key,
                                bin_requests, pack_requests)
from repro.serve.queue import AlignmentRequest
from repro.swa.scoring import DEFAULT_SCHEME, ScoringScheme
from repro.swa.sequential import sw_max_score


def make_request(rng, m, n, scheme=DEFAULT_SCHEME):
    return AlignmentRequest(
        query=rng.integers(0, 4, m, dtype=np.uint8),
        subject=rng.integers(0, 4, n, dtype=np.uint8),
        scheme=scheme, threshold=None, deadline=None,
        future=Future(), enqueued_at=time.monotonic(),
    )


class TestBinning:
    def test_exact_bins_by_default(self, rng):
        reqs = [make_request(rng, 8, 16), make_request(rng, 8, 16),
                make_request(rng, 9, 16)]
        bins = bin_requests(reqs, granularity=1)
        assert len(bins) == 2

    def test_granularity_merges_nearby_lengths(self, rng):
        reqs = [make_request(rng, 8, 16), make_request(rng, 7, 13),
                make_request(rng, 2, 10)]
        bins = bin_requests(reqs, granularity=8)
        assert set(bins) == {(8, 16, DEFAULT_SCHEME)}

    def test_schemes_never_share_a_bin(self, rng):
        other = ScoringScheme(3, 2, 2)
        reqs = [make_request(rng, 8, 8),
                make_request(rng, 8, 8, scheme=other)]
        assert len(bin_requests(reqs, granularity=8)) == 2

    def test_bad_granularity(self, rng):
        with pytest.raises(ValueError):
            bin_requests([make_request(rng, 4, 4)], granularity=0)


class TestBinKey:
    def test_granularity_one_is_identity(self, rng):
        req = make_request(rng, 7, 13)
        assert bin_key(req, 1) == (7, 13, DEFAULT_SCHEME)

    def test_exact_multiple_stays_in_its_own_bin(self, rng):
        # A length sitting exactly on the boundary must not round up
        # to the next bin (ceil(16/16)*16 == 16, not 32).
        req = make_request(rng, 16, 32)
        assert bin_key(req, 16) == (16, 32, DEFAULT_SCHEME)

    def test_one_past_the_boundary_rounds_up(self, rng):
        req = make_request(rng, 17, 33)
        assert bin_key(req, 16) == (32, 48, DEFAULT_SCHEME)

    def test_length_one_lands_in_first_bin(self, rng):
        req = make_request(rng, 1, 1)
        assert bin_key(req, 16) == (16, 16, DEFAULT_SCHEME)

    def test_granularity_larger_than_sequences(self, rng):
        # One giant bin: every request shares it (per scheme).
        keys = {bin_key(make_request(rng, m, n), 1024)
                for m, n in [(1, 1), (5, 900), (1000, 3)]}
        assert keys == {(1024, 1024, DEFAULT_SCHEME)}

    def test_scheme_is_part_of_the_key(self, rng):
        a = bin_key(make_request(rng, 8, 8), 8)
        b = bin_key(make_request(rng, 8, 8, scheme=ScoringScheme(3, 2, 2)),
                    8)
        assert a != b


class TestPacking:
    def test_uniform_batch_is_unpadded(self, rng):
        reqs = [make_request(rng, 8, 12) for _ in range(5)]
        (batch,) = pack_requests(reqs, granularity=4)
        assert not batch.padded
        assert batch.X.shape == (5, 8) and batch.Y.shape == (5, 12)

    def test_mixed_batch_uses_sentinels(self, rng):
        reqs = [make_request(rng, 8, 12), make_request(rng, 6, 10)]
        (batch,) = pack_requests(reqs, granularity=4)
        assert batch.padded
        assert (batch.X[1, 6:] == QUERY_PAD).all()
        assert (batch.Y[1, 10:] == SUBJECT_PAD).all()

    def test_lane_occupancy_accounting(self, rng):
        reqs = [make_request(rng, 8, 8) for _ in range(3)]
        (batch,) = pack_requests(reqs)
        assert batch.lane_slots(64) == 64
        assert batch.lane_occupancy(64) == pytest.approx(3 / 64)
        reqs = [make_request(rng, 8, 8) for _ in range(65)]
        (batch,) = pack_requests(reqs)
        assert batch.lane_slots(64) == 128
        assert batch.lane_occupancy(64) == pytest.approx(65 / 128)

    @pytest.mark.parametrize("engine", ["bpbc", "numpy", "gpusim"])
    def test_sentinel_padding_is_exact(self, rng, engine):
        """Padded scores must equal each pair's own-length DP exactly:
        the sentinels match nothing, so the padded maximum cannot move."""
        reqs = [make_request(rng, int(rng.integers(5, 17)),
                             int(rng.integers(5, 17)))
                for _ in range(20)]
        for batch in pack_requests(reqs, granularity=16):
            scores = ENGINES[engine].score(batch.X, batch.Y,
                                           batch.scheme, 64)
            for req, got in zip(batch.requests, scores):
                want = sw_max_score(req.query, req.subject, req.scheme)
                assert int(got) == want
