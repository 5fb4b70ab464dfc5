"""Sentinel-padding fuzz: packed mixed-length batches stay exact.

The packer's correctness claim is sharp: sentinel padding (QUERY_PAD
vs SUBJECT_PAD, matching nothing — not even each other) may only
*lose* score, so the max over a padded matrix equals the max over the
real prefix.  This module fuzzes that claim end to end — random
mixed-length request batches, random bin granularities, both serve
engines — against the unpadded per-pair gold DP.

Seeded like :mod:`tests.test_differential_fuzz`: deterministic by
default, rotated in CI via ``REPRO_FUZZ_SEED``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.engines import ENGINES
from repro.serve.packer import QUERY_PAD, SUBJECT_PAD, pack_requests
from repro.serve.queue import AlignmentRequest
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score

SEED = int(os.environ.get("REPRO_FUZZ_SEED", 20260806))

ROUNDS = 12
BATCH_REQUESTS = 32
MAX_LEN = 96
WORD_BITS = 64

SCHEMES = (ScoringScheme(2, 1, 1), ScoringScheme(3, 2, 2))
GRANULARITIES = (1, 4, 16, 32)


def _random_request(rng, scheme) -> AlignmentRequest:
    return AlignmentRequest(
        query=rng.integers(0, 4, int(rng.integers(1, MAX_LEN + 1)),
                           dtype=np.uint8),
        subject=rng.integers(0, 4, int(rng.integers(1, MAX_LEN + 1)),
                             dtype=np.uint8),
        scheme=scheme, threshold=None, deadline=None,
        future=Future(), enqueued_at=time.monotonic(),
    )


def _round(index: int):
    rng = np.random.default_rng(SEED + index)
    granularity = GRANULARITIES[index % len(GRANULARITIES)]
    requests = [
        _random_request(rng, SCHEMES[int(rng.integers(len(SCHEMES)))])
        for _ in range(BATCH_REQUESTS)
    ]
    return requests, granularity


@pytest.mark.parametrize("index", range(ROUNDS))
def test_packed_scores_match_unpadded_gold(index):
    requests, granularity = _round(index)
    batches = pack_requests(requests, granularity)

    packed = [req for b in batches for req in b.requests]
    assert len(packed) == len(requests)
    assert {id(r) for r in packed} == {id(r) for r in requests}

    for batch in batches:
        expected_padded = any(
            req.m != batch.m or req.n != batch.n
            for req in batch.requests)
        assert batch.padded == expected_padded
        for p, req in enumerate(batch.requests):
            assert np.array_equal(batch.X[p, :req.m], req.query)
            assert np.all(batch.X[p, req.m:] == QUERY_PAD)
            assert np.array_equal(batch.Y[p, :req.n], req.subject)
            assert np.all(batch.Y[p, req.n:] == SUBJECT_PAD)

        gold = np.asarray(
            [sw_max_score(req.query, req.subject, batch.scheme)
             for req in batch.requests], dtype=np.int64)
        for engine in ("bpbc", "numpy"):
            scores = np.asarray(ENGINES[engine].score(
                batch.X, batch.Y, batch.scheme, WORD_BITS))
            bad = np.flatnonzero(scores != gold)
            assert bad.size == 0, (
                f"serve engine {engine!r} diverges from unpadded gold "
                f"on {bad.size} of {batch.pairs} lanes "
                f"(seed={SEED}, round={index}, g={granularity}, "
                f"bin=({batch.m}, {batch.n}), padded={batch.padded}); "
                f"first bad lane {int(bad[0])}: "
                f"got {int(scores[bad[0]])} want {int(gold[bad[0]])}"
            )
