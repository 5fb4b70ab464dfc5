"""Shard transport identity: scores that cross the pool pipe must be
bit-identical to the single-process engines.

Pickle is the only shard transport; the ``transport`` parameter names
it so the cases read the same as the per-transport matrix they come
from.  The transport may only ever change *where bytes live*, never
what they are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.filter.screening import bulk_max_scores
from repro.shard import ShardExecutor, shard_bulk_max_scores
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score

SCHEME = ScoringScheme(2, 1, 1)


def _ragged(rng, pairs=24, max_m=60, max_n=80):
    xs = [rng.integers(0, 4, size=rng.integers(1, max_m),
                       dtype=np.uint8) for _ in range(pairs)]
    ys = [rng.integers(0, 4, size=rng.integers(1, max_n),
                       dtype=np.uint8) for _ in range(pairs)]
    return xs, ys


def _gold(xs, ys):
    return np.asarray([sw_max_score(x, y, SCHEME)
                       for x, y in zip(xs, ys)], dtype=np.int64)


class TestTransportIdentity:
    @pytest.mark.parametrize("transport", ["pickle"])
    def test_rectangular_matches_single_process(self, rng, transport):
        X = rng.integers(0, 4, size=(96, 40), dtype=np.uint8)
        Y = rng.integers(0, 4, size=(96, 56), dtype=np.uint8)
        base = bulk_max_scores(X, Y, SCHEME)
        got = shard_bulk_max_scores(X, Y, SCHEME, workers=2)
        assert np.array_equal(got, base)

    @pytest.mark.parametrize("transport", ["pickle"])
    def test_ragged_matches_gold(self, rng, transport):
        xs, ys = _ragged(rng)
        with ShardExecutor(workers=2) as ex:
            got = ex.run(xs, ys, SCHEME).scores
            # Every pool run goes over the pickle transport.
            assert ex.pickle_runs == (0 if ex.in_process else 1)
        assert np.array_equal(got, _gold(xs, ys))
