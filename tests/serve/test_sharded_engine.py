"""ShardedEngine: the serve-side wrapper over the process pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines import ENGINES
from repro.serve import AlignmentService
from repro.serve.engine_pool import EnginePool, ShardedEngine
from repro.serve.packer import pack_requests
from repro.serve.stats import ServiceStats
from repro.swa.scoring import ScoringScheme

from .test_packer_fuzz import _random_request

SCHEME = ScoringScheme(2, 1, 1)


def _mixed_batches(seed=11, n=24, granularity=8):
    rng = np.random.default_rng(seed)
    reqs = [_random_request(rng, SCHEME) for _ in range(n)]
    return pack_requests(reqs, granularity)


class TestShardedEngine:
    def test_matches_direct_engine(self):
        batches = _mixed_batches()
        engine = ShardedEngine(engine="bpbc", workers=2)
        try:
            for batch in batches:
                args = (batch.X, batch.Y, batch.scheme, 64)
                got = engine(*args)
                want = ENGINES["bpbc"].score(*args)
                np.testing.assert_array_equal(got, want)
        finally:
            engine.close()

    def test_records_shard_stats(self):
        stats = ServiceStats()
        engine = ShardedEngine(engine="bpbc", workers=2, stats=stats)
        try:
            for batch in _mixed_batches():
                engine(batch.X, batch.Y, batch.scheme, 64)
        finally:
            engine.close()
        snap = stats.snapshot()
        assert snap["shards"] > 0
        assert snap["shard_pairs"] == sum(
            b.pairs for b in _mixed_batches())
        assert snap["shard_p50_ms"] >= 0

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            ShardedEngine(workers=0)


class TestEnginePoolSharding:
    def test_shard_workers_requires_named_engine(self):
        with pytest.raises(ValueError, match="shard_workers"):
            EnginePool(engine=lambda X, Y, scheme, wb: None,
                       shard_workers=2)

    def test_bad_shard_workers(self):
        with pytest.raises(ValueError):
            EnginePool(engine="bpbc", shard_workers=-1)


class TestServiceSharding:
    def test_service_results_and_stats(self):
        rng = np.random.default_rng(23)
        pairs = [(rng.integers(0, 4, int(rng.integers(4, 30)),
                               dtype=np.uint8),
                  rng.integers(0, 4, int(rng.integers(4, 30)),
                               dtype=np.uint8))
                 for _ in range(32)]
        plain = AlignmentService(max_wait_ms=1.0, cache_size=0)
        with plain:
            want = [plain.align(q, s, result_timeout_s=30).score
                    for q, s in pairs]
        sharded = AlignmentService(max_wait_ms=1.0, cache_size=0,
                                   shard_workers=2)
        with sharded:
            futures = [sharded.submit(q, s) for q, s in pairs]
            got = [f.result(timeout=30).score for f in futures]
        assert got == want
        snap = sharded.stats.snapshot()
        assert snap["shards"] > 0
        assert snap["shard_pairs"] == len(pairs)
