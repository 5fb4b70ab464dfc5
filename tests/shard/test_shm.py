"""Shared-memory shard transport: arena mechanics, bit-identity with
the pickle transport, auto selection, and lifecycle semantics.

The correctness bar is the repo-wide one: every transport must return
scores bit-identical to the single-process engines; shm may only ever
change *where bytes live*, never what they are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.filter.screening import bulk_max_scores
from repro.shard import (MIN_SHM_BYTES, ShardExecutor, ShmArena,
                         shard_bulk_max_scores, shm_available)
from repro.shard.shm import read_scores, read_side, write_scores
from repro.shard.worker import as_contiguous_u8
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score

SCHEME = ScoringScheme(2, 1, 1)

pytestmark = pytest.mark.skipif(
    not shm_available(),
    reason="multiprocessing.shared_memory unavailable")


def _ragged(rng, pairs=24, max_m=60, max_n=80):
    xs = [rng.integers(0, 4, size=rng.integers(1, max_m),
                       dtype=np.uint8) for _ in range(pairs)]
    ys = [rng.integers(0, 4, size=rng.integers(1, max_n),
                       dtype=np.uint8) for _ in range(pairs)]
    return xs, ys


def _gold(xs, ys):
    return np.asarray([sw_max_score(x, y, SCHEME)
                       for x, y in zip(xs, ys)], dtype=np.int64)


def _pool_executor(**kw):
    ex = ShardExecutor(workers=2, **kw)
    if ex.in_process:
        ex.close()
        pytest.skip("requires a multiprocessing pool")
    return ex


# -- arena mechanics (no pool involved) --------------------------------

class TestArena:
    def test_roundtrip_preserves_sequences_and_scores(self, rng):
        xs, ys = _ragged(rng, pairs=7)
        with ShmArena(capacity=1 << 12) as arena:
            (ref,) = arena.begin_run([(0, xs, ys)])
            buf = arena._seg.buf
            got_xs = read_side(buf, ref.xlens_off, ref.pairs,
                               ref.xbuf_off, ref.xbuf_bytes)
            got_ys = read_side(buf, ref.ylens_off, ref.pairs,
                               ref.ybuf_off, ref.ybuf_bytes)
            # Compare via copies so no zero-copy view survives the
            # arena (an exported pointer would block the final unmap).
            roundtripped = [v.copy() for v in got_xs + got_ys]
            del got_xs, got_ys
            for orig, view in zip(xs + ys, roundtripped):
                assert np.array_equal(view, orig)
            scores = np.arange(7, dtype=np.int64) - 3
            write_scores(buf, ref, scores)
            assert np.array_equal(read_scores(buf, ref), scores)
            assert np.array_equal(arena.scores(ref), scores)
            del buf

    def test_multi_shard_refs_do_not_overlap(self, rng):
        shards = [(sid, *_ragged(rng, pairs=5)) for sid in range(3)]
        with ShmArena(capacity=1 << 12) as arena:
            refs = arena.begin_run(shards)
            buf = arena._seg.buf
            # Write each shard's scores, then check none clobbered
            # another (distinct fill values per shard).
            for ref in refs:
                write_scores(buf, ref, np.full(ref.pairs, ref.shard_id,
                                               dtype=np.int64))
            for ref in refs:
                assert np.array_equal(
                    arena.scores(ref),
                    np.full(ref.pairs, ref.shard_id, dtype=np.int64))
            del buf

    def test_grows_geometrically_across_generations(self, rng):
        xs = [np.zeros(4096, np.uint8)] * 4
        with ShmArena(capacity=1 << 10) as arena:
            arena.begin_run([(0, xs[:1], xs[:1])])
            first = arena.generations
            arena.begin_run([(0, xs, xs)])  # needs > first capacity
            assert arena.generations == first + 1
            assert arena.unlink_failures == 0

    def test_stale_ref_is_rejected(self, rng):
        xs, ys = _ragged(rng, pairs=3)
        with ShmArena(capacity=1 << 12) as arena:
            (ref,) = arena.begin_run([(0, xs, ys)])
            arena.retire()
            with pytest.raises(ValueError, match="segment"):
                arena.scores(ref)

    def test_close_unlinks_segment(self, rng):
        from multiprocessing import shared_memory

        xs, ys = _ragged(rng, pairs=3)
        arena = ShmArena(capacity=1 << 12)
        arena.begin_run([(0, xs, ys)])
        name = arena.segment_name
        arena.close()
        assert arena.segment_name is None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_failed_unlink_is_retried_at_close(self, rng):
        from multiprocessing import shared_memory

        from repro.resilience.faults import FaultPlan

        xs, ys = _ragged(rng, pairs=3)
        arena = ShmArena(capacity=1 << 12)
        arena.begin_run([(0, xs, ys)])
        name = arena.segment_name
        with FaultPlan.single("shard.shm.unlink", times=1):
            arena.retire()
        assert arena.unlink_failures == 1
        shared_memory.SharedMemory(name=name).close()  # still there
        arena.close()
        assert arena.unlink_failures == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ShmArena(capacity=0)


# -- transport bit-identity --------------------------------------------

class TestTransportIdentity:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_rectangular_matches_single_process(self, rng, transport):
        X = rng.integers(0, 4, size=(96, 40), dtype=np.uint8)
        Y = rng.integers(0, 4, size=(96, 56), dtype=np.uint8)
        base = bulk_max_scores(X, Y, SCHEME)
        got = shard_bulk_max_scores(X, Y, SCHEME, workers=2,
                                    transport=transport)
        assert np.array_equal(got, base)

    @pytest.mark.parametrize("transport", ["shm", "pickle", "auto"])
    def test_ragged_matches_gold(self, rng, transport):
        xs, ys = _ragged(rng)
        with _pool_executor(transport=transport) as ex:
            got = ex.run(xs, ys, SCHEME).scores
        assert np.array_equal(got, _gold(xs, ys))

    def test_arena_is_reused_across_runs(self, rng):
        xs, ys = _ragged(rng)
        with _pool_executor(transport="shm") as ex:
            first = ex.run(xs, ys, SCHEME).scores
            second = ex.run(xs, ys, SCHEME).scores
            assert ex.shm_runs == 2
            assert ex.pickle_runs == 0
        assert np.array_equal(first, second)

    def test_width_caps_fanout_bit_identically(self, rng):
        xs, ys = _ragged(rng)
        with _pool_executor(transport="shm") as ex:
            result = ex.run(xs, ys, SCHEME, width=1)
        assert len(result.timings) == 1
        assert np.array_equal(result.scores, _gold(xs, ys))

    def test_rejects_bad_width(self, rng):
        xs, ys = _ragged(rng, pairs=4)
        with ShardExecutor(workers=2) as ex:
            with pytest.raises(ValueError, match="width"):
                ex.run(xs, ys, SCHEME, width=0)


# -- auto selection -----------------------------------------------------

class TestAutoTransport:
    def test_tiny_payload_stays_on_pickle(self, rng):
        xs, ys = _ragged(rng, pairs=8, max_m=16, max_n=16)
        with _pool_executor(transport="auto") as ex:
            ex.run(xs, ys, SCHEME)
            assert ex.pickle_runs == 1
            assert ex.shm_runs == 0

    def test_large_payload_promotes_to_shm(self, rng):
        pairs = 2 * (MIN_SHM_BYTES // 500) + 2
        xs = [rng.integers(0, 4, size=500, dtype=np.uint8)
              for _ in range(pairs)]
        with _pool_executor(transport="auto") as ex:
            got = ex.run(xs, xs, SCHEME).scores
            assert ex.shm_runs == 1
            assert ex.pickle_runs == 0
        # A sequence aligned with itself scores its full diagonal,
        # c1 * len, which is also the ceiling for any local alignment;
        # exact, without 264 pure-Python 500 x 500 DPs.
        assert np.array_equal(
            got, np.full(pairs, SCHEME.match_score * 500, np.int64))

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            ShardExecutor(workers=2, transport="carrier-pigeon")

    def test_in_process_executor_ignores_transport(self, rng):
        # workers=1 never touches a pool, so any transport is fine and
        # the scores still match gold.
        xs, ys = _ragged(rng, pairs=6)
        with ShardExecutor(workers=1, transport="shm") as ex:
            assert ex.in_process
            got = ex.run(xs, ys, SCHEME).scores
        assert np.array_equal(got, _gold(xs, ys))


# -- satellite: the redundant-copy fix ----------------------------------

class TestAsContiguous:
    def test_contiguous_u8_is_returned_unchanged(self):
        a = np.arange(16, dtype=np.uint8)
        assert as_contiguous_u8(a) is a

    def test_noncontiguous_and_foreign_dtypes_are_converted(self):
        strided = np.arange(32, dtype=np.uint8)[::2]
        out = strided if strided.flags.c_contiguous else None
        assert out is None  # the slice really is non-contiguous
        conv = as_contiguous_u8(strided)
        assert conv.flags.c_contiguous
        assert np.array_equal(conv, strided)
        ints = [0, 1, 2, 3]
        conv = as_contiguous_u8(ints)
        assert conv.dtype == np.uint8
        assert np.array_equal(conv, ints)
