"""ShardExecutor: identity with the single-process engines, failure
containment, degradation, and the one-shot convenience wrapper.

The poison/crash engines below are module-level functions so they
pickle under any ``multiprocessing`` start method.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

import repro.shard.executor as executor_mod
from repro.engines import ENGINES, resolve
from repro.filter.screening import bulk_max_scores
from repro.shard import (ShardError, ShardExecutor, shard_bulk_max_scores)
from repro.shard.worker import (as_contiguous_u8, pack_shard, score_codes,
                                unpack_side)
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score

SCHEME = ScoringScheme(2, 1, 1)

#: Leading code that marks a pair as poisoned for the fault engines
#: (codes 0..3 = ACGT; real pairs below always start with A = 0).
POISON = 3


def _poison_engine(X, Y, scheme, word_bits):
    """Engine that raises on any batch containing a poisoned pair."""
    if X.size and np.any(X[:, 0] == POISON):
        raise RuntimeError("poisoned pair reached the engine")
    return ENGINES["bpbc"].score(X, Y, scheme, word_bits)


def _crash_engine(X, Y, scheme, word_bits):
    """Engine that hard-kills its worker process on a poisoned pair."""
    if X.size and np.any(X[:, 0] == POISON):
        os._exit(3)
    return ENGINES["bpbc"].score(X, Y, scheme, word_bits)


def _stubborn_engine(X, Y, scheme, word_bits):
    """Engine whose worker ignores SIGTERM while wedged on a poisoned
    pair.  The wedge is bounded and SIGTERM is honoured again after
    it, so a worker that teardown failed to kill still exits."""
    if X.size and np.any(X[:, 0] == POISON):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(20)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return ENGINES["bpbc"].score(X, Y, scheme, word_bits)


def _rect_batch(rng, pairs=96, m=40, n=56):
    X = rng.integers(0, 4, size=(pairs, m), dtype=np.uint8)
    Y = rng.integers(0, 4, size=(pairs, n), dtype=np.uint8)
    X[:, 0] = 0  # keep clear of the poison marker
    return X, Y


def _ragged_batch(rng, pairs=48):
    xs = [rng.integers(0, 4, size=rng.integers(1, 60),
                       dtype=np.uint8) for _ in range(pairs)]
    ys = [rng.integers(0, 4, size=rng.integers(1, 80),
                       dtype=np.uint8) for _ in range(pairs)]
    return xs, ys


def _gold(xs, ys):
    return np.asarray([sw_max_score(x, y, SCHEME) for x, y in
                       zip(xs, ys)], dtype=np.int64)


class TestIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_rectangular_matches_single_process(self, rng, workers):
        X, Y = _rect_batch(rng)
        base = bulk_max_scores(X, Y, SCHEME)
        got = shard_bulk_max_scores(X, Y, SCHEME, workers=workers)
        assert np.array_equal(got, base)

    def test_ragged_matches_gold(self, rng):
        xs, ys = _ragged_batch(rng)
        with ShardExecutor(workers=2) as ex:
            got = ex.run(xs, ys, SCHEME).scores
        assert np.array_equal(got, _gold(xs, ys))

    def test_numpy_engine_matches(self, rng):
        X, Y = _rect_batch(rng, pairs=32, m=20, n=24)
        base = bulk_max_scores(X, Y, SCHEME)
        got = shard_bulk_max_scores(X, Y, SCHEME, workers=2,
                                    engine="numpy")
        assert np.array_equal(got, base)

    def test_max_shard_pairs_grows_shard_count(self, rng):
        X, Y = _rect_batch(rng, pairs=64)
        with ShardExecutor(workers=2, max_shard_pairs=10) as ex:
            result = ex.run(X, Y, SCHEME)
        assert len(result.timings) >= 7  # ceil(64 / 10)
        assert np.array_equal(result.scores, bulk_max_scores(X, Y, SCHEME))

    def test_executor_is_reusable(self, rng):
        X, Y = _rect_batch(rng, pairs=32)
        base = bulk_max_scores(X, Y, SCHEME)
        with ShardExecutor(workers=2) as ex:
            assert np.array_equal(ex.run(X, Y, SCHEME).scores, base)
            assert np.array_equal(ex.run(X, Y, SCHEME).scores, base)

    def test_empty_input(self):
        with ShardExecutor(workers=2) as ex:
            result = ex.run(np.empty((0, 5), np.uint8),
                            np.empty((0, 5), np.uint8), SCHEME)
        assert result.scores.size == 0
        assert result.timings == [] and result.errors == []

    def test_width_caps_fanout_bit_identically(self, rng):
        xs, ys = _ragged_batch(rng, pairs=24)
        with ShardExecutor(workers=2) as ex:
            result = ex.run(xs, ys, SCHEME, width=1)
        assert len(result.timings) == 1
        assert np.array_equal(result.scores, _gold(xs, ys))

    def test_rejects_bad_width(self, rng):
        xs, ys = _ragged_batch(rng, pairs=4)
        with ShardExecutor(workers=2) as ex:
            with pytest.raises(ValueError, match="width"):
                ex.run(xs, ys, SCHEME, width=0)

    def test_pool_runs_are_counted(self, rng):
        # perfbench's traced probe reads these three counters.
        X, Y = _rect_batch(rng, pairs=8)
        with ShardExecutor(workers=2) as ex:
            ex.run(X, Y, SCHEME)
            ex.run(X, Y, SCHEME)
            runs = 0 if ex.in_process else 2
            assert (ex.pickle_runs, ex.shm_runs, ex.shm_fallbacks) \
                == (runs, 0, 0)


class TestTimings:
    def test_timings_cover_all_pairs_and_costs(self, rng):
        X, Y = _rect_batch(rng, pairs=50, m=30, n=20)
        with ShardExecutor(workers=2) as ex:
            result = ex.run(X, Y, SCHEME)
        assert sum(t.pairs for t in result.timings) == 50
        assert sum(t.cost for t in result.timings) == 50 * 30 * 20
        assert all(t.elapsed_s >= 0 for t in result.timings)


class TestFailureContainment:
    def test_poisoned_shard_fails_alone(self, rng):
        # One poisoned pair: exactly one shard fails, the other
        # shard's scores are still correct, failed scores read -1.
        X, Y = _rect_batch(rng, pairs=40)
        X[17, 0] = POISON
        base = bulk_max_scores(X, Y, SCHEME)
        with ShardExecutor(workers=2, engine=_poison_engine) as ex:
            result = ex.run(X, Y, SCHEME, errors="return")
        assert len(result.errors) == 1
        err = result.errors[0]
        assert isinstance(err, ShardError)
        assert 17 in err.pair_indices
        failed = result.failed_pairs
        assert np.array_equal(failed, np.sort(np.asarray(err.pair_indices)))
        ok = np.setdiff1d(np.arange(40), failed)
        assert ok.size > 0
        assert np.array_equal(result.scores[ok], base[ok])
        assert np.all(result.scores[failed] == -1)

    def test_errors_raise_mode(self, rng):
        X, Y = _rect_batch(rng, pairs=16)
        X[3, 0] = POISON
        with ShardExecutor(workers=2, engine=_poison_engine) as ex:
            with pytest.raises(ShardError) as excinfo:
                ex.run(X, Y, SCHEME)
        assert 3 in excinfo.value.pair_indices
        assert excinfo.value.cause is not None

    def test_in_process_failure_containment(self, rng):
        X, Y = _rect_batch(rng, pairs=16)
        X[5, 0] = POISON
        with ShardExecutor(workers=1, engine=_poison_engine,
                           max_shard_pairs=4) as ex:
            assert ex.in_process
            result = ex.run(X, Y, SCHEME, errors="return")
        assert len(result.errors) >= 1
        assert 5 in result.failed_pairs
        ok = np.setdiff1d(np.arange(16), result.failed_pairs)
        assert np.array_equal(result.scores[ok],
                              bulk_max_scores(X, Y, SCHEME)[ok])

    def test_worker_crash_detected_by_timeout(self, rng):
        # A hard worker death loses the task silently; the run's
        # timeout is the detection mechanism, and it must fail only
        # the dead shard.
        X, Y = _rect_batch(rng, pairs=24, m=16, n=16)
        X[0, 0] = POISON
        with ShardExecutor(workers=2, engine=_crash_engine,
                           timeout_s=3.0) as ex:
            if ex.in_process:  # no usable pool on this platform
                pytest.skip("requires a multiprocessing pool")
            result = ex.run(X, Y, SCHEME, errors="return")
        assert len(result.errors) == 1
        assert 0 in result.errors[0].pair_indices
        assert "deadline" in str(result.errors[0])
        ok = np.setdiff1d(np.arange(24), result.failed_pairs)
        assert ok.size > 0
        assert np.array_equal(result.scores[ok],
                              bulk_max_scores(X, Y, SCHEME)[ok])


class TestPoolRebuild:
    def test_second_batch_after_worker_kill_runs_full_width(self, rng):
        # A killed worker degrades a multiprocessing.Pool permanently;
        # the executor must respawn the pool after the timeout so the
        # *next* batch succeeds at full width, not on a crippled pool.
        X, Y = _rect_batch(rng, pairs=24, m=16, n=16)
        X[0, 0] = POISON
        with ShardExecutor(workers=2, engine=_crash_engine,
                           timeout_s=3.0) as ex:
            if ex.in_process:
                pytest.skip("requires a multiprocessing pool")
            first = ex.run(X, Y, SCHEME, errors="return")
            assert first.errors  # the crash was detected
            assert ex.rebuilds == 1
            assert not ex.in_process
            assert ex.workers == 2
            X2, Y2 = _rect_batch(rng, pairs=24, m=16, n=16)
            second = ex.run(X2, Y2, SCHEME)
            assert second.errors == []
            assert np.array_equal(second.scores,
                                  bulk_max_scores(X2, Y2, SCHEME))

    def test_no_rebuild_without_timeout_failure(self, rng):
        X, Y = _rect_batch(rng, pairs=16)
        X[3, 0] = POISON
        with ShardExecutor(workers=2, engine=_poison_engine,
                           timeout_s=5.0) as ex:
            if ex.in_process:
                pytest.skip("requires a multiprocessing pool")
            # An engine *exception* resolves normally — the pool is
            # healthy and must not be churned.
            ex.run(X, Y, SCHEME, errors="return")
            assert ex.rebuilds == 0


class TestBoundedTeardown:
    """A worker that ignores SIGTERM must not hang pool teardown."""

    @staticmethod
    def _finishes(fn, within_s=15.0) -> bool:
        # Run in a thread so an unbounded join fails the test instead
        # of hanging the suite.
        t = threading.Thread(target=fn, daemon=True)
        t.start()
        t.join(within_s)
        return not t.is_alive()

    def test_close_kills_sigterm_ignoring_worker(self, rng):
        X, Y = _rect_batch(rng, pairs=24, m=16, n=16)
        X[0, 0] = POISON
        ex = ShardExecutor(workers=2, engine=_stubborn_engine)
        if ex.in_process:
            pytest.skip("requires a multiprocessing pool")
        stuck = threading.Thread(
            target=ex.run, args=(X, Y, SCHEME), daemon=True)
        stuck.start()
        time.sleep(1.0)  # let the poisoned shard wedge its worker
        assert self._finishes(ex.close)
        assert ex.in_process

    def test_rebuild_kills_sigterm_ignoring_worker(self, rng):
        X, Y = _rect_batch(rng, pairs=24, m=16, n=16)
        X[0, 0] = POISON
        with ShardExecutor(workers=2, engine=_stubborn_engine,
                           timeout_s=1.0) as ex:
            if ex.in_process:
                pytest.skip("requires a multiprocessing pool")
            out = {}

            def run():
                out["result"] = ex.run(X, Y, SCHEME, errors="return")

            assert self._finishes(run)
            assert ex.rebuilds == 1
            assert 0 in out["result"].failed_pairs


class TestDegradation:
    def test_no_context_degrades_to_in_process(self, rng, monkeypatch):
        monkeypatch.setattr(executor_mod, "_make_context",
                            lambda start_method: None)
        X, Y = _rect_batch(rng, pairs=16)
        with ShardExecutor(workers=4) as ex:
            assert ex.in_process
            assert ex.workers == 1
            got = ex.run(X, Y, SCHEME).scores
        assert np.array_equal(got, bulk_max_scores(X, Y, SCHEME))

    def test_workers_1_never_builds_a_pool(self, rng):
        with ShardExecutor(workers=1) as ex:
            assert ex.in_process

    def test_close_is_idempotent(self):
        ex = ShardExecutor(workers=2)
        ex.close()
        ex.close()
        assert ex.in_process


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"workers": -2},
        {"timeout_s": 0},
        {"timeout_s": -1.0},
        {"max_shard_pairs": 0},
        {"bin_granularity": 0},
    ])
    def test_bad_constructor_args(self, kwargs):
        with pytest.raises(ValueError):
            ShardExecutor(**kwargs)

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown shard engine"):
            ShardExecutor(workers=1, engine="cuda")
        with pytest.raises(ValueError, match="unknown shard engine"):
            ShardExecutor(workers=1, engine="gpusim")  # not shardable

    def test_bad_errors_mode(self, rng):
        X, Y = _rect_batch(rng, pairs=4)
        with ShardExecutor(workers=1) as ex:
            with pytest.raises(ValueError, match="errors must be"):
                ex.run(X, Y, SCHEME, errors="ignore")

    def test_pair_count_mismatch(self):
        with ShardExecutor(workers=1) as ex:
            with pytest.raises(ValueError, match="pair count mismatch"):
                ex.run(np.zeros((3, 4), np.uint8),
                       np.zeros((2, 4), np.uint8), SCHEME)

    def test_bad_batch_ndim(self):
        with ShardExecutor(workers=1) as ex:
            with pytest.raises(ValueError, match="code matrix"):
                ex.run(np.zeros((2, 3, 4), np.uint8),
                       np.zeros((2, 3, 4), np.uint8), SCHEME)


class TestWorkerLayer:
    def test_payload_roundtrip(self, rng):
        xs, ys = _ragged_batch(rng, pairs=9)
        payload = pack_shard(5, xs, ys)
        assert payload.shard_id == 5 and payload.pairs == 9
        back = unpack_side(payload.xbuf, payload.xlens)
        assert len(back) == 9
        for orig, got in zip(xs, back):
            assert np.array_equal(orig, got)

    def test_corrupt_payload_rejected(self):
        payload = pack_shard(0, [np.zeros(4, np.uint8)],
                             [np.zeros(4, np.uint8)])
        with pytest.raises(ValueError, match="corrupt shard payload"):
            unpack_side(payload.xbuf[:-1], payload.xlens)

    def test_score_codes_uniform_takes_unpadded_path(self, rng):
        # A uniform-shape shard must make exactly one engine call with
        # no sentinel padding — the bit-identical fast path.
        calls = []

        def spy(X, Y, scheme, word_bits):
            calls.append((X.copy(), Y.copy()))
            return ENGINES["bpbc"].score(X, Y, scheme, word_bits)

        xs = [rng.integers(0, 4, size=33, dtype=np.uint8)
              for _ in range(8)]
        ys = [rng.integers(0, 4, size=47, dtype=np.uint8)
              for _ in range(8)]
        scores = score_codes(spy, xs, ys, SCHEME, 64)
        assert len(calls) == 1
        X, Y = calls[0]
        assert X.shape == (8, 33) and Y.shape == (8, 47)
        assert X.max() <= 3 and Y.max() <= 3
        assert np.array_equal(scores, _gold(xs, ys))

    def test_score_codes_ragged_matches_gold(self, rng):
        xs, ys = _ragged_batch(rng, pairs=20)
        scores = score_codes(ENGINES["bpbc"].score, xs, ys, SCHEME, 64,
                             bin_granularity=16)
        assert np.array_equal(scores, _gold(xs, ys))

    def test_resolve_engine(self):
        assert resolve("bpbc") is ENGINES["bpbc"].score
        assert resolve(_poison_engine) is _poison_engine
        with pytest.raises(ValueError):
            resolve("nope")


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
