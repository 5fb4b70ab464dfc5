"""Concurrency guarantees of the shared compiled evaluators.

:func:`repro.jit.cells.sw_wavefront_step` and
:func:`repro.jit.cells.compiled_sw_cell` are ``lru_cache``-memoised
process-wide, so every thread in the process shares one
:class:`~repro.jit.compiler.CompiledNetlist` instance — serve's
``EnginePool`` (default ``workers=2``) does exactly that on its hot
path.  The instance keeps its temporary-buffer pool in thread-local
storage; these differential tests pin that concurrent evaluations
cannot clobber each other's temporaries (they did before the pool was
made thread-local: concurrent runs returned silently wrong scores).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.encoding import encode_batch_bit_transposed
from repro.core.sw_bpbc import bpbc_sw_wavefront
from repro.jit import compiled_sw_cell
from repro.serve import AlignmentService
from repro.filter.screening import bpbc_max_scores
from repro.swa.scoring import DEFAULT_SCHEME, ScoringScheme
from repro.swa.sequential import sw_max_score
from repro.workloads.datasets import paper_workload

SCHEME = ScoringScheme(match_score=2, mismatch_penalty=1, gap_penalty=1)
WORD_BITS = 64
THREADS = 8
RUNS = 32


class TestSharedEvaluatorConcurrency:
    def _planes(self):
        batch = paper_workload(48, pairs=64, m=24, seed=7)
        XH, XL = encode_batch_bit_transposed(batch.X, WORD_BITS)
        YH, YL = encode_batch_bit_transposed(batch.Y, WORD_BITS)
        return XH, XL, YH, YL

    def test_concurrent_wavefront_matches_single_threaded(self):
        """Many threads hammering one memoised compiled-numpy step must
        agree bit-for-bit with the single-threaded reference."""
        XH, XL, YH, YL = self._planes()
        ref = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, WORD_BITS,
                                cell="generic").max_scores

        def run(_):
            return bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, WORD_BITS,
                                     cell="compiled-numpy").max_scores

        run(0)  # warm the process-wide memoised evaluator first
        barrier = threading.Barrier(THREADS)

        def contended(k):
            barrier.wait(timeout=60)  # maximise overlap
            return run(k)

        with ThreadPoolExecutor(max_workers=THREADS) as ex:
            first_wave = list(ex.map(contended, range(THREADS)))
            rest = list(ex.map(run, range(RUNS)))
        for got in first_wave + rest:
            np.testing.assert_array_equal(got, ref)

    def test_compiled_cell_pools_are_per_thread(self):
        """Each thread warms its own scratch pool on the shared
        instance — no thread ever sees another's buffers.  The worker
        threads are held alive until every pool has been collected, so
        the id() comparison cannot be confused by address reuse."""
        compiled = compiled_sw_cell(4, 1, 2, 1, word_bits=32)
        shape = (5,)
        ins = [np.zeros(shape, np.uint32)
               for _ in range(compiled.plan.n_inputs)]

        def pool_ids():
            outs = [np.zeros(shape, np.uint32)
                    for _ in range(compiled.n_outputs)]
            compiled.run(ins, outs)
            return {id(b) for _cap, bufs in compiled._pools.values()
                    for b in bufs}

        main_ids = pool_ids()
        id_sets: list[set[int]] = []
        lock = threading.Lock()
        hold = threading.Event()

        def worker():
            ids = pool_ids()
            with lock:
                id_sets.append(ids)
            hold.wait(timeout=60)  # keep this thread's pool alive

        threads = [threading.Thread(target=worker) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            deadline = 60.0
            while True:
                with lock:
                    if len(id_sets) == len(threads):
                        break
                deadline -= 0.01
                assert deadline > 0, "workers never reported their pools"
                threading.Event().wait(0.01)
            with lock:
                sets = [main_ids] + list(id_sets)
            for i, a in enumerate(sets):
                assert len(a) == compiled.n_slots
                for b in sets[i + 1:]:
                    assert not a & b, "threads shared pool buffers"
        finally:
            hold.set()
            for t in threads:
                t.join(timeout=60)


class TestEnginePoolConcurrency:
    def test_service_compiled_numpy_engine_exact(self, rng):
        """EnginePool workers calling the compiled-numpy evaluator
        concurrently resolve every future to the exact DP score."""
        def engine(X, Y, scheme, word_bits):
            return bpbc_max_scores(X, Y, scheme, word_bits,
                                   cell="compiled-numpy")

        svc = AlignmentService(engine=engine, workers=4, max_wait_ms=2,
                               cache_size=0)
        results = []
        errors = []
        seeds = rng.integers(0, 2**31, size=THREADS)

        def client(seed):
            local = np.random.default_rng(seed)
            try:
                pairs = [(local.integers(0, 4, 16, dtype=np.uint8),
                          local.integers(0, 4, 16, dtype=np.uint8))
                         for _ in range(12)]
                futures = [svc.submit(q, s) for q, s in pairs]
                for (q, s), fut in zip(pairs, futures):
                    results.append((q, s, fut.result(timeout=60).score))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with svc:
            threads = [threading.Thread(target=client, args=(s,))
                       for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        assert not errors
        assert len(results) == THREADS * 12
        for q, s, score in results:
            assert score == sw_max_score(q, s, DEFAULT_SCHEME)
