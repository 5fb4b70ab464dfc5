"""Differential fuzzing: every Smith-Waterman engine on shared inputs.

The library has six ways to compute a maximum local-alignment score;
this cross-validation chain is the strongest single correctness
statement the suite makes, so it gets its own module.  For each random
workload, all of

1. pure-Python sequential DP (gold),
2. NumPy wavefront DP (per pair),
3. NumPy wordwise batch engine,
4. BPBC row-major engine,
5. BPBC wavefront engine (default compiled cell), and
6. the simulated GPU pipeline (shared-memory kernel)

must agree on every pair.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import encode_batch_bit_transposed
from repro.core.sw_bpbc import bpbc_sw_sequential, bpbc_sw_wavefront
from repro.kernels.pipeline import run_gpu_pipeline
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.parallel import sw_matrix_wavefront
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_matrix


def _all_engine_scores(X, Y, scheme, word_bits=32):
    P = X.shape[0]
    results = {}
    results["gold"] = np.array(
        [int(sw_matrix(X[p], Y[p], scheme).max()) for p in range(P)]
    )
    results["wavefront_dp"] = np.array(
        [int(sw_matrix_wavefront(X[p], Y[p], scheme).max())
         for p in range(P)]
    )
    results["wordwise_batch"] = sw_batch_max_scores(X, Y, scheme)
    XH, XL = encode_batch_bit_transposed(X, word_bits)
    YH, YL = encode_batch_bit_transposed(Y, word_bits)
    results["bpbc_rowmajor"] = bpbc_sw_sequential(
        XH, XL, YH, YL, scheme, word_bits
    ).max_scores[:P]
    results["bpbc_wavefront"] = bpbc_sw_wavefront(
        XH, XL, YH, YL, scheme, word_bits
    ).max_scores[:P]
    results["gpu_pipeline"] = run_gpu_pipeline(
        X, Y, scheme, word_bits=word_bits
    )[0]
    return results


class TestDifferential:
    def test_default_scheme_small(self, rng):
        scheme = ScoringScheme(2, 1, 1)
        X = rng.integers(0, 4, (40, 6), dtype=np.uint8)
        Y = rng.integers(0, 4, (40, 12), dtype=np.uint8)
        results = _all_engine_scores(X, Y, scheme)
        gold = results.pop("gold")
        for name, scores in results.items():
            np.testing.assert_array_equal(scores, gold, err_msg=name)

    @settings(max_examples=6, deadline=None)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 10),
        P=st.integers(1, 36),
        c1=st.integers(1, 3),
        c2=st.integers(0, 2),
        gap=st.integers(0, 2),
        w=st.sampled_from([32, 64]),
        seed=st.integers(0, 2**31),
    )
    def test_all_engines_property(self, m, n, P, c1, c2, gap, w, seed):
        rng = np.random.default_rng(seed)
        scheme = ScoringScheme(c1, c2, gap)
        X = rng.integers(0, 4, (P, m), dtype=np.uint8)
        Y = rng.integers(0, 4, (P, n), dtype=np.uint8)
        results = _all_engine_scores(X, Y, scheme, word_bits=w)
        gold = results.pop("gold")
        for name, scores in results.items():
            np.testing.assert_array_equal(scores, gold, err_msg=name)
