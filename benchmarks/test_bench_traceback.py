"""Speed guard for the survivor DP fill (screen and search tier 2).

Survivors of the bulk screen are re-aligned on the CPU (paper §III).
Their matrices come from the numpy row scan
:func:`repro.swa.traceback.fill_matrices`; this guard asserts, at the
paper's m = 128 against n = 1024, that the scan is cell-identical to
the pure-Python oracle and at least ``MIN_SPEEDUP`` times faster (best
of ``ROUNDS`` each), for the linear and the Gotoh fill.  A regression
back to a per-cell Python loop fails it.  Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_traceback.py
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.swa.affine import AffineScheme, gotoh_matrix
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_matrix
from repro.swa.traceback import fill_matrices, weight_matrix

M, N = 128, 1024
ROUNDS = 3
MIN_SPEEDUP = 10.0


def _best(fn, *args) -> tuple[float, object]:
    times, out = [], None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times), out


def _scan(x, y, scheme, gap_open, gap_extend):
    return fill_matrices(weight_matrix(x, y, scheme), gap_open,
                         gap_extend)[0]


@pytest.mark.parametrize("scheme, oracle, gaps", [
    (ScoringScheme(2, 1, 1), sw_matrix, (1, 1)),
    (AffineScheme(2, 1, 3, 1), gotoh_matrix, (3, 1)),
], ids=["linear", "gotoh"])
def test_scan_fill_beats_oracle(scheme, oracle, gaps):
    rng = np.random.default_rng(7)
    x = rng.integers(0, 4, M, dtype=np.uint8)
    y = rng.integers(0, 4, N, dtype=np.uint8)
    t_scan, H = _best(_scan, x, y, scheme, *gaps)
    t_oracle, want = _best(oracle, x, y, scheme)
    np.testing.assert_array_equal(H, want)
    speedup = t_oracle / t_scan
    print(f"\n{oracle.__name__}: oracle {t_oracle * 1e3:.1f} ms, "
          f"scan {t_scan * 1e3:.2f} ms, x{speedup:.1f}")
    assert speedup >= MIN_SPEEDUP, (
        f"row-scan fill only x{speedup:.1f} faster than "
        f"{oracle.__name__} at {M}x{N} (need x{MIN_SPEEDUP:g})")
