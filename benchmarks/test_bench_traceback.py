"""Speed guard for the survivor DP fill (screen and search tier 2).

Survivors of the bulk screen are re-aligned on the CPU (paper §III).
Their matrices come from :func:`repro.swa.traceback.fill_matrices`:
the C kernel where a compiler exists, the numpy row scan otherwise.
At the paper's m = 128 against n = 1024, for the linear and the Gotoh
fill (best of ``ROUNDS`` each), this guard asserts that

* the default fill is cell-identical to the pure-Python oracle and at
  least ``MIN_SPEEDUP`` times faster — a regression back to a per-cell
  Python loop fails it;
* the C fill is cell-identical to the numpy row scan and at least
  ``MIN_NATIVE_SPEEDUP`` times faster — a kernel that stops compiling
  to a tight loop fails it (skipped without a compiler).

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_traceback.py
"""

from __future__ import annotations

import importlib
import time

import numpy as np
import pytest

from repro.jit import cbackend
from repro.swa.affine import AffineScheme, gotoh_matrix
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_matrix
from repro.swa.traceback import fill_matrices, weight_matrix

M, N = 128, 1024
ROUNDS = 3
MIN_SPEEDUP = 10.0
MIN_NATIVE_SPEEDUP = 3.0

CASES = pytest.mark.parametrize("scheme, oracle, gaps", [
    (ScoringScheme(2, 1, 1), sw_matrix, (1, 1)),
    (AffineScheme(2, 1, 3, 1), gotoh_matrix, (3, 1)),
], ids=["linear", "gotoh"])


def _best(fn, *args) -> tuple[float, object]:
    times, out = [], None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times), out


def _fill(x, y, scheme, gap_open, gap_extend):
    return fill_matrices(weight_matrix(x, y, scheme), gap_open,
                         gap_extend)


def _pair():
    rng = np.random.default_rng(7)
    return (rng.integers(0, 4, M, dtype=np.uint8),
            rng.integers(0, 4, N, dtype=np.uint8))


@CASES
def test_scan_fill_beats_oracle(scheme, oracle, gaps):
    x, y = _pair()
    t_fill, (H, _, _) = _best(_fill, x, y, scheme, *gaps)
    t_oracle, want = _best(oracle, x, y, scheme)
    np.testing.assert_array_equal(H, want)
    speedup = t_oracle / t_fill
    print(f"\n{oracle.__name__}: oracle {t_oracle * 1e3:.1f} ms, "
          f"fill {t_fill * 1e3:.2f} ms, x{speedup:.1f}")
    assert speedup >= MIN_SPEEDUP, (
        f"survivor fill only x{speedup:.1f} faster than "
        f"{oracle.__name__} at {M}x{N} (need x{MIN_SPEEDUP:g})")


@CASES
def test_native_fill_beats_row_scan(scheme, oracle, gaps, monkeypatch):
    if not cbackend.cc_available():
        pytest.skip("no C compiler on this machine")
    tb = importlib.import_module("repro.swa.traceback")
    W = weight_matrix(*_pair(), scheme)
    fill_matrices(W, *gaps)  # compile outside the timed rounds
    t_native, native = _best(fill_matrices, W, *gaps)
    monkeypatch.setattr(cbackend, "compiler_path", lambda: None)
    tb._fill_kernel.cache_clear()
    try:
        t_scan, scan = _best(fill_matrices, W, *gaps)
    finally:
        tb._fill_kernel.cache_clear()
    for a, b in zip(native, scan):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    speedup = t_scan / t_native
    print(f"\n{oracle.__name__} shape: row scan {t_scan * 1e3:.2f} ms, "
          f"C {t_native * 1e3:.2f} ms, x{speedup:.1f}")
    assert speedup >= MIN_NATIVE_SPEEDUP, (
        f"C fill only x{speedup:.1f} faster than the numpy row scan at "
        f"{M}x{N} (need x{MIN_NATIVE_SPEEDUP:g})")
