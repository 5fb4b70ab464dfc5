"""Ablation benchmarks for the design choices DESIGN.md calls out.

* score width ``s`` — circuit cost is linear in s (Theorem 6), so
  running wider-than-needed planes wastes proportional time;
* word width / lane count — the bulk advantage needs wide batches:
  sweep the pair count to expose the crossover against wordwise;
* traversal order — the paper's sequential (row-major) listing vs the
  wavefront engine on identical inputs;
* circuit building blocks — per-primitive micro-benchmarks matching
  Lemmas 2-4.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitsliced import BitSlicedUInt
from repro.core.circuits import add_b, max_b, ssub_b, sw_cell
from repro.core.encoding import encode_batch_bit_transposed
from repro.core.sw_bpbc import bpbc_sw_sequential, bpbc_sw_wavefront
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.workloads.datasets import paper_workload

from .conftest import SCHEME


# -- score width ------------------------------------------------------------

@pytest.mark.benchmark(group="ablation-score-width")
@pytest.mark.parametrize("s", [6, 9, 12, 16])
def test_score_width_sweep(benchmark, s):
    """m=16, so s=6 suffices; wider planes burn linearly more ops."""
    batch = paper_workload(128, pairs=1024, m=16, seed=7)
    XH, XL = encode_batch_bit_transposed(batch.X, 64)
    YH, YL = encode_batch_bit_transposed(batch.Y, 64)
    benchmark(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64, s)


# -- bulk width crossover ----------------------------------------------------

@pytest.mark.benchmark(group="ablation-bulk-width")
@pytest.mark.parametrize("pairs", [64, 512, 4096])
def test_bitwise_vs_pairs(benchmark, pairs):
    batch = paper_workload(128, pairs=pairs, m=32, seed=8)
    XH, XL = encode_batch_bit_transposed(batch.X, 64)
    YH, YL = encode_batch_bit_transposed(batch.Y, 64)
    benchmark(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64)


@pytest.mark.benchmark(group="ablation-bulk-width")
@pytest.mark.parametrize("pairs", [64, 512, 4096])
def test_wordwise_vs_pairs(benchmark, pairs):
    batch = paper_workload(128, pairs=pairs, m=32, seed=8)
    benchmark(sw_batch_max_scores, batch.X, batch.Y, SCHEME)


# -- traversal order ----------------------------------------------------------

@pytest.mark.benchmark(group="ablation-traversal")
def test_row_major_traversal(benchmark, small_batch):
    XH, XL = encode_batch_bit_transposed(small_batch.X, 64)
    YH, YL = encode_batch_bit_transposed(small_batch.Y, 64)
    benchmark(bpbc_sw_sequential, XH, XL, YH, YL, SCHEME, 64)


@pytest.mark.benchmark(group="ablation-traversal")
def test_wavefront_traversal(benchmark, small_batch):
    XH, XL = encode_batch_bit_transposed(small_batch.X, 64)
    YH, YL = encode_batch_bit_transposed(small_batch.Y, 64)
    benchmark(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64)


# -- circuit primitives --------------------------------------------------------

def _operands(s=9, lanes=4096, w=64):
    rng = np.random.default_rng(9)
    a = BitSlicedUInt.from_ints(rng.integers(0, 1 << s, lanes * w // w),
                                s, w)
    return list(a.data), list(a.data)


@pytest.mark.benchmark(group="ablation-circuits")
def test_max_b_primitive(benchmark):
    A, B = _operands()
    benchmark(max_b, A, B)


@pytest.mark.benchmark(group="ablation-circuits")
def test_add_b_primitive(benchmark):
    A, B = _operands()
    benchmark(add_b, A, B)


@pytest.mark.benchmark(group="ablation-circuits")
def test_ssub_b_primitive(benchmark):
    A, B = _operands()
    benchmark(ssub_b, A, B)


@pytest.mark.benchmark(group="ablation-circuits")
def test_sw_cell_primitive(benchmark):
    A, B = _operands()
    rng = np.random.default_rng(10)
    x = list(BitSlicedUInt.from_ints(rng.integers(0, 4, 64), 2, 64).data)
    benchmark(sw_cell, A, B, A, x, x, 1, 2, 1, 64)


# -- generic circuit vs compiled folded netlist --------------------------------

@pytest.mark.benchmark(group="ablation-cell-evaluator")
@pytest.mark.parametrize("cell", ["generic", "compiled"])
def test_cell_evaluator(benchmark, cell):
    """The compiled cell runs the constant-folded netlist, which bakes
    gap/c1/c2 into the gates: 1.6x fewer bitwise ops than the
    paper-literal circuit, fused into one generated step per
    diagonal."""
    batch = paper_workload(256, pairs=2048, m=64, seed=13)
    XH, XL = encode_batch_bit_transposed(batch.X, 64)
    YH, YL = encode_batch_bit_transposed(batch.Y, 64)
    benchmark(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64, None,
              None, cell)
