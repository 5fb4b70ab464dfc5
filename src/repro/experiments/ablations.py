"""Ablation studies for the design choices DESIGN.md calls out.

Not a paper table — this experiment quantifies the knobs around the
paper's design on this machine:

* **score width s** — circuit cost is linear in s (Theorem 6);
* **bulk width** — the BPBC advantage needs wide batches: sweep the
  pair count to find the crossover against the wordwise engine;
* **cell evaluator** — paper-literal circuit vs the constant-folded
  netlist compiled by :mod:`repro.jit` (the optimisation a tuned
  kernel applies);
* **gap model** — the affine (Gotoh) engine's overhead over linear;
* **alphabet width** — protein (eps=5) vs DNA (eps=2) per-cell cost.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.affine_bpbc import bpbc_gotoh_wavefront, gotoh_cell_ops_exact
from ..core.alphabet import DNA, PROTEIN
from ..core.circuits import sw_cell_ops_exact
from ..core.encoding import encode_batch_bit_transposed
from ..core.netlist import build_sw_cell_netlist
from ..core.sw_bpbc import bpbc_sw_wavefront, bpbc_sw_wavefront_planes
from ..swa.affine import AffineScheme
from ..swa.numpy_batch import sw_batch_max_scores
from ..swa.scoring import ScoringScheme
from ..workloads.datasets import paper_workload
from .report import render_table

__all__ = ["run", "score_width_study", "bulk_width_study",
           "cell_evaluator_study", "gap_model_study", "alphabet_study"]

SCHEME = ScoringScheme(2, 1, 1)


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return (time.perf_counter() - t0) * 1e3


def score_width_study(pairs: int = 1024, m: int = 16,
                      n: int = 128) -> list[dict]:
    """Wall-clock vs score width (ops are linear in s)."""
    batch = paper_workload(n, pairs=pairs, m=m, seed=21)
    XH, XL = encode_batch_bit_transposed(batch.X, 64)
    YH, YL = encode_batch_bit_transposed(batch.Y, 64)
    out = []
    for s in (6, 9, 12, 16):
        ms = _timed(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64, s)
        out.append({"s": s, "ms": ms,
                    "ops_per_cell": sw_cell_ops_exact(s, 2)})
    return out


def bulk_width_study(m: int = 32, n: int = 128) -> list[dict]:
    """Bitwise vs wordwise across pair counts (the crossover)."""
    out = []
    for pairs in (64, 256, 1024, 4096):
        batch = paper_workload(n, pairs=pairs, m=m, seed=22)
        XH, XL = encode_batch_bit_transposed(batch.X, 64)
        YH, YL = encode_batch_bit_transposed(batch.Y, 64)
        bit = _timed(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64)
        word = _timed(sw_batch_max_scores, batch.X, batch.Y, SCHEME)
        out.append({"pairs": pairs, "bitwise_ms": bit,
                    "wordwise_ms": word, "speedup": word / bit})
    return out


def cell_evaluator_study(pairs: int = 2048, m: int = 64,
                         n: int = 256) -> dict:
    """Generic circuit vs the repro.jit compiled cell.

    Larger lane arrays than the other studies, so the generic cell's
    per-NumPy-call dispatch is not the whole story."""
    batch = paper_workload(n, pairs=pairs, m=m, seed=23)
    XH, XL = encode_batch_bit_transposed(batch.X, 64)
    YH, YL = encode_batch_bit_transposed(batch.Y, 64)
    s = SCHEME.score_bits(m, n)
    generic_ms = _timed(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64,
                        None, None, "generic")
    compiled_ms = _timed(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64,
                         None, None, "compiled")
    net = build_sw_cell_netlist(s, SCHEME.gap_penalty,
                                SCHEME.match_score,
                                SCHEME.mismatch_penalty)
    return {
        "generic_ms": generic_ms,
        "compiled_ms": compiled_ms,
        "speedup": generic_ms / compiled_ms,
        "generic_ops": sw_cell_ops_exact(s, 2),
        "folded_gates": net.logic_gate_count(),
    }


def gap_model_study(pairs: int = 1024, m: int = 16,
                    n: int = 128) -> dict:
    """Affine (Gotoh) overhead over the linear model."""
    batch = paper_workload(n, pairs=pairs, m=m, seed=24)
    XH, XL = encode_batch_bit_transposed(batch.X, 64)
    YH, YL = encode_batch_bit_transposed(batch.Y, 64)
    s = SCHEME.score_bits(m, n)
    linear_ms = _timed(bpbc_sw_wavefront, XH, XL, YH, YL, SCHEME, 64)
    affine_ms = _timed(bpbc_gotoh_wavefront, XH, XL, YH, YL,
                       AffineScheme(2, 1, 3, 1), 64)
    return {
        "linear_ms": linear_ms,
        "affine_ms": affine_ms,
        "measured_ratio": affine_ms / linear_ms,
        "op_ratio": gotoh_cell_ops_exact(s, 2) / sw_cell_ops_exact(s, 2),
    }


def alphabet_study(pairs: int = 1024, m: int = 16,
                   n: int = 128) -> list[dict]:
    """Per-cell cost of wider alphabets."""
    rng = np.random.default_rng(25)
    out = []
    for alphabet in (DNA, PROTEIN):
        X = rng.integers(0, alphabet.size, (pairs, m)).astype(np.uint8)
        Y = rng.integers(0, alphabet.size, (pairs, n)).astype(np.uint8)
        Xp = alphabet.batch_planes(X, 64)
        Yp = alphabet.batch_planes(Y, 64)
        ms = _timed(bpbc_sw_wavefront_planes, Xp, Yp, SCHEME, 64)
        out.append({"alphabet": alphabet.name, "eps": alphabet.bits,
                    "ms": ms})
    return out


def run(verbose: bool = True) -> str:
    """Render all five ablation studies."""
    parts = []
    rows = score_width_study()
    parts.append(render_table(
        ["s (bits)", "ops/cell", "time (ms)"],
        [[r["s"], r["ops_per_cell"], r["ms"]] for r in rows],
        title="Ablation: score width (cost linear in s, Theorem 6)"))
    rows = bulk_width_study()
    parts.append(render_table(
        ["pairs", "bitwise (ms)", "wordwise (ms)", "speedup"],
        [[r["pairs"], r["bitwise_ms"], r["wordwise_ms"], r["speedup"]]
         for r in rows],
        title="Ablation: bulk width (BPBC needs wide batches)"))
    ce = cell_evaluator_study()
    parts.append(render_table(
        ["evaluator", "ops or gates / cell", "time (ms)"],
        [["generic circuit", ce["generic_ops"], ce["generic_ms"]],
         ["compiled (repro.jit)", ce["folded_gates"],
          ce["compiled_ms"]]],
        title="Ablation: constant folding + compilation "
              f"(compiled {ce['speedup']:.2f}x)"))
    gm = gap_model_study()
    parts.append(render_table(
        ["gap model", "time (ms)"],
        [["linear", gm["linear_ms"]], ["affine (Gotoh)",
                                       gm["affine_ms"]]],
        title=f"Ablation: gap model (op ratio {gm['op_ratio']:.2f}, "
              f"measured {gm['measured_ratio']:.2f}x)"))
    rows = alphabet_study()
    parts.append(render_table(
        ["alphabet", "eps (bits/char)", "time (ms)"],
        [[r["alphabet"], r["eps"], r["ms"]] for r in rows],
        title="Ablation: alphabet width (cost +2 ops per extra bit)"))
    out = "\n\n".join(parts)
    if verbose:
        print(out)
    return out
