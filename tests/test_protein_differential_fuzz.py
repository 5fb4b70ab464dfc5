"""Seeded differential fuzzing of the protein BPBC paths.

The protein counterpart of :mod:`tests.test_differential_fuzz`: a
seeded stream of ~2,080 random amino-acid pairs — plus degenerate
families (length-1, all-one-residue, ``x == y``, wildcard-heavy) —
scored by every substitution-matrix engine and pinned against the
word-wise scalar Gotoh reference
(:func:`repro.core.protein.subst_gotoh_batch_max_scores`).

Schemes rotate across the three shipped matrices (BLOSUM62 affine
11/1, BLOSUM50 affine 10/2, PAM250 linear 4/4) plus a *seed-derived
random integer matrix*, so the nightly seed rotation fuzzes the
mux-tree synthesis itself, not just the sequences.  Word sizes rotate
over {8, 16, 32, 64}.

Reproducing a failure
---------------------
Every assertion message carries the run seed, the scheme, the group
and pair index, and the offending sequences.  The seed defaults to a
fixed constant (so the tier-1 run is deterministic) and is overridden
by the ``REPRO_FUZZ_SEED`` environment variable — CI's nightly fuzz
job rotates it.  To replay a CI failure locally::

    REPRO_FUZZ_SEED=<seed from the failure message> \
        python -m pytest tests/test_protein_differential_fuzz.py

Pairs are grouped into rectangular (m, n) groups of 40 so the batch
engines run batched, exactly as production callers drive them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.affine_bpbc import bpbc_gotoh_wavefront_planes
from repro.core.alphabet import PROTEIN_X
from repro.core.encoding import encode_batch_char_planes
from repro.core.matrices import (BLOSUM50, BLOSUM62, PAM250,
                                 SubstitutionMatrix)
from repro.core.protein import (ProteinScheme, subst_gotoh_batch_max_scores,
                                subst_gotoh_matrix, subst_gotoh_max_score)
from repro.core.sw_bpbc import bpbc_sw_wavefront_planes
from repro.engines import ENGINES
from repro.serve.packer import pack_requests
from repro.serve.queue import AlignmentRequest
from repro.swa.traceback import align, fill_matrices, weight_matrix

from .oracles import gotoh_matrices, oracle_align

#: Default seed for deterministic tier-1 runs; CI's fuzz job rotates
#: it via the environment (see module docstring).
DEFAULT_SEED = 20260808

SEED = int(os.environ.get("REPRO_FUZZ_SEED", DEFAULT_SEED))

GROUPS = 52
GROUP_PAIRS = 40
MAX_LEN = 96
WORD_SIZES = (8, 16, 32, 64)

#: Degenerate families injected on a fixed cadence.
KINDS = ("random", "len1", "same_res", "equal", "wildcard")

A = PROTEIN_X.size  # 22 residue codes


def _random_matrix(seed: int) -> SubstitutionMatrix:
    """A symmetric integer matrix derived from the run seed.

    Scores span [-7, 7] with a positive diagonal, so the scheme
    validates and local alignments can start; a rotated seed therefore
    fuzzes the mux-tree synthesis itself, not just the sequences.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    vals = rng.integers(-7, 8, size=(A, A))
    vals = np.minimum(vals, vals.T)  # symmetric
    np.fill_diagonal(vals, rng.integers(1, 8, size=A))
    return SubstitutionMatrix.from_rows(
        f"fuzz-random-{seed}", PROTEIN_X.letters, vals)


#: Protein schemes rotated across groups: the three shipped matrices
#: (affine and the linear go == ge degeneracy) plus the random one.
SCHEMES = (
    ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1),
    ProteinScheme(BLOSUM50, gap_open=10, gap_extend=2),
    ProteinScheme(PAM250, gap_open=4, gap_extend=4),    # linear
    ProteinScheme(_random_matrix(SEED), gap_open=7, gap_extend=3),
)


@dataclass(frozen=True)
class FuzzGroup:
    """One rectangular batch of fuzz pairs plus its gold scores."""

    index: int
    kind: str
    scheme: ProteinScheme
    word_bits: int
    X: np.ndarray          # (GROUP_PAIRS, m) uint8
    Y: np.ndarray          # (GROUP_PAIRS, n) uint8
    gold: np.ndarray       # (GROUP_PAIRS,) int64


def _biased_len(rng: np.random.Generator) -> int:
    """Length in 1..MAX_LEN, cubically biased toward short."""
    return 1 + int((MAX_LEN - 1) * rng.random() ** 3)


def _make_group(index: int, rng: np.random.Generator) -> FuzzGroup:
    kind = KINDS[index % len(KINDS)] if index % 4 == 3 else "random"
    if index % 13 == 5:
        kind = KINDS[1 + index % 4]  # extra degenerate coverage
    scheme = SCHEMES[index % len(SCHEMES)]
    word_bits = WORD_SIZES[(index // len(SCHEMES)) % len(WORD_SIZES)]
    if kind == "len1":
        m, n = 1, _biased_len(rng)
    else:
        m, n = _biased_len(rng), _biased_len(rng)
    if kind == "same_res":
        res = int(rng.integers(0, A))
        X = np.full((GROUP_PAIRS, m), res, dtype=np.uint8)
        Y = np.full((GROUP_PAIRS, n), res, dtype=np.uint8)
    else:
        X = rng.integers(0, A, size=(GROUP_PAIRS, m), dtype=np.uint8)
        Y = rng.integers(0, A, size=(GROUP_PAIRS, n), dtype=np.uint8)
    if kind == "wildcard":
        # Salt both sides with the unknown-residue code X and the
        # stop *, the rows a real proteome's masked regions hit.
        for Z in (X, Y):
            salt = rng.random(Z.shape) < 0.3
            Z[salt] = np.where(rng.random(Z.shape) < 0.5, A - 2,
                               A - 1)[salt]
    if kind == "equal":
        n = m
        Y = X.copy()
    gold = subst_gotoh_batch_max_scores(X, Y, scheme)
    return FuzzGroup(index=index, kind=kind, scheme=scheme,
                     word_bits=word_bits, X=X, Y=Y, gold=gold)


@pytest.fixture(scope="module")
def fuzz_groups() -> list[FuzzGroup]:
    """The full seeded workload, gold-scored once for all tests."""
    rng = np.random.default_rng(SEED)
    return [_make_group(i, rng) for i in range(GROUPS)]


def _explain(engine: str, group: FuzzGroup,
             scores: np.ndarray) -> str:
    """A failure message sufficient to reproduce one bad pair."""
    bad = np.flatnonzero(np.asarray(scores) != group.gold)
    p = int(bad[0]) if bad.size else -1
    return (
        f"{engine} disagrees with the scalar Gotoh gold on "
        f"{bad.size} of {GROUP_PAIRS} pairs.\n"
        f"  seed={SEED} (rerun: REPRO_FUZZ_SEED={SEED})\n"
        f"  group={group.index} kind={group.kind} "
        f"word_bits={group.word_bits} "
        f"shape=({group.X.shape[1]}, {group.Y.shape[1]})\n"
        f"  matrix={group.scheme.matrix.name} "
        f"gap_open={group.scheme.gap_open} "
        f"gap_extend={group.scheme.gap_extend}\n"
        f"  first bad pair={p}: "
        f"got {int(scores[p])} want {int(group.gold[p])}\n"
        f"  x={PROTEIN_X.decode(group.X[p])}\n"
        f"  y={PROTEIN_X.decode(group.Y[p])}"
    )


def _engine_scores(group: FuzzGroup, cell: str) -> np.ndarray:
    """Run the bit-sliced engine a production caller would pick."""
    eps = group.scheme.alphabet.pad_bits
    Xp = encode_batch_char_planes(group.X, group.word_bits,
                                  char_bits=eps)
    Yp = encode_batch_char_planes(group.Y, group.word_bits,
                                  char_bits=eps)
    if group.scheme.is_affine:
        result = bpbc_gotoh_wavefront_planes(
            Xp, Yp, group.scheme, group.word_bits, cell=cell)
    else:
        result = bpbc_sw_wavefront_planes(
            Xp, Yp, group.scheme, group.word_bits, cell=cell)
    return result.max_scores[:GROUP_PAIRS]


def test_workload_shape(fuzz_groups):
    """The stream holds >= 2,000 pairs and every advertised family."""
    assert GROUPS * GROUP_PAIRS >= 2000
    kinds = {g.kind for g in fuzz_groups}
    assert kinds == set(KINDS)
    schemes = {g.scheme for g in fuzz_groups}
    assert schemes == set(SCHEMES)
    sizes = {g.word_bits for g in fuzz_groups}
    assert sizes == set(WORD_SIZES)
    assert any(not g.scheme.is_affine for g in fuzz_groups)


def test_pure_python_gotoh_agrees(fuzz_groups):
    """The O(mn) pure-Python DP cross-checks the vectorised gold."""
    for g in fuzz_groups[::2]:
        for p in range(0, GROUP_PAIRS, 4):
            got = subst_gotoh_max_score(g.X[p], g.Y[p], g.scheme)
            assert got == int(g.gold[p]), \
                _explain("core.protein.subst_gotoh_max_score", g,
                         np.where(np.arange(GROUP_PAIRS) == p, got,
                                  g.gold))


def test_row_scan_matches_oracles(fuzz_groups):
    """The numpy row-scan fill behind every survivor alignment, on one
    pair per group (every family, wildcards included): H cell for
    cell against ``subst_gotoh_matrix``, E/F against the pure-Python
    E/F oracle, and ``align``'s alignment against the one the
    unchanged walk traces through the oracle matrices."""
    for g in fuzz_groups:
        sch = g.scheme
        p = g.index % GROUP_PAIRS
        x, y = g.X[p], g.Y[p]
        got = fill_matrices(weight_matrix(x, y, sch), sch.gap_open,
                            sch.gap_extend)
        want = gotoh_matrices(x, y, sch)
        where = (f"seed={SEED} (rerun: REPRO_FUZZ_SEED={SEED}) "
                 f"group={g.index} kind={g.kind} pair={p} "
                 f"matrix={sch.matrix.name} gap_open={sch.gap_open} "
                 f"gap_extend={sch.gap_extend}\n"
                 f"  x={PROTEIN_X.decode(x)}\n  y={PROTEIN_X.decode(y)}")
        assert np.array_equal(got[0], subst_gotoh_matrix(x, y, sch)), \
            f"row-scan H differs from subst_gotoh_matrix: {where}"
        for name, a, b in zip("HEF", got, want):
            assert np.array_equal(a, b), \
                f"row-scan {name} differs from the E/F oracle: {where}"
        assert align(x, y, sch) == oracle_align(x, y, sch, matrices=want), \
            f"row-scan alignment differs from the oracle's: {where}"


def test_generic_cell_agrees(fuzz_groups):
    """The interpreted (op-countable) cell on every group."""
    for g in fuzz_groups:
        scores = _engine_scores(g, "generic")
        assert np.array_equal(scores, g.gold), \
            _explain("bpbc[generic]", g, scores)


def test_compiled_cell_agrees(fuzz_groups):
    """The :mod:`repro.jit` lowering on every group."""
    for g in fuzz_groups:
        scores = _engine_scores(g, "compiled")
        assert np.array_equal(scores, g.gold), \
            _explain("bpbc[compiled]", g, scores)


def test_c_backend_agrees(fuzz_groups):
    """The native step backend, where a C toolchain exists."""
    from repro.jit import cc_available

    if not cc_available():
        pytest.skip("no C compiler on this machine")
    for g in fuzz_groups[::3]:
        scores = _engine_scores(g, "compiled-c")
        assert np.array_equal(scores, g.gold), \
            _explain("bpbc[compiled-c]", g, scores)


def test_gpusim_pipeline_agrees(fuzz_groups):
    """The simulated-GPU Gotoh pipeline on small shapes.

    The SIMT simulator interprets every thread, so this sticks to the
    smallest group per scheme — the full sweep belongs to the direct
    engine tests above, which share the per-cell circuit.
    """
    from repro.kernels.pipeline import run_gpu_pipeline

    for scheme in SCHEMES:
        groups = [g for g in fuzz_groups if g.scheme == scheme]
        g = min(groups, key=lambda g: g.X.shape[1] * g.Y.shape[1])
        take = min(GROUP_PAIRS, 8)
        scores, _ = run_gpu_pipeline(g.X[:take], g.Y[:take], scheme,
                                     word_bits=32)
        assert np.array_equal(scores[:take], g.gold[:take]), \
            _explain("gpusim.run_gpu_pipeline", g,
                     np.concatenate([scores[:take], g.gold[take:]]))


@pytest.mark.parametrize("engine_name", ["numpy", "bpbc"])
def test_serve_engines_agree(fuzz_groups, engine_name):
    """Serve engines, fed sentinel-padded mixed-shape protein batches
    exactly as the alignment service packs them."""
    engine = ENGINES[engine_name].score
    for scheme in SCHEMES:
        groups = [g for g in fuzz_groups if g.scheme == scheme][:5]
        requests, gold_of = [], {}
        for g in groups:
            for p in range(0, GROUP_PAIRS, 2):
                req = AlignmentRequest(
                    query=g.X[p], subject=g.Y[p], scheme=scheme,
                    threshold=None, deadline=None, future=None,
                    enqueued_at=0.0)
                requests.append(req)
                gold_of[id(req)] = int(g.gold[p])
        for batch in pack_requests(requests, granularity=64):
            scores = np.asarray(engine(batch.X, batch.Y, batch.scheme, 64))
            want = np.asarray([gold_of[id(r)] for r in batch.requests])
            bad = np.flatnonzero(scores != want)
            assert bad.size == 0, (
                f"serve engine {engine_name!r} disagrees with gold on "
                f"{bad.size} of {len(want)} packed pairs.\n"
                f"  seed={SEED} (rerun: REPRO_FUZZ_SEED={SEED})\n"
                f"  matrix={scheme.matrix.name} "
                f"gap_open={scheme.gap_open} "
                f"gap_extend={scheme.gap_extend}\n"
                f"  first bad: got {int(scores[bad[0]])} "
                f"want {int(want[bad[0]])}"
            )
