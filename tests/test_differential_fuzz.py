"""Seeded differential fuzzing: ~2,000 random pairs across engines.

:mod:`tests.test_differential` proves the engines agree on small
hypothesis-driven shapes; this module is the volume complement — a
seeded stream of ~2,080 random DNA pairs (lengths 1..200, biased
small so the pure-Python gold stays fast) plus degenerate families
(length-1, all-one-base, ``x == y``), scored by every max-score
engine and by the sharded process-pool backend, at a rotating set of
scoring schemes.

Reproducing a failure
---------------------
Every assertion message carries the run seed, the scheme, the group
and pair index, and the offending sequences.  The seed defaults to a
fixed constant (so the tier-1 run is deterministic) and is overridden
by the ``REPRO_FUZZ_SEED`` environment variable — CI's nightly fuzz
job rotates it.  To replay a CI failure locally::

    REPRO_FUZZ_SEED=<seed from the failure message> \
        python -m pytest tests/test_differential_fuzz.py

Pairs are grouped into rectangular (m, n) groups of 40 so the batch
engines run batched, exactly as production callers drive them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.encoding import decode, encode_batch_bit_transposed
from repro.core.sw_bpbc import bpbc_sw_wavefront
from repro.engines import ENGINES
from repro.serve.packer import pack_requests
from repro.serve.queue import AlignmentRequest
from repro.shard import ShardExecutor
from repro.swa.affine import AffineScheme, gotoh_matrix
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.parallel import sw_matrix_wavefront
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_matrix
from repro.swa.traceback import align, fill_matrices, weight_matrix

from .oracles import gotoh_matrices, oracle_align

#: Default seed for deterministic tier-1 runs; CI's fuzz job rotates
#: it via the environment (see module docstring).
DEFAULT_SEED = 20260806

SEED = int(os.environ.get("REPRO_FUZZ_SEED", DEFAULT_SEED))

#: Scoring schemes rotated across groups (match, mismatch, gap).
SCHEMES = (
    ScoringScheme(2, 1, 1),   # the paper's Table II parameters
    ScoringScheme(1, 1, 1),
    ScoringScheme(3, 2, 2),
    ScoringScheme(5, 4, 3),
)

#: Affine schemes the row-scan check rotates across groups (match,
#: mismatch, gap_open, gap_extend): free gap extension and the
#: ``gap_open == gap_extend`` degeneracy included.
AFFINE_SCHEMES = (
    AffineScheme(2, 1, 3, 1),
    AffineScheme(1, 1, 2, 0),
    AffineScheme(3, 2, 2, 2),
    AffineScheme(5, 4, 7, 3),
)

GROUPS = 52
GROUP_PAIRS = 40
#: Batch sizes of 2, 3, 5 and 6 64-bit lane words: none a multiple of
#: the native step's 4-word vector.
TILED_PAIRS = (100, 170, 300, 384)
MAX_LEN = 200
WORD_BITS = 64

#: Degenerate families injected on a fixed cadence.
KINDS = ("random", "len1", "same_base", "equal")


@dataclass(frozen=True)
class FuzzGroup:
    """One rectangular batch of fuzz pairs plus its gold scores."""

    index: int
    kind: str
    scheme: ScoringScheme
    X: np.ndarray          # (GROUP_PAIRS, m) uint8
    Y: np.ndarray          # (GROUP_PAIRS, n) uint8
    gold: np.ndarray       # (GROUP_PAIRS,) int64


def _biased_len(rng: np.random.Generator) -> int:
    """Length in 1..MAX_LEN, cubically biased toward short."""
    return 1 + int((MAX_LEN - 1) * rng.random() ** 3)


def _make_group(index: int, rng: np.random.Generator) -> FuzzGroup:
    kind = KINDS[index % len(KINDS)] if index % 4 == 3 else "random"
    if index % 13 == 5:
        kind = KINDS[1 + index % 3]  # extra degenerate coverage
    scheme = SCHEMES[index % len(SCHEMES)]
    if kind == "len1":
        m, n = 1, _biased_len(rng)
    else:
        m, n = _biased_len(rng), _biased_len(rng)
    if kind == "same_base":
        base = int(rng.integers(0, 4))
        X = np.full((GROUP_PAIRS, m), base, dtype=np.uint8)
        Y = np.full((GROUP_PAIRS, n), base, dtype=np.uint8)
    else:
        X = rng.integers(0, 4, size=(GROUP_PAIRS, m), dtype=np.uint8)
        Y = rng.integers(0, 4, size=(GROUP_PAIRS, n), dtype=np.uint8)
    if kind == "equal":
        n = m
        Y = X.copy()
    gold = np.asarray(
        [int(sw_matrix(X[p], Y[p], scheme).max())
         for p in range(GROUP_PAIRS)], dtype=np.int64)
    return FuzzGroup(index=index, kind=kind, scheme=scheme,
                     X=X, Y=Y, gold=gold)


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
        f"{engine} disagrees with gold on {bad.size} of "
        f"{GROUP_PAIRS} pairs.\n"
        f"  seed={SEED} (rerun: REPRO_FUZZ_SEED={SEED})\n"
        f"  group={group.index} kind={group.kind} "
        f"shape=({group.X.shape[1]}, {group.Y.shape[1]})\n"
        f"  scheme={group.scheme}\n"
        f"  first bad pair={p}: "
        f"got {int(scores[p])} want {int(group.gold[p])}\n"
        f"  x={decode(group.X[p])}\n"
        f"  y={decode(group.Y[p])}"
    )


def test_workload_shape(fuzz_groups):
    """The stream holds >= 2,000 pairs and every advertised family."""
    assert GROUPS * GROUP_PAIRS >= 2000
    kinds = {g.kind for g in fuzz_groups}
    assert kinds == set(KINDS)
    schemes = {g.scheme for g in fuzz_groups}
    assert schemes == set(SCHEMES)


def test_wavefront_dp_agrees(fuzz_groups):
    for g in fuzz_groups:
        scores = np.asarray(
            [int(sw_matrix_wavefront(g.X[p], g.Y[p], g.scheme).max())
             for p in range(GROUP_PAIRS)])
        assert np.array_equal(scores, g.gold), \
            _explain("swa.parallel", g, scores)


def test_numpy_batch_agrees(fuzz_groups):
    for g in fuzz_groups:
        scores = sw_batch_max_scores(g.X, g.Y, g.scheme)
        assert np.array_equal(scores, g.gold), \
            _explain("swa.numpy_batch", g, scores)


def test_bpbc_wavefront_agrees(fuzz_groups):
    for g in fuzz_groups:
        XH, XL = encode_batch_bit_transposed(g.X, WORD_BITS)
        YH, YL = encode_batch_bit_transposed(g.Y, WORD_BITS)
        scores = bpbc_sw_wavefront(XH, XL, YH, YL, g.scheme,
                                   WORD_BITS).max_scores[:GROUP_PAIRS]
        assert np.array_equal(scores, g.gold), \
            _explain("core.sw_bpbc", g, scores)


def test_cell_evaluators_bit_identical(fuzz_groups):
    """generic / compiled produce bit-identical score planes on every
    fuzz group — the compiled (:mod:`repro.jit`) evaluator is a pure
    lowering, not an approximation."""
    for g in fuzz_groups:
        XH, XL = encode_batch_bit_transposed(g.X, WORD_BITS)
        YH, YL = encode_batch_bit_transposed(g.Y, WORD_BITS)
        ref = bpbc_sw_wavefront(XH, XL, YH, YL, g.scheme, WORD_BITS,
                                cell="generic")
        assert np.array_equal(
            ref.max_scores[:GROUP_PAIRS], g.gold), \
            _explain("core.sw_bpbc[generic]", g,
                     ref.max_scores[:GROUP_PAIRS])
        r = bpbc_sw_wavefront(XH, XL, YH, YL, g.scheme, WORD_BITS,
                              cell="compiled")
        assert np.array_equal(r.score_planes, ref.score_planes), (
            "cell='compiled' score planes differ from generic.\n"
            f"  seed={SEED} (rerun: REPRO_FUZZ_SEED={SEED})\n"
            f"  group={g.index} kind={g.kind} "
            f"shape=({g.X.shape[1]}, {g.Y.shape[1]})\n"
            f"  scheme={g.scheme}"
        )


def _tiled(g: FuzzGroup, pairs: int):
    """``g``'s pairs tiled to ``pairs`` lanes in a seeded shuffle, so
    every lane word of the batch holds a different mix of pairs."""
    order = np.random.default_rng(SEED + pairs).permutation(
        np.resize(np.arange(GROUP_PAIRS), pairs))
    return g.X[order], g.Y[order], g.gold[order]


def test_vector_kernel_odd_word_counts(fuzz_groups):
    """The native step computes on 4-word vectors, so batches of 2, 3,
    5 and 6 lane words run with zero pad words.  Each count scores
    two groups' pairs through ``compiled-c``, against gold and
    against the ``compiled-numpy`` score planes."""
    from repro.jit import cc_available

    if not cc_available():
        pytest.skip("no C compiler on this machine")
    assert [-(-p // WORD_BITS) for p in TILED_PAIRS] == [2, 3, 5, 6]
    for k, pairs in enumerate(TILED_PAIRS):
        for g in fuzz_groups[k::GROUPS // 2]:
            X, Y, gold = _tiled(g, pairs)
            XH, XL = encode_batch_bit_transposed(X, WORD_BITS)
            YH, YL = encode_batch_bit_transposed(Y, WORD_BITS)
            got, ref = (bpbc_sw_wavefront(XH, XL, YH, YL, g.scheme,
                                          WORD_BITS, cell=cell)
                        for cell in ("compiled-c", "compiled-numpy"))
            where = (f"seed={SEED} (rerun: REPRO_FUZZ_SEED={SEED}) "
                     f"group={g.index} pairs={pairs} "
                     f"shape=({X.shape[1]}, {Y.shape[1]}) "
                     f"scheme={g.scheme}")
            bad = np.flatnonzero(got.max_scores[:pairs] != gold)
            assert bad.size == 0, (
                f"compiled-c disagrees with gold on {bad.size} of "
                f"{pairs} pairs, first lane {bad[:1]}: {where}")
            assert np.array_equal(got.score_planes, ref.score_planes), \
                f"compiled-c score planes differ from compiled-numpy: " \
                f"{where}"


def test_row_scan_matches_oracles(fuzz_groups):
    """The survivor DP fill behind every survivor alignment (the C
    kernel where a compiler exists), on one pair per group: runs of
    four groups alternate between the group's linear scheme (so every
    ``SCHEMES`` entry) and the matching ``AFFINE_SCHEMES`` entry.  H is
    checked cell for cell against ``sw_matrix`` / ``gotoh_matrix``,
    E/F against the pure-Python E/F oracle, and ``align``'s alignment
    against the one the unchanged walks trace through the oracle
    matrices."""
    _check_fill(fuzz_groups)


def test_numpy_scan_fallback_matches_oracles(fuzz_groups, numpy_fill):
    """The same battery on the numpy row scan, the fill used when no
    compiler is present or the compile fails."""
    _check_fill(fuzz_groups)


def _check_fill(fuzz_groups):
    for g in fuzz_groups:
        p = g.index % GROUP_PAIRS
        x, y = g.X[p], g.Y[p]
        if (g.index // len(SCHEMES)) % 2 == 0:
            scheme, h_oracle = g.scheme, sw_matrix
            gaps = (scheme.gap_penalty,) * 2
        else:
            scheme = AFFINE_SCHEMES[g.index % len(AFFINE_SCHEMES)]
            h_oracle = gotoh_matrix
            gaps = (scheme.gap_open, scheme.gap_extend)
        got = fill_matrices(weight_matrix(x, y, scheme), *gaps)
        want = gotoh_matrices(x, y, scheme)
        where = (f"seed={SEED} (rerun: REPRO_FUZZ_SEED={SEED}) "
                 f"group={g.index} kind={g.kind} pair={p} "
                 f"scheme={scheme}\n  x={decode(x)}\n  y={decode(y)}")
        assert np.array_equal(got[0], h_oracle(x, y, scheme)), \
            f"fill H differs from {h_oracle.__name__}: {where}"
        for name, a, b in zip("HEF", got, want):
            assert a.dtype == np.int32, f"fill {name} is {a.dtype}: {where}"
            assert np.array_equal(a, b), \
                f"fill {name} differs from the E/F oracle: {where}"
        assert align(x, y, scheme) == oracle_align(
            x, y, scheme, matrices=want), \
            f"fill alignment differs from the oracle's: {where}"


def test_serve_bpbc_engine_agrees(fuzz_groups):
    """The ``bpbc`` engine, fed sentinel-padded mixed-shape serve
    batches — the compiled evaluator on the 3-plane path, exactly as
    the alignment service drives it."""
    engine = ENGINES["bpbc"].score
    for scheme in SCHEMES:
        groups = [g for g in fuzz_groups if g.scheme == scheme]
        requests, gold_of = [], {}
        for g in groups:
            for p in range(GROUP_PAIRS):
                req = AlignmentRequest(
                    query=g.X[p], subject=g.Y[p], scheme=scheme,
                    threshold=None, deadline=None, future=None,
                    enqueued_at=0.0)
                requests.append(req)
                gold_of[id(req)] = int(g.gold[p])
        for batch in pack_requests(requests, granularity=64):
            scores = np.asarray(engine(batch.X, batch.Y, batch.scheme,
                                       WORD_BITS))
            want = np.asarray([gold_of[id(r)] for r in batch.requests])
            bad = np.flatnonzero(scores != want)
            assert bad.size == 0, (
                f"serve engine bpbc disagrees with gold on "
                f"{bad.size} of {batch.pairs} pairs "
                f"(padded={batch.padded}, scheme={scheme}, "
                f"seed={SEED}; rerun: REPRO_FUZZ_SEED={SEED}); "
                f"first bad lane={int(bad[0])}: "
                f"got {int(scores[bad[0]])} want {int(want[bad[0]])}"
            )


def test_sharded_backend_agrees(fuzz_groups):
    """The process-pool backend, fed the pairs as one ragged stream
    per scheme — mixed shapes in one run, exactly the hostile case
    for the shard-side binning."""
    with ShardExecutor(workers=2, word_bits=WORD_BITS) as ex:
        for scheme in SCHEMES:
            groups = [g for g in fuzz_groups if g.scheme == scheme]
            xs = [g.X[p] for g in groups for p in range(GROUP_PAIRS)]
            ys = [g.Y[p] for g in groups for p in range(GROUP_PAIRS)]
            gold = np.concatenate([g.gold for g in groups])
            scores = ex.run(xs, ys, scheme).scores
            bad = np.flatnonzero(scores != gold)
            assert bad.size == 0, (
                f"repro.shard disagrees with gold on {bad.size} of "
                f"{len(xs)} pairs at scheme={scheme} "
                f"(seed={SEED}; rerun: REPRO_FUZZ_SEED={SEED}); "
                f"first bad stream index={int(bad[0])}: "
                f"got {int(scores[bad[0]])} want {int(gold[bad[0]])} "
                f"x={decode(xs[int(bad[0])])} "
                f"y={decode(ys[int(bad[0])])}"
            )
