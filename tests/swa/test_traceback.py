"""Tests for repro.swa.traceback: alignment extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protein import ProteinScheme, subst_gotoh_max_score
from repro.swa.affine import AffineScheme, gotoh_max_score
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_matrix, sw_max_score
from repro.swa.traceback import (
    Alignment,
    align,
    format_alignment,
    traceback,
    weight_matrix,
)

SCHEME = ScoringScheme(2, 1, 1)
dna = st.text(alphabet="ACGT", min_size=1, max_size=20)


def _score_alignment(a: Alignment, scheme: ScoringScheme) -> int:
    score = 0
    for p, q in zip(a.aligned_x, a.aligned_y):
        if p == "-" or q == "-":
            score -= scheme.gap_penalty
        elif p == q:
            score += scheme.match_score
        else:
            score -= scheme.mismatch_penalty
    return score


class TestTraceback:
    def test_table2_alignment(self):
        """The paper's example: the best local alignment pairs
        x2..x5 = ACTG with y3..y6 = ACTG (1-based), score 8."""
        a = align("TACTG", "GAACTGA", SCHEME)
        assert a.score == 8
        assert a.aligned_x == "ACTG"
        assert a.aligned_y == "ACTG"
        assert (a.x_start, a.x_end) == (1, 5)
        assert (a.y_start, a.y_end) == (2, 6)
        assert a.identity == 1.0

    def test_perfect_match(self):
        a = align("ACGT", "ACGT", SCHEME)
        assert a.score == 8
        assert a.length == 4
        assert a.identity == 1.0

    def test_gap_in_x(self):
        a = align("ACGT", "ACT", SCHEME)
        assert a.score == 5
        assert "-" in a.aligned_y
        assert a.aligned_x.replace("-", "") in "ACGT"

    def test_no_similarity(self):
        a = align("AAAA", "TTTT", SCHEME)
        assert a.score == 0
        assert a.length == 0

    def test_alignment_rows_equal_length(self, rng):
        from repro.workloads.dna import random_strand
        from repro.core.encoding import decode

        x = decode(random_strand(rng, 10))
        y = decode(random_strand(rng, 15))
        a = align(x, y, SCHEME)
        assert len(a.aligned_x) == len(a.aligned_y)

    def test_alignment_substrings_match_ranges(self):
        a = align("TACTG", "GAACTGA", SCHEME)
        assert a.aligned_x.replace("-", "") == "TACTG"[a.x_start:a.x_end]
        assert a.aligned_y.replace("-", "") == "GAACTGA"[a.y_start:a.y_end]

    def test_explicit_end_cell(self):
        x, y = "TACTG", "GAACTGA"
        d = sw_matrix(x, y, SCHEME)
        a = traceback(d, weight_matrix(x, y, SCHEME), x, y, SCHEME,
                      end=(4, 5))
        assert a.score == int(d[4, 5]) == 6

    def test_shape_mismatch_rejected(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            traceback(d, weight_matrix("ACGT", "ACG", SCHEME), "ACGT",
                      "ACG", SCHEME)

    def test_format_alignment(self):
        text = format_alignment(align("TACTG", "GAACTGA", SCHEME))
        assert "score=8" in text
        assert "ACTG" in text
        assert "||||" in text

    @settings(max_examples=40, deadline=None)
    @given(dna, dna)
    def test_reconstructed_score_property(self, x, y):
        """Re-scoring the gapped alignment rows reproduces the DP
        score — the fundamental traceback correctness property."""
        a = align(x, y, SCHEME)
        assert _score_alignment(a, SCHEME) == a.score
        assert a.score == int(sw_matrix(x, y, SCHEME).max())


class TestAlignSchemeKinds:
    """``align`` takes every scheme kind: linear DNA walks H, affine
    DNA and protein walk the Gotoh triple."""

    @pytest.mark.parametrize("scheme, gold", [
        (ScoringScheme(2, 1, 1), sw_max_score),
        (AffineScheme(2, 1, 3, 1), gotoh_max_score),
        (ProteinScheme(), subst_gotoh_max_score),
    ], ids=["linear", "affine", "protein"])
    def test_align_any_scheme(self, scheme, gold):
        x, y = "ACGTACGTTGCA", "ACGAACGTGCA"
        a = align(x, y, scheme)
        alph = getattr(scheme, "alphabet", None)
        codes = (alph.encode(x), alph.encode(y)) if alph else (x, y)
        assert a.score == gold(*codes, scheme) > 0
        assert a.aligned_x.replace("-", "") == x[a.x_start:a.x_end]
        assert a.aligned_y.replace("-", "") == y[a.y_start:a.y_end]

    def test_code_arrays_spell_letters(self):
        from repro.core.encoding import encode

        x, y = "TACTG", "GAACTGA"
        assert align(encode(x), encode(y), SCHEME) == align(x, y, SCHEME)
