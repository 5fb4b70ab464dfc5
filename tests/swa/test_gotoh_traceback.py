"""Tests for affine-gap traceback (swa.traceback.align on affine DNA
and protein schemes, which walk the Gotoh H/E/F triple)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.alphabet import PROTEIN_X
from repro.core.matrices import BLOSUM62
from repro.core.protein import ProteinScheme, subst_gotoh_max_score
from repro.swa.affine import AffineScheme, gotoh_max_score
from repro.swa.traceback import align


class TestDnaGotohAlign:
    SCHEME = AffineScheme(match_score=2, mismatch_penalty=1,
                          gap_open=3, gap_extend=1)

    def test_score_matches_dp_max(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.integers(0, 4, size=rng.integers(1, 30))
            y = rng.integers(0, 4, size=rng.integers(1, 30))
            aln = align(x, y, self.SCHEME)
            assert aln.score == gotoh_max_score(x, y, self.SCHEME)

    def test_alignment_rows_consistent(self):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 4, size=24)
        y = rng.integers(0, 4, size=24)
        aln = align(x, y, self.SCHEME)
        assert len(aln.aligned_x) == len(aln.aligned_y)
        # The gapless characters spell the claimed subsequences.
        assert aln.x_end - aln.x_start == \
            sum(c != "-" for c in aln.aligned_x)
        assert aln.y_end - aln.y_start == \
            sum(c != "-" for c in aln.aligned_y)

    def test_gap_run_costs_open_then_extend(self):
        # y has 3 extra residues between two long matched flanks:
        # bridging them (one open + two extends, 24 - 5 = 19) beats
        # aligning either flank alone (12), so the trace must carry a
        # single 3-column gap run in the x row.
        sch = self.SCHEME
        flank1 = [0] * 6
        flank2 = [1] * 6
        x = np.array(flank1 + flank2, dtype=np.uint8)
        y = np.array(flank1 + [2, 2, 2] + flank2, dtype=np.uint8)
        aln = align(x, y, sch)
        want = 12 * sch.match_score - sch.gap_open - 2 * sch.gap_extend
        assert aln.score == want == gotoh_max_score(x, y, sch)
        assert "---" in aln.aligned_x
        assert "-" not in aln.aligned_y


class TestProteinGotohAlign:
    SCHEME = ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1)

    def test_score_matches_scalar_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            x = rng.integers(0, 20, size=rng.integers(1, 30))
            y = rng.integers(0, 20, size=rng.integers(1, 30))
            aln = align(x, y, self.SCHEME)
            assert aln.score == subst_gotoh_max_score(x, y, self.SCHEME)

    def test_identity_alignment_scores_diagonal_sum(self):
        # Letter strings keep their letters in the alignment rows.
        seq = "MVLSPADK"
        aln = align(seq, seq, self.SCHEME)
        codes = PROTEIN_X.encode(seq)
        W = self.SCHEME.weights()
        assert aln.score == int(sum(W[c, c] for c in codes))
        assert "-" not in aln.aligned_x + aln.aligned_y
        assert aln.aligned_x == seq == aln.aligned_y

    def test_aligned_rows_use_protein_letters(self):
        x = "MKWVTFISLLFLFSSAYS"
        y = "MKWVTFLLLFSSAYS"
        aln = align(x, y, self.SCHEME)
        residues = set(PROTEIN_X.letters) | {"-"}
        assert set(aln.aligned_x) <= residues
        assert set(aln.aligned_y) <= residues
        # String and code inputs agree on the score.
        assert aln.score == subst_gotoh_max_score(
            PROTEIN_X.encode(x), PROTEIN_X.encode(y), self.SCHEME)

    def test_no_positive_pair_gives_empty_alignment(self):
        # Stop codon vs residues scores negative everywhere except
        # itself; pick pairs with no positive entry.
        x = PROTEIN_X.encode("W")
        y = PROTEIN_X.encode("P")
        aln = align(x, y, self.SCHEME)
        assert aln.score == 0
        assert aln.aligned_x == "" and aln.aligned_y == ""
