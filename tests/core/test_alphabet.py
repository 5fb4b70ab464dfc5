"""Tests for repro.core.alphabet and the general-plane engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import DNA, MURPHY10, PROTEIN, RNA, Alphabet
from repro.core.bitops import BitOpsError, OpCounter
from repro.core.circuits import sw_cell_ops_exact
from repro.core.encoding import encode, encode_batch_bit_transposed
from repro.core.sw_bpbc import bpbc_sw_wavefront, bpbc_sw_wavefront_planes
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score

SCHEME = ScoringScheme(2, 1, 1)


class TestAlphabetBasics:
    def test_dna_matches_encoding_module(self):
        s = "ATGCCGTA"
        np.testing.assert_array_equal(DNA.encode(s), encode(s))
        assert DNA.bits == 2
        assert DNA.size == 4

    def test_rna_aliases_t(self):
        np.testing.assert_array_equal(RNA.encode("AUGC"),
                                      RNA.encode("ATGC"))
        assert RNA.decode(RNA.encode("AUGC")) == "AUGC"

    def test_protein_width(self):
        assert PROTEIN.size == 20
        assert PROTEIN.bits == 5

    def test_murphy_reduction(self):
        assert MURPHY10.bits == 4
        # LVIM all collapse to the same code.
        codes = {MURPHY10.code(c) for c in "LVIM"}
        assert len(codes) == 1
        assert MURPHY10.code("D") == MURPHY10.code("E")

    def test_roundtrip(self):
        seq = "ACDEFGHIKLMNPQRSTVWY"
        assert PROTEIN.decode(PROTEIN.encode(seq)) == seq

    def test_unknown_char_rejected(self):
        with pytest.raises(BitOpsError):
            DNA.encode("ATXG")

    def test_validation(self):
        with pytest.raises(BitOpsError):
            Alphabet("bad", "")
        with pytest.raises(BitOpsError):
            Alphabet("bad", "AAB")
        with pytest.raises(BitOpsError):
            Alphabet("bad", "AB", aliases={"X": "C"})

    def test_decode_range_check(self):
        with pytest.raises(BitOpsError):
            DNA.decode([4])

    def test_batch_validation(self):
        with pytest.raises(BitOpsError):
            DNA.encode_batch([])
        with pytest.raises(BitOpsError):
            DNA.encode_batch(["AC", "A"])


class TestPlaneConversion:
    @pytest.mark.parametrize("alphabet", [DNA, PROTEIN, MURPHY10])
    @pytest.mark.parametrize("w", [8, 32, 64])
    def test_roundtrip(self, rng, alphabet, w):
        P, n = 37, 12
        codes = rng.integers(0, alphabet.size, (P, n)).astype(np.uint8)
        planes = alphabet.batch_planes(codes, w)
        assert planes.shape[0] == alphabet.bits
        back = alphabet.batch_from_planes(planes, w, count=P)
        np.testing.assert_array_equal(back, codes)

    def test_dna_planes_match_legacy_encoding(self, rng):
        codes = rng.integers(0, 4, (20, 9), dtype=np.uint8)
        planes = DNA.batch_planes(codes, 32)
        H, L = encode_batch_bit_transposed(codes, 32)
        np.testing.assert_array_equal(planes[0], L)
        np.testing.assert_array_equal(planes[1], H)

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(BitOpsError):
            DNA.batch_planes(np.array([[4]]), 32)


class TestGeneralEngine:
    @pytest.mark.parametrize("alphabet", [DNA, PROTEIN, MURPHY10])
    def test_matches_gold_for_any_alphabet(self, rng, alphabet):
        P, m, n = 40, 6, 13
        X = rng.integers(0, alphabet.size, (P, m)).astype(np.uint8)
        Y = rng.integers(0, alphabet.size, (P, n)).astype(np.uint8)
        Xp = alphabet.batch_planes(X, 64)
        Yp = alphabet.batch_planes(Y, 64)
        r = bpbc_sw_wavefront_planes(Xp, Yp, SCHEME, 64)
        gold = [sw_max_score(X[p], Y[p], SCHEME) for p in range(P)]
        np.testing.assert_array_equal(r.max_scores[:P], gold)

    def test_wrapper_delegates(self, rng):
        P, m, n = 30, 5, 9
        X = rng.integers(0, 4, (P, m), dtype=np.uint8)
        Y = rng.integers(0, 4, (P, n), dtype=np.uint8)
        XH, XL = encode_batch_bit_transposed(X, 32)
        YH, YL = encode_batch_bit_transposed(Y, 32)
        legacy = bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, 32)
        general = bpbc_sw_wavefront_planes(
            DNA.batch_planes(X, 32), DNA.batch_planes(Y, 32), SCHEME, 32
        )
        np.testing.assert_array_equal(legacy.max_scores,
                                      general.max_scores)

    def test_cost_grows_by_2eps(self, rng):
        """Protein costs exactly 2*(5-2) = 6 ops per cell over DNA."""
        m, n = 3, 4
        counters = {}
        for alphabet in (DNA, PROTEIN):
            X = rng.integers(0, alphabet.size, (32, m)).astype(np.uint8)
            Y = rng.integers(0, alphabet.size, (32, n)).astype(np.uint8)
            c = OpCounter()
            bpbc_sw_wavefront_planes(
                alphabet.batch_planes(X, 32),
                alphabet.batch_planes(Y, 32), SCHEME, 32, counter=c,
            )
            counters[alphabet.name] = c.ops
        diff = counters["protein"] - counters["DNA"]
        steps = m + n - 1
        assert diff == steps * (sw_cell_ops_exact(SCHEME.score_bits(m, n), 5)
                                - sw_cell_ops_exact(
                                    SCHEME.score_bits(m, n), 2))
        assert diff == steps * 6

    def test_mismatched_eps_rejected(self, rng):
        Xp = np.zeros((2, 3, 1), dtype=np.uint32)
        Yp = np.zeros((3, 4, 1), dtype=np.uint32)
        with pytest.raises(BitOpsError):
            bpbc_sw_wavefront_planes(Xp, Yp, SCHEME, 32)

    def test_2d_input_rejected(self):
        bad = np.zeros((3, 1), dtype=np.uint32)
        with pytest.raises(BitOpsError):
            bpbc_sw_wavefront_planes(bad, bad, SCHEME, 32)

    @settings(max_examples=10, deadline=None)
    @given(size=st.integers(2, 20), m=st.integers(1, 6),
           n=st.integers(1, 9), seed=st.integers(0, 2**31))
    def test_any_alphabet_size_property(self, size, m, n, seed):
        rng = np.random.default_rng(seed)
        letters = "ABCDEFGHIJKLMNOPQRST"[:size]
        alpha = Alphabet("test", letters)
        P = 30
        X = rng.integers(0, size, (P, m)).astype(np.uint8)
        Y = rng.integers(0, size, (P, n)).astype(np.uint8)
        r = bpbc_sw_wavefront_planes(
            alpha.batch_planes(X, 64), alpha.batch_planes(Y, 64),
            SCHEME, 64,
        )
        gold = [sw_max_score(X[p], Y[p], SCHEME) for p in range(P)]
        np.testing.assert_array_equal(r.max_scores[:P], gold)
