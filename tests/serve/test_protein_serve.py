"""Protein-scheme handling in the serve layer.

Covers the alphabet-aware packer sentinels (`scheme_pads`),
scheme-keyed binning, and the wire-protocol scheme dispatch
(`server._scheme_from`).  The bit-exactness of the scores themselves
is the fuzz battery's job (tests/test_protein_differential_fuzz.py);
these are the unit seams.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.alphabet import PROTEIN_X
from repro.core.matrices import BLOSUM62, PAM250
from repro.core.protein import ProteinScheme
from repro.serve.packer import (PAD_BITS, QUERY_PAD, SUBJECT_PAD,
                                bin_requests, pack_requests, scheme_pads)
from repro.serve.queue import AlignmentRequest
from repro.serve.server import _scheme_from
from repro.swa.affine import AffineScheme
from repro.swa.scoring import DEFAULT_SCHEME, ScoringScheme

PROTEIN = ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1)


def _requests(scheme, shapes, rng):
    high = len(scheme.alphabet.letters) if hasattr(scheme, "alphabet") \
        else 4
    return [
        AlignmentRequest(
            query=rng.integers(0, high, size=m).astype(np.uint8),
            subject=rng.integers(0, high, size=n).astype(np.uint8),
            scheme=scheme, threshold=None, deadline=None,
            future=Future(), enqueued_at=time.monotonic(),
        )
        for m, n in shapes
    ]


class TestSchemePads:
    def test_protein_uses_alphabet_sentinels(self):
        assert scheme_pads(PROTEIN) == (PROTEIN_X.query_pad,
                                        PROTEIN_X.subject_pad,
                                        PROTEIN_X.pad_bits)
        assert scheme_pads(PROTEIN) == (22, 23, 5)

    def test_dna_schemes_use_module_constants(self):
        for scheme in (ScoringScheme(), AffineScheme()):
            assert scheme_pads(scheme) == (QUERY_PAD, SUBJECT_PAD,
                                           PAD_BITS)


class TestProteinPacking:
    def test_sentinel_padding_uses_protein_pads(self):
        rng = np.random.default_rng(5)
        reqs = _requests(PROTEIN, [(8, 12), (5, 9)], rng)
        (batch,) = pack_requests(reqs, granularity=16)
        assert batch.padded and batch.scheme is PROTEIN
        assert batch.X.shape == (2, 16) and batch.Y.shape == (2, 16)
        assert (batch.X[0, 8:] == PROTEIN_X.query_pad).all()
        assert (batch.Y[1, 9:] == PROTEIN_X.subject_pad).all()

    def test_schemes_bin_separately(self):
        rng = np.random.default_rng(8)
        reqs = (_requests(PROTEIN, [(8, 8)], rng)
                + _requests(ScoringScheme(), [(8, 8)], rng)
                + _requests(PROTEIN, [(8, 8)], rng))
        bins = bin_requests(reqs, granularity=8)
        assert len(bins) == 2
        assert sorted(len(v) for v in bins.values()) == [1, 2]


class TestSchemeFrom:
    def test_no_scoring_fields_fall_back_to_default(self):
        assert _scheme_from({}) is DEFAULT_SCHEME
        assert _scheme_from({"query": "ACGT"}, default=PROTEIN) \
            is PROTEIN

    def test_protein_alphabet_selects_blosum62_11_1(self):
        scheme = _scheme_from({"alphabet": "protein"})
        assert isinstance(scheme, ProteinScheme)
        assert scheme.matrix is BLOSUM62
        assert (scheme.gap_open, scheme.gap_extend) == (11, 1)

    def test_matrix_key_implies_protein(self):
        scheme = _scheme_from({"matrix": "pam250", "gap_open": 10,
                               "gap_extend": 2})
        assert isinstance(scheme, ProteinScheme)
        assert scheme.matrix is PAM250
        assert (scheme.gap_open, scheme.gap_extend) == (10, 2)

    def test_dna_gap_open_selects_affine(self):
        scheme = _scheme_from({"gap_open": 5, "gap_extend": 2,
                               "match": 3})
        assert isinstance(scheme, AffineScheme)
        assert (scheme.match_score, scheme.gap_open,
                scheme.gap_extend) == (3, 5, 2)

    def test_plain_fields_keep_linear_scheme(self):
        scheme = _scheme_from({"match": 3, "mismatch": 2, "gap": 1})
        assert isinstance(scheme, ScoringScheme)
        assert scheme == ScoringScheme(3, 2, 1)

    def test_unknown_alphabet_is_rejected(self):
        with pytest.raises(ValueError, match="unknown alphabet"):
            _scheme_from({"alphabet": "rna"})

    def test_unknown_matrix_is_rejected(self):
        with pytest.raises(KeyError):
            _scheme_from({"alphabet": "protein", "matrix": "blosumZZ"})
