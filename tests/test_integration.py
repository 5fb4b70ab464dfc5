"""End-to-end integration tests across subsystem boundaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import decode
from repro.core.protein import ProteinScheme
from repro.filter.database import search_database
from repro.filter.screening import screen_pairs
from repro.filter.stats import fit_null_model, suggest_threshold
from repro.index.search import TieredSearch
from repro.index.store import build_index
from repro.kernels.pipeline import run_gpu_pipeline
from repro.swa.affine import AffineScheme
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score
from repro.workloads.dna import MutationModel, homologous_pairs
from repro.workloads.fasta import FastaRecord, read_fasta, write_fasta

from .oracles import oracle_align

SCHEME = ScoringScheme(2, 1, 1)


class TestFastaToScreening:
    def test_fasta_roundtrip_into_screen(self, rng, tmp_path):
        """FASTA on disk -> batch -> screening -> alignments whose
        coordinates index back into the original records."""
        X, Y, labels = homologous_pairs(
            rng, 12, 16, 64, related_fraction=0.5,
            model=MutationModel(0, 0, 0),
        )
        qp = tmp_path / "q.fa"
        sp = tmp_path / "s.fa"
        write_fasta(qp, [FastaRecord(f"q{i}", "", decode(X[i]))
                         for i in range(12)])
        write_fasta(sp, [FastaRecord(f"s{i}", "", decode(Y[i]))
                         for i in range(12)])
        Xr = np.stack([r.codes for r in read_fasta(qp)])
        Yr = np.stack([r.codes for r in read_fasta(sp)])
        np.testing.assert_array_equal(Xr, X)
        result = screen_pairs(Xr, Yr, 20, SCHEME)
        for hit in result.hits:
            a = hit.alignment
            subj = decode(Y[hit.pair_index])
            assert subj[a.y_start:a.y_end] == \
                a.aligned_y.replace("-", "")


class TestStatsToSearch:
    def test_threshold_drives_database_search(self, rng):
        """Fit a null model, derive tau, run a ragged database search,
        and check the tau separates planted from random entries."""
        null = fit_null_model(12, 48, SCHEME, samples=256, seed=4)
        tau = suggest_threshold(null, alpha=1e-3)
        q = rng.integers(0, 4, 12, dtype=np.uint8)
        db = []
        planted = []
        for i in range(6):
            entry = rng.integers(0, 4, 40 + 8 * i, dtype=np.uint8)
            if i % 2 == 0:
                pos = int(rng.integers(0, len(entry) - 12))
                entry[pos:pos + 12] = q
                planted.append(i)
            db.append(entry)
        hits = search_database([q], db, SCHEME)
        for hit in hits:
            gold = sw_max_score(q, db[hit.db_index], SCHEME)
            assert hit.score == gold
            if hit.db_index in planted:
                assert hit.score > tau


class TestSimulatorAgainstEngines:
    def test_pipeline_and_host_engine_on_screening_workload(self, rng):
        X, Y, labels = homologous_pairs(
            rng, 33, 8, 24, related_fraction=0.4,
        )
        gpu_scores, report = run_gpu_pipeline(X, Y, SCHEME,
                                              word_bits=32)
        host = screen_pairs(X, Y, 0, SCHEME,
                            align_survivors=False).scores
        np.testing.assert_array_equal(gpu_scores, host)
        assert report.swa.blocks == 2  # ceil(33/32) lane groups


class TestCliOnGeneratedWorkload:
    def test_score_screen_match_agree(self, rng, tmp_path, capsys):
        from repro.cli import main

        X, Y, _ = homologous_pairs(rng, 6, 10, 40,
                                   related_fraction=1.0,
                                   model=MutationModel(0, 0, 0))
        qp = tmp_path / "q.fa"
        sp = tmp_path / "s.fa"
        write_fasta(qp, [FastaRecord(f"q{i}", "", decode(X[i]))
                         for i in range(6)])
        write_fasta(sp, [FastaRecord(f"s{i}", "", decode(Y[i]))
                         for i in range(6)])
        main(["score", str(qp), str(sp)])
        score_lines = capsys.readouterr().out.strip().splitlines()[1:]
        scores = {l.split("\t")[0]: int(l.split("\t")[2])
                  for l in score_lines}
        # Every pair has a planted exact copy: score = 2 * m.
        assert all(v == 20 for v in scores.values())
        main(["match", str(qp), str(sp)])
        match_lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(l.split("\t")[3] != "-" for l in match_lines)


class TestSurvivorAlignmentIdentity:
    """Screen hits and tiered-search top-k alignments, end to end, are
    exactly the ones the unchanged walks trace through the pure-Python
    oracle matrices: pair indices, scores, coordinates and rows."""

    SCHEMES = {
        "linear": ScoringScheme(2, 1, 1),
        "affine": AffineScheme(2, 1, 3, 1),
        "protein": ProteinScheme(),
    }

    @staticmethod
    def _planted(rng, P, m, n, alphabet_size):
        X = rng.integers(0, alphabet_size, (P, m), dtype=np.uint8)
        Y = rng.integers(0, alphabet_size, (P, n), dtype=np.uint8)
        for p in (1, 4):
            Y[p, 5:5 + m] = X[p]
            Y[p, 5 + m // 2] = (Y[p, 5 + m // 2] + 1) % alphabet_size
        return X, Y

    @staticmethod
    def _key(a):
        return (a.score, a.x_start, a.x_end, a.y_start, a.y_end,
                a.aligned_x, a.aligned_y)

    @pytest.mark.parametrize("kind", ["linear", "affine", "protein"])
    def test_screen_hits_match_oracle(self, rng, kind, monkeypatch):
        import repro.filter.screening as screening

        scheme = self.SCHEMES[kind]
        size = 20 if kind == "protein" else 4
        X, Y = self._planted(rng, 8, 24, 64, size)
        tau = 30
        got = screen_pairs(X, Y, tau, scheme)
        monkeypatch.setattr(screening, "traceback", oracle_align)
        want = screen_pairs(X, Y, tau, scheme)
        assert {1, 4} <= {h.pair_index for h in got.hits}
        assert ([(h.pair_index, h.score, self._key(h.alignment))
                 for h in got.hits]
                == [(h.pair_index, h.score, self._key(h.alignment))
                    for h in want.hits])

    @pytest.mark.parametrize("kind", ["linear", "affine", "protein"])
    def test_tiered_top_k_matches_oracle(self, rng, kind, tmp_path,
                                         monkeypatch):
        import repro.index.search as search

        scheme = self.SCHEMES[kind]
        protein = kind == "protein"
        size = 20 if protein else 4
        entries = [rng.integers(0, size, int(n), dtype=np.uint8)
                   for n in rng.integers(80, 200, size=10)]
        query = rng.integers(0, size, 24, dtype=np.uint8)
        for e in (2, 7):
            entries[e][30:54] = query
        entries[7][40] = (entries[7][40] + 1) % size
        idx = build_index(((f"e{i}", s) for i, s in enumerate(entries)),
                          tmp_path / "idx", k=6, w=3,
                          alphabet="protein" if protein else "dna")
        ts = TieredSearch(idx, scheme=scheme, min_seeds=1, threshold=30)
        got = ts.search([query], top_k=3)
        monkeypatch.setattr(search, "align", oracle_align)
        want = ts.search([query], top_k=3)
        assert {2, 7} <= {h.db_index for h in got.hits}
        assert ([(h.db_index, h.score, self._key(h.alignment))
                 for h in got.hits]
                == [(h.db_index, h.score, self._key(h.alignment))
                    for h in want.hits])
