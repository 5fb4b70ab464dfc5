"""Three-tier database search: minimizer prefilter -> BPBC screen ->
full traceback.

This is the pipeline SWAPHI-class database search tools use, built on
the repo's existing layers:

* **tier 0 — seed prefilter.**  Query minimizers are looked up in each
  shard's posting index; entries sharing at least ``min_seeds`` seed
  hits with the query become candidates, and only the entry *windows*
  containing a seed are forwarded.  Cost: posting-list lookups, no DP.
* **tier 1 — bulk screen.**  Candidate windows are scored through the
  bulk BPBC engine (``repro.filter``'s batching rules: rectangular
  ``(m, n)`` groups, sound ``window_overlap``), by default behind the
  :class:`~repro.resilience.fallback.EngineFallbackChain` so a failing
  compiled backend demotes instead of killing the search, optionally
  sharded across worker processes.  No tracebacks here — exactly the
  paper's division of labour.
* **tier 2 — traceback.**  Entries whose best window score strictly
  exceeds ``threshold`` are re-aligned with the CPU matrix fill (C, or
  the numpy row scan without a compiler) + traceback on their best
  window, and the alignment score is asserted against the bulk
  engine's (the same self-check as
  :func:`repro.filter.screening.screen_pairs`).

Exactness: windows overlap by :func:`~repro.filter.database.window_overlap`,
so every positive-scoring local alignment lies entirely inside some
window.  An alignment whose span contains a shared seed position is
therefore contained in a *seed-bearing* window, which tier 0 always
forwards — so **every seed-anchored alignment of a surviving entry is
scored exactly**, and a hit's reported score is the exact optimum
over its seeded windows: a lower bound on the entry's global optimum,
equal whenever the best alignment overlaps a seed (the homology case
the tiers target).  Entries sharing fewer than ``min_seeds``
minimizers are dropped wholesale — that is the prefilter's bargain.
``min_seeds=0`` disables the prefilter (every window of every entry
is screened), making ``min_seeds=0, threshold=0`` exactly brute-force
:func:`~repro.filter.database.search_database` — the degradation the
differential tests pin.

Execution streams shard by shard: tier 0-2 complete for one
memory-mapped shard before the next is opened, so peak memory is
bounded by shard size plus one ``max_batch_pairs`` batch, never by
database size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..core.alphabet import DNA
from ..core.encoding import encode
from ..filter.database import window_overlap, windows_for
from ..filter.screening import bulk_max_scores
from ..resilience.faults import fault_point
from ..swa.scoring import DEFAULT_SCHEME, ScoringScheme
from ..swa.traceback import Alignment, align
from .minimizer import minimizers
from .stats import SearchStats
from .store import DatabaseIndex
from ..resilience.fallback import default_chain

__all__ = ["TieredHit", "TieredSearchResult", "TieredSearch",
           "search_index"]


@dataclass(frozen=True)
class TieredHit:
    """One entry whose best alignment against a query cleared τ.

    ``db_index`` is the entry's global index in the database;
    ``y_*`` coordinates inside ``alignment`` are relative to the full
    entry (not the screened window).
    """

    query_index: int
    db_index: int
    entry_id: str
    score: int
    alignment: Alignment | None


@dataclass
class TieredSearchResult:
    """Ranked hits plus per-tier accounting."""

    hits: list[TieredHit]
    stats: SearchStats


@dataclass(frozen=True)
class _Region:
    """One tier-1 work item: a query against one entry window."""

    qi: int
    entry: int        # local entry index within the shard
    start: int        # window start, shard char space
    end: int          # window end, shard char space


class TieredSearch:
    """Reusable three-tier searcher over one on-disk index.

    Parameters
    ----------
    index:
        An opened :class:`~repro.index.store.DatabaseIndex` (or a path
        to one).
    scheme, word_bits:
        Scoring scheme and lane width for the bulk tier.
    min_seeds:
        Minimum shared query-minimizer hits for an entry to reach
        tier 1.  ``0`` disables the prefilter (exact brute force).
    threshold:
        τ — entries survive tier 1 when their best window score is
        *strictly above* this (the :func:`screen_pairs` convention).
    window:
        Text chars per tier-1 window.  Default: twice the worst-case
        alignment span of the longest query.  A caller-supplied value
        too small to be sound **raises** (this layer never silently
        inflates; cf. ``search_database(strict_window=...)``).
    max_batch_pairs:
        Pairs per bulk-engine call (bounds tier-1 peak memory).
    workers:
        ``> 1`` shards each tier-1 batch across a process pool.
    resilient:
        Score tier 1 on the shared
        :class:`~repro.resilience.fallback.EngineFallbackChain`
        (default) so a failing backend demotes; a batch that still
        raises is rescored once on the chain before the error
        propagates.  ``False`` uses the plain in-process engine and
        fails fast.
    verify:
        CRC-check every shard payload on open (reads everything).
    """

    def __init__(self, index: DatabaseIndex | str, *,
                 scheme: ScoringScheme | None = None,
                 word_bits: int = 64,
                 min_seeds: int = 1,
                 threshold: int = 0,
                 window: int | None = None,
                 max_batch_pairs: int = 4096,
                 workers: int | None = None,
                 resilient: bool = True,
                 verify: bool = False) -> None:
        if not isinstance(index, DatabaseIndex):
            index = DatabaseIndex.open(index)
        if min_seeds < 0:
            raise ValueError(f"min_seeds must be >= 0, got {min_seeds}")
        if threshold < 0:
            raise ValueError(
                f"threshold must be non-negative, got {threshold}")
        if max_batch_pairs <= 0:
            raise ValueError(
                f"max_batch_pairs must be positive, got {max_batch_pairs}")
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.index = index
        self.scheme = scheme or DEFAULT_SCHEME
        scheme_alph = getattr(self.scheme, "alphabet", None)
        if index.alphabet is not DNA:
            # Protein (or other wide-alphabet) index: the scheme must
            # carry a matching alphabet or every code would be
            # misread as a nucleotide.
            if scheme_alph is None or scheme_alph is not index.alphabet:
                raise ValueError(
                    f"index stores {index.alphabet.name} codes but the "
                    f"scoring scheme targets "
                    f"{getattr(scheme_alph, 'name', 'DNA')}; pass a "
                    "scheme built for the index alphabet (e.g. "
                    "ProteinScheme for a protein index)")
        self.word_bits = word_bits
        self.min_seeds = min_seeds
        self.threshold = threshold
        self.window = window
        self.max_batch_pairs = max_batch_pairs
        self.workers = workers
        self.resilient = resilient
        self.verify = verify

    # -- tier-1 scoring -------------------------------------------------
    def _score_batch(self, X: np.ndarray, Y: np.ndarray,
                     stats: SearchStats) -> np.ndarray:
        try:
            fault_point("index.tier1.screen")
            if self.workers is not None and self.workers > 1:
                scores = bulk_max_scores(
                    X, Y, self.scheme, self.word_bits,
                    chunk_size=self.max_batch_pairs,
                    workers=self.workers)
                stats.record_engine(f"sharded[{self.workers}]")
                return scores
            if self.resilient:
                scores, engine = default_chain(self.word_bits).score(
                    X, Y, self.scheme)
                stats.record_engine(engine)
                return scores
            scores = bulk_max_scores(X, Y, self.scheme, self.word_bits)
            stats.record_engine("bpbc")
            return scores
        except Exception:
            if not self.resilient:
                raise
            # One in-process rescue on the fallback chain; a batch the
            # whole chain cannot score surfaces as a typed
            # FallbackExhaustedError, never a silent gap in the hits.
            scores, engine = default_chain(self.word_bits).score(
                X, Y, self.scheme)
            stats.record_engine(f"{engine} (rescued)")
            return scores

    # -- tier 0 ---------------------------------------------------------
    def _candidate_regions(self, shard, q_codes, q_seeds,
                           overlaps, W: int) -> list[_Region]:
        """Seed lookup + window selection for one shard."""
        regions: list[_Region] = []
        for qi, q in enumerate(q_codes):
            ov = min(overlaps[qi], W - 1)
            if self.min_seeds == 0:
                survivors = np.arange(shard.n_entries)
                seed_pos = None
            else:
                pos, _src = shard.lookup(q_seeds[qi])
                if pos.size == 0:
                    continue
                entries = shard.entry_of(pos)
                uniq, counts = np.unique(entries, return_counts=True)
                survivors = uniq[counts >= self.min_seeds]
                if survivors.size == 0:
                    continue
                order = np.argsort(pos, kind="stable")
                pos, entries = pos[order], entries[order]
                seed_pos = (pos, entries)
            for e in survivors.tolist():
                e_start = int(shard.offsets[e])
                e_len = int(shard.offsets[e + 1]) - e_start
                wins = windows_for(e_len, W, ov)
                if seed_pos is not None and len(wins) > 1:
                    pos_all, entries_all = seed_pos
                    mine = pos_all[entries_all == e] - e_start
                    starts = np.array([a for a, _ in wins])
                    ends = np.array([b for _, b in wins])
                    has_seed = (np.searchsorted(mine, ends, "left")
                                > np.searchsorted(mine, starts, "left"))
                    wins = [wv for wv, keep in zip(wins, has_seed)
                            if keep]
                regions.extend(
                    _Region(qi, e, e_start + a, e_start + b)
                    for a, b in wins)
        return regions

    # -- the pipeline ---------------------------------------------------
    def search(self, queries, top_k: int | None = None,
               align: bool = True) -> TieredSearchResult:
        """Search every query against the whole index.

        ``queries`` is a list of strings (in the index's alphabet) or
        1-D code arrays.
        Returns hits ranked per query by descending score (ties by
        entry index), at most ``top_k`` per query, each carrying a
        full :class:`~repro.swa.traceback.Alignment` unless
        ``align=False``.
        """
        if top_k is not None and top_k <= 0:
            raise ValueError(f"top_k must be positive, got {top_k}")
        alph = self.index.alphabet
        enc = encode if alph is DNA else alph.encode
        q_codes = [enc(q) if isinstance(q, str)
                   else np.asarray(q, dtype=np.uint8) for q in queries]
        if not q_codes:
            raise ValueError("queries must be non-empty")
        for qi, q in enumerate(q_codes):
            if q.ndim != 1 or q.size == 0:
                raise ValueError(
                    f"query {qi}: expected a non-empty 1-D sequence")
            if self.min_seeds > 0 and q.size < self.index.k:
                raise ValueError(
                    f"query {qi} is shorter ({q.size}) than the index "
                    f"k-mer size ({self.index.k}); it can never seed. "
                    "Use min_seeds=0 (exact mode) or rebuild the "
                    "index with a smaller k")

        overlaps = [window_overlap(len(q), self.scheme) for q in q_codes]
        W = self.window
        if W is None:
            W = 2 * max(overlaps)
        elif W <= max(overlaps):
            raise ValueError(
                f"window {W} is unsound for the longest query: a "
                f"local alignment can span {max(overlaps) + 1} text "
                f"chars; need window > {max(overlaps)}")

        q_seeds = [np.unique(minimizers(q, self.index.k, self.index.w,
                                        bits=self.index.kmer_bits)[1])
                   for q in q_codes]

        stats = SearchStats(entries_total=self.index.n_entries,
                            chars_total=self.index.n_chars,
                            queries=len(q_codes))
        t0 = stats.tier("tier0 minimizer prefilter")
        t1 = stats.tier("tier1 bpbc screen")
        t2 = stats.tier("tier2 traceback")
        t0.candidates_in = self.index.n_entries * len(q_codes)

        hits: list[TieredHit] = []
        for shard in self.index.iter_shards(verify=self.verify):
            stats.shards_searched += 1
            tic = time.perf_counter()
            regions = self._candidate_regions(shard, q_codes, q_seeds,
                                              overlaps, W)
            t0.elapsed_s += time.perf_counter() - tic
            t0.candidates_out += len(
                {(r.qi, r.entry) for r in regions})
            if not regions:
                shard.close()
                continue

            # Tier 1: rectangular (m, n) groups, chunked bulk scoring.
            tic = time.perf_counter()
            groups: dict[tuple[int, int], list[_Region]] = {}
            for r in regions:
                key = (q_codes[r.qi].size, r.end - r.start)
                groups.setdefault(key, []).append(r)
            # (qi, entry) -> (best score, best window start/end)
            best: dict[tuple[int, int], tuple[int, int, int]] = {}
            for (m, n), items in groups.items():
                t1.candidates_in += len(items)
                for c0 in range(0, len(items), self.max_batch_pairs):
                    chunk = items[c0:c0 + self.max_batch_pairs]
                    X = np.stack([q_codes[r.qi] for r in chunk])
                    Y = np.stack([shard.window_codes(r.start, r.end)
                                  for r in chunk])
                    scores = self._score_batch(X, Y, stats)
                    for r, sc in zip(chunk, scores):
                        sc = int(sc)
                        key = (r.qi, r.entry)
                        if key not in best or sc > best[key][0]:
                            best[key] = (sc, r.start, r.end)
            survivors = {k: v for k, v in best.items()
                         if v[0] > self.threshold}
            t1.elapsed_s += time.perf_counter() - tic
            t1.candidates_out += len(survivors)

            # Tier 2: exact traceback on each survivor's best window.
            tic = time.perf_counter()
            t2.candidates_in += len(survivors)
            for (qi, e), (sc, wa, wb) in sorted(survivors.items()):
                aln = None
                if align:
                    aln = self._align(shard, q_codes[qi], wa, wb, sc)
                    e_start = int(shard.offsets[e])
                    aln = replace(aln,
                                  y_start=aln.y_start + wa - e_start,
                                  y_end=aln.y_end + wa - e_start)
                hits.append(TieredHit(
                    query_index=qi,
                    db_index=shard.entry_base + e,
                    entry_id=shard.ids[e],
                    score=sc,
                    alignment=aln))
            t2.elapsed_s += time.perf_counter() - tic
            shard.close()

        hits.sort(key=lambda h: (h.query_index, -h.score, h.db_index))
        if top_k is not None:
            kept: list[TieredHit] = []
            per_q: dict[int, int] = {}
            for h in hits:
                c = per_q.get(h.query_index, 0)
                if c < top_k:
                    kept.append(h)
                    per_q[h.query_index] = c + 1
            hits = kept
        t2.candidates_out = len(hits)
        return TieredSearchResult(hits=hits, stats=stats)

    def _align(self, shard, q: np.ndarray, wa: int, wb: int,
               expected: int) -> Alignment:
        """Matrix fill + traceback on one window
        (:func:`repro.swa.traceback.align`, any scheme kind), with one
        retry (the ``index.tier2.align`` fault site) and the bulk/CPU
        score self-check."""
        for attempt in (0, 1):
            try:
                fault_point("index.tier2.align")
                break
            except Exception:
                if attempt:
                    raise
        aln = align(q, shard.window_codes(wa, wb), self.scheme)
        if aln.score != expected:  # pragma: no cover - self check
            raise AssertionError(
                f"tier-1/tier-2 score mismatch: bulk {expected} vs "
                f"traceback {aln.score}")
        return aln


def search_index(index: DatabaseIndex | str, queries, *,
                 top_k: int | None = None, align: bool = True,
                 **kwargs) -> TieredSearchResult:
    """One-shot convenience wrapper around :class:`TieredSearch`."""
    return TieredSearch(index, **kwargs).search(queries, top_k=top_k,
                                                align=align)
