"""``search`` section: ``TieredSearch`` over an on-disk DNA index.

3M characters of random DNA entries are indexed (the write side of
``index``, timed as set-up); queries are half exact plants, half
mutated homologs of a random entry window.  Tier 1 runs sharded over
``nproc`` workers, so ``shard`` (pool spawn, transport, imbalance) is
measured here and nowhere else; the kernel share is small and tier-2
traceback (``swa``) dominates.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.index import build_index
from repro.index.search import TieredSearch
from repro.shard import executor as shard_executor
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.scoring import DEFAULT_SCHEME
from repro.workloads.dna import MutationModel, mutate, random_strands

from .common import NPROC, median

ENTRIES, ENTRY_LEN = 1500, 2000
QUERY_LEN = 128
QUERIES_PER_CALL = 8
K, W = 12, 6
SHARD_CHARS = 1 << 20
THRESHOLD = 190
TOP_K = 5
BUILDS = 3


def make_queries(rng, db):
    """Half exact plants, half 5 %-substituted homologs (length kept)."""
    queries, planted = [], []
    for i in range(QUERIES_PER_CALL):
        e = int(rng.integers(ENTRIES))
        pos = int(rng.integers(0, ENTRY_LEN - QUERY_LEN))
        q = db[e, pos:pos + QUERY_LEN].copy()
        if i % 2:
            q = mutate(rng, q, MutationModel(sub_rate=0.05))
        queries.append(q)
        planted.append(e)
    return queries, planted


class ShardProbe:
    """Traced run only: wraps ``ShardExecutor`` construction and
    ``run`` to read pool spawns, per-shard timings and transport
    counters from outside."""


    def __init__(self) -> None:
        self.runs: list[dict] = []
        self.spawns = 0
        self.counters = {"shm_runs": 0, "pickle_runs": 0,
                         "shm_fallbacks": 0}

    def install(self, tracer) -> None:
        cls = shard_executor.ShardExecutor
        init, run = cls.__init__, cls.run
        probe = self

        def traced_init(ex, *args, **kwargs):
            init(ex, *args, **kwargs)
            probe.spawns += 0 if ex.in_process else 1

        def traced_run(ex, *args, **kwargs):
            before = {k: getattr(ex, k) for k in probe.counters}
            with tracer.span("shard.run") as sid:
                t0 = time.perf_counter()
                res = run(ex, *args, **kwargs)
                dt = time.perf_counter() - t0
            for k in probe.counters:
                probe.counters[k] += getattr(ex, k) - before[k]
            compute = [t.elapsed_s for t in res.timings]
            # Workers report durations only; each is drawn from the
            # start of its run.
            for t in res.timings:
                tracer.add("shard.compute", t0, t0 + t.elapsed_s,
                           parent=sid, shard=t.shard_id, pairs=t.pairs)
            probe.runs.append({"run_s": dt, "compute": compute})
            return res

        tracer.patch(cls, "__init__", traced_init)
        tracer.patch(cls, "run", traced_run)

    def layers(self) -> dict:
        runs = self.runs or [{"run_s": 0.0, "compute": [0.0]}]
        slowest = [max(r["compute"] or [0.0]) for r in runs]
        imbalance = [max(r["compute"]) / (sum(r["compute"])
                                          / len(r["compute"]))
                     for r in runs if r["compute"] and sum(r["compute"])]
        return {
            "shard.run_ms": median([r["run_s"] for r in runs]) * 1e3,
            "shard.compute_ms": median(slowest) * 1e3,
            "shard.overhead_ms": median(
                [r["run_s"] - s for r, s in zip(runs, slowest)]) * 1e3,
            "shard.runs": len(self.runs),
            "shard.pool_spawns": self.spawns,
            "shard.imbalance": median(imbalance) if imbalance else 1.0,
            "shard.shm_runs": self.counters["shm_runs"],
            "shard.pickle_runs": self.counters["pickle_runs"],
            "shard.shm_fallbacks": self.counters["shm_fallbacks"],
        }


class Section:
    """Set up on construction; ``measure`` once per round; ``finish``
    checks every output and returns the figures."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.db = random_strands(ctx.rng, ENTRIES, ENTRY_LEN)
        self.builds = []
        for i in range(BUILDS):
            t0 = time.perf_counter()
            index = build_index(
                ((f"e{j}", self.db[j]) for j in range(ENTRIES)),
                ctx.run_dir / f"index-{i}", k=K, w=W,
                shard_chars=SHARD_CHARS)
            self.builds.append(time.perf_counter() - t0)
        self.searcher = TieredSearch(index, threshold=THRESHOLD,
                                     workers=NPROC)
        self.searcher.search(make_queries(ctx.rng, self.db)[0][:2],
                             top_k=TOP_K)  # warm
        self.probe = ShardProbe()
        self.calls = []

    def measure(self, seconds: float) -> None:
        tracer = self.ctx.tracer
        if tracer.enabled:
            self.probe.install(tracer)
        deadline = time.perf_counter() + seconds
        try:
            while True:
                queries, planted = make_queries(self.ctx.rng, self.db)
                with tracer.span("index.search", queries=len(queries)):
                    t0 = time.perf_counter()
                    res = self.searcher.search(queries, top_k=TOP_K)
                    dt = time.perf_counter() - t0
                self.calls.append((dt, queries, planted, res))
                if time.perf_counter() >= deadline:
                    return
        finally:
            tracer.unwrap_all()

    def finish(self) -> dict:
        """Every plant must be found with its score equal to the exact
        whole-entry optimum, and no hit may score above that optimum."""
        ctx, db, calls = self.ctx, self.db, self.calls
        attempted = failed = rescued = 0
        for _dt, queries, planted, res in calls:
            hits = res.hits
            X = np.stack([queries[h.query_index] for h in hits]) if hits \
                else np.empty((0, QUERY_LEN), np.uint8)
            Y = np.stack([db[h.db_index] for h in hits]) if hits \
                else np.empty((0, ENTRY_LEN), np.uint8)
            gold = sw_batch_max_scores(X, Y, DEFAULT_SCHEME) if hits else []
            for qi, e in enumerate(planted):
                attempted += 1
                found = [g for h, g in zip(hits, gold)
                         if h.query_index == qi and h.db_index == e
                         and h.score == g]
                if not found:
                    failed += 1
                    print(f"search: plant {e} of query {qi} missing or "
                          "mis-scored", file=sys.stderr)
            over = sum(1 for h, g in zip(hits, gold) if h.score > g)
            if over:
                print(f"search: {over} hits scored above gold",
                      file=sys.stderr)
            failed += over
            rescued += sum(v for k, v in res.stats.engine_batches.items()
                           if "rescued" in k)

        total_q = sum(len(c[1]) for c in calls)
        total_s = sum(c[0] for c in calls)
        tiers = [{t.name.split()[0]: t for t in c[3].stats.tiers}
                 for c in calls]

        def tier_ms(name: str) -> float:
            return median([t[name].elapsed_s for t in tiers]) * 1e3

        layer = {
            "index.build_s": median(self.builds),
            "index.tier0_ms": tier_ms("tier0"),
            "index.tier0_survivor_ratio": median(
                [t["tier0"].survivor_rate for t in tiers]),
            "index.tier1_ms": tier_ms("tier1"),
            "index.tier1_pairs": median([t["tier1"].candidates_in
                                         for t in tiers]),
            "index.tier2_ms": tier_ms("tier2"),
            "index.search_ms": median([c[0] for c in calls]) * 1e3,
            "resilience.rescued_batches.search": rescued,
        }
        if ctx.tracer.enabled:
            layer.update(self.probe.layers())
        return {
            "setup_s": median(self.builds),
            "attempted": attempted, "failed": failed,
            "e2e": {"search.queries_per_s": total_q / total_s},
            "layer": layer,
        }
