"""``cluster`` section: a closed loop through ``ClusterCoordinator``.

One caller sends ``score_batch`` batches through an in-process
coordinator over ``nproc`` serve nodes (CLI defaults), waiting for
each batch before sending the next.  A hot set of repeated pairs (the
workload's share) lets hash-routing locality show as owner cache
hits.  This is the only section that reaches ``cluster``.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext

import numpy as np

from repro.cluster import ClusterCoordinator, RemoteNode
from repro.core.encoding import decode
from repro.serve.client import ServeClient
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.scoring import DEFAULT_SCHEME
from repro.workloads.dna import random_strands

from .common import NPROC, gold_scores, median

M = N = 128
BATCH = 64
HOT_SET = 64
SETUPS = 3


def start_cluster(ctx):
    """``NPROC`` nodes started together, each warmed with one request,
    and a coordinator over them; returns (nodes, coordinator, s)."""
    t0 = time.perf_counter()
    nodes = ctx.nodes.start(NPROC)
    for node in nodes:
        with ServeClient(node.host, node.port) as client:
            client.align("ACGT" * 8, "ACGA" * 8)
    coord = ClusterCoordinator(
        [RemoteNode(f"node{i}", n.host, n.port) for i, n in enumerate(nodes)])
    return nodes, coord, time.perf_counter() - t0


class Pairs:
    """Fresh pairs drawn on demand plus a fixed hot set; every unique
    pair keeps its codes for the reference check."""

    def __init__(self, rng, hot_share: float) -> None:
        self.rng = rng
        self.hot_share = hot_share
        self.X: list[np.ndarray] = []
        self.Y: list[np.ndarray] = []
        self.hot = [self._fresh() for _ in range(HOT_SET)] \
            if hot_share else []

    def _fresh(self) -> int:
        self.X.append(random_strands(self.rng, 1, M)[0])
        self.Y.append(random_strands(self.rng, 1, N)[0])
        return len(self.X) - 1

    def batch(self) -> list[int]:
        return [self.hot[int(self.rng.integers(HOT_SET))]
                if self.hot and self.rng.random() < self.hot_share
                else self._fresh() for _ in range(BATCH)]

    def text(self, ids: list[int]) -> list[tuple[str, str]]:
        return [(decode(self.X[i]), decode(self.Y[i])) for i in ids]


class ClusterProbe:
    """Traced batches only: wraps ``RemoteNode.send_batch`` to time
    each node round trip and count connects and cached responses."""

    def __init__(self) -> None:
        self.sends = 0
        self.send_s = 0.0       # time in send_batch, current batch
        self.cached: list[str] = []

    def install(self, tracer) -> None:
        original = RemoteNode.send_batch
        probe = self

        def traced_send(node, requests, deadline=None):
            reqs = [r.get("req") for r in requests]
            t0 = time.perf_counter()
            with tracer.span("cluster.send_batch", req=reqs[0],
                             reqs=reqs, node=node.name):
                responses = original(node, requests, deadline=deadline)
            probe.send_s += time.perf_counter() - t0
            probe.sends += 1
            probe.cached += [r.get("req") for r, resp
                             in zip(requests, responses)
                             if resp.get("cached")]
            return responses

        tracer.patch(RemoteNode, "send_batch", traced_send)


class Section:
    """Set up on construction; ``measure`` once per round; ``finish``
    checks every score and returns the figures."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.setups = []
        for i in range(SETUPS):
            nodes, coord, setup_s = start_cluster(ctx)
            self.setups.append(setup_s)
            if i < SETUPS - 1:
                ctx.nodes.stop(nodes)
        self.nodes, self.coord = nodes, coord
        self.pairs = Pairs(ctx.rng, ctx.workload["cluster_hot"])
        self.probe = ClusterProbe()
        # (seconds, ids, scores, traced, seconds in send_batch, req ids)
        self.batches = []

    def measure(self, seconds: float) -> None:
        tracer, probe = self.ctx.tracer, self.probe
        deadline = time.perf_counter() + seconds
        while True:
            b = len(self.batches)
            ids = self.pairs.batch()
            text = self.pairs.text(ids)
            reqs = [f"c{self.ctx.seed}-{b}-{j}" for j in range(len(ids))]
            traced = tracer.enabled and b % 2 == 0
            if traced:
                probe.send_s = 0.0
                probe.install(tracer)
            try:
                with (tracer.span("cluster.score_batch", req=reqs[0],
                                  reqs=reqs) if traced
                      else nullcontext()):
                    t0 = time.perf_counter()
                    scores = self.coord.score_batch(text, request_ids=reqs)
                    dt = time.perf_counter() - t0
            finally:
                tracer.unwrap_all()
            self.batches.append((dt, ids, scores, traced,
                                 probe.send_s if traced else 0.0, reqs))
            if time.perf_counter() >= deadline and b % 2:
                return

    def finish(self) -> dict:
        ctx, pairs, batches = self.ctx, self.pairs, self.batches
        try:
            status = self.coord.status()
            direct = _direct_replay(ctx, pairs, batches) \
                if ctx.tracer.enabled else None
        finally:
            self.coord.close()
            ctx.nodes.stop(self.nodes)
        uniq = sorted({i for _dt, ids, *_ in batches for i in ids})
        gold = np.zeros(len(pairs.X), dtype=np.int64)
        gold[uniq] = gold_scores(sw_batch_max_scores,
                                 np.stack([pairs.X[i] for i in uniq]),
                                 np.stack([pairs.Y[i] for i in uniq]),
                                 DEFAULT_SCHEME)
        attempted = failed = 0
        for _dt, ids, scores, *_ in batches:
            attempted += len(ids)
            failed += int(np.count_nonzero(np.asarray(scores) != gold[ids]))
        if failed:
            print(f"cluster: {failed} wrong scores", file=sys.stderr)
        steady = [b[0] for b in batches if not b[3]]
        out = {
            "setup_s": median(self.setups),
            "attempted": attempted, "failed": failed,
            "e2e": {"cluster.pairs_per_s":
                    BATCH * len(steady) / sum(steady),
                    "cluster.batch_p50_ms": median(steady) * 1e3},
            "layer": {},
        }
        if ctx.tracer.enabled:
            out["layer"] = _layers(self.probe, batches, status, direct)
        return out


def _direct_replay(ctx, pairs, batches, budget_s: float = 2.0) -> dict:
    """Replay the first batches straight to one fresh node (fresh
    cache, fresh request ids) for the route-efficiency baseline."""
    nodes = ctx.nodes.start(1)
    node = nodes[0]
    try:
        with ServeClient(node.host, node.port) as client:
            client.align("ACGT" * 8, "ACGA" * 8)
            direct_s = cluster_s = 0.0
            n = 0
            for dt, ids, *_ in batches:
                if direct_s > budget_s:
                    break
                text = pairs.text(ids)
                t0 = time.perf_counter()
                resps = client.align_many(text)
                direct_s += time.perf_counter() - t0
                cluster_s += dt
                n += len(ids)
                if not all(r.get("ok") for r in resps):
                    print("cluster: direct replay failed", file=sys.stderr)
    finally:
        ctx.nodes.stop(nodes)
    return {"pairs": n, "direct_s": direct_s, "cluster_s": cluster_s}


def _layers(probe, batches, status, direct) -> dict:
    traced = [b for b in batches if b[3]]
    untraced = [b for b in batches if not b[3]]
    route, overlap = [], []
    for dt, _ids, _scores, _t, send_s, _reqs in traced:
        route.append((dt - send_s) * 1e3)
        overlap.append(send_s / dt)
    seen, repeats = set(), set()
    for _dt, ids, _scores, t, _send, reqs in batches:
        for i, req in zip(ids, reqs):
            if i in seen and t:
                repeats.add(req)
            seen.add(i)
    hits = sum(1 for req in probe.cached if req in repeats)
    per_node = [n["requests"] for n in status["per_node"]]
    c = status["cluster"]
    layer = {
        "cluster.route_ms": median(route),
        "cluster.fanout_overlap": median(overlap),
        "cluster.connects_per_batch": probe.sends / max(1, len(traced)),
        "cluster.owner_cache_hit_ratio": hits / len(repeats)
        if repeats else 0.0,
        "cluster.node_skew": max(per_node) / (sum(per_node) / len(per_node))
        if sum(per_node) else 1.0,
        "cluster.rerouted": c["rerouted"],
        "cluster.degraded": c["degraded"],
        "cluster.shed": c["shed"],
        "resilience.rescued_batches.cluster": c["degraded"],
        "cluster.route_efficiency":
            (direct["direct_s"] / direct["cluster_s"])
            if direct and direct["cluster_s"] else 0.0,
    }
    layer["trace.overhead_ms.cluster"] = (
        median([b[0] for b in traced])
        - median([b[0] for b in untraced])) * 1e3
    return layer
