"""``screen`` section: the paper's Table IV shape through ``screen_pairs``.

Random DNA pairs, m = 128 against n = 1024 (the paper's shortest
subject), with exactly 1 % planted homologs so survivors go through
traceback.  In process, one worker: ``core``/``jit`` do the bulk work
and ``swa`` the survivor tracebacks; ``shard``, ``serve``, ``cluster``
and ``index`` do nothing here.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

from repro.filter import screening
from repro.core import sw_bpbc
from repro.perfmodel import WorkloadSpec, b2w_ops, swa_bulk_ops, w2b_ops
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.scoring import DEFAULT_SCHEME
from repro.workloads.dna import MutationModel, plant_homology, random_strands

from .common import gold_scores, median

M, N = 128, 1024
PAIRS = 384
PLANTS = 4          # ~1 % of PAIRS
SUBSAMPLE = 128     # pairs timed for the bitwise-vs-wordwise ratio
THRESHOLD = 190     # random 128 x 1024 pairs top out near 150
COLD_STARTS = 3

#: A fresh interpreter's first screen call: import, compile the cell
#: into an empty JIT cache, score one small batch.
_COLD_START = (
    "import numpy as np\n"
    "from repro.filter.screening import screen_pairs\n"
    "from repro.workloads.dna import random_strands\n"
    "rng = np.random.default_rng(0)\n"
    f"screen_pairs(random_strands(rng, 64, {M}), "
    f"random_strands(rng, 64, {N}), {THRESHOLD})\n"
)


def make_batch(rng: np.random.Generator):
    X = random_strands(rng, PAIRS, M)
    Y = random_strands(rng, PAIRS, N)
    planted = np.sort(rng.choice(PAIRS, PLANTS, replace=False))
    for p in planted:
        Y[p], _ = plant_homology(rng, X[p], N, MutationModel(sub_rate=0.05))
    return X, Y, planted


def cold_start(run_dir, i: int) -> float:
    env = dict(os.environ, REPRO_JIT_CACHE=str(run_dir / f"jit-cold-{i}"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _trace_layers(tracer) -> None:
    tracer.wrap(screening, "encode_batch_bit_transposed", "core.w2b")
    tracer.wrap(screening, "bpbc_sw_wavefront", "core.sw")
    tracer.wrap(sw_bpbc, "reduce_max_rows", "core.b2w")
    tracer.wrap(sw_bpbc, "ints_from_slices", "core.b2w")
    tracer.wrap(screening, "sw_matrix", "swa.traceback")
    tracer.wrap(screening, "traceback", "swa.traceback")


class Section:
    """Set up on construction; ``measure`` once per round; ``finish``
    checks every output and returns the figures."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.setups = [cold_start(ctx.run_dir, i)
                       for i in range(COLD_STARTS)]
        self.X, self.Y, self.planted = make_batch(ctx.rng)
        # Warm the in-process cell evaluator (outside every timed region).
        screening.screen_pairs(self.X[:64], self.Y[:64], THRESHOLD)
        self.traced, self.untraced, self.results = [], [], []

    def measure(self, seconds: float) -> None:
        tracer = self.ctx.tracer
        deadline = time.perf_counter() + seconds
        while True:
            traced = tracer.enabled and len(self.results) % 2 == 0
            if traced:
                _trace_layers(tracer)
            try:
                with (tracer.span("filter.screen_pairs") if traced
                      else nullcontext()) as sid:
                    t0 = time.perf_counter()
                    res = screening.screen_pairs(self.X, self.Y, THRESHOLD)
                    dt = time.perf_counter() - t0
            finally:
                tracer.unwrap_all()
            (self.traced if traced else self.untraced).append((dt, sid))
            self.results.append(res)
            if time.perf_counter() >= deadline:
                return

    def finish(self) -> dict:
        # Every score against the wordwise reference; every plant must
        # survive.
        X, Y, planted = self.X, self.Y, self.planted
        ref = gold_scores(sw_batch_max_scores, X, Y, DEFAULT_SCHEME)
        failed = 0
        for res in self.results:
            bad = int(np.count_nonzero(res.scores != ref))
            missed = int(np.count_nonzero(res.scores[planted] <= THRESHOLD))
            if bad or missed:
                print(f"screen: {bad} wrong scores, {missed} plants missed",
                      file=sys.stderr)
            failed += bad + missed
        # The steady-state figure comes from untraced calls only.
        steady = median([dt for dt, _ in self.untraced])
        out = {
            "setup_s": median(self.setups),
            "attempted": PAIRS * len(self.results), "failed": failed,
            "e2e": {"screen.gcups": PAIRS * M * N / steady / 1e9},
            "layer": {"jit.cold_start_s": median(self.setups),
                      "screen.survivors": len(self.results[-1].hits),
                      "filter.screen_ms": steady * 1e3},
        }
        if self.ctx.tracer.enabled:
            out["layer"].update(_layers(self.ctx.tracer, self.traced,
                                        self.untraced))
            out["layer"]["core.speedup_vs_wordwise"] = speedup(X, Y)
        return out


def speedup(X, Y, repeats: int = 3) -> float:
    """The paper's Table IV ratio on a fixed subsample: wordwise
    reference time over bitwise bulk time for the same pairs (median
    of ``repeats`` timings each, one thread)."""
    X, Y = X[:SUBSAMPLE], Y[:SUBSAMPLE]
    times = {"wordwise": [], "bitwise": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        sw_batch_max_scores(X, Y, DEFAULT_SCHEME)
        times["wordwise"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        screening.bulk_max_scores(X, Y)
        times["bitwise"].append(time.perf_counter() - t0)
    return median(times["wordwise"]) / median(times["bitwise"])


def _layers(tracer, traced_calls, untraced) -> dict:
    per = {"core.w2b": [], "core.sw": [], "core.b2w": [],
           "swa.traceback": []}
    for _dt, sid in traced_calls:
        for name in per:
            per[name].append(tracer.subtree_ms(sid, name))
    w2b, sw, b2w = (median(per[k]) for k in ("core.w2b", "core.sw",
                                             "core.b2w"))
    spec = WorkloadSpec(pairs=PAIRS, m=M, n=N, word_bits=64)
    s = DEFAULT_SCHEME.score_bits(M, N)
    ops = {"w2b": w2b_ops(spec), "sw": swa_bulk_ops(spec, s, paper=False),
           "b2w": b2w_ops(spec, s)}
    bulk_ms = w2b + sw
    layer = {
        "core.w2b_ms": w2b,
        "core.sw_ms": sw,
        "core.b2w_ms": b2w,
        "core.w2b_ns_per_op": w2b * 1e6 / ops["w2b"],
        "core.sw_ns_per_op": sw * 1e6 / ops["sw"],
        "core.sw_share_measured": sw / bulk_ms if bulk_ms else 0.0,
        "perfmodel.w2b_ops": ops["w2b"],
        "perfmodel.sw_ops": ops["sw"],
        "perfmodel.b2w_ops": ops["b2w"],
        "perfmodel.sw_share_model": ops["sw"] / (ops["sw"] + ops["w2b"]),
        "swa.traceback_ms": median(per["swa.traceback"]),
    }
    layer["trace.overhead_ms.screen"] = (
        median([dt for dt, _ in traced_calls])
        - median([dt for dt, _ in untraced])) * 1e3
    return layer
