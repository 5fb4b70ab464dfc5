"""The measured process: runs every section of one workload.

Started by ``run.py`` (never by hand) as ``python -m perfbench.sut``
with the repository's ``src`` on the path.  Each workload runs the
four sections — ``screen``, ``search``, ``serve``, ``cluster`` — and
writes one JSON result for the driver.  The
workloads differ only in how much work their requests share (see
``WORKLOADS``); the sections differ in which layers they exercise
(see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cluster, screen, search, serve
from .common import Nodes, Tracer

#: Share of repeated requests per workload: ``serve_repeat`` of the
#: serve stream re-sends an earlier request; ``cluster_hot`` of each
#: cluster batch is drawn from a small hot set.
WORKLOADS = {
    "fresh": {"serve_repeat": 0.0, "cluster_hot": 0.0},
    "repeat": {"serve_repeat": 0.2, "cluster_hot": 0.5},
}
#: Share of ``--seconds`` each section measures for.  The sections are
#: set up first, then measured in ``ROUNDS`` interleaved rounds, so each
#: section's samples span the whole run rather than one stretch of it.
SECTIONS = (("screen", screen, 0.2), ("search", search, 0.2),
            ("serve", serve, 0.4), ("cluster", cluster, 0.2))
ROUNDS = 3


@dataclass
class Context:
    seed: int
    workload: dict
    seconds: float
    rounds: int
    rng: np.random.Generator
    tracer: Tracer
    nodes: Nodes
    run_dir: Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    # No SIGTERM handler here: forked shard pool workers would inherit
    # it, and ``Pool.terminate`` relies on SIGTERM killing them.  On a
    # signal this process dies at once and the driver tears its tree
    # down; ``finally`` covers every other way out.

    tracer = Tracer(enabled=bool(args.trace))
    nodes = Nodes(args.run_dir)
    sections = []
    try:
        for name, module, share in SECTIONS:
            # Inputs depend on (seed, workload, section) only.
            rng = np.random.default_rng(
                [args.seed, zlib.crc32(f"{args.workload}/{name}".encode())])
            ctx = Context(seed=args.seed, workload=WORKLOADS[args.workload],
                          seconds=args.seconds * share, rounds=ROUNDS,
                          rng=rng, tracer=tracer, nodes=nodes,
                          run_dir=args.run_dir)
            sections.append((name, module.Section(ctx), ctx.seconds))
        for _ in range(ROUNDS):
            for _name, section, seconds in sections:
                section.measure(seconds / ROUNDS)
        results = {name: section.finish() for name, section, _ in sections}
    finally:
        nodes.stop_all()
    for name, r in results.items():
        print(f"section {name}: setup {r['setup_s']:.3f} s, "
              f"{r['failed']}/{r['attempted']} failed", file=sys.stderr)
    if nodes.killed:
        print(f"error: {nodes.killed} serve node(s) had to be killed",
              file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {"setup_s": sum(r["setup_s"] for r in results.values())}
    for r in results.values():
        metrics.update(r["e2e"])
        if args.trace:
            metrics.update(r["layer"])
    if args.trace:
        metrics["fail_ratio"] = failed / max(1, attempted)
        metrics["resilience.rescued_batches"] = sum(
            v for k, v in metrics.items()
            if k.startswith("resilience.rescued_"))
        trace_path = (Path(__file__).resolve().parent.parent / ".perfbench"
                      / "traces" / f"{args.workload}-seed{args.seed}.json")
        tracer.write_chrome(trace_path)
        print(f"trace written to {trace_path}", file=sys.stderr)
    args.result.write_text(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
