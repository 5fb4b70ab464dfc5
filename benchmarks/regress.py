#!/usr/bin/env python
"""Bench-regression harness for the SWA cell evaluators.

Times the bitwise wavefront engine on the Table IV acceptance workload
once per cell evaluator (``generic`` interpreter, ``compiled-numpy``,
and ``compiled`` with automatic backend choice),
calibrates against the wordwise NumPy engine on the same workload, and
records a ``BENCH_<n>.json`` snapshot at the repo root.  A protein
entry (``protein-compiled``) times the compiled substitution-matrix
Gotoh cell (BLOSUM62, affine 11/1) against the word-wise scalar Gotoh
reference the same way.

Absolute milliseconds are machine-specific, so every entry also stores
``rel`` — its time divided by the wordwise calibration run.  Regression
checking compares ``rel`` values, which transfer across machines: a 25%
regression in ``rel`` means the evaluator got 25% slower *relative to
the same machine's wordwise baseline*, not that the runner was slow.

Usage::

    python benchmarks/regress.py                 # measure + print
    python benchmarks/regress.py --write         # + snapshot BENCH_<n>.json
    python benchmarks/regress.py --check         # compare vs latest snapshot
    python benchmarks/regress.py --quick --check # CI smoke (small workload)

``--quick`` runs a reduced workload and keys its results under a
separate ``quick`` section, so CI quick runs compare against the
committed quick baseline, never against full-scale numbers.

``--rounds N`` measures the whole section N times and keeps each
entry's best (lowest) ``rel``.  Shared CI runners are noisy neighbours:
one unlucky round can inflate a sub-second measurement well past any
sane tolerance, but the *best* of a few rounds is stable — CI gates on
that.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.affine_bpbc import bpbc_gotoh_wavefront_planes  # noqa: E402
from repro.core.alphabet import PROTEIN_X  # noqa: E402
from repro.core.encoding import (encode_batch_bit_transposed,  # noqa: E402
                                 encode_batch_char_planes)
from repro.core.matrices import BLOSUM62  # noqa: E402
from repro.core.protein import (ProteinScheme,  # noqa: E402
                                subst_gotoh_batch_max_scores)
from repro.core.sw_bpbc import bpbc_sw_wavefront  # noqa: E402
from repro.jit import cc_available  # noqa: E402
from repro.swa.numpy_batch import sw_batch_max_scores  # noqa: E402
from repro.swa.scoring import ScoringScheme  # noqa: E402
from repro.workloads.datasets import paper_workload  # noqa: E402

SCHEME = ScoringScheme(match_score=2, mismatch_penalty=1, gap_penalty=1)
PROTEIN_SCHEME = ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1)
WORD_BITS = 64

#: Evaluators tracked by the snapshot, slowest first.
CELLS = ("generic", "compiled-numpy", "compiled")

#: Workload per section.  ``full`` is the Table IV acceptance workload
#: (same shape as ``benchmarks/conftest.py``'s ``bench_batch``);
#: ``quick`` is sized for CI smoke runs (~seconds total).  The protein
#: sub-workload is smaller: the affine mux-tree cell does several
#: times the gate work of the DNA cell per plane.  ``quick`` still
#: spans 16 (DNA) and 8 (protein) 64-bit lane words: at one 4-word
#: vector the native step is only ~2x faster than with a scalar word,
#: within the noise of CI's 1.5x gate, while at these widths a slide
#: back to the scalar word costs ~3x and fails it.
WORKLOADS = {
    "full": {"pairs": 2048, "m": 128, "n": 512, "repeats": 3,
             "protein": {"pairs": 512, "m": 64, "n": 128}},
    "quick": {"pairs": 1024, "m": 64, "n": 128, "repeats": 5,
              "protein": {"pairs": 512, "m": 32, "n": 64}},
}

#: Default allowed slowdown in ``rel`` before --check fails.
DEFAULT_TOLERANCE = 1.25


def _best_of(fn, repeats: int) -> float:
    """Best wall-clock of ``repeats`` calls, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def run_section(mode: str, verbose: bool = True) -> dict:
    """Measure one section (``full`` or ``quick``); return its record."""
    cfg = WORKLOADS[mode]
    pairs, m, n, repeats = cfg["pairs"], cfg["m"], cfg["n"], cfg["repeats"]
    batch = paper_workload(n, pairs=pairs, m=m, seed=42)
    XH, XL = encode_batch_bit_transposed(batch.X, WORD_BITS)
    YH, YL = encode_batch_bit_transposed(batch.Y, WORD_BITS)

    if verbose:
        print(f"[{mode}] {pairs} pairs, m={m}, n={n}, "
              f"word_bits={WORD_BITS}, best of {repeats}")
    cal_ms = _best_of(
        lambda: sw_batch_max_scores(batch.X, batch.Y, SCHEME), repeats)
    if verbose:
        print(f"  {'wordwise (calibration)':<24} {cal_ms:9.1f} ms")

    entries: dict[str, dict] = {}
    for cell in CELLS:
        def swa(cell=cell):
            return bpbc_sw_wavefront(XH, XL, YH, YL, SCHEME, WORD_BITS,
                                     cell=cell)
        swa()  # warmup: jit compile + buffer pools, outside the timing
        ms = _best_of(swa, repeats)
        entries[f"cell-{cell}"] = {"ms": round(ms, 3),
                                   "rel": round(ms / cal_ms, 5)}
        if verbose:
            print(f"  {'cell-' + cell:<24} {ms:9.1f} ms   "
                  f"rel {ms / cal_ms:7.4f}")

    speedup = (entries["cell-generic"]["ms"]
               / entries["cell-compiled"]["ms"])
    if verbose:
        print(f"  compiled speedup over generic: {speedup:.2f}x")

    # -- protein affine: compiled mux-tree Gotoh cell vs the word-wise
    # scalar reference, calibrated the same way (rel transfers across
    # machines; the gate catches the compiled cell regressing against
    # its own baseline ratio).
    pcfg = cfg["protein"]
    rng = np.random.default_rng(42)
    PX = rng.integers(0, 20, size=(pcfg["pairs"], pcfg["m"]),
                      dtype=np.uint8)
    PY = rng.integers(0, 20, size=(pcfg["pairs"], pcfg["n"]),
                      dtype=np.uint8)
    eps = PROTEIN_X.pad_bits
    Xp = encode_batch_char_planes(PX, WORD_BITS, char_bits=eps)
    Yp = encode_batch_char_planes(PY, WORD_BITS, char_bits=eps)
    protein_cal_ms = _best_of(
        lambda: subst_gotoh_batch_max_scores(PX, PY, PROTEIN_SCHEME),
        repeats)

    def protein_swa():
        return bpbc_gotoh_wavefront_planes(
            Xp, Yp, PROTEIN_SCHEME, WORD_BITS, cell="compiled")
    protein_swa()  # warmup: jit compile outside the timing
    protein_ms = _best_of(protein_swa, repeats)
    entries["protein-compiled"] = {
        "ms": round(protein_ms, 3),
        "rel": round(protein_ms / protein_cal_ms, 5),
    }
    if verbose:
        print(f"  {'protein wordwise (cal)':<24} "
              f"{protein_cal_ms:9.1f} ms")
        print(f"  {'protein-compiled':<24} {protein_ms:9.1f} ms   "
              f"rel {protein_ms / protein_cal_ms:7.4f}")
    return {
        "workload": {"pairs": pairs, "m": m, "n": n,
                     "word_bits": WORD_BITS, "seed": 42,
                     "repeats": repeats},
        "calibration_ms": round(cal_ms, 3),
        "protein_workload": dict(pcfg, word_bits=WORD_BITS, seed=42),
        "protein_calibration_ms": round(protein_cal_ms, 3),
        "entries": entries,
        "compiled_speedup": round(speedup, 3),
    }


def run_section_best(mode: str, rounds: int, verbose: bool = True) -> dict:
    """Best-of-``rounds`` measurement of one section.

    Each round re-runs :func:`run_section` (its own calibration and
    evaluator timings); per entry the round with the lowest ``rel``
    wins, so a noisy-neighbour spike in any single round cannot fail
    the gate.
    """
    best = run_section(mode, verbose=verbose)
    for k in range(1, rounds):
        if verbose:
            print(f"[{mode}] round {k + 1}/{rounds}")
        nxt = run_section(mode, verbose=verbose)
        for key, cur in nxt["entries"].items():
            if cur["rel"] < best["entries"][key]["rel"]:
                best["entries"][key] = cur
        best["calibration_ms"] = min(best["calibration_ms"],
                                     nxt["calibration_ms"])
        best["protein_calibration_ms"] = min(
            best["protein_calibration_ms"], nxt["protein_calibration_ms"])
        best["compiled_speedup"] = round(
            best["entries"]["cell-generic"]["ms"]
            / best["entries"]["cell-compiled"]["ms"], 3)
    if rounds > 1:
        best["rounds"] = rounds
    return best


def snapshot_paths() -> list[Path]:
    """Committed snapshots at the repo root, oldest first."""
    def index(p: Path) -> int:
        mt = re.fullmatch(r"BENCH_(\d+)\.json", p.name)
        return int(mt.group(1)) if mt else -1
    paths = [p for p in ROOT.glob("BENCH_*.json") if index(p) >= 0]
    return sorted(paths, key=index)


def next_snapshot_path() -> Path:
    """Name for a new snapshot: one past the highest committed index.

    Snapshots are numbered by the PR that recorded them; the series
    starts at BENCH_4.json (the PR that introduced this harness).
    """
    existing = snapshot_paths()
    if not existing:
        return ROOT / "BENCH_4.json"
    last = int(re.fullmatch(r"BENCH_(\d+)\.json",
                            existing[-1].name).group(1))
    return ROOT / f"BENCH_{last + 1}.json"


def check(current: dict, baseline_path: Path, mode: str,
          tolerance: float) -> int:
    """Compare ``current[mode]`` vs the baseline; return exit status."""
    baseline = json.loads(baseline_path.read_text())
    base_section = baseline.get(mode)
    if base_section is None:
        print(f"baseline {baseline_path.name} has no {mode!r} section; "
              "nothing to check")
        return 0
    base_entries = base_section["entries"]
    cur_entries = current[mode]["entries"]
    failures = []
    print(f"\ncheck vs {baseline_path.name} [{mode}] "
          f"(tolerance {tolerance:.2f}x on rel):")
    for key, cur in sorted(cur_entries.items()):
        base = base_entries.get(key)
        if base is None:
            print(f"  {key:<24} new entry, no baseline — skipped")
            continue
        ratio = cur["rel"] / base["rel"]
        verdict = "ok" if ratio <= tolerance else "REGRESSION"
        print(f"  {key:<24} rel {base['rel']:7.4f} -> {cur['rel']:7.4f} "
              f"({ratio:5.2f}x)  {verdict}")
        if ratio > tolerance:
            failures.append(key)
    if failures:
        print(f"\nFAIL: {len(failures)} evaluator(s) regressed more than "
              f"{(tolerance - 1) * 100:.0f}% vs {baseline_path.name}: "
              + ", ".join(failures))
        return 1
    print("\nPASS: no evaluator regressed beyond tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="run the reduced CI workload (its own section)")
    ap.add_argument("--write", nargs="?", const="auto", default=None,
                    metavar="PATH",
                    help="write a BENCH_<n>.json snapshot (auto-numbered "
                         "unless PATH is given); records both sections")
    ap.add_argument("--check", action="store_true",
                    help="compare against the latest committed snapshot "
                         "and fail on regression")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="allowed rel slowdown before --check fails "
                         "(default %(default)s)")
    ap.add_argument("--rounds", type=int, default=1,
                    help="measure the section this many times and keep "
                         "each entry's best rel (default %(default)s; "
                         "CI uses 3 to ride out noisy runners)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    mode = "quick" if args.quick else "full"
    print(f"cell-evaluator bench regression — cc available: "
          f"{cc_available()}, numpy {np.__version__}")

    result: dict = {"schema": 1}
    if args.write is not None:
        # Snapshots always carry both sections so later full *and*
        # quick runs have a baseline to compare against.
        result["full"] = run_section_best("full", args.rounds)
        result["quick"] = run_section_best("quick", args.rounds)
    else:
        result[mode] = run_section_best(mode, args.rounds)

    status = 0
    if args.check:
        snapshots = snapshot_paths()
        if not snapshots:
            print("no committed BENCH_*.json baseline found; "
                  "run with --write first")
            return 2
        status = check(result, snapshots[-1], mode, args.tolerance)

    if args.write is not None and status == 0:
        path = (next_snapshot_path() if args.write == "auto"
                else Path(args.write))
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"\nwrote {path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
