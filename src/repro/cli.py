"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``score``
    Bulk-score FASTA query/subject pairs with the BPBC engine; TSV to
    stdout (id, id, score).
``screen``
    The paper's τ-threshold workflow: bulk-score, then align and print
    the survivors.
``match``
    Exact or k-mismatch bulk string matching (§II and its extension).
``index build`` / ``index search``
    Tiered billion-character database search: stream FASTA into an
    on-disk minimizer index, then search it through the three-tier
    pipeline (seed prefilter -> BPBC bulk screen -> full traceback;
    see docs/SEARCH.md).
``experiments``
    Regenerate the paper's tables and figures.
``serve``
    Run the micro-batching alignment server (newline-JSON over TCP;
    pair it with ``python -m repro.serve.client``).
``analyze``
    Static/dynamic analysis of the shipped kernels and netlists: the
    race detector, the barrier-divergence lint, and the netlist
    op-count verifier.  Exits non-zero on any finding.

Queries and subjects are matched up pairwise (record i against record
i); use ``--all-vs-all`` in ``score``/``screen`` to cross every query
with every subject instead.  All-vs-all never materialises the cross
product: pair indices are generated lazily and scored in
``--chunk-size`` slices, so a 1k x 1k screen streams through bounded
memory.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core.bitops import unpack_lanes
from .core.approx_matching import bpbc_k_mismatch
from .core.encoding import encode_batch_bit_transposed
from .engines import ENGINES
from .filter.screening import screen_pairs
from .index.fasta import iter_fasta, read_fasta, records_to_batch
from .swa.scoring import ScoringScheme
from .swa.traceback import format_alignment

__all__ = ["main"]


def _scheme_from_args(args):
    """Build the scoring scheme the flags describe.

    ``--alphabet protein`` selects substitution-matrix Gotoh scoring
    (``--matrix``, ``--gap-open``/``--gap-extend`` defaulting to
    11/1); ``--gap-open``/``--gap-extend`` on DNA select affine gaps;
    otherwise the paper's linear scheme from ``--match``/``--mismatch``
    /``--gap``.
    """
    gap_open = getattr(args, "gap_open", None)
    gap_extend = getattr(args, "gap_extend", None)
    if getattr(args, "alphabet", "dna") == "protein":
        from .core.matrices import matrix_by_name
        from .core.protein import ProteinScheme

        return ProteinScheme(
            matrix=matrix_by_name(getattr(args, "matrix", "blosum62")),
            gap_open=11 if gap_open is None else gap_open,
            gap_extend=1 if gap_extend is None else gap_extend,
        )
    if gap_open is not None or gap_extend is not None:
        from .swa.affine import AffineScheme

        return AffineScheme(
            match_score=args.match, mismatch_penalty=args.mismatch,
            gap_open=args.gap if gap_open is None else gap_open,
            gap_extend=1 if gap_extend is None else gap_extend,
        )
    return ScoringScheme(match_score=args.match,
                         mismatch_penalty=args.mismatch,
                         gap_penalty=args.gap)


def _add_alphabet_args(p: argparse.ArgumentParser) -> None:
    from .core.matrices import MATRICES

    p.add_argument("--alphabet", choices=("dna", "protein"),
                   default="dna",
                   help="sequence alphabet (protein selects "
                        "substitution-matrix Gotoh scoring; default "
                        "dna)")
    p.add_argument("--matrix", default="blosum62",
                   choices=sorted(MATRICES),
                   help="protein substitution matrix "
                        "(default blosum62)")
    p.add_argument("--gap-open", type=int, default=None,
                   help="affine gap-open cost (protein default 11; "
                        "enables affine gaps for DNA)")
    p.add_argument("--gap-extend", type=int, default=None,
                   help="affine gap-extend cost (default 1)")
    p.add_argument("--ambiguous", default="strict",
                   choices=("strict", "replace", "mask", "skip"),
                   help="FASTA ambiguity-code policy (default strict "
                        "= reject; mask rewrites protein B/Z/J to X)")


def _add_scoring_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--match", type=int, default=2,
                   help="match score c1 (default 2)")
    p.add_argument("--mismatch", type=int, default=1,
                   help="mismatch penalty c2 (default 1)")
    p.add_argument("--gap", type=int, default=1,
                   help="linear gap penalty (default 1)")
    _add_alphabet_args(p)
    p.add_argument("--word-bits", type=int, default=64,
                   choices=(8, 16, 32, 64),
                   help="lane word width (default 64)")
    p.add_argument("--chunk-size", type=int, default=4096,
                   help="pairs scored per engine slice (bounds peak "
                        "memory; default 4096)")
    p.add_argument("--workers", type=int, default=1,
                   help="shard the bulk phase across this many "
                        "processes (default 1 = in-process)")
    p.add_argument("--max-retries", type=int, default=1,
                   help="fallback-chain rescore retries when a shard "
                        "fails (default 1; needs --workers > 1)")
    p.add_argument("--no-recover", dest="recover", action="store_false",
                   help="fail fast on shard loss instead of rescoring "
                        "failed shards on the fallback chain")


def _load_sides(args) -> tuple[list, list]:
    """Read both FASTA files, validating counts for pairwise mode."""
    alphabet = getattr(args, "alphabet", "dna")
    ambiguous = getattr(args, "ambiguous", "strict")
    queries = read_fasta(args.queries, ambiguous=ambiguous,
                         alphabet=alphabet)
    subjects = read_fasta(args.subjects, ambiguous=ambiguous,
                          alphabet=alphabet)
    if not getattr(args, "all_vs_all", False) and \
            len(queries) != len(subjects):
        raise SystemExit(
            f"error: {len(queries)} queries vs {len(subjects)} "
            "subjects; pairwise mode needs equal counts "
            "(or pass --all-vs-all)"
        )
    return queries, subjects


def _workers_from_args(args) -> int | None:
    """Validate ``--workers``; ``None`` means stay in-process."""
    if args.workers <= 0:
        raise SystemExit(
            f"error: --workers must be positive, got {args.workers}"
        )
    return args.workers if args.workers > 1 else None


def _iter_pair_chunks(n_queries: int, n_subjects: int, chunk_size: int):
    """Lazily yield ``(query_idx, subject_idx)`` arrays covering the
    |Q| x |S| cross product in row-major chunks of ``chunk_size``
    pairs — no million-element Python lists, ever."""
    if chunk_size <= 0:
        raise SystemExit(
            f"error: --chunk-size must be positive, got {chunk_size}"
        )
    total = n_queries * n_subjects
    for start in range(0, total, chunk_size):
        flat = np.arange(start, min(start + chunk_size, total),
                         dtype=np.int64)
        yield flat // n_subjects, flat % n_subjects


def _cmd_score(args) -> int:
    from .filter.screening import bulk_max_scores

    queries, subjects = _load_sides(args)
    scheme = _scheme_from_args(args)
    workers = _workers_from_args(args)
    out = sys.stdout
    out.write("query\tsubject\tscore\n")
    if args.all_vs_all:
        Q = records_to_batch(queries)
        S = records_to_batch(subjects)
        # One shard pool shared across every chunk of the cross
        # product, so --workers amortises its startup cost.
        executor = None
        if workers is not None:
            from .shard import ShardExecutor

            executor = ShardExecutor(workers=workers,
                                     word_bits=args.word_bits)
        try:
            for qi, si in _iter_pair_chunks(len(queries), len(subjects),
                                            args.chunk_size):
                if executor is not None:
                    result = executor.run(
                        Q[qi], S[si], scheme,
                        errors="return" if args.recover else "raise")
                    if args.recover and result.errors:
                        from .resilience.recovery import recover_failures
                        from .resilience.retry import RetryPolicy

                        recover_failures(
                            result, Q[qi], S[si], scheme,
                            word_bits=args.word_bits,
                            retry=RetryPolicy(
                                max_retries=args.max_retries))
                    scores = result.scores
                else:
                    scores = bulk_max_scores(Q[qi], S[si], scheme,
                                             word_bits=args.word_bits)
                for a, b, sc in zip(qi, si, scores):
                    out.write(f"{queries[a].id}\t{subjects[b].id}\t"
                              f"{int(sc)}\n")
        finally:
            if executor is not None:
                executor.close()
    else:
        scores = bulk_max_scores(records_to_batch(queries),
                                 records_to_batch(subjects), scheme,
                                 word_bits=args.word_bits,
                                 chunk_size=args.chunk_size,
                                 workers=workers,
                                 recover=args.recover,
                                 max_retries=args.max_retries)
        for qr, sr, sc in zip(queries, subjects, scores):
            out.write(f"{qr.id}\t{sr.id}\t{int(sc)}\n")
    return 0


def _cmd_screen(args) -> int:
    queries, subjects = _load_sides(args)
    scheme = _scheme_from_args(args)
    workers = _workers_from_args(args)
    if args.all_vs_all:
        n_subjects = len(subjects)
        Q = records_to_batch(queries)
        S = records_to_batch(subjects)
        total = len(queries) * n_subjects
        hits = []  # (global pair index, ScreenHit)
        for qi, si in _iter_pair_chunks(len(queries), n_subjects,
                                        args.chunk_size):
            result = screen_pairs(Q[qi], S[si], args.threshold, scheme,
                                  word_bits=args.word_bits,
                                  workers=workers,
                                  recover=args.recover,
                                  max_retries=args.max_retries)
            base = int(qi[0]) * n_subjects + int(si[0])
            hits.extend((base + h.pair_index, h) for h in result.hits)
    else:
        result = screen_pairs(records_to_batch(queries),
                              records_to_batch(subjects),
                              args.threshold, scheme,
                              word_bits=args.word_bits,
                              chunk_size=args.chunk_size,
                              workers=workers,
                              recover=args.recover,
                              max_retries=args.max_retries)
        total = len(queries)
        hits = [(h.pair_index, h) for h in result.hits]
        n_subjects = 1
    print(f"{len(hits)} of {total} pairs exceed "
          f"tau={args.threshold} ({len(hits) / max(1, total):.1%})")
    for gp, hit in sorted(hits, key=lambda item: -item[1].score):
        if args.all_vs_all:
            qid = queries[gp // n_subjects].id
            sid = subjects[gp % n_subjects].id
        else:
            qid, sid = queries[gp].id, subjects[gp].id
        print(f"\n{qid} vs {sid}")
        print(format_alignment(hit.alignment))
    return 0


def _cmd_match(args) -> int:
    patterns = read_fasta(args.patterns)
    texts = read_fasta(args.texts)
    if len(patterns) != len(texts):
        raise SystemExit(
            f"error: {len(patterns)} patterns vs {len(texts)} texts"
        )
    X = records_to_batch(patterns)
    Y = records_to_batch(texts)
    P = len(patterns)
    XH, XL = encode_batch_bit_transposed(X, args.word_bits)
    YH, YL = encode_batch_bit_transposed(Y, args.word_bits)
    hits = bpbc_k_mismatch(XH, XL, YH, YL, args.k, args.word_bits)
    bits = unpack_lanes(hits, args.word_bits, count=P)  # (offsets, P)
    print("pattern\ttext\tk\toffsets")
    for p in range(P):
        offs = ",".join(str(j) for j in np.flatnonzero(bits[:, p]))
        print(f"{patterns[p].id}\t{texts[p].id}\t{args.k}\t"
              f"{offs or '-'}")
    return 0


def _cmd_experiments(args) -> int:
    from .experiments import main as exp_main

    argv = list(args.names)
    if args.fast:
        argv.append("--fast")
    return exp_main(argv)


def _cmd_serve(args) -> int:
    from .serve.server import AlignmentServer
    from .serve.service import AlignmentService

    service = AlignmentService(
        engine=args.engine, workers=args.workers,
        word_bits=args.word_bits, max_queue=args.max_queue,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        bin_granularity=args.bin_granularity,
        cache_size=args.cache_size,
        shard_workers=(args.shard_workers if args.shard_workers > 1
                       else None),
        resilience=args.resilient,
        max_retries=args.max_retries,
        slo_ms=args.slo_ms,
    )
    with service:
        server = AlignmentServer(service, host=args.host,
                                 port=args.port,
                                 default_scheme=_scheme_from_args(args))
        host, port = server.address
        print(f"serving on {host}:{port} "
              f"(engine={args.engine}, workers={args.workers}, "
              f"word_bits={args.word_bits}, "
              f"alphabet={args.alphabet}); Ctrl-C to stop",
              file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            print(service.stats.render(), file=sys.stderr)
    return 0


def _nodes_from_topology(path):
    """Topology file -> RemoteNode handles for already-running nodes."""
    from .cluster import RemoteNode, load_topology

    specs = load_topology(path)
    bad = [s.name for s in specs if s.port == 0]
    if bad:
        raise SystemExit(
            f"error: topology nodes {bad} have port 0 (ephemeral); "
            "connecting to running nodes needs concrete ports — "
            "use 'cluster serve' output, or pin ports in the file")
    return [RemoteNode(s.name, s.host, s.port) for s in specs]


def _cmd_cluster_serve(args) -> int:
    import time as _time

    from .cluster import LocalCluster, load_topology

    specs = load_topology(args.topology) if args.topology else None
    cluster = LocalCluster(specs, n=args.nodes)
    with cluster:
        resolved = {"nodes": []}
        for spec in cluster.specs:
            host, port = cluster.address(spec.name)
            resolved["nodes"].append(
                {"name": spec.name, "host": host, "port": port,
                 "engine": spec.engine, "workers": spec.workers})
            print(f"node {spec.name} serving on {host}:{port} "
                  f"(engine={spec.engine})", file=sys.stderr)
        # The resolved topology (concrete ports) goes to stdout so it
        # can be piped to a file for 'cluster route' / 'cluster status'.
        print(json.dumps(resolved, indent=2))
        sys.stdout.flush()
        print("cluster up; Ctrl-C to stop", file=sys.stderr)
        try:
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_cluster_route(args) -> int:
    from .cluster import ClusterCoordinator, LocalCluster

    queries = read_fasta(args.queries, ambiguous=args.ambiguous,
                         alphabet=args.alphabet)
    subjects = read_fasta(args.subjects, ambiguous=args.ambiguous,
                          alphabet=args.alphabet)
    if args.all_vs_all:
        index_pairs = [(a, b) for a in range(len(queries))
                       for b in range(len(subjects))]
    else:
        if len(queries) != len(subjects):
            raise SystemExit(
                f"error: {len(queries)} queries vs {len(subjects)} "
                "subjects; pairwise mode needs equal counts "
                "(or pass --all-vs-all)")
        index_pairs = list(zip(range(len(queries)),
                               range(len(subjects))))
    pairs = [(queries[a].sequence, subjects[b].sequence)
             for a, b in index_pairs]
    scheme = _scheme_from_args(args)

    def run(coordinator) -> int:
        scores = coordinator.score_batch(pairs, scheme,
                                         deadline_s=args.deadline_s)
        print("query\tsubject\tscore\towner")
        for (a, b), score in zip(index_pairs, scores):
            owner = coordinator.owners(queries[a].sequence,
                                       subjects[b].sequence,
                                       scheme)[0]
            print(f"{queries[a].id}\t{subjects[b].id}\t{score}\t"
                  f"{owner}")
        if args.status:
            print(json.dumps(coordinator.status(), indent=2),
                  file=sys.stderr)
        return 0

    if args.topology:
        with ClusterCoordinator(_nodes_from_topology(args.topology),
                                replication=args.replication) as coord:
            return run(coord)
    with LocalCluster(n=args.local) as cluster:
        with cluster.coordinator(replication=args.replication) as coord:
            return run(coord)


def _cmd_cluster_status(args) -> int:
    from .cluster import ClusterCoordinator

    with ClusterCoordinator(_nodes_from_topology(args.topology),
                            replication=args.replication) as coord:
        health = coord.probe_once()
        status = coord.status()
        status["healthy"] = health
        print(json.dumps(status, indent=2))
    return 0 if all(health.values()) else 1


def _cmd_index_build(args) -> int:
    from .index import build_index

    if args.shard_chars <= 0:
        raise SystemExit(
            f"error: --shard-chars must be positive, got "
            f"{args.shard_chars}")
    k = args.k if args.k is not None else \
        (16 if args.alphabet == "dna" else 6)
    records = iter_fasta(args.fasta, ambiguous=args.ambiguous,
                         alphabet=args.alphabet)
    idx = build_index(records, args.out, k=k,
                      w=args.minimizer_window,
                      shard_chars=args.shard_chars,
                      alphabet=args.alphabet)
    print(f"built {args.out}: {idx.n_entries} entries, "
          f"{idx.n_chars} chars in {idx.n_shards} shards "
          f"(k={idx.k}, w={idx.w})", file=sys.stderr)
    if args.verify:
        idx.verify()
        print("integrity check passed", file=sys.stderr)
    return 0


def _cmd_index_search(args) -> int:
    from .index import DatabaseIndex, TieredSearch

    workers = _workers_from_args(args)
    idx = DatabaseIndex.open(args.index)
    queries = read_fasta(args.queries, ambiguous=args.ambiguous,
                         alphabet=args.alphabet)
    searcher = TieredSearch(
        idx, scheme=_scheme_from_args(args),
        word_bits=args.word_bits, min_seeds=args.min_seeds,
        threshold=args.threshold, window=args.window,
        max_batch_pairs=args.chunk_size, workers=workers,
        resilient=args.recover, verify=args.verify)
    result = searcher.search([rec.sequence for rec in queries],
                             top_k=args.top_k, align=args.align)
    out = sys.stdout
    out.write("query\tentry\tdb_index\tscore\n")
    for hit in result.hits:
        out.write(f"{queries[hit.query_index].id}\t{hit.entry_id}\t"
                  f"{hit.db_index}\t{hit.score}\n")
    if args.align:
        for hit in result.hits:
            out.write(f"\n{queries[hit.query_index].id} vs "
                      f"{hit.entry_id} "
                      f"(entry chars {hit.alignment.y_start}.."
                      f"{hit.alignment.y_end})\n")
            out.write(format_alignment(hit.alignment) + "\n")
    if args.stats:
        print(result.stats.render(), file=sys.stderr)
    return 0


def _resolve_kernel(spec: str):
    """Resolve ``--kernel module:attr`` to a plan or kernel function."""
    import importlib

    mod_name, _, attr = spec.partition(":")
    if not mod_name or not attr:
        raise SystemExit(
            f"error: --kernel expects 'module:attr', got {spec!r}"
        )
    try:
        mod = importlib.import_module(mod_name)
        return getattr(mod, attr)
    except (ImportError, AttributeError) as exc:
        raise SystemExit(f"error: cannot resolve {spec!r}: {exc}")


def _cmd_analyze(args) -> int:
    from .analyze import (KernelLaunchPlan, Report, analyze_contracts,
                          analyze_kernels, analyze_netlists, analyze_plan,
                          analyze_prove, lint_kernel)

    report = Report()
    if args.kernel:
        for spec in args.kernel:
            target = _resolve_kernel(spec)
            if isinstance(target, KernelLaunchPlan):
                report.extend(analyze_plan(target))
            elif callable(target):
                report.extend(lint_kernel(target))
            else:
                raise SystemExit(
                    f"error: {spec!r} is neither a KernelLaunchPlan "
                    "nor a kernel function"
                )
    run_all = args.all or not (args.kernels or args.netlists
                               or args.kernel or args.contracts
                               or args.prove)
    if args.kernels or run_all:
        report.extend(analyze_kernels())
    if args.netlists or run_all:
        report.extend(analyze_netlists())
    if args.contracts or run_all:
        report.extend(analyze_contracts())
    if args.prove:
        report.extend(analyze_prove())
    if args.format == "json":
        print(report.to_json(verbose=args.verbose, indent=2))
    else:
        print(report.render(verbose=args.verbose))
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Bitwise Parallel Bulk Computation for "
                    "Smith-Waterman (IPDPS-W 2017 reproduction)",
    )
    parser.add_argument(
        "--fault-plan", metavar="PATH", default=None,
        help="run the command under a deterministic fault-injection "
             "plan (JSON file of seeded per-site rules; see "
             "docs/RESILIENCE.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="bulk-score FASTA pairs")
    p.add_argument("queries", help="FASTA file of query sequences")
    p.add_argument("subjects", help="FASTA file of subject sequences")
    p.add_argument("--all-vs-all", action="store_true",
                   help="cross every query with every subject")
    _add_scoring_args(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("screen",
                       help="threshold screening with alignments")
    p.add_argument("queries")
    p.add_argument("subjects")
    p.add_argument("--threshold", "-t", type=int, required=True,
                   help="report pairs scoring above this tau")
    p.add_argument("--all-vs-all", action="store_true")
    _add_scoring_args(p)
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("match", help="bulk (k-mismatch) string search")
    p.add_argument("patterns", help="FASTA file of patterns")
    p.add_argument("texts", help="FASTA file of texts")
    p.add_argument("-k", type=int, default=0,
                   help="allowed mismatches (default 0 = exact)")
    p.add_argument("--word-bits", type=int, default=64,
                   choices=(8, 16, 32, 64))
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("experiments",
                       help="regenerate the paper's tables/figures")
    p.add_argument("names", nargs="*", default=[])
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser(
        "index",
        help="build and search an on-disk tiered index "
             "(see docs/SEARCH.md)")
    isub = p.add_subparsers(dest="index_command", required=True)

    pb = isub.add_parser("build",
                         help="stream FASTA into a sharded index")
    pb.add_argument("fasta", help="FASTA file of database sequences")
    pb.add_argument("out", help="index directory to create")
    pb.add_argument("--k", type=int, default=None,
                    help="k-mer size for the minimizer seeds "
                         "(default 16 for DNA, 6 for protein)")
    pb.add_argument("--minimizer-window", type=int, default=8,
                    metavar="W",
                    help="k-mers per minimizer window (default 8)")
    pb.add_argument("--shard-chars", type=int, default=1 << 24,
                    help="characters per shard; bounds peak memory of "
                         "build and search (default 16Mi)")
    pb.add_argument("--alphabet", choices=("dna", "protein"),
                    default="dna",
                    help="database alphabet (default dna)")
    pb.add_argument("--ambiguous", default="strict",
                    choices=("strict", "replace", "mask", "skip"),
                    help="ambiguity-code policy (default strict = "
                         "reject; mask rewrites protein B/Z/J to X)")
    pb.add_argument("--verify", action="store_true",
                    help="CRC-check every shard after writing")
    pb.set_defaults(func=_cmd_index_build)

    ps = isub.add_parser(
        "search",
        help="three-tier search: minimizer prefilter -> BPBC screen "
             "-> traceback")
    ps.add_argument("index", help="index directory (from 'index build')")
    ps.add_argument("queries", help="FASTA file of query sequences")
    ps.add_argument("--threshold", "-t", type=int, default=0,
                    help="report entries scoring strictly above this "
                         "tau (default 0)")
    ps.add_argument("--min-seeds", type=int, default=1,
                    help="minimum shared minimizers for an entry to "
                         "be screened (default 1; 0 = exact brute "
                         "force)")
    ps.add_argument("--window", type=int, default=None,
                    help="tier-1 text window chars (default: sized "
                         "from the longest query; too-small values "
                         "are an error)")
    ps.add_argument("--top-k", type=int, default=None,
                    help="keep only the best K hits per query")
    ps.add_argument("--no-align", dest="align", action="store_false",
                    help="skip tier-2 tracebacks (scores only)")
    ps.add_argument("--stats", action="store_true",
                    help="print per-tier survivor counts and "
                         "wall-clock to stderr")
    ps.add_argument("--verify", action="store_true",
                    help="CRC-check each shard while searching")
    _add_scoring_args(ps)
    ps.set_defaults(func=_cmd_index_search)

    p = sub.add_parser(
        "serve",
        help="run the micro-batching alignment server "
             "(client: python -m repro.serve.client)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421,
                   help="TCP port (0 = ephemeral; default 7421)")
    p.add_argument("--engine", default="bpbc",
                   choices=(*ENGINES, "resilient"),
                   help="scoring backend (default bpbc; resilient "
                        "scores through the engine fallback chain)")
    p.add_argument("--workers", type=int, default=2,
                   help="engine worker threads (default 2)")
    p.add_argument("--shard-workers", type=int, default=1,
                   help="shard each batch across this many processes "
                        "(bpbc/numpy engines; default 1 = off)")
    p.add_argument("--word-bits", type=int, default=64,
                   choices=(8, 16, 32, 64))
    p.add_argument("--max-queue", type=int, default=1024,
                   help="pending-request bound; beyond it submissions "
                        "are rejected (default 1024)")
    p.add_argument("--max-batch", type=int, default=None,
                   help="lanes per micro-batch (default: word bits)")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="latency trigger for partial batches "
                        "(default 2 ms)")
    p.add_argument("--bin-granularity", type=int, default=16,
                   help="length-bin rounding; sequences padded by < "
                        "this many sentinel positions (default 16)")
    p.add_argument("--cache-size", type=int, default=4096,
                   help="result-cache entries, 0 disables "
                        "(default 4096)")
    p.add_argument("--resilient", action="store_true",
                   help="attach the engine fallback chain: batches the "
                        "primary engine fails are rescored instead of "
                        "failed, breaker state shows in stats")
    p.add_argument("--max-retries", type=int, default=1,
                   help="rescue retries per failed batch "
                        "(default 1; needs --resilient)")
    p.add_argument("--slo-ms", type=float, default=None,
                   help="latency SLO in ms: enables the adaptive "
                        "scheduler (admission control, batch shaping, "
                        "shard-width hints; default off)")
    p.add_argument("--match", type=int, default=2,
                   help="default-scheme match score (default 2)")
    p.add_argument("--mismatch", type=int, default=1,
                   help="default-scheme mismatch penalty (default 1)")
    p.add_argument("--gap", type=int, default=1,
                   help="default-scheme linear gap penalty (default 1)")
    _add_alphabet_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "cluster",
        help="multi-node serving: boot a local cluster, route "
             "batches with failover, or probe node health")
    csub = p.add_subparsers(dest="cluster_command", required=True)

    pc = csub.add_parser(
        "serve",
        help="spawn serve nodes from a topology (or N ephemeral "
             "nodes) and keep them up; resolved topology JSON goes "
             "to stdout")
    pc.add_argument("--topology", default=None,
                    help="TOML/JSON topology file (default: --nodes "
                         "ephemeral bpbc nodes)")
    pc.add_argument("--nodes", type=int, default=3,
                    help="node count when no topology file is given "
                         "(default 3)")
    pc.set_defaults(func=_cmd_cluster_serve)

    pc = csub.add_parser(
        "route",
        help="score FASTA pairs through a coordinator with "
             "consistent-hash routing and node failover (TSV out)")
    pc.add_argument("queries", help="FASTA file of query sequences")
    pc.add_argument("subjects", help="FASTA file of subjects")
    pc.add_argument("--topology", default=None,
                    help="connect to running nodes from this "
                         "topology file (concrete ports)")
    pc.add_argument("--local", type=int, default=3,
                    help="without --topology: spawn this many "
                         "transient local nodes (default 3)")
    pc.add_argument("--all-vs-all", action="store_true",
                    help="cross every query with every subject")
    pc.add_argument("--replication", type=int, default=2,
                    help="preferred owners per cache key (default 2)")
    pc.add_argument("--deadline-s", type=float, default=30.0,
                    help="per-batch reroute budget before degrading "
                         "to the in-process fallback (default 30)")
    pc.add_argument("--status", action="store_true",
                    help="print cluster stats JSON to stderr after")
    pc.add_argument("--match", type=int, default=2,
                    help="match score c1 (default 2)")
    pc.add_argument("--mismatch", type=int, default=1,
                    help="mismatch penalty c2 (default 1)")
    pc.add_argument("--gap", type=int, default=1,
                    help="linear gap penalty (default 1)")
    _add_alphabet_args(pc)
    pc.set_defaults(func=_cmd_cluster_route)

    pc = csub.add_parser(
        "status",
        help="probe every node in a topology and print the "
             "cluster + per-node stats snapshot (exit 1 if any "
             "node is unhealthy)")
    pc.add_argument("--topology", required=True,
                    help="TOML/JSON topology file (concrete ports)")
    pc.add_argument("--replication", type=int, default=2,
                    help="preferred owners per cache key (default 2)")
    pc.set_defaults(func=_cmd_cluster_status)

    p = sub.add_parser(
        "analyze",
        help="race-detect, lint, and verify kernels and netlists")
    p.add_argument("--kernels", action="store_true",
                   help="lint + race-trace the shipped kernels")
    p.add_argument("--netlists", action="store_true",
                   help="verify SW-cell netlists against the op-count "
                        "table")
    p.add_argument("--contracts", action="store_true",
                   help="lint cross-layer contracts (fault-site "
                        "literals vs the catalogue)")
    p.add_argument("--prove", action="store_true",
                   help="exhaustively prove every shipped cell netlist "
                        "bit-exact against the scalar reference at "
                        "small widths, and the score_bits pairings "
                        "overflow-sound (seconds; not part of --all)")
    p.add_argument("--all", action="store_true",
                   help="run every fast pass — kernels, netlists, "
                        "contracts (default when no flag given)")
    p.add_argument("--kernel", action="append", default=[],
                   metavar="MODULE:ATTR",
                   help="analyze a specific kernel function or "
                        "KernelLaunchPlan (repeatable)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--verbose", action="store_true", default=True,
                   help="print notes as well as findings (default)")
    p.add_argument("--quiet", dest="verbose", action="store_false",
                   help="print only errors and warnings")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.fault_plan is None:
        return args.func(args)
    # Chaos mode: the whole command runs under the installed plan
    # (shard executors forward it into their worker processes).
    from .resilience.faults import FaultPlan

    with FaultPlan.from_file(args.fault_plan):
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
