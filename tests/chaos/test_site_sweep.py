"""One chaos scenario per registered fault site — no site untested.

``SCENARIOS`` maps every name in :data:`repro.resilience.faults.SITES`
to a scenario asserting the suite-wide contract: under the injected
fault the caller gets either results bit-identical to a fault-free
run, or a *typed* error naming what failed — never a silent wrong
score.  A completeness test pins ``set(SCENARIOS) == set(SITES)`` so
adding a site without a chaos scenario fails CI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience.errors import (BulkRecoveryError,
                                     FallbackExhaustedError)
from repro.resilience.faults import SITES, FaultPlan, InjectedFault
from repro.resilience.fallback import EngineFallbackChain
from repro.resilience.recovery import shard_scores_with_recovery
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.scoring import DEFAULT_SCHEME


def _batch(rng, pairs=8, m=16, n=16):
    X = rng.integers(0, 4, size=(pairs, m)).astype(np.uint8)
    Y = rng.integers(0, 4, size=(pairs, n)).astype(np.uint8)
    return X, Y


# -- shard.worker.* ----------------------------------------------------

def _pool_or_skip():
    from repro.shard.executor import ShardExecutor

    with ShardExecutor(workers=2) as ex:
        if ex.in_process:
            pytest.skip("requires a multiprocessing pool")


def _shard_recovers(rng, site, *, times=None, timeout_s=None):
    """Fault a pool worker; the recovered scores must be bit-identical
    to the fault-free reference (recovery rescored lost shards on the
    in-process fallback chain)."""
    _pool_or_skip()
    X, Y = _batch(rng, pairs=8)
    expected = sw_batch_max_scores(X, Y, DEFAULT_SCHEME)
    with FaultPlan.single(site, times=times):
        got = shard_scores_with_recovery(X, Y, workers=2,
                                         max_shard_pairs=4,
                                         timeout_s=timeout_s)
    assert np.array_equal(got, expected)


def _scenario_worker_crash(rng, seed):
    _shard_recovers(rng, "shard.worker.crash", times=1, timeout_s=3.0)


def _scenario_worker_hang(rng, seed):
    _shard_recovers(rng, "shard.worker.hang", times=1, timeout_s=1.0)


def _scenario_worker_error(rng, seed):
    # Permanent: every shard raises in-worker, all pairs recovered.
    _shard_recovers(rng, "shard.worker.error", timeout_s=10.0)


def _scenario_worker_slow(rng, seed):
    # Slowdown must never change scores; with a generous deadline the
    # run completes normally and needs no recovery at all.
    _shard_recovers(rng, "shard.worker.slow", timeout_s=30.0)


def _scenario_sched_mispredict(rng, seed):
    from repro.serve import AdmissionRejected, AlignmentService
    from repro.swa.sequential import sw_matrix

    pairs = [("ACGTACGTACGT", "TGCACGTATGCA") for _ in range(4)]
    service = AlignmentService(workers=1, max_wait_ms=1.0,
                               slo_ms=250.0, cache_size=0)
    service.start()
    try:
        with FaultPlan.single("serve.sched.mispredict"):
            for q, s in pairs:
                try:
                    result = service.align(q, s)
                except AdmissionRejected:
                    # The inflated estimate turned admission
                    # conservative — load was shed with a typed error,
                    # not scored wrongly.
                    continue
                # Admitted requests still score bit-identically.
                assert result.score == sw_matrix(
                    q, s, DEFAULT_SCHEME).max()
    finally:
        service.stop()


# -- serve.sock.* ------------------------------------------------------

def _served():
    from repro.serve import AlignmentServer, AlignmentService

    service = AlignmentService(workers=1, max_wait_ms=1.0)
    try:
        service.start()
        server = AlignmentServer(service, host="127.0.0.1", port=0)
    except OSError as exc:  # pragma: no cover - sandboxed environments
        service.stop()
        pytest.skip(f"cannot bind localhost sockets here: {exc}")
    return service, server


def _scenario_sock_drop(rng, seed):
    from repro.serve.client import ClientError, ServeClient

    service, server = _served()
    with server:
        host, port = server.address
        with FaultPlan.single("serve.sock.drop"):
            with ServeClient(host, port) as client:
                with pytest.raises(ClientError) as excinfo:
                    client.align("ACGTACGT", "ACGTACGT")
    service.stop()
    # A dropped connection is a clean EOF on a frame boundary — the
    # client reports the typed "closed" kind, never a partial score.
    assert excinfo.value.kind == "closed"


def _scenario_sock_truncate(rng, seed):
    from repro.serve.client import ServeClient
    from repro.serve.errors import ServeProtocolError

    service, server = _served()
    with server:
        host, port = server.address
        with FaultPlan.single("serve.sock.truncate"):
            with ServeClient(host, port) as client:
                with pytest.raises(ServeProtocolError) as excinfo:
                    client.align("ACGTACGT", "ACGTACGT")
    service.stop()
    # Half a frame arrived: the error names how many bytes did.
    assert excinfo.value.bytes_read > 0


# -- jit.cc.* ----------------------------------------------------------

def _jit_fault(site):
    from repro.jit import JitError, cc_available
    from repro.jit import cbackend, cells

    if not cc_available():
        pytest.skip("no C compiler on this machine")
    args = (4, 1, 2, 1, 2, 64)
    # Both dispatch caches would satisfy the call before the injection
    # site is reached; clear them (and clear again afterwards so the
    # faulted lowering never leaks into other tests).
    cells._step_cached.cache_clear()
    cbackend._libs.clear()
    try:
        with FaultPlan.single(site):
            step = cells.sw_wavefront_step(*args, backend="auto")
            assert step.backend == "numpy"  # demoted, bit-identical
        cells._step_cached.cache_clear()
        with FaultPlan.single(site):
            with pytest.raises(JitError, match=site):
                cells.sw_wavefront_step(*args, backend="c")
    finally:
        cells._step_cached.cache_clear()
        cbackend._libs.clear()


def _scenario_cc_compile(rng, seed):
    _jit_fault("jit.cc.compile")


def _scenario_cc_load(rng, seed):
    _jit_fault("jit.cc.load")


# -- gpusim ------------------------------------------------------------

def _scenario_gpusim_memory(rng, seed):
    from repro.gpusim.errors import MemoryFault
    from repro.gpusim.memory import GlobalMemory

    gmem = GlobalMemory()
    gmem.alloc("scores", 8, np.int64)
    with FaultPlan.single("gpusim.memory.fault", times=2):
        with pytest.raises(MemoryFault, match="gpusim.memory.fault"):
            gmem.store("scores", 0, 7)
        with pytest.raises(MemoryFault, match="gpusim.memory.fault"):
            gmem.load("scores", 0)
    # The fault never silently corrupted the buffer.
    assert gmem.load("scores", 0) == 0


# -- index.* -----------------------------------------------------------

def _tiny_index(rng, tmp):
    from repro.index.store import build_index
    from repro.workloads.dna import random_strand

    entries = [random_strand(rng, int(n))
               for n in rng.integers(100, 300, size=8)]
    query = random_strand(rng, 24)
    entries[3][20:44] = query
    idx = build_index(((f"e{i}", s) for i, s in enumerate(entries)),
                      tmp / "idx", k=8, w=4, shard_chars=600)
    return idx, query


def _scenario_index_shard_open(rng, seed):
    import tempfile
    from pathlib import Path

    from repro.index.store import IndexIntegrityError

    with tempfile.TemporaryDirectory() as tmp:
        idx, _ = _tiny_index(rng, Path(tmp))
        with FaultPlan.single("index.shard.open", times=1):
            with pytest.raises(IndexIntegrityError,
                               match="index.shard.open"):
                idx.open_shard(0)
            # times=1 spent: the same shard opens cleanly afterwards.
            idx.open_shard(0).close()


def _scenario_index_shard_verify(rng, seed):
    import tempfile
    from pathlib import Path

    from repro.index.store import IndexIntegrityError

    with tempfile.TemporaryDirectory() as tmp:
        idx, _ = _tiny_index(rng, Path(tmp))
        with FaultPlan.single("index.shard.verify", times=1):
            with pytest.raises(IndexIntegrityError,
                               match="index.shard.verify"):
                idx.verify()
        # The reported corruption was injected, not real: a clean
        # re-verify of the untouched files passes.
        idx.verify()


def _scenario_index_tier1_screen(rng, seed):
    import tempfile
    from pathlib import Path

    from repro.index.search import TieredSearch

    with tempfile.TemporaryDirectory() as tmp:
        idx, query = _tiny_index(rng, Path(tmp))
        search = TieredSearch(idx, scheme=DEFAULT_SCHEME, min_seeds=1,
                              threshold=20, resilient=True)
        clean = search.search([query], align=False)
        with FaultPlan.single("index.tier1.screen", times=1):
            hit = search.search([query], align=False)
        # Rescued on the fallback chain: bit-identical hits, and the
        # stats name the rescue so operators can see it happened.
        assert ([(h.db_index, h.score) for h in hit.hits]
                == [(h.db_index, h.score) for h in clean.hits])
        assert any("rescued" in e for e in hit.stats.engine_batches)
        # Non-resilient searches surface the typed fault instead.
        brittle = TieredSearch(idx, scheme=DEFAULT_SCHEME, min_seeds=1,
                               threshold=20, resilient=False)
        with FaultPlan.single("index.tier1.screen", times=1):
            with pytest.raises(InjectedFault):
                brittle.search([query], align=False)


def _scenario_index_tier2_align(rng, seed):
    import tempfile
    from pathlib import Path

    from repro.index.search import TieredSearch

    with tempfile.TemporaryDirectory() as tmp:
        idx, query = _tiny_index(rng, Path(tmp))
        search = TieredSearch(idx, scheme=DEFAULT_SCHEME, min_seeds=1,
                              threshold=20)
        clean = search.search([query])
        with FaultPlan.single("index.tier2.align", times=1):
            hit = search.search([query])
        # One transient alignment failure is absorbed by the retry.
        assert ([(h.db_index, h.score, h.alignment.aligned_x)
                 for h in hit.hits]
                == [(h.db_index, h.score, h.alignment.aligned_x)
                    for h in clean.hits])
        # A permanent fault exhausts the retry and propagates typed.
        with FaultPlan.single("index.tier2.align"):
            with pytest.raises(InjectedFault):
                search.search([query])


# -- cluster.* ---------------------------------------------------------

_CLUSTER_PAIRS = [("ACGTACGT", "ACGTTGCA"), ("GATTACA", "GATTACA"),
                  ("AAAACCCC", "AAAATCCC"), ("ACACACAC", "CACACACA")]


def _cluster_nodes(stack, n=3):
    """n in-process serve nodes (threads, ephemeral ports) registered
    for teardown on the ExitStack; skips where sockets are refused."""
    from repro.cluster import RemoteNode

    nodes = []
    for i in range(n):
        service, server = _served()
        stack.enter_context(server)
        stack.callback(service.stop)
        host, port = server.address
        nodes.append(RemoteNode(f"n{i}", host, port))
    return nodes


def _cluster_expected():
    from repro.swa.sequential import sw_matrix

    return [int(sw_matrix(q, s, DEFAULT_SCHEME).max())
            for q, s in _CLUSTER_PAIRS]


def _cluster_recovers(site, *, times=1):
    """Fault the cluster path; scores must stay bit-identical to the
    scalar reference.  Returns the coordinator for counter checks."""
    from contextlib import ExitStack

    from repro.cluster import ClusterCoordinator

    expected = _cluster_expected()
    with ExitStack() as stack:
        nodes = _cluster_nodes(stack, 3)
        coord = ClusterCoordinator(nodes, deadline_s=20.0)
        with FaultPlan.single(site, times=times):
            got = coord.score_batch(_CLUSTER_PAIRS)
    assert list(got) == expected
    return coord


def _scenario_cluster_connect(rng, seed):
    # A refused connect reroutes the whole group to a replica.
    coord = _cluster_recovers("cluster.node.connect", times=1)
    assert coord.status()["cluster"]["rerouted"] >= 1


def _scenario_cluster_drop(rng, seed):
    # The connection dies after requests were written; the retry
    # reuses its request IDs, so work that landed is replayed (from
    # the idempotency index) rather than scored twice.
    coord = _cluster_recovers("cluster.node.drop", times=1)
    assert coord.status()["cluster"]["rerouted"] >= 1


def _scenario_cluster_probe_flap(rng, seed):
    # A lying health probe may open a breaker — capacity shrinks, but
    # the next batch still scores bit-identically on the other nodes.
    from contextlib import ExitStack

    from repro.cluster import ClusterCoordinator

    expected = _cluster_expected()
    with ExitStack() as stack:
        nodes = _cluster_nodes(stack, 3)
        coord = ClusterCoordinator(nodes, deadline_s=20.0)
        with FaultPlan.single("cluster.probe.flap", times=1):
            health = coord.probe_once()
        assert sum(1 for ok in health.values() if not ok) == 1
        got = coord.score_batch(_CLUSTER_PAIRS)
    assert list(got) == expected


def _scenario_cluster_route_mispick(rng, seed):
    # Permanent mispick: every pair routes to a non-owner.  Only cache
    # locality may suffer; the scores cannot.
    coord = _cluster_recovers("cluster.route.mispick", times=None)
    assert coord.status()["cluster"]["mispicks"] == len(_CLUSTER_PAIRS)


# -- engine.*.fail -----------------------------------------------------

def _engine_demotes(rng, name):
    chain = EngineFallbackChain()
    if name not in chain.engines:
        pytest.skip(f"engine {name!r} unavailable on this machine")
    if len(chain.engines) < 2:
        pytest.skip("needs a second engine to demote to")
    X, Y = _batch(rng)
    expected = sw_batch_max_scores(X, Y, DEFAULT_SCHEME)
    with FaultPlan.single(f"engine.{name}.fail"):
        scores, engine = chain.score(X, Y)
    assert engine != name
    assert np.array_equal(scores, expected)


def _scenario_engine_compiled_c(rng, seed):
    _engine_demotes(rng, "compiled-c")


def _scenario_engine_compiled_numpy(rng, seed):
    _engine_demotes(rng, "compiled-numpy")


def _scenario_engine_generic(rng, seed):
    _engine_demotes(rng, "generic")


def _scenario_engine_numpy(rng, seed):
    # numpy is the floor of the default chain: a demotion test would
    # never reach it, so fault it alone and require typed exhaustion.
    chain = EngineFallbackChain(engines=("numpy",), self_test=False)
    X, Y = _batch(rng, pairs=4, m=12, n=12)
    with FaultPlan.single("engine.numpy.fail"):
        with pytest.raises(FallbackExhaustedError) as excinfo:
            chain.score(X, Y)
    assert isinstance(excinfo.value.attempts["numpy"], InjectedFault)


SCENARIOS = {
    "cluster.node.connect": _scenario_cluster_connect,
    "cluster.node.drop": _scenario_cluster_drop,
    "cluster.probe.flap": _scenario_cluster_probe_flap,
    "cluster.route.mispick": _scenario_cluster_route_mispick,
    "engine.compiled-c.fail": _scenario_engine_compiled_c,
    "engine.compiled-numpy.fail": _scenario_engine_compiled_numpy,
    "engine.generic.fail": _scenario_engine_generic,
    "engine.numpy.fail": _scenario_engine_numpy,
    "gpusim.memory.fault": _scenario_gpusim_memory,
    "index.shard.open": _scenario_index_shard_open,
    "index.shard.verify": _scenario_index_shard_verify,
    "index.tier1.screen": _scenario_index_tier1_screen,
    "index.tier2.align": _scenario_index_tier2_align,
    "jit.cc.compile": _scenario_cc_compile,
    "jit.cc.load": _scenario_cc_load,
    "serve.sched.mispredict": _scenario_sched_mispredict,
    "serve.sock.drop": _scenario_sock_drop,
    "serve.sock.truncate": _scenario_sock_truncate,
    "shard.worker.crash": _scenario_worker_crash,
    "shard.worker.hang": _scenario_worker_hang,
    "shard.worker.slow": _scenario_worker_slow,
    "shard.worker.error": _scenario_worker_error,
}


def test_every_registered_site_has_a_scenario():
    assert set(SCENARIOS) == set(SITES)


@pytest.mark.parametrize("site", sorted(SITES))
def test_site(site, rng, chaos_seed):
    SCENARIOS[site](rng, chaos_seed)


def test_unrecoverable_loss_names_every_pair(rng):
    """Workers *and* every chain engine faulted: the caller must get a
    typed BulkRecoveryError naming the lost pair indices — the one
    case where nothing can hide the loss behind a wrong score."""
    _pool_or_skip()
    # Build the chain before the plan so construction self-tests pass.
    chain = EngineFallbackChain()
    X, Y = _batch(rng, pairs=8)
    plan = FaultPlan([{"site": "shard.worker.error"}]
                     + [{"site": f"engine.{name}.fail"}
                        for name in chain.engines])
    with plan:
        with pytest.raises(BulkRecoveryError) as excinfo:
            shard_scores_with_recovery(X, Y, workers=2,
                                       max_shard_pairs=4,
                                       timeout_s=10.0, chain=chain)
    assert excinfo.value.pair_indices == tuple(range(8))


def test_protein_scheme_demotes_bit_identically(rng):
    """A protein (substitution-matrix, affine) scheme rides the same
    fallback chain: faulting the top engine demotes, and the recovered
    scores stay bit-identical to the scalar Gotoh reference."""
    from repro.core.matrices import BLOSUM62
    from repro.core.protein import (ProteinScheme,
                                    subst_gotoh_batch_max_scores)

    chain = EngineFallbackChain()
    if len(chain.engines) < 2:
        pytest.skip("needs a second engine to demote to")
    scheme = ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1)
    X = rng.integers(0, 20, size=(8, 16)).astype(np.uint8)
    Y = rng.integers(0, 20, size=(8, 16)).astype(np.uint8)
    expected = subst_gotoh_batch_max_scores(X, Y, scheme)
    top = chain.engines[0]
    with FaultPlan.single(f"engine.{top}.fail"):
        scores, engine = chain.score(X, Y, scheme=scheme)
    assert engine != top
    assert np.array_equal(scores, expected)


def test_protein_scheme_numpy_floor_is_gotoh(rng):
    """The chain's wordwise floor must dispatch protein schemes to the
    substitution Gotoh reference, not the DNA match/mismatch engine."""
    from repro.core.matrices import PAM250
    from repro.core.protein import (ProteinScheme,
                                    subst_gotoh_batch_max_scores)

    chain = EngineFallbackChain(engines=("numpy",), self_test=False)
    scheme = ProteinScheme(PAM250, gap_open=10, gap_extend=2)
    X = rng.integers(0, 20, size=(4, 12)).astype(np.uint8)
    Y = rng.integers(0, 20, size=(4, 12)).astype(np.uint8)
    scores, engine = chain.score(X, Y, scheme=scheme)
    assert engine == "numpy"
    assert np.array_equal(scores,
                          subst_gotoh_batch_max_scores(X, Y, scheme))
