"""EngineFallbackChain: demotion, breakers, self-test gate, service.

The contract under test: a batch scored through the chain is either
bit-identical to the fault-free wordwise reference, or fails with a
typed :class:`FallbackExhaustedError` — never a silent wrong score.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience.errors import (FallbackExhaustedError,
                                     SelfTestError)
from repro.resilience import fallback
from repro.resilience.fallback import (DEFAULT_CHAIN, KAT_EXPECTED, KAT_X,
                                       KAT_Y, EngineFallbackChain,
                                       engine_available)
from repro.resilience.faults import SITES, FaultPlan, InjectedFault
from repro.swa.numpy_batch import sw_batch_max_scores
from repro.swa.scoring import DEFAULT_SCHEME


def _batch(rng, pairs=8, m=20, n=24):
    X = rng.integers(0, 4, size=(pairs, m)).astype(np.uint8)
    Y = rng.integers(0, 4, size=(pairs, n)).astype(np.uint8)
    return X, Y


def _multi_engine_chain(**kwargs):
    chain = EngineFallbackChain(**kwargs)
    if len(chain.engines) < 2:
        pytest.skip("needs at least two available engines")
    return chain


class TestKnownAnswerTest:
    def test_kat_expectation_matches_wordwise_reference(self):
        # The hardcoded KAT_EXPECTED scores are verified here against
        # the wordwise NumPy reference (fallback.py points at this
        # test): the KAT itself must never recompute its expectation.
        ref = sw_batch_max_scores(KAT_X, KAT_Y, DEFAULT_SCHEME)
        assert tuple(int(v) for v in ref) == KAT_EXPECTED

    def test_interpreted_engines_always_pass(self):
        # generic and numpy have no toolchain dependency: on every
        # machine the chain must keep at least these two engines.
        assert engine_available("generic")
        assert engine_available("numpy")

    def test_wrong_engine_raises_loudly(self, monkeypatch):
        # An engine that is up but *wrong* must raise, not be dropped:
        # silently losing a wrong engine would hide a real bug.
        def off_by_one(X, Y, scheme, word_bits):
            return sw_batch_max_scores(X, Y, scheme) + 1

        monkeypatch.setattr(fallback, "DEFAULT_CHAIN",
                            DEFAULT_CHAIN[:-1] + (("numpy", off_by_one),))
        with pytest.raises(SelfTestError) as excinfo:
            engine_available("numpy")
        assert excinfo.value.engine == "numpy"
        assert excinfo.value.expected == KAT_EXPECTED

    def test_construction_under_fault_drops_and_reports(self):
        with FaultPlan.single("engine.generic.fail"):
            chain = EngineFallbackChain(engines=("generic", "numpy"))
        assert chain.engines == ("numpy",)
        assert "generic" in chain.dropped
        assert chain.states()["generic"]["state"] == "dropped"

    def test_no_surviving_engine_raises_typed(self):
        plan = FaultPlan([{"site": "engine.generic.fail"},
                          {"site": "engine.numpy.fail"}])
        with plan:
            with pytest.raises(FallbackExhaustedError):
                EngineFallbackChain(engines=("generic", "numpy"))

    def test_chain_validation(self):
        with pytest.raises(ValueError, match="unknown resilience"):
            EngineFallbackChain(engines=("generic", "turbo"))
        with pytest.raises(ValueError, match="must not be empty"):
            EngineFallbackChain(engines=())

    def test_every_rung_has_a_catalogued_fault_site(self):
        # The chaos suite fails each rung through its own
        # engine.<rung>.fail site: rung names and catalogued engine
        # sites must match in both directions.
        rung_sites = {f"engine.{name}.fail" for name, _ in DEFAULT_CHAIN}
        engine_sites = {s for s in SITES if s.startswith("engine.")}
        assert rung_sites == engine_sites


class TestDemotion:
    def test_primary_fault_demotes_bit_identically(self, rng):
        # Build the chain *before* installing the plan so the primary
        # passes its self-test and the fault hits at score time.
        chain = _multi_engine_chain()
        primary = chain.engines[0]
        X, Y = _batch(rng)
        expected = sw_batch_max_scores(X, Y, DEFAULT_SCHEME)
        with FaultPlan.single(f"engine.{primary}.fail"):
            scores, engine = chain.score(X, Y)
        assert engine != primary
        assert engine in chain.engines
        assert np.array_equal(scores, expected)
        assert chain.fallback_batches == 1
        assert chain.scored_batches == 1

    def test_transient_fault_heals_back_to_primary(self, rng):
        chain = _multi_engine_chain(failure_threshold=3)
        primary = chain.engines[0]
        X, Y = _batch(rng, pairs=4, m=12, n=12)
        with FaultPlan.single(f"engine.{primary}.fail", times=1):
            _, first = chain.score(X, Y)
            _, second = chain.score(X, Y)
        assert first != primary   # fault fired once
        assert second == primary  # breaker still closed: healed

    def test_breaker_opens_and_sheds_calls(self, rng):
        chain = _multi_engine_chain(failure_threshold=2)
        primary = chain.engines[0]
        site = f"engine.{primary}.fail"
        X, Y = _batch(rng, pairs=4, m=12, n=12)
        expected = sw_batch_max_scores(X, Y, DEFAULT_SCHEME)
        plan = FaultPlan.single(site)
        with plan:
            for _ in range(3):
                scores, engine = chain.score(X, Y)
                assert engine != primary
                assert np.array_equal(scores, expected)
        # Two failures opened the breaker; the third batch was shed
        # without even calling the engine — the site fired only twice.
        assert chain.breakers[primary].state == "open"
        assert plan.fire_counts()[site] == 2
        assert chain.active_engine != primary

    def test_all_engines_faulted_raises_typed_attempts(self, rng):
        chain = EngineFallbackChain()
        plan = FaultPlan([{"site": f"engine.{name}.fail"}
                          for name in chain.engines])
        X, Y = _batch(rng, pairs=4, m=12, n=12)
        with plan:
            with pytest.raises(FallbackExhaustedError) as excinfo:
                chain.score(X, Y)
        attempts = excinfo.value.attempts
        assert set(attempts) == set(chain.engines)
        assert all(isinstance(exc, InjectedFault)
                   for exc in attempts.values())

    def test_last_engine_fault_exhausts_single_engine_chain(self, rng):
        # numpy is the chain's floor: with nothing below it, its
        # fault must surface as typed exhaustion, not a wrong score.
        chain = EngineFallbackChain(engines=("numpy",), self_test=False)
        X, Y = _batch(rng, pairs=4, m=12, n=12)
        with FaultPlan.single("engine.numpy.fail"):
            with pytest.raises(FallbackExhaustedError) as excinfo:
                chain.score(X, Y)
        assert isinstance(excinfo.value.attempts["numpy"], InjectedFault)


class TestServiceIntegration:
    """The issue's acceptance scenario: an AlignmentService whose
    primary engine permanently fails completes every request on the
    fallback bit-identically, with breaker state visible in stats."""

    def test_permanent_primary_fault_completes_batch(self, rng):
        from repro.serve import AlignmentService

        chain = _multi_engine_chain(failure_threshold=2)
        primary = chain.engines[0]
        X, Y = _batch(rng, pairs=12, m=16, n=16)
        expected = sw_batch_max_scores(X, Y, DEFAULT_SCHEME)
        with FaultPlan.single(f"engine.{primary}.fail"):
            with AlignmentService(engine="resilient", resilience=chain,
                                  workers=2, max_wait_ms=1.0,
                                  max_batch=4,
                                  cache_size=0) as service:
                # max_batch=4 slices the 12 pairs into >= 3 chain
                # calls, enough to trip failure_threshold=2.
                futures = [service.submit(X[p], Y[p])
                           for p in range(X.shape[0])]
                scores = [f.result(timeout=60).score for f in futures]
            snap = service.stats.snapshot()
        assert scores == [int(v) for v in expected]
        resilience = snap["resilience"]
        assert resilience["breakers"][primary]["state"] == "open"
        assert resilience["active_engine"] != primary
        assert resilience["chain_fallback_batches"] >= 1

    def test_failing_engine_rescued_via_chain(self):
        from repro.serve import AlignmentService

        def broken_engine(X, Y, scheme, word_bits):
            raise RuntimeError("primary engine down")

        with AlignmentService(engine=broken_engine, resilience=True,
                              workers=1, max_wait_ms=1.0,
                              cache_size=0) as service:
            futures = [service.submit("ACGTACGT", "ACGTACGT")
                       for _ in range(4)]
            scores = [f.result(timeout=60).score for f in futures]
            snap = service.stats.snapshot()
        assert scores == [16] * 4  # 8 matches x +2, bit-identical
        assert snap["requests_recovered"] == 4
        assert sum(snap["recovered_by_engine"].values()) == 4
        assert snap["requests_failed"] == 0
