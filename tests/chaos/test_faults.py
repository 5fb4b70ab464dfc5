"""FaultPlan semantics: determinism, rule arithmetic, serialisation.

Determinism is the foundation of the whole suite — a plan with seed S
must make the same fire/skip decisions at the same call counts on every
run, every machine, every interpreter (SHA-256-derived PRNG streams,
not Python's salted ``hash``).
"""

from __future__ import annotations

import pickle

import pytest

from repro.resilience.faults import (SITES, FaultPlan, FaultRule,
                                     InjectedFault, active_plan,
                                     deactivate, fault_point,
                                     known_sites, should_inject)

SITE = "engine.generic.fail"  # an arbitrary registered site


def _schedule(plan: FaultPlan, site: str, calls: int) -> list[bool]:
    with plan:
        return [should_inject(site) for _ in range(calls)]


class TestDeterminism:
    def test_same_seed_same_schedule(self, chaos_seed):
        rule = dict(site=SITE, probability=0.35)
        a = _schedule(FaultPlan([rule], seed=chaos_seed), SITE, 200)
        b = _schedule(FaultPlan([rule], seed=chaos_seed), SITE, 200)
        assert a == b
        assert any(a) and not all(a)  # p=0.35 over 200 calls

    def test_different_seeds_differ(self, chaos_seed):
        rule = dict(site=SITE, probability=0.35)
        a = _schedule(FaultPlan([rule], seed=chaos_seed), SITE, 200)
        b = _schedule(FaultPlan([rule], seed=chaos_seed + 1), SITE, 200)
        assert a != b

    def test_sites_draw_independent_streams(self, chaos_seed):
        # Two sites in one plan must not share a PRNG stream: firing
        # decisions at one site may not perturb the other's schedule.
        other = "engine.numpy.fail"
        solo = _schedule(FaultPlan(
            [dict(site=SITE, probability=0.5)], seed=chaos_seed),
            SITE, 100)
        both_plan = FaultPlan([dict(site=SITE, probability=0.5),
                               dict(site=other, probability=0.5)],
                              seed=chaos_seed)
        with both_plan:
            interleaved = []
            for _ in range(100):
                should_inject(other)
                interleaved.append(should_inject(SITE))
        assert interleaved == solo

    def test_pickle_replays_from_start(self, chaos_seed):
        plan = FaultPlan([dict(site=SITE, probability=0.5)],
                         seed=chaos_seed)
        before = _schedule(plan, SITE, 50)
        clone = pickle.loads(pickle.dumps(plan))
        deactivate()
        assert _schedule(clone, SITE, 50) == before


class TestRuleSemantics:
    def test_after_skips_leading_calls(self):
        plan = FaultPlan.single(SITE, after=3)
        assert _schedule(plan, SITE, 6) == [False] * 3 + [True] * 3

    def test_times_caps_fires(self):
        plan = FaultPlan.single(SITE, times=2)
        assert _schedule(plan, SITE, 5) == [True, True, False, False,
                                            False]
        assert plan.fire_counts() == {SITE: 2}

    def test_times_none_is_permanent(self):
        plan = FaultPlan.single(SITE)
        assert all(_schedule(plan, SITE, 20))

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan.single(SITE)
        with plan:
            assert not should_inject("engine.numpy.fail")

    def test_none_plan_never_fires(self):
        with FaultPlan.none():
            assert not any(should_inject(s) for s in known_sites())

    def test_fault_point_raises_typed(self):
        with FaultPlan.single(SITE):
            with pytest.raises(InjectedFault) as excinfo:
                fault_point(SITE)
        assert excinfo.value.site == SITE

    def test_fault_point_runs_action(self):
        fired = []
        with FaultPlan.single(SITE):
            fault_point(SITE, action=lambda: fired.append(1))
        assert fired == [1]


class TestValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule("shard.worker.tyop")

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([dict(site=SITE), dict(site=SITE)])

    @pytest.mark.parametrize("kwargs", [
        {"probability": -0.1}, {"probability": 1.5},
        {"after": -1}, {"times": 0},
    ])
    def test_bad_rule_fields(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(SITE, **kwargs)


class TestActivation:
    def test_nested_install_raises(self):
        with FaultPlan.none():
            with pytest.raises(RuntimeError, match="already active"):
                FaultPlan.single(SITE).install()

    def test_context_manager_deactivates(self):
        plan = FaultPlan.single(SITE)
        with plan:
            assert active_plan() is plan
        assert active_plan() is None

    def test_reinstall_same_plan_is_idempotent(self):
        plan = FaultPlan.single(SITE)
        with plan:
            plan.install()
            assert active_plan() is plan


class TestSerialisation:
    def test_json_round_trip(self, chaos_seed):
        plan = FaultPlan([dict(site=SITE, probability=0.5, after=2,
                               times=3)], seed=chaos_seed)
        back = FaultPlan.from_json(plan.to_json())
        assert back.seed == plan.seed
        assert back.rules == plan.rules
        assert _schedule(back, SITE, 40) == _schedule(plan, SITE, 40)

    def test_from_file(self, tmp_path, chaos_seed):
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.single(SITE,
                                         seed=chaos_seed).to_json())
        plan = FaultPlan.from_file(path)
        assert plan.seed == chaos_seed
        assert plan.rules[0].site == SITE

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_json('{"seed": 1, "sites": []}')
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json('[1, 2]')


def test_catalogue_is_documented_and_sorted():
    assert known_sites() == tuple(sorted(SITES))
    for name, what in SITES.items():
        assert name.count(".") >= 1  # subsystem.site[.detail] naming
        assert len(what) > 10  # every site says what firing does
