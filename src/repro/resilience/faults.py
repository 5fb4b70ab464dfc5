"""Deterministic, seeded fault injection for the whole stack.

Production code is threaded with named *fault sites* — points where a
real deployment can fail: a shard worker dying mid-batch, a client
socket dropping mid-frame, the C toolchain disappearing, a simulated
DRAM access faulting.  Each site calls :func:`should_inject` (or
:func:`fault_point`), which is a single ``None`` check when no plan is
active — the disabled path costs nothing measurable.

A :class:`FaultPlan` arms a set of sites with per-site rules
(:class:`FaultRule`): fire with probability ``p``, only after the
first ``after`` calls, at most ``times`` times.  Every decision comes
from a per-site PRNG stream derived from ``(plan seed, site name)``
via SHA-256 — **not** Python's salted ``hash`` — so a plan with seed
``S`` injects the *same* faults on every run, every machine, every
interpreter.  That is what lets the chaos suite assert bit-identical
recovery: the failure schedule is as reproducible as the scores.

Plans activate as context managers (or :meth:`FaultPlan.install` /
:func:`deactivate` for process-wide use, e.g. the CLI's
``--fault-plan``) and serialise to JSON (:meth:`FaultPlan.to_json` /
``from_json`` / ``from_file``), so a failing CI chaos run can upload
the exact plan that broke the build.

The site catalogue lives here, in :data:`SITES`, rather than being
registered lazily by the host modules — the chaos sweep and the docs
enumerate it without importing half the package, and
:class:`FaultPlan` rejects rules naming unknown sites (typos fail
fast instead of silently never firing).
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import dataclass

__all__ = ["SITES", "FaultRule", "FaultPlan", "InjectedFault",
           "active_plan", "deactivate", "should_inject", "fault_point",
           "known_sites"]


#: Every fault site threaded through the stack: name -> what firing it
#: does at the host call site.  This is the canonical catalogue the
#: chaos suite sweeps (see ``tests/chaos/``) and docs/RESILIENCE.md
#: documents.
SITES: dict[str, str] = {
    "shard.worker.crash":
        "shard worker process exits mid-shard (os._exit); the parent "
        "only notices via its run timeout",
    "shard.worker.hang":
        "shard worker sleeps far past any reasonable deadline; "
        "detected by timeout, cleared by the pool rebuild",
    "shard.worker.slow":
        "shard worker sleeps ~50 ms before scoring; results stay "
        "correct but deadlines may trip",
    "shard.worker.error":
        "shard worker raises InjectedFault instead of scoring (the "
        "clean per-shard exception path)",
    "serve.sched.mispredict":
        "the adaptive scheduler's cost model inflates its latency "
        "estimate (stale-rate misprediction); admission turns "
        "conservative but completed scores stay bit-identical",
    "serve.sock.drop":
        "server closes the TCP connection instead of writing a "
        "response frame",
    "serve.sock.truncate":
        "server writes the first half of a response frame, then "
        "closes the connection mid-line",
    "jit.cc.compile":
        "the system C compiler is reported as failing (JitError from "
        "compile_kernel)",
    "jit.cc.load":
        "the compiled .so refuses to dlopen (JitError from "
        "compile_kernel)",
    "gpusim.memory.fault":
        "a simulated global-memory access raises MemoryFault",
    "engine.compiled-c.fail":
        "the resilience chain's compiled-c engine raises on a batch",
    "engine.compiled-numpy.fail":
        "the resilience chain's compiled-numpy engine raises on a "
        "batch",
    "engine.generic.fail":
        "the resilience chain's interpreted generic engine raises on a "
        "batch",
    "engine.numpy.fail":
        "the resilience chain's numpy SWA engine raises on a batch",
    "index.shard.open":
        "opening an index shard reports corruption "
        "(IndexIntegrityError before the mmap is used)",
    "index.shard.verify":
        "the shard payload CRC check reports corruption "
        "(IndexIntegrityError from Shard.verify)",
    "index.tier1.screen":
        "a tier-1 bulk-screen batch raises before scoring; a "
        "resilient TieredSearch rescores it on the fallback chain",
    "index.tier2.align":
        "a tier-2 traceback alignment raises; TieredSearch retries "
        "once, then propagates",
    "cluster.node.connect":
        "the coordinator's connect attempt to a serve node fails; "
        "the batch reroutes to a replica, scores unchanged",
    "cluster.node.drop":
        "a serve node dies mid-batch (harness kills the process, or "
        "the connection is severed); in-flight requests reroute and "
        "idempotent request IDs keep retried work from scoring twice",
    "cluster.probe.flap":
        "a health probe falsely reports a live node down; the node's "
        "breaker records a failure and routing shies away until the "
        "next good probe — scores are unaffected",
    "cluster.route.mispick":
        "the router picks a non-owner node for a key; only cache "
        "locality suffers, scores stay bit-identical",
}


def known_sites() -> tuple[str, ...]:
    """Every registered fault-site name, sorted."""
    return tuple(sorted(SITES))


class InjectedFault(RuntimeError):
    """The default failure a firing fault site raises.

    Carries ``site`` so recovery layers (and test assertions) can tell
    injected faults from organic ones.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultRule:
    """When one site fires.

    ``probability``
        Chance each eligible call fires (from the site's seeded PRNG
        stream; ``1.0`` = every eligible call).
    ``after``
        Skip this many calls before the site becomes eligible
        (model "the Nth batch hits the bad worker").
    ``times``
        Stop after this many fires (``None`` = keep firing forever —
        a *permanent* fault, e.g. "the C toolchain is gone").
    """

    site: str
    probability: float = 1.0
    after: int = 0
    times: int | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(known_sites())}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times <= 0:
            raise ValueError(
                f"times must be positive or None, got {self.times}"
            )


def _site_seed(seed: int, site: str) -> int:
    """Deterministic 64-bit PRNG seed for one site of one plan."""
    digest = hashlib.sha256(f"{seed}:{site}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _SiteState:
    """Mutable per-site firing state (calls seen, fires spent, PRNG)."""

    __slots__ = ("rule", "rng", "calls", "fires")

    def __init__(self, rule: FaultRule, seed: int) -> None:
        self.rule = rule
        self.rng = random.Random(_site_seed(seed, rule.site))
        self.calls = 0
        self.fires = 0


class FaultPlan:
    """A seeded set of armed fault sites.

    Use as a context manager to scope injection::

        plan = FaultPlan([FaultRule("shard.worker.crash", times=1)],
                         seed=42)
        with plan:
            ...   # exactly one worker crash, same one every run

    Only one plan is active per process at a time (nested activation
    raises — overlapping schedules would destroy determinism).  Plans
    are picklable: counters and PRNG state reset on unpickle, so a
    plan shipped to a shard worker process replays its schedule from
    the start *in that process* — same-seed workers make the same
    decisions at the same call counts.
    """

    def __init__(self, rules=(), seed: int = 0) -> None:
        rules = tuple(r if isinstance(r, FaultRule) else FaultRule(**r)
                      for r in rules)
        names = [r.site for r in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site rules in plan: {names}")
        self.seed = int(seed)
        self.rules = rules
        self._lock = threading.Lock()
        self._states = {r.site: _SiteState(r, self.seed) for r in rules}

    # -- construction ---------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan that never fires (the disabled-injection control)."""
        return cls((), seed=0)

    @classmethod
    def single(cls, site: str, seed: int = 0, *, probability: float = 1.0,
               after: int = 0, times: int | None = None) -> "FaultPlan":
        """Convenience: a plan arming exactly one site."""
        return cls([FaultRule(site, probability, after, times)], seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse the JSON plan format (see :meth:`to_json`)."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(obj) - {"seed", "rules"}
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        return cls(obj.get("rules", ()), seed=obj.get("seed", 0))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_json(self) -> str:
        """Serialise to the plan file format::

            {"seed": 42,
             "rules": [{"site": "shard.worker.crash", "probability": 1.0,
                        "after": 0, "times": 1}]}
        """
        return json.dumps({
            "seed": self.seed,
            "rules": [{"site": r.site, "probability": r.probability,
                       "after": r.after, "times": r.times}
                      for r in self.rules],
        })

    # -- pickling (plans cross the shard process boundary) --------------
    def __getstate__(self):
        return {"seed": self.seed, "rules": self.rules}

    def __setstate__(self, state):
        self.__init__(state["rules"], seed=state["seed"])

    # -- firing ---------------------------------------------------------
    def fire_counts(self) -> dict[str, int]:
        """Fires observed so far, per armed site (for assertions)."""
        with self._lock:
            return {s: st.fires for s, st in self._states.items()}

    def _fire(self, site: str) -> bool:
        state = self._states.get(site)
        if state is None:
            return False
        with self._lock:
            state.calls += 1
            rule = state.rule
            if state.calls <= rule.after:
                return False
            if rule.times is not None and state.fires >= rule.times:
                return False
            if rule.probability < 1.0 and \
                    state.rng.random() >= rule.probability:
                return False
            state.fires += 1
            return True

    # -- activation -----------------------------------------------------
    def install(self) -> "FaultPlan":
        """Activate process-wide (the CLI ``--fault-plan`` path)."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is not None and _ACTIVE is not self:
                raise RuntimeError(
                    "a FaultPlan is already active; deactivate() it "
                    "before installing another"
                )
            _ACTIVE = self
        return self

    def __enter__(self) -> "FaultPlan":
        return self.install()

    def __exit__(self, *exc) -> None:
        deactivate()


_ACTIVE: FaultPlan | None = None
_ACTIVE_LOCK = threading.Lock()


def active_plan() -> FaultPlan | None:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


def deactivate() -> None:
    """Deactivate any installed plan (idempotent)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


def should_inject(site: str) -> bool:
    """Whether ``site`` fires on this call.

    The hot-path form: host code asks, then performs its own
    site-appropriate failure (close a socket, ``os._exit``, raise a
    domain error).  A single ``is None`` check when no plan is active.
    """
    plan = _ACTIVE
    if plan is None:
        return False
    return plan._fire(site)


def fault_point(site: str, action=None) -> None:
    """Declarative site: raise :class:`InjectedFault` (or run
    ``action``) when the active plan says ``site`` fires."""
    plan = _ACTIVE
    if plan is None or not plan._fire(site):
        return
    if action is not None:
        action()
        return
    raise InjectedFault(site)
