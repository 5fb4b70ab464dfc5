"""repro.resilience — deterministic fault injection + graceful recovery.

Two halves of one discipline:

* **Break it on purpose** — :mod:`repro.resilience.faults` arms named
  fault sites threaded through the shard workers, the serve socket
  path, the JIT C backend, and the GPU simulator with a seeded,
  perfectly reproducible :class:`FaultPlan`.
* **Survive it** — :class:`RetryPolicy` (exponential backoff, full
  jitter, deadline-aware), :class:`CircuitBreaker` (per engine),
  :class:`EngineFallbackChain` (compiled-c → compiled-numpy →
  interpreted bpbc → numpy SWA, each gated by a known-answer
  self-test), and the partial-result recovery of
  :mod:`repro.resilience.recovery` that rescues failed shards instead
  of aborting batches.

The invariant everything here defends: recovered results are
**bit-identical** to a fault-free run, or a **typed error names the
affected pairs** — never a silent wrong score.  ``tests/chaos/``
sweeps every fault site under seeded plans to pin that down.

The heavyweight members (the fallback chain and recovery, which pull
in the scoring engines) load lazily, so hosts that only need a fault
site check — e.g. :mod:`repro.gpusim.memory` — import nothing beyond
the stdlib-only :mod:`~repro.resilience.faults`.
"""

from __future__ import annotations

from .breaker import CircuitBreaker
from .errors import (BulkRecoveryError, FallbackExhaustedError,
                     ResilienceError, SelfTestError)
from .faults import (SITES, FaultPlan, FaultRule, InjectedFault,
                     active_plan, deactivate, fault_point, known_sites,
                     should_inject)
from .retry import RetriesExhausted, RetryPolicy

__all__ = [
    "SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "deactivate",
    "fault_point",
    "known_sites",
    "should_inject",
    "RetryPolicy",
    "RetriesExhausted",
    "CircuitBreaker",
    "ResilienceError",
    "SelfTestError",
    "FallbackExhaustedError",
    "BulkRecoveryError",
    # lazy (see __getattr__):
    "EngineFallbackChain",
    "DEFAULT_CHAIN",
    "default_chain",
    "recover_failures",
    "shard_scores_with_recovery",
    "RecoveryReport",
]

_LAZY = {
    "EngineFallbackChain": "fallback",
    "DEFAULT_CHAIN": "fallback",
    "default_chain": "fallback",
    "recover_failures": "recovery",
    "shard_scores_with_recovery": "recovery",
    "RecoveryReport": "recovery",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
