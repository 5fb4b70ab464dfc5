"""Engine fallback chain: four bit-identical rungs, one answer.

The chain is an ordered tuple of *rungs*, each scoring a batch under
the engine contract of :mod:`repro.engines`
(``(X, Y, scheme, word_bits) -> (P,) max scores``):

1. ``compiled-c`` — the ``bpbc`` engine pinned to the native fused
   step (:mod:`repro.jit.cbackend`; needs a system C toolchain),
2. ``compiled-numpy`` — ``bpbc`` pinned to the generated NumPy cell,
3. ``generic`` — ``bpbc`` pinned to the paper-literal interpreted
   circuit evaluator,
4. ``numpy`` — the ``numpy`` engine, the wordwise baselines.

They are bit-identical by construction and pinned so by the
differential fuzz suite — which makes them *redundant hardware* in the
fault-tolerance sense (SWAPHI's Xeon-Phi-offload-or-CPU and
AnySeq/GPU's per-backend variants exploit the same property).
:class:`EngineFallbackChain` turns that redundancy into availability:
score on the fastest healthy rung, demote on failure, and guard each
rung with a :class:`~repro.resilience.breaker.CircuitBreaker` so a
permanently broken backend stops being offered traffic.

Because a *wrong* fallback would be worse than an outage, every rung
must pass a known-answer self-test (:data:`KAT_EXPECTED`, hardcoded
scores over a fixed pair set) before it may join a chain — a rung
whose toolchain is missing is silently dropped, but a rung that
returns different scores raises :class:`SelfTestError` loudly.
"""

from __future__ import annotations

import threading

import numpy as np

from ..filter.screening import bpbc_max_scores, wordwise_max_scores
from ..swa.scoring import DEFAULT_SCHEME, ScoringScheme
from .breaker import CircuitBreaker
from .errors import FallbackExhaustedError, SelfTestError
from .faults import fault_point

__all__ = ["DEFAULT_CHAIN", "KAT_EXPECTED", "EngineFallbackChain",
           "engine_available", "default_chain"]


def _compiled_c(X, Y, scheme, word_bits):
    fault_point("engine.compiled-c.fail")
    return bpbc_max_scores(X, Y, scheme, word_bits, cell="compiled-c")


def _compiled_numpy(X, Y, scheme, word_bits):
    fault_point("engine.compiled-numpy.fail")
    return bpbc_max_scores(X, Y, scheme, word_bits,
                           cell="compiled-numpy")


def _generic(X, Y, scheme, word_bits):
    fault_point("engine.generic.fail")
    return bpbc_max_scores(X, Y, scheme, word_bits, cell="generic")


def _numpy(X, Y, scheme, word_bits):
    fault_point("engine.numpy.fail")
    return wordwise_max_scores(X, Y, scheme, word_bits)


#: The demotion order, fastest first: ``(rung name, scorer)`` pairs.
#: Each rung fails through its own ``engine.<name>.fail`` fault site.
DEFAULT_CHAIN = (
    ("compiled-c", _compiled_c),
    ("compiled-numpy", _compiled_numpy),
    ("generic", _generic),
    ("numpy", _numpy),
)


# -- known-answer self-test --------------------------------------------
# Five fixed DNA pairs covering perfect match, substitutions, gaps and
# a no-match case.  The expected scores are hardcoded (verified against
# the wordwise reference in tests/chaos/test_fallback_chain.py): a KAT
# that recomputed its own expectation would never catch a systematic
# bug shared by the engine under test and the recomputation.
KAT_X = np.array([
    [0, 1, 2, 3, 0, 1, 2, 3],
    [0, 0, 0, 0, 1, 1, 1, 1],
    [2, 3, 2, 3, 2, 3, 2, 3],
    [3, 2, 1, 0, 3, 2, 1, 0],
    [0, 1, 2, 3, 3, 2, 1, 0],
], dtype=np.uint8)
KAT_Y = np.array([
    [0, 1, 2, 3, 0, 1, 2, 3],
    [2, 2, 0, 0, 0, 0, 3, 3],
    [2, 3, 0, 1, 2, 3, 0, 1],
    [1, 0, 1, 0, 1, 0, 1, 0],
    [0, 1, 2, 0, 3, 2, 1, 3],
], dtype=np.uint8)
#: Exact max scores of the KAT pairs under the paper's default scheme.
KAT_EXPECTED = (16, 8, 6, 6, 11)


def engine_available(name: str, word_bits: int = 64) -> bool:
    """Probe + self-test one engine; ``False`` when it cannot run or
    errors (a *wrong* engine still raises :class:`SelfTestError`)."""
    try:
        run_self_test(name, word_bits)
        return True
    except SelfTestError:
        raise
    except Exception:  # noqa: BLE001 - missing toolchain, import, ...
        return False


def run_self_test(name: str, word_bits: int = 64) -> None:
    """Score the KAT pairs on engine ``name``; raise on any deviation.

    Every engine must reproduce :data:`KAT_EXPECTED` bit for bit —
    this is the startup gate that keeps a miscompiled or corrupted
    backend out of the fallback rotation.
    """
    fn = dict(DEFAULT_CHAIN)[name]
    got = np.asarray(fn(KAT_X, KAT_Y, DEFAULT_SCHEME, word_bits))
    expected = np.asarray(KAT_EXPECTED, dtype=got.dtype)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        raise SelfTestError(name, KAT_EXPECTED, got.reshape(-1))


class EngineFallbackChain:
    """Score batches on the first healthy engine of a demotion chain.

    Parameters
    ----------
    engines:
        Ordered rung names from :data:`DEFAULT_CHAIN` (default: every
        rung, in chain order).  At construction each engine runs the
        known-answer self-test; engines that cannot run at all (e.g.
        ``compiled-c`` without a C toolchain) are dropped, and engines
        that run but score *wrong* raise :class:`SelfTestError`.
    failure_threshold / reset_after_s:
        Per-engine :class:`CircuitBreaker` tuning.
    word_bits:
        Lane width handed to the engines.

    :meth:`score` walks the chain: engines with open breakers are
    skipped without a call, a failing engine records a breaker failure
    and the next engine is tried, and the first success records a
    breaker success.  When every engine fails,
    :class:`FallbackExhaustedError` reports each attempt.  All of it
    is thread-safe — serve's worker threads share one chain.
    """

    def __init__(self, engines=None, *,
                 failure_threshold: int = 3,
                 reset_after_s: float = 30.0,
                 word_bits: int = 64,
                 self_test: bool = True) -> None:
        rungs = dict(DEFAULT_CHAIN)
        if engines is None:
            engines = tuple(rungs)
        for name in engines:
            if name not in rungs:
                raise ValueError(
                    f"unknown resilience engine {name!r}; expected a "
                    f"subset of {list(rungs)}"
                )
        if not engines:
            raise ValueError("engine chain must not be empty")
        self.word_bits = word_bits
        self.dropped: dict[str, str] = {}
        names: list[str] = []
        for name in engines:
            if self_test:
                try:
                    run_self_test(name, word_bits)
                except SelfTestError:
                    raise
                except Exception as exc:  # noqa: BLE001 - unavailable
                    self.dropped[name] = repr(exc)
                    continue
            names.append(name)
        if not names:
            raise FallbackExhaustedError(
                "no resilience engine survived the self-test gate",
                {k: v for k, v in self.dropped.items()})
        self.engines = tuple(names)
        self._rungs = {name: rungs[name] for name in names}
        self.breakers = {
            name: CircuitBreaker(failure_threshold=failure_threshold,
                                 reset_after_s=reset_after_s)
            for name in names
        }
        self._lock = threading.Lock()
        self.scored_batches = 0
        self.fallback_batches = 0

    @property
    def active_engine(self) -> str:
        """First engine whose breaker currently admits calls."""
        for name in self.engines:
            if self.breakers[name].state != "open":
                return name
        return self.engines[-1]

    def states(self) -> dict[str, dict]:
        """Per-engine breaker snapshots (for service stats)."""
        snap = {name: self.breakers[name].snapshot()
                for name in self.engines}
        for name, reason in self.dropped.items():
            snap[name] = {"state": "dropped", "reason": reason}
        return snap

    def score(self, X, Y, scheme: ScoringScheme | None = None,
              word_bits: int | None = None) -> tuple[np.ndarray, str]:
        """Score one rectangular batch; returns ``(scores, engine)``.

        ``engine`` names the implementation that produced the scores —
        callers surface it in stats so a demoted deployment is visible,
        not silent.
        """
        scheme = scheme or DEFAULT_SCHEME
        word_bits = self.word_bits if word_bits is None else word_bits
        X = np.asarray(X, dtype=np.uint8)
        Y = np.asarray(Y, dtype=np.uint8)
        attempts: dict[str, object] = {}
        for i, name in enumerate(self.engines):
            breaker = self.breakers[name]
            if not breaker.allow():
                attempts[name] = "breaker-open"
                continue
            try:
                scores = self._rungs[name](X, Y, scheme, word_bits)
            except Exception as exc:  # noqa: BLE001 - demote and go on
                breaker.record_failure()
                attempts[name] = exc
                continue
            breaker.record_success()
            with self._lock:
                self.scored_batches += 1
                if i > 0 or attempts:
                    self.fallback_batches += 1
            return np.asarray(scores, dtype=np.int64), name
        raise FallbackExhaustedError(
            f"all {len(self.engines)} engines failed the batch: "
            + ", ".join(f"{k}={v!r}" for k, v in attempts.items()),
            attempts)


_default_chain: EngineFallbackChain | None = None
_default_lock = threading.Lock()


def default_chain(word_bits: int = 64) -> EngineFallbackChain:
    """A process-wide shared chain (lazily built, self-tested once).

    The recovery paths of :func:`repro.filter.screening.bulk_max_scores`
    use this so repeated bulk calls do not re-run the startup
    self-tests.  Only the 64-bit chain is shared; other widths build a
    fresh chain per call.
    """
    global _default_chain
    if word_bits != 64:
        return EngineFallbackChain(word_bits=word_bits)
    with _default_lock:
        if _default_chain is None:
            _default_chain = EngineFallbackChain()
        return _default_chain
