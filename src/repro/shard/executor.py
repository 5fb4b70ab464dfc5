"""Sharded multi-core bulk execution.

The bulk engines score 64 pairs per lane word, but a single Python
process drives only one core.  :class:`ShardExecutor` closes that gap
the way SWAPHI and SALoBa scale alignment across compute units: the
pair workload is partitioned into cost-balanced shards (greedy LPT on
``len(x) * len(y)``, :mod:`repro.shard.partition`), shards fan out to
a ``multiprocessing`` worker pool (engine constructed per worker,
sequences shipped as packed ``uint8`` buffers,
:mod:`repro.shard.worker`), and ``(shard_id, scores)`` results are
reassembled into submission order.

Failure model: a worker crash, timeout, or engine exception fails
*only its shard* — every completed shard's scores are kept, and the
failure surfaces as a :class:`~repro.shard.errors.ShardError` carrying
the shard's original pair indices so the caller can retry or skip
exactly those pairs.  Detection of a silently dead worker needs a
finite ``timeout_s`` (a lost task never resolves on its own); after
any timeout the executor terminates and respawns the whole pool, so
the *next* run starts at full width instead of inheriting dead or
wedged workers.  The in-process recovery of those lost pairs lives one
layer up, in :mod:`repro.resilience.recovery`.

Degradation: ``workers=1``, a platform without a usable
``multiprocessing`` start method, or a pool that fails to spawn all
fall back to in-process execution over the *same* shard plan and
scoring code, so results are identical either way.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..engines import ENGINES, resolve
from ..resilience import faults as _faults
from ..swa.scoring import DEFAULT_SCHEME, ScoringScheme
from .errors import ShardError
from .partition import pair_costs, partition_lpt
from .worker import (as_contiguous_u8, init_worker, pack_shard, run_shard,
                     score_shard)

__all__ = ["ShardTiming", "ShardRunResult", "ShardExecutor",
           "shard_bulk_max_scores", "default_workers"]


def default_workers() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Seconds a pool teardown waits for workers to honour SIGTERM before
#: it kills them.
_TEARDOWN_GRACE_S = 2.0


def _terminate_pool(pool) -> None:
    """``pool.terminate()`` + ``pool.join()`` that cannot hang.

    ``Pool.terminate`` SIGTERMs the workers and then joins each one
    with no timeout, so a worker that ignores SIGTERM (an engine that
    masks signals, or one wedged in native code) would hang the caller
    forever.  The stock teardown runs on a helper thread; if the
    workers have not exited after :data:`_TEARDOWN_GRACE_S`, every
    survivor is SIGKILLed and the teardown gets one more grace period
    to finish.
    """
    stopper = threading.Thread(target=pool.terminate, daemon=True)
    stopper.start()
    stopper.join(_TEARDOWN_GRACE_S)
    if stopper.is_alive():
        for proc in list(pool._pool):
            if proc.is_alive():
                proc.kill()
        stopper.join(_TEARDOWN_GRACE_S)
    if not stopper.is_alive():
        pool.join()


def _make_context(start_method: str | None):
    """A usable multiprocessing context, or ``None`` to degrade.

    Prefers ``fork`` (cheap startup; the engines hold no threads or
    locks at run time) and falls back to ``spawn``/``forkserver``.
    """
    preferred = ([start_method] if start_method is not None
                 else ["fork", "spawn", "forkserver"])
    try:
        available = multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - platform without mp
        return None
    for method in preferred:
        if method in available:
            try:
                return multiprocessing.get_context(method)
            except ValueError:  # pragma: no cover - races/odd platforms
                continue
    return None


@dataclass(frozen=True)
class ShardTiming:
    """Per-shard accounting: what ran where, for how long."""

    shard_id: int
    pairs: int
    cost: int        # total DP cells: sum of len(x) * len(y)
    elapsed_s: float  # worker-side compute time


@dataclass
class ShardRunResult:
    """Output of one sharded run.

    ``scores`` is ``(P,)`` int64 in submission order; pairs belonging
    to a failed shard hold ``-1`` (only possible with
    ``errors="return"``).  ``timings`` covers completed shards,
    ``errors`` the failed ones.
    """

    scores: np.ndarray
    timings: list[ShardTiming]
    errors: list[ShardError]

    @property
    def failed_pairs(self) -> np.ndarray:
        """Submission-order indices of pairs whose shard failed."""
        if not self.errors:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(
            [np.asarray(e.pair_indices, dtype=np.int64)
             for e in self.errors]))


def _as_rows(batch) -> list[np.ndarray]:
    """Accept a ``(P, n)`` code matrix or a ragged list of 1-D arrays.

    Already-contiguous ``uint8`` inputs pass through untouched (rows
    of a contiguous matrix are themselves contiguous views); anything
    else is converted once here so the packing paths never copy again.
    """
    if isinstance(batch, np.ndarray):
        if batch.ndim != 2:
            raise ValueError(
                f"expected a (P, n) code matrix, got shape {batch.shape}"
            )
        return list(as_contiguous_u8(batch))
    rows = [as_contiguous_u8(row) for row in batch]
    for row in rows:
        if row.ndim != 1:
            raise ValueError(
                f"ragged input rows must be 1-D, got shape {row.shape}"
            )
    return rows


class ShardExecutor:
    """A reusable sharded scoring backend over a process pool.

    Shards cross the pool pipe as pickled
    :class:`~repro.shard.worker.ShardPayload` buffers (one packed
    ``uint8`` buffer per side) and come back as ``int64`` score bytes:
    the paper's one copy in, one copy out.

    Parameters
    ----------
    workers:
        Process count (default: the machine's usable CPUs).  ``1``
        runs in-process with no pool at all.
    engine:
        A shardable :data:`repro.engines.ENGINES` name (``"bpbc"``,
        the default, or ``"numpy"``) or a picklable callable
        ``(X, Y, scheme, word_bits) -> scores``.
    word_bits:
        Lane word width for the BPBC engine.
    timeout_s:
        Wall-clock budget per :meth:`run`; shards unfinished when it
        expires fail with :class:`ShardError` (this is also how a
        silently dead worker is detected).  ``None`` waits forever.
    max_shard_pairs:
        Cap on pairs per shard (bounds per-worker memory; the shard
        count rises above ``workers`` as needed).
    bin_granularity:
        Length-bin rounding for ragged shards (see
        :func:`repro.shard.worker.score_codes`).
    start_method:
        Force a ``multiprocessing`` start method; default tries
        ``fork`` then ``spawn``/``forkserver``, degrading to
        in-process execution when none is usable.
    """

    def __init__(self, workers: int | None = None, engine="bpbc",
                 word_bits: int = 64, timeout_s: float | None = None,
                 max_shard_pairs: int | None = None,
                 bin_granularity: int = 16,
                 start_method: str | None = None) -> None:
        workers = default_workers() if workers is None else workers
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive, got {timeout_s}"
            )
        if max_shard_pairs is not None and max_shard_pairs <= 0:
            raise ValueError(
                f"max_shard_pairs must be positive, got {max_shard_pairs}"
            )
        if bin_granularity <= 0:
            raise ValueError(
                f"bin_granularity must be positive, got {bin_granularity}"
            )
        self.word_bits = word_bits
        self.timeout_s = timeout_s
        self.max_shard_pairs = max_shard_pairs
        self.bin_granularity = bin_granularity
        if isinstance(engine, str) and not (engine in ENGINES
                                            and ENGINES[engine].shardable):
            shardable = [n for n, e in ENGINES.items() if e.shardable]
            raise ValueError(
                f"unknown shard engine {engine!r}; expected one of "
                f"{shardable} or a picklable callable"
            )
        self._engine_fn = resolve(engine)
        self._engine_spec = engine
        self._requested_workers = workers
        self._ctx = _make_context(start_method) if workers > 1 else None
        self.rebuilds = 0
        #: Pool runs.  perfbench reads these three; the shm_* pair stays
        #: 0 and goes when perfbench drops its ``shard.shm_*`` metrics.
        self.pickle_runs = 0
        self.shm_runs = 0
        self.shm_fallbacks = 0
        self._pool = self._spawn_pool()
        self.workers = workers if self._pool is not None else 1

    def _spawn_pool(self):
        """Build a worker pool, or ``None`` to degrade in-process.

        The parent's active :class:`~repro.resilience.faults.FaultPlan`
        (if any) ships through the initializer so injection sites fire
        inside workers under any start method.
        """
        if self._requested_workers <= 1 or self._ctx is None:
            return None
        try:
            return self._ctx.Pool(
                self._requested_workers, initializer=init_worker,
                initargs=(self._engine_spec, self.word_bits,
                          self.bin_granularity, _faults.active_plan()))
        except (OSError, ValueError):
            return None  # degrade to in-process

    def _rebuild_pool(self) -> None:
        """Replace the pool after a lost/hung worker was detected.

        A worker that died silently leaves ``multiprocessing.Pool`` in
        a degraded state (its task never resolves, and a *hung* worker
        permanently occupies a slot), so after any timeout failure the
        whole pool is terminated and respawned — the next :meth:`run`
        starts at full width again.  If the respawn fails, the
        executor degrades to in-process execution instead of limping.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            _terminate_pool(pool)
        self._pool = self._spawn_pool()
        self.rebuilds += 1
        self.workers = (self._requested_workers
                        if self._pool is not None else 1)

    @property
    def in_process(self) -> bool:
        """True when running without a pool (degraded or ``workers=1``)."""
        return self._pool is None

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Tear the pool down (idempotent; in-flight shards are
        abandoned)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            _terminate_pool(pool)
        self.workers = 1

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- execution ------------------------------------------------------
    def run(self, X, Y, scheme: ScoringScheme | None = None,
            errors: str = "raise",
            width: int | None = None) -> ShardRunResult:
        """Score every pair ``(X[p], Y[p])``; shard-parallel.

        ``X`` / ``Y`` are ``(P, m)`` / ``(P, n)`` code matrices or
        ragged lists of 1-D code arrays.  ``errors="raise"`` (default)
        raises the first :class:`ShardError` after all shards settle;
        ``errors="return"`` instead reports failures in
        ``ShardRunResult.errors`` with the affected scores at ``-1``.
        ``width`` caps the shard fan-out of *this* run below the pool
        width (the serve scheduler's per-batch knob — a batch small
        enough to meet its SLO on one worker should not pay the
        fan-out overhead of eight).
        """
        if errors not in ("raise", "return"):
            raise ValueError(
                f'errors must be "raise" or "return", got {errors!r}'
            )
        if width is not None and width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        xs = _as_rows(X)
        ys = _as_rows(Y)
        if len(xs) != len(ys):
            raise ValueError(
                f"pair count mismatch: {len(xs)} queries vs "
                f"{len(ys)} subjects"
            )
        if not xs:
            return ShardRunResult(scores=np.empty(0, dtype=np.int64),
                                  timings=[], errors=[])
        scheme = scheme or DEFAULT_SCHEME
        costs = pair_costs(xs, ys)
        shards = (self.workers if width is None
                  else min(self.workers, width))
        plan = partition_lpt(costs, shards,
                             max_pairs=self.max_shard_pairs)
        shard_xs = [[xs[i] for i in idx] for idx in plan]
        shard_ys = [[ys[i] for i in idx] for idx in plan]
        scores = np.full(len(xs), -1, dtype=np.int64)
        timings: list[ShardTiming] = []
        failures: list[ShardError] = []

        def settle(sid: int, shard_scores: np.ndarray,
                   elapsed: float) -> None:
            idx = plan[sid]
            scores[idx] = shard_scores
            timings.append(ShardTiming(
                shard_id=sid, pairs=len(idx),
                cost=int(costs[idx].sum()), elapsed_s=elapsed))

        if self._pool is None:
            for sid, idx in enumerate(plan):
                try:
                    payload = pack_shard(sid, shard_xs[sid],
                                         shard_ys[sid])
                    rsid, shard_scores, elapsed = score_shard(
                        payload, scheme, self._engine_fn,
                        self.word_bits, self.bin_granularity)
                    settle(rsid, shard_scores, elapsed)
                except Exception as exc:  # noqa: BLE001 - per-shard fault
                    failures.append(ShardError(
                        f"shard {sid} failed in-process: "
                        f"{exc!r}", sid, idx, cause=exc))
        else:
            self.pickle_runs += 1
            handles = [
                self._pool.apply_async(
                    run_shard,
                    (pack_shard(sid, shard_xs[sid], shard_ys[sid]),
                     scheme))
                for sid in range(len(plan))
            ]
            deadline = (None if self.timeout_s is None
                        else time.monotonic() + self.timeout_s)

            def remaining():
                return (None if deadline is None else
                        max(deadline - time.monotonic(), 1e-3))

            timed_out = False
            for sid, (idx, handle) in enumerate(zip(plan, handles)):
                try:
                    rsid, score_bytes, elapsed = handle.get(remaining())
                    settle(rsid, np.frombuffer(score_bytes,
                                               dtype=np.int64), elapsed)
                except multiprocessing.TimeoutError:
                    timed_out = True
                    failures.append(ShardError(
                        f"shard {sid} missed the "
                        f"{self.timeout_s}s deadline (worker dead, "
                        "stuck, or overloaded); pairs "
                        f"{idx[0]}..{idx[-1]} unscored",
                        sid, idx))
                except Exception as exc:  # noqa: BLE001 - per-shard fault
                    failures.append(ShardError(
                        f"shard {sid} failed in worker: "
                        f"{exc!r}", sid, idx, cause=exc))
            if timed_out:
                # A missed deadline means a dead or wedged worker; the
                # abandoned task (and any hung worker) would degrade
                # every later run, so replace the pool wholesale.
                self._rebuild_pool()
        failures.sort(key=lambda e: e.shard_id)
        if failures and errors == "raise":
            raise failures[0]
        return ShardRunResult(scores=scores, timings=timings,
                              errors=failures)


def shard_bulk_max_scores(X, Y, scheme: ScoringScheme | None = None,
                          word_bits: int = 64,
                          workers: int | None = None,
                          engine="bpbc",
                          timeout_s: float | None = None,
                          max_shard_pairs: int | None = None,
                          bin_granularity: int = 16) -> np.ndarray:
    """One-shot sharded scoring: build a pool, score, tear down.

    The convenience form of :class:`ShardExecutor` for batch callers
    (:func:`repro.filter.screening.bulk_max_scores` with ``workers >
    1`` routes here).  Long-lived callers (the serve engine pool)
    should hold a :class:`ShardExecutor` instead and amortise pool
    startup.
    """
    with ShardExecutor(workers=workers, engine=engine,
                       word_bits=word_bits, timeout_s=timeout_s,
                       max_shard_pairs=max_shard_pairs,
                       bin_granularity=bin_granularity) as executor:
        return executor.run(X, Y, scheme).scores
