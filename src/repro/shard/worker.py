"""Shard worker: spawn-safe engine construction + packed buffers.

Everything a shard needs to cross a process boundary travels as flat,
cheaply-picklable data: sequences ship as one packed ``uint8`` byte
buffer per side plus an ``int32`` length table (:class:`ShardPayload`),
and scores return as ``int64`` bytes.  No engine state, futures, or
open resources are ever pickled — each worker process resolves its
own engine from a :data:`repro.engines.ENGINES` name (or picklable
callable) in :func:`init_worker`, which the pool runs once per worker
under *any* start method (``fork``, ``spawn``, ``forkserver``).

Inside a worker, a shard's (possibly ragged) pairs are grouped into
length bins and sentinel-padded to the longest member of each bin —
the same exactness trick as :mod:`repro.serve.packer` (pad codes
mismatch everything, so padded cells only lose score).  A uniform
rectangular shard therefore takes the unpadded 2-bit fast path and is
numerically *identical*, call for call, to the single-process engine.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from ..core.encoding import scheme_pads
from ..engines import resolve
from ..resilience.faults import FaultPlan, fault_point
from ..swa.scoring import ScoringScheme

__all__ = ["ShardPayload", "as_contiguous_u8", "pack_shard", "unpack_side",
           "score_codes", "score_shard", "init_worker", "run_shard",
           "run_shard_shm"]


def as_contiguous_u8(arr) -> np.ndarray:
    """``arr`` itself when already C-contiguous ``uint8``, else a copy.

    The hot packing paths call this per row; the explicit flag check
    skips NumPy's conversion machinery entirely on the common case
    (rows of an already-contiguous code matrix), and the fallback is
    the same ``ascontiguousarray`` as before — byte-identical output
    either way.
    """
    if isinstance(arr, np.ndarray) and arr.dtype == np.uint8 \
            and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr, dtype=np.uint8)


@dataclass(frozen=True)
class ShardPayload:
    """One shard's pairs, flattened for cheap pickling.

    ``xbuf`` / ``ybuf`` concatenate the pairs' code arrays back to
    back; ``xlens`` / ``ylens`` are the ``int32`` length tables that
    split them again.  Scores come back in payload order, which the
    executor maps to submission order through its partition plan.
    """

    shard_id: int
    pairs: int
    xbuf: bytes
    xlens: bytes
    ybuf: bytes
    ylens: bytes


def pack_shard(shard_id: int, xs, ys) -> ShardPayload:
    """Flatten a shard's ragged pair list into a :class:`ShardPayload`."""
    xl = np.asarray([len(x) for x in xs], dtype=np.int32)
    yl = np.asarray([len(y) for y in ys], dtype=np.int32)
    xbuf = (np.concatenate([as_contiguous_u8(x) for x in xs])
            if len(xs) else np.empty(0, np.uint8))
    ybuf = (np.concatenate([as_contiguous_u8(y) for y in ys])
            if len(ys) else np.empty(0, np.uint8))
    return ShardPayload(shard_id=int(shard_id), pairs=len(xl),
                        xbuf=xbuf.tobytes(), xlens=xl.tobytes(),
                        ybuf=ybuf.tobytes(), ylens=yl.tobytes())


def unpack_side(buf: bytes, lens: bytes) -> list[np.ndarray]:
    """Split one side's packed buffer back into per-pair code arrays."""
    lengths = np.frombuffer(lens, dtype=np.int32)
    flat = np.frombuffer(buf, dtype=np.uint8)
    bounds = np.cumsum(lengths)
    if len(flat) != (bounds[-1] if len(bounds) else 0):
        raise ValueError(
            f"corrupt shard payload: {len(flat)} bytes vs "
            f"{int(bounds[-1]) if len(bounds) else 0} expected"
        )
    return np.split(flat, bounds[:-1])


def score_codes(engine_fn, xs, ys, scheme: ScoringScheme,
                word_bits: int, bin_granularity: int = 16) -> np.ndarray:
    """Score a ragged pair list through length bins.

    Pairs are grouped by rounded-up ``(m, n)`` (granularity ``g``),
    then each bin is padded only to its *longest member* — so a
    uniform-shape input produces exactly one unpadded engine call and
    mixed lengths waste < ``g`` sentinel positions per sequence.

    Sentinel codes come from the scheme's alphabet when it has one
    (protein pads 22/23), otherwise the classic DNA 4/5.
    """
    P = len(xs)
    out = np.zeros(P, dtype=np.int64)
    qpad, spad, _ = scheme_pads(scheme)
    g = bin_granularity
    bins: dict[tuple[int, int], list[int]] = {}
    for p in range(P):
        key = (-(-len(xs[p]) // g) * g, -(-len(ys[p]) // g) * g)
        bins.setdefault(key, []).append(p)
    for rows in bins.values():
        mb = max(len(xs[p]) for p in rows)
        nb = max(len(ys[p]) for p in rows)
        X = np.full((len(rows), mb), qpad, dtype=np.uint8)
        Y = np.full((len(rows), nb), spad, dtype=np.uint8)
        for r, p in enumerate(rows):
            X[r, :len(xs[p])] = xs[p]
            Y[r, :len(ys[p])] = ys[p]
        out[np.asarray(rows)] = engine_fn(X, Y, scheme, word_bits)
    return out


def score_shard(payload: ShardPayload, scheme: ScoringScheme, engine_fn,
                word_bits: int,
                bin_granularity: int = 16) -> tuple[int, np.ndarray, float]:
    """Score one payload; returns ``(shard_id, scores, elapsed_s)``."""
    t0 = time.perf_counter()
    xs = unpack_side(payload.xbuf, payload.xlens)
    ys = unpack_side(payload.ybuf, payload.ylens)
    scores = score_codes(engine_fn, xs, ys, scheme, word_bits,
                         bin_granularity)
    return payload.shard_id, scores, time.perf_counter() - t0


# -- process-pool entry points -----------------------------------------
# One engine per worker process, built by the pool initializer; the
# globals below exist only inside workers.

_ENGINE = None
_WORD_BITS = 64
_BIN_GRANULARITY = 16

#: How long the injected ``shard.worker.hang`` site sleeps — far past
#: any test/run timeout, short enough that a terminated pool reaps it.
_HANG_S = 60.0
#: Injected ``shard.worker.slow`` delay: results stay correct, but a
#: tight run deadline trips.
_SLOW_S = 0.05


def _injected_crash() -> None:  # pragma: no cover - kills the process
    # A hard worker death: no exception, no cleanup, no result.  The
    # parent's only signal is the shard's task never resolving.
    os._exit(23)


def _injected_hang() -> None:
    time.sleep(_HANG_S)


def _injected_slow() -> None:
    time.sleep(_SLOW_S)


def init_worker(engine, word_bits: int, bin_granularity: int,
                fault_plan: FaultPlan | None = None) -> None:
    """Pool initializer: construct this process's engine once.

    Also ignores SIGINT: a Ctrl-C lands on the whole foreground
    process group, and shutdown is the parent's job (it terminates
    the pool) — workers reacting too would just spray tracebacks.

    ``fault_plan`` is the parent's active :class:`FaultPlan` at pool
    construction, shipped explicitly so injection crosses the process
    boundary under *any* start method (``fork`` would inherit it,
    ``spawn`` would not).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _ENGINE, _WORD_BITS, _BIN_GRANULARITY
    _ENGINE = resolve(engine)
    _WORD_BITS = word_bits
    _BIN_GRANULARITY = bin_granularity
    if fault_plan is not None:
        fault_plan.install()


def run_shard(payload: ShardPayload,
              scheme: ScoringScheme) -> tuple[int, bytes, float]:
    """Pool task: score one shard with the per-worker engine.

    Returns ``(shard_id, int64 score bytes, elapsed_s)`` — flat data
    only, so the result pickles as cheaply as the payload did.
    """
    fault_point("shard.worker.crash", action=_injected_crash)
    fault_point("shard.worker.hang", action=_injected_hang)
    fault_point("shard.worker.slow", action=_injected_slow)
    fault_point("shard.worker.error")
    shard_id, scores, elapsed = score_shard(
        payload, scheme, _ENGINE, _WORD_BITS, _BIN_GRANULARITY)
    return shard_id, scores.tobytes(), elapsed


def run_shard_shm(ref, scheme: ScoringScheme) -> tuple[int, int, float]:
    """Pool task: score one shard addressed by a shared-memory ref.

    The zero-copy twin of :func:`run_shard`: sequences are read as
    ``np.frombuffer`` views straight out of the executor's shared
    segment and scores are written back into its reply region, so the
    only pickled traffic is the :class:`~repro.shard.shm.ShmShardRef`
    in and this ``(shard_id, pairs, elapsed_s)`` tuple out.  The same
    worker fault sites apply on this path — a chaos plan cannot be
    dodged by switching transports.
    """
    from .shm import attach_segment, read_side, write_scores

    fault_point("shard.worker.crash", action=_injected_crash)
    fault_point("shard.worker.hang", action=_injected_hang)
    fault_point("shard.worker.slow", action=_injected_slow)
    fault_point("shard.worker.error")
    t0 = time.perf_counter()
    buf = attach_segment(ref.segment).buf
    xs = read_side(buf, ref.xlens_off, ref.pairs, ref.xbuf_off,
                   ref.xbuf_bytes)
    ys = read_side(buf, ref.ylens_off, ref.pairs, ref.ybuf_off,
                   ref.ybuf_bytes)
    scores = score_codes(_ENGINE, xs, ys, scheme, _WORD_BITS,
                         _BIN_GRANULARITY)
    write_scores(buf, ref, scores)
    return ref.shard_id, ref.pairs, time.perf_counter() - t0
