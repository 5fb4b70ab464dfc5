"""Zero-copy shared-memory shard transport.

The pickle transport of :mod:`repro.shard.worker` ships every shard's
packed ``uint8`` buffers through the ``multiprocessing`` pipe: the
parent serialises them, the kernel copies them through a socketpair,
and the worker deserialises them again — three copies whose cost
scales with payload size, exactly the data-movement tax SWAPHI and
SALoBa show dominating alignment throughput at scale.

:class:`ShmArena` removes those copies.  The executor owns one
``multiprocessing.shared_memory`` segment per *generation* and, per
run, bump-allocates every shard's length tables, sequence buffers and
score reply slots inside it.  Workers receive only a tiny
:class:`ShmShardRef` descriptor (segment name + offsets — a few
hundred bytes regardless of payload), map the segment once per
process, build ``np.frombuffer`` views straight into it, and write
their ``int64`` scores into the reply region.  Nothing crosses the
pipe but the descriptor and a ``(shard_id, pairs, elapsed)`` tuple, so
fan-out cost is ~flat in payload size.

Lifecycle is owned entirely by the executor side: the arena creates
segments, retires them (close + unlink) when a run needs more space or
the pool is rebuilt after a worker death, and unlinks everything at
:meth:`ShmArena.close` / interpreter exit (``atexit``).  Workers only
ever *attach*; they deliberately unregister their attachment from the
``resource_tracker`` so a dying worker can never unlink a segment the
parent still owns.  Runs are synchronous (the executor waits for every
shard before reusing the arena), so a single bump allocator per run is
race-free by construction.

Failure model: an attach failure in a worker (site
``shard.shm.attach``) surfaces as that shard's exception, and the
executor retries the shard through the pickle transport —
bit-identical recovery, one transport down.  An unlink failure at
retirement (site ``shard.shm.unlink``) is absorbed: the segment leaks
until :meth:`ShmArena.close` or process exit, which unlink it again;
the run's scores are unaffected, and :attr:`ShmArena.unlink_failures`
counts the failure.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass

import numpy as np

from ..resilience.faults import fault_point

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - exotic platforms
    _shm = None  # type: ignore[assignment]

__all__ = ["MIN_SHM_BYTES", "ShmShardRef", "ShmArena", "shm_available",
           "attach_segment", "detach_all", "read_side", "read_scores",
           "write_scores"]

#: Below this many payload bytes the pickle pipe is cheaper than
#: touching a shared segment (``transport="auto"`` threshold).
MIN_SHM_BYTES = 1 << 16

#: Bump-allocator alignment: the widest element written is ``int64``.
_ALIGN = 8


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` exists on this build."""
    return _shm is not None


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


@dataclass(frozen=True)
class ShmShardRef:
    """A shard's address inside a shared segment — all a worker needs.

    Pickles in O(1) regardless of payload size: the sequences and the
    score reply slots stay in the segment, only these offsets travel.
    """

    segment: str
    shard_id: int
    pairs: int
    xlens_off: int
    ylens_off: int
    xbuf_off: int
    xbuf_bytes: int
    ybuf_off: int
    ybuf_bytes: int
    reply_off: int


def read_side(buf, lens_off: int, pairs: int, data_off: int,
              data_bytes: int) -> list[np.ndarray]:
    """Zero-copy per-pair views of one side of a shard.

    ``buf`` is the mapped segment's buffer; the returned arrays are
    views into it (the engine pads them into fresh bins anyway, see
    :func:`repro.shard.worker.score_codes`).
    """
    lens = np.frombuffer(buf, dtype=np.int32, count=pairs,
                         offset=lens_off)
    flat = np.frombuffer(buf, dtype=np.uint8, count=data_bytes,
                         offset=data_off)
    bounds = np.cumsum(lens, dtype=np.int64)
    if data_bytes != (int(bounds[-1]) if pairs else 0):
        raise ValueError(
            f"corrupt shard ref: {data_bytes} buffer bytes vs "
            f"{int(bounds[-1]) if pairs else 0} expected from lengths"
        )
    return np.split(flat, bounds[:-1])


def write_scores(buf, ref: ShmShardRef, scores: np.ndarray) -> None:
    """Write a shard's ``int64`` scores into its reply slots."""
    out = np.frombuffer(buf, dtype=np.int64, count=ref.pairs,
                        offset=ref.reply_off)
    out[:] = scores


def read_scores(buf, ref: ShmShardRef) -> np.ndarray:
    """Copy a shard's scores back out of its reply slots."""
    return np.frombuffer(buf, dtype=np.int64, count=ref.pairs,
                         offset=ref.reply_off).copy()


# -- worker-side attachment --------------------------------------------
# One mapping per segment per worker process.  The executor uses one
# live generation at a time, so stale mappings are closed as soon as a
# newer generation shows up (a terminated pool never reaches this; a
# rebuilt one must not accumulate maps of unlinked segments).

_ATTACHED: dict[str, "_shm.SharedMemory"] = {}


def _untrack(seg) -> None:
    """Drop a worker-side attachment from the ``resource_tracker``.

    CPython registers *every* ``SharedMemory`` — attach included —
    with the per-process resource tracker, which unlinks leftovers at
    process exit.  Only the executor owns unlink; a worker exiting (or
    crashing) must not tear the segment out from under its siblings,
    so the attachment is explicitly unregistered.
    """
    try:  # pragma: no cover - tracker layout is stdlib-internal
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


def attach_segment(name: str):
    """Map a shared segment by name (cached per process).

    Fault site ``shard.shm.attach`` fires here: the worker's mapping
    of the segment fails, the shard raises, and the executor retries
    it over the pickle transport.
    """
    fault_point("shard.shm.attach")
    seg = _ATTACHED.get(name)
    if seg is None:
        if _shm is None:
            raise RuntimeError("shared_memory unavailable in worker")
        for stale in list(_ATTACHED):
            try:
                _ATTACHED.pop(stale).close()
            except (OSError, BufferError):  # pragma: no cover
                pass
        seg = _shm.SharedMemory(name=name)
        _untrack(seg)
        _ATTACHED[name] = seg
    return seg


def detach_all() -> None:
    """Close every cached worker-side mapping (test hygiene)."""
    for name in list(_ATTACHED):
        try:
            _ATTACHED.pop(name).close()
        except (OSError, BufferError):  # pragma: no cover
            pass


# -- executor-side arena -----------------------------------------------

class ShmArena:
    """Executor-owned shared segment with a per-run bump allocator.

    Runs are synchronous, so :meth:`begin_run` may reuse the whole
    segment every time; it grows the segment geometrically (new
    generation, old one unlinked) when a run needs more room.
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        if _shm is None:
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable; "
                "use the pickle transport"
            )
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._seg = None
        #: Generations created over this arena's lifetime.
        self.generations = 0
        #: Segments whose unlink failed at retirement.
        self.unlink_failures = 0
        #: Retired segments still awaiting unlink (retried at close).
        self._leaked: list = []
        self._atexit = self.close
        atexit.register(self._atexit)

    # -- segment lifecycle ---------------------------------------------
    @property
    def segment_name(self) -> str | None:
        """Name of the live segment (``None`` before the first run)."""
        return self._seg.name if self._seg is not None else None

    def _ensure(self, nbytes: int) -> None:
        if self._seg is not None and self._seg.size >= nbytes:
            return
        while self._capacity < nbytes:
            self._capacity *= 2
        self.retire()
        self._seg = _shm.SharedMemory(create=True, size=self._capacity)
        self.generations += 1

    def retire(self) -> None:
        """Unlink the live segment (next run starts a new generation).

        Called when the segment must grow, when the executor rebuilds
        its pool after a worker death (a wedged worker may still hold
        a mapping — unlink is safe, the pages survive until every map
        closes), and from :meth:`close`.  Fault site
        ``shard.shm.unlink`` fires here; an unlink failure never fails
        a run, it only leaks the segment until :meth:`close` or process
        exit retries the unlink.
        """
        seg, self._seg = self._seg, None
        if seg is None:
            return
        try:
            seg.close()
        except (OSError, BufferError):  # pragma: no cover - map races
            pass
        try:
            fault_point("shard.shm.unlink")
            seg.unlink()
        except Exception:
            # Injected or organic (already unlinked, permissions):
            # degrade by leaking the segment until close() or process
            # exit retries it.
            self.unlink_failures += 1
            self._leaked.append(seg)

    def close(self) -> None:
        """Retire the live segment, unlink any segment whose earlier
        unlink failed, and drop the atexit hook once none is left."""
        self.retire()
        stuck = []
        for seg in self._leaked:
            try:
                seg.unlink()
            except FileNotFoundError:
                pass  # already gone
            except OSError:
                stuck.append(seg)  # the atexit hook retries
        self._leaked = stuck
        if self._atexit is not None and not self._leaked:
            try:
                atexit.unregister(self._atexit)
            except Exception:  # pragma: no cover - interpreter teardown
                pass
            self._atexit = None

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- per-run packing ------------------------------------------------
    @staticmethod
    def run_bytes(shards) -> int:
        """Segment bytes one run of ``(shard_id, xs, ys)`` shards needs."""
        total = 0
        for _sid, xs, ys in shards:
            pairs = len(xs)
            total = _aligned(total) + 4 * pairs          # xlens
            total = _aligned(total) + 4 * pairs          # ylens
            total += sum(len(x) for x in xs)             # xbuf
            total += sum(len(y) for y in ys)             # ybuf
            total = _aligned(total) + 8 * pairs          # replies
        return _aligned(total)

    def begin_run(self, shards) -> list[ShmShardRef]:
        """Pack one run's shards into the segment; return their refs.

        ``shards`` is a list of ``(shard_id, xs, ys)`` with ``xs`` /
        ``ys`` ragged lists of contiguous ``uint8`` code arrays.
        Overwrites whatever the previous run left behind.
        """
        self._ensure(self.run_bytes(shards))
        buf = self._seg.buf
        name = self._seg.name
        refs: list[ShmShardRef] = []
        cursor = 0
        for sid, xs, ys in shards:
            pairs = len(xs)
            xlens_off = _aligned(cursor)
            ylens_off = _aligned(xlens_off + 4 * pairs)
            xbuf_off = ylens_off + 4 * pairs
            xbuf_bytes = sum(len(x) for x in xs)
            ybuf_off = xbuf_off + xbuf_bytes
            ybuf_bytes = sum(len(y) for y in ys)
            reply_off = _aligned(ybuf_off + ybuf_bytes)
            cursor = reply_off + 8 * pairs

            np.frombuffer(buf, np.int32, count=pairs,
                          offset=xlens_off)[:] = [len(x) for x in xs]
            np.frombuffer(buf, np.int32, count=pairs,
                          offset=ylens_off)[:] = [len(y) for y in ys]
            xview = np.frombuffer(buf, np.uint8, count=xbuf_bytes,
                                  offset=xbuf_off)
            pos = 0
            for x in xs:
                xview[pos:pos + len(x)] = x
                pos += len(x)
            yview = np.frombuffer(buf, np.uint8, count=ybuf_bytes,
                                  offset=ybuf_off)
            pos = 0
            for y in ys:
                yview[pos:pos + len(y)] = y
                pos += len(y)
            refs.append(ShmShardRef(
                segment=name, shard_id=int(sid), pairs=pairs,
                xlens_off=xlens_off, ylens_off=ylens_off,
                xbuf_off=xbuf_off, xbuf_bytes=xbuf_bytes,
                ybuf_off=ybuf_off, ybuf_bytes=ybuf_bytes,
                reply_off=reply_off))
        return refs

    def scores(self, ref: ShmShardRef) -> np.ndarray:
        """A completed shard's scores, copied out of the reply region."""
        if self._seg is None or ref.segment != self._seg.name:
            raise ValueError(
                f"ref targets segment {ref.segment!r} but the live "
                f"segment is {self.segment_name!r}"
            )
        return read_scores(self._seg.buf, ref)
