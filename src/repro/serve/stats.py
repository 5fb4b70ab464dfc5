"""Service-level counters: occupancy, latency percentiles, queue depth.

One :class:`ServiceStats` instance is shared by the queue, packer,
engine pool and cache paths of a service.  Everything is guarded by a
single lock — these are tiny critical sections next to an engine call.

Lane occupancy is the quantity the whole subsystem exists to improve:
a batch of ``P`` pairs at word width ``w`` consumes ``ceil(P / w)``
lane words = ``ceil(P / w) * w`` lane slots, of which ``P`` do useful
work.  A naive one-request-per-call client therefore runs at ``1/w``
occupancy; the micro-batcher's job is to keep the mean near 1.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = ["ServiceStats"]


class ServiceStats:
    """Thread-safe counters + a bounded latency reservoir."""

    def __init__(self, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.expired = 0
        self.failed = 0
        self.cache_hits = 0
        self.batches = 0
        self.lanes_used = 0
        self.lane_slots = 0
        self.shards = 0
        self.shard_pairs = 0
        self.recovered = 0
        self.recovered_by_engine: dict[str, int] = {}
        self.admission_rejected = 0
        self.scheduled_batches = 0
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._shard_times: deque[float] = deque(maxlen=latency_window)
        self._batch_times: deque[float] = deque(maxlen=latency_window)
        self._queue_gauge = None
        self._resilience_gauge = None
        self._scheduler_gauge = None

    # -- recording hooks ------------------------------------------------
    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_expired(self) -> None:
        with self._lock:
            self.expired += 1

    def record_failed(self, count: int = 1) -> None:
        with self._lock:
            self.failed += count

    def record_cache_hit(self, latency_s: float) -> None:
        with self._lock:
            self.cache_hits += 1
            self.completed += 1
            self._latencies.append(latency_s)

    def record_batch(self, pairs: int, word_bits: int,
                     elapsed_s: float | None = None) -> None:
        """Account one dispatched batch's lane usage (and optionally
        its engine wall time, feeding the batch-time percentiles the
        adaptive scheduler and benches read)."""
        slots = -(-pairs // word_bits) * word_bits
        with self._lock:
            self.batches += 1
            self.lanes_used += pairs
            self.lane_slots += slots
            if elapsed_s is not None:
                self._batch_times.append(elapsed_s)

    def record_completed(self, latency_s: float) -> None:
        with self._lock:
            self.completed += 1
            self._latencies.append(latency_s)

    def record_shard(self, pairs: int, elapsed_s: float) -> None:
        """Account one completed shard of a sharded engine run."""
        with self._lock:
            self.shards += 1
            self.shard_pairs += pairs
            self._shard_times.append(elapsed_s)

    def record_recovered(self, count: int, engine: str) -> None:
        """Account requests rescued on the fallback chain after their
        primary engine failed (``engine`` names the chain engine that
        produced the recovered scores)."""
        with self._lock:
            self.recovered += count
            self.recovered_by_engine[engine] = \
                self.recovered_by_engine.get(engine, 0) + count

    def record_admission_rejected(self) -> None:
        """Account one request shed by SLO admission control."""
        with self._lock:
            self.admission_rejected += 1

    def record_scheduled(self) -> None:
        """Account one batch planned by the adaptive scheduler."""
        with self._lock:
            self.scheduled_batches += 1

    def set_queue_gauge(self, fn) -> None:
        """Register a zero-arg callable reporting current queue depth."""
        self._queue_gauge = fn

    def set_resilience_gauge(self, fn) -> None:
        """Register a zero-arg callable reporting fallback-chain state
        (per-engine breaker snapshots etc.); its dict is merged into
        :meth:`snapshot` under the ``"resilience"`` key."""
        self._resilience_gauge = fn

    def set_scheduler_gauge(self, fn) -> None:
        """Register a zero-arg callable reporting adaptive-scheduler
        state (learned rates, admit/reject counts); its dict appears
        in :meth:`snapshot` under the ``"scheduler"`` key."""
        self._scheduler_gauge = fn

    # -- derived --------------------------------------------------------
    @property
    def mean_lane_occupancy(self) -> float:
        """Useful lanes / consumed lane slots across all batches."""
        with self._lock:
            return self.lanes_used / self.lane_slots if self.lane_slots \
                else 0.0

    @property
    def queue_depth(self) -> int:
        fn = self._queue_gauge
        return int(fn()) if fn is not None else 0

    def latency_percentiles(self) -> tuple[float, float]:
        """(p50, p99) request latency in milliseconds over the window."""
        with self._lock:
            lats = list(self._latencies)
        if not lats:
            return (0.0, 0.0)
        arr = np.asarray(lats) * 1e3
        return (float(np.percentile(arr, 50)),
                float(np.percentile(arr, 99)))

    def shard_time_percentiles(self) -> tuple[float, float]:
        """(p50, p99) per-shard compute time in ms over the window."""
        with self._lock:
            times = list(self._shard_times)
        if not times:
            return (0.0, 0.0)
        arr = np.asarray(times) * 1e3
        return (float(np.percentile(arr, 50)),
                float(np.percentile(arr, 99)))

    def batch_time_percentiles(self) -> tuple[float, float]:
        """(p50, p99) per-batch engine wall time in ms over the window."""
        with self._lock:
            times = list(self._batch_times)
        if not times:
            return (0.0, 0.0)
        arr = np.asarray(times) * 1e3
        return (float(np.percentile(arr, 50)),
                float(np.percentile(arr, 99)))

    def snapshot(self) -> dict:
        """All counters and derived figures as one JSON-able dict."""
        p50, p99 = self.latency_percentiles()
        sp50, sp99 = self.shard_time_percentiles()
        with self._lock:
            snap = {
                "requests_submitted": self.submitted,
                "requests_completed": self.completed,
                "requests_rejected": self.rejected,
                "requests_expired": self.expired,
                "requests_failed": self.failed,
                "cache_hits": self.cache_hits,
                "batches": self.batches,
                "lanes_used": self.lanes_used,
                "lane_slots": self.lane_slots,
                "shards": self.shards,
                "shard_pairs": self.shard_pairs,
                "requests_recovered": self.recovered,
                "recovered_by_engine": dict(self.recovered_by_engine),
                "admission_rejected": self.admission_rejected,
                "scheduled_batches": self.scheduled_batches,
            }
        snap["mean_lane_occupancy"] = round(self.mean_lane_occupancy, 4)
        snap["queue_depth"] = self.queue_depth
        snap["latency_p50_ms"] = round(p50, 3)
        snap["latency_p99_ms"] = round(p99, 3)
        snap["shard_p50_ms"] = round(sp50, 3)
        snap["shard_p99_ms"] = round(sp99, 3)
        bp50, bp99 = self.batch_time_percentiles()
        snap["batch_p50_ms"] = round(bp50, 3)
        snap["batch_p99_ms"] = round(bp99, 3)
        gauge = self._resilience_gauge
        if gauge is not None:
            snap["resilience"] = gauge()
        gauge = self._scheduler_gauge
        if gauge is not None:
            snap["scheduler"] = gauge()
        return snap

    def render(self) -> str:
        """Human-readable multi-line summary."""
        snap = self.snapshot()
        width = max(len(k) for k in snap)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in
                         snap.items())
