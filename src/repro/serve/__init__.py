"""Asynchronous micro-batching alignment service over the BPBC engines.

The batch engines of :mod:`repro.core` score 64 pairs per lane word —
but only if someone *fills* the lanes.  This package is that someone:
a continuously running service that accepts individual ``(query,
subject, scheme, tau)`` requests, micro-batches them on a
size-or-latency trigger, length-bins and lane-packs them, fans batches
out to a worker pool over a pluggable engine, memoises exact scores in
an LRU, and reports occupancy/latency statistics.

Layers (each its own module):

* :mod:`~repro.serve.queue` — bounded request queue, futures,
  deadlines, backpressure.
* :mod:`~repro.serve.packer` — length binning and lane packing.
* :mod:`~repro.serve.engine_pool` — worker threads over the
  :mod:`repro.engines` table.
* :mod:`~repro.serve.cache` — keyed LRU over exact scores.
* :mod:`~repro.serve.scheduler` — SLO-aware adaptive scheduling:
  cost-model latency prediction, admission control, shard-width
  hints.
* :mod:`~repro.serve.stats` — service counters and percentiles.
* :mod:`~repro.serve.service` — the :class:`AlignmentService` facade.
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — a
  line-JSON TCP front end (``python -m repro serve``) and its client
  (``python -m repro.serve.client``).
"""

from .cache import ResultCache, cache_key
from .engine_pool import EnginePool, ShardedEngine
from .errors import (AdmissionRejected, DeadlineExceededError,
                     EngineFailedError, QueueFullError, ServeError,
                     ServiceStoppedError)
from .packer import PackedBatch, bin_requests, pack_requests
from .queue import AlignmentRequest, AlignmentResult, RequestQueue
from .scheduler import AdaptiveScheduler
from .server import DEFAULT_PORT, AlignmentServer
from .service import AlignmentService
from .stats import ServiceStats

__all__ = [
    "AlignmentService",
    "AlignmentServer",
    "AlignmentRequest",
    "AlignmentResult",
    "RequestQueue",
    "PackedBatch",
    "pack_requests",
    "bin_requests",
    "EnginePool",
    "ShardedEngine",
    "ResultCache",
    "cache_key",
    "ServiceStats",
    "AdaptiveScheduler",
    "ServeError",
    "QueueFullError",
    "AdmissionRejected",
    "DeadlineExceededError",
    "ServiceStoppedError",
    "EngineFailedError",
    "DEFAULT_PORT",
]
