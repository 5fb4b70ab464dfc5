"""Sharded multi-core bulk execution for the BPBC engines.

The paper's bulk technique packs 64 independent Smith-Waterman
instances into each machine word; this package scales that across
*cores* the way SWAPHI (Liu & Schmidt, 2014) and SALoBa (Park et
al., 2023) scale alignment across compute units — cost-balanced work
partitions fanned out to parallel workers:

* :mod:`~repro.shard.partition` — greedy LPT partitioning on
  ``len(x) * len(y)`` pair costs.
* :mod:`~repro.shard.worker` — spawn-safe worker protocol: packed
  ``uint8`` payloads, per-process engine construction, length-binned
  sentinel padding for ragged shards.
* :mod:`~repro.shard.shm` — zero-copy shared-memory transport:
  :class:`ShmArena` bump-allocates payloads and reply slots in
  ``multiprocessing.shared_memory`` segments so only tiny descriptors
  cross the pool pipe (``transport="shm"``/``"auto"``).
* :mod:`~repro.shard.executor` — :class:`ShardExecutor` (process
  pool, per-shard timing, crash/timeout containment, transport
  selection) and the one-shot :func:`shard_bulk_max_scores`.
* :mod:`~repro.shard.errors` — :class:`ShardError`, which carries the
  failed shard's pair indices for retry/skip.

Entry points higher up the stack: ``workers=`` on
:func:`repro.filter.screening.bulk_max_scores` /
:func:`~repro.filter.screening.screen_pairs` /
:func:`repro.filter.database.search_database`,
:class:`repro.serve.engine_pool.ShardedEngine` for the serving path,
and ``--workers`` on the CLI.
"""

from .errors import ShardError
from .executor import (TRANSPORTS, ShardExecutor, ShardRunResult,
                       ShardTiming, default_workers,
                       shard_bulk_max_scores)
from .partition import pair_costs, partition_lpt, shard_loads
from .shm import MIN_SHM_BYTES, ShmArena, ShmShardRef, shm_available
from .worker import ShardPayload

__all__ = [
    "ShardError",
    "ShardExecutor",
    "ShardRunResult",
    "ShardTiming",
    "ShardPayload",
    "TRANSPORTS",
    "MIN_SHM_BYTES",
    "ShmArena",
    "ShmShardRef",
    "shm_available",
    "default_workers",
    "shard_bulk_max_scores",
    "pair_costs",
    "partition_lpt",
    "shard_loads",
]
