"""Persistent index serving: shared-memory publication and worker pools.

The batch and web layers historically paid an index copy per consumer —
``multiprocessing.Pool(initializer=...)`` pickled the whole
:class:`~repro.index.fm_index.FMIndex` into every worker, and the web
server spawned an unbounded daemon thread per submitted job.  This
package provides the serving primitives the flat container
(:mod:`repro.index.flat`) makes possible:

* :mod:`repro.serving.shared` — publish an index once, as one
  ``multiprocessing.shared_memory`` block (or a memory-mapped flat file),
  and attach any number of processes to the same physical pages;
* :mod:`repro.serving.pool` — :class:`MapperPool`, a persistent pool of
  worker processes that attach to a published index and serve read
  batches from a task queue;
* :mod:`repro.serving.executor` — :class:`BoundedExecutor`, a bounded
  thread pool with backlog rejection for web job execution;
* :mod:`repro.serving.coalescer` — :class:`RequestCoalescer`, a
  deadline-bounded tenant-fair micro-batcher that merges concurrent
  small requests into shared kernel batches, and
  :class:`MappingService`, the one served-mapping service: a coalescer
  (with its bypass, fallback rung, stats and lifecycle) over either a
  single index or a shard router;
* :mod:`repro.serving.router` — :class:`ShardCatalog` +
  :class:`ShardRouter`, the sharded multi-genome tier: N named
  references, LRU activation under a memory budget, and scatter-gather
  fan-out with stable cross-shard hit ordering.
"""

from .coalescer import (
    CoalescedRequest,
    CoalescerClosed,
    CoalescerConfig,
    CoalescerError,
    CoalescerFull,
    MappingService,
    RequestCoalescer,
)
from .executor import BacklogFull, BoundedExecutor
from .pool import MapperPool, PoolBatchOutcome
from .router import (
    RouterError,
    Shard,
    ShardCatalog,
    ShardRouter,
    UnknownShardError,
)
from .shared import (
    FlatFileBlock,
    SharedIndexBlock,
    attach_index,
    publish_index,
)

__all__ = [
    "BacklogFull",
    "BoundedExecutor",
    "CoalescedRequest",
    "CoalescerClosed",
    "CoalescerConfig",
    "CoalescerError",
    "CoalescerFull",
    "FlatFileBlock",
    "MapperPool",
    "MappingService",
    "PoolBatchOutcome",
    "RequestCoalescer",
    "RouterError",
    "Shard",
    "ShardCatalog",
    "ShardRouter",
    "SharedIndexBlock",
    "UnknownShardError",
    "attach_index",
    "publish_index",
]
