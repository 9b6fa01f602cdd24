"""Dynamic micro-batching: merge concurrent small requests into shared batches.

The batch kernels (``search_batch``, the fused ``occ2_many`` descent)
are fastest at high occupancy — the software mirror of the paper's FPGA
pipeline, which only earns its throughput when queries keep every stage
busy.  A flood of small independent requests (the web tier's traffic
shape) runs those kernels at their worst occupancy: each request pays
the full per-dispatch fixed cost for a handful of reads.

:class:`RequestCoalescer` sits between request producers (web jobs, the
streaming mapper, benchmarks) and a batch ``dispatch`` callable (an
in-process :class:`~repro.mapper.mapper.Mapper`, a shared-memory
:class:`~repro.serving.pool.MapperPool`, or the simulated accelerator)
and merges pending requests into shared kernel batches under two bounds:

* **deadline** — a request is dispatched at most ``window_seconds``
  after submission, even alone;
* **size** — a batch flushes early once ``max_batch_reads`` reads are
  pending, so the window never delays an already-full batch.

Admission is **tenant-fair**: pending requests queue per tenant and the
batch builder takes one request per tenant per round-robin cycle, so a
tenant with a thousand queued requests cannot starve an interactive
tenant's single read — the interactive request rides the very next
batch.

Demultiplexing is **bit-identical**: merged results are sliced back per
request and renumbered exactly as an independent ``map_reads`` call
would have numbered them, so coalescing is invisible to callers (the
differential self-check ``coalesce`` enforces this).

When a merged dispatch fails (a pool worker died, the device path
raised), the coalescer **falls back per request** through ``fallback`` —
by convention the in-process CPU mapper, the terminal rung of the
retry → reprogram → CPU fault ladder — so one poisoned batch degrades
to independent execution instead of failing every rider.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..mapper.results import MappingResult, renumber
from ..telemetry import get_telemetry

#: Batch-size histogram buckets (reads per merged batch).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)
#: Queue-wait histogram buckets (seconds; sub-window resolution).
_WAIT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 1.0,
)
#: Recent queue waits kept for the /healthz p95 (bounded reservoir).
_WAIT_SAMPLES = 512

#: A batch executor: reads in, one :class:`MappingResult` per read out,
#: ``read_id`` numbered by position in the batch.
Dispatch = Callable[[list[str]], list[MappingResult]]


class CoalescerError(RuntimeError):
    """Base class for coalescer lifecycle errors."""


class CoalescerClosed(CoalescerError):
    """Submission after :meth:`RequestCoalescer.close`."""


class CoalescerFull(CoalescerError):
    """Admission rejected: the pending-read queue is at capacity.

    The web tier maps this to HTTP 503 + ``Retry-After``, the same
    backpressure contract as :class:`~repro.serving.executor.BacklogFull`.
    """


@dataclass(frozen=True)
class CoalescerConfig:
    """Flush policy and admission bounds.

    ``window_seconds`` is the max added latency a request can pay for the
    chance to share a batch; ``max_batch_reads`` caps merged batch size
    (flush fires on whichever bound is hit first).  ``max_queue_reads``
    is the admission cap — reads pending beyond it get
    :class:`CoalescerFull` instead of unbounded queueing.
    """

    window_seconds: float = 0.002
    max_batch_reads: int = 512
    max_queue_reads: int = 65_536

    def __post_init__(self) -> None:
        if self.window_seconds < 0:
            raise ValueError("window_seconds must be >= 0")
        if self.max_batch_reads < 1:
            raise ValueError("max_batch_reads must be >= 1")
        if self.max_queue_reads < self.max_batch_reads:
            raise ValueError("max_queue_reads must be >= max_batch_reads")


class CoalescedRequest:
    """Future-like handle for one submitted request.

    ``result()`` blocks until the request's batch has been dispatched and
    demultiplexed; results are renumbered to request-local ``read_id``s,
    bit-identical to an independent execution of the same reads.
    """

    __slots__ = (
        "reads", "tenant", "submitted_at", "deadline",
        "batch_reads", "wait_seconds", "added_wait_seconds",
        "degraded", "degraded_reason",
        "_event", "_results", "_error",
    )

    def __init__(self, reads: list[str], tenant: str, deadline: float):
        self.reads = reads
        self.tenant = tenant
        self.submitted_at = time.monotonic()
        self.deadline = deadline
        #: Size of the merged batch this request rode in (1-request
        #: batches mean no sharing happened).
        self.batch_reads = 0
        #: Queue wait: submission to batch dispatch start.
        self.wait_seconds = 0.0
        #: The part of the wait the coalescing *window* added: dispatch
        #: start minus the moment the request could first have run
        #: (submission, or the dispatcher coming free, whichever is
        #: later).  Head-of-line time behind an in-flight batch is
        #: queueing at saturation, not a cost of coalescing, and is
        #: excluded here.  This is the acceptance metric bounded by
        #: ``window_seconds``.
        self.added_wait_seconds = 0.0
        #: True when the merged dispatch failed and this request was
        #: recovered through the per-request fallback path.
        self.degraded = False
        self.degraded_reason = ""
        self._event = threading.Event()
        self._results: list[MappingResult] | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> list[MappingResult]:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"coalesced request ({len(self.reads)} reads, tenant "
                f"{self.tenant!r}) not completed within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._results is not None
        return self._results

    def _complete(self, results: list[MappingResult]) -> None:
        self._results = results
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()


class RequestCoalescer:
    """Deadline-bounded, tenant-fair micro-batcher over a batch executor.

    Parameters
    ----------
    dispatch:
        Batch executor for merged read lists (``MapperPool.map_reads``,
        an in-process ``Mapper.map_reads``, ...).  Must return one
        result per read, numbered by batch position.
    fallback:
        Per-request recovery executor used when a merged dispatch
        raises; the convention is the in-process CPU mapper — the same
        terminal rung as the accelerator's retry → reprogram → CPU
        ladder.  ``None`` retries each request through ``dispatch``
        individually (so one bad rider cannot fail the others).
    config:
        Flush policy and admission bounds.
    name:
        Telemetry label.
    """

    def __init__(
        self,
        dispatch: Dispatch,
        fallback: Dispatch | None = None,
        config: CoalescerConfig | None = None,
        name: str = "coalesce",
    ):
        self.dispatch = dispatch
        self.fallback = fallback
        self.config = config if config is not None else CoalescerConfig()
        self.name = name
        self._lock = threading.RLock()  # reentrant: stats() under _cv is legal
        self._cv = threading.Condition(self._lock)
        self._queues: dict[str, deque[CoalescedRequest]] = {}
        self._rr: deque[str] = deque()  # tenant round-robin order
        self._pending_reads = 0
        self._closed = False
        self._thread: threading.Thread | None = None
        # Stats (guarded by _lock).
        self._requests_total = 0
        self._reads_total = 0
        self._batches_total = 0
        self._coalesced_requests = 0
        self._fallbacks = 0
        self._last_batch_reads = 0
        self._wait_samples: deque[float] = deque(maxlen=_WAIT_SAMPLES)
        self._added_wait_samples: deque[float] = deque(maxlen=_WAIT_SAMPLES)
        #: When the dispatcher last came free (monotonic); requests
        #: arriving before this could not have run earlier anyway.
        self._dispatch_free_at = 0.0

    # -- submission --------------------------------------------------------

    def submit(
        self, reads: Sequence[str], tenant: str = "default"
    ) -> CoalescedRequest:
        """Enqueue one request; returns immediately with a result handle."""
        reads = list(reads)
        deadline = time.monotonic() + self.config.window_seconds
        req = CoalescedRequest(reads, str(tenant), deadline)
        if not reads:  # nothing to merge; complete without a batch slot
            req._complete([])
            return req
        with self._cv:
            if self._closed:
                raise CoalescerClosed(f"{self.name}: coalescer is closed")
            if self._pending_reads + len(reads) > self.config.max_queue_reads:
                get_telemetry().metrics.counter(
                    "coalesce_rejected_total",
                    "Requests rejected by the coalescer admission cap",
                ).inc()
                raise CoalescerFull(
                    f"{self.name}: {self._pending_reads} reads pending "
                    f">= cap {self.config.max_queue_reads}"
                )
            q = self._queues.get(req.tenant)
            if q is None:
                q = self._queues[req.tenant] = deque()
                self._rr.append(req.tenant)
            q.append(req)
            self._pending_reads += len(reads)
            self._requests_total += 1
            self._reads_total += len(reads)
            self._ensure_thread()
            self._cv.notify_all()
        get_telemetry().metrics.gauge(
            "coalesce_queue_depth", "Reads pending in the request coalescer"
        ).set(self._pending_reads)
        return req

    def map_reads(
        self,
        reads: Sequence[str],
        tenant: str = "default",
        timeout: float | None = 60.0,
    ) -> list[MappingResult]:
        """Submit and wait: the synchronous convenience wrapper."""
        return self.submit(reads, tenant=tenant).result(timeout=timeout)

    def map_many(
        self, request_lists: Iterable[Sequence[str]], tenant: str = "default"
    ) -> list[list[MappingResult]]:
        """Merge a known set of requests through the batch path, bypassing
        the wait window (no flusher thread, no deadline).

        Runs the exact merge → dispatch → demux code the background
        flusher uses, chunked at ``max_batch_reads``, which makes it the
        deterministic entry point for parity tests and benchmarks.
        """
        requests = [
            CoalescedRequest(list(reads), str(tenant), deadline=0.0)
            for reads in request_lists
        ]
        batch: list[CoalescedRequest] = []
        size = 0
        for req in requests:
            if not req.reads:
                req._complete([])
                continue
            if batch and size + len(req.reads) > self.config.max_batch_reads:
                self._run_batch(batch)
                batch, size = [], 0
            batch.append(req)
            size += len(req.reads)
        if batch:
            self._run_batch(batch)
        return [req.result(timeout=0.0) for req in requests]

    # -- lifecycle ---------------------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._flusher, name=f"{self.name}-flusher", daemon=True
            )
            self._thread.start()

    def flush(self) -> None:
        """Wake the flusher so pending requests dispatch without waiting
        out the window (used by shutdown paths and tests)."""
        with self._cv:
            for q in self._queues.values():
                for req in q:
                    req.deadline = 0.0
            self._cv.notify_all()

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; pending ones are drained, not failed."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            for q in self._queues.values():
                for req in q:
                    req.deadline = 0.0  # drain immediately
            self._cv.notify_all()
        if wait and self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- flusher -----------------------------------------------------------

    def _flusher(self) -> None:
        while True:
            with self._cv:
                while self._pending_reads == 0:
                    if self._closed:
                        return
                    self._cv.wait()
                # Wait for the size bound or the oldest request's deadline,
                # whichever comes first.
                while self._pending_reads < self.config.max_batch_reads:
                    now = time.monotonic()
                    oldest = min(
                        q[0].deadline for q in self._queues.values() if q
                    )
                    if now >= oldest or self._closed:
                        break
                    self._cv.wait(timeout=oldest - now)
                    if self._pending_reads == 0:
                        break
                if self._pending_reads == 0:
                    continue
                batch = self._take_batch_locked()
            self._run_batch(batch)

    def _take_batch_locked(self) -> list[CoalescedRequest]:
        """Round-robin across tenants: one whole request per tenant per
        cycle until the batch is full.  The first request is always
        admitted even when it alone exceeds ``max_batch_reads`` (a giant
        request must not deadlock the queue)."""
        batch: list[CoalescedRequest] = []
        size = 0
        while self._rr:
            progressed = False
            for _ in range(len(self._rr)):
                if not self._rr:
                    break
                tenant = self._rr[0]
                q = self._queues.get(tenant)
                if not q:
                    # Empty tenant queue: drop it from the rotation.
                    self._rr.popleft()
                    self._queues.pop(tenant, None)
                    continue
                head = q[0]
                if batch and size + len(head.reads) > self.config.max_batch_reads:
                    return batch
                q.popleft()
                self._pending_reads -= len(head.reads)
                batch.append(head)
                size += len(head.reads)
                progressed = True
                self._rr.rotate(-1)
                if size >= self.config.max_batch_reads:
                    return batch
            if not progressed:
                break
        return batch

    # -- dispatch + demux --------------------------------------------------

    def _run_batch(self, batch: list[CoalescedRequest]) -> None:
        if not batch:
            return
        tel = get_telemetry()
        started = time.monotonic()
        free_at = self._dispatch_free_at
        merged: list[str] = []
        for req in batch:
            req.wait_seconds = max(0.0, started - req.submitted_at)
            req.added_wait_seconds = max(
                0.0, started - max(req.submitted_at, free_at)
            )
            merged.extend(req.reads)
        for req in batch:
            req.batch_reads = len(merged)
        try:
            results = self.dispatch(merged)
            if len(results) != len(merged):
                raise CoalescerError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(merged)} reads"
                )
            offset = 0
            for req in batch:
                req._complete(
                    renumber(results[offset : offset + len(req.reads)], -offset)
                )
                offset += len(req.reads)
        except Exception as exc:
            self._fallback_batch(batch, exc)
        self._dispatch_free_at = time.monotonic()
        with self._lock:
            self._batches_total += 1
            self._last_batch_reads = len(merged)
            if len(batch) > 1:
                self._coalesced_requests += len(batch)
            for req in batch:
                self._wait_samples.append(req.wait_seconds)
                self._added_wait_samples.append(req.added_wait_seconds)
        m = tel.metrics
        m.histogram(
            "coalesce_batch_size",
            "Reads per merged coalescer batch",
            buckets=_BATCH_SIZE_BUCKETS,
        ).observe(len(merged))
        wait_hist = m.histogram(
            "coalesce_wait_seconds",
            "Queue wait per coalesced request (submission to dispatch)",
            buckets=_WAIT_BUCKETS,
        )
        for req in batch:
            wait_hist.observe(req.wait_seconds)
        if len(batch) > 1:
            m.counter(
                "coalesced_jobs_total",
                "Requests that shared a merged kernel batch",
            ).inc(len(batch))
        m.counter(
            "coalesce_batches_total", "Merged batches dispatched"
        ).inc()
        m.gauge(
            "coalesce_queue_depth", "Reads pending in the request coalescer"
        ).set(self._pending_reads)

    def _fallback_batch(self, batch: list[CoalescedRequest], exc: Exception) -> None:
        """Merged dispatch failed: recover each rider independently.

        With a ``fallback`` executor (the CPU mapper), requests complete
        DEGRADED-but-correct; without one, each request retries through
        ``dispatch`` alone so a poisoned rider fails only itself.
        """
        tel = get_telemetry()
        reason = f"merged batch failed ({type(exc).__name__}: {exc})"
        runner = self.fallback if self.fallback is not None else self.dispatch
        for req in batch:
            tel.metrics.counter(
                "coalesce_fallback_total",
                "Requests recovered per-request after a failed merged batch",
            ).inc()
            with self._lock:
                self._fallbacks += 1
            try:
                results = runner(list(req.reads))
                if len(results) != len(req.reads):
                    raise CoalescerError(
                        f"fallback returned {len(results)} results for "
                        f"{len(req.reads)} reads"
                    )
                req.degraded = True
                req.degraded_reason = reason
                req._complete(list(results))
            except Exception as fexc:  # noqa: BLE001 - surfaced on the handle
                req._fail(
                    CoalescerError(f"{reason}; fallback also failed: {fexc}")
                )

    # -- introspection -----------------------------------------------------

    def pending_reads(self) -> int:
        with self._lock:
            return self._pending_reads

    def stats(self) -> dict:
        """JSON-able state document (surfaced on ``/healthz``)."""
        def _p95(samples: deque) -> float:
            waits = sorted(samples)
            return waits[int(0.95 * (len(waits) - 1))] if waits else 0.0

        with self._lock:
            p95 = _p95(self._wait_samples)
            added_p95 = _p95(self._added_wait_samples)
            batches = self._batches_total
            return {
                "window_ms": self.config.window_seconds * 1e3,
                "max_batch_reads": self.config.max_batch_reads,
                "max_queue_reads": self.config.max_queue_reads,
                "pending_reads": self._pending_reads,
                "pending_requests": sum(len(q) for q in self._queues.values()),
                "tenants": len(self._queues),
                "requests_total": self._requests_total,
                "reads_total": self._reads_total,
                "batches_total": batches,
                "coalesced_requests": self._coalesced_requests,
                "fallbacks": self._fallbacks,
                "last_batch_reads": self._last_batch_reads,
                "mean_batch_reads": (
                    self._reads_total / batches if batches else 0.0
                ),
                "wait_p95_ms": p95 * 1e3,
                "added_wait_p95_ms": added_p95 * 1e3,
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        return (
            f"RequestCoalescer(name={self.name!r}, "
            f"window={self.config.window_seconds * 1e3:.1f}ms, "
            f"max_batch={self.config.max_batch_reads}, "
            f"pending_reads={self.pending_reads()})"
        )


class MappingService:
    """One served mapping target plus the coalescer that batches requests
    onto it — the object the web tier's ``POST /map`` handler talks to.

    ``target`` is either

    * a query index (``serve --map-index``): merged batches dispatch
      through a shared-memory :class:`~repro.serving.pool.MapperPool`
      (``pool_workers > 0``) or the in-process mapper, which is also the
      per-request fallback rung; or
    * a :class:`~repro.serving.router.ShardRouter` (``serve --catalog``):
      merged batches fan out across the whole catalog, and a failed batch
      retries each request through the router alone.  A request naming a
      shard subset dispatches alone (different subsets cannot share a
      batch).

    ``coalesce=False`` bypasses merging (each request dispatches alone,
    through the same fallback rung) — the ablation/bench control, and
    ``serve --no-coalesce``.  ``pool_workers``, ``locate`` and
    ``start_method`` apply to an index target only.
    """

    def __init__(
        self,
        target,
        *,
        pool_workers: int = 0,
        locate: bool = True,
        coalesce: bool = True,
        config: CoalescerConfig | None = None,
        start_method: str | None = None,
    ):
        from .router import ShardRouter

        self.coalesce = bool(coalesce)
        self.locate = bool(locate)
        self.pool = None
        if isinstance(target, ShardRouter):
            self.index, self.router = None, target
            dispatch: Dispatch = target.map_reads
            fallback: Dispatch | None = None
        else:
            from ..mapper.mapper import Mapper

            self.index, self.router = target, None
            dispatch = fallback = Mapper(target, locate=self.locate).map_reads
            if pool_workers > 0:
                from .pool import MapperPool

                self.pool = MapperPool(
                    target, workers=pool_workers, start_method=start_method
                )
                dispatch = lambda reads: self.pool.map_reads(
                    reads, locate=self.locate
                )
        self.coalescer = RequestCoalescer(
            dispatch,
            fallback=fallback,
            config=config,
            name="mapping-service" if self.router is None else "router-service",
        )
        self._closed = False

    def map_request(
        self,
        reads: Sequence[str],
        tenant: str = "default",
        timeout: float | None = 60.0,
        shards: Sequence[str] | None = None,
    ) -> CoalescedRequest:
        """Map one request; blocks until its (possibly shared) batch ran.

        ``shards`` restricts a catalog target to the named shards.
        Returns the completed handle so callers can read wait/degraded
        bookkeeping next to the results.
        """
        if self._closed:
            raise CoalescerClosed(f"{self.coalescer.name} is closed")
        if shards is not None:
            req = CoalescedRequest(list(reads), str(tenant), deadline=0.0)
            req._complete(self.router.map_reads(req.reads, shards=shards))
            return req
        if not self.coalesce:
            # Bypass path: dispatch alone, but keep the same fallback rung.
            req = CoalescedRequest(list(reads), str(tenant), deadline=0.0)
            if not req.reads:
                req._complete([])
                return req
            try:
                req._complete(self.coalescer.dispatch(list(req.reads)))
            except Exception as exc:
                self.coalescer._fallback_batch([req], exc)
                req.result(timeout=0.0)  # re-raise if fallback failed too
            return req
        req = self.coalescer.submit(reads, tenant=tenant)
        req.result(timeout=timeout)
        return req

    def stats(self) -> dict:
        """The ``/healthz`` document: the coalescer block for an index
        target, the router block (with the coalescer nested) for a
        catalog."""
        if self.router is not None:
            doc = self.router.stats()
            doc["coalescer"] = self.coalescer.stats()
            doc["coalesce"] = self.coalesce
            return doc
        doc = self.coalescer.stats()
        doc["coalesce"] = self.coalesce
        doc["pool_workers"] = self.pool.workers if self.pool is not None else 0
        doc["locate"] = self.locate
        return doc

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.coalescer.close()
        if self.pool is not None:
            self.pool.close()
        if self.router is not None:
            self.router.catalog.close()

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
