"""Timing wrappers around the public functions of each layer.

:func:`install` replaces each layer function it lists with a wrapper that records a span (name, start, end, parent span, thread and
a few counts) in memory; :func:`dump` writes them to one JSON file per
process.  Pool workers inherit the wrappers through ``fork`` and dump
their own spans when their loop ends.  Nothing in the program is
modified on disk.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

_spans: list[list | None] = []
_local = threading.local()
_lock = threading.Lock()
_trace_dir: Path | None = None


def _stack() -> list[int]:
    st = getattr(_local, "stack", None)
    if st is None:
        st = _local.stack = []
    return st


def count(name: str) -> None:
    """Count a call in the calling thread; spans read the difference."""
    local = getattr(_local, "counts", None)
    if local is None:
        local = _local.counts = {}
    local[name] = local.get(name, 0) + 1


def _thread_count(name: str) -> int:
    return getattr(_local, "counts", {}).get(name, 0)


def span(name: str, attrs=None):
    """Decorator factory: ``attrs(args, kwargs, result, before)`` returns
    a dict stored with the span; ``before`` is the thread's counts at
    entry."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            st = _stack()
            parent = st[-1] if st else -1
            with _lock:
                idx = len(_spans)
                _spans.append(None)
            st.append(idx)
            before = dict(getattr(_local, "counts", {}))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                st.pop()
            t1 = time.perf_counter()
            extra = attrs(args, kwargs, result, before) if attrs else {}
            _spans[idx] = [name, t0, t1, parent, threading.get_ident(), extra]
            return result

        return inner

    return wrap


def _patch(owner, attr: str, wrapper) -> None:
    setattr(owner, attr, wrapper(getattr(owner, attr)))


def _counted(name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return inner

    return wrap


def _timed_generator(name: str):
    """Time each ``next()`` of a generator function; one span per call
    holding the summed time and the number of items."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            gen = fn(*args, **kwargs)
            busy = 0.0
            items = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    items += 1
                    yield item
            finally:
                _spans.append([name, 0.0, busy, -1, threading.get_ident(), {"items": items}])

        return inner

    return wrap


def _search_attrs(args, kwargs, result, before):
    index, patterns = args[0], args[1]
    lo, hi, steps = result
    ftab = index.ftab if index.use_ftab else None
    k = ftab.k if ftab is not None else 0
    lengths = np.fromiter(map(len, patterns), dtype=np.int64, count=len(patterns))
    # A query of length >= k reads its first min(steps, k) steps from the
    # k-mer table; the rest ran in the step loop.
    from_table = int(np.minimum(steps, k)[lengths >= k].sum()) if k else 0
    k0 = k if k and lengths.size and lengths.min() >= k else 0
    return {
        "patterns": len(patterns),
        "steps_total": int(steps.sum()),
        "executed": int(steps.sum()) - from_table,
        "loop_steps": max(0, int(steps.max()) - k0) if steps.size else 0,
        "rank_calls": _thread_count("occ2_many") - before.get("occ2_many", 0),
    }


def _n_reads(pos: int):
    def attrs(args, kwargs, result, before):
        return {"reads": len(args[pos])}

    return attrs


def _locate_attrs(args, kwargs, result, before):
    return {"lf": _thread_count("lf") - before.get("lf", 0)}


def _build_blockwise(fn):
    """Force the peak-allocation measurement and poll the work
    directory's size while the build runs."""

    @functools.wraps(fn)
    def inner(text, out_path, **kwargs):
        kwargs["measure_peak"] = True
        work = Path(kwargs.get("work_dir") or (str(out_path) + ".build"))
        peak = [0]
        done = threading.Event()

        def poll():
            while not done.wait(0.05):
                try:
                    size = sum(f.stat().st_size for f in work.rglob("*") if f.is_file())
                except OSError:
                    continue
                peak[0] = max(peak[0], size)

        t = threading.Thread(target=poll, daemon=True)
        t.start()
        t0 = time.perf_counter()
        try:
            report = fn(text, out_path, **kwargs)
        finally:
            done.set()
            t.join()
        _spans.append([
            "build.blockwise", t0, time.perf_counter(), -1, threading.get_ident(),
            {
                "stages": dict(report.stage_seconds),
                "peak_alloc_bytes": int(report.peak_alloc_bytes),
                "spill_bytes": peak[0],
            },
        ])
        return report

    return inner


def _worker(fn):
    """A forked pool worker starts with a copy of the parent's spans:
    drop them, and write the worker's own when its loop ends."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        _spans.clear()
        _local.__dict__.clear()
        try:
            return fn(*args, **kwargs)
        finally:
            dump()

    return inner


def install(trace_dir: Path) -> None:
    global _trace_dir
    _trace_dir = Path(trace_dir)
    from repro.core.bwt_structure import BWTStructure
    from repro.index import build_stream, builder, flat
    from repro.index.fm_index import FMIndex
    from repro.index.occ_table import OccTable
    from repro.io import fastq
    from repro.mapper import results
    from repro.mapper.mapper import Mapper
    from repro.sequence.sampled_sa import FullSA, SampledSA
    from repro.serving import pool, router
    from repro.serving.coalescer import MappingService
    from repro.web.server import BWaveRApp

    _patch(BWaveRApp, "__call__", span("web.call", _web_attrs))
    _patch(MappingService, "map_request", span("service.map_request"))
    _patch(router.RouterMappingService, "map_request", span("service.map_request"))
    _patch(router.ShardRouter, "map_reads", span("router.fanout", _n_reads(1)))
    _patch(router.ShardCatalog, "acquire", span("router.acquire"))
    _patch(router.Shard, "map_reads", span("router.shard", _n_reads(1)))
    _patch(pool.MapperPool, "__init__", span("pool.start"))
    _patch(pool.MapperPool, "map_reads", span("pool.map_reads", _n_reads(1)))
    _patch(pool, "_pool_worker", _worker)
    _patch(Mapper, "map_reads", span("mapper.map_reads", _n_reads(1)))
    _patch(results, "write_hits_tsv", span("tsv.write", _n_reads(0)))
    _patch(FMIndex, "search_batch", span("search.batch", _search_attrs))
    for cls in (SampledSA, FullSA):
        _patch(cls, "locate_range", span("locate.range", _locate_attrs))
    for cls in (BWTStructure, OccTable):
        _patch(cls, "occ2_many", _counted("occ2_many"))
        _patch(cls, "lf", _counted("lf"))
    _patch(fastq, "parse_fastq", _timed_generator("fastq.parse"))
    _patch(flat, "load_index_flat", span("flat.attach"))
    _patch(flat, "load_any_index_auto", span("flat.attach"))
    _patch(builder, "build_index", span("builder.build"))
    _patch(build_stream, "build_index_blockwise", _build_blockwise)


def _web_attrs(args, kwargs, result, before):
    environ = args[1]
    return {"path": environ.get("PATH_INFO", ""), "method": environ.get("REQUEST_METHOD", "")}


def dump() -> None:
    if _trace_dir is None:
        return
    # Spans still open (a request in flight at exit) stay as null so
    # parent indices keep pointing at the right span.
    doc = {"pid": os.getpid(), "spans": list(_spans)}
    path = _trace_dir / f"spans-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(path)
