"""Per-layer metrics from the spans the traced processes wrote.

Each metric is computed from the spans of one layer's public functions
(see ``tracer.install``), from counts the load generator and the
program's own ``/healthz`` gave the workload, or from the oracle.  A
layer that did not run in a workload reports 0.
"""

from __future__ import annotations

import json


def _load(trace_dir) -> list[dict]:
    """All spans of all traced processes, each a dict with its process
    (``proc``), its own index and its parent's name."""
    out = []
    for proc, f in enumerate(sorted(trace_dir.glob("spans-*.json"))):
        spans = json.loads(f.read_text())["spans"]
        for i, span in enumerate(spans):
            if span is None:
                continue
            name, t0, t1, parent, _thread, attrs = span
            out.append({
                "name": name, "t0": t0, "t1": t1, "proc": proc, "idx": i,
                "parent": parent, "parent_name": spans[parent][0] if parent >= 0 and spans[parent] else None,
                "attrs": attrs,
            })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run) -> dict[str, float]:
    all_spans = _load(run.work / "trace")
    windows = run.notes.get("windows", [])

    def in_window(s) -> bool:
        return any(t0 <= s["t0"] <= t1 for t0, t1 in windows)

    def spans(name: str, windowed: bool = True) -> list[dict]:
        out = [s for s in all_spans if s["name"] == name]
        return [s for s in out if in_window(s)] if windowed else out

    def dur(ss) -> float:
        return sum(s["t1"] - s["t0"] for s in ss)

    def attr(ss, key) -> float:
        return sum(s["attrs"].get(key, 0) for s in ss)

    def busy_share(ss) -> float:
        """Layer seconds per measured wall second of each process it ran
        in (above 1 when threads of one process overlap in the layer)."""
        wall = sum((t1 - t0) * len({s["proc"] for s in ss if t0 <= s["t0"] <= t1})
                   for t0, t1 in windows)
        return _ratio(dur(ss), wall)

    m: dict[str, float] = {}

    # web.server: handler self time minus the mapping service call.
    calls = [s for s in spans("web.call") if s["attrs"].get("path") == "/map"]
    inner: dict[tuple, float] = {}
    for s in spans("service.map_request"):
        key = (s["proc"], s["parent"])
        inner[key] = inner.get(key, 0.0) + s["t1"] - s["t0"]
    self_s = dur(calls) - sum(inner.get((s["proc"], s["idx"]), 0.0) for s in calls)
    m["web.handler_ms"] = 1e3 * _ratio(self_s, len(calls))

    for key in ("coalescer.requests_per_batch", "coalescer.batch_reads_mean",
                "coalescer.wait_p95_ms", "coalescer.fallbacks",
                "router.activations_per_request", "router.evictions_per_request"):
        m[key] = float(run.notes.get(key, 0.0))

    for name, key in (("router.fanout", "router.fanout_ms"),
                      ("router.acquire", "router.acquire_ms"),
                      ("router.shard", "router.shard_ms")):
        ss = spans(name)
        m[key] = 1e3 * _ratio(dur(ss), len(ss))

    ss = spans("pool.start")
    m["pool.start_ms"] = 1e3 * _ratio(dur(ss), len(ss))
    ss = spans("pool.map_reads")
    m["pool.ms_per_read"] = 1e3 * _ratio(dur(ss), attr(ss, "reads"))

    ss = spans("mapper.map_reads")
    reads = attr(ss, "reads")
    m["mapper.reads_per_call"] = _ratio(reads, len(ss))
    m["mapper.ms_per_call"] = 1e3 * _ratio(dur(ss), len(ss))
    ss = spans("tsv.write")
    m["tsv.write_ms_per_read"] = 1e3 * _ratio(dur(ss), attr(ss, "reads"))

    ss = spans("search.batch")
    searched = attr(ss, "patterns") / 2
    executed = attr(ss, "executed")
    m["search.ms_per_call"] = 1e3 * _ratio(dur(ss), len(ss))
    m["search.patterns_per_call"] = _ratio(attr(ss, "patterns"), len(ss))
    m["search.us_per_step"] = 1e6 * _ratio(dur(ss), executed)
    m["search.rank_calls_per_step"] = _ratio(attr(ss, "rank_calls"), attr(ss, "loop_steps"))
    m["search.busy_share"] = busy_share(ss)
    m["input.steps_per_read"] = _ratio(executed, searched)
    m["input.ftab_step_share"] = _ratio(attr(ss, "steps_total") - executed, attr(ss, "steps_total"))

    ss = spans("locate.range")
    m["locate.ms_per_read"] = 1e3 * _ratio(dur(ss), reads)
    m["locate.calls_per_read"] = _ratio(len(ss), reads)
    m["locate.lf_calls_per_read"] = _ratio(attr(ss, "lf"), reads)
    m["locate.busy_share"] = busy_share(ss)

    # Parse spans hold the summed time of all next() calls as t1 - t0.
    ss = spans("fastq.parse", windowed=False)
    m["fastq.parse_ms_per_read"] = 1e3 * _ratio(dur(ss), attr(ss, "items"))

    ss = [s for s in spans("flat.attach") if s["parent_name"] != "flat.attach"]
    m["flat.attach_ms"] = 1e3 * _ratio(dur(ss), len(ss))
    ss = spans("builder.build", windowed=False)
    m["builder.build_s"] = _ratio(dur(ss), len(ss))

    ss = spans("build.blockwise", windowed=False)
    a = ss[0]["attrs"] if ss else {}
    for stage in ("sa", "bwt", "encode", "finalize"):
        m[f"build.{stage}_s"] = float(a.get("stages", {}).get(stage, 0.0))
    m["build.spill_mb"] = a.get("spill_bytes", 0) / 1e6
    m["build.peak_alloc_mb"] = a.get("peak_alloc_bytes", 0) / 1e6

    for key in ("input.mapped_share", "input.rows_per_mapped_read", "trace.overhead_share",
                "loadgen.late_ms_p90", "loadgen.requests", "loadgen.saturation_requests"):
        m[key] = float(run.notes.get(key, 0.0))
    return m
