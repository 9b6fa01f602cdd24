"""End-to-end benchmark of the ``serve``, ``map`` and ``index`` commands.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

The program runs as separate processes started from the checkout's
``src`` directory; this process only generates inputs from ``--seed``,
drives the commands (and, for ``serve``, an HTTP load generator),
checks every output against an exact-match oracle that shares no code
with the program, and checks that nothing is left behind.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, the per-layer metrics with ``--trace 1``).  A table
of the same numbers goes to standard error.

Workload parameters (sizes, the fixed open-loop rate, latency limits)
and the layer -> end-to-end predictions live in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import loadgen  # noqa: E402
from inputs import Oracle, make_reads, make_reference, write_fasta, write_fastq  # noqa: E402
from proc import Program  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())


class InvalidRun(Exception):
    """The run cannot be reported (e.g. the load generator ran late)."""


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.cfg = SPEC["workloads"][workload]
        self.seconds = seconds
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.prog = Program(ROOT, self.work)
        self.tprog = None
        if trace:
            (self.work / "trace").mkdir()
            self.tprog = Program(ROOT, self.work, trace_dir=self.work / "trace")
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        #: Largest peak RSS of the measured processes (not of the builds
        #: that only prepare a serve workload's inputs).
        self.peak_rss_mb = 0.0
        self.notes: dict[str, object] = {}

    def check(self, ok: bool, what: str, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.failed += n
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def command(self, args: list[str], prog: Program | None = None, measured: bool = True):
        res = (prog or self.prog).run(args)
        self.check(res.rc == 0, f"{args[0]} exited {res.rc}: {res.output[-500:]}")
        if measured:
            self.peak_rss_mb = max(self.peak_rss_mb, res.maxrss_mb)
        return res

    def cleanup_check(self) -> None:
        for prog in (self.prog, self.tprog):
            if prog is None:
                continue
            left = prog.leftovers()
            self.check(not left, f"left behind: {left}", n=max(1, len(left)))

    def path(self, name: str) -> str:
        return str(self.work / name)


# -- shared pieces -----------------------------------------------------------


def ms(seconds: float) -> float:
    return seconds * 1e3


def input_properties(run: Run, expected: list[tuple[list[int], list[int]]]) -> None:
    hits = [len(f) + len(r) for f, r in expected]
    mapped = [h for h in hits if h]
    run.notes["input.mapped_share"] = len(mapped) / len(hits)
    run.notes["input.rows_per_mapped_read"] = sum(mapped) / max(1, len(mapped))


def parse_tsv(text: str) -> list[tuple[list[int], list[int]]]:
    rows = []
    for line in text.splitlines()[1:]:
        _, _, nf, nr, fpos, rpos = line.split("\t")
        f = [] if fpos == "." else sorted(map(int, fpos.split(",")))
        r = [] if rpos == "." else sorted(map(int, rpos.split(",")))
        if len(f) != int(nf) or len(r) != int(nr):
            raise ValueError("count does not match positions")
        rows.append((f, r))
    return rows


def tsv_matches(text: str, expected: list[tuple[list[int], list[int]]]) -> bool:
    try:
        return parse_tsv(text) == expected
    except ValueError:
        return False


# -- serve workloads ---------------------------------------------------------


def _serve_inputs(run: Run, catalog: bool):
    """References on disk, request bodies and the expected answer of
    each request."""
    cfg = run.cfg
    per_req = cfg["reads_per_request"]
    n_bodies = cfg["request_pool"]
    if not catalog:
        ref = make_reference(cfg["reference_bp"], run.rng)
        write_fasta(run.path("ref.fa"), "ref", ref)
        reads = make_reads(ref, n_bodies * per_req, cfg["read_length"], cfg["mapped_share"], run.rng)
        exp_reads = Oracle(ref).both_strands(reads)
        input_properties(run, exp_reads)
        expected = [exp_reads[i * per_req:(i + 1) * per_req] for i in range(n_bodies)]
        bodies = [
            json.dumps({"reads": reads[i * per_req:(i + 1) * per_req], "format": "tsv"}).encode()
            for i in range(n_bodies)
        ]
        return bodies, expected, [("ref.fa", "ref.bwvr")]
    names = [f"shard{i}" for i in range(cfg["shards"])]
    refs = [make_reference(cfg["shard_bp"], run.rng) for _ in names]
    for name, ref in zip(names, refs):
        write_fasta(run.path(f"{name}.fa"), name, ref)
    total = n_bodies * per_req
    n_mapped = int(round(total * cfg["mapped_share"]))
    reads: list[str] = []
    for i, ref in enumerate(refs):
        share = n_mapped // len(refs) + (1 if i < n_mapped % len(refs) else 0)
        reads += make_reads(ref, share, cfg["read_length"], 1.0, run.rng)
    reads += make_reads(refs[0], total - n_mapped, cfg["read_length"], 0.0, run.rng)
    reads = [reads[i] for i in run.rng.permutation(total)]
    per_shard = [Oracle(ref).both_strands(reads) for ref in refs]
    exp_reads = []
    for i in range(total):
        hits = []
        for name, res in zip(names, per_shard):
            hits += [(name, p, "+") for p in res[i][0]] + [(name, p, "-") for p in res[i][1]]
        exp_reads.append(sorted(hits))
    input_properties(run, [(h, []) for h in exp_reads])
    expected = [exp_reads[i * per_req:(i + 1) * per_req] for i in range(n_bodies)]
    bodies = [
        json.dumps({"reads": reads[i * per_req:(i + 1) * per_req]}).encode()
        for i in range(n_bodies)
    ]
    return bodies, expected, [(f"{n}.fa", f"{n}.bwvr") for n in names]


def _answer_ok(catalog: bool, status: int, body: bytes, expected) -> bool:
    if status != 200:
        return False
    if not catalog:
        return tsv_matches(body.decode(), expected)
    try:
        doc = json.loads(body)
        got = [
            sorted((h["ref"], h["position"], h["strand"]) for h in r["hits"])
            for r in doc["results"]
        ]
    except (ValueError, KeyError, TypeError):
        return False
    return got == expected


def _free_port() -> int:
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _start_server(run: Run, prog: Program, serve_args: list[str]):
    port = _free_port()
    p, t0, log = prog.start(["serve", "--port", str(port), *serve_args])
    try:
        setup = loadgen.wait_healthy(port, p, t0)
    except RuntimeError as exc:
        run.check(False, f"server start: {exc}")
        prog.stop(p, t0, log)
        raise InvalidRun(str(exc)) from exc
    run.check(True, "server start")
    return port, (p, t0, log), setup


def _stop_server(run: Run, prog: Program, handle) -> None:
    res = prog.stop(*handle)
    run.peak_rss_mb = max(run.peak_rss_mb, res.maxrss_mb)
    # SIGINT is how the server is meant to stop: it may end in a
    # KeyboardInterrupt traceback, but in no other error.
    lines = [ln for ln in res.output.splitlines() if ln.strip()]
    clean = "Traceback" not in res.output or (lines and lines[-1] == "KeyboardInterrupt")
    run.check(res.rc in (0, 1, 130, -2) and clean,
              f"server shutdown exited {res.rc}: {res.output[-800:]}")


def _coalescer(doc: dict, catalog: bool) -> dict:
    return doc["shards"]["coalescer"] if catalog else doc["coalescer"]


def _router_totals(doc: dict) -> tuple[int, int]:
    shards = doc.get("shards")
    if not shards:
        return 0, 0
    return sum(s["activations"] for s in shards["shards"]), shards["evictions"]


def run_serve(run: Run, catalog: bool) -> None:
    cfg = run.cfg
    bodies, expected, builds = _serve_inputs(run, catalog)
    path = "/map?catalog" if catalog else "/map"

    # Containers: build_s / index_mb (and the catalog's shards).
    walls = []
    for fasta, out in builds * cfg["build_repeats"]:
        res = run.command(["index", fasta, "-o", out, "--format", "flat"], measured=False)
        walls.append(res.wall_s)
    sizes = [os.path.getsize(p) if os.path.exists(p) else 0
             for p in (run.path(out) for _, out in builds)]
    serve_args = ["--map-index", "ref.fa"]
    if catalog:
        manifest = {"shards": [{"name": o[:-5], "path": o} for _, o in builds]}
        (run.work / "catalog.json").write_text(json.dumps(manifest))
        budget_mb = sum(sizes) * cfg["budget_share"] / (1 << 20)
        serve_args = ["--catalog", "catalog.json", "--shard-memory-budget", f"{budget_mb:.3f}"]

    def verify(samples, label) -> list[bool]:
        oks = [_answer_ok(catalog, s.status, s.body, expected[s.index % len(expected)])
               for s in samples]
        run.check(all(oks), f"{label}: {oks.count(False)} wrong or failed answers",
                  n=len(oks))
        return oks

    def warm(port):
        for i in range(cfg["warmup_requests"]):
            status, body = loadgen.request(port, "POST", path, bodies[i])
            run.check(_answer_ok(catalog, status, body, expected[i]), "warm-up answer")

    # Open loop: open_bodies bodies, each sent open_repeats times (once
    # in a traced run, whose layer metrics are per call), one seeded
    # permutation of them per round, so a body's sends lie far apart.
    rate = cfg["rate_rps"]
    first_open = cfg["warmup_requests"]
    first_sat = first_open + cfg["open_bodies"]
    repeats = 1 if run.trace else cfg["open_repeats"]
    order = [first_open + int(j) for _ in range(repeats)
             for j in run.rng.permutation(cfg["open_bodies"])]
    due = (np.arange(len(order)) / rate).tolist()
    sat_seconds = run.seconds * cfg["saturation_share"]
    slo = cfg["slo_ms"] / 1e3

    def phases(port):
        """Open loop, then saturation; returns both phases' samples and
        the window they ran in."""
        for attempt in (1, 2):
            t_start = time.perf_counter()
            opened = loadgen.open_loop(port, path, [bodies[i] for i in order], due)
            late_p90 = float(np.percentile([s.late for s in opened], 90))
            if ms(late_p90) <= SPEC["loadgen_late_bound_ms"]:
                break
            print(f"load generator ran late (p90 {ms(late_p90):.1f} ms), "
                  f"attempt {attempt}", file=sys.stderr)
        else:
            raise InvalidRun("load generator ran late past its bound")
        for s in opened:
            s.index = order[s.index]
        sat = loadgen.closed_loop(port, path, bodies, sat_seconds, first=first_sat)
        run.notes["loadgen.late_ms_p90"] = ms(late_p90)
        run.notes["loadgen.requests"] = len(opened)
        run.notes["loadgen.saturation_requests"] = len(sat)
        return opened, sat, (t_start, time.perf_counter())

    def saturation_rps(sat):
        """Requests answered correctly within the latency limit per
        second of the lockstep rounds."""
        oks = verify(sat, "saturation")
        good = sum(1 for s, ok in zip(sat, oks) if ok and s.done - s.due <= slo)
        rounds: dict[int, float] = {}
        for s in sat:
            rounds[s.round] = max(rounds.get(s.round, 0.0), s.done - s.due)
        return good / sum(rounds.values())

    if not run.trace:
        setups = []
        for i in range(cfg["setup_repeats"]):
            port, handle, setup = _start_server(run, run.prog, serve_args)
            setups.append(setup)
            if i < cfg["setup_repeats"] - 1:
                _stop_server(run, run.prog, handle)
        try:
            warm(port)
            opened, sat, _ = phases(port)
        finally:
            _stop_server(run, run.prog, handle)
        verify(opened, "open loop")
        # Each body's latency is the median of its sends; the
        # percentiles are over bodies.
        sends: dict[int, list[float]] = {}
        for s in opened:
            sends.setdefault(s.index, []).append(s.done - s.due)
        lat = [statistics.median(v) for v in sends.values()]
        max_rps = saturation_rps(sat)
        run.metrics.update({
            "latency_p50_ms": ms(float(np.percentile(lat, 50))),
            "latency_p90_ms": ms(float(np.percentile(lat, 90))),
            "max_rps": max_rps,
            "reads_per_s": max_rps * cfg["reads_per_request"],
            "build_s": statistics.median(walls),
            "index_mb": sum(sizes) / 1e6,
            "setup_s": statistics.median(setups),
        })
        run.cleanup_check()
        return

    # Traced run: the untraced saturation rate is the overhead baseline.
    port, handle, _ = _start_server(run, run.prog, serve_args)
    try:
        warm(port)
        rps_plain = saturation_rps(
            loadgen.closed_loop(port, path, bodies, sat_seconds, first=first_sat))
    finally:
        _stop_server(run, run.prog, handle)
    port, handle, _ = _start_server(run, run.tprog, serve_args)
    try:
        warm(port)
        before = loadgen.healthz(port)
        opened, sat, window = phases(port)
        after = loadgen.healthz(port)
    finally:
        _stop_server(run, run.tprog, handle)
    verify(opened, "open loop")
    rps_traced = saturation_rps(sat)
    run.notes["trace.overhead_share"] = rps_plain / rps_traced - 1 if rps_traced else 0.0
    c0, c1 = _coalescer(before, catalog), _coalescer(after, catalog)
    batches = c1["batches_total"] - c0["batches_total"]
    run.notes["coalescer.requests_per_batch"] = (
        (c1["requests_total"] - c0["requests_total"]) / batches if batches else 0.0)
    run.notes["coalescer.batch_reads_mean"] = (
        (c1["reads_total"] - c0["reads_total"]) / batches if batches else 0.0)
    run.notes["coalescer.wait_p95_ms"] = c1["wait_p95_ms"]
    run.notes["coalescer.fallbacks"] = c1["fallbacks"] - c0["fallbacks"]
    requests = len(opened) + len(sat)
    (a0, e0), (a1, e1) = _router_totals(before), _router_totals(after)
    run.notes["router.activations_per_request"] = (a1 - a0) / requests
    run.notes["router.evictions_per_request"] = (e1 - e0) / requests
    run.notes["windows"] = [window]
    run.cleanup_check()


# -- map-bulk ----------------------------------------------------------------


def run_map(run: Run) -> None:
    """Build the index with ``index --blockwise`` (build_s, index_mb,
    ``inspect --validate``), then map the bulk FASTQ with ``map``."""
    cfg = run.cfg
    ref = make_reference(cfg["reference_bp"], run.rng)
    write_fasta(run.path("ref.fa"), "ref", ref)
    reads = make_reads(ref, cfg["reads"], cfg["read_length"], cfg["mapped_share"], run.rng)
    write_fastq(run.path("bulk.fq"), reads)
    write_fastq(run.path("one.fq"), reads[:1])
    expected = Oracle(ref).both_strands(reads)
    input_properties(run, expected)
    build = run.command(["index", "ref.fa", "-o", "bulk.bwvr", "--blockwise",
                         "--locate", "sampled", "--ftab-k", str(cfg["ftab_k"])],
                        run.tprog)
    res = run.command(["inspect", "bulk.bwvr", "--validate"], measured=False)
    run.check("validation: OK" in res.output, "inspect --validate did not pass")
    pool = ["--pool", str(cfg["pool"])]

    def bulk(prog=None):
        out = run.work / "bulk.tsv"
        out.unlink(missing_ok=True)
        res = run.command(["map", "bulk.bwvr", "bulk.fq", "-o", "bulk.tsv", *pool], prog)
        run.check(out.exists() and tsv_matches(out.read_text(), expected),
                  "map-bulk TSV differs from the oracle", n=len(reads))
        return res.wall_s

    if run.trace:
        # Alternate untraced and traced runs so host drift hits both.
        plain, traced, windows = [], [], []
        for _ in range(2):
            plain.append(bulk())
            t0 = time.perf_counter()
            traced.append(bulk(run.tprog))
            windows.append((t0, time.perf_counter()))
        run.notes["windows"] = windows
        run.notes["trace.overhead_share"] = sum(traced) / sum(plain) - 1
        run.cleanup_check()
        return
    setups = []
    for _ in range(cfg["setup_repeats"]):
        one = run.work / "one.tsv"
        one.unlink(missing_ok=True)
        res = run.command(["map", "bulk.bwvr", "one.fq", "-o", "one.tsv", *pool])
        run.check(one.exists() and tsv_matches(one.read_text(), expected[:1]),
                  "one-read map differs from the oracle")
        setups.append(res.wall_s)
    walls = []
    t_end = time.perf_counter() + run.seconds
    while len(walls) < cfg["min_invocations"] or time.perf_counter() < t_end:
        walls.append(bulk())
    wall = statistics.median(walls)
    run.metrics.update({
        "latency_p50_ms": ms(wall),
        "latency_p90_ms": ms(float(np.percentile(walls, 90))),
        "max_rps": 1.0 / wall,
        "reads_per_s": len(reads) / wall,
        "build_s": build.wall_s,
        "index_mb": os.path.getsize(run.path("bulk.bwvr")) / 1e6,
        "setup_s": statistics.median(setups),
    })
    run.cleanup_check()


WORKLOADS = {
    "serve-small": lambda run: run_serve(run, catalog=False),
    "serve-catalog": lambda run: run_serve(run, catalog=True),
    "map-bulk": run_map,
}


def main(argv=None) -> int:
    # A terminated benchmark still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
        if run.trace:
            run.metrics = layers.per_layer(run)
        else:
            run.metrics["peak_rss_mb"] = run.peak_rss_mb
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        for prog in (run.prog, run.tprog):
            if prog is not None:
                prog.leftovers()
        shutil.rmtree(run.work, ignore_errors=True)
    names = bench["per_layer"] if run.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]} for m in names}
    for k, v in metrics.items():
        print(f"{args.workload:14s} {k:34s} {v['value']:14.4f} {v['unit']}", file=sys.stderr)
    share = run.failed / max(1, run.attempted)
    print(f"{args.workload:14s} {'failed_share':34s} {share:14.4f} ratio", file=sys.stderr)
    for k in ("loadgen.requests", "loadgen.saturation_requests", "loadgen.late_ms_p90"):
        if k in run.notes:
            print(f"{args.workload:14s} {k:34s} {run.notes[k]:14.4f}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
