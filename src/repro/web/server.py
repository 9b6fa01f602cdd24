"""WSGI application for the BWaveR web workflow.

The paper exposes the mapper "through an intuitive web application"
backed by "a Python web-server, built with Flask".  Flask is unavailable
offline, so this is a dependency-free WSGI app with the same surface:

* ``GET /`` — upload form (reference FASTA + reads FASTQ + b/sf/device);
* ``POST /jobs`` — submit a job; accepts ``application/json`` (fields
  ``reference_fasta``, ``reads_fastq``, ``b``, ``sf``, ``device``;
  file contents optionally gzip+base64 with ``*_gzip_b64`` keys — the
  paper accepts gzipped uploads) or ``multipart/form-data`` from the
  HTML form;
* ``GET /jobs`` — JSON list of jobs;
* ``GET /jobs/<id>`` — JSON status with the three-step timing breakdown;
* ``GET /jobs/<id>/results`` — the hits TSV download;
* ``POST /map`` — map reads through a served
  :class:`~repro.serving.coalescer.MappingService` (concurrent requests
  share merged kernel batches): the preloaded index (``serve
  --map-index``), or with ``?catalog[=a,b]`` the shard catalog (``serve
  --catalog``).  One handler serves both — ``?catalog`` only picks the
  service and the row renderer.  Catalog rows carry per-reference hits
  and have no TSV form, so ``"format": "tsv"`` with ``?catalog`` is 400;
* ``GET /health`` — liveness probe;
* ``GET /healthz`` — readiness: device health, queue depth, job counts;
* ``GET /metrics`` — Prometheus text exposition of the telemetry registry.

Tests drive the app directly through the WSGI callable; ``serve()``
wraps it in :mod:`wsgiref.simple_server` for interactive use
(``examples/webapp_demo.py``).
"""

from __future__ import annotations

import base64
import gzip
import io
import json
import re
from typing import Callable, Iterable

from ..faults import FaultPlan, RetryPolicy
from ..serving.coalescer import (
    CoalescerClosed,
    CoalescerConfig,
    CoalescerFull,
    MappingService,
)
from ..serving.executor import BacklogFull
from ..serving.router import ShardCatalog, ShardRouter, UnknownShardError
from ..telemetry import Telemetry, set_telemetry
from .jobs import JobManager, JobPolicy

#: Default request-body cap: enough for a gzip+base64 chromosome-scale
#: upload, small enough that one request cannot exhaust host memory.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

_FORM_HTML = """<!doctype html>
<html><head><title>BWaveR — hybrid DNA sequence mapper</title></head>
<body>
<h1>BWaveR (reproduction)</h1>
<p>Upload a reference (FASTA) and reads (FASTQ), pick the RRR parameters
and the execution device, and download the mapped positions.</p>
<form method="post" action="/jobs" enctype="multipart/form-data">
  <p>Reference FASTA: <input type="file" name="reference_fasta"></p>
  <p>Reads FASTQ: <input type="file" name="reads_fastq"></p>
  <p>Block size b: <input type="number" name="b" value="15" min="1" max="24"></p>
  <p>Superblock factor sf: <input type="number" name="sf" value="50" min="1"></p>
  <p>Device:
    <select name="device">
      <option value="fpga">FPGA (simulated Alveo U200)</option>
      <option value="cpu">CPU</option>
    </select></p>
  <p><input type="submit" value="Map"></p>
</form>
</body></html>
"""


class WebAppError(ValueError):
    """Client errors, answered with HTTP ``status``."""

    status = 400


class PayloadTooLarge(WebAppError):
    status = 413


def _maybe_gunzip_b64(payload: dict, key: str) -> str | None:
    """Fetch ``key`` from the JSON body, or ``key + '_gzip_b64'`` decoded."""
    if key in payload:
        value = payload[key]
        if not isinstance(value, str):
            raise WebAppError(f"field {key!r} must be a string")
        return value
    gz_key = f"{key}_gzip_b64"
    if gz_key in payload:
        try:
            return gzip.decompress(base64.b64decode(payload[gz_key])).decode("utf-8")
        except Exception as exc:
            raise WebAppError(f"field {gz_key!r} is not valid gzip+base64: {exc}") from exc
    return None


def _json_object(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise WebAppError(f"invalid JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise WebAppError("JSON body must be an object")
    return payload


def _index_row(r) -> dict:
    return {
        "read": r.read_name,
        "length": r.length,
        "mapped": r.mapped,
        "fwd_count": r.forward.count,
        "rc_count": r.reverse.count,
        "reason": r.reason,
    }


def _catalog_row(m) -> dict:
    return {
        "read": f"read{m.read_id}",
        "n_hits": len(m.hits),
        "hits": [
            {"ref": h.name, "position": h.position, "strand": h.strand}
            for h in m.hits
        ],
    }


def parse_multipart(body: bytes, content_type: str) -> dict[str, str]:
    """Minimal multipart/form-data parser (text fields and file parts)."""
    m = re.search(r'boundary="?([^";]+)"?', content_type)
    if not m:
        raise WebAppError("multipart body without boundary")
    boundary = m.group(1).encode()
    fields: dict[str, str] = {}
    for part in body.split(b"--" + boundary):
        part = part.strip()
        if not part or part == b"--":
            continue
        if b"\r\n\r\n" in part:
            head, _, content = part.partition(b"\r\n\r\n")
        elif b"\n\n" in part:
            head, _, content = part.partition(b"\n\n")
        else:
            continue
        name_m = re.search(rb'name="([^"]+)"', head)
        if not name_m:
            continue
        name = name_m.group(1).decode()
        data = content.rstrip(b"\r\n")
        if data[:2] == b"\x1f\x8b":  # gzipped file part
            data = gzip.decompress(data)
        fields[name] = data.decode("utf-8", errors="replace")
    return fields


def _normalize_route(path: str) -> str:
    """Collapse path parameters so the request counter stays low-cardinality
    (``/jobs/3/results`` → ``/jobs/{id}/results``)."""
    return re.sub(r"/jobs/\d+", "/jobs/{id}", path)


class BWaveRApp:
    """The WSGI callable.

    ``fault_plan`` / ``job_policy`` / ``retry_policy`` configure the
    fault-tolerance behaviour of every job (a JSON submission may
    override the plan per job via a ``fault_plan`` object field);
    ``max_body_bytes`` caps uploads — oversized requests get HTTP 413
    without the body ever being read.

    ``mapping_service`` (the served index, ``POST /map``) and
    ``router_service`` (the served shard catalog, ``POST /map?catalog``)
    are :class:`~repro.serving.coalescer.MappingService` instances; the
    app owns them and :meth:`close` closes them.

    ``telemetry`` is the :class:`~repro.telemetry.Telemetry` instance the
    app serves on ``/metrics``.  The default creates an enabled instance
    and installs it process-wide (:func:`~repro.telemetry.set_telemetry`)
    so the pipeline layers record into the same registry the endpoint
    exposes; pass an explicit instance (e.g. a disabled one) to opt out.
    """

    def __init__(
        self,
        background_jobs: bool = False,
        fault_plan: FaultPlan | None = None,
        job_policy: JobPolicy | None = None,
        retry_policy: RetryPolicy | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        telemetry: Telemetry | None = None,
        job_workers: int = 2,
        job_backlog: int = 8,
        mapping_service=None,
        router_service=None,
    ):
        if telemetry is None:
            telemetry = Telemetry(enabled=True)
            set_telemetry(telemetry)
        self.telemetry = telemetry
        self.jobs = JobManager(
            fault_plan=fault_plan,
            policy=job_policy,
            retry_policy=retry_policy,
            job_workers=job_workers,
            job_backlog=job_backlog,
        )
        self.mapping_service = mapping_service
        self.router_service = router_service
        self.background_jobs = background_jobs
        self.max_body_bytes = int(max_body_bytes)

    def close(self) -> None:
        """Drain the job executor, then close the served services."""
        self.jobs.shutdown()
        for service in (self.mapping_service, self.router_service):
            if service is not None:
                service.close()

    # -- WSGI entry ---------------------------------------------------------

    def __call__(self, environ: dict, start_response: Callable) -> Iterable[bytes]:
        try:
            status, headers, body = self._route(environ)
        except WebAppError as exc:
            status, headers, body = self._json(exc.status, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive 500
            status, headers, body = self._json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        self._count_request(environ, status)
        start_response(status, headers)
        return [body]

    def _count_request(self, environ: dict, status: str) -> None:
        tel = self.telemetry
        if not tel.enabled:
            return
        method = environ.get("REQUEST_METHOD", "GET")
        route = _normalize_route(environ.get("PATH_INFO", "/"))
        tel.metrics.counter(
            "http_requests_total",
            "HTTP requests served, by method/route/status",
            labelnames=("method", "route", "status"),
        ).inc(method=method, route=route, status=status.split(" ", 1)[0])

    # -- routing ----------------------------------------------------------------

    def _route(self, environ: dict) -> tuple[str, list, bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        if method == "GET" and path == "/":
            return "200 OK", [("Content-Type", "text/html; charset=utf-8")], _FORM_HTML.encode()
        if method == "GET" and path == "/health":
            return self._json(200, {"status": "ok"})
        if method == "GET" and path == "/healthz":
            return self._healthz()
        if method == "GET" and path == "/metrics":
            return (
                "200 OK",
                [("Content-Type", "text/plain; version=0.0.4; charset=utf-8")],
                self.telemetry.metrics.prometheus_text().encode(),
            )
        if method == "POST" and path == "/jobs":
            return self._submit(environ)
        if method == "POST" and path == "/map":
            return self._map(environ)
        if method == "GET" and path == "/jobs":
            return self._json(200, {"jobs": [j.summary() for j in self.jobs.all_jobs()]})
        m = re.fullmatch(r"/jobs/(\d+)", path)
        if method == "GET" and m:
            job = self.jobs.get(int(m.group(1)))
            if job is None:
                return self._json(404, {"error": f"no job {m.group(1)}"})
            return self._json(200, job.summary())
        m = re.fullmatch(r"/jobs/(\d+)/results", path)
        if method == "GET" and m:
            job = self.jobs.get(int(m.group(1)))
            if job is None:
                return self._json(404, {"error": f"no job {m.group(1)}"})
            # Degraded jobs carry complete, correct results (CPU fallback).
            if job.status.value not in ("done", "degraded"):
                return self._json(409, {"error": f"job is {job.status.value}"})
            return (
                "200 OK",
                [
                    ("Content-Type", "text/tab-separated-values; charset=utf-8"),
                    (
                        "Content-Disposition",
                        f'attachment; filename="bwaver_job{job.job_id}_hits.tsv"',
                    ),
                ],
                job.results_tsv.encode(),
            )
        m = re.fullmatch(r"/jobs/(\d+)/sam", path)
        if method == "GET" and m:
            job = self.jobs.get(int(m.group(1)))
            if job is None:
                return self._json(404, {"error": f"no job {m.group(1)}"})
            if job.status.value not in ("done", "degraded"):
                return self._json(409, {"error": f"job is {job.status.value}"})
            return (
                "200 OK",
                [
                    ("Content-Type", "text/x-sam; charset=utf-8"),
                    (
                        "Content-Disposition",
                        f'attachment; filename="bwaver_job{job.job_id}.sam"',
                    ),
                ],
                job.results_sam.encode(),
            )
        return self._json(404, {"error": f"no route for {method} {path}"})

    # -- handlers ------------------------------------------------------------------

    def _healthz(self) -> tuple[str, list, bytes]:
        """Readiness document: job queue state + last device health."""
        counts = self.jobs.counts_by_status()
        device = self.jobs.last_device_health
        degraded = device is not None and device.get("state") == "failed"
        service = self.mapping_service
        return self._json(
            200,
            {
                "status": "degraded" if degraded else "ok",
                "telemetry_enabled": self.telemetry.enabled,
                "queue_depth": self.jobs.queue_depth(),
                "jobs": counts,
                "concurrency": self.jobs.concurrency(),
                "device": device,
                # Coalescer state: queue depth, batch/wait aggregates,
                # fallback count — None when no index is being served.
                "coalescer": service.stats() if service is not None else None,
                # Shard catalog state: per-shard lifecycle, worker
                # liveness, queue depth, degraded flags, LRU counters —
                # None when no catalog is being served.
                "shards": (
                    self.router_service.stats()
                    if self.router_service is not None
                    else None
                ),
            },
        )

    def _read_body(self, environ: dict) -> bytes:
        """The request body, refused (413) before a byte is read when the
        declared length exceeds ``max_body_bytes``."""
        declared = environ.get("CONTENT_LENGTH") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # A negative length would pass the cap and read to EOF.
            raise WebAppError(f"invalid Content-Length {declared!r}")
        if length > self.max_body_bytes:
            raise PayloadTooLarge(
                f"request body of {length} B exceeds the "
                f"{self.max_body_bytes} B limit"
            )
        return environ["wsgi.input"].read(length) if length else b""

    def _map(self, environ: dict) -> tuple[str, list, bytes]:
        """Map reads through the served index or, with ``?catalog``, the
        served shard catalog.

        JSON body: ``reads`` (list of sequences) or ``reads_fastq``
        (FASTQ text, optionally ``reads_fastq_gzip_b64``), optional
        ``tenant`` and ``format`` (``"json"`` default, or ``"tsv"``).
        FASTQ + TSV requests stream: chunked parse feeds the coalescer
        in bounded pieces and rows are written per returned batch, so a
        large read set never materializes as result objects at once.

        ``?catalog`` (or ``?catalog=all``) fans out across every shard,
        ``?catalog=a,b`` restricts to the named shards; results carry
        per-reference hits, in JSON only.
        """
        from urllib.parse import parse_qs

        from ..io.fastq import read_fastq_str

        query = parse_qs(environ.get("QUERY_STRING", ""), keep_blank_values=True)
        catalog = query.get("catalog", [None])[0]
        if catalog is None:
            service, missing = self.mapping_service, (
                "no served index: start the server with --map-index to "
                "enable POST /map"
            )
        else:
            service, missing = self.router_service, (
                "no served catalog: start the server with --catalog to "
                "enable POST /map?catalog=..."
            )
        if service is None:
            return self._json(404, {"error": missing})
        body = self._read_body(environ)
        if not environ.get("CONTENT_TYPE", "").startswith("application/json"):
            raise WebAppError("POST /map takes an application/json body")
        payload = _json_object(body)
        tenant = str(payload.get("tenant", "default"))
        fmt = payload.get("format", "json")
        if fmt not in ("json", "tsv"):
            raise WebAppError(f"unknown format {fmt!r} (use 'json' or 'tsv')")
        if catalog is not None and fmt == "tsv":
            raise WebAppError("POST /map?catalog answers in JSON only")
        reads = payload.get("reads")
        fastq_text = None
        if reads is None:
            fastq_text = _maybe_gunzip_b64(payload, "reads_fastq")
            if fastq_text is None:
                raise WebAppError("provide 'reads' (list) or 'reads_fastq'")
        elif not (isinstance(reads, list) and all(isinstance(r, str) for r in reads)):
            raise WebAppError("'reads' must be a list of strings")
        shards = None
        if catalog and catalog != "all":
            shards = [name for name in catalog.split(",") if name]
        try:
            if fastq_text is not None and fmt == "tsv":
                return self._map_stream_tsv(service, fastq_text, tenant)
            if fastq_text is not None:
                reads = [r.sequence for r in read_fastq_str(fastq_text)]
            req = service.map_request(reads, tenant=tenant, shards=shards)
        except UnknownShardError as exc:
            raise WebAppError(f"unknown shard {exc.args[0]!r}") from exc
        except CoalescerFull as exc:
            status, headers, resp = self._json(503, {"error": str(exc)})
            headers.append(("Retry-After", "1"))
            return status, headers, resp
        except CoalescerClosed as exc:
            return self._json(503, {"error": str(exc)})
        results = req.result(timeout=0.0)
        if fmt == "tsv":
            from ..mapper.results import write_hits_tsv

            buf = io.StringIO()
            write_hits_tsv(results, buf)
            return self._tsv(buf)
        doc: dict = {
            "n_reads": len(results),
            "n_mapped": sum(1 for r in results if r.mapped),
            "tenant": tenant,
        }
        row = _index_row
        if catalog is not None:
            doc["shards"] = shards or list(service.router.catalog.names)
            row = _catalog_row
        doc["degraded"] = req.degraded
        doc["batch_reads"] = req.batch_reads
        doc["wait_ms"] = req.wait_seconds * 1e3
        doc["results"] = [row(r) for r in results]
        return self._json(200, doc)

    def _map_stream_tsv(
        self, service, fastq_text: str, tenant: str
    ) -> tuple[str, list, bytes]:
        """Chunked ingest: FASTQ chunks feed the coalescer as independent
        requests; TSV rows are emitted per returned batch."""
        from ..io.fastq import parse_fastq_chunks
        from ..mapper.results import TSV_HEADER, write_hits_tsv
        from ..mapper.stream import map_stream_coalesced

        def _seqs():
            for chunk in parse_fastq_chunks(io.StringIO(fastq_text), 256):
                for rec in chunk:
                    yield rec.sequence

        out = io.StringIO()
        out.write(TSV_HEADER)
        for results in map_stream_coalesced(
            service.coalescer, _seqs(), chunk_size=256, tenant=tenant
        ):
            write_hits_tsv(results, out, header=False)
        return self._tsv(out)

    @staticmethod
    def _tsv(buf: io.StringIO) -> tuple[str, list, bytes]:
        return (
            "200 OK",
            [("Content-Type", "text/tab-separated-values; charset=utf-8")],
            buf.getvalue().encode(),
        )

    def _submit(self, environ: dict) -> tuple[str, list, bytes]:
        body = self._read_body(environ)
        ctype = environ.get("CONTENT_TYPE", "")
        fault_plan = None
        if ctype.startswith("application/json"):
            payload = _json_object(body)
            reference = _maybe_gunzip_b64(payload, "reference_fasta")
            reads = _maybe_gunzip_b64(payload, "reads_fastq")
            b = payload.get("b", 15)
            sf = payload.get("sf", 50)
            device = payload.get("device", "fpga")
            plan_doc = payload.get("fault_plan")
            if plan_doc is not None:
                if not isinstance(plan_doc, dict):
                    raise WebAppError("fault_plan must be a JSON object")
                try:
                    fault_plan = FaultPlan.from_dict(plan_doc)
                except (TypeError, ValueError) as exc:
                    raise WebAppError(f"invalid fault_plan: {exc}") from exc
        elif ctype.startswith("multipart/form-data"):
            fields = parse_multipart(body, ctype)
            reference = fields.get("reference_fasta")
            reads = fields.get("reads_fastq")
            b = fields.get("b", "15")
            sf = fields.get("sf", "50")
            device = fields.get("device", "fpga")
        else:
            raise WebAppError(
                f"unsupported content type {ctype!r}; use application/json "
                f"or multipart/form-data"
            )
        if not reference:
            raise WebAppError("missing reference_fasta")
        if not reads:
            raise WebAppError("missing reads_fastq")
        try:
            b_i, sf_i = int(b), int(sf)
        except (TypeError, ValueError) as exc:
            raise WebAppError(f"b and sf must be integers: {exc}") from exc
        if device not in ("cpu", "fpga"):
            raise WebAppError(f"unknown device {device!r}")
        try:
            job = self.jobs.submit(
                reference_fasta=reference,
                reads_fastq=reads,
                b=b_i,
                sf=sf_i,
                device=device,  # type: ignore[arg-type]
                background=self.background_jobs,
                fault_plan=fault_plan,
            )
        except BacklogFull as exc:
            status, headers, body = self._json(
                503, {"error": str(exc), "concurrency": self.jobs.concurrency()}
            )
            headers.append(("Retry-After", "5"))
            return status, headers, body
        return self._json(201, job.summary())

    @staticmethod
    def _json(code: int, doc: dict) -> tuple[str, list, bytes]:
        reasons = {200: "OK", 201: "Created", 400: "Bad Request",
                   404: "Not Found", 409: "Conflict",
                   413: "Payload Too Large", 500: "Internal Server Error",
                   503: "Service Unavailable"}
        return (
            f"{code} {reasons.get(code, 'Unknown')}",
            [("Content-Type", "application/json; charset=utf-8")],
            json.dumps(doc).encode(),
        )


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    background_jobs: bool = True,
    job_workers: int = 2,
    job_backlog: int = 8,
    map_index_fasta: str | None = None,
    map_pool_workers: int = 0,
    coalesce: bool = True,
    coalesce_window_ms: float = 2.0,
    coalesce_max_batch: int = 512,
    catalog_manifest: str | None = None,
    shard_memory_budget_mb: float | None = None,
    shard_workers: int = 0,
):
    """Run the app under a threading wsgiref server (blocking).

    ``map_index_fasta`` preloads a reference and serves it on
    ``POST /map`` through a request coalescer (window/size bounds from
    the ``coalesce_*`` knobs, optionally behind a ``map_pool_workers``
    shared-memory pool).  The server is threaded — concurrency is what
    gives the coalescer batches to merge.

    ``catalog_manifest`` loads a shard catalog manifest and serves it on
    ``POST /map?catalog=...`` through a scatter-gather router;
    ``shard_memory_budget_mb`` bounds resident shard bytes (LRU
    activation) and ``shard_workers`` gives each active shard its own
    worker pool.
    """
    from socketserver import ThreadingMixIn
    from wsgiref.simple_server import WSGIServer, make_server

    class _ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
        daemon_threads = True
        # The socketserver default accept backlog (5) resets connections
        # under the exact burst traffic the coalescer exists to absorb.
        request_queue_size = 128

    config = CoalescerConfig(
        window_seconds=coalesce_window_ms / 1e3,
        max_batch_reads=coalesce_max_batch,
    )
    mapping_service = None
    if map_index_fasta is not None:
        from ..index.builder import build_index
        from ..io.fasta import read_fasta

        ref = read_fasta(map_index_fasta)[0]
        index, _report = build_index(ref.sequence)
        mapping_service = MappingService(
            index, pool_workers=map_pool_workers, coalesce=coalesce, config=config
        )
        print(
            f"serving index over {ref.name!r} ({len(ref.sequence)} bp) on "
            f"POST /map (coalesce={'on' if coalesce else 'off'}, "
            f"window={coalesce_window_ms}ms, max_batch={coalesce_max_batch}, "
            f"pool_workers={map_pool_workers})"
        )
    router_service = None
    if catalog_manifest is not None:
        budget = (
            int(shard_memory_budget_mb * 1024 * 1024)
            if shard_memory_budget_mb is not None
            else None
        )
        catalog = ShardCatalog.from_manifest(
            catalog_manifest,
            memory_budget_bytes=budget,
            pool_workers=shard_workers,
        )
        router_service = MappingService(
            ShardRouter(catalog), coalesce=coalesce, config=config
        )
        print(
            f"serving catalog of {len(catalog)} shard(s) "
            f"{list(catalog.names)} on POST /map?catalog=... "
            f"(budget={'none' if budget is None else f'{budget} B'}, "
            f"shard_workers={shard_workers})"
        )
    app = BWaveRApp(
        background_jobs=background_jobs,
        job_workers=job_workers,
        job_backlog=job_backlog,
        mapping_service=mapping_service,
        router_service=router_service,
    )
    try:
        with make_server(
            host, port, app, server_class=_ThreadingWSGIServer
        ) as httpd:
            print(f"BWaveR web app listening on http://{host}:{port}/")
            httpd.serve_forever()
    finally:
        app.close()
