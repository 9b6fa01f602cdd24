"""The shared request-body reader behind ``POST /map``, ``POST
/map?catalog`` and ``POST /jobs``.

A declared length above ``max_body_bytes`` gets 413 before any byte is
read; a negative or non-integer ``Content-Length`` gets 400 (a negative
length used to pass the cap and read the stream to EOF).
"""

import io
import json

import pytest

from repro.bench.fixtures import make_dna
from repro.index.builder import build_index
from repro.serving.coalescer import MappingService
from repro.serving.router import ShardCatalog, ShardRouter
from repro.web.server import BWaveRApp

TEXT = make_dna(400, seed=3)
CAP = 256

#: route -> (path, query string, a valid body longer than CAP).
ROUTES = {
    "map": ("/map", "", {"reads": [TEXT[i : i + 30] for i in range(0, 300, 25)]}),
    "catalog": ("/map", "catalog", {"reads": [TEXT[i : i + 30] for i in range(0, 300, 25)]}),
    "jobs": (
        "/jobs",
        "",
        {
            "reference_fasta": f">r\n{TEXT}\n",
            "reads_fastq": f"@a\n{TEXT[:20]}\n+\n{'I' * 20}\n",
        },
    ),
}


@pytest.fixture(scope="module")
def app():
    index, _ = build_index(TEXT, b=15, sf=8)
    catalog = ShardCatalog()
    catalog.register_sequence("ref", TEXT, b=15, sf=8)
    a = BWaveRApp(
        mapping_service=MappingService(index),
        router_service=MappingService(ShardRouter(catalog)),
        max_body_bytes=CAP,
    )
    yield a
    a.close()


def post(app, path, query, doc, content_length=None):
    body = json.dumps(doc).encode()
    captured = {}

    def start_response(status, headers):
        captured["status"] = status

    env = {
        "REQUEST_METHOD": "POST",
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(body)) if content_length is None else content_length,
        "CONTENT_TYPE": "application/json",
        "wsgi.input": io.BytesIO(body),
    }
    payload = b"".join(app(env, start_response))
    return captured["status"], json.loads(payload)


@pytest.mark.parametrize("route", sorted(ROUTES))
class TestBodyCap:
    def test_true_length_over_cap_is_413(self, app, route):
        path, query, doc = ROUTES[route]
        status, answer = post(app, path, query, doc)
        assert status.startswith("413")
        assert f"{CAP} B limit" in answer["error"]

    def test_negative_length_is_400(self, app, route):
        path, query, doc = ROUTES[route]
        status, answer = post(app, path, query, doc, content_length="-1")
        assert status.startswith("400")
        assert "Content-Length" in answer["error"]

    def test_non_integer_length_is_400(self, app, route):
        path, query, doc = ROUTES[route]
        status, _ = post(app, path, query, doc, content_length="12abc")
        assert status.startswith("400")


def test_small_body_under_cap_maps(app):
    status, answer = post(app, "/map", "catalog", {"reads": [TEXT[:30]]})
    assert status.startswith("200")
    assert answer["n_mapped"] == 1


def test_catalog_tsv_is_400(app):
    status, answer = post(
        app, "/map", "catalog", {"reads": [TEXT[:30]], "format": "tsv"}
    )
    assert status.startswith("400")
    assert "JSON only" in answer["error"]
