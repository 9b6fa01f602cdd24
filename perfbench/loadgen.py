"""HTTP load generator: one process, at most two connections.

``open_loop`` sends request ``i`` at its due time ``start + due[i]``
(or as soon as a connection frees up after that) and times it from the
due time to the last response byte, so a stall shows in the latency of
every request queued behind it.  ``late`` is the generator's own delay:
how long after the request was due *and* a connection was free it
actually went out.  ``closed_loop`` saturates the server in lockstep
rounds of one request per connection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

CONNECTIONS = 2


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    late: float
    status: int
    body: bytes
    round: int = -1


def request(port: int, method: str, path: str, body: bytes | None = None,
            timeout: float = 30.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def wait_healthy(port: int, proc, t0: float, timeout: float = 120.0) -> float:
    """Seconds from ``t0`` (the launch) until ``GET /healthz`` first
    answers 200; raises if the server exits or never answers."""
    deadline = t0 + timeout
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with code {proc.returncode}")
        try:
            status, _ = request(port, "GET", "/healthz", timeout=1.0)
            if status == 200:
                return time.perf_counter() - t0
        except OSError:
            pass
        time.sleep(0.005)
    raise RuntimeError("server did not become healthy")


def healthz(port: int) -> dict:
    status, body = request(port, "GET", "/healthz")
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    return json.loads(body)


def _post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    try:
        return request(port, "POST", path, body)
    except OSError as exc:
        return 0, str(exc).encode()


def open_loop(port: int, path: str, bodies: list[bytes], due: list[float]) -> list[Sample]:
    """Send ``bodies[i]`` at ``due[i]`` seconds after the start."""
    samples: list[Sample | None] = [None] * len(bodies)
    nxt = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker():
        free_at = start
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if i >= len(bodies):
                return
            t_due = start + due[i]
            wait = t_due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, body = _post(port, path, bodies[i])
            done = time.perf_counter()
            samples[i] = Sample(i, t_due, sent, done, sent - max(t_due, free_at), status, body)
            free_at = done

    _run(worker)
    return samples


def closed_loop(port: int, path: str, bodies: list[bytes], seconds: float,
                first: int = 0) -> list[Sample]:
    """Saturation for ``seconds``: rounds in lockstep, where every
    connection sends at once and the next round starts as soon as all
    replies are in.  Sending together keeps the requests of a round in
    one coalescing window, so the rate does not depend on whether the
    connections happened to fall into step.  Bodies are taken in order
    starting at ``first``; ``due`` is the round's start."""
    samples: list[Sample] = []
    nxt = [first]
    lock = threading.Lock()
    end = time.perf_counter() + seconds
    rounds = [-1, 0.0]  # current round and its start

    def next_round():
        now = time.perf_counter()
        rounds[0] = -1 if now >= end else rounds[0] + 1
        rounds[1] = now

    barrier = threading.Barrier(CONNECTIONS, action=next_round)

    def worker():
        while True:
            barrier.wait()
            rnd, start = rounds
            if rnd < 0:
                return
            with lock:
                i = nxt[0]
                nxt[0] += 1
            status, body = _post(port, path, bodies[i % len(bodies)])
            done = time.perf_counter()
            with lock:
                samples.append(Sample(i, start, start, done, 0.0, status, body, rnd))

    _run(worker)
    return samples


def _run(worker) -> None:
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
