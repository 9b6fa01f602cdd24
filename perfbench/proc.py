"""Launching the program under test and checking what it leaves behind.

Every process gets a per-run marker in its environment.  Children and
grandchildren (pool workers) inherit it, so after a run a scan of
``/proc`` finds any process that outlived the run.  Each program
process is reaped with ``wait4`` so its peak RSS (including its reaped
children's) is known.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

MARKER_VAR = "PERFBENCH_RUN"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


@dataclass
class Exit:
    rc: int
    wall_s: float
    maxrss_mb: float
    output: str


class Program:
    """Runs ``bwaver-repro`` subcommands from the checkout's ``src``.

    With ``trace_dir`` set, each process runs under the benchmark's
    tracing launcher, which writes its spans to ``trace_dir`` at exit.
    """

    def __init__(self, root: Path, work: Path, trace_dir: Path | None = None):
        self.work = work
        self.trace_dir = trace_dir
        self.marker = uuid.uuid4().hex
        self._n = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env[MARKER_VAR] = self.marker
        self._shm_before = _shm_names()

    def argv(self, args: list[str]) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro.cli", *args]
        return [sys.executable, str(LAUNCHER), str(self.trace_dir), *args]

    def start(self, args: list[str]) -> tuple[subprocess.Popen, float, Path]:
        self._n += 1
        log = self.work / f"proc{self._n}.log"
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            p = subprocess.Popen(
                self.argv(args), cwd=self.work, env=self.env,
                stdout=fh, stderr=subprocess.STDOUT,
            )
        return p, t0, log

    def reap(self, p: subprocess.Popen, t0: float, log: Path, timeout: float) -> Exit:
        """Wait for ``p`` (killing it after ``timeout`` s) and record its
        exit code, wall time from launch and peak RSS."""
        timer = threading.Timer(timeout, _kill, (p.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        rss = usage.ru_maxrss / 1024.0
        return Exit(p.returncode, wall, rss, log.read_text(errors="replace"))

    def run(self, args: list[str], timeout: float = 150.0) -> Exit:
        p, t0, log = self.start(args)
        return self.reap(p, t0, log, timeout)

    def stop(self, p: subprocess.Popen, t0: float, log: Path, timeout: float = 30.0) -> Exit:
        """Interrupt a server (as Ctrl-C would) and reap it."""
        try:
            p.send_signal(signal.SIGINT)
        except ProcessLookupError:
            pass
        return self.reap(p, t0, log, timeout)

    def leftovers(self) -> list[str]:
        """Processes, shared-memory segments and blockwise ``.build``
        work directories that this run created and did not remove.
        Leftover processes are killed and reaped here."""
        pids = _marked_pids(self.marker)
        found = [f"process {pid}" for pid in pids]
        for pid in pids:
            _kill(pid)
        deadline = time.monotonic() + 5.0
        while pids and _marked_pids(self.marker) and time.monotonic() < deadline:
            time.sleep(0.05)
        new_shm = _shm_names() - self._shm_before
        found += [f"shm {n}" for n in sorted(new_shm)]
        found += [f"work dir {d.name}" for d in self.work.rglob("*.build")]
        return found


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _marked_pids(marker: str) -> list[int]:
    needle = f"{MARKER_VAR}={marker}".encode()
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                env = fh.read()
            with open(f"/proc/{entry}/stat", "rb") as fh:
                zombie = fh.read().rsplit(b")", 1)[1].split()[0] == b"Z"
        except OSError:
            continue
        if needle in env.split(b"\0") and not zombie:
            out.append(int(entry))
    return out
