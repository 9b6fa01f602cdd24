"""Run one ``bwaver-repro`` command with the layer wrappers installed.

Usage: ``python3 perfbench/launch.py TRACE_DIR <subcommand> [args...]``.
Spans are written to ``TRACE_DIR/spans-<pid>.json`` when the command
returns, or when a server is interrupted with SIGINT.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402

tracer.install(Path(sys.argv[1]))

from repro.cli import main  # noqa: E402

rc = 1
try:
    rc = main(sys.argv[2:])
except KeyboardInterrupt:
    rc = 0
finally:
    tracer.dump()
sys.exit(rc)
