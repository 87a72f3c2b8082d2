"""Run one ``repro`` command in-process with the layer spans installed.

Usage::

    python perfbench/traced.py OUT.json REPRO-ARG...

The ``repro`` package must be importable (``PYTHONPATH=src``).  The
command's own output goes to stdout/stderr as usual; after it returns,
``OUT.json`` holds ``{"exit", "wall_ns", "layers"}`` where ``layers``
maps each layer (and the root ``cli.main``) to its span aggregates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import ROOT, SpanStats, install  # noqa: E402


def main(argv: list) -> int:
    out, args = Path(argv[0]), argv[1:]
    stats = SpanStats()
    install(stats)
    from repro import cli

    frame = stats.enter(ROOT)
    try:
        code = cli.main(args)
    finally:
        wall_ns = stats.exit(frame)
        sys.stdout.flush()
    out.write_text(json.dumps({"exit": code, "wall_ns": wall_ns,
                               "layers": stats.snapshot()}))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
