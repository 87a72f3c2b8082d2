"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dse_store --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Human-readable notes go
to stdout first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All scratch
files live under ``.perfbench_work/`` in the checkout and are removed
at exit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.programs import Programs  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    Run,
)

WORK_DIR = ".perfbench_work"


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (from ``statfs``)."""
    out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def environment(root: Path, work: Path, programs: Programs) -> dict:
    """Stamp: what the numbers were measured on."""
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         env=programs.env, capture_output=True, text=True)
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=programs.env, capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.stdout.strip() or None,
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else None,
        "store_fs": filesystem_type(work),
        "scipy_importable": importlib.util.find_spec("scipy") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program under {root}/src/repro; run from the"
              " root of a checkout", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        programs = Programs(root, work)
        run = Run(programs=programs, seed=args.seed, seconds=args.seconds)
        print("env: " + json.dumps(environment(root, work, programs)))
        try:
            WORKLOADS[args.workload](run, bool(args.trace))
        except Exception:  # report the run as failed, not a crash
            traceback.print_exc()
            run.operation(False, "the workload raised (traceback above)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it
    for line in run.notes:
        print(line)
    for problem in run.problems:
        print(f"FAILED: {problem}")
    declared = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in declared if name not in run.metrics]
    for name in missing:
        print(f"FAILED: metric {name} was not measured")
    metrics = {name: {"value": run.metrics[name], "unit": unit}
               for name, unit in declared.items() if name in run.metrics}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if run.attempted:
        print(f"failed_frac = {run.failed / run.attempted:.6g}"
              f" ({run.failed}/{run.attempted})")
    print(json.dumps({"correct": run.failed == 0 and not missing,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
