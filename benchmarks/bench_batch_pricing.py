"""Scalar-vs-SoA batch pricing throughput.

The tentpole claim for :mod:`repro.hw.batch`: pricing a whole DSE
population through one structure-of-arrays roofline pass beats the
per-candidate scalar loop by an order of magnitude at population sizes
a search actually uses (>= 10x at 1k candidates), while returning
**bit-identical** values.

Two entry points:

- ``pytest benchmarks/bench_batch_pricing.py`` — small-scale smoke:
  batch must not lose to scalar, and values must match exactly (run in
  CI, where absolute throughput is noisy but the ordering is not);
- ``python benchmarks/bench_batch_pricing.py`` — the full sweep at
  10/100/1k/10k candidates, printed as a table (the numbers quoted in
  EXPERIMENTS.md S3).
"""

import sys
import time

from repro.dse.objectives import codesign_space, suite_objective

SIZES = (10, 100, 1_000, 10_000)
SMOKE_SIZE = 64
ATTEMPTS = 3        # re-measure on a noisy machine before failing
TARGET_SPEEDUP = 10.0   # the EXPERIMENTS.md claim, at >= 1k candidates


def _population(n):
    space = codesign_space()
    return [space.config_at(i % space.size) for i in range(n)]


def run_batch_pricing(size):
    """Price ``size`` candidates scalar then batched; asserts the two
    paths return identical values before any rate is reported."""
    warm = _population(4)
    assert suite_objective.evaluate_batch(warm) == \
        [suite_objective(config) for config in warm]
    configs = _population(size)
    started = time.perf_counter()
    scalar_values = [suite_objective(config) for config in configs]
    scalar_per_s = size / (time.perf_counter() - started)
    started = time.perf_counter()
    batch_values = suite_objective.evaluate_batch(configs)
    batch_per_s = size / (time.perf_counter() - started)
    assert batch_values == scalar_values, (
        f"batch values diverged from scalar at n={size}")
    return {
        "scalar_per_s": round(scalar_per_s, 1),
        "batch_per_s": round(batch_per_s, 1),
        "speedup": round(batch_per_s / scalar_per_s, 2),
    }


def test_batch_at_least_matches_scalar_throughput(report=None):
    """CI smoke: at a small population the batch path must price at
    least as fast as the scalar loop — and identically
    (:func:`run_batch_pricing` asserts value equality)."""
    best = 0.0
    for _ in range(ATTEMPTS):
        best = max(best, run_batch_pricing(SMOKE_SIZE)["speedup"])
        if best >= 1.0:
            break
    assert best >= 1.0, (
        f"batch path slower than scalar at n={SMOKE_SIZE}:"
        f" {best:.2f}x")


def main():
    rows = [{"candidates": n, **run_batch_pricing(n)} for n in SIZES]
    header = f"{'candidates':>10} {'scalar/s':>10} {'batch/s':>12} " \
             f"{'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['candidates']:>10} {row['scalar_per_s']:>10.1f} "
              f"{row['batch_per_s']:>12.1f} {row['speedup']:>7.2f}x")
    at_1k = next(r for r in rows if r["candidates"] == 1_000)
    if at_1k["speedup"] < TARGET_SPEEDUP:
        print(f"WARNING: speedup at 1k candidates"
              f" ({at_1k['speedup']:.1f}x) below the"
              f" {TARGET_SPEEDUP:.0f}x target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
