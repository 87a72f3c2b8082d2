"""Scalar-vs-vectorized fleet mission throughput.

The tentpole claim for :mod:`repro.system.fleet`: evaluating a rollout
population (tiers × Monte Carlo perturbations) through the closed-form
batch engine beats per-rollout ``run_mission`` by well over an order of
magnitude at population sizes a study actually uses (>= 20x at 1k
rollouts), while returning **exactly equal** :class:`MissionResult`
values, field for field.

Both paths get precomputed courses (planning is hoisted and shared —
see ``plan_course``), so the speedup measured here is pure simulation:
the dt-stepped Python chase loop versus three fused-numpy step counts.

Each measured size also carries the engine's exact
``alloc_bytes_per_rollout``, the allocation-tax instrument from
EXPERIMENTS.md S5.

Two entry points:

- ``pytest benchmarks/bench_fleet_missions.py`` — small-scale smoke:
  batch must not lose to scalar, and results must match exactly; plus
  the S6 monotonicity gate at 1k/10k rollouts (run in CI, where
  absolute throughput is noisy but the ordering is not);
- ``python benchmarks/bench_fleet_missions.py`` — the full sweep at
  10/100/1k/10k/100k rollouts, printed as a table (the numbers quoted
  in EXPERIMENTS.md S4/S6).  The sweep also asserts the S6
  monotonicity claim: the arena-backed batch speedup must not collapse
  as the population grows (each size's speedup >= 0.9x the previous
  size's — the allocation-tax signature the arena removes).
"""

import functools
import gc
import sys
import time

import numpy as np

from repro.engine.arena import BatchArena
from repro.hw.catalog import uav_compute_tiers
from repro.kernels.planning.occupancy import CircleWorld
from repro.system.fleet import FleetStudy, ensure_course, run_fleet
from repro.system.mission import MissionConfig, run_mission

SIZES = (10, 100, 1_000, 10_000, 100_000)
SMOKE_SIZE = 64
ATTEMPTS = 3        # re-measure on a noisy machine before failing
TARGET_SPEEDUP = 20.0   # the EXPERIMENTS.md claim, at >= 1k rollouts
MONOTONE_FLOOR = 0.9    # speedup(N+1) >= 0.9 * speedup(N) (S6)

#: Scalar rollouts in the baseline measurement sample.  The scalar
#: loop's rate is size-independent by construction (one Python loop
#: per rollout, no shared state), so it is measured ONCE per process —
#: warmed, best-of-``BATCH_REPS``, GC paused — and shared by every
#: sweep size.  Re-measuring per size would (a) price small sizes on a
#: cold interpreter, overstating their speedup, and (b) inject an
#: uncorrelated noise term into a ratio whose *shape across sizes* is
#: the monotonicity instrument.  Result equality against the scalar
#: path is still asserted per size over this sample.
SCALAR_SAMPLE = 2_000
BATCH_REPS = 5

_COURSES = {}


@functools.cache
def _fleet_arena():
    """The bench arena (process-cached): sweep sizes share buffers, so
    large populations measure the steady-state reuse path, not cold
    allocation."""
    return BatchArena()


@functools.cache
def _fleet_config():
    """The bench scenario: compact two-lap patrol, shared world + plan
    (process-cached so every size reuses one course)."""
    world = CircleWorld.random(
        dim=2, n_obstacles=24, extent=60.0,
        radius_range=(1.0, 2.5), seed=5, keep_corners_free=3.0)
    return MissionConfig(world=world, start=np.array([1.0, 1.0]),
                         goal=np.array([58.0, 58.0]), laps=2)


def _fleet_population(n):
    tiers = uav_compute_tiers()
    trials = (n + len(tiers) - 1) // len(tiers)
    study = FleetStudy(config=_fleet_config(), tiers=tiers,
                       trials=trials, seed=0)
    return study.rollouts()[:n]


def _scalar_results(sample):
    return [run_mission(r.config, r.platform, r.compute_mass_kg,
                        r.compute_power_w,
                        course=ensure_course(r.config, _COURSES))
            for r in sample]


@functools.cache
def _scalar_rate():
    """Best-of-reps scalar rollouts/s over a warmed fixed-size sample
    (process-cached: one baseline per process, shared by all sizes)."""
    sample = _fleet_population(SCALAR_SAMPLE)
    _scalar_results(sample)                      # warm interpreter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = 0.0
        for _ in range(BATCH_REPS):
            started = time.perf_counter()
            _scalar_results(sample)
            best = max(best, len(sample)
                       / (time.perf_counter() - started))
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def run_fleet_missions(size):
    """Scalar-vs-vectorized mission rollouts (S4), plus the engine's
    exact bytes-allocated-per-rollout.

    The batch path runs through a warmed :class:`BatchArena` (S6): the
    measured rate is the steady-state, zero-allocation reuse path a
    Monte Carlo sweep or ask/tell loop actually sits on, which is what
    keeps the speedup monotone instead of collapsing past ~10k
    rollouts.  Timed regions run with the cyclic GC paused
    (``timeit``-style hygiene; collector scheduling scales with live
    object count, which would bill the 100k point for heap size, not
    work), and the scalar denominator comes from :func:`_scalar_rate`
    so every size divides by the same baseline.  Asserts exact result
    equality with the scalar path before any rate is reported."""
    scalar_per_s = _scalar_rate()
    rollouts = _fleet_population(size)
    sample = rollouts[:min(size, SCALAR_SAMPLE)]
    arena = _fleet_arena()
    run_fleet(rollouts, course_cache=_COURSES, arena=arena)  # warm
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        batch_per_s = 0.0
        for _ in range(BATCH_REPS):
            started = time.perf_counter()
            fleet = run_fleet(rollouts, course_cache=_COURSES,
                              arena=arena)
            batch_per_s = max(
                batch_per_s, size / (time.perf_counter() - started))
    finally:
        if gc_was_enabled:
            gc.enable()
    assert list(fleet.results[:len(sample)]) == \
        _scalar_results(sample), (
        f"batch results diverged from scalar at n={size}")
    return {
        "scalar_per_s": round(scalar_per_s, 1),
        "batch_per_s": round(batch_per_s, 1),
        "speedup": round(batch_per_s / scalar_per_s, 2),
        "alloc_bytes_per_rollout": round(
            fleet.alloc_bytes_per_rollout, 1),
    }


def sweep(sizes=SIZES):
    return [{"rollouts": n, **run_fleet_missions(n)} for n in sizes]


def assert_monotone(rows):
    """S6: the batch advantage must be monotone (within
    ``MONOTONE_FLOOR``) across a sweep — a collapse at large N means
    the memory layer regressed.  Same-run comparison, so it holds on
    any machine.  A violating pair is re-measured (best-of
    ``ATTEMPTS``) before failing — the same noisy-machine idiom as the
    smoke test."""
    for prev, row in zip(rows, rows[1:]):
        for _ in range(ATTEMPTS):
            if row["speedup"] >= MONOTONE_FLOOR * prev["speedup"]:
                break
            prev["speedup"] = max(
                prev["speedup"],
                run_fleet_missions(prev["rollouts"])["speedup"])
            row["speedup"] = max(
                row["speedup"],
                run_fleet_missions(row["rollouts"])["speedup"])
        assert row["speedup"] >= MONOTONE_FLOOR * prev["speedup"], (
            f"speedup collapsed: {row['speedup']:.2f}x at"
            f" {row['rollouts']} rollouts < {MONOTONE_FLOOR:g}x the"
            f" {prev['speedup']:.2f}x at {prev['rollouts']}")


def test_batch_equals_scalar_and_at_least_matches_throughput():
    """CI smoke: at a small population the fleet engine must simulate
    at least as fast as per-rollout run_mission — and identically
    (:func:`run_fleet_missions` asserts result equality)."""
    best = 0.0
    for _ in range(ATTEMPTS):
        best = max(best, run_fleet_missions(SMOKE_SIZE)["speedup"])
        if best >= 1.0:
            break
    assert best >= 1.0, (
        f"fleet engine slower than scalar at n={SMOKE_SIZE}:"
        f" {best:.2f}x")


def test_speedup_monotone_1k_to_10k():
    """CI gate (S6): speedup@10k >= 0.9x speedup@1k in the same run
    (the full 100k point runs in the ``__main__`` sweep)."""
    assert_monotone(sweep((1_000, 10_000)))


def main():
    rows = sweep()
    header = f"{'rollouts':>10} {'scalar/s':>10} {'batch/s':>12} " \
             f"{'speedup':>8} {'B/rollout':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['rollouts']:>10} {row['scalar_per_s']:>10.1f} "
              f"{row['batch_per_s']:>12.1f} {row['speedup']:>7.2f}x "
              f"{row['alloc_bytes_per_rollout']:>10.0f}")
    at_1k = next(r for r in rows if r["rollouts"] == 1_000)
    status = 0
    if at_1k["speedup"] < TARGET_SPEEDUP:
        print(f"WARNING: speedup at 1k rollouts"
              f" ({at_1k['speedup']:.1f}x) below the"
              f" {TARGET_SPEEDUP:.0f}x target", file=sys.stderr)
        status = 1
    assert_monotone(rows)
    return status


if __name__ == "__main__":
    sys.exit(main())
