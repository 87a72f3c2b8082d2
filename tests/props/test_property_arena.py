"""Property-based contracts for the arena-backed memory layer.

Two claims are under test, both strict (bit-for-bit, not approximate):

1. **Arena reuse is invisible.**  A single :class:`BatchArena` carried
   across generations of *varying* population sizes — including
   shrink-then-grow sequences that exercise both the reuse path and the
   capacity-doubling growth path — produces outputs bit-identical to
   fresh allocation, for both the SoA pricing kernel
   (:func:`repro.hw.batch.batch_estimate`) and the fleet engine
   (:func:`repro.system.fleet.run_fleet`).  Arena buffers are undefined
   at handoff, so any read-before-write bug in a kernel shows up here
   as stale data from the *previous* generation leaking into this one.

2. **Transport is invisible.**  Sharding a :class:`FleetStudy`
   population over ``jobs=2`` with the shared-memory column transport
   returns results equal to the serial run (as does ``jobs=2`` without
   shared memory, which runs serially) — the zero-copy path changes how
   bytes move, never what they are.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import DivergenceClass, WorkloadProfile
from repro.engine.arena import BatchArena
from repro.engine.shm import shm_available
from repro.hw.batch import PlatformSoA, ProfileSoA, batch_estimate
from repro.hw.catalog import uav_compute_tiers
from repro.kernels.planning import CircleWorld
from repro.system.fleet import FleetStudy, run_fleet
from repro.system.mission import MissionConfig

_TIERS = uav_compute_tiers()
_PLATFORMS = PlatformSoA.from_platforms([t[1] for t in _TIERS])

_count = st.floats(min_value=0.0, max_value=1e14, allow_nan=False)
_profile = st.builds(
    WorkloadProfile,
    name=st.just("prop"),
    flops=_count,
    int_ops=_count,
    bytes_read=_count,
    bytes_written=_count,
    working_set_bytes=st.floats(min_value=0.0, max_value=1e9,
                                allow_nan=False),
    parallel_fraction=st.floats(min_value=0.0, max_value=1.0),
    divergence=st.sampled_from(list(DivergenceClass)),
)
#: Generations of varying width: 1..8 profiles each, 2..5 generations.
#: Hypothesis shrinks toward short/narrow, but the size floor still
#: forces shrink-then-grow orderings through the arena.
_generations = st.lists(st.lists(_profile, min_size=1, max_size=8),
                        min_size=2, max_size=5)


def _freeze(cost):
    """Copy a (possibly arena-borrowed) BatchCost into owned arrays so
    it survives the next kernel call on the same arena."""
    return (cost.latency_s.copy(), cost.energy_j.copy(),
            cost.power_w.copy(), cost.bound.copy(),
            cost.area_mm2.copy())


@settings(max_examples=60, deadline=None)
@given(generations=_generations)
def test_arena_reuse_bit_identical_batch_estimate(generations):
    arena = BatchArena()
    for profiles in generations:
        soa = ProfileSoA.from_profiles(profiles)
        reused = _freeze(batch_estimate(_PLATFORMS, soa, arena=arena))
        fresh = _freeze(batch_estimate(_PLATFORMS, soa))
        for got, want in zip(reused, fresh):
            np.testing.assert_array_equal(got, want, strict=True)
    # Varying widths must have exercised reuse, not just growth.
    assert arena.grows + arena.reuses >= len(generations)


# -- fleet generations --------------------------------------------------

_WORLD = CircleWorld.random(dim=2, n_obstacles=10, extent=25.0,
                            radius_range=(1.0, 2.0), seed=4,
                            keep_corners_free=3.0)
_BASE = MissionConfig(world=_WORLD, start=np.array([1.0, 1.0]),
                      goal=np.array([23.0, 23.0]))
_COURSES = {}

#: A pool of perturbed studies; generations draw rollout prefixes of
#: varying length from it so population size changes across calls.
_POOL = FleetStudy(
    config=_BASE, tiers=_TIERS, trials=6, seed=11).rollouts()


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(
    st.integers(min_value=1, max_value=len(_POOL)),
    min_size=2, max_size=4))
def test_arena_reuse_bit_identical_run_fleet(sizes):
    arena = BatchArena()
    for size in sizes:
        rollouts = _POOL[:size]
        reused = run_fleet(rollouts, course_cache=_COURSES, arena=arena)
        fresh = run_fleet(rollouts, course_cache=_COURSES)
        # MissionResult is a plain dataclass of Python scalars: strict
        # equality is bit-identity here.
        assert reused.results == fresh.results
        assert reused.alloc_bytes == fresh.alloc_bytes


def test_shrink_then_grow_never_corrupts():
    """A deliberate worst case: wide, then narrow (stale tail bytes in
    every buffer), then wide again (growth re-allocation mid-sequence)."""
    arena = BatchArena()
    for size in (12, 1, 12, 3, len(_POOL)):
        rollouts = _POOL[:size]
        reused = run_fleet(rollouts, course_cache=_COURSES, arena=arena)
        fresh = run_fleet(rollouts, course_cache=_COURSES)
        assert reused.results == fresh.results
    assert arena.grows >= 1 and arena.reuses >= 1


# -- shared-memory transport -------------------------------------------

@pytest.mark.skipif(not shm_available(),
                    reason="POSIX shared memory unavailable")
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       trials=st.integers(min_value=2, max_value=5))
def test_shm_jobs2_equals_serial(seed, trials):
    config = dataclasses.replace(_BASE, laps=1)
    study = FleetStudy(config=config, tiers=_TIERS, trials=trials,
                       seed=seed)
    serial = study.run()
    shm = study.run(jobs=2)
    # Without shared memory a jobs=2 study runs serially.
    with mock.patch("repro.system.fleet.shm_available",
                    return_value=False):
        no_shm = study.run(jobs=2)
    assert shm.fleet.results == serial.fleet.results
    assert no_shm.fleet.results == serial.fleet.results
    assert shm.statistics == serial.statistics
