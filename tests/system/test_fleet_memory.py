"""Fleet memory architecture: chunked streaming and shard transport.

Complements ``tests/system/test_fleet.py`` (scalar equivalence,
allocation accounting): here the contract is that ``chunk_size`` and
the ``jobs > 1`` shared-memory shard transport (serial where shared
memory is unavailable) change *where bytes live and move*, never what
any result is — chunked == unchunked, shm == serial — plus the
telemetry those paths publish and the errors they raise when
misconfigured — and the arena's steady state across reused
generations.
"""

import numpy as np
import pytest

from repro.engine.arena import BatchArena
from repro.engine.shm import shm_available
from repro.errors import ConfigurationError
from repro.hw.catalog import uav_compute_tiers
from repro.kernels.planning import CircleWorld
from repro.system.fleet import FleetStudy, run_fleet
from repro.telemetry.metrics import MetricsRegistry

_WORLD = CircleWorld.random(dim=2, n_obstacles=10, extent=25.0,
                            radius_range=(1.0, 2.0), seed=4,
                            keep_corners_free=3.0)


@pytest.fixture(scope="module")
def config():
    from repro.system.mission import MissionConfig

    return MissionConfig(world=_WORLD, start=np.array([1.0, 1.0]),
                         goal=np.array([23.0, 23.0]))


@pytest.fixture(scope="module")
def courses():
    return {}


@pytest.fixture(scope="module")
def population(config):
    return FleetStudy(config=config, tiers=uav_compute_tiers(),
                      trials=5, seed=7).rollouts()


class TestChunkedRunFleet:
    def test_chunked_equals_unchunked(self, population, courses):
        whole = run_fleet(population, course_cache=courses)
        for chunk_size in (1, 3, 7, len(population), 10_000):
            chunked = run_fleet(population, course_cache=courses,
                                chunk_size=chunk_size)
            assert chunked.results == whole.results
            assert chunked.batch_priced == whole.batch_priced
            assert chunked.scalar_fallback == whole.scalar_fallback
            assert chunked.alloc_bytes == whole.alloc_bytes

    def test_chunked_with_shared_arena(self, population, courses):
        arena = BatchArena()
        whole = run_fleet(population, course_cache=courses)
        chunked = run_fleet(population, course_cache=courses,
                            arena=arena, chunk_size=4)
        assert chunked.results == whole.results
        assert arena.grows > 0

    def test_chunk_telemetry(self, population, courses):
        metrics = MetricsRegistry()
        run_fleet(population, course_cache=courses, chunk_size=4,
                  metrics=metrics)
        snapshot = metrics.snapshot()
        expected = -(-len(population) // 4)  # ceil division
        assert snapshot["fleet.chunks"]["value"] == expected
        assert 0 < snapshot["fleet.arena_occupancy_pct"]["value"] <= 100

    def test_no_chunk_metrics_when_unchunked(self, population, courses):
        metrics = MetricsRegistry()
        run_fleet(population, course_cache=courses, metrics=metrics)
        assert "fleet.chunks" not in metrics.snapshot()

    def test_invalid_chunk_size(self, population):
        with pytest.raises(ConfigurationError):
            run_fleet(population, chunk_size=0)


class TestStudyTransport:
    @pytest.fixture(scope="class")
    def study(self, config):
        return FleetStudy(config=config, tiers=uav_compute_tiers(),
                          trials=4, seed=3)

    @pytest.fixture(scope="class")
    def serial(self, study):
        return study.run()

    def test_no_shared_memory_runs_serial(self, study, serial,
                                          monkeypatch):
        # Without shared memory a jobs=2 study runs serially.
        monkeypatch.setattr("repro.system.fleet.shm_available",
                            lambda: False)
        parallel = study.run(jobs=2)
        assert parallel.fleet.results == serial.fleet.results
        assert parallel.statistics == serial.statistics

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_shm_transport_equals_serial(self, study, serial):
        parallel = study.run(jobs=2)
        assert parallel.fleet.results == serial.fleet.results
        assert parallel.statistics == serial.statistics

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_shm_chunked_equals_serial(self, study, serial):
        parallel = study.run(jobs=2, chunk_size=3)
        assert parallel.fleet.results == serial.fleet.results

    def test_chunked_serial_study_equals_serial(self, study, serial):
        chunked = study.run(chunk_size=2)
        assert chunked.fleet.results == serial.fleet.results
        assert chunked.statistics == serial.statistics

    def test_invalid_chunk_size_rejected(self, study):
        with pytest.raises(ConfigurationError):
            study.run(chunk_size=-1)


class TestArenaSteadyState:
    """Five fleet generations of 256 rollouts through one arena: after
    the warm-up generation the arena never grows, every later request
    is a reuse, and bytes allocated per rollout stay flat (S6)."""

    GENERATIONS = 5
    ROLLOUTS = 256

    def test_reused_arena_stops_growing(self):
        from repro.system.mission import MissionConfig

        world = CircleWorld.random(dim=2, n_obstacles=24, extent=60.0,
                                   radius_range=(1.0, 2.5), seed=5,
                                   keep_corners_free=3.0)
        config = MissionConfig(world=world, start=np.array([1.0, 1.0]),
                               goal=np.array([58.0, 58.0]), laps=2)
        tiers = uav_compute_tiers()
        trials = -(-self.ROLLOUTS // len(tiers))  # ceil division
        rollouts = FleetStudy(config=config, tiers=tiers, trials=trials,
                              seed=0).rollouts()[:self.ROLLOUTS]
        arena = BatchArena()
        courses = {}
        per_rollout, grow_bytes = [], []
        for _ in range(self.GENERATIONS):
            fleet = run_fleet(rollouts, course_cache=courses,
                              arena=arena)
            per_rollout.append(fleet.alloc_bytes_per_rollout)
            grow_bytes.append(arena.grow_bytes)
        assert max(per_rollout) / min(per_rollout) <= 1.1, per_rollout
        assert grow_bytes[1:] == [grow_bytes[0]] * (self.GENERATIONS - 1)
        assert arena.reuses / (arena.reuses + arena.grows) == 0.8
