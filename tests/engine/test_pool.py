"""The shared worker pool: reuse across calls, recovery from a dead
worker, laziness, and one exception policy at every ``jobs`` value."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import Evaluator, pool
from repro.engine.shm import shm_available
from repro.errors import EngineError

ROOT = Path(__file__).resolve().parents[2]

#: The test process; a forked pool worker inherits this value.
_PARENT = os.getpid()

#: Batch calls seen by *this* process (workers append to their copies).
BATCH_CALLS = []


def _pid(candidate):
    return os.getpid()


def _die_in_worker(candidate):
    if os.getpid() == _PARENT:
        raise AssertionError("expected to run in a pool worker")
    os._exit(1)


def _nested(candidate):
    # A parallel call from inside a pool worker.
    return pool.parallel_map(abs, [-candidate, -candidate - 1], jobs=2)


def _raise_type_error(candidate):
    raise TypeError(f"bad candidate {candidate}")


class RaisingBatchObjective:
    """Module-level batch objective whose batch call raises TypeError."""

    def __call__(self, candidate):
        raise TypeError("scalar path must not be reached")

    def evaluate_batch(self, candidates):
        BATCH_CALLS.append(len(candidates))
        raise TypeError("batch kernel failed")


class TestWorkerReuse:
    def test_two_evaluators_share_one_pool(self):
        first = Evaluator(_pid, jobs=2).map_batch(list(range(8)))
        executor = pool._executor
        workers = set(executor._processes)
        second = Evaluator(_pid, jobs=2).map_batch(list(range(8, 16)))
        assert pool._executor is executor
        pids = {r.value for r in first + second}
        assert os.getpid() not in pids
        assert pids <= workers


class TestBrokenWorker:
    def test_dead_worker_raises_engine_error_then_recovers(self):
        with pytest.raises(EngineError, match="worker died"):
            Evaluator(_die_in_worker, jobs=2).map_batch(list(range(4)))
        results = Evaluator(_pid, jobs=2).map_batch(list(range(4)))
        assert os.getpid() not in {r.value for r in results}


def test_nested_parallel_call_in_a_worker_completes_and_exits():
    # The worker prices the nested call in-process; a pool of its own
    # would keep it (and so the parent) from exiting.
    code = ("from repro.engine import Evaluator\n"
            "from tests.engine.test_pool import _nested\n"
            "results = Evaluator(_nested, jobs=2).map_batch([1, 2, 3])\n"
            "assert [r.value for r in results] == [[1, 2], [2, 3], [3, 4]]\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


class TestExceptionType:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scalar_objective_type_error_keeps_its_type(self, jobs):
        with pytest.raises(TypeError, match="bad candidate"):
            Evaluator(_raise_type_error, jobs=jobs).map_batch(
                list(range(4)))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_objective_type_error_keeps_its_type(self, jobs):
        BATCH_CALLS.clear()
        with pytest.raises(TypeError, match="batch kernel failed"):
            Evaluator(RaisingBatchObjective(), jobs=jobs).map_batch(
                list(range(80)))
        # Sharded at jobs=2: the kernel ran in workers only, never again
        # in this process.
        assert BATCH_CALLS == ([] if jobs > 1 else [80])


def test_serial_run_never_imports_the_process_pool():
    code = (
        "import sys\n"
        "from repro.dse.objectives import codesign_space, suite_objective\n"
        "from repro.engine import Evaluator\n"
        "space = codesign_space()\n"
        "Evaluator(suite_objective).map_batch(\n"
        "    [space.config_at(i) for i in range(80)])\n"
        "assert 'concurrent.futures.process' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(not shm_available(),
                    reason="POSIX shared memory unavailable")
def test_workers_share_the_parents_resource_tracker():
    # The pool starts before any shared-memory segment exists; a fleet
    # study sharded through it later must not leave each worker with a
    # private tracker that reports the study's segments as leaked.
    code = (
        "import numpy as np\n"
        "from repro.engine import Evaluator\n"
        "from repro.hw.catalog import uav_compute_tiers\n"
        "from repro.kernels.planning import CircleWorld\n"
        "from repro.system.fleet import FleetStudy\n"
        "from repro.system.mission import MissionConfig\n"
        "Evaluator(abs, jobs=2).map_batch([-1, -2, -3, -4])\n"
        "world = CircleWorld.random(dim=2, n_obstacles=10, extent=25.0,\n"
        "    radius_range=(1.0, 2.0), seed=4, keep_corners_free=3.0)\n"
        "config = MissionConfig(world=world, start=np.array([1.0, 1.0]),\n"
        "    goal=np.array([23.0, 23.0]))\n"
        "study = FleetStudy(config=config, tiers=uav_compute_tiers(),\n"
        "    trials=4, seed=3)\n"
        "assert study.run(jobs=2).fleet.results == study.run().fleet.results\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "leaked" not in result.stderr, result.stderr
