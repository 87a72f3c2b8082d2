"""Evaluator semantics: ordering, dedup, caching, parallel identity."""

import numpy as np
import pytest

from repro.engine import EvalResult, Evaluator, ResultCache
from repro.errors import EngineError
from repro.telemetry import MetricsRegistry

CALLS = []


def _square(candidate):
    CALLS.append(candidate["x"])
    return float(candidate["x"]) ** 2


def _seeded(candidate, seed):
    rng = np.random.default_rng(seed)
    return float(candidate["x"]) + float(rng.random())


def _cand(*xs):
    return [{"x": x} for x in xs]


class TestBasics:
    def setup_method(self):
        CALLS.clear()

    def test_results_in_input_order(self):
        ev = Evaluator(_square)
        results = ev.map_batch(_cand(3, 1, 2))
        assert [r.value for r in results] == [9.0, 1.0, 4.0]
        assert [r.candidate["x"] for r in results] == [3, 1, 2]
        assert all(isinstance(r, EvalResult) for r in results)

    def test_in_batch_dedup(self):
        ev = Evaluator(_square)
        results = ev.map_batch(_cand(2, 2, 2))
        assert [r.value for r in results] == [4.0, 4.0, 4.0]
        assert [r.cached for r in results] == [False, True, True]
        assert CALLS == [2]
        assert ev.stats()["oracle_calls"] == 1

    def test_cross_batch_cache(self):
        ev = Evaluator(_square)
        ev.map_batch(_cand(1, 2))
        results = ev.map_batch(_cand(2, 3))
        assert [r.cached for r in results] == [True, False]
        assert ev.stats()["oracle_calls"] == 3

    def test_warm_cache_means_zero_oracle_calls(self):
        cache = ResultCache()
        first = Evaluator(_square, cache=cache)
        a = first.map_batch(_cand(1, 2, 3))
        CALLS.clear()
        second = Evaluator(_square, cache=cache)
        b = second.map_batch(_cand(1, 2, 3))
        assert CALLS == []
        assert second.stats()["oracle_calls"] == 0
        assert [r.value for r in a] == [r.value for r in b]

    def test_jobs_must_be_positive(self):
        with pytest.raises(EngineError):
            Evaluator(_square, jobs=0)

    def test_evaluate_single(self):
        assert Evaluator(_square).evaluate({"x": 4}) == 16.0


class TestDeterminism:
    def test_parallel_matches_serial(self):
        serial = Evaluator(_square).map_batch(_cand(*range(8)))
        parallel = Evaluator(_square, jobs=4).map_batch(_cand(*range(8)))
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.key for r in serial] == [r.key for r in parallel]

    def test_seeds_are_order_independent(self):
        ev = Evaluator(_seeded, seeded=True, seed=7)
        forward = ev.map_batch(_cand(1, 2, 3))
        fresh = Evaluator(_seeded, seeded=True, seed=7)
        backward = fresh.map_batch(_cand(3, 2, 1))
        by_x_fwd = {r.candidate["x"]: (r.seed, r.value) for r in forward}
        by_x_bwd = {r.candidate["x"]: (r.seed, r.value) for r in backward}
        assert by_x_fwd == by_x_bwd

    def test_seeded_parallel_matches_serial(self):
        serial = Evaluator(_seeded, seeded=True, seed=3)
        parallel = Evaluator(_seeded, seeded=True, seed=3, jobs=4)
        a = serial.map_batch(_cand(*range(6)))
        b = parallel.map_batch(_cand(*range(6)))
        assert [r.value for r in a] == [r.value for r in b]

    def test_base_seed_changes_derived_seeds(self):
        a = Evaluator(_square, seed=0)
        b = Evaluator(_square, seed=1)
        key = a.key_for({"x": 5})
        assert a.seed_for(key) != b.seed_for(key)

    def test_context_partitions_the_cache(self):
        a = Evaluator(_square, context={"objective": "a"})
        b = Evaluator(_square, context={"objective": "b"})
        assert a.key_for({"x": 1}) != b.key_for({"x": 1})


class TestParallelErrors:
    def test_unpicklable_objective_returns_serial_values(self):
        # A lambda cannot reach a pool worker: it is priced in-process,
        # so jobs=2 returns exactly what jobs=1 does.
        serial = Evaluator(lambda c: c["x"] * 0.5).map_batch(_cand(1, 2))
        ev = Evaluator(lambda c: c["x"] * 0.5, jobs=2)
        results = ev.map_batch(_cand(1, 2))
        assert [r.value for r in results] == [r.value for r in serial]
        assert [r.key for r in results] == [r.key for r in serial]


class TestTelemetry:
    def test_metrics_published(self):
        metrics = MetricsRegistry()
        ev = Evaluator(_square, metrics=metrics)
        ev.map_batch(_cand(1, 2, 2))
        snapshot = metrics.snapshot()
        assert snapshot["engine.batches"]["value"] == 1
        assert snapshot["engine.candidates"]["value"] == 3
        assert snapshot["engine.oracle_calls"]["value"] == 2
        assert snapshot["engine.cache_hits"]["value"] == 1
        assert snapshot["engine.eval_wall_s"]["count"] == 2
