"""Unit tests for design spaces, searches, surrogates, and Pareto tools."""

import math

import numpy as np
import pytest

from repro.dse import (
    Constraint,
    ConstraintSet,
    DesignSpace,
    EvolutionarySearch,
    GaussianProcess,
    Parameter,
    SurrogateSearch,
    grid_search,
    hypervolume_2d,
    pareto_front,
    random_search,
)
from repro.dse.pareto import dominates, normalized_regret
from repro.dse.search import GridStrategy
from repro.dse.surrogate import expected_improvement
from repro.engine.evaluator import EvalResult
from repro.errors import SearchError
from repro.telemetry import Tracer, use_tracer


@pytest.fixture
def space():
    return DesignSpace([
        Parameter("a", tuple(range(8))),
        Parameter("b", tuple(range(8))),
        Parameter("c", ("x", "y")),
    ])


def _objective(config):
    return ((config["a"] - 5) ** 2 + (config["b"] - 2) ** 2
            + (0.0 if config["c"] == "y" else 2.0))


class TestSpace:
    def test_size(self, space):
        assert space.size == 8 * 8 * 2

    def test_index_round_trip(self, space):
        for index in (0, 1, 17, space.size - 1):
            config = space.config_at(index)
            assert space.index_of(config) == index

    def test_out_of_range(self, space):
        with pytest.raises(SearchError):
            space.config_at(space.size)

    def test_invalid_config(self, space):
        with pytest.raises(SearchError):
            space.index_of({"a": 0, "b": 0, "c": "nope"})

    def test_iteration_covers_space(self):
        tiny = DesignSpace([Parameter("x", (1, 2)),
                            Parameter("y", ("p", "q"))])
        assert len(list(tiny)) == 4

    def test_encode_numeric_scaled(self, space):
        enc = space.encode({"a": 7, "b": 0, "c": "x"})
        assert enc[0] == pytest.approx(1.0)
        assert enc[1] == pytest.approx(0.0)
        # Categorical is one-hot.
        assert list(enc[2:]) == [1.0, 0.0]
        assert len(enc) == space.encoded_dim

    def test_sample_without_replacement_unique(self, space, rng):
        configs = space.sample(rng, n=20, replace=False)
        indices = {space.index_of(c) for c in configs}
        assert len(indices) == 20

    def test_neighbors(self, space):
        config = space.config_at(0)
        neighbors = space.neighbors(config)
        assert len(neighbors) == 7 + 7 + 1
        assert all(n != config for n in neighbors)

    def test_duplicate_values_rejected(self):
        with pytest.raises(SearchError):
            Parameter("p", (1, 1))


class TestBaselines:
    def test_grid_finds_optimum(self, space):
        result = grid_search(space, _objective)
        assert result.best_value == 0.0
        assert result.best_config == {"a": 5, "b": 2, "c": "y"}
        assert result.evaluations == space.size

    def test_grid_budget(self, space):
        result = grid_search(space, _objective, budget=10)
        assert result.evaluations == 10

    def test_random_trace_monotone(self, space):
        result = random_search(space, _objective, budget=30, seed=1)
        assert all(b <= a for a, b in zip(result.trace,
                                          result.trace[1:]))

    def test_random_reproducible(self, space):
        a = random_search(space, _objective, budget=20, seed=2)
        b = random_search(space, _objective, budget=20, seed=2)
        assert a.best_value == b.best_value
        assert a.history == b.history

    def test_best_after(self, space):
        result = random_search(space, _objective, budget=30, seed=3)
        assert result.best_after(30) <= result.best_after(5)


class TestNaNValues:
    """A NaN value never wins: the trace's running best starts at +inf,
    so the trace and ``best_value`` skip a NaN alike."""

    VALUES = [math.nan, 2.0, 1.0]

    def _check(self, strategy):
        assert strategy.trace == [math.inf, 2.0, 1.0]
        assert strategy.trace[-1] == strategy.best_value == 1.0
        assert strategy.result().best_after(3) == 1.0

    def _results(self, space):
        return [EvalResult(candidate=space.config_at(i), value=value,
                           key=str(i), cached=False, wall_time_s=0.0,
                           seed=0)
                for i, value in enumerate(self.VALUES)]

    def test_ingest_path(self, space):
        strategy = GridStrategy(space)
        for result in self._results(space):
            strategy.ingest(result.candidate, result.value)
        self._check(strategy)

    def test_tell_path(self, space):
        strategy = GridStrategy(space)
        strategy.tell(self._results(space))
        self._check(strategy)

    def test_traced_tell_path(self, space):
        strategy = GridStrategy(space)
        with use_tracer(Tracer()):
            strategy.tell(self._results(space))
        self._check(strategy)


class TestGaussianProcess:
    def test_interpolates_training_points(self, rng):
        x = rng.uniform(0, 1, size=(15, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        gp = GaussianProcess(noise_variance=1e-8).fit(x, y)
        mean, std = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.1)

    def test_uncertainty_grows_away_from_data(self, rng):
        x = rng.uniform(0, 0.3, size=(10, 1))
        y = x[:, 0]
        gp = GaussianProcess(length_scale=0.1).fit(x, y)
        _, near = gp.predict(np.array([[0.15]]))
        _, far = gp.predict(np.array([[5.0]]))
        assert far[0] > near[0]

    def test_predict_before_fit(self):
        with pytest.raises(SearchError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_mismatched_training(self):
        with pytest.raises(SearchError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_expected_improvement_properties(self):
        # High mean (bad) with low std -> near-zero EI.
        ei_bad = expected_improvement(np.array([10.0]),
                                      np.array([0.01]), best=0.0)
        # Low mean (good) -> large EI.
        ei_good = expected_improvement(np.array([-1.0]),
                                       np.array([0.01]), best=0.0)
        assert ei_bad[0] < 1e-6
        assert ei_good[0] > 0.9
        # Uncertainty creates EI even at the incumbent mean.
        ei_unc = expected_improvement(np.array([0.0]),
                                      np.array([1.0]), best=0.0)
        assert ei_unc[0] > 0.1


class TestGuidedSearches:
    def test_surrogate_beats_random_sample_efficiency(self, space):
        budget = 30
        surrogate = SurrogateSearch(space, n_initial=8,
                                    seed=0).run(_objective, budget)
        random_result = random_search(space, _objective,
                                      budget=budget, seed=0)
        assert surrogate.best_value <= random_result.best_value

    def test_surrogate_finds_optimum_with_modest_budget(self, space):
        result = SurrogateSearch(space, n_initial=8,
                                 seed=1).run(_objective, 40)
        assert result.best_value <= 1.0

    def test_surrogate_budget_validation(self, space):
        search = SurrogateSearch(space, n_initial=8, seed=2)
        with pytest.raises(SearchError):
            search.run(_objective, budget=4)

    def test_evolutionary_improves_over_time(self, space):
        result = EvolutionarySearch(space, population_size=10,
                                    seed=3).run(_objective, 60)
        assert result.best_value <= 2.0
        assert result.trace[-1] <= result.trace[9]

    def test_evolutionary_memoizes(self, space):
        calls = []

        def counting(config):
            calls.append(1)
            return _objective(config)

        result = EvolutionarySearch(space, seed=4).run(counting, 50)
        assert len(calls) == result.evaluations


class TestPareto:
    def test_dominates(self):
        assert dominates([1.0, 1.0], [2.0, 2.0])
        assert not dominates([1.0, 3.0], [2.0, 2.0])
        assert not dominates([1.0, 1.0], [1.0, 1.0])

    def test_front_extraction(self):
        points = [[1, 5], [2, 2], [5, 1], [4, 4], [3, 3]]
        front = pareto_front(points)
        assert front == [0, 1, 2]

    def test_hypervolume(self):
        points = [[1.0, 1.0]]
        assert hypervolume_2d(points, [2.0, 2.0]) == pytest.approx(1.0)
        # Two staircase points.
        points = [[0.0, 1.0], [1.0, 0.0]]
        assert hypervolume_2d(points, [2.0, 2.0]) == pytest.approx(3.0)

    def test_hypervolume_beyond_reference_is_zero(self):
        assert hypervolume_2d([[3.0, 3.0]], [2.0, 2.0]) == 0.0

    def test_normalized_regret(self):
        assert normalized_regret(5.0, 0.0, 10.0) == pytest.approx(0.5)
        assert normalized_regret(3.0, 3.0, 3.0) == 0.0


class TestConstraints:
    def test_feasibility(self):
        constraints = ConstraintSet([
            Constraint("mass", lambda c: c["a"] * 0.1, bound=0.3),
        ])
        assert constraints.feasible({"a": 2})
        assert not constraints.feasible({"a": 5})
        assert constraints.total_violation({"a": 5}) \
            == pytest.approx(0.2)

    def test_penalized_objective_ranks_feasible_first(self, space):
        constraints = ConstraintSet([
            Constraint("a-bound", lambda c: float(c["a"]), bound=3.0),
        ])
        penalized = constraints.penalized(_objective)
        feasible_best = min(penalized(c) for c in space
                            if constraints.feasible(c))
        infeasible_any = penalized({"a": 7, "b": 2, "c": "y"})
        assert feasible_best < infeasible_any

    def test_duplicate_names_rejected(self):
        with pytest.raises(SearchError):
            ConstraintSet([
                Constraint("x", lambda c: 0.0, 1.0),
                Constraint("x", lambda c: 0.0, 1.0),
            ])
