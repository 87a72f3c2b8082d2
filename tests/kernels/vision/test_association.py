"""Unit tests for data association (greedy vs Hungarian)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels.vision.association import (
    assignment_cost,
    association_profile,
    greedy_assignment,
    optimal_assignment,
)


class TestGreedy:
    def test_obvious_diagonal(self):
        cost = np.array([[0.1, 9.0], [9.0, 0.2]])
        assert greedy_assignment(cost) == [(0, 0), (1, 1)]

    def test_gating(self):
        cost = np.array([[0.1, 9.0], [9.0, 8.0]])
        matches = greedy_assignment(cost, max_cost=1.0)
        assert matches == [(0, 0)]

    def test_rectangular(self):
        cost = np.array([[1.0, 0.1, 5.0]])
        assert greedy_assignment(cost) == [(0, 1)]

    def test_each_row_col_once(self, rng):
        cost = rng.random((6, 8))
        matches = greedy_assignment(cost)
        rows = [r for r, _ in matches]
        cols = [c for _, c in matches]
        assert len(set(rows)) == len(rows) == 6
        assert len(set(cols)) == len(cols)

    def test_invalid_matrix(self):
        with pytest.raises(ConfigurationError):
            greedy_assignment(np.zeros((0, 3)))
        with pytest.raises(ConfigurationError):
            greedy_assignment(np.array([[np.nan]]))


class TestOptimal:
    @pytest.fixture(autouse=True)
    def _scipy(self):
        # The Hungarian reference is scipy's; the package itself is
        # scipy-free.
        pytest.importorskip("scipy")

    def test_beats_greedy_on_adversarial_case(self):
        # Greedy grabs (0,0)=1 and is forced into (1,1)=100;
        # optimal takes 2 + 2 = 4.
        cost = np.array([[1.0, 2.0], [2.0, 100.0]])
        greedy = greedy_assignment(cost)
        optimal = optimal_assignment(cost)
        assert assignment_cost(cost, optimal) \
            < assignment_cost(cost, greedy)
        assert optimal == [(0, 1), (1, 0)]

    def test_never_worse_than_greedy(self, rng):
        for _ in range(20):
            cost = rng.random((7, 7))
            greedy_cost = assignment_cost(cost,
                                          greedy_assignment(cost))
            optimal_cost = assignment_cost(cost,
                                           optimal_assignment(cost))
            assert optimal_cost <= greedy_cost + 1e-12

    def test_gating_after_optimum(self):
        cost = np.array([[0.1, 9.0], [9.0, 8.0]])
        matches = optimal_assignment(cost, max_cost=1.0)
        assert matches == [(0, 0)]

    def test_agrees_with_greedy_on_well_separated(self, rng):
        # Near-diagonal costs: both should find the diagonal.
        n = 8
        cost = rng.random((n, n)) + 10.0
        cost[np.arange(n), np.arange(n)] = rng.random(n)
        assert greedy_assignment(cost) == optimal_assignment(cost)


class TestProfiles:
    def test_optimal_costs_more_ops(self):
        greedy = association_profile(50, 50, optimal=False)
        hungarian = association_profile(50, 50, optimal=True)
        assert hungarian.int_ops > greedy.int_ops

    def test_search_class(self):
        assert association_profile(10, 10).op_class == "search"

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            association_profile(0, 5)
