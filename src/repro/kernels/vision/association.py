"""Data association: matching detections to tracks.

The glue kernel of every perception frontend (feature matching, multi-
object tracking, SLAM loop verification).  Two solvers over the same
cost matrix:

- :func:`greedy_assignment` — the O(n^2 log n) heuristic real-time
  stacks often ship;
- :func:`optimal_assignment` — the Hungarian optimum (via scipy's
  ``linear_sum_assignment``, imported on first call so the rest of the
  package never needs scipy), the accuracy reference.

The gap between them is another §2.2 metric story: greedy is faster and
usually close, but adversarial geometries make it arbitrarily worse —
so "assignment throughput" alone is not the number to optimize.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.profile import DivergenceClass, OpCounter, WorkloadProfile
from repro.errors import ConfigurationError


def _validate(cost: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ConfigurationError(
            f"cost matrix must be non-empty 2-D, got {cost.shape}"
        )
    if np.isnan(cost).any():
        raise ConfigurationError("cost matrix contains NaN")
    return cost


def greedy_assignment(cost: np.ndarray,
                      max_cost: float = float("inf"),
                      counter: Optional[OpCounter] = None
                      ) -> List[Tuple[int, int]]:
    """Greedy matching: repeatedly take the globally cheapest pair.

    Args:
        cost: ``(n_tracks, n_detections)`` cost matrix.
        max_cost: Gate — pairs above this are never matched.
        counter: Optional instrumentation.

    Returns:
        ``(row, col)`` pairs, each row/col used at most once, sorted by
        row for determinism.
    """
    cost = _validate(cost)
    n_rows, n_cols = cost.shape
    order = np.argsort(cost, axis=None)
    used_rows = np.zeros(n_rows, dtype=bool)
    used_cols = np.zeros(n_cols, dtype=bool)
    matches: List[Tuple[int, int]] = []
    for flat in order:
        row, col = divmod(int(flat), n_cols)
        if used_rows[row] or used_cols[col]:
            continue
        if cost[row, col] > max_cost:
            break  # sorted order: everything after is also gated out
        used_rows[row] = True
        used_cols[col] = True
        matches.append((row, col))
        if used_rows.all() or used_cols.all():
            break
    if counter is not None:
        size = float(n_rows * n_cols)
        counter.add_int_ops(size * np.log2(size + 1) + size)
        counter.add_read(8.0 * size)
        counter.add_write(8.0 * min(n_rows, n_cols) * 2)
    matches.sort()
    return matches


def optimal_assignment(cost: np.ndarray,
                       max_cost: float = float("inf"),
                       counter: Optional[OpCounter] = None
                       ) -> List[Tuple[int, int]]:
    """Minimum-cost assignment (Hungarian), with gating applied after.

    Pairs whose cost exceeds ``max_cost`` are dropped from the optimal
    solution (standard practice: gate, don't force).  Needs scipy.
    """
    from scipy.optimize import linear_sum_assignment

    cost = _validate(cost)
    rows, cols = linear_sum_assignment(cost)
    if counter is not None:
        n = float(max(cost.shape))
        counter.add_int_ops(n ** 3)
        counter.add_read(8.0 * cost.size)
        counter.add_write(8.0 * min(cost.shape) * 2)
    return sorted(
        (int(r), int(c)) for r, c in zip(rows, cols)
        if cost[r, c] <= max_cost
    )


def assignment_cost(cost: np.ndarray,
                    matches: List[Tuple[int, int]]) -> float:
    """Total cost of a match set."""
    cost = _validate(cost)
    return float(sum(cost[r, c] for r, c in matches))


def association_profile(n_tracks: int, n_detections: int,
                        optimal: bool = False,
                        name: Optional[str] = None) -> WorkloadProfile:
    """Closed-form association profile (integer/sort heavy, divergent)."""
    if n_tracks < 1 or n_detections < 1:
        raise ConfigurationError("need n_tracks, n_detections >= 1")
    counter = OpCounter(
        name=name or ("hungarian" if optimal else "greedy-assoc")
    )
    size = float(n_tracks * n_detections)
    if optimal:
        counter.add_int_ops(float(max(n_tracks, n_detections)) ** 3)
    else:
        counter.add_int_ops(size * np.log2(size + 1) + size)
    counter.add_read(8.0 * size)
    counter.add_write(8.0 * min(n_tracks, n_detections) * 2)
    counter.note_working_set(8.0 * size)
    return counter.profile(parallel_fraction=0.3,
                           divergence=DivergenceClass.HIGH,
                           op_class="search")
