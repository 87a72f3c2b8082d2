"""Shared SLAM scaffolding: scenario generation and accuracy metrics.

A scenario is a ground-truth unicycle trajectory through a field of point
landmarks, with noisy odometry and noisy range-bearing observations
(known data association — the standard simplification for comparing
estimator *backends*; frontend association is exercised separately in
:mod:`repro.kernels.vision`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.geometry import wrap_angle


@dataclass(frozen=True)
class Observation:
    """One range-bearing measurement.

    Attributes:
        landmark_id: Index of the observed landmark (known association).
        range_m: Measured distance.
        bearing_rad: Measured bearing in the robot frame, wrapped.
    """

    landmark_id: int
    range_m: float
    bearing_rad: float


@dataclass
class SlamScenario:
    """A complete synthetic SLAM dataset.

    Attributes:
        landmarks: ``(n_landmarks, 2)`` ground-truth positions.
        true_poses: ``(n_steps + 1, 3)`` ground-truth ``[x, y, theta]``.
        odometry: ``(n_steps, 2)`` noisy ``[v dt, omega dt]`` increments.
        observations: Per-step observation lists (length ``n_steps``),
            observations taken *after* each motion.
        motion_noise: Std devs of ``[translation, rotation]`` noise
            actually injected per unit motion.
        measurement_noise: Std devs of ``[range, bearing]`` noise.
        max_range: Sensor range.
    """

    landmarks: np.ndarray
    true_poses: np.ndarray
    odometry: np.ndarray
    observations: List[List[Observation]]
    motion_noise: Tuple[float, float]
    measurement_noise: Tuple[float, float]
    max_range: float

    @property
    def n_steps(self) -> int:
        return self.odometry.shape[0]

    @property
    def n_landmarks(self) -> int:
        return self.landmarks.shape[0]


def motion_model(pose: np.ndarray, control: np.ndarray) -> np.ndarray:
    """Unicycle step: ``control = [ds, dtheta]`` applied to ``[x, y, th]``."""
    x, y, theta = pose
    ds, dtheta = control
    return np.array([
        x + ds * np.cos(theta),
        y + ds * np.sin(theta),
        wrap_angle(theta + dtheta),
    ])


def observe(pose: np.ndarray, landmark: np.ndarray) -> Tuple[float, float]:
    """Noise-free range and bearing of a landmark from a pose."""
    dx = landmark[0] - pose[0]
    dy = landmark[1] - pose[1]
    rng = float(np.hypot(dx, dy))
    bearing = wrap_angle(float(np.arctan2(dy, dx)) - pose[2])
    return rng, bearing


def make_scenario(
    n_steps: int = 100,
    n_landmarks: int = 20,
    arena: float = 20.0,
    speed: float = 0.5,
    turn_rate: float = 0.12,
    motion_noise: Tuple[float, float] = (0.05, 0.01),
    measurement_noise: Tuple[float, float] = (0.1, 0.02),
    max_range: float = 8.0,
    seed: int = 0,
) -> SlamScenario:
    """Generate a loop trajectory through a random landmark field.

    The robot drives a rough circle inside the arena (guaranteeing loop
    closures), seeing every landmark within ``max_range`` at every step.
    """
    if n_steps < 1 or n_landmarks < 1:
        raise ConfigurationError("need n_steps >= 1 and n_landmarks >= 1")
    rng = np.random.default_rng(seed)
    landmarks = rng.uniform(0.0, arena, size=(n_landmarks, 2))

    center = arena / 2.0
    radius = arena / 3.0
    pose = np.array([center + radius, center, np.pi / 2.0])
    true_poses = [pose.copy()]
    odometry = np.zeros((n_steps, 2))
    observations: List[List[Observation]] = []

    for step in range(n_steps):
        true_control = np.array([speed, turn_rate])
        pose = motion_model(pose, true_control)
        true_poses.append(pose.copy())
        noisy = true_control + rng.normal(
            0.0, [motion_noise[0], motion_noise[1]]
        )
        odometry[step] = noisy

        step_obs: List[Observation] = []
        for lm_id in range(n_landmarks):
            true_range, true_bearing = observe(pose, landmarks[lm_id])
            if true_range > max_range:
                continue
            step_obs.append(Observation(
                landmark_id=lm_id,
                range_m=max(1e-6, true_range
                            + rng.normal(0.0, measurement_noise[0])),
                bearing_rad=wrap_angle(
                    true_bearing + rng.normal(0.0, measurement_noise[1])
                ),
            ))
        observations.append(step_obs)

    return SlamScenario(
        landmarks=landmarks,
        true_poses=np.stack(true_poses),
        odometry=odometry,
        observations=observations,
        motion_noise=motion_noise,
        measurement_noise=measurement_noise,
        max_range=max_range,
    )


def ate_rmse(estimated: np.ndarray, ground_truth: np.ndarray) -> float:
    """Absolute trajectory error (RMSE over x, y), the §2.2 task-quality
    metric for SLAM.

    Both arrays are ``(n, >= 2)``; only the position columns are compared.
    """
    estimated = np.asarray(estimated, dtype=float)
    ground_truth = np.asarray(ground_truth, dtype=float)
    if estimated.shape[0] != ground_truth.shape[0]:
        raise ConfigurationError(
            f"trajectory lengths differ: {estimated.shape[0]} vs"
            f" {ground_truth.shape[0]}"
        )
    diff = estimated[:, :2] - ground_truth[:, :2]
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def dead_reckoning(scenario: SlamScenario) -> np.ndarray:
    """Integrate odometry only (the no-SLAM baseline trajectory)."""
    pose = scenario.true_poses[0].copy()
    poses = [pose.copy()]
    for control in scenario.odometry:
        pose = motion_model(pose, control)
        poses.append(pose.copy())
    return np.stack(poses)
