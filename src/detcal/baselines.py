"""Comparison models: frame-fraction thresholding and a no-learning ablation.

Thresholding declares a category present when it shows up in a large enough
fraction of frames. The fixed-prior model runs the same exact MAP state
inference as the retrospective pass, but with every rate pinned at the
Beta prior's point estimate, so it has an error model without ever
learning one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DetectionStats,
    PriorConfig,
    VisualSystem,
    WorldState,
)
from .inference import retrospective_infer


@dataclass(frozen=True)
class ThresholdPolicy:
    """Presence rule: detection fraction >= theta."""

    theta: float = 0.50

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [0, 1]")

    def keeps(self, fractions) -> np.ndarray:
        """Which detection fractions clear theta."""
        return fractions >= self.theta - 1e-12  # guard k/F == theta roundoff


def threshold_infer(observation, policy: ThresholdPolicy = ThresholdPolicy(),
                    num_categories: int | None = None) -> WorldState:
    """Categories whose detection fraction clears the threshold.

    No prior is applied: the result may be empty or arbitrarily large.
    ``num_categories`` is only needed when passing a raw Observation.
    """
    stats = DetectionStats.from_observation(observation, num_categories)
    keep = policy.keeps(stats.counts / stats.frame_count)
    return frozenset(np.nonzero(keep)[0].tolist())


def default_threshold_grid() -> np.ndarray:
    return np.round(np.arange(0, 101) * 0.01, 2)


def fit_threshold(stats_list, world_states):
    """Supervised grid search for the accuracy-maximizing threshold.

    Unlike everything else here this explicitly needs ground truth. Returns
    (best theta, its mean exact-match accuracy); ties go to the smallest
    theta on ``default_threshold_grid()``.
    """
    stats_list = list(stats_list)
    world_states = list(world_states)
    if not stats_list:
        raise ValueError("cannot fit a threshold on an empty corpus")
    if len(stats_list) != len(world_states):
        raise ValueError("observations and ground truth differ in length")

    fractions = np.array([s.counts / s.frame_count for s in stats_list])  # (N, C)
    present = np.zeros_like(fractions, dtype=bool)
    for i, w in enumerate(world_states):
        present[i, sorted(w)] = True

    best_theta, best_acc = None, -1.0
    for theta in default_threshold_grid():
        guess = ThresholdPolicy(theta=theta).keeps(fractions)
        acc = float(np.all(guess == present, axis=1).mean())
        if acc > best_acc + 1e-15:
            best_theta, best_acc = float(theta), acc
    return best_theta, best_acc


def fixed_prior_system(prior: PriorConfig, num_categories: int) -> VisualSystem:
    """Error model pinned at the Beta prior's MAP."""
    value = prior.rate_map
    return VisualSystem(fa=np.full(num_categories, value),
                        miss=np.full(num_categories, value))


def fixed_prior_infer(observations, prior: PriorConfig, num_categories: int) -> list:
    """Exact MAP state inference under the prior-pinned error model.

    This is the learning ablation: same machinery as the retrospective
    pass, but the rates never move off the prior's point estimate.
    """
    system = fixed_prior_system(prior, num_categories)
    return retrospective_infer(system, observations, prior, num_categories)
