"""Comparison models: frame-fraction thresholding and a no-learning ablation.

Thresholding declares a category present when it shows up in a large enough
fraction of frames. The fixed-prior model runs the same exact MAP state
inference as the retrospective pass, but with every rate pinned at the
Beta prior's point estimate, so it has an error model without ever
learning one; its rates are equal, so bit order breaks its ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DetectionStats,
    PriorConfig,
    VisualSystem,
    category_sets,
    presence_masks,
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


def threshold_infer(stats: DetectionStats,
                    policy: ThresholdPolicy = ThresholdPolicy()) -> list:
    """Per row of the (T, C) stack, the categories whose detection fraction
    clears the threshold.

    No prior is applied: a scene may be empty or arbitrarily large.
    """
    return category_sets(policy.keeps(stats.counts / stats.frame_count[:, None]))


def default_threshold_grid() -> np.ndarray:
    return np.round(np.arange(0, 101) * 0.01, 2)


def fit_threshold(stats: DetectionStats, world_states):
    """Supervised grid search for the accuracy-maximizing threshold.

    Unlike everything else here this explicitly needs ground truth: the
    scene of each row of the (T, C) stack. Returns (best theta, its mean
    exact-match accuracy); ties go to the smallest theta on
    ``default_threshold_grid()``.
    """
    world_states = list(world_states)
    if not world_states:
        raise ValueError("cannot fit a threshold on an empty corpus")
    if len(stats) != len(world_states):
        raise ValueError("observations and ground truth differ in length")

    fractions = stats.counts / stats.frame_count[:, None]  # (T, C)
    present = presence_masks(world_states, stats.num_categories)

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


def fixed_prior_infer(stats: DetectionStats, prior: PriorConfig) -> list:
    """Exact MAP state of each row of the (T, C) stack under the
    prior-pinned error model.

    This is the learning ablation: same machinery as the retrospective
    pass, but the rates never move off the prior's point estimate.
    """
    system = fixed_prior_system(prior, stats.num_categories)
    return retrospective_infer(system, stats, prior)
