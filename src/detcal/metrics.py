"""Evaluation quantities: estimate error, exact-match accuracy, noise curves.

All functions are pure and order-independent, so per-run evaluations can be
computed in parallel and reduced in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DetectionStats,
    MetaEstimate,
    VisualSystem,
    WorldState,
    _truncated_poisson_weights,
)


def meta_mse(v_true: VisualSystem, v_hat: MetaEstimate):
    """Mean squared error between true and inferred rates.

    Returns (combined, fa_only, miss_only): the combined value averages all
    2C squared errors, the other two average within one rate type.
    """
    if v_true.num_categories != v_hat.num_categories:
        raise ValueError("rate matrices disagree on the number of categories")
    fa_only = float(np.mean((v_true.fa - v_hat.fa) ** 2))
    miss_only = float(np.mean((v_true.miss - v_hat.miss) ** 2))
    return (0.5 * (fa_only + miss_only), fa_only, miss_only)


def world_state_accuracy(w_true: WorldState, w_hat: WorldState) -> int:
    """1 iff the inferred category set matches the true one exactly."""
    return int(frozenset(w_true) == frozenset(w_hat))


def observation_noise(w_true: WorldState, observation, num_categories: int) -> float:
    """Mean per-frame per-category disagreement between percepts and truth.

    Accepts an Observation or its DetectionStats; a present category
    contributes its misses (F - k), an absent one its intrusions (k).
    """
    stats = DetectionStats.from_observation(observation, num_categories)
    present = np.zeros(num_categories, dtype=bool)
    present[sorted(w_true)] = True
    disagreements = np.where(present, stats.frame_count - stats.counts, stats.counts)
    return float(disagreements.sum() / (stats.frame_count * num_categories))


@dataclass
class RunEvaluation:
    """Per-observation scores of one run, keyed by model identifier."""

    run_id: str
    zeta: list
    accuracy: dict = field(default_factory=dict)   # model -> list of 0/1
    mse_fa: list | None = None                     # index 0 = prior estimate
    mse_miss: list | None = None
    mse_combined: list | None = None

    @property
    def models(self):
        return tuple(self.accuracy.keys())


@dataclass(frozen=True)
class NoiseWindowPoint:
    """Mean accuracy per model over one noise window, with its sample count."""

    zeta: float
    accuracy: dict
    count: int


NOISE_WINDOW_HALFWIDTH = 0.05


def default_noise_grid() -> np.ndarray:
    return np.round(np.arange(0, 101) * 0.01, 2)


def rolling_accuracy_by_noise(evaluations) -> list:
    """Accuracy as a function of observation noise, in closed rolling windows.

    For each grid point z, averages each model's accuracy bits over the
    observations whose noise lies in [z - h, z + h], with h the
    NOISE_WINDOW_HALFWIDTH. Grid points with an empty window are omitted;
    counts are reported so sparse windows are visible downstream.
    """
    evaluations = list(evaluations)
    if not evaluations:
        raise ValueError("no evaluations given")
    models = list(evaluations[0].accuracy.keys())
    zeta = np.concatenate([np.asarray(e.zeta, dtype=np.float64) for e in evaluations])
    bits = {m: np.concatenate([np.asarray(e.accuracy[m], dtype=np.float64)
                               for e in evaluations]) for m in models}
    points = []
    h = NOISE_WINDOW_HALFWIDTH
    for z in default_noise_grid():
        sel = (zeta >= z - h) & (zeta <= z + h)
        n = int(sel.sum())
        if n == 0:
            continue
        points.append(NoiseWindowPoint(
            zeta=float(z),
            accuracy={m: float(bits[m][sel].mean()) for m in models},
            count=n))
    return points


def chance_accuracy(num_categories: int, lam: float, bounds) -> float:
    """Probability that an independent prior draw matches a prior-drawn state.

    Closed form: sum over the truncated support of d(n)^2 / C(C, n), where
    d is the truncated Poisson pmf of the object count.
    """
    lo, hi = bounds
    weights = _truncated_poisson_weights(lam, lo, hi)
    return float(sum(
        w * w / math.comb(num_categories, n)
        for n, w in zip(range(lo, hi + 1), weights)))
