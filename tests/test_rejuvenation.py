"""Validity of the Metropolis-Hastings rejuvenation moves.

The single-particle chain must leave the per-particle target (Beta prior
times full-history likelihood) invariant. On a one-category problem the
data-informed rate's posterior can be computed by grid quadrature, and the
data-free rate must come back as the bare prior, which is exactly the part
a proposal that is not symmetric near the bounds would bias.
"""

import numpy as np
import pytest

from detcal.core import (
    DetectionStats,
    PriorConfig,
    VisualSystem,
    beta_log_density,
)
from detcal.inference import Particle, ParticleFilterConfig, _reflect_into_unit, rejuvenate


def one_category_problem():
    prior = PriorConfig(count_bounds=(1, 1))  # the lone category is always present
    history = DetectionStats(counts=[[7], [9], [6]], frame_count=[10, 12, 8])
    return prior, history


def run_chain(n_samples, burn_in, seed=42):
    prior, history = one_category_problem()
    cfg = ParticleFilterConfig(num_particles=2, seed=0)
    rng = np.random.default_rng(seed)
    particle = Particle(v_hat=VisualSystem(fa=np.array([0.2]), miss=np.array([0.2])),
                        world_beliefs=[], log_weight=0.0)
    for _ in range(burn_in):
        particle = rejuvenate(particle, history, cfg, prior, rng)
    miss = np.empty(n_samples)
    fa = np.empty(n_samples)
    for i in range(n_samples):
        particle = rejuvenate(particle, history, cfg, prior, rng)
        miss[i] = particle.v_hat.miss[0]
        fa[i] = particle.v_hat.fa[0]
    return miss, fa, history


def grid_density(history, prior, informed=True, points=4001):
    grid = np.linspace(1e-7, 1.0 - 1e-7, points)
    logp = beta_log_density(grid, prior.beta_alpha, prior.beta_beta)
    if informed:
        for k, f in zip(history.counts[:, 0].tolist(), history.frame_count.tolist()):
            logp = logp + k * np.log1p(-grid) + (f - k) * np.log(grid)
    w = np.exp(logp - logp.max())
    return grid, w / w.sum()


def binned_tv(samples, grid, weights, bins=40):
    edges = np.linspace(0.0, 1.0, bins + 1)
    hist, _ = np.histogram(samples, bins=edges)
    hist = hist / hist.sum()
    idx = np.clip(np.digitize(grid, edges) - 1, 0, bins - 1)
    ref = np.bincount(idx, weights=weights, minlength=bins)
    return 0.5 * float(np.abs(hist - ref).sum())


class TestChainTargets:
    def test_recovers_grid_posterior(self):
        miss, _, history = run_chain(30_000, 2_000)
        prior, _ = one_category_problem()
        grid, w = grid_density(history, prior, informed=True)
        assert binned_tv(miss, grid, w) < 0.05
        assert abs(miss.mean() - float(grid @ w)) < 0.01

    def test_data_free_rate_recovers_the_prior(self):
        # the false-alarm rate never touches data here; any bias near the
        # bounds would point at a proposal that is not symmetric
        _, fa, _ = run_chain(30_000, 2_000, seed=43)
        prior, _ = one_category_problem()
        grid, w = grid_density([], prior, informed=False)
        assert binned_tv(fa, grid, w) < 0.05

    def test_acceptance_rate_is_reasonable(self):
        miss, _, _ = run_chain(4_000, 200, seed=44)
        moves = np.mean(miss[1:] != miss[:-1])
        assert 0.05 < moves < 0.95


class TestMoveIngredients:
    def test_reflection_folds_into_the_unit_interval(self):
        inside = np.array([1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6])
        assert np.array_equal(_reflect_into_unit(inside), inside)
        np.testing.assert_allclose(_reflect_into_unit(np.array([-0.05, 1.05, 2.3, -1.7])),
                                   [0.05, 0.95, 0.3, 0.3], rtol=0.0, atol=1e-15)
        edges = _reflect_into_unit(np.array([0.0, 1.0, 2.0, -3.0, 1e300, -1e300]))
        assert ((edges > 0.0) & (edges < 1.0)).all()

    def test_history_is_required(self):
        prior, _ = one_category_problem()
        cfg = ParticleFilterConfig(num_particles=2)
        particle = Particle(v_hat=VisualSystem(fa=np.array([0.2]), miss=np.array([0.2])),
                            world_beliefs=[], log_weight=0.0)
        with pytest.raises(ValueError):
            rejuvenate(particle, [], cfg, prior, np.random.default_rng(0))

    def test_rejuvenation_moves_rates_and_refreshes_beliefs(self):
        prior = PriorConfig(count_bounds=(1, 2))
        history = DetectionStats(counts=np.array([3, 0]), frame_count=3)
        cfg = ParticleFilterConfig(num_particles=2, seed=0)
        rng = np.random.default_rng(7)
        particle = Particle(v_hat=VisualSystem(fa=np.array([0.3, 0.3]),
                                               miss=np.array([0.3, 0.3])),
                            world_beliefs=[], log_weight=-1.5)
        moved = rejuvenate(particle, history, cfg, prior, rng)
        assert moved.log_weight == particle.log_weight
        assert len(moved.world_beliefs) == 1
        assert moved.world_beliefs[0].shape == (3,)  # {0},{1},{0,1}
        assert moved.world_beliefs[0] == pytest.approx(
            moved.world_beliefs[0], abs=0)  # finite, no NaNs
        assert np.isfinite(moved.world_beliefs[0]).all()
