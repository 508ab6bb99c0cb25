import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detcal.baselines import (
    ThresholdPolicy,
    default_threshold_grid,
    fit_threshold,
    fixed_prior_infer,
    fixed_prior_system,
    threshold_infer,
)
from detcal.core import DetectionStats, Observation, PriorConfig
from oracles import synthesize_stats_fast


def obs(*percepts):
    return Observation(tuple(frozenset(p) for p in percepts))


def stats_of(observation, c):
    return DetectionStats.from_observations([observation], c)


class TestThresholdInfer:
    def test_majority_keeps_only_frequent_categories(self):
        o = obs({0}, {0, 1}, {0})
        assert threshold_infer(stats_of(o, 2)) == [frozenset({0})]

    def test_unanimous_percepts_survive_any_theta(self):
        o = obs({1, 3}, {1, 3}, {1, 3})
        for theta in (0.01, 0.3, 0.5, 0.99, 1.0):
            got = threshold_infer(stats_of(o, 4), ThresholdPolicy(theta=theta))
            assert got == [frozenset({1, 3})]

    def test_theta_zero_returns_everything(self):
        o = obs({0})
        assert threshold_infer(stats_of(o, 3), ThresholdPolicy(theta=0.0)) == \
            [frozenset({0, 1, 2})]

    def test_theta_one_requires_every_frame(self):
        o = obs({0, 1}, {0})
        assert threshold_infer(stats_of(o, 2), ThresholdPolicy(theta=1.0)) == \
            [frozenset({0})]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_raising_theta_never_adds_a_category(self, seed, t1, t2):
        lo, hi = sorted((t1, t2))
        r = np.random.default_rng(seed)
        counts = r.integers(0, 6, size=(3, 4))
        stats = DetectionStats(counts=counts, frame_count=[5, 5, 5])
        high = threshold_infer(stats, ThresholdPolicy(theta=hi))
        low = threshold_infer(stats, ThresholdPolicy(theta=lo))
        assert all(h <= l for h, l in zip(high, low))

    def test_corpus_accuracy_matches_reported_level(self, rng):
        # mean exact-match accuracy of the 0.50 rule on the generative
        # process is ~0.803
        present, counts, frames = synthesize_stats_fast(40_000, 5, rng)
        guess = counts >= 0.5 * frames[:, None] - 1e-12
        acc = np.all(guess == present, axis=1).mean()
        assert abs(acc - 0.803) < 0.015

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(theta=1.5)


class TestFitThreshold:
    def test_recovers_reported_optimum(self, rng):
        present, counts, frames = synthesize_stats_fast(50_000, 5, rng)
        stats = DetectionStats(counts=counts, frame_count=frames)
        truth = [frozenset(np.nonzero(p)[0].tolist()) for p in present]
        theta, acc = fit_threshold(stats, truth)
        assert 0.50 <= theta <= 0.60
        assert abs(acc - 0.831) < 0.015

    def test_fitted_beats_default_on_training_corpus(self, rng):
        present, counts, frames = synthesize_stats_fast(8_000, 5, rng)
        stats = DetectionStats(counts=counts, frame_count=frames)
        truth = [frozenset(np.nonzero(p)[0].tolist()) for p in present]
        _, fitted_acc = fit_threshold(stats, truth)
        default_acc = np.mean([int(g == w) for g, w in zip(threshold_infer(stats), truth)])
        assert fitted_acc >= default_acc

    def test_noiseless_corpus_ties_resolve_to_smallest_theta(self):
        stats = DetectionStats(counts=np.array([[3, 0, 3], [0, 3, 0]]), frame_count=[3, 3])
        truth = [frozenset({0, 2}), frozenset({1})]
        theta, acc = fit_threshold(stats, truth)
        assert acc == 1.0
        assert theta == default_threshold_grid()[1]  # 0.01, not 0.00

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            fit_threshold([], [])


class TestFixedPrior:
    def test_rates_sit_at_the_prior_map(self):
        v = fixed_prior_system(PriorConfig(), 5)
        assert np.allclose(v.fa, 0.1) and np.allclose(v.miss, 0.1)

    def test_noiseless_observations_recovered(self):
        worlds = [frozenset({0, 3}), frozenset({2})]
        observations = [obs(w, w, w) for w in worlds]
        got = fixed_prior_infer(DetectionStats.from_observations(observations, 5),
                                PriorConfig())
        assert got == worlds

    def test_depends_only_on_detection_counts(self, rng):
        a = obs({0, 1}, {0}, {1})
        b = obs({1}, {0, 1}, {0})  # same counts, different frame order
        prior = PriorConfig(count_bounds=(1, 2))
        assert fixed_prior_infer(stats_of(a, 2), prior) == fixed_prior_infer(stats_of(b, 2), prior)
