import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from detcal.core import (
    DetectionStats,
    Observation,
    PriorConfig,
    StateSpace,
    VisualSystem,
    beta_sample,
    enumerate_world_states,
    observation_log_likelihood,
    render_percept,
    sample_visual_system,
    sample_world_state,
    state_log_joint,
    truncated_normal_log_density,
    truncated_normal_sample,
    truncated_poisson_pmf,
    truncated_poisson_sample,
    world_state_log_prior,
)
from oracles import (
    enumerate_states_oracle,
    observation_loglik_oracle,
    state_log_prior_oracle,
    truncated_poisson_pmf_oracle,
)


def random_system(rng, c):
    return VisualSystem(fa=rng.random(c), miss=rng.random(c))


class TestBetaSample:
    def test_matches_prior_mean(self, rng):
        draws = beta_sample(2.0, 10.0, rng, size=1_000_000)
        assert abs(draws.mean() - 1.0 / 6.0) < 1e-3

    def test_rarely_exceeds_half(self, rng):
        # exact tail mass of Beta(2,10) above 0.5 is 12/2048 ~ 0.0059
        draws = beta_sample(2.0, 10.0, rng, size=1_000_000)
        assert abs((draws > 0.5).mean() - 0.005859) < 8e-4

    def test_uniform_case(self, rng):
        draws = beta_sample(1.0, 1.0, rng, size=1_000_000)
        assert abs(draws.mean() - 0.5) < 2e-3

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            beta_sample(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            beta_sample(1.0, -2.0, rng)


class TestTruncatedPoisson:
    def test_pmf_matches_oracle(self):
        oracle = truncated_poisson_pmf_oracle(1.0, 1, 5)
        for n in range(1, 6):
            assert truncated_poisson_pmf(n, 1.0, 1, 5) == pytest.approx(
                oracle[n], abs=1e-14)
        assert truncated_poisson_pmf(1, 1.0, 1, 5) == pytest.approx(0.5825, abs=5e-5)

    def test_pmf_normalizes(self):
        assert sum(truncated_poisson_pmf(n, 1.0, 1, 5)
                   for n in range(1, 6)) == pytest.approx(1.0, abs=1e-12)

    def test_outside_support_is_zero(self):
        assert truncated_poisson_pmf(0, 1.0, 1, 5) == 0.0
        assert truncated_poisson_pmf(6, 1.0, 1, 5) == 0.0

    def test_sample_frequency(self, rng):
        draws = truncated_poisson_sample(1.0, 1, 5, rng, size=1_000_000)
        assert abs((draws == 1).mean() - 0.5825) < 2e-3
        assert draws.min() >= 1 and draws.max() <= 5

    def test_tiny_lambda_degenerates(self, rng):
        draws = truncated_poisson_sample(1e-9, 1, 5, rng, size=1000)
        assert (draws == 1).all()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            truncated_poisson_pmf(1, -1.0, 1, 5)
        with pytest.raises(ValueError):
            truncated_poisson_sample(1.0, 5, 1, rng)


class TestTruncatedNormal:
    def test_symmetric_center(self, rng):
        draws = truncated_normal_sample(np.full(1_000_000, 0.5), 0.1, rng)
        assert abs(draws.mean() - 0.5) < 1e-3

    def test_respects_bounds(self, rng):
        draws = truncated_normal_sample(np.zeros(100_000), 0.1, rng)
        assert draws.min() > 0.0 and draws.max() < 1.0

    def test_density_matches_normal_when_truncation_negligible(self):
        # at mu=0.5, sigma=0.1 the (0,1) truncation removes ~5.7e-7 of mass
        ours = math.exp(float(truncated_normal_log_density(0.5, 0.5, 0.1)))
        plain = norm.pdf(0.5, loc=0.5, scale=0.1)
        assert abs(ours / plain - 1.0) < 1e-6

    def test_density_integrates_to_one(self):
        grid = np.linspace(1e-9, 1 - 1e-9, 200_001)
        dens = np.exp(truncated_normal_log_density(grid, 0.2, 0.15))
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_sigma_validation(self, rng):
        with pytest.raises(ValueError):
            truncated_normal_sample(0.5, 0.0, rng)


class TestWorldStatePrior:
    def test_sample_count_distribution(self, rng):
        prior = PriorConfig()
        sizes = np.array([len(sample_world_state(prior, 5, rng))
                          for _ in range(200_000)])
        assert abs((sizes == 1).mean() - 0.5825) < 5e-3

    def test_category_symmetry(self, rng):
        prior = PriorConfig()
        hits = np.zeros(5)
        n = 100_000
        for _ in range(n):
            for c in sample_world_state(prior, 5, rng):
                hits[c] += 1
        marginals = hits / n
        assert marginals.max() - marginals.min() < 8e-3

    def test_forced_full_set(self, rng):
        prior = PriorConfig(count_bounds=(5, 5))
        assert sample_world_state(prior, 5, rng) == frozenset(range(5))

    def test_count_bound_exceeding_categories(self, rng):
        with pytest.raises(ValueError):
            sample_world_state(PriorConfig(), 3, rng)

    def test_log_prior_normalizes(self):
        prior = PriorConfig()
        states = enumerate_world_states(5, 1, 5)
        assert len(states) == 31
        total = sum(math.exp(world_state_log_prior(w, prior, 5)) for w in states)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_log_prior_single_object(self):
        value = math.exp(world_state_log_prior(frozenset({2}), PriorConfig(), 5))
        assert value == pytest.approx(
            math.exp(state_log_prior_oracle(frozenset({2}), 1.0, 1, 5, 5)), rel=1e-12)
        assert value == pytest.approx(0.1165, abs=5e-5)

    def test_empty_state_outside_support(self):
        assert world_state_log_prior(frozenset(), PriorConfig(), 5) == -math.inf

    def test_enumeration_is_bit_ordered(self):
        states = enumerate_world_states(3, 1, 3)
        assert states == tuple(enumerate_states_oracle(3, 1, 3))


class TestVisualSystemSampling:
    def test_entries_in_unit_interval(self, rng):
        v = sample_visual_system(PriorConfig(), 5, rng)
        flat = v.as_flat()
        assert flat.min() >= 0.0 and flat.max() <= 1.0 and flat.size == 10

    def test_entry_mean(self, rng):
        prior = PriorConfig()
        flats = np.concatenate([sample_visual_system(prior, 5, rng).as_flat()
                                for _ in range(3000)])
        assert abs(flats.mean() - 1.0 / 6.0) < 3e-3

    def test_chance_of_an_error_prone_entry(self, rng):
        # P(any of 10 entries > 0.5) = 1 - (1 - 12/2048)^10 ~ 0.057
        prior = PriorConfig()
        hits = np.array([(sample_visual_system(prior, 5, rng).as_flat() > 0.5).any()
                         for _ in range(20_000)])
        assert abs(hits.mean() - 0.0571) < 0.01


class TestRenderPercept:
    def test_noiseless_identity(self, rng):
        v = VisualSystem(fa=np.zeros(5), miss=np.zeros(5))
        for _ in range(50):
            w = sample_world_state(PriorConfig(), 5, rng)
            assert render_percept(w, v, rng) == w

    def test_total_blindness(self, rng):
        v = VisualSystem(fa=np.zeros(4), miss=np.ones(4))
        assert render_percept(frozenset({0, 2}), v, rng) == frozenset()

    def test_two_category_probability(self, rng):
        # (1 - 0.2) * (1 - 0.1) = 0.72
        v = VisualSystem(fa=np.array([0.0, 0.1]), miss=np.array([0.2, 0.0]))
        w = frozenset({0})
        n = 300_000
        hits = sum(render_percept(w, v, rng) == frozenset({0}) for _ in range(n))
        assert abs(hits / n - 0.72) < 4e-3


class TestObservationLogLikelihood:
    def test_single_category_product(self):
        stats = DetectionStats(counts=np.array([2]), frame_count=3)
        v = VisualSystem(fa=np.array([0.0]), miss=np.array([0.2]))
        got = observation_log_likelihood(stats, frozenset({0}), v)
        assert got == pytest.approx(math.log(0.8 * 0.8 * 0.2), rel=1e-12)

    def test_noiseless_consistent_is_certain(self):
        v = VisualSystem(fa=np.zeros(3), miss=np.zeros(3))
        w = frozenset({0, 2})
        stats = DetectionStats(counts=np.array([4, 0, 4]), frame_count=4)
        assert observation_log_likelihood(stats, w, v) == 0.0

    def test_contradiction_is_log_zero(self):
        v = VisualSystem(fa=np.zeros(2), miss=np.zeros(2))
        stats = DetectionStats(counts=np.array([1, 0]), frame_count=2)
        assert observation_log_likelihood(stats, frozenset({1}), v) == -math.inf

    def test_matches_per_percept_oracle(self, rng):
        for trial in range(200):
            c = int(rng.integers(1, 5))
            f = int(rng.integers(1, 6))
            v = random_system(rng, c)
            w = frozenset(int(x) for x in np.nonzero(rng.random(c) < 0.5)[0])
            percepts = [frozenset(int(x) for x in np.nonzero(rng.random(c) < 0.5)[0])
                        for _ in range(f)]
            stats = DetectionStats.from_observation(Observation(tuple(percepts)), c)
            ours = observation_log_likelihood(stats, w, v)
            ref = observation_loglik_oracle(percepts, w, v.fa, v.miss)
            if math.isinf(ref):
                assert math.isinf(ours)
            else:
                assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_percept_distribution_normalizes(self, rng):
        from itertools import chain, combinations
        for c in (1, 2, 3, 4):
            v = random_system(rng, c)
            w = frozenset(int(x) for x in np.nonzero(rng.random(c) < 0.5)[0])
            total = 0.0
            for sub in chain.from_iterable(
                    combinations(range(c), n) for n in range(c + 1)):
                counts = np.zeros(c, dtype=int)
                counts[list(sub)] = 1
                stats = DetectionStats(counts=counts, frame_count=1)
                total += math.exp(observation_log_likelihood(stats, w, v))
            assert total == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_category_permutation_symmetry(self, data):
        c = data.draw(st.integers(2, 5))
        seed = data.draw(st.integers(0, 2**31))
        r = np.random.default_rng(seed)
        v = random_system(r, c)
        w = frozenset(int(x) for x in np.nonzero(r.random(c) < 0.5)[0])
        counts = r.integers(0, 4, size=c)
        stats = DetectionStats(counts=counts, frame_count=3)
        perm = r.permutation(c)  # new index j holds old category perm[j]
        v2 = VisualSystem(fa=v.fa[perm], miss=v.miss[perm])
        w2 = frozenset(int(np.nonzero(perm == c0)[0][0]) for c0 in w)
        stats2 = DetectionStats(counts=counts[perm], frame_count=3)
        a = observation_log_likelihood(stats, w, v)
        b = observation_log_likelihood(stats2, w2, v2)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestStateSpace:
    def test_consistency_with_scalar_path(self, rng):
        prior = PriorConfig(count_bounds=(1, 3))
        space = StateSpace.build(prior, 3)
        v = random_system(rng, 3)
        stats = DetectionStats(counts=np.array([3, 1, 0]), frame_count=4)
        joint = state_log_joint(stats.counts, stats.frame_count, v.fa, v.miss, space)
        for i, w in enumerate(space.states):
            expected = (observation_log_likelihood(stats, w, v)
                        + world_state_log_prior(w, prior, 3))
            assert joint[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_built_once_per_prior_and_category_count(self):
        space = StateSpace.build(PriorConfig(count_bounds=(1, 3)), 3)
        assert StateSpace.build(PriorConfig(count_bounds=(1, 3)), 3) is space
        assert StateSpace.build(PriorConfig(count_bounds=(1, 2)), 3) is not space
        assert StateSpace.build(PriorConfig(count_bounds=(1, 3)), 4) is not space
        for arr in (space.presence, space.absence, space.log_prior):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestDeterminism:
    def test_sampling_is_seed_deterministic(self):
        prior = PriorConfig()
        a, b = np.random.default_rng(99), np.random.default_rng(99)
        assert sample_world_state(prior, 5, a) == sample_world_state(prior, 5, b)
        va, vb = sample_visual_system(prior, 5, a), sample_visual_system(prior, 5, b)
        assert np.array_equal(va.as_flat(), vb.as_flat())
        assert render_percept(frozenset({1}), va, a) == render_percept(
            frozenset({1}), vb, b)
        assert truncated_poisson_sample(1.0, 1, 5, a) == truncated_poisson_sample(
            1.0, 1, 5, b)
        assert np.array_equal(truncated_normal_sample(np.full(4, 0.3), 0.1, a),
                              truncated_normal_sample(np.full(4, 0.3), 0.1, b))


class TestTypeValidation:
    def test_observation_needs_a_percept(self):
        with pytest.raises(ValueError):
            Observation(())

    def test_visual_system_bounds(self):
        with pytest.raises(ValueError):
            VisualSystem(fa=np.array([1.2]), miss=np.array([0.1]))
        with pytest.raises(ValueError):
            VisualSystem(fa=np.array([0.1, 0.2]), miss=np.array([0.1]))

    def test_flat_round_trip(self, rng):
        v = random_system(rng, 4)
        again = VisualSystem.from_flat(v.as_flat())
        assert np.array_equal(again.fa, v.fa) and np.array_equal(again.miss, v.miss)

    def test_detection_stats_of_stats_are_the_stats_given(self):
        o = Observation((frozenset({0}), frozenset()))
        stats = DetectionStats.from_observation(o, 2)
        assert stats.counts.tolist() == [1, 0] and stats.frame_count == 2
        assert DetectionStats.from_observation(stats, 2) is stats

    def test_detection_stats_bounds(self):
        with pytest.raises(ValueError):
            DetectionStats(counts=np.array([5]), frame_count=4)
        with pytest.raises(ValueError):
            DetectionStats(counts=np.array([-1]), frame_count=4)

    def test_prior_config_validation(self):
        with pytest.raises(ValueError):
            PriorConfig(count_bounds=(5, 1))
        with pytest.raises(ValueError):
            PriorConfig(beta_alpha=0.0)
        with pytest.raises(ValueError):
            PriorConfig(frames_bounds=(0, 4))
