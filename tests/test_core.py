import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from detcal import core
from detcal.core import (
    DetectionStats,
    Observation,
    PriorConfig,
    StateSpace,
    VisualSystem,
    beta_sample,
    count_log_prior,
    enumerate_world_states,
    logsumexp,
    observation_log_likelihood,
    render_percepts,
    sample_visual_system,
    sample_world_state,
    state_log_joint,
    truncated_poisson_pmf,
    truncated_poisson_sample,
    world_state_log_prior,
    xlogy,
)
from detcal.inference import Particle, ParticleFilterConfig, rejuvenate
from oracles import (
    detection_counts_reference,
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

    def test_cached_cdf_draws_as_a_fresh_one(self):
        # interleaved (lam, lo, hi) must each get their own CDF, built as the
        # weights' cumulative sum, so no draw moves
        triples = [(1.0, 1, 5), (1.0, 0, 5), (7.0, 0, 40), (7.0, 0, 8), (1e-9, 0, 3),
                   (2.5, 2, 2), (2.5, 1, 5), (1, 1, 5), (7.0, 3, 9), (1e-9, 1, 5)]
        cached, fresh = np.random.default_rng(8), np.random.default_rng(8)
        for i in range(600):
            lam, lo, hi = triples[(i * 3) % len(triples)]
            cdf = np.cumsum(core._truncated_poisson_weights(lam, lo, hi))
            size = None if i % 3 else 4
            want = lo + np.minimum(np.searchsorted(cdf, fresh.random(size), side="right"),
                                   hi - lo)
            got = truncated_poisson_sample(lam, lo, hi, cached, size=size)
            assert np.array_equal(got, want)
            assert isinstance(got, int if size is None else np.ndarray)

    def test_cached_cdf_is_read_only(self, rng):
        truncated_poisson_sample(1.0, 1, 5, rng)
        cdf = core._truncated_poisson_cdf(1.0, 1, 5)
        assert cdf is core._truncated_poisson_cdf(1.0, 1, 5)
        with pytest.raises(ValueError):
            cdf[0] = 0.0

    def test_bad_arguments_raise_on_every_call(self, rng):
        for _ in range(3):
            for lam, lo, hi in ((0.0, 1, 5), (-1.0, 1, 5), (1.0, 5, 1)):
                with pytest.raises(ValueError):
                    truncated_poisson_sample(lam, lo, hi, rng)
                with pytest.raises(ValueError):
                    truncated_poisson_pmf(lo, lam, lo, hi)
            truncated_poisson_sample(1.0, 1, 5, rng)

    def test_pmf_keeps_its_values(self, rng):
        # bit for bit, with each triple's CDF already cached by a draw
        pinned = {
            (1.0, 1, 5): [0.5825242718446602, 0.2912621359223302, 0.09708737864077666,
                          0.02427184466019419, 0.004854368932038832],
            (7.0, 0, 8): [0.0012507103100871315, 0.008754972170609922,
                          0.03064240259713473, 0.0714989393933143, 0.12512314393830024,
                          0.17517240151361985, 0.20436780176588978, 0.20436780176588995,
                          0.178821826545154],
            (1e-9, 0, 3): [0.9999999989999999, 9.999999990000005e-10,
                           4.999999994999997e-19, 1.6666666650000044e-28],
        }
        for (lam, lo, hi), values in pinned.items():
            truncated_poisson_sample(lam, lo, hi, rng)
            assert [truncated_poisson_pmf(n, lam, lo, hi)
                    for n in range(lo, hi + 1)] == values


class TestLogsumexp:
    def test_matches_scipy(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(40, 31)) * rng.choice([0.1, 1.0, 10.0, 100.0], size=(40, 1))
        rows[:10, ::3] = -np.inf                  # rows with -inf entries
        rows[10] = -np.inf                        # a row of only -inf
        rows[11] = 700.0 + rng.random(31)         # exp would overflow unshifted
        rows[12] = -700.0 - rng.random(31)        # and underflow
        for axis in (1, 0, None):
            ours, ref = logsumexp(rows, axis=axis), special.logsumexp(rows, axis=axis)
            assert np.shape(ours) == np.shape(ref)
            np.testing.assert_allclose(ours, ref, rtol=1e-15, atol=0)
        assert logsumexp(rows, axis=1)[10] == -math.inf

    def test_error_is_absolute_near_zero(self):
        # the shift by the maximum leaves an error of about one rounding of
        # the largest entry, so a sum of 1 + 4e-18 reads exactly 0
        assert abs(logsumexp([0.0, -40.0]) - math.log1p(math.exp(-40.0))) <= 1e-15


class TestXlogy:
    def test_zero_times_log_zero_is_zero(self):
        assert xlogy(0.0, 0.0) == 0.0
        x, y = np.array([0.0, 0.0, 2.0, 3.0, 1.5]), np.array([0.0, 0.4, 0.0, 0.4, 1.0])
        np.testing.assert_array_equal(xlogy(x, y), special.xlogy(x, y))


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

    def test_count_prior_far_outside_float_range(self):
        # lam^n / (n! C(C, n)) overflows or underflows a float here, so the
        # count prior falls back to logs; each must still sum to 1 over states
        for lam in (1e-3, 50.0):
            prior = PriorConfig(poisson_lambda=lam, count_bounds=(0, 200))
            log_prior = count_log_prior(prior, 300)
            log_states = [math.lgamma(301) - math.lgamma(n + 1) - math.lgamma(301 - n)
                          for n in range(201)]
            assert np.isfinite(log_prior).all()
            assert logsumexp(log_prior + log_states) == pytest.approx(0.0, abs=1e-12)

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
            assert render_percepts(w, v, 3, rng) == (w, w, w)

    def test_total_blindness(self, rng):
        v = VisualSystem(fa=np.zeros(4), miss=np.ones(4))
        assert render_percepts(frozenset({0, 2}), v, 1, rng) == (frozenset(),)

    def test_two_category_probability(self, rng):
        # (1 - 0.2) * (1 - 0.1) = 0.72
        v = VisualSystem(fa=np.array([0.0, 0.1]), miss=np.array([0.2, 0.0]))
        w = frozenset({0})
        n = 300_000
        hits = sum(p == frozenset({0}) for p in render_percepts(w, v, n, rng))
        assert abs(hits / n - 0.72) < 4e-3

    def test_frames_are_rows_of_one_draw(self):
        # frame f reports category j when uniform (f, j) falls below its
        # detection probability; an empty scene still gives F percepts
        v = VisualSystem(fa=np.array([0.1, 0.5, 0.9]), miss=np.array([0.3, 0.3, 0.3]))
        for world in (frozenset(), frozenset({1}), frozenset({0, 2})):
            u = np.random.default_rng(4).random((7, 3))
            p = [1.0 - v.miss[j] if j in world else v.fa[j] for j in range(3)]
            want = tuple(frozenset(j for j in range(3) if u[f, j] < p[j]) for f in range(7))
            got = render_percepts(world, v, 7, np.random.default_rng(4))
            assert got == want and all(type(c) is int for pc in got for c in pc)


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
            stats = DetectionStats.from_observations([Observation(tuple(percepts))], c)
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
        [joint] = state_log_joint(stats.counts, stats.frame_count, v.fa, v.miss, space)
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
        assert render_percepts(frozenset({1}), va, 4, a) == render_percepts(
            frozenset({1}), vb, 4, b)
        assert truncated_poisson_sample(1.0, 1, 5, a) == truncated_poisson_sample(
            1.0, 1, 5, b)
        particle = Particle(v_hat=VisualSystem(fa=np.full(5, 0.3), miss=np.full(5, 0.3)),
                            world_beliefs=[], log_weight=0.0)
        history = DetectionStats(counts=np.array([4, 0, 1, 0, 2]), frame_count=4)
        moved = [rejuvenate(particle, history, ParticleFilterConfig(), prior, g).v_hat
                 for g in (a, b)]
        assert np.array_equal(moved[0].as_flat(), moved[1].as_flat())


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

    def test_one_observation_is_a_one_row_stack(self):
        o = Observation((frozenset({0}), frozenset()))
        stats = DetectionStats.from_observations([o], 2)
        assert stats.counts.tolist() == [[1, 0]] and stats.frame_count.tolist() == [2]
        given = DetectionStats(counts=np.array([1, 0]), frame_count=2)
        assert given.counts.shape == (1, 2) and given.frame_count.shape == (1,)
        rows = DetectionStats(counts=[[1, 0], [0, 3]], frame_count=[2, 4])
        assert len(rows) == 2 and rows[-1].counts.tolist() == [[0, 3]]
        assert rows[1:].frame_count.tolist() == [4]

    def test_detection_stats_bounds(self):
        with pytest.raises(ValueError):
            DetectionStats(counts=np.array([5]), frame_count=4)
        with pytest.raises(ValueError):
            DetectionStats(counts=np.array([-1]), frame_count=4)
        with pytest.raises(ValueError):  # row 1's count exceeds its own frames
            DetectionStats(counts=[[4, 0], [0, 3]], frame_count=[4, 2])
        with pytest.raises(ValueError):  # a zero-frame row
            DetectionStats(counts=[[0, 0], [0, 0]], frame_count=[1, 0])
        with pytest.raises(ValueError):  # one frame count per row
            DetectionStats(counts=[[0, 0], [0, 0]], frame_count=[1, 1, 1])
        with pytest.raises(ValueError):
            DetectionStats(counts=np.zeros((2, 0)), frame_count=[1, 1])
        for bad in (3, -1):  # a category outside 0..C-1 must not land in another row
            with pytest.raises(ValueError):
                DetectionStats.from_observations(
                    [Observation((frozenset({bad}),)), Observation((frozenset(),))], 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.lists(
        st.lists(st.frozensets(st.integers(0, 15)), min_size=1, max_size=15),
        max_size=8))
    def test_stacked_counts_match_the_per_observation_loop(self, c, scenes):
        observations = [Observation(tuple(frozenset(x % c for x in p) for p in frames))
                        for frames in scenes]
        stats = DetectionStats.from_observations(observations, c)
        want = detection_counts_reference(observations, c)
        assert stats.counts.shape == (len(observations), c)
        assert stats.counts.tolist() == [k for k, _ in want]
        assert stats.frame_count.tolist() == [f for _, f in want]

    def test_prior_config_validation(self):
        with pytest.raises(ValueError):
            PriorConfig(count_bounds=(5, 1))
        with pytest.raises(ValueError):
            PriorConfig(beta_alpha=0.0)
        with pytest.raises(ValueError):
            PriorConfig(frames_bounds=(0, 4))
        for bad in (math.nan, math.inf):
            for field in ("beta_alpha", "beta_beta", "poisson_lambda"):
                with pytest.raises(ValueError):
                    PriorConfig(**{field: bad})

    def test_visual_system_rejects_nan(self):
        with pytest.raises(ValueError):
            VisualSystem(fa=np.array([0.1, math.nan]), miss=np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            VisualSystem.from_flat([0.1, 0.1, math.nan, 0.1])
