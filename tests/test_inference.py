import math

import numpy as np
import pytest

from detcal.core import (
    DetectionStats,
    Observation,
    PriorConfig,
    VisualSystem,
    render_percept,
)
from detcal.inference import (
    ParticleFilterConfig,
    assimilate_observation,
    estimate_v,
    init_ensemble,
    online_map_world_state,
    retrospective_infer,
    retrospective_map_with_mass,
    run_filter,
    systematic_resample,
)
from oracles import (
    map_state_oracle,
    marginal_loglik_oracle,
    state_posterior_oracle,
)

PRIOR5 = PriorConfig()


def small_config(**kw):
    base = dict(num_particles=8, seed=0,
                rejuvenation_sweeps_per_observation=0,
                ess_resample_threshold=1e-9)
    base.update(kw)
    return ParticleFilterConfig(**base)


def random_instance(rng, c, n_obs, f_max=5):
    """(prior, observations-as-percepts) for a small enumerable problem."""
    prior = PriorConfig(count_bounds=(1, c))
    observations = []
    for _ in range(n_obs):
        f = int(rng.integers(1, f_max + 1))
        percepts = [frozenset(int(x) for x in np.nonzero(rng.random(c) < 0.4)[0])
                    for _ in range(f)]
        observations.append(Observation(tuple(percepts)))
    return prior, observations


class TestInitEnsemble:
    def test_prior_mean_and_uniform_weights(self):
        ens = init_ensemble(ParticleFilterConfig(seed=3), PRIOR5, 5)
        entries = np.concatenate([ens.fa.ravel(), ens.miss.ravel()])
        assert abs(entries.mean() - 1.0 / 6.0) < 0.02
        assert np.all(ens.log_weights == 0.0)
        assert ens.effective_sample_size == pytest.approx(100.0)

    def test_seed_determinism_is_bitwise(self):
        a = init_ensemble(ParticleFilterConfig(seed=11), PRIOR5, 5)
        b = init_ensemble(ParticleFilterConfig(seed=11), PRIOR5, 5)
        assert np.array_equal(a.fa, b.fa) and np.array_equal(a.miss, b.miss)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParticleFilterConfig(num_particles=1)
        with pytest.raises(ValueError):
            ParticleFilterConfig(proposal_sigma=0.0)
        with pytest.raises(ValueError):
            ParticleFilterConfig(rejuvenation_sweeps_per_observation=-1)
        with pytest.raises(ValueError):
            ParticleFilterConfig(ess_resample_threshold=0.0)


class TestAssimilation:
    def test_weights_match_enumeration_oracle(self, rng):
        for trial in range(60):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=int(rng.integers(1, 4)))
            ens = init_ensemble(small_config(seed=trial), prior, c)
            initial = [ens.particle(m).v_hat for m in range(ens.num_particles)]
            for obs in observations:
                assimilate_observation(ens, obs)
            lo, hi = prior.count_bounds
            for m in range(ens.num_particles):
                expected = sum(
                    marginal_loglik_oracle(list(o.percepts), initial[m].fa,
                                           initial[m].miss, prior.poisson_lambda,
                                           lo, hi, c)
                    for o in observations)
                assert ens.log_weights[m] == pytest.approx(expected, abs=1e-10)

    def test_beliefs_match_posterior_oracle(self, rng):
        for trial in range(40):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=2)
            ens = init_ensemble(small_config(seed=100 + trial), prior, c)
            for obs in observations:
                assimilate_observation(ens, obs)
            lo, hi = prior.count_bounds
            for m in range(ens.num_particles):
                part = ens.particle(m)
                for t, obs in enumerate(observations):
                    states, probs = state_posterior_oracle(
                        list(obs.percepts), part.v_hat.fa, part.v_hat.miss,
                        prior.poisson_lambda, lo, hi, c)
                    assert states == list(ens.space.states)
                    np.testing.assert_allclose(part.world_beliefs[t], probs,
                                               rtol=1e-10, atol=1e-10)

    def test_beliefs_refresh_after_rejuvenation(self, rng):
        # with sweeps on, stored beliefs must track the moved rates exactly
        for trial in range(25):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=3)
            cfg = small_config(rejuvenation_sweeps_per_observation=1,
                               seed=200 + trial)
            ens = init_ensemble(cfg, prior, c)
            for obs in observations:
                assimilate_observation(ens, obs)
            lo, hi = prior.count_bounds
            for m in range(ens.num_particles):
                part = ens.particle(m)
                for t, obs in enumerate(observations):
                    _, probs = state_posterior_oracle(
                        list(obs.percepts), part.v_hat.fa, part.v_hat.miss,
                        prior.poisson_lambda, lo, hi, c)
                    np.testing.assert_allclose(part.world_beliefs[t], probs,
                                               rtol=1e-9, atol=1e-9)

    def test_beliefs_exact_when_the_multiplicative_refresh_overflows(self, monkeypatch):
        # ~3000 frames per observation make exp(delta) overflow for many
        # accepted moves; those rows are recomputed from the history
        import detcal.inference as inference

        fallback_rows = []
        real = inference.state_log_joint

        def spy(counts, frame_count, fa, miss, space):
            if np.ndim(fa) == 3:  # only the overflow fallback passes (n, 1, C) rates
                fallback_rows.append(fa.shape[0])
            return real(counts, frame_count, fa, miss, space)

        monkeypatch.setattr(inference, "state_log_joint", spy)
        c = 3
        prior = PriorConfig(count_bounds=(1, c))
        truth = VisualSystem(fa=np.array([0.05, 0.3, 0.1]),
                             miss=np.array([0.1, 0.05, 0.4]))
        r = np.random.default_rng(17)
        observations = [
            Observation(tuple(render_percept(w, truth, r)
                              for _ in range(int(r.integers(2900, 3100)))))
            for w in (frozenset({0}), frozenset({1, 2}), frozenset({0, 2}))]
        ens = init_ensemble(small_config(num_particles=6, seed=4,
                                         rejuvenation_sweeps_per_observation=1),
                            prior, c)
        with np.errstate(over="ignore"):
            for obs in observations:
                assimilate_observation(ens, obs)
        assert sum(fallback_rows) > 0
        lo, hi = prior.count_bounds
        for m in range(ens.num_particles):
            part = ens.particle(m)
            for t, obs in enumerate(observations):
                _, probs = state_posterior_oracle(
                    list(obs.percepts), part.v_hat.fa, part.v_hat.miss,
                    prior.poisson_lambda, lo, hi, c)
                np.testing.assert_allclose(part.world_beliefs[t], probs,
                                           rtol=1e-10, atol=1e-10)

    def test_noiseless_particles_identify_the_state(self):
        cfg = small_config(num_particles=2)
        ens = init_ensemble(cfg, PRIOR5, 5)
        ens.fa[:] = 1e-12
        ens.miss[:] = 1e-12
        w = frozenset({1, 3})
        counts = np.array([0, 4, 0, 4, 0])
        assimilate_observation(ens, DetectionStats(counts=counts, frame_count=4))
        belief = ens.particle(0).world_beliefs[0]
        idx = ens.space.states.index(w)
        assert belief[idx] == pytest.approx(1.0, abs=1e-9)
        assert online_map_world_state(ens, 0) == w

    def test_identity_transition(self, rng):
        # assimilation weights and resampling must never move the rates
        prior, observations = random_instance(rng, 3, n_obs=3)
        cfg = small_config()
        ens = init_ensemble(cfg, prior, 3)
        before_fa, before_miss = ens.fa.copy(), ens.miss.copy()
        for obs in observations:
            assimilate_observation(ens, obs)
        assert np.array_equal(ens.fa, before_fa)
        assert np.array_equal(ens.miss, before_miss)

    def test_category_count_mismatch(self):
        ens = init_ensemble(small_config(), PriorConfig(count_bounds=(1, 3)), 3)
        with pytest.raises(ValueError):
            assimilate_observation(
                ens, DetectionStats(counts=np.array([1, 1]), frame_count=2))


class TestEstimate:
    def test_degenerate_ensemble_is_exact(self):
        ens = init_ensemble(small_config(), PRIOR5, 5)
        ens.fa[:] = 0.25
        ens.miss[:] = 0.4
        est = estimate_v(ens)
        assert np.allclose(est.fa, 0.25) and np.allclose(est.miss, 0.4)
        assert ens.estimate_used_weights is False

    def test_weighted_mean_sets_flag(self):
        ens = init_ensemble(small_config(num_particles=2), PRIOR5, 5)
        ens.log_weights[:] = [0.0, math.log(3.0)]
        est = estimate_v(ens)
        assert ens.estimate_used_weights is True
        expected = (ens.fa[0] + 3.0 * ens.fa[1]) / 4.0
        np.testing.assert_allclose(est.fa, expected, rtol=1e-12)


class TestResampling:
    def test_systematic_covers_uniform_exactly(self, rng):
        idx = systematic_resample(np.full(64, 1 / 64), rng)
        assert sorted(idx.tolist()) == list(range(64))

    def test_preserves_weighted_mean_in_expectation(self):
        rng = np.random.default_rng(5)
        values = rng.random(12)
        weights = rng.random(12)
        weights /= weights.sum()
        target = float(weights @ values)
        reps = 20_000
        means = np.empty(reps)
        for i in range(reps):
            idx = systematic_resample(weights, rng)
            means[i] = values[idx].mean()
        se = means.std(ddof=1) / math.sqrt(reps)
        assert abs(means.mean() - target) < 4 * se + 1e-12

    def test_resampling_resets_weights(self, rng):
        prior, observations = random_instance(rng, 3, n_obs=1)
        cfg = small_config(ess_resample_threshold=1.0)  # always resample
        ens = init_ensemble(cfg, prior, 3)
        assimilate_observation(ens, observations[0])
        assert np.all(ens.log_weights == 0.0)


class TestOnlineMap:
    def test_matches_exact_posterior_argmax_under_shared_truth(self, rng):
        for trial in range(40):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=2)
            v = VisualSystem(fa=0.05 + 0.4 * rng.random(c),
                             miss=0.05 + 0.4 * rng.random(c))
            ens = init_ensemble(small_config(seed=300 + trial), prior, c)
            ens.fa[:] = v.fa
            ens.miss[:] = v.miss
            for obs in observations:
                assimilate_observation(ens, obs)
            lo, hi = prior.count_bounds
            for t, obs in enumerate(observations):
                expected = map_state_oracle(list(obs.percepts), v.fa, v.miss,
                                            prior.poisson_lambda, lo, hi, c)
                assert online_map_world_state(ens, t) == expected

    def test_out_of_range_errors(self):
        ens = init_ensemble(small_config(), PRIOR5, 5)
        with pytest.raises(IndexError):
            online_map_world_state(ens, 0)


class TestRetrospective:
    def test_noiseless_recovery(self, rng):
        v = VisualSystem(fa=np.zeros(5), miss=np.zeros(5))
        worlds = [frozenset({0}), frozenset({1, 4}), frozenset({2, 3})]
        observations = [
            Observation(tuple(frozenset(w) for _ in range(3))) for w in worlds]
        got = retrospective_infer(v, observations, PRIOR5, 5)
        assert got == worlds

    def test_equals_exhaustive_scoring(self, rng):
        for trial in range(60):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=3)
            v = VisualSystem(fa=0.02 + 0.6 * rng.random(c),
                             miss=0.02 + 0.6 * rng.random(c))
            lo, hi = prior.count_bounds
            got = retrospective_infer(v, observations, prior, c)
            expected = [map_state_oracle(list(o.percepts), v.fa, v.miss,
                                         prior.poisson_lambda, lo, hi, c)
                        for o in observations]
            assert got == expected

    def test_tie_break_is_bit_order(self):
        # an uninformative system ties all likelihoods; the prior then puts
        # the singletons first and bit order picks the highest category
        v = VisualSystem(fa=np.full(5, 0.5), miss=np.full(5, 0.5))
        obs = Observation((frozenset({0, 1}),))
        got = retrospective_infer(v, [obs], PRIOR5, 5)
        assert got == [frozenset({4})]

    def test_map_mass_is_a_probability(self, rng):
        prior, observations = random_instance(rng, 3, n_obs=2)
        v = VisualSystem(fa=np.full(3, 0.1), miss=np.full(3, 0.1))
        for state, mass in retrospective_map_with_mass(v, observations, prior, 3):
            assert 0.0 < mass <= 1.0


class TestRunFilterDeterminism:
    def test_trace_is_a_pure_function_of_seed(self, rng):
        prior, observations = random_instance(rng, 3, n_obs=5)
        cfg = ParticleFilterConfig(num_particles=30, seed=7)
        v = VisualSystem(fa=np.full(3, 0.15), miss=np.full(3, 0.1))
        worlds = [frozenset({0})] * 5
        a = run_filter(observations, cfg, prior, 3, v_true=v, true_states=worlds)
        b = run_filter(observations, cfg, prior, 3, v_true=v, true_states=worlds)
        assert a.map_states == b.map_states
        assert a.mse == b.mse
        for ea, eb in zip(a.estimates, b.estimates):
            assert np.array_equal(ea.as_flat(), eb.as_flat())

    def test_trace_shape(self, rng):
        prior, observations = random_instance(rng, 3, n_obs=4)
        cfg = ParticleFilterConfig(num_particles=20, seed=1)
        trace = run_filter(observations, cfg, prior, 3)
        assert len(trace.estimates) == 4 and len(trace.map_states) == 4
        assert trace.mse is None and trace.accuracy is None
        assert trace.final_estimate is trace.estimates[-1]


class TestLearning:
    def test_estimate_error_shrinks_with_data(self):
        # statistical smoke test at small scale: 12 runs, 30 observations
        prior = PRIOR5
        cfg = ParticleFilterConfig(num_particles=60, seed=0)
        from detcal.dataset import synthesize_run
        initial, first, last = [], [], []
        for i in range(12):
            run = synthesize_run(prior, 5, 30, np.random.default_rng(1000 + i))
            trace = run_filter(run.observations, cfg, prior, 5, v_true=run.v_true,
                               rng=np.random.default_rng(2000 + i))
            initial.append(trace.initial_mse[0])
            first.append(trace.mse[0][0])
            last.append(trace.mse[-1][0])
        # before any data the estimate error sits at the prior variance
        assert abs(np.mean(initial) - prior.rate_variance) < 0.004
        assert np.mean(last) < 0.5 * np.mean(first)
        assert np.mean(last) < prior.rate_variance / 3.0


class TestSamplingRegime:
    def test_runs_and_is_deterministic(self, rng):
        prior, observations = random_instance(rng, 3, n_obs=4)
        cfg = ParticleFilterConfig(num_particles=40, seed=9, enumeration_limit=2)
        a = run_filter(observations, cfg, prior, 3)
        b = run_filter(observations, cfg, prior, 3)
        assert a.map_states == b.map_states
        for ea, eb in zip(a.estimates, b.estimates):
            assert np.array_equal(ea.as_flat(), eb.as_flat())

    def test_weights_use_likelihood_at_sample(self, rng):
        prior, observations = random_instance(rng, 2, n_obs=1)
        cfg = small_config(enumeration_limit=0, num_particles=6)
        ens = init_ensemble(cfg, prior, 2)
        assert ens.enumerated is False
        initial = [ens.particle(m).v_hat for m in range(6)]
        assimilate_observation(ens, observations[0])
        from detcal.core import observation_log_likelihood, DetectionStats as DS
        stats = DS.from_observation(observations[0], 2)
        for m in range(6):
            w = ens.particle(m).world_beliefs[0]
            expected = observation_log_likelihood(stats, w, initial[m])
            assert ens.log_weights[m] == pytest.approx(expected, abs=1e-10)

    def test_majority_vote_readout(self, rng):
        prior, observations = random_instance(rng, 2, n_obs=1)
        cfg = small_config(enumeration_limit=0, num_particles=30)
        ens = init_ensemble(cfg, prior, 2)
        assimilate_observation(ens, observations[0])
        state = online_map_world_state(ens, 0)
        codes = [frozenset(np.nonzero(ens._world_samples[m, 0])[0].tolist())
                 for m in range(30)]
        counts = {}
        for s in codes:
            counts[s] = counts.get(s, 0) + 1
        assert counts[state] == max(counts.values())
