import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import betaln, logsumexp

from detcal.core import (
    DetectionStats,
    Observation,
    PriorConfig,
    StateSpace,
    VisualSystem,
    beta_log_density,
    beta_predictive_terms,
    render_percepts,
    sample_world_state,
    state_log_joint,
    state_log_predictive,
)
from detcal.baselines import fixed_prior_infer
from detcal.dataset import synthesize_run
from detcal.metrics import meta_mse
from detcal.inference import (
    Particle,
    ParticleFilterConfig,
    SceneSums,
    assimilate_observation,
    estimate_v,
    init_ensemble,
    online_map_world_state,
    rejuvenate,
    retrospective_infer,
    retrospective_map_with_mass,
    run_filter,
    systematic_resample,
)
from oracles import (
    enumerate_states_oracle,
    map_state_oracle,
    state_log_prior_oracle,
    state_posterior_oracle,
    truncated_poisson_pmf_oracle,
    urn_path_oracle,
)

PRIOR5 = PriorConfig()


def small_config(**kw):
    # the ESS never drops below 1, so 1e-9 turns resampling off
    base = dict(num_particles=8, seed=0, ess_resample_threshold=1e-9)
    base.update(kw)
    return ParticleFilterConfig(**base)


def stack(observations, c):
    return DetectionStats.from_observations(observations, c)


def assimilate_all(ens, observations):
    """Assimilate each observation, row by row of their stack."""
    stats = stack(observations, ens.num_categories)
    for t in range(len(stats)):
        assimilate_observation(ens, stats[t])


def assimilate_recorded(ens, observations):
    """Assimilate each observation; per step (beliefs, drawn states)."""
    steps = []
    for obs in observations:
        assimilate_all(ens, [obs])
        steps.append((ens.beliefs.copy(), scene_sets(ens)))
    return steps


def scene_sets(ens):
    """The states the particles drew last, as category sets."""
    return [frozenset(np.flatnonzero(mask).tolist()) for mask in ens.scenes]


def urn_paths(ens, prior, c, observations, steps):
    """Per particle, the urn oracle's (posterior, log predictive) per step.

    With resampling off a particle keeps its index, so its drawn states
    are column m of the recorded steps.
    """
    lo, hi = prior.count_bounds
    percepts = [list(o.percepts) for o in observations]
    return [urn_path_oracle(percepts, [scenes[m] for _, scenes in steps],
                            prior.beta_alpha, prior.beta_beta, prior.poisson_lambda,
                            lo, hi, c)
            for m in range(ens.num_particles)]


def rate_particle(fa, miss, log_weight=0.0):
    return Particle(v_hat=VisualSystem(fa=np.asarray(fa), miss=np.asarray(miss)),
                    world_beliefs=[], log_weight=log_weight)


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
        # every particle starts at the prior's Beta counts, with the states
        # enumerated (C=5) or summed out (C=16)
        for c in (5, 16):
            ens = init_ensemble(ParticleFilterConfig(seed=3), PRIOR5, c)
            assert (ens.space is None) == (c > 15)
            for counts, shape in ((ens.a_fa, 2.0), (ens.b_fa, 10.0),
                                  (ens.a_miss, 2.0), (ens.b_miss, 10.0)):
                assert counts.shape == (100, c) and np.all(counts == shape)
            est = estimate_v(ens)
            assert np.allclose(est.fa, 1.0 / 6.0) and np.allclose(est.miss, 1.0 / 6.0)
            assert np.all(ens.log_weights == 0.0)
            assert np.all(ens.weights == 1.0 / 100)

    def test_seed_determinism_is_bitwise(self):
        # nothing is drawn at start; each step draws the states, enumerated
        # (C=5) or summed out (C=16)
        for c in (5, 16):
            run = synthesize_run(PRIOR5, c, 10, np.random.default_rng(11))
            a, b = (init_ensemble(ParticleFilterConfig(seed=11), PRIOR5, c) for _ in range(2))
            stats = stack(run.observations, c)
            for t in range(len(stats)):
                assimilate_observation(a, stats[t])
                assimilate_observation(b, stats[t])
                assert np.array_equal(a.scenes, b.scenes)
            for name in ("a_fa", "b_fa", "a_miss", "b_miss", "log_weights"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParticleFilterConfig(num_particles=1)
        with pytest.raises(ValueError):
            ParticleFilterConfig(proposal_sigma=0.0)
        with pytest.raises(ValueError):
            ParticleFilterConfig(ess_resample_threshold=0.0)


class TestAssimilation:
    def test_weights_match_enumeration_oracle(self, rng):
        # a log weight is the sum of the particle's exact log predictives,
        # each under the counts of the states it drew before
        for trial in range(60):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=int(rng.integers(1, 5)))
            ens = init_ensemble(small_config(seed=trial), prior, c)
            steps = assimilate_recorded(ens, observations)
            for m, path in enumerate(urn_paths(ens, prior, c, observations, steps)):
                expected = sum(log_predictive for _, log_predictive in path)
                assert ens.log_weights[m] == pytest.approx(expected, abs=1e-10)

    def test_beliefs_match_posterior_oracle(self, rng):
        # each step's beliefs are the particle's exact state posterior given
        # its counts before the step
        for trial in range(40):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=3)
            ens = init_ensemble(small_config(seed=100 + trial), prior, c)
            steps = assimilate_recorded(ens, observations)
            lo, hi = prior.count_bounds
            assert list(ens.space.states) == enumerate_states_oracle(c, lo, hi)
            for m, path in enumerate(urn_paths(ens, prior, c, observations, steps)):
                for (beliefs, _), (probs, _) in zip(steps, path):
                    np.testing.assert_allclose(beliefs[m], probs, rtol=1e-10, atol=1e-10)
                assert len(ens.particle(m).world_beliefs) == 1
                np.testing.assert_array_equal(ens.particle(m).world_beliefs[0],
                                              steps[-1][0][m])

    def test_beliefs_refresh_after_rejuvenation(self, rng):
        # rejuvenate() must leave beliefs that are the exact posteriors under
        # the moved rates
        for trial in range(25):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=3)
            history = stack(observations, c)
            particle = rate_particle(0.05 + 0.4 * rng.random(c), 0.05 + 0.4 * rng.random(c))
            moved = rejuvenate(particle, history, small_config(), prior,
                               np.random.default_rng(200 + trial))
            lo, hi = prior.count_bounds
            for t, obs in enumerate(observations):
                _, probs = state_posterior_oracle(
                    list(obs.percepts), moved.v_hat.fa, moved.v_hat.miss,
                    prior.poisson_lambda, lo, hi, c)
                np.testing.assert_allclose(moved.world_beliefs[t], probs,
                                           rtol=1e-10, atol=1e-10)

    def test_beliefs_exact_when_the_multiplicative_refresh_overflows(self):
        # ~3000 frames per observation: the likelihood ratio of a move is far
        # beyond exp's range, so a multiplicative rescale of the beliefs would
        # overflow; rejuvenate() recomputes them from the history
        c = 3
        prior = PriorConfig(count_bounds=(1, c))
        truth = VisualSystem(fa=np.array([0.05, 0.3, 0.1]),
                             miss=np.array([0.1, 0.05, 0.4]))
        r = np.random.default_rng(17)
        observations = [
            Observation(render_percepts(w, truth, int(r.integers(2900, 3100)), r))
            for w in (frozenset({0}), frozenset({1, 2}), frozenset({0, 2}))]
        history = stack(observations, c)
        particle = rate_particle(truth.fa, truth.miss)
        rng = np.random.default_rng(4)
        moves = 0
        for _ in range(20):
            moved = rejuvenate(particle, history, small_config(), prior, rng)
            moves += not np.array_equal(moved.v_hat.as_flat(), particle.v_hat.as_flat())
            particle = moved
        assert moves > 0
        lo, hi = prior.count_bounds
        for t, obs in enumerate(observations):
            _, probs = state_posterior_oracle(
                list(obs.percepts), particle.v_hat.fa, particle.v_hat.miss,
                prior.poisson_lambda, lo, hi, c)
            np.testing.assert_allclose(particle.world_beliefs[t], probs,
                                       rtol=1e-10, atol=1e-10)

    def test_noiseless_particles_identify_the_state(self):
        cfg = small_config(num_particles=2)
        ens = init_ensemble(cfg, PRIOR5, 5)
        # a billion clean frames behind every rate: reports are near-certain
        ens.b_fa[:] = 1e9
        ens.b_miss[:] = 1e9
        w = frozenset({1, 3})
        counts = np.array([0, 4, 0, 4, 0])
        assimilate_observation(ens, DetectionStats(counts=counts, frame_count=4))
        belief = ens.particle(0).world_beliefs[0]
        idx = ens.space.states.index(w)
        assert belief[idx] == pytest.approx(1.0, abs=1e-9)
        assert online_map_world_state(ens, 0) == w
        assert scene_sets(ens) == [w, w]

    def test_category_count_mismatch(self):
        ens = init_ensemble(small_config(), PriorConfig(count_bounds=(1, 3)), 3)
        with pytest.raises(ValueError):
            assimilate_observation(
                ens, DetectionStats(counts=np.array([1, 1]), frame_count=2))


class TestEstimate:
    def test_degenerate_ensemble_is_exact(self):
        # every particle's posterior means are 0.25 (fa) and 0.4 (miss)
        ens = init_ensemble(small_config(), PRIOR5, 5)
        ens.a_fa[:], ens.b_fa[:] = 1.0, 3.0
        ens.a_miss[:], ens.b_miss[:] = 2.0, 3.0
        est = estimate_v(ens)
        assert np.allclose(est.fa, 0.25) and np.allclose(est.miss, 0.4)
        assert ens.estimate_used_weights is False

    def test_weighted_mean_sets_flag(self):
        ens = init_ensemble(small_config(num_particles=2), PRIOR5, 5)
        ens.a_fa[1] = 7.0  # particle 1's fa mean is 7/17, particle 0's 1/6
        ens.log_weights[:] = [0.0, math.log(3.0)]
        est = estimate_v(ens)
        assert ens.estimate_used_weights is True
        expected = (1.0 / 6.0 + 3.0 * 7.0 / 17.0) / 4.0
        np.testing.assert_allclose(est.fa, expected, rtol=1e-12)
        np.testing.assert_allclose(est.miss, 1.0 / 6.0, rtol=1e-12)


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
        ens.a_fa[0] += 1.0  # particles at equal counts would keep an ESS of M
        assimilate_all(ens, observations)
        assert np.all(ens.log_weights == 0.0)


class TestOnlineMap:
    def test_matches_exact_posterior_argmax_under_shared_truth(self, rng):
        for trial in range(40):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=2)
            v = VisualSystem(fa=0.05 + 0.4 * rng.random(c),
                             miss=0.05 + 0.4 * rng.random(c))
            ens = init_ensemble(small_config(seed=300 + trial), prior, c)
            # 1e12 frames' worth of counts at the truth pins the rates there
            ens.a_fa[:], ens.b_fa[:] = 1e12 * v.fa, 1e12 * (1.0 - v.fa)
            ens.a_miss[:], ens.b_miss[:] = 1e12 * v.miss, 1e12 * (1.0 - v.miss)
            assimilate_all(ens, observations)
            lo, hi = prior.count_bounds
            for t, obs in enumerate(observations):
                expected = map_state_oracle(list(obs.percepts), v.fa, v.miss,
                                            prior.poisson_lambda, lo, hi, c)
                assert online_map_world_state(ens, t) == expected

    def test_is_the_argmax_of_the_weighted_oracle_mixture(self, rng):
        # the readout of step t mixes the particles' exact posteriors with
        # the weights after step t's update
        checked = 0
        for trial in range(30):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=4)
            ens = init_ensemble(small_config(seed=400 + trial), prior, c)
            log_weights = []
            steps = []
            for obs in observations:
                steps += assimilate_recorded(ens, [obs])
                log_weights.append(ens.log_weights.copy())
            paths = urn_paths(ens, prior, c, observations, steps)
            states = list(ens.space.states)
            for t in range(len(observations)):
                w = np.exp(log_weights[t] - logsumexp(log_weights[t]))
                mixture = w @ np.array([path[t][0] for path in paths])
                top = np.sort(mixture)[::-1]
                if len(top) > 1 and top[0] - top[1] < 1e-9:
                    continue
                assert online_map_world_state(ens, t) == states[int(np.argmax(mixture))]
                checked += 1
        assert checked >= 100

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
        got = retrospective_infer(v, stack(observations, 5), PRIOR5)
        assert got == worlds

    def test_equals_exhaustive_scoring(self, rng):
        for trial in range(60):
            c = int(rng.integers(1, 4))
            prior, observations = random_instance(rng, c, n_obs=3)
            v = VisualSystem(fa=0.02 + 0.6 * rng.random(c),
                             miss=0.02 + 0.6 * rng.random(c))
            lo, hi = prior.count_bounds
            got = retrospective_infer(v, stack(observations, c), prior)
            expected = [map_state_oracle(list(o.percepts), v.fa, v.miss,
                                         prior.poisson_lambda, lo, hi, c)
                        for o in observations]
            assert got == expected

        # Against the enumerated joint at C <= 10: lo=0, hi=C and hi>C;
        # rates of exactly 0, 0.5 and 1 among interior ones; all rates
        # equal, as under the fixed prior; and observations no state
        # explains, which get the first state and mass 1/S.
        def rates(kind, c):
            inner = 0.02 + 0.96 * rng.random(c)
            if kind == "equal":
                return np.full(c, rng.choice([PRIOR5.rate_map, 0.5, inner[0]]))
            if kind == "degenerate":
                return np.where(rng.random(c) < 0.5, rng.choice([0.0, 0.5, 1.0], c), inner)
            return inner

        cases = exact = stuck = 0
        for c in range(1, 11):
            lo_mid = int(rng.integers(0, c + 1))
            for lo, hi in ((0, c), (1, c + 2), (lo_mid, int(rng.integers(lo_mid, c + 1)))):
                prior = PriorConfig(count_bounds=(lo, hi),
                                    poisson_lambda=float(rng.choice([1.0, 2.5])))
                space = StateSpace.build(prior, c)
                index = {w: i for i, w in enumerate(space.states)}
                for kind in ("interior", "degenerate", "equal"):
                    fa, miss = rates(kind, c), rates(kind, c)
                    if kind == "equal":
                        miss = fa
                    f = rng.integers(1, 7, size=6)
                    k = rng.binomial(f[:, None], rng.random(c))
                    lj = state_log_joint(k, f, fa, miss, space)
                    got = retrospective_map_with_mass(
                        VisualSystem(fa=fa, miss=miss),
                        DetectionStats(counts=k, frame_count=f), prior)
                    for (state, mass), row in zip(got, lj):
                        cases += 1
                        best = row.max()
                        if best == -np.inf:
                            stuck += 1
                            assert state == space.states[0]
                            assert mass == pytest.approx(1.0 / space.size, rel=1e-12)
                            continue
                        assert row[index[state]] >= best - 1e-12 * max(1.0, abs(best))
                        assert mass == pytest.approx(math.exp(best - logsumexp(row)), rel=1e-12)
                        if len(row) == 1 or np.sort(row)[-2] < best - 1e-9:
                            assert state == space.states[int(np.argmax(row))]
                            exact += 1
        assert cases >= 500 and stuck >= 10 and exact >= 400, (cases, stuck, exact)

    def test_builds_no_state_space(self, monkeypatch):
        # at C=20 and 5 objects the state space would hold 21699 states
        def refuse(*args):
            raise AssertionError("the state space was built")

        monkeypatch.setattr(StateSpace, "build", refuse)
        prior = PriorConfig()
        run = synthesize_run(prior, 20, 30, np.random.default_rng(20))
        stats = stack(run.observations, 20)
        got = retrospective_map_with_mass(run.v_true, stats, prior)
        assert all(1 <= len(w) <= 5 and 0.0 < mass <= 1.0 for w, mass in got)
        assert sum(w == truth for (w, _), truth in zip(got, run.world_states)) >= 20
        assert len(fixed_prior_infer(stats, prior)) == 30

    def test_tie_break_is_bit_order(self):
        # an uninformative system ties all likelihoods; the prior then puts
        # the singletons first and bit order picks the highest category
        v = VisualSystem(fa=np.full(5, 0.5), miss=np.full(5, 0.5))
        obs = Observation((frozenset({0, 1}),))
        got = retrospective_infer(v, stack([obs], 5), PRIOR5)
        assert got == [frozenset({4})]

    def test_map_mass_is_a_probability(self, rng):
        prior, observations = random_instance(rng, 3, n_obs=2)
        v = VisualSystem(fa=np.full(3, 0.1), miss=np.full(3, 0.1))
        for state, mass in retrospective_map_with_mass(v, stack(observations, 3), prior):
            assert 0.0 < mass <= 1.0


class TestRunFilterDeterminism:
    def test_trace_is_a_pure_function_of_seed(self, rng):
        prior, observations = random_instance(rng, 3, n_obs=5)
        cfg = ParticleFilterConfig(num_particles=30, seed=7)
        a = run_filter(stack(observations, 3), cfg, prior, 3)
        b = run_filter(stack(observations, 3), cfg, prior, 3)
        assert a.map_states == b.map_states
        assert len(a.estimates) == len(b.estimates) == 5
        for ea, eb in zip(a.estimates, b.estimates):
            assert np.array_equal(ea.as_flat(), eb.as_flat())

    def test_trace_shape(self, rng):
        prior, observations = random_instance(rng, 3, n_obs=4)
        cfg = ParticleFilterConfig(num_particles=20, seed=1)
        trace = run_filter(stack(observations, 3), cfg, prior, 3)
        assert len(trace.estimates) == 4 and len(trace.map_states) == 4
        assert trace.final_estimate is trace.estimates[-1]


class TestLearning:
    def test_estimate_error_shrinks_with_data(self):
        # statistical smoke test at small scale: 12 runs, 30 observations
        prior = PRIOR5
        cfg = ParticleFilterConfig(num_particles=60, seed=0)
        initial, first, last = [], [], []
        for i in range(12):
            run = synthesize_run(prior, 5, 30, np.random.default_rng(1000 + i))
            trace = run_filter(stack(run.observations, 5), cfg, prior, 5,
                               rng=np.random.default_rng(2000 + i))
            initial.append(meta_mse(run.v_true, trace.initial_estimate)[0])
            first.append(meta_mse(run.v_true, trace.estimates[0])[0])
            last.append(meta_mse(run.v_true, trace.estimates[-1])[0])
        # before any data the estimate error sits at the prior variance
        assert abs(np.mean(initial) - prior.rate_variance) < 0.004
        assert np.mean(last) < 0.5 * np.mean(first)
        assert np.mean(last) < prior.rate_variance / 3.0


class TestParticleLearning:
    def test_counts_and_weights_bookkept_over_a_long_stream(self):
        # resampling off, T=1200: each particle's counts are a fresh recount
        # over the states it drew, and its log weight is the sum of the
        # predictives recomputed from those counts
        prior = PriorConfig(count_bounds=(1, 3))
        c, m = 3, 6
        run = synthesize_run(prior, c, 1200, np.random.default_rng(5))
        stats = stack(run.observations, c)
        ens = init_ensemble(small_config(num_particles=m, seed=5), prior, c)
        drawn = []
        for t in range(len(stats)):
            assimilate_observation(ens, stats[t])
            drawn.append(ens.scenes.copy())
        lo, hi = prior.count_bounds
        states = enumerate_states_oracle(c, lo, hi)
        presence = np.array([[j in w for j in range(c)] for w in states], dtype=float)
        log_prior = np.array([state_log_prior_oracle(w, prior.poisson_lambda, lo, hi, c)
                              for w in states])
        k = stats.counts.astype(float)[:, None, :]                          # (T, 1, C)
        rest = stats.frame_count.astype(float)[:, None, None] - k
        present = np.array(drawn, dtype=float)                               # (T, M, C)
        absent = 1.0 - present
        a, b = prior.beta_alpha, prior.beta_beta
        # counts after each step, and before it (shifted by one step)
        after = {"a_fa": a + np.cumsum(absent * k, axis=0),
                 "b_fa": b + np.cumsum(absent * rest, axis=0),
                 "a_miss": a + np.cumsum(present * rest, axis=0),
                 "b_miss": b + np.cumsum(present * k, axis=0)}
        for name, total in after.items():
            assert np.array_equal(getattr(ens, name), total[-1]), name
        before = {name: np.concatenate([np.full((1, m, c), a if name[0] == "a" else b),
                                        total[:-1]])[:, :, None, :]
                  for name, total in after.items()}                          # (T, M, 1, C)
        kk, rr = k[:, :, None, :], rest[:, :, None, :]
        pres_term = (betaln(before["a_miss"] + rr, before["b_miss"] + kk)
                     - betaln(before["a_miss"], before["b_miss"]))
        abs_term = (betaln(before["a_fa"] + kk, before["b_fa"] + rr)
                    - betaln(before["a_fa"], before["b_fa"]))
        joint = (np.where(presence, pres_term, abs_term).sum(axis=-1)
                 + log_prior)                                                # (T, M, S)
        expected = logsumexp(joint, axis=-1).sum(axis=0)
        np.testing.assert_allclose(ens.log_weights, expected, rtol=1e-12, atol=0)

    def test_predictive_terms_match_high_precision(self):
        # log B(a + x, b + y) - log B(a, b) at 50 digits, for counts from
        # below 1 (as in random_beta_counts) to 2e4, F up to 40 (three
        # blocks of 16 factors), and k = 0 and k = F in every draw
        def exact(a, b, x, y):
            with mpmath.workdps(50):
                a, b = mpmath.mpf(a), mpmath.mpf(b)
                return float(mpmath.log(mpmath.beta(a + x, b + y) / mpmath.beta(a, b)))

        rng = np.random.default_rng(41)
        worst = 0.0
        for f in (1, 2, 15, 16, 17, 40):
            for scale in (0.3, 3.0, 30.0, 2e4):
                a_fa, b_fa, a_miss, b_miss = (scale * (0.05 + rng.random((2, 6)))
                                              for _ in range(4))
                k = rng.integers(0, f + 1, size=6)
                k[:2] = 0, f
                pres, absent = beta_predictive_terms(k, f, a_fa, b_fa, a_miss, b_miss)
                for m in range(2):
                    for j in range(6):
                        kj = int(k[j])
                        worst = max(worst,
                                    abs(pres[m, j] - exact(a_miss[m, j], b_miss[m, j], f - kj, kj)),
                                    abs(absent[m, j] - exact(a_fa[m, j], b_fa[m, j], kj, f - kj)))
        assert worst <= 1e-13

    def test_predictive_terms_broadcast_over_observations(self):
        # counts (T, C) with frames (T,) against counts (M, 1, C): one call
        # gives (M, T, C), equal to a call per observation
        rng = np.random.default_rng(43)
        beta_counts = [x[:, None, :] for x in random_beta_counts(rng, 3, 4)]
        frames = np.array([1, 7, 20])
        counts = np.array([rng.integers(0, f + 1, size=4) for f in frames])
        pres, absent = beta_predictive_terms(counts, frames, *beta_counts)
        assert pres.shape == absent.shape == (3, 3, 4)
        for t, f in enumerate(frames):
            one = beta_predictive_terms(counts[t], f, *(x[:, 0] for x in beta_counts))
            np.testing.assert_allclose(pres[:, t], one[0], rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(absent[:, t], one[1], rtol=1e-15, atol=1e-15)

    def test_mixture_of_beta_posteriors_matches_a_grid_posterior(self):
        # C=1 with scenes of 0 or 1 objects and both rates at 0.3, so the
        # scene stays uncertain; the particles' Beta posteriors, mixed by
        # weight, must give each rate's marginal of the exact posterior over
        # (fa, miss) on a grid. 1000 particles keep the Monte Carlo error of
        # the mixture (about 0.05 in TV at 100) well below the bound.
        prior = PriorConfig(count_bounds=(0, 1))
        truth = VisualSystem(fa=np.array([0.3]), miss=np.array([0.3]))
        r = np.random.default_rng(0)
        observations = []
        for _ in range(300):
            world = sample_world_state(prior, 1, r)
            frames = int(r.integers(prior.frames_bounds[0], prior.frames_bounds[1] + 1))
            observations.append(Observation(render_percepts(world, truth, frames, r)))
        stats = stack(observations, 1)
        ens = init_ensemble(ParticleFilterConfig(num_particles=1000, seed=0), prior, 1)
        assimilate_all(ens, observations)

        grid = (np.arange(400) + 0.5) / 400
        pmf = truncated_poisson_pmf_oracle(prior.poisson_lambda, 0, 1)
        fa, miss = grid[:, None], grid[None, :]
        logp = (beta_log_density(fa, prior.beta_alpha, prior.beta_beta)
                + beta_log_density(miss, prior.beta_alpha, prior.beta_beta))
        for k, f in zip(stats.counts[:, 0].tolist(), stats.frame_count.tolist()):
            rest = f - k
            logp = logp + np.logaddexp(
                math.log(pmf[0]) + k * np.log(fa) + rest * np.log1p(-fa),
                math.log(pmf[1]) + k * np.log1p(-miss) + rest * np.log(miss))
        joint = np.exp(logp - logp.max())
        joint /= joint.sum()

        w = ens.weights
        for marginal, a, b in ((joint.sum(axis=1), ens.a_fa[:, 0], ens.b_fa[:, 0]),
                               (joint.sum(axis=0), ens.a_miss[:, 0], ens.b_miss[:, 0])):
            log_beta = ((a[:, None] - 1.0) * np.log(grid) + (b[:, None] - 1.0)
                        * np.log1p(-grid) - betaln(a, b)[:, None])
            mixture = w @ np.exp(log_beta)
            mixture /= mixture.sum()
            assert 0.5 * np.abs(mixture - marginal).sum() < 0.05

    def test_exact_step_keeps_no_history(self, monkeypatch):
        import detcal.inference as inference

        def forbidden(*args, **kwargs):
            raise AssertionError("the exact regime must not sweep or refresh a history")

        monkeypatch.setattr(inference, "_rejuvenation_sweep", forbidden)
        monkeypatch.setattr(inference, "_refresh_posteriors", forbidden)
        prior = PriorConfig(count_bounds=(1, 3))
        run = synthesize_run(prior, 3, 37, np.random.default_rng(3))  # T=37: no M, S or C
        ens = init_ensemble(ParticleFilterConfig(num_particles=10, seed=3), prior, 3)
        assimilate_all(ens, run.observations)
        assert ens.num_observations == 37
        for name, value in vars(ens).items():
            if isinstance(value, np.ndarray):
                assert 37 not in value.shape, name
            elif isinstance(value, list):
                assert not any(isinstance(v, np.ndarray) for v in value), name


def random_beta_counts(rng, m, c):
    """(a_fa, b_fa, a_miss, b_miss) for m particles, with entries below and above 1."""
    return [rng.choice([0.3, 3.0, 30.0]) * (0.05 + rng.random((m, c))) for _ in range(4)]


def count_bounds_cases(c):
    """(lo, hi) pairs at C=c: lo=0, lo=hi and hi=C among them."""
    return sorted({(0, c), (0, (c + 1) // 2), (c // 2, c // 2), (1, c), (c, c),
                   (min(1, c), max(1, c - 1))})


def state_index(space, masks):
    """Index into ``space.states`` of each presence mask."""
    index = {w: i for i, w in enumerate(space.states)}
    return [index[frozenset(np.flatnonzero(mask).tolist())] for mask in masks]


class TestSceneSums:
    """States summed out with elementary symmetric polynomials, against the
    enumerated predictive summed by logsumexp."""

    def test_evidence_and_map_match_enumeration(self):
        rng = np.random.default_rng(2024)
        worst, cases, maps = 0.0, 0, 0
        for c in range(1, 11):
            for lo, hi in count_bounds_cases(c):
                prior = PriorConfig(count_bounds=(lo, hi))
                space = StateSpace.build(prior, c)
                for _ in range(5):
                    beta_counts = random_beta_counts(rng, 4, c)
                    f = int(rng.integers(1, 9))
                    k = rng.integers(0, f + 1, size=c)
                    ll = state_log_predictive(k, f, *beta_counts, space)
                    sums = SceneSums(*beta_predictive_terms(k, f, *beta_counts), prior)
                    worst = max(worst, float(np.max(np.abs(
                        sums.log_evidence - logsumexp(ll, axis=1)))))
                    cases += 1
                    masks, log_mass = sums.map_states()
                    for m, best in enumerate(state_index(space, masks)):
                        worst = max(worst, abs(log_mass[m] - ll[m, best]
                                               + logsumexp(ll[m])))
                        top = np.sort(ll[m])[::-1]
                        if len(top) > 1 and top[0] - top[1] < 1e-9:
                            continue  # a near-tie is decided by rounding
                        assert best == int(np.argmax(ll[m]))
                        maps += 1
        assert cases >= 200 and maps >= 500
        assert worst <= 1e-10

    def test_map_ties_go_to_the_first_state_in_bit_order(self):
        # equal odds for every category: all states of one size tie
        prior = PriorConfig(count_bounds=(0, 4))
        space = StateSpace.build(prior, 6)
        for log_odds in (-3.0, 0.0, 3.0):
            sums = SceneSums(np.full((1, 6), log_odds), np.zeros((1, 6)), prior)
            scores = space.presence.sum(axis=1) * log_odds + space.log_prior
            assert state_index(space, sums.map_states()[0]) == [int(np.argmax(scores))]
        # even odds: a state of n objects scores lam^n / n! / C(C, n) exactly,
        # so counts can tie (lam = C ties the empty state with each single
        # object); the first best state in bit order must win
        for lam in (1, 2, 4):
            for c in range(1, 7):
                for lo in range(min(c, 2) + 1):
                    for hi in range(lo, c + 2):
                        prior = PriorConfig(poisson_lambda=lam, count_bounds=(lo, hi))
                        space = StateSpace.build(prior, c)
                        exact = [Fraction(lam ** len(w),
                                          math.factorial(len(w)) * math.comb(c, len(w)))
                                 for w in space.states]
                        sums = SceneSums(np.zeros((1, c)), np.zeros((1, c)), prior)
                        assert (state_index(space, sums.map_states()[0])
                                == [exact.index(max(exact))]), (lam, c, lo, hi)

    def test_draws_follow_the_exact_posterior(self):
        # 10 batches of 20000 particles with equal counts: 2e5 draws at C=6
        rng = np.random.default_rng(6)
        prior = PriorConfig(count_bounds=(0, 4))
        space = StateSpace.build(prior, 6)
        beta_counts = random_beta_counts(np.random.default_rng(60), 1, 6)
        k, f = np.array([0, 3, 5, 1, 4, 2]), 5
        exact = np.exp(state_log_predictive(k, f, *beta_counts, space)[0])
        exact /= exact.sum()
        many = [np.repeat(x, 20_000, axis=0) for x in beta_counts]
        sums = SceneSums(*beta_predictive_terms(k, f, *many), prior)
        freq = np.zeros(space.size)
        for _ in range(10):
            freq += np.bincount(state_index(space, sums.draw(rng)), minlength=space.size)
        tv = 0.5 * np.abs(freq / freq.sum() - exact).sum()
        assert tv < 0.01


class TestFilterAboveTheEnumerationLimit:
    """At C=16 the filter sums the states out. With at most 3 objects there
    are S=697 states, few enough for the test to enumerate."""

    PRIOR = PriorConfig(count_bounds=(0, 3))

    def test_weights_and_counts_match_enumeration(self):
        # resampling off: particle m keeps its index, so its counts are a
        # recount over the states it drew and each log-weight increment is
        # its enumerated predictive under its counts before the step
        c = 16
        space = StateSpace.build(self.PRIOR, c)
        assert space.size == 697
        worst = 0.0
        for i in range(3):
            run = synthesize_run(self.PRIOR, c, 40, np.random.default_rng(1600 + i))
            ens = init_ensemble(small_config(num_particles=20, seed=i), self.PRIOR, c)
            assert ens.space is None
            a, b = self.PRIOR.beta_alpha, self.PRIOR.beta_beta
            recount = [np.full((20, c), x) for x in (a, b, a, b)]
            stats = stack(run.observations, c)
            for t in range(len(stats)):
                s = stats[t]
                ll = state_log_predictive(s.counts, s.frame_count, ens.a_fa, ens.b_fa,
                                          ens.a_miss, ens.b_miss, space)
                before = ens.log_weights.copy()
                assimilate_observation(ens, s)
                worst = max(worst, float(np.max(np.abs(
                    ens.log_weights - before - logsumexp(ll, axis=1)))))
                k = s.counts.astype(float)
                rest = s.frame_count - k
                present, absent = ens.scenes, ~ens.scenes
                assert np.all(present.sum(axis=1) <= 3)
                recount = [recount[0] + absent * k, recount[1] + absent * rest,
                           recount[2] + present * rest, recount[3] + present * k]
            for name, total in zip(("a_fa", "b_fa", "a_miss", "b_miss"), recount):
                assert np.array_equal(getattr(ens, name), total), name
        assert worst <= 1e-10

    def test_online_readout_matches_the_enumerated_mixture(self):
        # the readout scores only the particles' own MAP states; the
        # mixture's argmax over all 697 states must almost always be one
        c = 16
        space = StateSpace.build(self.PRIOR, c)
        agree = total = 0
        for i in range(10):
            run = synthesize_run(self.PRIOR, c, 60, np.random.default_rng(1700 + i))
            ens = init_ensemble(ParticleFilterConfig(seed=i), self.PRIOR, c)
            stats = stack(run.observations, c)
            for t in range(len(stats)):
                s = stats[t]
                ll = state_log_predictive(s.counts, s.frame_count, ens.a_fa, ens.b_fa,
                                          ens.a_miss, ens.b_miss, space)
                evidence = logsumexp(ll, axis=1)
                w = np.exp(ens.log_weights + evidence - logsumexp(ens.log_weights + evidence))
                mixture = w @ np.exp(ll - evidence[:, None])
                assimilate_observation(ens, s)
                agree += online_map_world_state(ens, t) == space.states[int(np.argmax(mixture))]
                total += 1
        assert total >= 500
        assert agree >= 0.99 * total, f"{agree} of {total} readouts agree"

    def test_default_config_is_bitwise_deterministic(self):
        # C=16 is one past the enumeration limit under the default prior
        prior = PriorConfig()
        cfg = ParticleFilterConfig(seed=4)
        run = synthesize_run(prior, 16, 20, np.random.default_rng(16))
        a = run_filter(stack(run.observations, 16), cfg, prior, 16)
        b = run_filter(stack(run.observations, 16), cfg, prior, 16)
        assert a.map_states == b.map_states
        assert len(a.estimates) == len(b.estimates) == 20
        for ea, eb in zip(a.estimates, b.estimates):
            assert np.array_equal(ea.as_flat(), eb.as_flat())
        assert all(1 <= len(w) <= 5 for w in a.map_states)
