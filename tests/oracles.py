"""Independent reference implementations used as test oracles.

Everything here recomputes quantities from first principles (per-percept
products, explicit enumeration, direct factorials) without reusing the
package's vectorized code paths, so agreement is meaningful.
"""

import math
from itertools import combinations

import numpy as np
from scipy.special import betaln, gammaln, ndtr, ndtri, xlogy


def truncated_poisson_pmf_oracle(lam, lo, hi):
    """pmf over [lo, hi] via direct factorials."""
    raw = {n: math.exp(-lam) * lam ** n / math.factorial(n)
           for n in range(lo, hi + 1)}
    total = sum(raw.values())
    return {n: p / total for n, p in raw.items()}


def enumerate_states_oracle(num_categories, lo, hi):
    """All subsets with size in [lo, hi] sorted by presence bit-vector."""
    states = []
    for n in range(lo, min(hi, num_categories) + 1):
        states.extend(frozenset(c) for c in combinations(range(num_categories), n))

    def key(w):
        return tuple(1 if c in w else 0 for c in range(num_categories))

    return sorted(states, key=key)


def state_log_prior_oracle(world, lam, lo, hi, num_categories):
    pmf = truncated_poisson_pmf_oracle(lam, lo, hi)
    n = len(world)
    if n not in pmf:
        return -math.inf
    return math.log(pmf[n]) - math.log(math.comb(num_categories, n))


def percept_prob_oracle(percept, world, fa, miss):
    """P(percept | world, rates) as a plain per-category product."""
    p = 1.0
    for c in range(len(fa)):
        if c in world:
            p *= (1.0 - miss[c]) if c in percept else miss[c]
        else:
            p *= fa[c] if c in percept else (1.0 - fa[c])
    return p


def detection_counts_reference(observations, num_categories):
    """(counts, frame count) of each observation, one percept at a time."""
    out = []
    for observation in observations:
        counts = [0] * num_categories
        for percept in observation.percepts:
            for c in percept:
                counts[c] += 1
        out.append((counts, len(observation.percepts)))
    return out


def observation_loglik_oracle(percepts, world, fa, miss):
    """Sum of per-percept log probabilities (no sufficient statistics)."""
    total = 0.0
    for percept in percepts:
        p = percept_prob_oracle(percept, world, fa, miss)
        if p == 0.0:
            return -math.inf
        total += math.log(p)
    return total


def _logsumexp(values):
    peak = max(values)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(sum(math.exp(v - peak) for v in values))


def state_posterior_oracle(percepts, fa, miss, lam, lo, hi, num_categories):
    """Normalized posterior over the enumerated states, in oracle order."""
    states = enumerate_states_oracle(num_categories, lo, hi)
    logs = [observation_loglik_oracle(percepts, w, fa, miss)
            + state_log_prior_oracle(w, lam, lo, hi, num_categories)
            for w in states]
    norm = _logsumexp(logs)
    if norm == -math.inf:
        probs = [1.0 / len(states)] * len(states)
    else:
        probs = [math.exp(v - norm) for v in logs]
    return states, probs


def map_state_oracle(percepts, fa, miss, lam, lo, hi, num_categories):
    """Argmax of the state posterior; first state in bit order wins ties."""
    states, probs = state_posterior_oracle(percepts, fa, miss, lam, lo, hi,
                                           num_categories)
    best, best_p = states[0], probs[0]
    for w, p in zip(states[1:], probs[1:]):
        if p > best_p:
            best, best_p = w, p
    return best


def urn_loglik_oracle(percepts, world, a_fa, b_fa, a_miss, b_miss):
    """log p(percepts | world) with each rate integrated out under Beta counts.

    One Polya urn per rate, drawn frame by frame, with no Beta function: an
    absent category is reported with probability a_fa / (a_fa + b_fa), and
    the drawn ball goes back with a copy (a report adds 1 to a_fa, a
    rejection 1 to b_fa); a present category is missed with probability
    a_miss / (a_miss + b_miss) (a miss adds 1 to a_miss, a detection 1 to
    b_miss). The caller's counts are not changed.
    """
    a_fa, b_fa, a_miss, b_miss = (list(map(float, x)) for x in (a_fa, b_fa, a_miss, b_miss))
    total = 0.0
    for percept in percepts:
        for c in range(len(a_fa)):
            if c in world:
                if c in percept:
                    total += math.log(b_miss[c] / (a_miss[c] + b_miss[c]))
                    b_miss[c] += 1.0
                else:
                    total += math.log(a_miss[c] / (a_miss[c] + b_miss[c]))
                    a_miss[c] += 1.0
            elif c in percept:
                total += math.log(a_fa[c] / (a_fa[c] + b_fa[c]))
                a_fa[c] += 1.0
            else:
                total += math.log(b_fa[c] / (a_fa[c] + b_fa[c]))
                b_fa[c] += 1.0
    return total


def urn_predictive_oracle(percepts, beta_counts, lam, lo, hi, num_categories):
    """(states, posterior, log predictive) of one observation given Beta counts.

    ``beta_counts`` is (a_fa, b_fa, a_miss, b_miss). The predictive sums
    ``urn_loglik_oracle`` times the state prior over the enumerated states.
    """
    states = enumerate_states_oracle(num_categories, lo, hi)
    logs = [urn_loglik_oracle(percepts, w, *beta_counts)
            + state_log_prior_oracle(w, lam, lo, hi, num_categories)
            for w in states]
    norm = _logsumexp(logs)
    return states, [math.exp(v - norm) for v in logs], norm


def beta_counts_oracle(history, alpha, beta, num_categories):
    """(a_fa, b_fa, a_miss, b_miss) after (percepts, world) pairs, frame by frame."""
    a_fa, b_fa = [alpha] * num_categories, [beta] * num_categories
    a_miss, b_miss = [alpha] * num_categories, [beta] * num_categories
    for percepts, world in history:
        for percept in percepts:
            for c in range(num_categories):
                if c in world:
                    if c in percept:
                        b_miss[c] += 1
                    else:
                        a_miss[c] += 1
                elif c in percept:
                    a_fa[c] += 1
                else:
                    b_fa[c] += 1
    return a_fa, b_fa, a_miss, b_miss


def urn_path_oracle(percepts_seq, worlds, alpha, beta, lam, lo, hi, num_categories):
    """Per observation, (state posterior, log predictive) of one particle.

    The particle drew ``worlds[t]`` at observation t; observation t is
    scored under the Beta counts recounted from scratch over observations
    before t (``beta_counts_oracle``).
    """
    out = []
    for t, percepts in enumerate(percepts_seq):
        counts = beta_counts_oracle(zip(percepts_seq[:t], worlds[:t]), alpha, beta,
                                    num_categories)
        _, probs, log_predictive = urn_predictive_oracle(percepts, counts, lam, lo, hi,
                                                         num_categories)
        out.append((probs, log_predictive))
    return out


def sampled_map_reference(counts, frames, fa, miss, lam, lo, hi,
                          num_categories, num_samples, rng):
    """Sampling readout of the scene, one per observation.

    The readout of ``sampling_filter_reference`` with the rates pinned: for
    each observation draw ``num_samples`` scenes from the prior, weight each
    by the binomial likelihood of the per-category detection counts under
    the given rates, resample systematically and return the scene drawn
    most often (ties go to the first scene in bit order, category 0 most
    significant). ``counts`` is (N, C), ``frames`` (N,), ``fa`` and ``miss``
    broadcast to (N, C). Returns an (N, C) presence mask. The vote tallies
    all 2**C scenes, so this is meant for small C only.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n_obs = counts.shape[0]
    rest = np.asarray(frames, dtype=np.float64)[:, None] - counts
    fa = np.broadcast_to(np.asarray(fa, dtype=np.float64), counts.shape)
    miss = np.broadcast_to(np.asarray(miss, dtype=np.float64), counts.shape)

    # prior draws: a size, then a uniform subset of that size (the categories
    # ranked below it in a random permutation)
    pmf = truncated_poisson_pmf_oracle(lam, lo, hi)
    sizes = rng.choice(list(pmf.keys()), p=list(pmf.values()),
                       size=(n_obs, num_samples))
    ranks = np.argsort(np.argsort(
        rng.random((n_obs, num_samples, num_categories)), axis=2), axis=2)
    present = ranks < sizes[:, :, None]

    p_detect = np.where(present, 1.0 - miss[:, None, :], fa[:, None, :])
    loglik = (xlogy(counts[:, None, :], p_detect)
              + xlogy(rest[:, None, :], 1.0 - p_detect)).sum(axis=2)
    peak = loglik.max(axis=1, keepdims=True)
    weights = np.exp(loglik - np.where(np.isfinite(peak), peak, 0.0))
    total = weights.sum(axis=1, keepdims=True)
    weights = np.where(total > 0.0, weights / np.where(total > 0.0, total, 1.0),
                       1.0 / num_samples)

    # systematic resampling: position (i + u) / M goes to the first draw whose
    # cumulative weight reaches it, so draw j receives the positions that lie
    # in (cum[j-1], cum[j]]; only these copy counts matter to the vote
    u = rng.random(n_obs)[:, None]
    cum = np.cumsum(weights, axis=1)
    cum[:, -1] = 1.0
    reached = np.clip(np.floor(num_samples * cum - u) + 1.0, 0.0, num_samples)
    copies = np.diff(reached, axis=1, prepend=0.0)

    bits = 1 << np.arange(num_categories - 1, -1, -1)
    codes = present.astype(np.int64) @ bits
    rows = np.arange(n_obs)[:, None]
    tally = np.bincount((rows * (1 << num_categories) + codes).ravel(),
                        weights=copies.ravel(),
                        minlength=n_obs << num_categories)
    best = np.argmax(tally.reshape(n_obs, 1 << num_categories), axis=1)
    return (best[:, None] & bits) != 0


def synthesize_stats_fast(n_obs, num_categories, rng, alpha=2.0, beta=10.0,
                          lam=1.0, count_lo=1, count_hi=5, f_lo=5, f_hi=15):
    """Vectorized draws from the generative process, as sufficient statistics.

    Independent of the package's render path: detection counts come straight
    from binomial draws. Returns (present, counts, frames); rates are fresh
    per observation, which matches corpus-wide marginal statistics.
    """
    pmf = truncated_poisson_pmf_oracle(lam, count_lo, count_hi)
    ns = rng.choice(list(pmf.keys()), p=list(pmf.values()), size=n_obs)
    order = np.argsort(rng.random((n_obs, num_categories)), axis=1)
    present = np.zeros((n_obs, num_categories), dtype=bool)
    rows = np.arange(n_obs)
    for j in range(int(ns.max())):
        sel = ns > j
        present[rows[sel], order[sel, j]] = True
    fa = rng.beta(alpha, beta, size=(n_obs, num_categories))
    miss = rng.beta(alpha, beta, size=(n_obs, num_categories))
    frames = rng.integers(f_lo, f_hi + 1, size=n_obs)
    p_detect = np.where(present, 1.0 - miss, fa)
    counts = rng.binomial(frames[:, None], p_detect)
    return present, counts, frames


def synthesize_run_reference(prior, num_categories, world_state_count, rng,
                             run_id="run-00000", seed=None):
    """The corpus record of one run, synthesized one frame at a time.

    The per-frame synthesis that the package's batched one must match draw
    for draw: 2C Beta rates (false alarms, then misses), then per scene a
    freshly built truncated-Poisson CDF and its uniform, the category
    choice, the frame count, and F separate draws of C uniforms.
    """
    c = num_categories
    fa = rng.beta(prior.beta_alpha, prior.beta_beta, size=c)
    miss = rng.beta(prior.beta_alpha, prior.beta_beta, size=c)
    lam = prior.poisson_lambda
    (lo, hi), (f_lo, f_hi) = prior.count_bounds, prior.frames_bounds
    worlds, observations = [], []
    for _ in range(world_state_count):
        logp = np.array([n * math.log(lam) - math.lgamma(n + 1.0)
                         for n in range(lo, hi + 1)])
        w = np.exp(logp - logp.max())
        cdf = np.cumsum(w / w.sum())
        n = int(lo + np.minimum(np.searchsorted(cdf, rng.random(), side="right"), hi - lo))
        world = sorted(int(k) for k in rng.choice(c, size=n, replace=False))
        frames = int(rng.integers(f_lo, f_hi + 1))
        present = np.zeros(c, dtype=bool)
        present[world] = True
        p_detect = np.where(present, 1.0 - miss, fa)
        worlds.append(world)
        observations.append([np.nonzero(rng.random(c) < p_detect)[0].tolist()
                             for _ in range(frames)])
    return {"record": "run", "run_id": run_id, "seed": seed,
            "v_true": np.concatenate([fa, miss]).tolist(),
            "world_states": worlds, "observations": observations}


def sampling_filter_reference(observations, num_categories, rng, *, alpha=2.0, beta=10.0,
                              lam=1.0, lo=1, hi=5, num_particles=100, sigma=0.1,
                              ess_threshold=0.5, v_true=None):
    """The sampling particle filter that criteria 1-3's windows were calibrated on.

    ``observations`` is a sequence of (counts (C,), frame count) pairs. Each
    particle holds point rates drawn from Beta(alpha, beta). Per observation
    every particle draws a scene from the prior and is weighted by the
    binomial likelihood of the counts at it; the population is resampled
    systematically when the effective sample size falls below
    ``ess_threshold`` times the particle count; then one Metropolis-Hastings
    sweep visits the 2C rate entries in random order, each moved by a
    truncated-normal random walk on (0, 1) and accepted against the Beta
    prior and the likelihood of the whole history at the particle's stored
    scenes. The estimate is the weighted particle mean, and the scene
    readout the majority vote over the particles' scenes of that
    observation (ties go to the larger weight, then to the first scene in
    bit order).

    Every draw comes from ``rng`` in the order the filter makes it, so a
    generator seeded as the package seeds its filter reproduces that
    filter's trace. Returns a dict: ``initial_estimate`` and ``estimates``
    as (fa, miss) pairs, ``map_states`` as frozensets and, when ``v_true``
    (fa, miss) is given, ``initial_mse`` and ``mse`` as (combined, fa, miss).
    """
    c, m, eps = num_categories, num_particles, 1e-12

    def log_beta_density(x):
        return xlogy(alpha - 1.0, x) + xlogy(beta - 1.0, 1.0 - x) - betaln(alpha, beta)

    def log_mass_inside(mu):
        # log of the mass Normal(mu, sigma^2) puts on (0, 1)
        return np.log(ndtr((1.0 - mu) / sigma) - ndtr((0.0 - mu) / sigma))

    def weights_of(log_w):
        e = np.exp(log_w - log_w.max())
        return e / e.sum()

    ns = np.arange(lo, hi + 1, dtype=np.float64)
    log_d = ns * math.log(lam) - lam - gammaln(ns + 1.0)
    d = np.exp(log_d - log_d.max())
    size_cdf = np.cumsum(d / d.sum())

    fa = np.clip(rng.beta(alpha, beta, size=(m, c)), eps, 1.0 - eps)
    miss = np.clip(rng.beta(alpha, beta, size=(m, c)), eps, 1.0 - eps)
    log_w = np.zeros(m)
    scenes = np.zeros((m, 0, c), dtype=bool)
    counts, frames = [], []
    out = {"estimates": [], "map_states": []}

    def record(key):
        w = weights_of(log_w)
        estimate = (w @ fa, w @ miss)
        if key == "initial_estimate":
            out[key] = estimate
        else:
            out[key].append(estimate)
        if v_true is not None:
            fa_only = float(np.mean((v_true[0] - estimate[0]) ** 2))
            miss_only = float(np.mean((v_true[1] - estimate[1]) ** 2))
            mse = (0.5 * (fa_only + miss_only), fa_only, miss_only)
            if key == "initial_estimate":
                out["initial_mse"] = mse
            else:
                out.setdefault("mse", []).append(mse)
        return w

    record("initial_estimate")
    bits = 1 << np.arange(c - 1, -1, -1)  # category 0 most significant
    for k, f in observations:
        k = np.asarray(k, dtype=np.float64)
        counts.append(k)
        frames.append(float(f))
        # a prior scene per particle: its size, then the categories ranked
        # below that size in a uniform random order
        sizes = lo + np.minimum(np.searchsorted(size_cdf, rng.random(m), side="right"),
                                hi - lo)
        order = np.argsort(rng.random((m, c)), axis=1)
        present = np.argsort(order, axis=1) < sizes[:, None]
        p_detect = np.where(present, 1.0 - miss, fa)
        log_w = log_w + (xlogy(k, p_detect) + xlogy(f - k, 1.0 - p_detect)).sum(axis=-1)
        scenes = np.concatenate([scenes, present[:, None, :]], axis=1)

        w = weights_of(log_w)
        if 1.0 / np.sum(w * w) < ess_threshold * m:
            positions = (np.arange(m) + rng.random()) / m
            cum = np.cumsum(w)
            cum[-1] = 1.0
            idx = np.minimum(np.searchsorted(cum, positions, side="left"), m - 1)
            fa, miss, scenes = fa[idx], miss[idx], scenes[idx]
            log_w = np.zeros(m)

        kc_all = np.array(counts)
        rc_all = np.array(frames)[:, None] - kc_all
        for entry in rng.permutation(2 * c):
            is_fa, cat = entry < c, int(entry % c)
            rates = fa if is_fa else miss
            value = rates[:, cat].copy()
            # inverse-CDF draw from the walk truncated to (0, 1)
            low, high = ndtr((0.0 - value) / sigma), ndtr((1.0 - value) / sigma)
            proposal = value + sigma * ndtri(low + (high - low) * rng.random(m))
            proposal = np.clip(proposal, eps, 1.0 - eps)
            v_in = np.clip(value, eps, 1.0 - eps)
            log_hit = np.log(proposal) - np.log(v_in)
            log_rej = np.log1p(-proposal) - np.log1p(-v_in)
            # the entry sets the detection probability of the observations
            # whose stored scene lacks (fa) or holds (miss) the category
            kc, rc = kc_all[:, cat], rc_all[:, cat]
            if is_fa:
                delta = log_hit[:, None] * kc + log_rej[:, None] * rc
                touched = ~scenes[:, :, cat]
            else:
                delta = log_rej[:, None] * kc + log_hit[:, None] * rc
                touched = scenes[:, :, cat]
            d_lik = np.where(touched, delta, 0.0).sum(axis=1)
            log_alpha = (d_lik + (log_beta_density(proposal) - log_beta_density(value))
                         + (log_mass_inside(value) - log_mass_inside(proposal)))
            accept = np.log(rng.random(m)) < log_alpha
            rates[accept, cat] = proposal[accept]

        w = record("estimates")
        codes = scenes[:, -1, :].astype(np.int64) @ bits
        best = max(np.unique(codes), key=lambda code: (
            int((codes == code).sum()), float(w[codes == code].sum()), -int(code)))
        out["map_states"].append(frozenset(j for j in range(c) if best & bits[j]))
    return out
