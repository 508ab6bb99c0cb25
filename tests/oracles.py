"""Independent reference implementations used as test oracles.

Everything here recomputes quantities from first principles (per-percept
products, explicit enumeration, direct factorials) without reusing the
package's vectorized code paths, so agreement is meaningful.
"""

import math
from itertools import combinations

import numpy as np
from scipy.special import xlogy


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

    The readout of the filter's sampling regime with the rates pinned: for
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
