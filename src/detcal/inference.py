"""Sequential Monte Carlo joint inference over error rates and world states.

The filter is particle learning (Storvik 2002; Carvalho, Johannes, Lopes &
Polson 2010). Each particle carries the conjugate Beta counts of its 2C
rates, so the rates are integrated out. Per observation a particle is
weighted by the exact one-step predictive, summed over every valid world
state; the online MAP is read from the weighted mixture of the particles'
state posteriors; the population is resampled systematically when the
effective sample size drops; and each particle draws its state exactly
from its own posterior and adds that state's detection counts to its Beta
counts. No observation history is kept.

Only the sum over states differs with the category count. Up to
ENUMERATION_LIMIT categories every state is enumerated, at O(M*S*C) per
step. Above it the predictive, given a particle's counts, factors over
categories into odds o_j = L1_j / L0_j, so the states are summed out with
elementary symmetric polynomials e_n(o) (Chen, Dempster & Liu 1994) at
O(M*C*hi) per step; the online MAP is then the best of the particles' own
MAP states under the mixture. The retrospective readout uses these sums at
every count, so only this filter and ``rejuvenate`` enumerate states.

``rejuvenate`` runs one Metropolis sweep, a reflected Gaussian random walk,
over a single particle's point rates against its full observation history,
with the states summed out by enumeration. ``ParticleEnsemble.particle``
materializes a per-particle view for inspection.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DetectionStats,
    MetaEstimate,
    PriorConfig,
    StateSpace,
    VisualSystem,
    WorldState,
    beta_log_density,
    beta_predictive_terms,
    category_sets,
    count_log_prior,
    logsumexp,
    pinned_terms,
    state_log_joint,
    state_log_predictive,
)

logger = logging.getLogger(__name__)

_INTERIOR_EPS = 1e-12

# Most categories whose states the filter enumerates; above it they are
# summed out with elementary symmetric polynomials.
ENUMERATION_LIMIT = 15


@dataclass(frozen=True)
class ParticleFilterConfig:
    """Knobs of the filter; defaults match the reference experiment setup.

    ``proposal_sigma`` is the random-walk scale of ``rejuvenate``.
    """

    num_particles: int = 100
    proposal_sigma: float = 0.1
    ess_resample_threshold: float = 0.5
    seed: int | None = None

    def __post_init__(self):
        if self.num_particles < 2:
            raise ValueError("num_particles must be >= 2")
        if self.proposal_sigma <= 0:
            raise ValueError("proposal_sigma must be positive")
        if not (0.0 < self.ess_resample_threshold <= 1.0):
            raise ValueError("ess_resample_threshold must be in (0, 1]")


@dataclass
class Particle:
    """Read-only view of one hypothesis: rates, state beliefs, weight.

    The filter's particles hold posterior-mean rates and, up to
    ENUMERATION_LIMIT categories, the latest observation's state posterior.
    ``rejuvenate`` returns one state posterior per observation.
    """

    v_hat: MetaEstimate
    world_beliefs: list
    log_weight: float


@dataclass
class PosteriorTrace:
    """Per-observation readouts of one filter run."""

    estimates: list = field(default_factory=list)
    map_states: list = field(default_factory=list)
    initial_estimate: MetaEstimate | None = None

    @property
    def final_estimate(self) -> MetaEstimate:
        return self.estimates[-1] if self.estimates else self.initial_estimate


def _softmax_rows(ll: np.ndarray) -> np.ndarray:
    """Row-normalized exp(ll) along the last axis; all -inf rows go uniform."""
    peak = ll.max(axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    e = np.exp(ll - peak)
    total = e.sum(axis=-1, keepdims=True)
    uniform = 1.0 / ll.shape[-1]
    return np.where(total > 0.0, e / np.where(total > 0.0, total, 1.0), uniform)


def _effective_sample_size(weights: np.ndarray) -> float:
    """1 / sum(w^2) of normalized weights."""
    return float(1.0 / np.sum(weights * weights))


def _inverse_cdf(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index per row of ``probs``; an entry of zero mass is never drawn."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0]) * cum[:, -1]
    return np.sum(cum <= u[:, None], axis=1)


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ancestor indices from one stratified uniform sweep over the CDF."""
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.shape[0]
    positions = (np.arange(m) + rng.random()) / m
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against rounding shortfall
    return np.minimum(np.searchsorted(cum, positions, side="left"), m - 1)


class ParticleEnsemble:
    """Particle population, stored as struct-of-arrays.

    Per particle: Beta counts ``a_fa`` (hits), ``b_fa`` (rejections),
    ``a_miss`` (misses) and ``b_miss`` (detections), all (M, C); the states
    last drawn, ``scenes`` (M, C) presence masks; and, while the states are
    enumerated (``space`` is not None), the latest observation's state
    posteriors ``beliefs`` (M, S) over ``space.states``.
    """

    def __init__(self, config: ParticleFilterConfig, prior: PriorConfig,
                 num_categories: int, rng: np.random.Generator):
        if num_categories < 1:
            raise ValueError("num_categories must be >= 1")
        lo, hi = prior.count_bounds
        if hi > num_categories:
            raise ValueError(
                f"count upper bound {hi} exceeds the {num_categories} available categories")
        self.config = config
        self.prior = prior
        self.num_categories = num_categories
        self.rng = rng
        self.space = (StateSpace.build(prior, num_categories)
                      if num_categories <= ENUMERATION_LIMIT else None)

        m = config.num_particles
        self.log_weights = np.zeros(m)
        self.estimate_used_weights = False
        self.num_observations = 0
        shape = (m, num_categories)
        self.a_fa = np.full(shape, float(prior.beta_alpha))
        self.b_fa = np.full(shape, float(prior.beta_beta))
        self.a_miss = np.full(shape, float(prior.beta_alpha))
        self.b_miss = np.full(shape, float(prior.beta_beta))
        self.beliefs = None
        self.scenes = None
        self._maps: list = []   # online MAP state per observation

    # -- bookkeeping ------------------------------------------------------

    @property
    def num_particles(self) -> int:
        return self.log_weights.shape[0]

    def rates(self):
        """Per-particle posterior-mean (fa, miss), (M, C) each."""
        return (self.a_fa / (self.a_fa + self.b_fa),
                self.a_miss / (self.a_miss + self.b_miss))

    @property
    def weights(self) -> np.ndarray:
        """Normalized particle weights."""
        return _softmax_rows(self.log_weights[None, :])[0]

    def particle(self, m: int) -> Particle:
        """Materialize particle m (copies; edits do not write back)."""
        fa, miss = self.rates()
        beliefs = [] if self.beliefs is None else [self.beliefs[m].copy()]
        return Particle(v_hat=VisualSystem(fa=fa[m].copy(), miss=miss[m].copy()),
                        world_beliefs=beliefs, log_weight=float(self.log_weights[m]))

    def _reorder(self, idx: np.ndarray):
        self.a_fa, self.b_fa = self.a_fa[idx], self.b_fa[idx]
        self.a_miss, self.b_miss = self.a_miss[idx], self.b_miss[idx]
        if self.beliefs is not None:
            self.beliefs = self.beliefs[idx]
        self.log_weights = np.zeros(self.num_particles)


def init_ensemble(config: ParticleFilterConfig, prior: PriorConfig,
                  num_categories: int,
                  rng: np.random.Generator | None = None) -> ParticleEnsemble:
    """Fresh ensemble at the Beta prior's counts, uniform weights."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return ParticleEnsemble(config, prior, num_categories, rng)


# ---------------------------------------------------------------------------
# States summed out by elementary symmetric polynomials
# ---------------------------------------------------------------------------

class SceneSums:
    """Each row's state posterior, summed over states without enumerating.

    Given a row's terms (a particle's Beta counts or an observation's pinned
    rates) the joint of a state w is prod_{j in w} L1_j * prod_{j not in w}
    L0_j * d(n) / C(C, n), with n = |w| and d the object-count prior. With
    odds o_j = L1_j / L0_j it is prod_j L0_j * d(n) / C(C, n) * prod_{j in w}
    o_j, so the joint sums to prod_j L0_j * sum_n d(n) / C(C, n) * e_n(o),
    where e_n is the n-th elementary symmetric polynomial of the odds (a
    conditional-Bernoulli model; Chen, Dempster & Liu 1994). ``table[:, j, n]``
    holds log e_n of the first j odds, from the recursion
    E[j, n] = logaddexp(E[j-1, n], log o_j + E[j-1, n-1]). Rates of 0 or 1
    can zero L1_j (o_j = 0) or L0_j, which ``forced`` j present: it is left
    out of the sums and takes one of the n objects.
    """

    def __init__(self, pres_term, abs_term, prior: PriorConfig):
        m, c = pres_term.shape
        self.lo, self.hi = prior.count_bounds[0], min(prior.count_bounds[1], c)
        self.forced = np.isneginf(abs_term)
        self.log_odds = pres_term - np.where(self.forced, np.inf, abs_term)
        self.log_size = count_log_prior(prior, c)     # (hi - lo + 1,)
        table = np.full((m, c + 1, self.hi + 1), -np.inf)
        table[:, :, 0] = 0.0
        for j in range(1, c + 1):
            table[:, j, 1:] = np.logaddexp(table[:, j - 1, 1:],
                                           self.log_odds[:, j - 1, None] + table[:, j - 1, :-1])
        self.table = table
        # log [d(n) / C(C, n) * e_{n-p}(o)] per row and object count n
        self.log_by_size = self.log_size + self._by_size(table[:, c])
        self.log_norm = logsumexp(self.log_by_size, axis=1)
        self.log_evidence = self.log_norm + np.where(self.forced, pres_term, abs_term).sum(1)

    def _by_size(self, values: np.ndarray) -> np.ndarray:
        """values[m, n - p] for n = lo..hi and p forced in row m; -inf for n < p."""
        free = np.arange(self.lo, self.hi + 1) - self.forced.sum(axis=1)[:, None]
        return np.where(free < 0, -np.inf, np.take_along_axis(values, np.maximum(free, 0), 1))

    def reorder(self, idx: np.ndarray) -> None:
        """Follow a resample: row m now holds ancestor idx[m]'s sums."""
        for name in ("forced", "log_odds", "table", "log_by_size", "log_norm", "log_evidence"):
            setattr(self, name, getattr(self, name)[idx])

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """(M, C) presence masks, one exact posterior draw per particle.

        Draws the object count n, then walks the categories backward: with r
        objects left among the first j categories, category j is present
        with probability o_j * e_{r-1}(o_1..o_{j-1}) / e_r(o_1..o_j).
        """
        m, c = self.log_odds.shape
        left = self.lo + _inverse_cdf(_softmax_rows(self.log_by_size), rng)
        u = rng.random((m, c))
        rows = np.arange(m)
        present = np.zeros((m, c), dtype=bool)
        for j in range(c, 0, -1):
            r = np.maximum(left, 1)
            p_take = np.exp(self.log_odds[:, j - 1] + self.table[rows, j - 1, r - 1]
                            - self.table[rows, j, r])
            take = (left > 0) & (u[:, j - 1] < p_take)
            present[:, j - 1] = take
            left = left - take
        return present

    def map_states(self):
        """(M, C) masks of each row's most probable state, and (M,) log masses.

        For each count n the best state holds the forced categories and the
        largest other odds; among equal odds the later category wins, and
        among equal scores the smaller count, so ties go to the first state
        in bit order. A row no state explains gets the first state, mass 1/S.
        """
        m, c = self.log_odds.shape
        order = c - 1 - np.argsort(-self.log_odds[:, ::-1], axis=1, kind="stable")
        top = np.take_along_axis(self.log_odds, order, axis=1)
        prefix = np.concatenate([np.zeros((m, 1)), np.cumsum(top, axis=1)], axis=1)
        scores = self.log_size + self._by_size(prefix)
        free = self.lo + np.argmax(scores, axis=1) - self.forced.sum(axis=1)
        present = self.forced | (np.argsort(order, axis=1) < free[:, None])
        stuck = np.isneginf(self.log_evidence)
        present[stuck] = np.arange(c) >= c - self.lo
        size = sum(math.comb(c, n) for n in range(self.lo, self.hi + 1))
        return present, np.subtract(scores.max(axis=1), self.log_norm,
                                    out=np.full(m, -math.log(size)), where=~stuck)

    def log_posterior(self, present: np.ndarray) -> np.ndarray:
        """(K, M) log posterior of each of K states (presence masks) per particle."""
        n = present.sum(axis=1)
        return (present @ self.log_odds.T + self.log_size[n - self.lo][:, None]
                - self.log_norm)


# ---------------------------------------------------------------------------
# Rejuvenation
# ---------------------------------------------------------------------------

def _history_posteriors(fa, miss, counts, frames, space: StateSpace) -> np.ndarray:
    """(n, T, S) state posteriors of every observation under each row's rates."""
    return _softmax_rows(state_log_joint(counts, frames, fa[:, None, :],
                                         miss[:, None, :], space))


def _refresh_posteriors(post, q_present, space: StateSpace, idx, fa, miss,
                        counts, frames) -> None:
    """Recompute the conditionals of the particles whose entry just moved,
    from the observation history (counts, frames) under the moved rates."""
    post[idx] = _history_posteriors(fa[idx], miss[idx], counts, frames, space)
    q_present[idx] = post[idx] @ space.presence


def _reflect_into_unit(x):
    """x folded into (0, 1) by reflection at both ends, then kept
    ``_INTERIOR_EPS`` off them so the logs of a rate stay finite."""
    y = np.abs(x) % 2.0
    return np.clip(np.minimum(y, 2.0 - y), _INTERIOR_EPS, 1.0 - _INTERIOR_EPS)


def _rejuvenation_sweep(fa, miss, post, counts, frames, space: StateSpace,
                        prior: PriorConfig, sigma: float,
                        rng: np.random.Generator) -> None:
    """One randomized Metropolis pass over all 2C rate entries.

    Operates on the arrays in place, vectorized across particles. Each entry
    proposes a Gaussian step of scale ``sigma`` reflected into (0, 1); the
    reflected walk is symmetric, so the acceptance ratio is prior times
    likelihood with no Hastings term. Per observation the entry's
    likelihood ratio is log(q * exp(delta) + 1 - q), where q is the mass the
    conditionals ``post`` put on the states the entry touches, so the target
    is the full-history marginal (states summed out); accepted moves
    recompute ``post``.
    """
    m, c = fa.shape
    a, b = prior.beta_alpha, prior.beta_beta
    q_present = post @ space.presence  # (M, T, C)

    for entry in rng.permutation(2 * c):
        is_fa = entry < c
        cat = int(entry % c)
        value = fa[:, cat].copy() if is_fa else miss[:, cat].copy()
        proposal = _reflect_into_unit(value + sigma * rng.standard_normal(m))
        kc = counts[:, cat]
        rc = frames - kc
        # Per-observation log-likelihood shift of the touched states if the
        # entry moved from `value` to `proposal`: k*log(p'/p) plus
        # (F-k)*log((1-p')/(1-p)), where p is the detection probability the
        # entry controls. A false-alarm entry sets it for states lacking the
        # category (p = fa); a miss entry for states containing it
        # (p = 1 - miss). Values are nudged off exact 0/1 so the logs stay
        # finite for hand-built degenerate systems.
        v_in = np.clip(value, _INTERIOR_EPS, 1.0 - _INTERIOR_EPS)
        log_hit = np.log(proposal) - np.log(v_in)
        log_rej = np.log1p(-proposal) - np.log1p(-v_in)
        if is_fa:
            delta = log_hit[:, None] * kc + log_rej[:, None] * rc
        else:
            delta = log_rej[:, None] * kc + log_hit[:, None] * rc

        q = q_present[:, :, cat]
        if is_fa:
            q = 1.0 - q
        q = np.clip(q, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            per_obs = np.logaddexp(np.log(q) + delta, np.log1p(-q))
        d_lik = per_obs.sum(axis=1)

        d_prior = beta_log_density(proposal, a, b) - beta_log_density(value, a, b)
        log_alpha = d_lik + d_prior
        accept = np.log(rng.random(m)) < log_alpha
        if not accept.any():
            continue
        idx = np.nonzero(accept)[0]
        if is_fa:
            fa[idx, cat] = proposal[idx]
        else:
            miss[idx, cat] = proposal[idx]
        _refresh_posteriors(post, q_present, space, idx, fa, miss, counts, frames)


def rejuvenate(particle: Particle, history: DetectionStats, config: ParticleFilterConfig,
               prior: PriorConfig, rng: np.random.Generator) -> Particle:
    """One rejuvenation sweep on a single particle; returns the moved particle.

    ``history`` is the stack of the observations the particle has absorbed.
    Useful on its own for running plain MCMC chains over the rates.
    """
    if not len(history):
        raise ValueError("rejuvenation needs a nonempty observation history")
    space = StateSpace.build(prior, particle.v_hat.num_categories)
    fa = particle.v_hat.fa[None, :].copy()
    miss = particle.v_hat.miss[None, :].copy()
    counts = history.counts.astype(np.float64)
    frames = history.frame_count.astype(np.float64)
    post = _history_posteriors(fa, miss, counts, frames, space)
    _rejuvenation_sweep(fa, miss, post, counts, frames, space, prior,
                        config.proposal_sigma, rng)
    return Particle(v_hat=VisualSystem(fa=fa[0], miss=miss[0]),
                    world_beliefs=[post[0, t].copy() for t in range(len(history))],
                    log_weight=particle.log_weight)


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def assimilate_observation(ensemble: ParticleEnsemble,
                           stats: DetectionStats) -> ParticleEnsemble:
    """Absorb one observation, a T = 1 stack: weight, read out, maybe
    resample, then draw.

    Each particle's weight is multiplied by its exact one-step predictive
    summed over all valid world states, the online MAP is read from the
    weighted mixture of the particles' state posteriors, and after
    resampling each particle draws its state from its own posterior and
    adds that state's counts.
    """
    if stats.counts.shape != (1, ensemble.num_categories):
        raise ValueError("expected one observation of the ensemble's category count")
    ensemble.num_observations += 1
    _learning_step(ensemble, stats.counts[0].astype(np.float64), stats.frame_count[0])
    return ensemble


def _learning_step(ens: ParticleEnsemble, counts: np.ndarray, frames) -> None:
    """Weight, read out, maybe resample, then draw each particle's state,
    for one observation's ``counts`` (C,) of ``frames`` frames."""
    rest = frames - counts
    if ens.space is not None:
        space = ens.space
        ll = state_log_predictive(counts, frames, ens.a_fa, ens.b_fa,
                                  ens.a_miss, ens.b_miss, space)
        ens.log_weights += logsumexp(ll, axis=1)
        weights = ens.weights
        ens.beliefs = _softmax_rows(ll)
        ens._maps.append(space.states[int(np.argmax(weights @ ens.beliefs))])
        _resample_if_degenerate(ens, weights)
        present = space.presence[_inverse_cdf(ens.beliefs, ens.rng)] > 0.0
    else:
        sums = SceneSums(*beta_predictive_terms(counts, frames, ens.a_fa,
                                                ens.b_fa, ens.a_miss, ens.b_miss), ens.prior)
        ens.log_weights += sums.log_evidence
        weights = ens.weights
        # the mixture's best among the particles' own MAP states, in bit order
        candidates = np.unique(sums.map_states()[0], axis=0)
        mixture = np.exp(sums.log_posterior(candidates)) @ weights
        best = candidates[int(np.argmax(mixture))]
        ens._maps.append(category_sets(best[None])[0])
        idx = _resample_if_degenerate(ens, weights)
        if idx is not None:
            sums.reorder(idx)
        present = sums.draw(ens.rng)
    ens.scenes = present
    absent = ~present
    ens.a_fa += absent * counts
    ens.b_fa += absent * rest
    ens.a_miss += present * rest
    ens.b_miss += present * counts


def _resample_if_degenerate(ensemble: ParticleEnsemble,
                            weights: np.ndarray) -> np.ndarray | None:
    """Resample when the ESS of ``weights``, the ensemble's normalized
    weights, is low; returns the ancestor indices, if any."""
    threshold = ensemble.config.ess_resample_threshold * ensemble.num_particles
    if _effective_sample_size(weights) >= threshold:
        return None
    idx = systematic_resample(weights, ensemble.rng)
    ensemble._reorder(idx)
    return idx


def estimate_v(ensemble: ParticleEnsemble) -> MetaEstimate:
    """Weight-averaged rate estimate; flags when weights were non-uniform.

    Averages the posterior means of the particles' Beta counts. After a
    resample the weights are uniform and this is the plain particle mean.
    If called between resamples the weighted mean is used instead and
    ``ensemble.estimate_used_weights`` is set.
    """
    if ensemble.num_particles == 0:
        raise ValueError("cannot estimate from an empty ensemble")
    w = ensemble.weights
    uniform = bool(np.ptp(ensemble.log_weights) < 1e-12)
    ensemble.estimate_used_weights = not uniform
    if not uniform and logger.isEnabledFor(logging.DEBUG):
        logger.debug("estimate_v on non-uniform weights (ESS %.1f of %d)",
                     _effective_sample_size(w), ensemble.num_particles)
    fa, miss = ensemble.rates()
    return VisualSystem(fa=w @ fa, miss=w @ miss)


def online_map_world_state(ensemble: ParticleEnsemble, t: int) -> WorldState:
    """Point estimate of world state t, read when observation t was assimilated.

    It is the argmax of the weight-averaged state posteriors before
    resampling: over every state while the states are enumerated, over the
    particles' own MAP states above ENUMERATION_LIMIT categories. Ties go
    to the first state in bit order.
    """
    if not 0 <= t < ensemble.num_observations:
        raise IndexError(f"observation {t} not assimilated yet")
    return ensemble._maps[t]


def run_filter(stats: DetectionStats, config: ParticleFilterConfig, prior: PriorConfig,
               num_categories: int, *,
               rng: np.random.Generator | None = None) -> PosteriorTrace:
    """Drive the filter over a run's (T, C) stack, row by row, and collect readouts."""
    ensemble = init_ensemble(config, prior, num_categories, rng=rng)
    trace = PosteriorTrace()
    trace.initial_estimate = estimate_v(ensemble)
    for t in range(len(stats)):
        assimilate_observation(ensemble, stats[t])
        trace.estimates.append(estimate_v(ensemble))
        trace.map_states.append(online_map_world_state(ensemble, t))
    return trace


# ---------------------------------------------------------------------------
# Retrospective re-inference
# ---------------------------------------------------------------------------

def retrospective_map_with_mass(v_mu: MetaEstimate, stats: DetectionStats,
                                prior: PriorConfig):
    """Exact MAP state of each row of the (T, C) stack under a fixed rate estimate.

    With the rates pinned the states decouple across observations, and
    ``SceneSums`` reads them all out at once. Returns (state, its posterior
    mass) pairs. Bit order breaks ties between bit-identical log odds, as
    under equal rates; ties exact only in real arithmetic, such as one
    across object counts at lambda=1, fall to rounding, as under enumeration.
    """
    terms = pinned_terms(stats.counts, stats.frame_count, v_mu.fa, v_mu.miss)
    present, log_mass = SceneSums(*terms, prior).map_states()
    return [(w, float(np.exp(lm))) for w, lm in zip(category_sets(present), log_mass)]


def retrospective_infer(v_mu: MetaEstimate, stats: DetectionStats,
                        prior: PriorConfig) -> list:
    """MAP world states under a fixed rate estimate (see map_with_mass)."""
    return [state for state, _ in retrospective_map_with_mass(v_mu, stats, prior)]
