"""Sequential Monte Carlo joint inference over error rates and world states.

Each particle carries a candidate error-rate matrix (the meta-estimate).
World states are handled per observation: for small category counts every
valid state is enumerated, the state is marginalized out of the weight
update exactly, and the particle keeps the full conditional state
distribution (a Rao-Blackwellized filter). Beyond ``enumeration_limit``
categories the filter falls back to sampling states from the prior.

Particle degeneracy is fought two ways: systematic resampling when the
effective sample size drops, and Metropolis-Hastings rejuvenation sweeps
that perturb each rate entry with a truncated-normal random walk against
the full observation history. Internally the population is stored as
struct-of-arrays; ``ParticleEnsemble.particle`` materializes a per-particle
view for inspection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .core import (
    DetectionStats,
    MetaEstimate,
    Observation,
    PriorConfig,
    StateSpace,
    VisualSystem,
    WorldState,
    beta_log_density,
    beta_sample,
    state_log_joint,
    state_log_likelihood,
    truncated_normal_log_normalizer,
    truncated_normal_sample,
    truncated_poisson_sample,
)

logger = logging.getLogger(__name__)

_INTERIOR_EPS = 1e-12


@dataclass(frozen=True)
class ParticleFilterConfig:
    """Knobs of the filter; defaults match the reference experiment setup."""

    num_particles: int = 100
    proposal_sigma: float = 0.1
    rejuvenation_sweeps_per_observation: int = 1
    ess_resample_threshold: float = 0.5
    enumeration_limit: int = 15
    seed: int | None = None

    def __post_init__(self):
        if self.num_particles < 2:
            raise ValueError("num_particles must be >= 2")
        if self.proposal_sigma <= 0:
            raise ValueError("proposal_sigma must be positive")
        # 0 sweeps turns rejuvenation off; useful for weight-only diagnostics.
        if self.rejuvenation_sweeps_per_observation < 0:
            raise ValueError("rejuvenation_sweeps_per_observation must be >= 0")
        if not (0.0 < self.ess_resample_threshold <= 1.0):
            raise ValueError("ess_resample_threshold must be in (0, 1]")
        if self.enumeration_limit < 0:
            raise ValueError("enumeration_limit must be >= 0")


@dataclass
class Particle:
    """Read-only view of one hypothesis: rates, state beliefs, weight."""

    v_hat: MetaEstimate
    world_beliefs: list
    log_weight: float


@dataclass
class PosteriorTrace:
    """Per-observation readouts of one filter run."""

    estimates: list = field(default_factory=list)
    map_states: list = field(default_factory=list)
    mse: list | None = None        # (combined, fa_only, miss_only) per step
    initial_estimate: MetaEstimate | None = None
    initial_mse: tuple | None = None

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


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ancestor indices from one stratified uniform sweep over the CDF."""
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.shape[0]
    positions = (np.arange(m) + rng.random()) / m
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against rounding shortfall
    return np.minimum(np.searchsorted(cum, positions, side="left"), m - 1)


class ParticleEnsemble:
    """Particle population plus the cached per-observation state posteriors."""

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
        self.enumerated = num_categories <= config.enumeration_limit
        self.space = StateSpace.build(prior, num_categories) if self.enumerated else None

        m = config.num_particles
        self.fa = np.clip(
            beta_sample(prior.beta_alpha, prior.beta_beta, rng, size=(m, num_categories)),
            _INTERIOR_EPS, 1.0 - _INTERIOR_EPS)
        self.miss = np.clip(
            beta_sample(prior.beta_alpha, prior.beta_beta, rng, size=(m, num_categories)),
            _INTERIOR_EPS, 1.0 - _INTERIOR_EPS)
        self.log_weights = np.zeros(m)
        self.estimate_used_weights = False

        self._counts: list = []   # (C,) int per observation
        self._frames: list = []
        size = self.space.size if self.enumerated else 0
        self._post = np.zeros((m, 0, size))    # conditional state posteriors
        self._world_samples = np.zeros((m, 0, num_categories), dtype=bool)

    # -- bookkeeping ------------------------------------------------------

    @property
    def num_particles(self) -> int:
        return self.fa.shape[0]

    @property
    def num_observations(self) -> int:
        return len(self._frames)

    @property
    def weights(self) -> np.ndarray:
        """Normalized particle weights."""
        return _softmax_rows(self.log_weights[None, :])[0]

    @property
    def effective_sample_size(self) -> float:
        w = self.weights
        return float(1.0 / np.sum(w * w))

    def particle(self, m: int) -> Particle:
        """Materialize particle m (copies; edits do not write back)."""
        v_hat = VisualSystem(fa=self.fa[m].copy(), miss=self.miss[m].copy())
        if self.enumerated:
            beliefs = [self._post[m, t].copy() for t in range(self.num_observations)]
        else:
            beliefs = [frozenset(np.nonzero(self._world_samples[m, t])[0].tolist())
                       for t in range(self.num_observations)]
        return Particle(v_hat=v_hat, world_beliefs=beliefs,
                        log_weight=float(self.log_weights[m]))

    def _count_matrix(self):
        return (np.array(self._counts, dtype=np.float64),
                np.array(self._frames, dtype=np.float64))

    def _reorder(self, idx: np.ndarray):
        self.fa = self.fa[idx].copy()
        self.miss = self.miss[idx].copy()
        if self.enumerated:
            self._post = self._post[idx].copy()
        else:
            self._world_samples = self._world_samples[idx].copy()
        self.log_weights = np.zeros(self.num_particles)


def init_ensemble(config: ParticleFilterConfig, prior: PriorConfig,
                  num_categories: int,
                  rng: np.random.Generator | None = None) -> ParticleEnsemble:
    """Fresh ensemble: rates drawn from the Beta prior, uniform weights."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return ParticleEnsemble(config, prior, num_categories, rng)


# ---------------------------------------------------------------------------
# Sampling regime
# ---------------------------------------------------------------------------

def _sample_prior_worlds(prior: PriorConfig, num_categories: int, m: int,
                         rng: np.random.Generator) -> np.ndarray:
    """(m, C) presence masks drawn from the world-state prior."""
    lo, hi = prior.count_bounds
    ns = truncated_poisson_sample(prior.poisson_lambda, lo, hi, rng, size=m)
    order = np.argsort(rng.random((m, num_categories)), axis=1)
    presence = np.zeros((m, num_categories), dtype=bool)
    rows = np.arange(m)
    for j in range(int(ns.max())):
        sel = ns > j
        presence[rows[sel], order[sel, j]] = True
    return presence


# ---------------------------------------------------------------------------
# Rejuvenation
# ---------------------------------------------------------------------------

def _refresh_posteriors(post, q_present, space: StateSpace, idx, delta, per_obs,
                        mask, fa, miss, counts, frames) -> None:
    """Update cached conditionals for particles whose entry just moved.

    The accepted move rescales the touched states by exp(delta) and the
    normalizer by exp(per_obs), so the posterior update is multiplicative;
    rows where that under/overflows are recomputed from the observation
    history (counts, frames) under the moved rates.
    """
    scale = np.exp(delta[idx])      # (n, T)
    norm = np.exp(per_obs[idx])
    good = np.all(np.isfinite(scale), axis=1) & np.all(norm > 0.0, axis=1) \
        & np.all(np.isfinite(norm), axis=1)
    if good.any():
        rows = idx[good]
        factor = np.where(mask > 0.0, scale[good][:, :, None], 1.0)
        # exp(per_obs) is exactly the normalizer of the rescaled row, so no
        # renormalization pass is needed (per-update drift is ~1e-16).
        post[rows] = post[rows] * factor / norm[good][:, :, None]
    if not good.all():
        rows = idx[~good]
        post[rows] = _softmax_rows(state_log_joint(
            counts, frames, fa[rows, None, :], miss[rows, None, :], space))
    q_present[idx] = post[idx] @ space.presence


def _rejuvenation_sweep(fa, miss, post, world_samples, counts, frames,
                        space: StateSpace | None, prior: PriorConfig,
                        sigma: float, rng: np.random.Generator) -> None:
    """One randomized Metropolis-Hastings pass over all 2C rate entries.

    Operates on the arrays in place, vectorized across particles. Per
    observation the entry's likelihood ratio is log(q * exp(delta) + 1 - q),
    where q is the mass on the states the entry touches. In the enumeration
    regime q comes from the cached conditionals ``post``, so the target is
    the full-history marginal (states summed out), and accepted moves
    refresh ``post``. In the sampling regime (``space`` is None) q is each
    particle's stored 0/1 presence, where the ratio is exactly delta on the
    touched observations and 0 elsewhere: the likelihood conditions on the
    stored states.
    """
    m, c = fa.shape
    a, b = prior.beta_alpha, prior.beta_beta
    if space is None:
        q_present = world_samples.astype(np.float64)
    else:
        q_present = post @ space.presence  # (M, T, C)

    for entry in rng.permutation(2 * c):
        is_fa = entry < c
        cat = int(entry % c)
        value = fa[:, cat].copy() if is_fa else miss[:, cat].copy()
        proposal = truncated_normal_sample(value, sigma, rng)
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
        p_in = proposal  # sampler already returns interior values
        log_hit = np.log(p_in) - np.log(v_in)
        log_rej = np.log1p(-p_in) - np.log1p(-v_in)
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
        # Hastings correction: only the truncation normalizer depends on the
        # proposal center, so the q-ratio reduces to Z(value)/Z(proposal).
        d_move = (truncated_normal_log_normalizer(value, sigma)
                  - truncated_normal_log_normalizer(proposal, sigma))
        log_alpha = d_lik + d_prior + d_move
        accept = np.log(rng.random(m)) < log_alpha
        if not accept.any():
            continue
        idx = np.nonzero(accept)[0]
        if is_fa:
            fa[idx, cat] = proposal[idx]
        else:
            miss[idx, cat] = proposal[idx]
        if space is not None:
            mask = space.absence[:, cat] if is_fa else space.presence[:, cat]
            _refresh_posteriors(post, q_present, space, idx, delta, per_obs, mask,
                                fa, miss, counts, frames)


def rejuvenate(particle: Particle, history, config: ParticleFilterConfig,
               prior: PriorConfig, rng: np.random.Generator) -> Particle:
    """One rejuvenation sweep on a single particle; returns the moved particle.

    ``history`` is the sequence of DetectionStats the particle has absorbed.
    Useful on its own for running plain MCMC chains over the rates.
    """
    history = list(history)
    if not history:
        raise ValueError("rejuvenation needs a nonempty observation history")
    num_categories = particle.v_hat.num_categories
    fa = particle.v_hat.fa[None, :].copy()
    miss = particle.v_hat.miss[None, :].copy()
    counts = np.array([s.counts for s in history], dtype=np.float64)
    frames = np.array([s.frame_count for s in history], dtype=np.float64)

    if num_categories <= config.enumeration_limit:
        space = StateSpace.build(prior, num_categories)
        post = _softmax_rows(state_log_joint(counts, frames, fa[:, None, :],
                                             miss[:, None, :], space))
        world_samples = None
    else:
        space = post = None
        world_samples = np.zeros((1, len(history), num_categories), dtype=bool)
        for t, belief in enumerate(particle.world_beliefs):
            world_samples[0, t, sorted(belief)] = True

    _rejuvenation_sweep(fa, miss, post, world_samples, counts, frames,
                        space, prior, config.proposal_sigma, rng)

    v_hat = VisualSystem(fa=fa[0], miss=miss[0])
    if space is not None:
        beliefs = [post[0, t].copy() for t in range(len(history))]
    else:
        beliefs = list(particle.world_beliefs)
    return Particle(v_hat=v_hat, world_beliefs=beliefs,
                    log_weight=particle.log_weight)


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def assimilate_observation(ensemble: ParticleEnsemble,
                           observation: Observation | DetectionStats) -> ParticleEnsemble:
    """Absorb one observation: weight, maybe resample, then rejuvenate.

    In the enumeration regime each particle's weight is multiplied by the
    exact marginal likelihood over all valid world states and the exact
    conditional state distribution is stored; in the sampling regime a
    state is drawn from the prior and the weight uses the likelihood at it.
    """
    stats = DetectionStats.from_observation(observation, ensemble.num_categories)
    if stats.num_categories != ensemble.num_categories:
        raise ValueError("observation does not match the ensemble's category count")

    cfg = ensemble.config
    rng = ensemble.rng
    counts = stats.counts.astype(np.float64)
    frames = float(stats.frame_count)

    if ensemble.enumerated:
        ll_new = state_log_joint(counts, frames, ensemble.fa, ensemble.miss,
                                 ensemble.space)
        ensemble.log_weights += logsumexp(ll_new, axis=1)
        ensemble._post = np.concatenate(
            [ensemble._post, _softmax_rows(ll_new)[:, None, :]], axis=1)
    else:
        presence = _sample_prior_worlds(ensemble.prior, ensemble.num_categories,
                                        ensemble.num_particles, rng)
        ensemble.log_weights += state_log_likelihood(counts, frames, ensemble.fa,
                                                     ensemble.miss, presence)
        ensemble._world_samples = np.concatenate(
            [ensemble._world_samples, presence[:, None, :]], axis=1)

    ensemble._counts.append(stats.counts.copy())
    ensemble._frames.append(stats.frame_count)

    if ensemble.effective_sample_size < cfg.ess_resample_threshold * ensemble.num_particles:
        idx = systematic_resample(ensemble.weights, rng)
        ensemble._reorder(idx)

    count_mat, frame_vec = ensemble._count_matrix()
    for _ in range(cfg.rejuvenation_sweeps_per_observation):
        _rejuvenation_sweep(ensemble.fa, ensemble.miss, ensemble._post,
                            ensemble._world_samples, count_mat, frame_vec,
                            ensemble.space, ensemble.prior, cfg.proposal_sigma, rng)
    return ensemble


def estimate_v(ensemble: ParticleEnsemble) -> MetaEstimate:
    """Weight-averaged rate estimate; flags when weights were non-uniform.

    After a resample the weights are uniform and this is the plain particle
    mean. If called between resamples the weighted mean is used instead and
    ``ensemble.estimate_used_weights`` is set.
    """
    if ensemble.num_particles == 0:
        raise ValueError("cannot estimate from an empty ensemble")
    w = ensemble.weights
    uniform = bool(np.ptp(ensemble.log_weights) < 1e-12)
    ensemble.estimate_used_weights = not uniform
    if not uniform:
        logger.debug("estimate_v on non-uniform weights (ESS %.1f of %d)",
                     ensemble.effective_sample_size, ensemble.num_particles)
    return VisualSystem(fa=w @ ensemble.fa, miss=w @ ensemble.miss)


def online_map_world_state(ensemble: ParticleEnsemble, t: int) -> WorldState:
    """Point estimate of world state t from the current ensemble.

    Enumeration regime: argmax of the weight-averaged conditional state
    posteriors (first state in tie-break order wins). Sampling regime:
    majority vote over the particles' stored states, ties broken by
    weighted posterior mass, then by the bit-vector order.
    """
    if not 0 <= t < ensemble.num_observations:
        raise IndexError(f"observation {t} not assimilated yet")
    w = ensemble.weights
    if ensemble.enumerated:
        averaged = w @ ensemble._post[:, t, :]
        return ensemble.space.states[int(np.argmax(averaged))]

    presence = ensemble._world_samples[:, t, :]
    c = ensemble.num_categories
    bit_weights = 1 << np.arange(c - 1, -1, -1)  # category 0 most significant
    codes = presence.astype(np.int64) @ bit_weights
    best = None
    for code in np.unique(codes):
        sel = codes == code
        key = (int(sel.sum()), float(w[sel].sum()), -int(code))
        if best is None or key > best[0]:
            best = (key, code)
    chosen = int(best[1])
    return frozenset(c - 1 - i for i in range(c) if (chosen >> i) & 1)


def run_filter(observations, config: ParticleFilterConfig, prior: PriorConfig,
               num_categories: int, *, v_true: VisualSystem | None = None,
               rng: np.random.Generator | None = None) -> PosteriorTrace:
    """Drive the filter over a full observation sequence and collect readouts.

    When the generating rates are supplied the trace also carries the
    per-step estimate error.
    """
    from .metrics import meta_mse

    ensemble = init_ensemble(config, prior, num_categories, rng=rng)
    trace = PosteriorTrace()
    trace.initial_estimate = estimate_v(ensemble)
    if v_true is not None:
        trace.initial_mse = meta_mse(v_true, trace.initial_estimate)
        trace.mse = []

    for t, obs in enumerate(observations):
        assimilate_observation(ensemble, obs)
        estimate = estimate_v(ensemble)
        trace.estimates.append(estimate)
        trace.map_states.append(online_map_world_state(ensemble, t))
        if v_true is not None:
            trace.mse.append(meta_mse(v_true, estimate))
    return trace


# ---------------------------------------------------------------------------
# Retrospective re-inference
# ---------------------------------------------------------------------------

def retrospective_map_with_mass(v_mu: MetaEstimate, observations,
                                prior: PriorConfig, num_categories: int):
    """Exact per-observation MAP states under a fixed rate estimate.

    With the rates pinned the world states decouple across observations, so
    each is scored against every enumerated state. Returns (state,
    posterior mass of that state) pairs; ties go to the first state in
    bit-vector order.
    """
    space = StateSpace.build(prior, num_categories)
    out = []
    for obs in observations:
        stats = DetectionStats.from_observation(obs, num_categories)
        lj = state_log_joint(stats.counts, stats.frame_count, v_mu.fa, v_mu.miss, space)
        post = _softmax_rows(lj[None, :])[0]
        best = int(np.argmax(post))
        out.append((space.states[best], float(post[best])))
    return out


def retrospective_infer(v_mu: MetaEstimate, observations, prior: PriorConfig,
                        num_categories: int) -> list:
    """MAP world states under a fixed rate estimate (see map_with_mass)."""
    return [state for state, _ in
            retrospective_map_with_mass(v_mu, observations, prior, num_categories)]
