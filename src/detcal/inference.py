"""Sequential Monte Carlo joint inference over error rates and world states.

Up to ``enumeration_limit`` categories the filter is particle learning
(Storvik 2002; Carvalho, Johannes, Lopes & Polson 2010). Each particle
carries the conjugate Beta counts of its 2C rates, so the rates are
integrated out, and every valid world state is enumerated. Per
observation a particle is weighted by the exact one-step predictive
summed over the states; the online MAP is read from the weighted mixture
of the particles' state posteriors; the population is resampled
systematically when the effective sample size drops; and each particle
draws its state exactly from its own posterior and adds that state's
detection counts to its Beta counts. A step costs O(M*S*C) and keeps no
observation history.

Beyond ``enumeration_limit`` categories the filter falls back to sampling:
each particle carries point rates, states are drawn from the prior, and
Metropolis-Hastings rejuvenation sweeps perturb each rate entry with a
truncated-normal random walk against the full observation history.
``rejuvenate`` runs the same sweep on a single particle. Internally the
population is stored as struct-of-arrays; ``ParticleEnsemble.particle``
materializes a per-particle view for inspection.
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
    state_log_predictive,
    truncated_normal_log_normalizer,
    truncated_normal_sample,
    truncated_poisson_sample,
)

logger = logging.getLogger(__name__)

_INTERIOR_EPS = 1e-12


@dataclass(frozen=True)
class ParticleFilterConfig:
    """Knobs of the filter; defaults match the reference experiment setup.

    ``proposal_sigma`` and ``rejuvenation_sweeps_per_observation`` act only
    in the sampling regime (and ``proposal_sigma`` in ``rejuvenate``).
    """

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
    """Read-only view of one hypothesis: rates, state beliefs, weight.

    Exact regime: posterior-mean rates and the latest observation's state
    posterior. Sampling regime: point rates and a sampled state per
    observation.
    """

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
    """Particle population; what a particle carries depends on the regime.

    Exact regime: Beta counts ``a_fa`` (hits), ``b_fa`` (rejections),
    ``a_miss`` (misses) and ``b_miss`` (detections), all (M, C); the latest
    observation's state posteriors ``beliefs`` (M, S); and the states drawn
    from them, ``scenes`` (M,), indexing ``space.states``. Sampling regime:
    point rates ``fa`` and ``miss`` (M, C), the observation history and a
    sampled state per particle and observation.
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
        self.enumerated = num_categories <= config.enumeration_limit
        self.space = StateSpace.build(prior, num_categories) if self.enumerated else None

        m = config.num_particles
        self.log_weights = np.zeros(m)
        self.estimate_used_weights = False
        self.num_observations = 0
        shape = (m, num_categories)
        if self.enumerated:
            self.a_fa = np.full(shape, float(prior.beta_alpha))
            self.b_fa = np.full(shape, float(prior.beta_beta))
            self.a_miss = np.full(shape, float(prior.beta_alpha))
            self.b_miss = np.full(shape, float(prior.beta_beta))
            self.beliefs = None
            self.scenes = None
            self._maps: list = []   # online MAP state per observation
        else:
            self.fa = np.clip(beta_sample(prior.beta_alpha, prior.beta_beta, rng, size=shape),
                              _INTERIOR_EPS, 1.0 - _INTERIOR_EPS)
            self.miss = np.clip(beta_sample(prior.beta_alpha, prior.beta_beta, rng, size=shape),
                                _INTERIOR_EPS, 1.0 - _INTERIOR_EPS)
            self._counts: list = []   # (C,) int per observation
            self._frames: list = []
            self._world_samples = np.zeros((m, 0, num_categories), dtype=bool)

    # -- bookkeeping ------------------------------------------------------

    @property
    def num_particles(self) -> int:
        return self.log_weights.shape[0]

    def rates(self):
        """Per-particle (fa, miss), (M, C) each; posterior means in the exact regime."""
        if self.enumerated:
            return (self.a_fa / (self.a_fa + self.b_fa),
                    self.a_miss / (self.a_miss + self.b_miss))
        return self.fa, self.miss

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
        fa, miss = self.rates()
        v_hat = VisualSystem(fa=fa[m].copy(), miss=miss[m].copy())
        if self.enumerated:
            beliefs = [] if self.beliefs is None else [self.beliefs[m].copy()]
        else:
            beliefs = [frozenset(np.nonzero(self._world_samples[m, t])[0].tolist())
                       for t in range(self.num_observations)]
        return Particle(v_hat=v_hat, world_beliefs=beliefs,
                        log_weight=float(self.log_weights[m]))

    def _reorder(self, idx: np.ndarray):
        if self.enumerated:
            self.a_fa, self.b_fa = self.a_fa[idx], self.b_fa[idx]
            self.a_miss, self.b_miss = self.a_miss[idx], self.b_miss[idx]
            self.beliefs = self.beliefs[idx]
        else:
            self.fa = self.fa[idx].copy()
            self.miss = self.miss[idx].copy()
            self._world_samples = self._world_samples[idx].copy()
        self.log_weights = np.zeros(self.num_particles)


def init_ensemble(config: ParticleFilterConfig, prior: PriorConfig,
                  num_categories: int,
                  rng: np.random.Generator | None = None) -> ParticleEnsemble:
    """Fresh ensemble at the Beta prior (counts, or drawn rates), uniform weights."""
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


def _rejuvenation_sweep(fa, miss, post, world_samples, counts, frames,
                        space: StateSpace | None, prior: PriorConfig,
                        sigma: float, rng: np.random.Generator) -> None:
    """One randomized Metropolis-Hastings pass over all 2C rate entries.

    Operates on the arrays in place, vectorized across particles. Per
    observation the entry's likelihood ratio is log(q * exp(delta) + 1 - q),
    where q is the mass on the states the entry touches. With an enumerated
    ``space`` (``rejuvenate`` only) q comes from the conditionals ``post``,
    so the target is the full-history marginal (states summed out), and
    accepted moves recompute ``post``. In the sampling regime (``space`` is
    None) q is each particle's stored 0/1 presence, where the ratio is
    exactly delta on the touched observations and 0 elsewhere: the
    likelihood conditions on the stored states.
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
            _refresh_posteriors(post, q_present, space, idx, fa, miss, counts, frames)


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
        post = _history_posteriors(fa, miss, counts, frames, space)
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
    """Absorb one observation: weight, maybe resample, then move the particles.

    Exact regime (particle learning): each particle's weight is multiplied
    by the exact one-step predictive summed over all valid world states, the
    online MAP is read from the weighted mixture of the particles' state
    posteriors, and after resampling each particle draws its state from its
    own posterior and adds that state's counts. Sampling regime: a state is
    drawn from the prior, the weight uses the likelihood at it, and MH
    sweeps move the rates against the full history.
    """
    stats = DetectionStats.from_observation(observation, ensemble.num_categories)
    if stats.num_categories != ensemble.num_categories:
        raise ValueError("observation does not match the ensemble's category count")
    ensemble.num_observations += 1
    if ensemble.enumerated:
        _learning_step(ensemble, stats)
    else:
        _sampling_step(ensemble, stats)
    return ensemble


def _resample_if_degenerate(ensemble: ParticleEnsemble) -> None:
    threshold = ensemble.config.ess_resample_threshold * ensemble.num_particles
    if ensemble.effective_sample_size < threshold:
        ensemble._reorder(systematic_resample(ensemble.weights, ensemble.rng))


def _learning_step(ens: ParticleEnsemble, stats: DetectionStats) -> None:
    """The exact regime's step: particle learning over the enumerated states."""
    counts = stats.counts.astype(np.float64)
    rest = stats.frame_count - counts
    space = ens.space
    ll = state_log_predictive(counts, stats.frame_count, ens.a_fa, ens.b_fa,
                              ens.a_miss, ens.b_miss, space)
    ens.log_weights += logsumexp(ll, axis=1)
    ens.beliefs = _softmax_rows(ll)
    ens._maps.append(space.states[int(np.argmax(ens.weights @ ens.beliefs))])
    _resample_if_degenerate(ens)

    # inverse-CDF draw; a state of zero posterior mass is never drawn
    cum = np.cumsum(ens.beliefs, axis=1)
    u = ens.rng.random(ens.num_particles) * cum[:, -1]
    ens.scenes = np.sum(cum <= u[:, None], axis=1)
    present = space.presence[ens.scenes]
    absent = space.absence[ens.scenes]
    ens.a_fa += absent * counts
    ens.b_fa += absent * rest
    ens.a_miss += present * rest
    ens.b_miss += present * counts


def _sampling_step(ens: ParticleEnsemble, stats: DetectionStats) -> None:
    """The sampling regime's step: prior states, weights at them, MH sweeps."""
    counts = stats.counts.astype(np.float64)
    frames = float(stats.frame_count)
    presence = _sample_prior_worlds(ens.prior, ens.num_categories,
                                    ens.num_particles, ens.rng)
    ens.log_weights += state_log_likelihood(counts, frames, ens.fa, ens.miss, presence)
    ens._world_samples = np.concatenate(
        [ens._world_samples, presence[:, None, :]], axis=1)
    ens._counts.append(stats.counts.copy())
    ens._frames.append(stats.frame_count)
    _resample_if_degenerate(ens)

    cfg = ens.config
    count_mat = np.array(ens._counts, dtype=np.float64)
    frame_vec = np.array(ens._frames, dtype=np.float64)
    for _ in range(cfg.rejuvenation_sweeps_per_observation):
        _rejuvenation_sweep(ens.fa, ens.miss, None, ens._world_samples, count_mat,
                            frame_vec, None, ens.prior, cfg.proposal_sigma, ens.rng)


def estimate_v(ensemble: ParticleEnsemble) -> MetaEstimate:
    """Weight-averaged rate estimate; flags when weights were non-uniform.

    Averages the particles' rates: their point rates in the sampling regime,
    the posterior means of their Beta counts in the exact regime. After a
    resample the weights are uniform and this is the plain particle mean.
    If called between resamples the weighted mean is used instead and
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
    fa, miss = ensemble.rates()
    return VisualSystem(fa=w @ fa, miss=w @ miss)


def online_map_world_state(ensemble: ParticleEnsemble, t: int) -> WorldState:
    """Point estimate of world state t.

    Exact regime: the argmax of the weight-averaged state posteriors read
    when observation t was assimilated, before resampling (first state in
    tie-break order wins). Sampling regime: majority vote over the current
    particles' stored states, ties broken by weighted posterior mass, then
    by the bit-vector order.
    """
    if not 0 <= t < ensemble.num_observations:
        raise IndexError(f"observation {t} not assimilated yet")
    if ensemble.enumerated:
        return ensemble._maps[t]
    w = ensemble.weights

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
