"""Domain types, priors, and the generative model of noisy detections.

A black-box detector processes several views of one scene and emits, per
view, a set of category labels (a percept). Detection errors are governed
by per-category false-alarm and miss rates. This module owns the scalar
building blocks everything else is made of: the prior distributions, the
percept-rendering process, exact likelihood and prior evaluation, and the
enumeration of the world-state support.

All sampling takes an explicit ``numpy.random.Generator``; nothing here
keeps hidden state, so concurrent use with independent generators is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import betaln, gammaln, ndtr, ndtri, xlogy

# A world state is the set of category indices actually present in a scene;
# a percept is the set of category indices reported for one view.
WorldState = frozenset
Percept = frozenset


def _as_world_state(indices) -> WorldState:
    return frozenset(int(c) for c in indices)


@dataclass(frozen=True)
class Observation:
    """A bundle of percepts produced from different views of one scene."""

    percepts: tuple

    def __post_init__(self):
        object.__setattr__(self, "percepts", tuple(frozenset(p) for p in self.percepts))
        if len(self.percepts) < 1:
            raise ValueError("an observation needs at least one percept")

    @property
    def frame_count(self) -> int:
        return len(self.percepts)


@dataclass(frozen=True, eq=False)
class DetectionStats:
    """Per-category detection counts; the likelihood's sufficient statistic.

    The likelihood of an observation depends on its percepts only through
    how many of the F frames reported each category.
    """

    counts: np.ndarray
    frame_count: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a nonempty 1-d array")
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if counts.min() < 0 or counts.max() > self.frame_count:
            raise ValueError("counts must lie in [0, frame_count]")

    @classmethod
    def from_observation(cls, observation, num_categories: int) -> "DetectionStats":
        """Counts of an Observation; stats given as DetectionStats come back unchanged."""
        if isinstance(observation, cls):
            return observation
        counts = np.zeros(num_categories, dtype=np.int64)
        for percept in observation.percepts:
            for c in percept:
                counts[c] += 1
        return cls(counts=counts, frame_count=observation.frame_count)

    @property
    def num_categories(self) -> int:
        return self.counts.shape[0]


@dataclass(eq=False)
class VisualSystem:
    """Per-category false-alarm and miss rates of a detector (all in [0,1])."""

    fa: np.ndarray
    miss: np.ndarray

    def __post_init__(self):
        self.fa = np.asarray(self.fa, dtype=np.float64)
        self.miss = np.asarray(self.miss, dtype=np.float64)
        if self.fa.shape != self.miss.shape or self.fa.ndim != 1:
            raise ValueError("fa and miss must be 1-d arrays of equal length")
        for name, arr in (("fa", self.fa), ("miss", self.miss)):
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise ValueError(f"{name} rates must lie in [0, 1]")

    @property
    def num_categories(self) -> int:
        return self.fa.shape[0]

    def as_flat(self) -> np.ndarray:
        """Flat [fa..., miss...] vector of length 2C (the on-disk layout)."""
        return np.concatenate([self.fa, self.miss])

    @classmethod
    def from_flat(cls, flat) -> "VisualSystem":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.size % 2:
            raise ValueError("flat layout must have even length [fa..., miss...]")
        c = flat.size // 2
        return cls(fa=flat[:c].copy(), miss=flat[c:].copy())


# The inferred counterpart of a VisualSystem has the same shape and bounds.
MetaEstimate = VisualSystem


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters of the generative process.

    Error rates are i.i.d. Beta(beta_alpha, beta_beta); the number of
    objects in a scene is Poisson(poisson_lambda) truncated to
    count_bounds; the number of views per scene is uniform over
    frames_bounds (both bounds inclusive).
    """

    beta_alpha: float = 2.0
    beta_beta: float = 10.0
    poisson_lambda: float = 1.0
    count_bounds: tuple = (1, 5)
    frames_bounds: tuple = (5, 15)

    def __post_init__(self):
        if self.beta_alpha <= 0 or self.beta_beta <= 0:
            raise ValueError("beta shape parameters must be positive")
        if self.poisson_lambda <= 0:
            raise ValueError("poisson_lambda must be positive")
        lo, hi = self.count_bounds
        if not (0 <= lo <= hi):
            raise ValueError(f"count_bounds {self.count_bounds} must satisfy 0 <= lo <= hi")
        flo, fhi = self.frames_bounds
        if not (1 <= flo <= fhi):
            raise ValueError(f"frames_bounds {self.frames_bounds} must satisfy 1 <= lo <= hi")

    @property
    def rate_variance(self) -> float:
        a, b = self.beta_alpha, self.beta_beta
        return a * b / ((a + b) ** 2 * (a + b + 1.0))

    @property
    def rate_map(self) -> float:
        """Mode of the Beta prior (requires alpha, beta > 1)."""
        a, b = self.beta_alpha, self.beta_beta
        if a <= 1.0 or b <= 1.0:
            raise ValueError("Beta mode undefined for alpha <= 1 or beta <= 1")
        return (a - 1.0) / (a + b - 2.0)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def beta_sample(alpha: float, beta: float, rng: np.random.Generator, size=None):
    """Beta(alpha, beta) draw(s)."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("beta shape parameters must be positive")
    return rng.beta(alpha, beta, size=size)


def beta_log_density(x, alpha: float, beta: float):
    """Log density of Beta(alpha, beta); -inf outside (0,1) endpoints as usual."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return xlogy(alpha - 1.0, x) + xlogy(beta - 1.0, 1.0 - x) - betaln(alpha, beta)


def _truncated_poisson_weights(lam: float, lo: int, hi: int) -> np.ndarray:
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    logp = ns * math.log(lam) - lam - gammaln(ns + 1.0)
    w = np.exp(logp - logp.max())
    return w / w.sum()


def truncated_poisson_pmf(n: int, lam: float, lo: int, hi: int) -> float:
    """Poisson(lam) pmf renormalized to the inclusive support [lo, hi]."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    if n < lo or n > hi:
        return 0.0
    return float(_truncated_poisson_weights(lam, lo, hi)[n - lo])


def truncated_poisson_sample(lam: float, lo: int, hi: int, rng: np.random.Generator, size=None):
    """Draw from the truncated Poisson by inverse CDF on the finite support."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    cdf = np.cumsum(_truncated_poisson_weights(lam, lo, hi))
    u = rng.random(size)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), hi - lo)
    if size is None:
        return int(lo + idx)
    return (lo + idx).astype(np.int64)


def truncated_normal_sample(mu, sigma: float, rng: np.random.Generator,
                            lo: float = 0.0, hi: float = 1.0):
    """Normal(mu, sigma^2) conditioned on (lo, hi), via inverse CDF.

    Returns values strictly inside the interval (endpoints are clipped off
    at machine-epsilon scale so downstream log densities stay finite).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    mu = np.asarray(mu, dtype=np.float64)
    a = ndtr((lo - mu) / sigma)
    b = ndtr((hi - mu) / sigma)
    u = a + (b - a) * rng.random(mu.shape if mu.shape else None)
    x = mu + sigma * ndtri(u)
    eps = 1e-12
    return np.clip(x, lo + eps, hi - eps)


def truncated_normal_log_density(x, mu, sigma: float,
                                 lo: float = 0.0, hi: float = 1.0):
    """Log density of the truncated normal above; -inf outside (lo, hi)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    z = ndtr((hi - mu) / sigma) - ndtr((lo - mu) / sigma)
    logpdf = (-0.5 * ((x - mu) / sigma) ** 2
              - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)
              - np.log(z))
    return np.where((x > lo) & (x < hi), logpdf, -np.inf)


def truncated_normal_log_normalizer(mu, sigma: float,
                                    lo: float = 0.0, hi: float = 1.0):
    """log of the mass a Normal(mu, sigma^2) places on (lo, hi).

    This is the piece of the proposal density that depends on the chain's
    current position, hence the whole of the Hastings correction for the
    random-walk proposal.
    """
    mu = np.asarray(mu, dtype=np.float64)
    return np.log(ndtr((hi - mu) / sigma) - ndtr((lo - mu) / sigma))


# ---------------------------------------------------------------------------
# World states
# ---------------------------------------------------------------------------

def sample_world_state(prior: PriorConfig, num_categories: int,
                       rng: np.random.Generator) -> WorldState:
    """Object count from the truncated Poisson, categories a uniform subset."""
    lo, hi = prior.count_bounds
    if hi > num_categories:
        raise ValueError(
            f"count upper bound {hi} exceeds the {num_categories} available categories")
    n = int(truncated_poisson_sample(prior.poisson_lambda, lo, hi, rng))
    cats = rng.choice(num_categories, size=n, replace=False)
    return _as_world_state(cats)


def world_state_log_prior(world: WorldState, prior: PriorConfig,
                          num_categories: int) -> float:
    """log P(world) = log d(|world|) - log C(num_categories, |world|).

    States with a size outside count_bounds have probability zero and get
    -inf rather than an error, so degenerate inputs stay testable.
    """
    n = len(world)
    lo, hi = prior.count_bounds
    if n < lo or n > hi or any(c < 0 or c >= num_categories for c in world):
        return -math.inf
    d = truncated_poisson_pmf(n, prior.poisson_lambda, lo, hi)
    return math.log(d) - math.log(math.comb(num_categories, n))


def enumerate_world_states(num_categories: int, lo: int, hi: int):
    """All subsets with size in [lo, hi], ordered by their presence bit-vector.

    The ordering (lexicographic on the tuple of presence bits, category 0
    first) is the package-wide tie-break order for MAP extraction.
    """
    hi = min(hi, num_categories)
    states = []
    for n in range(lo, hi + 1):
        states.extend(combinations(range(num_categories), n))

    def bit_key(cats):
        present = set(cats)
        return tuple(1 if c in present else 0 for c in range(num_categories))

    states.sort(key=bit_key)
    return tuple(_as_world_state(s) for s in states)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Enumerated world-state support with its prior, in tie-break order."""

    num_categories: int
    states: tuple
    presence: np.ndarray = field(repr=False)   # (S, C) 0/1
    absence: np.ndarray = field(repr=False)    # (S, C) 0/1
    log_prior: np.ndarray = field(repr=False)  # (S,)

    @classmethod
    @functools.cache
    def build(cls, prior: PriorConfig, num_categories: int) -> "StateSpace":
        """The support for (prior, num_categories), built once per process.

        Every caller gets the same object, so its arrays are read-only.
        """
        lo, hi = prior.count_bounds
        states = enumerate_world_states(num_categories, lo, hi)
        presence = np.zeros((len(states), num_categories), dtype=np.float64)
        for i, w in enumerate(states):
            presence[i, sorted(w)] = 1.0
        absence = 1.0 - presence
        log_prior = np.array(
            [world_state_log_prior(w, prior, num_categories) for w in states])
        for arr in (presence, absence, log_prior):
            arr.flags.writeable = False
        return cls(num_categories=num_categories, states=states,
                   presence=presence, absence=absence, log_prior=log_prior)

    @property
    def size(self) -> int:
        return len(self.states)


def state_log_joint(counts, frame_count, fa, miss, space: StateSpace) -> np.ndarray:
    """log [ P(observation | w, fa, miss) * P(w) ] over the enumerated support.

    ``counts`` (..., C) holds how many of ``frame_count`` (...) frames
    reported each category. Both broadcast against the rates ``fa`` and
    ``miss`` (..., C), so a leading particle axis, an observation axis or
    both give one row of S states per combination.

    Per state, each present category contributes k*log(1-M) + (F-k)*log(M)
    and each absent one k*log(FA) + (F-k)*log(1-FA); 0*log(0) counts as 0,
    contradictions give -inf. Degenerate rates can put -inf in the
    per-category terms, which the plain matrix product would turn into NaN
    (0 * -inf); those entries are handled exactly by masking.
    """
    k = np.asarray(counts, dtype=np.float64)
    rest = np.asarray(frame_count, dtype=np.float64)[..., None] - k
    pres_term = xlogy(k, 1.0 - miss) + xlogy(rest, miss)
    abs_term = xlogy(k, fa) + xlogy(rest, 1.0 - fa)
    if np.isfinite(pres_term).all() and np.isfinite(abs_term).all():
        return pres_term @ space.presence.T + abs_term @ space.absence.T + space.log_prior
    out = (np.where(np.isfinite(pres_term), pres_term, 0.0) @ space.presence.T
           + np.where(np.isfinite(abs_term), abs_term, 0.0) @ space.absence.T)
    hit = (np.isneginf(pres_term).astype(np.float64) @ space.presence.T
           + np.isneginf(abs_term).astype(np.float64) @ space.absence.T)
    out[hit > 0.0] = -np.inf
    return out + space.log_prior


# ---------------------------------------------------------------------------
# Percept production and its likelihood
# ---------------------------------------------------------------------------

def sample_visual_system(prior: PriorConfig, num_categories: int,
                         rng: np.random.Generator) -> VisualSystem:
    """2C i.i.d. Beta draws: false-alarm rates first, then miss rates."""
    fa = beta_sample(prior.beta_alpha, prior.beta_beta, rng, size=num_categories)
    miss = beta_sample(prior.beta_alpha, prior.beta_beta, rng, size=num_categories)
    return VisualSystem(fa=fa, miss=miss)


def render_percept(world: WorldState, system: VisualSystem,
                   rng: np.random.Generator) -> Percept:
    """One noisy view: present categories survive with prob 1-M, absent ones
    intrude with prob FA, independently across categories."""
    c = system.num_categories
    present = np.zeros(c, dtype=bool)
    present[sorted(world)] = True
    p_detect = np.where(present, 1.0 - system.miss, system.fa)
    detected = rng.random(c) < p_detect
    return _as_world_state(np.nonzero(detected)[0])


def state_log_likelihood(counts, frame_count, fa, miss, presence) -> np.ndarray:
    """log P(observation | w, fa, miss) at concrete states w.

    ``presence`` (..., C) holds each state as a 0/1 mask. It broadcasts
    against the rates ``fa`` and ``miss`` (..., C), the counts (..., C)
    and ``frame_count`` (...), as in ``state_log_joint``, and the result
    drops the category axis. Present categories are detected with
    probability 1 - miss, absent ones with fa; 0*log(0) counts as 0, and
    impossible count patterns under degenerate rates give -inf.
    """
    k = np.asarray(counts, dtype=np.float64)
    rest = np.asarray(frame_count, dtype=np.float64)[..., None] - k
    p_detect = np.where(presence, 1.0 - miss, fa)
    return (xlogy(k, p_detect) + xlogy(rest, 1.0 - p_detect)).sum(axis=-1)


def observation_log_likelihood(stats: DetectionStats, world: WorldState,
                               system: VisualSystem) -> float:
    """log P(observation | world, system) from the sufficient statistics.

    Equals the log of the product over all F percepts of the per-percept
    probability (see ``state_log_likelihood``).
    """
    if stats.num_categories != system.num_categories:
        raise ValueError("stats and system disagree on the number of categories")
    present = np.zeros(system.num_categories, dtype=bool)
    present[sorted(world)] = True
    return float(state_log_likelihood(stats.counts, stats.frame_count,
                                      system.fa, system.miss, present))
