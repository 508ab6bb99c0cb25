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

import contextlib
import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import combinations, compress

import numpy as np

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
        object.__setattr__(self, "percepts", tuple(map(frozenset, self.percepts)))
        if len(self.percepts) < 1:
            raise ValueError("an observation needs at least one percept")

    @property
    def frame_count(self) -> int:
        return len(self.percepts)


@dataclass(frozen=True, eq=False)
class DetectionStats:
    """Detection counts of T observations, stacked: the likelihood's
    sufficient statistic, how many of observation t's ``frame_count[t]``
    (T,) frames reported each category, row t of ``counts`` (T, C). One
    observation is the T = 1 stack, which 1-d counts also give.
    """

    counts: np.ndarray
    frame_count: np.ndarray

    def __post_init__(self):
        counts = np.atleast_2d(np.asarray(self.counts, dtype=np.int64))
        frames = np.atleast_1d(np.asarray(self.frame_count, dtype=np.int64))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "frame_count", frames)
        if counts.ndim != 2 or counts.shape[1] < 1 or frames.shape != counts.shape[:1]:
            raise ValueError("counts must be (T, C) with C >= 1 and frame_count (T,)")
        if (frames < 1).any():
            raise ValueError("frame_count must be >= 1")
        if (counts < 0).any() or (counts > frames[:, None]).any():
            raise ValueError("counts must lie in [0, frame_count]")

    @classmethod
    def from_observations(cls, observations, num_categories: int) -> "DetectionStats":
        """The stack of ``observations``: one bincount over (observation,
        category) pairs; a percept is a set, so it reports a category once."""
        frames = [len(o.percepts) for o in observations]
        cats = np.array([c for o in observations for p in o.percepts for c in p], dtype=np.int64)
        if ((cats < 0) | (cats >= num_categories)).any():
            raise ValueError(f"category indices must lie in 0..{num_categories - 1}")
        rows = np.repeat(np.arange(len(frames)), [sum(map(len, o.percepts)) for o in observations])
        counts = np.bincount(rows * num_categories + cats, minlength=len(frames) * num_categories)
        return cls(counts=counts.reshape(len(frames), num_categories), frame_count=frames)

    def __len__(self) -> int:
        return self.frame_count.shape[0]

    def __getitem__(self, rows) -> "DetectionStats":
        """Row t as a T = 1 stack, or the stack of a slice of rows."""
        return DetectionStats(counts=self.counts[rows], frame_count=self.frame_count[rows])

    @property
    def num_categories(self) -> int:
        return self.counts.shape[1]


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
            if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both
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
        if not all(0 < x < math.inf for x in (self.beta_alpha, self.beta_beta)):
            raise ValueError("beta shape parameters must be positive and finite")
        if not 0 < self.poisson_lambda < math.inf:
            raise ValueError("poisson_lambda must be positive and finite")
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

def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (every entry when None), shifted by the
    maximum so nothing overflows; a slice of only -inf gives -inf."""
    a = np.asarray(a, dtype=np.float64)
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis))
    return out + np.squeeze(top, axis=axis)


def xlogy(x, y):
    """x * log(y), with 0 where x is 0 (so 0 * log(0) = 0)."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def beta_sample(alpha: float, beta: float, rng: np.random.Generator, size=None):
    """Beta(alpha, beta) draw(s)."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("beta shape parameters must be positive")
    return rng.beta(alpha, beta, size=size)


def beta_log_density(x, alpha: float, beta: float):
    """Log density of Beta(alpha, beta); -inf outside (0,1) endpoints as usual."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return (xlogy(alpha - 1.0, x) + xlogy(beta - 1.0, 1.0 - x)
                - math.lgamma(alpha) - math.lgamma(beta) + math.lgamma(alpha + beta))


def _poisson_log_weights(lam: float, lo: int, hi: int) -> np.ndarray:
    """n log(lam) - log(n!) for n = lo..hi: the Poisson log pmf up to a constant."""
    return np.array([n * math.log(lam) - math.lgamma(n + 1.0) for n in range(lo, hi + 1)])


def _truncated_poisson_weights(lam: float, lo: int, hi: int) -> np.ndarray:
    logp = _poisson_log_weights(lam, lo, hi)
    w = np.exp(logp - logp.max())
    return w / w.sum()


@functools.cache
def _truncated_poisson_cdf(lam: float, lo: int, hi: int) -> np.ndarray:
    """The truncated Poisson's CDF on [lo, hi], built once per process and read-only."""
    cdf = np.cumsum(_truncated_poisson_weights(lam, lo, hi))
    cdf.flags.writeable = False
    return cdf


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
    cdf = _truncated_poisson_cdf(lam, lo, hi)
    u = rng.random(size)
    idx = np.minimum(cdf.searchsorted(u, side="right"), hi - lo)
    if size is None:
        return int(lo + idx)
    return (lo + idx).astype(np.int64)


# ---------------------------------------------------------------------------
# World states
# ---------------------------------------------------------------------------

def presence_masks(world_states, num_categories: int) -> np.ndarray:
    """(T, C) masks of the categories present in each of T world states."""
    worlds = list(world_states)
    present = np.zeros((len(worlds), num_categories), dtype=bool)
    present[[t for t, w in enumerate(worlds) for _ in w], [c for w in worlds for c in w]] = True
    return present


def category_sets(masks) -> list:
    """The set of the categories marked in each row of (T, C) ``masks``."""
    return [frozenset(compress(range(masks.shape[1]), row)) for row in masks.tolist()]


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


def count_log_prior(prior: PriorConfig, num_categories: int) -> np.ndarray:
    """log P(w) of any one state of n objects, for n = lo..min(hi, C).

    That is log d(n) - log C(num_categories, n), with d the truncated
    Poisson pmf of the object count: log(lam^n / (n! C(C, n))) less the log
    normalizer. Rounding the ratio once makes counts that tie in real
    arithmetic (n = 0 and 1 when lam = C) tie bit for bit.
    """
    lo, hi = prior.count_bounds
    logp = _poisson_log_weights(prior.poisson_lambda, lo, hi)
    top = logp.max()
    log_z = top + math.log(np.exp(logp - top).sum())
    return np.array([_log_state_weight(prior.poisson_lambda, n, num_categories) - log_z
                     for n in range(lo, min(hi, num_categories) + 1)])


def _log_state_weight(lam: float, n: int, c: int) -> float:
    """log(lam^n / (n! C(c, n))), rounded once while the ratio is a normal float."""
    with contextlib.suppress(OverflowError):
        ratio = lam ** n / math.perm(c, n)
        if sys.float_info.min <= ratio < math.inf:
            return math.log(ratio)
    return n * math.log(lam) - math.log(math.perm(c, n))


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
    return float(count_log_prior(prior, num_categories)[n - lo])


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


def pinned_terms(counts, frame_count, fa, miss):
    """(present, absent) log-likelihoods, (..., C) each, of k reports in F
    frames at point rates: k*log(1-M) + (F-k)*log(M) and k*log(FA) +
    (F-k)*log(1-FA), with 0*log(0) = 0, so -inf only where the rates forbid."""
    k = np.asarray(counts, dtype=np.float64)
    rest = np.asarray(frame_count, dtype=np.float64)[..., None] - k
    return (xlogy(k, 1.0 - miss) + xlogy(rest, miss),
            xlogy(k, fa) + xlogy(rest, 1.0 - fa))


def state_log_joint(counts, frame_count, fa, miss, space: StateSpace) -> np.ndarray:
    """log [ P(observation | w, fa, miss) * P(w) ] over the enumerated support.

    ``counts`` (..., C) holds how many of ``frame_count`` (...) frames
    reported each category. Both broadcast against the rates ``fa`` and
    ``miss`` (..., C), so a leading particle axis, an observation axis or
    both give one row of S states per combination.

    Per state, each category contributes its ``pinned_terms`` entry. The
    -inf entries of degenerate rates, which the plain matrix product would
    turn into NaN (0 * -inf), are handled exactly by masking.
    """
    pres_term, abs_term = pinned_terms(counts, frame_count, fa, miss)
    if np.isfinite(pres_term).all() and np.isfinite(abs_term).all():
        return _over_states(pres_term, abs_term, space)
    out = (np.where(np.isfinite(pres_term), pres_term, 0.0) @ space.presence.T
           + np.where(np.isfinite(abs_term), abs_term, 0.0) @ space.absence.T)
    hit = (np.isneginf(pres_term).astype(np.float64) @ space.presence.T
           + np.isneginf(abs_term).astype(np.float64) @ space.absence.T)
    out[hit > 0.0] = -np.inf
    return out + space.log_prior


def beta_predictive_terms(counts, frame_count, a_fa, b_fa, a_miss, b_miss):
    """Per-category log predictives of an observation, rates integrated out.

    Returns (present, absent), each (..., C): the log probability of the
    category's k reports in F frames if it is present or absent, with each
    rate Beta(a, b) instead of a point value. The false-alarm counts
    (``a_fa`` hits, ``b_fa`` rejections) score an absent category,
    betaln(a_fa + k, b_fa + F - k) - betaln(a_fa, b_fa); the miss counts
    (``a_miss`` misses, ``b_miss`` detections) a present one,
    betaln(a_miss + F - k, b_miss + k) - betaln(a_miss, b_miss). Positive
    counts keep every term finite.

    For integer k and F, betaln(a + x, b + y) - betaln(a, b) is log[(a)_x
    (b)_y / (a + b)_(x+y)] with rising factorials (a)_n = a (a + 1) ... (a +
    n - 1): the six are built one factor per frame and logged every 16
    factors, which keeps them finite for counts below about 1e19.
    """
    k = np.asarray(counts, dtype=np.float64)
    frames = np.asarray(frame_count, dtype=np.float64)[..., None]
    rest = frames - k
    lengths = np.stack(np.broadcast_arrays(rest, k, frames, k, rest, frames), axis=-1)
    bases = np.stack(np.broadcast_arrays(a_miss, b_miss, a_miss + b_miss,
                                         a_fa, b_fa, a_fa + b_fa), axis=-1)
    prod = np.ones(np.broadcast_shapes(lengths.shape, bases.shape))
    terms = np.zeros(prod.shape[:-1] + (2,))
    top = int(frames.max())
    for i in range(top):
        prod *= np.where(i < lengths, bases + i, 1.0)
        if i % 16 == 15 or i == top - 1:
            # (present, absent): numerator / denominator * numerator
            terms += np.log(prod[..., 0:4:3] / prod[..., 2:6:3] * prod[..., 1:5:3])
            prod.fill(1.0)
    return terms[..., 0], terms[..., 1]


def state_log_predictive(counts, frame_count, a_fa, b_fa, a_miss, b_miss,
                         space: StateSpace) -> np.ndarray:
    """log [ p(observation | w, Beta counts) * P(w) ] with the rates integrated out.

    The particle-learning counterpart of ``state_log_joint``, with the same
    broadcasting, summing ``beta_predictive_terms`` over each state.
    """
    return _over_states(*beta_predictive_terms(counts, frame_count, a_fa, b_fa,
                                               a_miss, b_miss), space)


def _over_states(pres_term, abs_term, space: StateSpace) -> np.ndarray:
    """Per-state sums of finite per-category terms, plus the state prior."""
    return pres_term @ space.presence.T + abs_term @ space.absence.T + space.log_prior


# ---------------------------------------------------------------------------
# Percept production and its likelihood
# ---------------------------------------------------------------------------

def sample_visual_system(prior: PriorConfig, num_categories: int,
                         rng: np.random.Generator) -> VisualSystem:
    """2C i.i.d. Beta draws: false-alarm rates first, then miss rates."""
    fa = beta_sample(prior.beta_alpha, prior.beta_beta, rng, size=num_categories)
    miss = beta_sample(prior.beta_alpha, prior.beta_beta, rng, size=num_categories)
    return VisualSystem(fa=fa, miss=miss)


def render_percepts(world: WorldState, system: VisualSystem, frames: int,
                    rng: np.random.Generator) -> tuple:
    """``frames`` noisy views of one scene: present categories survive with
    prob 1-M, absent ones intrude with prob FA, all independently. View f
    reads row f of one (frames, C) uniform draw, as F draws of C would."""
    present = list(world)
    p_detect = system.fa.copy()
    p_detect[present] = 1.0 - system.miss[present]
    return tuple(category_sets(rng.random((frames, system.num_categories)) < p_detect))


def observation_log_likelihood(stats: DetectionStats, world: WorldState,
                               system: VisualSystem) -> float:
    """log P(observation | world, system) from a one-observation stack.

    Equals the log of the product over all F percepts of the per-percept
    probability: present categories are detected with probability
    1 - miss, absent ones with fa (``pinned_terms``); impossible count
    patterns under degenerate rates give -inf.
    """
    if stats.num_categories != system.num_categories:
        raise ValueError("stats and system disagree on the number of categories")
    present = np.zeros(system.num_categories, dtype=bool)
    present[sorted(world)] = True
    terms = pinned_terms(stats.counts, stats.frame_count, system.fa, system.miss)
    return float(np.where(present, *terms).sum())
