"""Acceptance suite: every criterion at its stated tolerance, desk scale.

Desk scale means 1000 synthesized systems of 75 world states each, filtered
with 100 particles (the library defaults). One corpus is built per session
and run twice, each run shared through a session fixture:

- ``desk`` runs the default filter, which marginalizes scenes exactly; it
  feeds criteria 1-5.
- ``reference_desk`` runs the sampling filter of ``tests/oracles.py``
  (``sampling_filter_reference``) with the filter's seeds, the procedure
  the paper's windows in criteria 1-3 were calibrated on. Its
  retrospective and fixed-prior rows are exact MAP, as in ``desk``;
  criterion 3 also reads its scenes out by sampling
  (``sampled_map_reference``) for the gap and paired checks.

Criteria 1-3 assert the paper's windows on the reference desk and require
the exact default to do at least as well on the same corpus. Each
criterion records a one-line verdict that conftest prints at the end of
the session; sub-checks of criteria 1-3 name the procedure they measured.
"""

import math
import multiprocessing
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from detcal.core import DetectionStats, Observation, PriorConfig, VisualSystem
from detcal.dataset import inference_seed, read_corpus
from detcal.inference import (
    Particle,
    ParticleFilterConfig,
    assimilate_observation,
    init_ensemble,
    rejuvenate,
    retrospective_infer,
)
from detcal.metrics import chance_accuracy, meta_mse, observation_noise, \
    rolling_accuracy_by_noise, world_state_accuracy
from detcal.experiment import (
    ExperimentConfig,
    MODEL_FIXED_PRIOR,
    MODEL_ONLINE,
    MODEL_RETRO,
    MODEL_THRESHOLD,
    evaluate_run,
    read_results,
    report_command,
    result_chunk,
    run_command,
    synth_command,
)
from oracles import (
    map_state_oracle,
    sampled_map_reference,
    sampling_filter_reference,
    state_posterior_oracle,
    truncated_poisson_pmf_oracle,
    urn_path_oracle,
)

DESK_SYSTEMS = 1000
PRIOR_MSE = 0.0107  # Beta(2,10) variance, the no-data error level


@dataclass
class DeskRun:
    config: ExperimentConfig
    results_path: Path
    mse_by_t: dict        # t -> (fa, miss, combined)
    accuracy_by_t: dict   # t -> {model: acc}
    summary: dict         # row name -> (accuracy, theta)
    results: list         # RunResult per run


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


DESK_CONFIG = ExperimentConfig(num_systems=DESK_SYSTEMS, seed=0, jobs=2)


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory) -> Path:
    corpus = tmp_path_factory.mktemp("desk") / "corpus.jsonl"
    synth_command(DESK_CONFIG, corpus)
    return corpus


def _read_desk(results: Path, config: ExperimentConfig, tag: str) -> DeskRun:
    tables = report_command([results], results.parent / f"report_{tag}")

    mse_by_t = {}
    for row in _read_csv(tables["mse_by_observation"]):
        mse_by_t[int(row["observation_index"])] = (
            float(row["mse_fa"]), float(row["mse_miss"]), float(row["mse_combined"]))
    accuracy_by_t = {}
    for row in _read_csv(tables["accuracy_by_observation"]):
        accuracy_by_t[int(row["observation_index"])] = {
            m: float(row[m]) for m in (MODEL_ONLINE, MODEL_RETRO,
                                       MODEL_THRESHOLD, MODEL_FIXED_PRIOR)}
    summary = {}
    for row in _read_csv(tables["summary"]):
        theta = float(row["theta"]) if row["theta"] else None
        summary[row["model"]] = (float(row["accuracy"]), theta)
    return DeskRun(config=config, results_path=results, mse_by_t=mse_by_t,
                   accuracy_by_t=accuracy_by_t, summary=summary,
                   results=list(read_results(results)))


@pytest.fixture(scope="session")
def desk(desk_corpus) -> DeskRun:
    """The default filter: scenes marginalized exactly."""
    results = desk_corpus.parent / "results_exact.jsonl"
    run_command(DESK_CONFIG, desk_corpus, results)
    return _read_desk(results, DESK_CONFIG, "exact")


def _reference_chunk(task) -> str:
    """Result record of one corpus run under the reference sampling filter.

    The threshold and fixed-prior rows come from ``evaluate_run``; the
    online rows from ``sampling_filter_reference`` on the seed the filter
    would get at this corpus position; the retrospective row is the exact
    MAP under its final estimate.
    """
    index, run = task
    config = DESK_CONFIG
    prior = config.prior()
    c = config.num_categories
    lo, hi = prior.count_bounds
    result = evaluate_run(run, replace(config, models=(MODEL_THRESHOLD, MODEL_FIXED_PRIOR)),
                          index)
    stats = result.stats()
    trace = sampling_filter_reference(
        list(zip(stats.counts, stats.frame_count.tolist())), c,
        np.random.default_rng(inference_seed(config.seed, index)),
        alpha=prior.beta_alpha, beta=prior.beta_beta, lam=prior.poisson_lambda,
        lo=lo, hi=hi, num_particles=config.num_particles,
        ess_threshold=config.ess_resample_threshold,
        v_true=(run.v_true.fa, run.v_true.miss))
    v_hat = VisualSystem(*trace["estimates"][-1])
    baselines = result.maps
    result.maps = {MODEL_ONLINE: trace["map_states"],
                   MODEL_RETRO: retrospective_infer(v_hat, stats, prior), **baselines}
    result.v_hat = v_hat.as_flat().tolist()
    mse = [trace["initial_mse"]] + trace["mse"]
    result.mse_combined, result.mse_fa, result.mse_miss = (
        [row[i] for row in mse] for i in range(3))
    return result_chunk(result)


@pytest.fixture(scope="session")
def reference_desk(desk_corpus) -> DeskRun:
    """The sampling filter the paper's windows were calibrated on."""
    results = desk_corpus.parent / "results_reference.jsonl"
    runs = enumerate(read_corpus(desk_corpus).runs)
    with multiprocessing.get_context("spawn").Pool(DESK_CONFIG.jobs) as pool, \
            open(results, "w", encoding="utf-8", newline="\n") as fh:
        for chunk in pool.imap(_reference_chunk, runs, chunksize=4):
            fh.write(chunk)
    return _read_desk(results, DESK_CONFIG, "reference")


# The reference filter's online readout votes over one prior scene per
# particle; the sampled readout draws as many per observation.
READOUT_SAMPLES = ParticleFilterConfig().num_particles


def _sampled_readout_accuracy(desk_run: DeskRun, rates_of, rng) -> float:
    """Exact-match accuracy of the sampled scene readout over the desk.

    ``rates_of(result)`` gives the (fa, miss) a run's scenes are read out
    under; observations are visited in results-file order.
    """
    prior = desk_run.config.prior()
    lo, hi = prior.count_bounds
    hits = []
    for r in desk_run.results:
        fa, miss = rates_of(r)
        truth = np.zeros((r.num_observations, r.num_categories), dtype=bool)
        for t, w in enumerate(r.world_states):
            truth[t, sorted(w)] = True
        got = sampled_map_reference(
            np.asarray(r.detect_counts), np.asarray(r.frame_counts), fa, miss,
            prior.poisson_lambda, lo, hi, r.num_categories, READOUT_SAMPLES, rng)
        hits.append(np.all(got == truth, axis=1))
    return float(np.concatenate(hits).mean())


def _verdict(number, name, checks):
    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{desc} [{'ok' if passed else 'VIOLATED'}]"
                       for desc, passed in checks)
    record_criterion(number, name, ok, detail)
    assert ok, f"criterion {number} ({name}): {detail}"


class TestCriterion1MetacognitionLearning:
    def test_estimate_error_at_t40(self, desk, reference_desk):
        fa, miss, combined = reference_desk.mse_by_t[40]
        ex_fa, ex_miss, ex_combined = desk.mse_by_t[40]
        _verdict(1, "estimate MSE at t=40", [
            (f"reference fa {fa:.5f} in [0.001, 0.004]", 0.001 <= fa <= 0.004),
            (f"reference miss {miss:.5f} in [0.002, 0.006]", 0.002 <= miss <= 0.006),
            (f"exact combined {ex_combined:.5f} < {PRIOR_MSE / 3:.5f}",
             ex_combined < PRIOR_MSE / 3),
            (f"exact fa {ex_fa:.5f} <= reference {fa:.5f}", ex_fa <= fa),
            (f"exact miss {ex_miss:.5f} <= reference {miss:.5f}", ex_miss <= miss),
            (f"exact combined {ex_combined:.5f} <= reference {combined:.5f}",
             ex_combined <= combined),
        ])


class TestCriterion2OnlineAccuracyCurve:
    def test_online_accuracy_points(self, desk, reference_desk):
        a1 = reference_desk.accuracy_by_t[1][MODEL_ONLINE]
        a40 = reference_desk.accuracy_by_t[40][MODEL_ONLINE]
        a75 = reference_desk.accuracy_by_t[75][MODEL_ONLINE]
        checks = [
            (f"reference t=1 {a1:.3f} in 0.766±0.025", abs(a1 - 0.766) <= 0.025),
            (f"reference t=40 {a40:.3f} in 0.849±0.025", abs(a40 - 0.849) <= 0.025),
            (f"reference t=75 {a75:.3f} in 0.854±0.025", abs(a75 - 0.854) <= 0.025),
        ]
        for t in (1, 40, 75):
            ex = desk.accuracy_by_t[t][MODEL_ONLINE]
            ref = reference_desk.accuracy_by_t[t][MODEL_ONLINE]
            checks.append((f"exact t={t} {ex:.3f} >= reference {ref:.3f}", ex >= ref))
        _verdict(2, "online accuracy at t=1/40/75", checks)


class TestCriterion3ModelRanking:
    def test_retrospective_beats_baselines(self, desk, reference_desk):
        # The windows are asserted on the reference desk's own rows. The
        # retrospective and fixed-prior rows are exact MAP in both regimes;
        # the sampled readout (``sampled_map_reference``) under the reference
        # filter's final estimates and under the prior's point estimate is
        # what the gap and paired checks compare against.
        prior = reference_desk.config.prior()
        c = reference_desk.config.num_categories
        rng = np.random.default_rng(reference_desk.config.seed)
        s_retro = _sampled_readout_accuracy(
            reference_desk, lambda r: (r.v_hat[:c], r.v_hat[c:]), rng)
        s_fixed = _sampled_readout_accuracy(
            reference_desk, lambda r: (prior.rate_map, prior.rate_map), rng)
        retro = reference_desk.summary[MODEL_RETRO][0]
        thresh = reference_desk.summary[MODEL_THRESHOLD][0]
        fixed = reference_desk.summary[MODEL_FIXED_PRIOR][0]
        ex_retro = desk.summary[MODEL_RETRO][0]
        ex_thresh = desk.summary[MODEL_THRESHOLD][0]
        ex_fixed = desk.summary[MODEL_FIXED_PRIOR][0]
        _verdict(3, "model ranking", [
            (f"reference retrospective {retro:.3f} in 0.856±0.025",
             abs(retro - 0.856) <= 0.025),
            (f"reference threshold {thresh:.3f} in 0.803±0.025",
             abs(thresh - 0.803) <= 0.025),
            (f"reference fixed-prior {fixed:.3f} in 0.807±0.025",
             abs(fixed - 0.807) <= 0.025),
            (f"reference sampled retro-thresh gap {s_retro - thresh:.3f} >= 0.03",
             s_retro - thresh >= 0.03),
            (f"reference sampled retro-fixed gap {s_retro - s_fixed:.3f} >= 0.03",
             s_retro - s_fixed >= 0.03),
            (f"exact retro-thresh gap {ex_retro - ex_thresh:.3f} >= 0.03",
             ex_retro - ex_thresh >= 0.03),
            (f"exact retro-fixed gap {ex_retro - ex_fixed:.3f} >= 0.03",
             ex_retro - ex_fixed >= 0.03),
            (f"exact retrospective {ex_retro:.3f} >= reference sampled {s_retro:.3f}",
             ex_retro >= s_retro),
            (f"exact fixed-prior {ex_fixed:.3f} >= reference sampled {s_fixed:.3f}",
             ex_fixed >= s_fixed),
        ])


class TestSampledReadoutOracle:
    """Criterion 3's gap and paired checks rest on ``sampled_map_reference``."""

    @staticmethod
    def _instances(c, n, rng):
        fa = 0.02 + 0.5 * rng.random((n, c))
        miss = 0.02 + 0.5 * rng.random((n, c))
        frames = rng.integers(1, 9, size=n)
        truth = rng.random((n, c)) < 0.5
        counts = rng.binomial(frames[:, None], np.where(truth, 1.0 - miss, fa))
        return counts, frames, fa, miss

    def test_large_sample_vote_is_the_exact_map(self):
        rng = np.random.default_rng(31)
        checked = 0
        for c in (1, 2, 3):
            for lo in (0, 1):
                counts, frames, fa, miss = self._instances(c, 40, rng)
                got = sampled_map_reference(counts, frames, fa, miss, 1.0, lo, c,
                                            c, 20_000, np.random.default_rng(c))
                for i in range(counts.shape[0]):
                    # frame f shows category j iff f < counts[i, j]
                    percepts = [frozenset(j for j in range(c) if f < counts[i, j])
                                for f in range(frames[i])]
                    _, probs = state_posterior_oracle(percepts, fa[i], miss[i],
                                                      1.0, lo, c, c)
                    top = sorted(probs, reverse=True) + [0.0]
                    if top[0] - top[1] < 0.05:
                        continue  # near-ties are decided by sampling noise
                    want = map_state_oracle(percepts, fa[i], miss[i], 1.0, lo, c, c)
                    assert frozenset(np.nonzero(got[i])[0].tolist()) == want
                    checked += 1
        assert checked >= 200

    def test_byte_reproducible_for_a_fixed_seed(self):
        counts, frames, fa, miss = self._instances(3, 50, np.random.default_rng(8))

        def readout(seed):
            return sampled_map_reference(counts, frames, fa, miss, 1.0, 1, 3, 3,
                                         100, np.random.default_rng(seed)).tobytes()

        assert readout(5) == readout(5)


# The exact desk at its own values: the exact default's readouts at corpus
# seed 0, measured on the filter whose particles held point rates moved by
# MH sweeps, each with the band it may worsen by. A band is the range
# (max - min) of that metric over the exact desk at corpus seeds 1-4 on that
# same filter, rounded up in its last digit: the spread between corpora,
# not a chosen tolerance.
EXACT_DESK_FLOORS = {
    # metric: (value at seed 0, band)
    "retrospective": (0.922, 0.00415),
    "online t=1": (0.848, 0.018),
    "online t=40": (0.911, 0.008),
    "online t=75": (0.927, 0.009),
}
EXACT_DESK_CEILINGS = {
    "MSE fa t=40": (0.00051, 5.7e-06),
    "MSE miss t=40": (0.00121, 8.65e-05),
    "MSE combined t=40": (0.00086, 4.04e-05),
}


class TestExactDeskRegression:
    """Criteria 1-3 bound the exact desk only by the sampler; this bounds it
    by its own values, so a regression smaller than that gap shows."""

    def test_exact_desk_holds_its_values(self, desk):
        fa, miss, combined = desk.mse_by_t[40]
        got = {
            "retrospective": desk.summary[MODEL_RETRO][0],
            "online t=1": desk.accuracy_by_t[1][MODEL_ONLINE],
            "online t=40": desk.accuracy_by_t[40][MODEL_ONLINE],
            "online t=75": desk.accuracy_by_t[75][MODEL_ONLINE],
            "MSE fa t=40": fa,
            "MSE miss t=40": miss,
            "MSE combined t=40": combined,
        }
        checks = [(f"{name} {got[name]:.6g} >= {value} - {band}", got[name] >= value - band)
                  for name, (value, band) in EXACT_DESK_FLOORS.items()]
        checks += [(f"{name} {got[name]:.6g} <= {value} + {band}", got[name] <= value + band)
                   for name, (value, band) in EXACT_DESK_CEILINGS.items()]
        failed = [desc for desc, ok in checks if not ok]
        assert not failed, "exact desk regressed: " + "; ".join(failed)


class TestCriterion4FittedThreshold:
    def test_fitted_threshold(self, desk):
        acc, theta = desk.summary["fitted_threshold"]
        retro = desk.summary[MODEL_RETRO][0]
        _verdict(4, "fitted threshold", [
            (f"theta {theta:.2f} in [0.50, 0.60]", 0.50 <= theta <= 0.60),
            (f"accuracy {acc:.3f} in 0.831±0.025", abs(acc - 0.831) <= 0.025),
            (f"below retrospective {retro:.3f}", acc < retro),
        ])


class TestCriterion5NoiseRegime:
    def test_noise_windows(self, desk):
        zeta = np.array([z for r in desk.results for z in r.zeta])
        bits = {m: np.array([world_state_accuracy(w, s) for r in desk.results
                             for w, s in zip(r.world_states, r.maps[m])])
                for m in (MODEL_RETRO, MODEL_THRESHOLD)}
        points = rolling_accuracy_by_noise(zeta, bits)
        gaps = [(p.zeta, p.accuracy[MODEL_RETRO] - p.accuracy[MODEL_THRESHOLD])
                for p in points if 0.25 <= p.zeta <= 0.45]
        peak_zeta, peak_gap = max(gaps, key=lambda zg: zg[1])
        low = zeta <= 0.15
        low_acc = float(bits[MODEL_THRESHOLD][low].mean())
        _verdict(5, "noise regime", [
            (f"peak gap {peak_gap:.3f} at zeta={peak_zeta:.2f} >= 0.25",
             peak_gap >= 0.25),
            (f"threshold accuracy {low_acc:.3f} on zeta in [0, 0.15] >= 0.95",
             low_acc >= 0.95),
        ])


class TestCriterion6ChanceAccuracy:
    def test_constant_and_monte_carlo(self, rng):
        value = chance_accuracy(5, 1.0, (1, 5))
        four_dp = abs(value - 0.0774) < 5e-5
        pmf = truncated_poisson_pmf_oracle(1.0, 1, 5)
        total = 10_000_000
        hits = 0
        for _ in range(10):
            n = total // 10
            def codes():
                ns = rng.choice(list(pmf.keys()), p=list(pmf.values()), size=n)
                order = np.argsort(rng.random((n, 5)), axis=1)
                present = np.zeros((n, 5), dtype=bool)
                rows = np.arange(n)
                for j in range(5):
                    sel = ns > j
                    present[rows[sel], order[sel, j]] = True
                return present @ (1 << np.arange(5))
            hits += int((codes() == codes()).sum())
        rate = hits / total
        se = math.sqrt(value * (1.0 - value) / total)
        _verdict(6, "chance accuracy", [
            (f"closed form {value:.6f} = 0.0774 to 4 dp", four_dp),
            (f"MC {rate:.6f} within 3se ({3 * se:.6f})", abs(rate - value) <= 3 * se),
        ])


class TestCriterion7OracleEquivalence:
    def test_small_instance_equivalence(self):
        # Resampling is off, so particle m keeps its index: its log weight
        # must be the sum of its exact log predictives, and each step's
        # beliefs its exact state posterior, both under the Beta counts of
        # the states it drew before (a frame-by-frame Polya-urn oracle).
        rng = np.random.default_rng(777)
        weight_err = 0.0
        belief_err = 0.0
        map_mismatches = 0
        checked = 0
        for trial in range(200):
            c = int(rng.integers(1, 4))
            prior = PriorConfig(count_bounds=(1, c))
            lo, hi = prior.count_bounds
            n_obs = int(rng.integers(1, 5))
            observations = []
            for _ in range(n_obs):
                f = int(rng.integers(1, 6))
                percepts = [frozenset(int(x) for x in
                                      np.nonzero(rng.random(c) < 0.4)[0])
                            for _ in range(f)]
                observations.append(Observation(tuple(percepts)))
            cfg = ParticleFilterConfig(num_particles=6, seed=trial,
                                       ess_resample_threshold=1e-9)
            ens = init_ensemble(cfg, prior, c)
            beliefs, scenes = [], []
            stats = DetectionStats.from_observations(observations, c)
            for t in range(len(stats)):
                assimilate_observation(ens, stats[t])
                beliefs.append(ens.beliefs.copy())
                scenes.append([frozenset(np.flatnonzero(mask).tolist())
                               for mask in ens.scenes])
            for m in range(6):
                path = urn_path_oracle([list(o.percepts) for o in observations],
                                       [drawn[m] for drawn in scenes],
                                       prior.beta_alpha, prior.beta_beta, 1.0, lo, hi, c)
                expected = sum(log_predictive for _, log_predictive in path)
                weight_err = max(weight_err, abs(ens.log_weights[m] - expected))
                for step, (probs, _) in zip(beliefs, path):
                    belief_err = max(belief_err, float(np.max(np.abs(step[m] - probs))))
            v_mu = VisualSystem(fa=0.02 + 0.5 * rng.random(c),
                                miss=0.02 + 0.5 * rng.random(c))
            got = retrospective_infer(v_mu, stats, prior)
            want = [map_state_oracle(list(o.percepts), v_mu.fa, v_mu.miss,
                                     1.0, lo, hi, c) for o in observations]
            map_mismatches += sum(g != w for g, w in zip(got, want))
            checked += len(observations)
        _verdict(7, "brute-force oracle equivalence (200 instances)", [
            (f"max weight log-error {weight_err:.2e} <= 1e-10", weight_err <= 1e-10),
            (f"max belief error {belief_err:.2e} <= 1e-10", belief_err <= 1e-10),
            (f"{map_mismatches} MAP mismatches over {checked}", map_mismatches == 0),
        ])


class TestCriterion8McmcCorrectness:
    def test_chain_recovers_grid_posterior(self):
        from detcal.core import beta_log_density
        prior = PriorConfig(count_bounds=(1, 1))
        history = DetectionStats(counts=[[7], [9], [6]], frame_count=[10, 12, 8])
        cfg = ParticleFilterConfig(num_particles=2, seed=0)
        rng = np.random.default_rng(4242)
        particle = Particle(
            v_hat=VisualSystem(fa=np.array([0.2]), miss=np.array([0.2])),
            world_beliefs=[], log_weight=0.0)
        for _ in range(2_000):
            particle = rejuvenate(particle, history, cfg, prior, rng)
        samples = np.empty(100_000)
        for i in range(samples.size):
            particle = rejuvenate(particle, history, cfg, prior, rng)
            samples[i] = particle.v_hat.miss[0]
        grid = np.linspace(1e-7, 1 - 1e-7, 4001)
        logp = beta_log_density(grid, prior.beta_alpha, prior.beta_beta)
        for k, f in zip(history.counts[:, 0].tolist(), history.frame_count.tolist()):
            logp = logp + k * np.log1p(-grid) + (f - k) * np.log(grid)
        w = np.exp(logp - logp.max())
        w /= w.sum()
        edges = np.linspace(0.0, 1.0, 41)
        hist, _ = np.histogram(samples, bins=edges)
        hist = hist / hist.sum()
        idx = np.clip(np.digitize(grid, edges) - 1, 0, 39)
        ref = np.bincount(idx, weights=w, minlength=40)
        tv = 0.5 * float(np.abs(hist - ref).sum())
        _verdict(8, "MCMC posterior recovery (1e5 samples)", [
            (f"total variation {tv:.4f} < 0.05", tv < 0.05),
        ])


class TestCriterion9NormalizationSuite:
    def test_normalizations(self, rng):
        from itertools import chain, combinations
        from detcal.core import StateSpace, pinned_terms
        worst_percept = 0.0
        for c in (1, 2, 3, 4):
            v = VisualSystem(fa=rng.random(c), miss=rng.random(c))
            mask = rng.random(c) < 0.5
            total = 0.0
            for sub in chain.from_iterable(
                    combinations(range(c), n) for n in range(c + 1)):
                counts = np.zeros(c, dtype=int)
                counts[list(sub)] = 1
                stats = DetectionStats(counts=counts, frame_count=1)
                terms = pinned_terms(stats.counts, stats.frame_count, v.fa, v.miss)
                total += math.exp(np.where(mask, *terms).sum())
            worst_percept = max(worst_percept, abs(total - 1.0))
        prior_total = sum(math.exp(x) for x in StateSpace.build(PriorConfig(), 5).log_prior)
        zeta_ok = True
        for _ in range(200):
            c = int(rng.integers(1, 6))
            w = frozenset(int(x) for x in np.nonzero(rng.random(c) < 0.5)[0])
            percepts = [frozenset(int(x) for x in np.nonzero(rng.random(c) < 0.5)[0])
                        for _ in range(int(rng.integers(1, 6)))]
            [z] = observation_noise(
                [w], DetectionStats.from_observations([Observation(tuple(percepts))], c))
            zeta_ok = zeta_ok and 0.0 <= z <= 1.0
        v = VisualSystem(fa=rng.random(5), miss=rng.random(5))
        identity = meta_mse(v, v) == (0.0, 0.0, 0.0)
        _verdict(9, "normalization suite", [
            (f"percept distribution sums to 1 (worst {worst_percept:.1e})",
             worst_percept <= 1e-10),
            (f"state prior sums to 1 ({prior_total:.15f})",
             abs(prior_total - 1.0) <= 1e-10),
            ("zeta within [0,1] on 200 random cases", zeta_ok),
            ("meta_mse identity is exactly zero", identity),
        ])


class TestCriterion10Determinism:
    def test_pipeline_bytes_are_reproducible(self, tmp_path):
        base = ["--systems", "6", "--world-states", "8", "--particles", "20",
                "--seed", "123"]

        def pipeline(tag, jobs):
            d = tmp_path / tag
            d.mkdir()
            corpus = d / "corpus.jsonl"
            results = d / "results.jsonl"
            report = d / "report"
            for cmd in (
                    ["synth", "--out", str(corpus), *base],
                    ["run", str(corpus), "--out", str(results), *base,
                     "--jobs", str(jobs)],
                    ["report", str(results), "--out", str(report),
                     "--error-map", "run-00003"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "detcal.cli", *cmd],
                    capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
            table_bytes = {p.name: p.read_bytes()
                           for p in sorted(report.iterdir())}
            return corpus.read_bytes(), results.read_bytes(), table_bytes

        a = pipeline("a", jobs=1)
        b = pipeline("b", jobs=1)
        c = pipeline("c", jobs=2)
        same_rerun = a == b
        same_jobs = a == c
        _verdict(10, "end-to-end byte determinism", [
            ("identical rerun bytes (corpus, results, tables)", same_rerun),
            ("identical bytes at --jobs 1 vs --jobs 2", same_jobs),
        ])
