"""Output checks for the benchmark, computed apart from the program.

Nothing here imports detcal. Scenes are scored by brute force over every
subset of the categories, straight from the generative model: a truncated
Poisson scene size, a uniform subset of that size, and independent
per-category detections with false-alarm rate fa and miss rate miss. Every
check returns a list of error strings; an empty list means the outputs
passed.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

# Scores closer than this to the best one count as ties.
TIE_TOL = 1e-9
FLOAT_TOL = 1e-9


class Truth:
    """The generating truth of one synthesized system."""

    def __init__(self, run_id, v_true, world_states, observations):
        self.run_id = run_id
        self.v_true = [float(x) for x in v_true]
        self.world_states = [frozenset(w) for w in world_states]
        self.observations = observations  # per scene: list of percept index lists


def read_corpus(path):
    """(header, [Truth]) from a corpus file written by `detcal synth`."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        runs = [json.loads(line) for line in fh if line.strip()]
    return header, [Truth(r["run_id"], r["v_true"], r["world_states"], r["observations"])
                    for r in runs]


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_summary(path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["model"]: row for row in csv.DictReader(fh)}


def counts_of(observation, num_categories):
    """(detection count per category, frame count) of one scene's percepts."""
    counts = [0] * num_categories
    for percept in observation:
        for c in percept:
            counts[c] += 1
    return counts, len(observation)


class SceneScorer:
    """Brute-force log P(scene, percepts | rates) over every valid scene."""

    def __init__(self, num_categories, prior):
        self.c = num_categories
        lo, hi = prior["count_bounds"]
        lam = prior["poisson_lambda"]
        sizes = range(lo, min(hi, num_categories) + 1)
        weight = {n: n * math.log(lam) - lam - math.lgamma(n + 1) for n in sizes}
        norm = math.log(sum(math.exp(w) for w in weight.values()))
        self.states = [frozenset(s) for n in sizes
                       for s in combinations(range(num_categories), n)]
        self.presence = np.array([[c in s for c in range(num_categories)]
                                  for s in self.states], dtype=float)
        self.log_prior = np.array([weight[len(s)] - norm - math.log(math.comb(num_categories, len(s)))
                                   for s in self.states])

    def scores(self, counts, frames, rates):
        """(N, S) log joint of N scenes' detection counts under flat rates."""
        k = np.asarray(counts, dtype=float)
        f = np.asarray(frames, dtype=float)[:, None]
        fa = np.asarray(rates[:self.c], dtype=float)
        miss = np.asarray(rates[self.c:], dtype=float)
        present = _xlogy(k, 1.0 - miss) + _xlogy(f - k, miss)
        absent = _xlogy(k, fa) + _xlogy(f - k, 1.0 - fa)
        return present @ self.presence.T + absent @ (1.0 - self.presence).T + self.log_prior

    def index(self, state) -> int:
        return self.states.index(frozenset(state))


def _xlogy(x, y):
    with np.errstate(divide="ignore"):
        return np.where(x == 0, 0.0, x * np.log(np.where(x == 0, 1.0, y)))


def check_maps(label, maps, counts, frames, rates, scorer) -> list:
    """Each map must score within TIE_TOL of the brute-force best scene."""
    scores = scorer.scores(counts, frames, rates)
    best = scores.max(axis=1)
    errors = []
    for t, state in enumerate(maps):
        if frozenset(state) not in scorer.states:
            errors.append(f"{label} scene {t}: {sorted(state)} is not a valid scene")
            continue
        got = scores[t, scorer.index(state)]
        if got < best[t] - TIE_TOL * max(1.0, abs(best[t])):
            want = scorer.states[int(np.argmax(scores[t]))]
            errors.append(f"{label} scene {t}: map {sorted(state)} is not the brute-force "
                          f"MAP {sorted(want)}")
    return errors


def threshold_map(counts, frames, theta=0.5):
    return frozenset(c for c, k in enumerate(counts) if k / frames >= theta - 1e-12)


def mse(v_true, v_hat):
    return sum((a - b) ** 2 for a, b in zip(v_true, v_hat)) / len(v_true)


def accuracy(truth, maps):
    hits = sum(frozenset(w) == frozenset(m) for w, m in zip(truth, maps))
    return hits / len(truth)


def check_run_outputs(corpus_path, results_path, summary_path, models):
    """Check `detcal run` results and `detcal report`'s summary.csv.

    Returns (errors, recounted accuracy per model, filter figures), where
    the figures are online accuracy, the mean rate MSE of the prior mean
    and the mean final rate MSE (None without a filter).
    """
    header, truths = read_corpus(corpus_path)
    c = header["num_categories"]
    prior = header["prior"]
    scorer = SceneScorer(c, prior)
    errors = []
    try:
        results = read_jsonl(results_path)
    except (OSError, ValueError) as exc:
        return [f"results unreadable: {exc}"], {}, None
    if [r.get("run_id") for r in results] != [t.run_id for t in truths]:
        errors.append(f"results hold {len(results)} runs, the corpus {len(truths)}")
        return errors, {}, None

    a, b = prior["beta_alpha"], prior["beta_beta"]
    mode = (a - 1.0) / (a + b - 2.0)
    bits = {m: [] for m in models}
    mse_start, mse_mean, mse_final = [], [], []
    for truth, res in zip(truths, results):
        label = truth.run_id
        if [frozenset(w) for w in res["world_states"]] != truth.world_states:
            errors.append(f"{label}: world states differ from the corpus truth")
        stats = [counts_of(o, c) for o in truth.observations]
        counts = [k for k, _ in stats]
        frames = [f for _, f in stats]
        if res["detect_counts"] != counts or res["frame_counts"] != frames:
            errors.append(f"{label}: detection counts differ from the corpus percepts")
        maps = res["maps"]
        if set(maps) != set(models):
            errors.append(f"{label}: models {sorted(maps)}, expected {sorted(models)}")
            continue
        if "retrospective" in maps:
            errors += check_maps(f"{label} retrospective", maps["retrospective"],
                                 counts, frames, res["v_hat"], scorer)
        if "fixed_prior" in maps:
            errors += check_maps(f"{label} fixed_prior", maps["fixed_prior"],
                                 counts, frames, [mode] * (2 * c), scorer)
        if "threshold" in maps:
            want = [threshold_map(k, f) for k, f in stats]
            if [frozenset(m) for m in maps["threshold"]] != want:
                errors.append(f"{label}: threshold maps differ from frame fraction >= 0.5")
        if "online" in maps:
            final = mse(truth.v_true, res["v_hat"])
            if not math.isclose(final, res["mse_combined"][-1], rel_tol=FLOAT_TOL):
                errors.append(f"{label}: final MSE {res['mse_combined'][-1]} recomputes "
                              f"to {final}")
            mse_start.append(res["mse_combined"][0])
            mse_mean.append(mse(truth.v_true, [a / (a + b)] * (2 * c)))
            mse_final.append(final)
        for m in models:
            bits[m] += [frozenset(w) == frozenset(s)
                        for w, s in zip(truth.world_states, maps[m])]

    recount = {m: sum(v) / len(v) for m, v in bits.items()}
    try:
        summary = read_summary(summary_path)
    except OSError as exc:
        return errors + [f"summary unreadable: {exc}"], recount, None
    for m in models:
        if m not in summary:
            errors.append(f"summary.csv has no {m} row")
        elif not math.isclose(float(summary[m]["accuracy"]), recount[m], abs_tol=1e-12):
            errors.append(f"summary.csv {m} accuracy {summary[m]['accuracy']} != "
                          f"recount {recount[m]}")
    figures = None
    if mse_final:
        start, final = sum(mse_start) / len(mse_start), sum(mse_final) / len(mse_final)
        if not final < start:
            errors.append(f"mean final MSE {final} is not below the prior's {start}")
        figures = (recount["online"], sum(mse_mean) / len(mse_mean), final)
    if "retrospective" in models and not recount["retrospective"] > recount["threshold"]:
        errors.append(f"retrospective accuracy {recount['retrospective']} does not exceed "
                      f"threshold {recount['threshold']}")
    fitted = summary.get("fitted_threshold")
    if fitted is None or float(fitted["accuracy"]) < recount["threshold"]:
        errors.append("fitted threshold is less accurate than theta=0.5")
    return errors, recount, figures


def check_ingest_outputs(truth_path, out_path):
    """Check `detcal ingest` rows against the exported system's truth.

    Returns (errors, retrospective accuracy, (online accuracy, prior-mean
    rate MSE, final rate MSE)).
    """
    truth = json.loads(Path(truth_path).read_text(encoding="utf-8"))
    c = len(truth["vocabulary"])
    scorer = SceneScorer(c, truth["prior"])
    try:
        rows = read_jsonl(out_path)
    except (OSError, ValueError) as exc:
        return [f"inferences unreadable: {exc}"], 0.0, None
    if not rows:
        return ["inferences file is empty"], 0.0, None
    head, rows = rows[0], rows[1:]
    errors = []
    ids = [r.get("observation_id") for r in rows]
    if ids != truth["observation_ids"]:
        return [f"{len(rows)} inference rows do not match the "
                f"{len(truth['observation_ids'])} exported observations"], 0.0, None
    stats = [counts_of(o, c) for o in truth["observations"]]
    counts = [k for k, _ in stats]
    frames = [f for _, f in stats]
    v_hat = head["v_hat"]
    retro = [r["retrospective_map"] for r in rows]
    errors += check_maps("retrospective", retro, counts, frames, v_hat, scorer)
    scores = scorer.scores(counts, frames, v_hat)
    log_norm = np.logaddexp.reduce(scores, axis=1)
    for t, (state, row) in enumerate(zip(retro, rows)):
        if frozenset(state) not in scorer.states:
            continue
        mass = math.exp(scores[t, scorer.index(state)] - log_norm[t])
        if not math.isclose(mass, row["retrospective_map_mass"], rel_tol=FLOAT_TOL):
            errors.append(f"scene {t}: map mass {row['retrospective_map_mass']} != "
                          f"brute force {mass}")
    prior = truth["prior"]
    prior_mean = prior["beta_alpha"] / (prior["beta_alpha"] + prior["beta_beta"])
    mse_prior = mse(truth["v_true"], [prior_mean] * (2 * c))
    mse_final = mse(truth["v_true"], v_hat)
    if not mse_final < mse_prior:
        errors.append(f"final MSE {mse_final} is not below the prior mean's {mse_prior}")
    online = accuracy(truth["world_states"], [r["online_map"] for r in rows])
    return (errors, accuracy(truth["world_states"], retro),
            (online, mse_prior, mse_final))
