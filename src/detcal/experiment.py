"""End-to-end experiment machinery behind the CLI.

Owns the experiment configuration, per-run model evaluation, the results
file format, resumable streaming writes, and the aggregate report tables.
Everything is a pure function of (config, corpus bytes, seed): per-run
filter randomness comes from a seed stream derived from the root seed and
the run's position, so results are byte-identical regardless of worker
count or interruption.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path

import numpy as np

from .baselines import (
    ThresholdPolicy,
    fit_threshold,
    fixed_prior_infer,
    fixed_prior_system,
    threshold_infer,
)
from .core import DetectionStats, PriorConfig
from .dataset import (
    Run,
    SCHEMA_VERSION,
    corpus_header,
    inference_seed,
    parse_record,
    read_corpus,
    text_lines,
    write_whole,
)
from .inference import ParticleFilterConfig, retrospective_infer, run_filter
from .metrics import (
    chance_accuracy,
    meta_mse,
    observation_noise,
    rolling_accuracy_by_noise,
    world_state_accuracy,
)

logger = logging.getLogger(__name__)

MODEL_ONLINE = "online"
MODEL_RETRO = "retrospective"
MODEL_THRESHOLD = "threshold"
MODEL_FIXED_PRIOR = "fixed_prior"
ALL_MODELS = (MODEL_ONLINE, MODEL_RETRO, MODEL_THRESHOLD, MODEL_FIXED_PRIOR)

FITTED_ROW = "fitted_threshold"
FITTED_HOLDOUT_ROW = "fitted_threshold_holdout"
CHANCE_ROW = "chance"


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class InputError(ValueError):
    """Missing or inconsistent input data (CLI exit code 3)."""


def check_models(models) -> None:
    """ConfigError naming every entry of ``models`` that is not a model."""
    unknown = [m for m in models if m not in ALL_MODELS]
    if unknown:
        raise ConfigError(f"unknown models {unknown}; known: {list(ALL_MODELS)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a full experiment; validated before any work starts.

    The prior and filter settings default to PriorConfig's and
    ParticleFilterConfig's defaults.
    """

    num_categories: int = 5
    beta_alpha: float = PriorConfig.beta_alpha
    beta_beta: float = PriorConfig.beta_beta
    poisson_lambda: float = PriorConfig.poisson_lambda
    count_min: int = PriorConfig.count_bounds[0]
    count_max: int = PriorConfig.count_bounds[1]
    frames_min: int = PriorConfig.frames_bounds[0]
    frames_max: int = PriorConfig.frames_bounds[1]
    num_systems: int = 1000
    world_states_per_system: int = 75
    num_particles: int = ParticleFilterConfig.num_particles
    ess_resample_threshold: float = ParticleFilterConfig.ess_resample_threshold
    seed: int = 0
    models: tuple = ALL_MODELS
    jobs: int = 1

    def __post_init__(self):
        try:
            self.prior()
            self.filter_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.num_categories < 1:
            raise ConfigError("num_categories must be >= 1")
        if self.count_max > self.num_categories:
            raise ConfigError(
                f"count_max {self.count_max} exceeds num_categories {self.num_categories}")
        if self.num_systems < 1:
            raise ConfigError("num_systems must be >= 1")
        if self.world_states_per_system < 1:
            raise ConfigError("world_states_per_system must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        check_models(self.models)
        if MODEL_RETRO in self.models and MODEL_ONLINE not in self.models:
            raise ConfigError("the retrospective model needs the online model's "
                              "final estimate; include 'online' in --models")

    def prior(self) -> PriorConfig:
        return PriorConfig(
            beta_alpha=self.beta_alpha, beta_beta=self.beta_beta,
            poisson_lambda=self.poisson_lambda,
            count_bounds=(self.count_min, self.count_max),
            frames_bounds=(self.frames_min, self.frames_max))

    @staticmethod
    def prior_settings(prior: PriorConfig) -> dict:
        """The settings that ``prior()`` turns back into ``prior``."""
        return dict(
            beta_alpha=prior.beta_alpha, beta_beta=prior.beta_beta,
            poisson_lambda=prior.poisson_lambda,
            count_min=prior.count_bounds[0], count_max=prior.count_bounds[1],
            frames_min=prior.frames_bounds[0], frames_max=prior.frames_bounds[1])

    def filter_config(self) -> ParticleFilterConfig:
        return ParticleFilterConfig(
            num_particles=self.num_particles,
            ess_resample_threshold=self.ess_resample_threshold,
            seed=self.seed)

    def echo(self) -> dict:
        out = asdict(self)
        out["models"] = list(self.models)
        return out

    @classmethod
    def from_echo(cls, echo: dict) -> "ExperimentConfig":
        """The config an ``echo()`` was taken from.

        Absent keys take their defaults and unknown keys are ignored.
        """
        names = {f.name for f in fields(cls)}
        values = {k: v for k, v in echo.items() if k in names}
        values["models"] = tuple(values.get("models", ALL_MODELS))
        return cls(**values)


def category_settings(num_categories: int,
                      count_max: int = ExperimentConfig.count_max) -> dict:
    """Settings for ``num_categories`` categories, ``count_max`` clamped to fit."""
    return {"num_categories": num_categories,
            "count_max": min(count_max, num_categories)}


def corpus_settings(corpus_path) -> dict:
    """The settings a corpus header records, as defaults for runs over it."""
    corpus = read_corpus(corpus_path)
    out = {"num_categories": corpus.num_categories,
           **ExperimentConfig.prior_settings(corpus.prior)}
    if corpus.num_systems:
        out["num_systems"] = corpus.num_systems
    if corpus.world_states_per_system:
        out["world_states_per_system"] = corpus.world_states_per_system
    return out


# ---------------------------------------------------------------------------
# Per-run evaluation
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Everything one run produced, enough to rebuild every report table."""

    run_id: str
    num_categories: int
    world_states: list
    frame_counts: list
    detect_counts: list
    zeta: list
    maps: dict = field(default_factory=dict)
    v_true: list | None = None
    v_hat: list | None = None
    mse_fa: list | None = None        # length T+1; index 0 is the prior estimate
    mse_miss: list | None = None
    mse_combined: list | None = None

    @property
    def num_observations(self) -> int:
        return len(self.world_states)

    def stats(self) -> DetectionStats:
        """The run's (T, C) detection counts as one stack."""
        return DetectionStats(counts=self.detect_counts, frame_count=self.frame_counts)

    def to_record(self) -> dict:
        return {
            "record": "result",
            "schema_version": SCHEMA_VERSION,
            "run_id": self.run_id,
            "num_categories": self.num_categories,
            "world_states": [sorted(w) for w in self.world_states],
            "frame_counts": list(self.frame_counts),
            "detect_counts": [list(map(int, k)) for k in self.detect_counts],
            "zeta": list(self.zeta),
            "maps": {m: [sorted(w) for w in states] for m, states in self.maps.items()},
            "v_true": self.v_true,
            "v_hat": self.v_hat,
            "mse_fa": self.mse_fa,
            "mse_miss": self.mse_miss,
            "mse_combined": self.mse_combined,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "RunResult":
        """The result a record holds.

        ValueError unless its run_id is a string, it holds T >= 1
        observations, its counts are a valid (T, C) stack, and its zeta and
        every model's scenes hold T entries and each rate-error series T + 1
        (entry 0 is the prior estimate's).
        """
        if not isinstance(rec["run_id"], str):
            raise ValueError(f"run_id must be a string, got {rec['run_id']!r}")
        if not rec["world_states"]:
            raise ValueError("the result holds no observations")
        result = cls(
            run_id=rec["run_id"],
            num_categories=rec["num_categories"],
            world_states=[frozenset(w) for w in rec["world_states"]],
            frame_counts=list(rec["frame_counts"]),
            detect_counts=[list(k) for k in rec["detect_counts"]],
            zeta=list(rec["zeta"]),
            maps={m: [frozenset(w) for w in states]
                  for m, states in rec["maps"].items()},
            v_true=rec.get("v_true"),
            v_hat=rec.get("v_hat"),
            mse_fa=rec.get("mse_fa"),
            mse_miss=rec.get("mse_miss"),
            mse_combined=rec.get("mse_combined"),
        )
        t, stats = result.num_observations, result.stats()
        if stats.counts.shape != (t, result.num_categories):
            raise ValueError(f"detect_counts must be {t} rows of {result.num_categories}")
        series = [("zeta", result.zeta, t)]
        series += [(f"maps[{m!r}]", scenes, t) for m, scenes in result.maps.items()]
        series += [(name, getattr(result, name), t + 1)
                   for name in ("mse_fa", "mse_miss", "mse_combined")
                   if getattr(result, name) is not None]
        for name, values, length in series:
            if len(values) != length:
                raise ValueError(f"{name} holds {len(values)} entries, not {length}")
        return result


def evaluate_run(run: Run, config: ExperimentConfig, run_index: int) -> RunResult:
    """Run the selected models over one run's observations."""
    prior = config.prior()
    c = config.num_categories
    stats = DetectionStats.from_observations(run.observations, c)
    result = RunResult(
        run_id=run.run_id,
        num_categories=c,
        world_states=list(run.world_states),
        frame_counts=stats.frame_count.tolist(),
        detect_counts=stats.counts.tolist(),
        zeta=observation_noise(run.world_states, stats),
        v_true=run.v_true.as_flat().tolist(),
    )

    if MODEL_ONLINE in config.models:
        rng = np.random.default_rng(inference_seed(config.seed, run_index))
        trace = run_filter(stats, config.filter_config(), prior, c, rng=rng)
        result.maps[MODEL_ONLINE] = list(trace.map_states)
        v_hat = trace.final_estimate
        result.v_hat = v_hat.as_flat().tolist()
        mse = [meta_mse(run.v_true, e) for e in [trace.initial_estimate, *trace.estimates]]
        result.mse_combined, result.mse_fa, result.mse_miss = map(list, zip(*mse))
        if MODEL_RETRO in config.models:
            result.maps[MODEL_RETRO] = retrospective_infer(v_hat, stats, prior)
    if MODEL_THRESHOLD in config.models:
        result.maps[MODEL_THRESHOLD] = threshold_infer(stats)
    if MODEL_FIXED_PRIOR in config.models:
        result.maps[MODEL_FIXED_PRIOR] = fixed_prior_infer(stats, prior)
    return result


# ---------------------------------------------------------------------------
# Results files
# ---------------------------------------------------------------------------

def result_chunk(result: RunResult) -> str:
    """Serialize one run's results as the exact bytes appended to the file."""
    return json.dumps(result.to_record(), separators=(",", ":")) + "\n"


def read_results(path):
    """Yield the RunResult records of a results file."""
    path = Path(path)
    lineno = 0
    for lineno, line in enumerate(text_lines(path, InputError), start=1):
        if not line.strip():
            continue
        try:
            yield RunResult.from_record(parse_record(line, "result"))
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"{path} line {lineno}: bad result record ({exc})") from exc
    if not lineno:
        raise InputError(f"{path}: results file is empty")


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_path(path) -> Path:
    return Path(str(path) + ".manifest.json")


def write_manifest(path, payload: dict) -> None:
    """Replace the manifest of ``path`` whole, so it is never left partial."""
    write_whole(_manifest_path(path),
                [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def read_manifest(path) -> dict | None:
    """The manifest of ``path``, None if there is none; InputError if unreadable."""
    mpath = _manifest_path(path)
    if not mpath.exists():
        return None
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"{mpath}: unreadable manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise InputError(f"{mpath}: a manifest must be a JSON object")
    return manifest


# ---------------------------------------------------------------------------
# Commands (the CLI wraps these)
# ---------------------------------------------------------------------------

def synth_command(config: ExperimentConfig, out_path) -> None:
    """Write a corpus file plus its manifest (config echo and checksum)."""
    from .dataset import write_corpus

    out_path = Path(out_path)
    write_corpus(out_path, config.prior(), config.num_categories,
                 config.num_systems, config.seed,
                 config.world_states_per_system)
    write_manifest(out_path, {
        "kind": "corpus",
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "header": corpus_header(config.prior(), config.num_categories,
                                config.num_systems, config.world_states_per_system,
                                config.seed),
        "sha256": sha256_of(out_path),
    })


def _iter_corpus_lines(path):
    for lineno, line in enumerate(text_lines(path, InputError), start=1):
        if lineno > 1 and line.strip():
            yield lineno, line


_worker_config: ExperimentConfig | None = None


def _worker_init(config: ExperimentConfig) -> None:
    global _worker_config
    _worker_config = config


def _worker_evaluate(task):
    """(chunk, None) on success; (None, reason) for a corrupted record."""
    index, (lineno, line) = task
    try:
        run = Run.from_record(parse_record(line, "run"), _worker_config.num_categories)
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"line {lineno}: bad run record ({exc})"
    result = evaluate_run(run, _worker_config, index)
    return result_chunk(result), None


def _complete_prefix(path: Path):
    """(fully written runs, byte offset after them, last written run_id)."""
    runs = 0
    offset = 0
    last_run_id = None
    with open(path, "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                break
            try:
                rec = parse_record(raw, "result")
            except ValueError:
                break
            offset += len(raw)
            runs += 1
            last_run_id = rec.get("run_id")
    return runs, offset, last_run_id


def _position_after(corpus_path, run_id: str | None) -> int:
    """Corpus position right after the given run_id (0 when None)."""
    if run_id is None:
        return 0
    for index, (_, line) in enumerate(_iter_corpus_lines(corpus_path)):
        try:
            if parse_record(line, "run").get("run_id") == run_id:
                return index + 1
        except ValueError:
            continue
    raise InputError(
        f"results end at run_id {run_id!r}, which the corpus does not contain")


def _without_jobs(manifest: dict) -> dict:
    """The manifest minus the worker count, which never changes the bytes."""
    config = {k: v for k, v in manifest.get("config", {}).items() if k != "jobs"}
    return {**manifest, "config": config}


def run_command(config: ExperimentConfig, corpus_path, out_path):
    """Evaluate every corpus run, streaming results; resumes after a crash.

    Returns (runs computed in this invocation, corrupted records skipped).
    Workers own a seed derived from (config seed, corpus position), and the
    single writer appends chunks in corpus order, so output bytes do not
    depend on the worker count. A rerun, at any worker count, keeps fully
    written runs and continues after the last one; corrupted corpus records
    are skipped with their corpus line logged.
    """
    corpus_path = Path(corpus_path)
    out_path = Path(out_path)
    if MODEL_FIXED_PRIOR in config.models:
        try:
            fixed_prior_system(config.prior(), config.num_categories)
        except ValueError as exc:
            raise ConfigError(
                f"the {MODEL_FIXED_PRIOR} model cannot run under this prior ({exc}); "
                "drop it from --models") from exc
    corpus = read_corpus(corpus_path)
    if corpus.num_categories != config.num_categories:
        raise InputError(
            f"corpus has {corpus.num_categories} categories, config says "
            f"{config.num_categories}")

    manifest = {
        "kind": "results",
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "corpus": corpus_path.name,
        "corpus_sha256": sha256_of(corpus_path),
        "models": list(config.models),
    }
    done = 0
    offset = 0
    start = 0
    previous = read_manifest(out_path)
    if out_path.exists() and previous is not None:
        if _without_jobs(previous) != _without_jobs(manifest):
            raise InputError(
                f"{out_path} was produced with a different config or corpus; "
                "remove it or pick another --out to start fresh")
        done, offset, last_run_id = _complete_prefix(out_path)
        start = _position_after(corpus_path, last_run_id)
        logger.info("resuming: %d runs already complete", done)
    write_manifest(out_path, manifest)

    tasks = ((i, numbered) for i, numbered in enumerate(_iter_corpus_lines(corpus_path))
             if i >= start)
    mode = "r+b" if out_path.exists() else "wb"
    computed = 0
    skipped = 0
    with open(out_path, mode) as fh:
        if mode == "r+b":
            fh.truncate(offset)
            fh.seek(offset)

        def write_all(outcomes):
            nonlocal computed, skipped
            for chunk, error in outcomes:
                if error is not None:
                    skipped += 1
                    logger.error("skipping %s %s", corpus_path, error)
                    continue
                fh.write(chunk.encode("utf-8"))
                computed += 1
                if computed % 100 == 0:
                    fh.flush()
                    logger.info("completed %d runs", done + computed)

        if config.jobs == 1:
            _worker_init(config)
            write_all(_worker_evaluate(t) for t in tasks)
        else:
            ctx = multiprocessing.get_context()
            with ctx.Pool(config.jobs, initializer=_worker_init,
                          initargs=(config,)) as pool:
                write_all(pool.imap(_worker_evaluate, tasks, chunksize=1))
    if skipped:
        logger.error("%d corrupted corpus record(s) were skipped", skipped)
    return computed, skipped


def ingest_command(config: ExperimentConfig, percepts_path, vocabulary,
                   out_path) -> None:
    """Filter externally logged percepts and emit corrected inferences.

    Runs the online filter over the ingested observations, then re-infers
    every world state under the final rate estimate; each output row holds
    the online and retrospective MAP states plus the posterior mass of the
    retrospective one. The output is renamed into place whole before its
    manifest is written, so a failed write leaves no partial pair.
    """
    from .dataset import ingest_percept_groups

    out_path = Path(out_path)
    groups = ingest_percept_groups(percepts_path, vocabulary)
    c = len(vocabulary)
    config = replace(config, **category_settings(c, config.count_max))
    prior = config.prior()
    stats = DetectionStats.from_observations([obs for _, obs in groups], c)
    rng = np.random.default_rng(inference_seed(config.seed, 0))
    trace = run_filter(stats, config.filter_config(), prior, c, rng=rng)
    v_hat = trace.final_estimate
    from .inference import retrospective_map_with_mass
    retro = retrospective_map_with_mass(v_hat, stats, prior)

    head = {"record": "inferences", "schema_version": SCHEMA_VERSION,
            "v_hat": v_hat.as_flat().tolist(),
            "vocabulary": list(vocabulary)}
    rows = [{"record": "inference", "obs_index": t + 1,
             "observation_id": obs_id,
             "online_map": sorted(trace.map_states[t]),
             "retrospective_map": sorted(state),
             "retrospective_map_mass": mass}
            for t, ((obs_id, _), (state, mass)) in enumerate(zip(groups, retro))]
    write_whole(out_path, (json.dumps(rec, separators=(",", ":")) + "\n"
                           for rec in [head, *rows]))
    write_manifest(out_path, {
        "kind": "inferences",
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "vocabulary": list(vocabulary),
        "v_hat": v_hat.as_flat().tolist(),
    })


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _means_by_index(series) -> list:
    """(mean, count) at each index, over the sequences long enough to reach it."""
    depth = max(len(s) for s in series)
    columns = ([s[t] for s in series if len(s) > t] for t in range(depth))
    return [(float(np.mean(values)), len(values)) for values in columns]


def report_command(results_paths, out_dir, models=None,
                   error_map_run: str | None = None) -> dict:
    """Aggregate results into the four report tables plus a summary.

    Tables: estimate MSE by observation index (row 0 is the prior
    baseline), accuracy by observation index per model, rolling accuracy by
    observation noise per model, and the retrospective-minus-threshold
    accuracy gap by noise. The summary adds overall accuracies, the fitted
    threshold (same-corpus and a half-split holdout) and the analytic
    chance accuracy, under the prior of the first results file that has a
    manifest (the default prior when none has). Returns {table name: path}.
    """
    if models is not None:
        check_models(models)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    prior = None
    for path in results_paths:
        path = Path(path)
        if prior is None:
            manifest = read_manifest(path)
            if manifest is not None:
                try:
                    prior = ExperimentConfig.from_echo(manifest.get("config", {})).prior()
                except (ConfigError, TypeError) as exc:
                    raise InputError(f"{path}: manifest config is invalid ({exc})") from exc
        results.extend(read_results(path))
    if not results:
        raise InputError("no run results found in the given files")
    category_counts = sorted({r.num_categories for r in results})
    if len(category_counts) > 1:
        raise InputError(f"results mix runs of {category_counts} categories")
    # aggregation must not depend on input order (float sums, holdout split)
    results.sort(key=lambda r: r.run_id)
    if prior is None:
        prior = PriorConfig()

    present = [m for m in ALL_MODELS if all(m in r.maps for r in results)]
    if models is None:
        models = present
    missing = [m for m in models if m not in present]
    if missing:
        raise InputError(f"results are missing model columns: {missing}")

    # per model, each run's 0/1 exact-match score of every observation
    scores = {m: [[world_state_accuracy(w, s) for w, s in zip(r.world_states, r.maps[m])]
                  for r in results] for m in models}
    pooled = {m: [bit for bits in scores[m] for bit in bits] for m in models}
    paths = {}

    # A: estimate error by observation index (row 0 = prior baseline)
    with_mse = [r for r in results if r.mse_fa is not None]
    if MODEL_ONLINE in models and with_mse:
        fa = _means_by_index([r.mse_fa for r in with_mse])
        miss = _means_by_index([r.mse_miss for r in with_mse])
        comb = _means_by_index([r.mse_combined for r in with_mse])
        rows = [[t, f, m, c, n]
                for t, ((f, n), (m, _), (c, _)) in enumerate(zip(fa, miss, comb))]
        paths["mse_by_observation"] = out_dir / "mse_by_observation.csv"
        _write_table(paths["mse_by_observation"],
                     ["observation_index", "mse_fa", "mse_miss", "mse_combined",
                      "run_count"], rows)

    # B: accuracy by observation index
    if not models:
        raise InputError("no models present in the results to aggregate")
    columns = [_means_by_index(scores[m]) for m in models]
    rows = [[t + 1, *(mean for mean, _ in cells), cells[-1][1]]
            for t, cells in enumerate(zip(*columns))]
    paths["accuracy_by_observation"] = out_dir / "accuracy_by_observation.csv"
    _write_table(paths["accuracy_by_observation"],
                 ["observation_index"] + list(models) + ["run_count"], rows)

    # C: rolling accuracy by noise
    points = rolling_accuracy_by_noise([z for r in results for z in r.zeta], pooled)
    paths["accuracy_by_noise"] = out_dir / "accuracy_by_noise.csv"
    _write_table(paths["accuracy_by_noise"],
                 ["zeta"] + list(models) + ["observation_count"],
                 [[p.zeta] + [p.accuracy[m] for m in models] + [p.count]
                  for p in points])

    # D: retrospective-minus-threshold gap by noise
    if MODEL_RETRO in models and MODEL_THRESHOLD in models:
        paths["noise_gap"] = out_dir / "noise_gap.csv"
        _write_table(paths["noise_gap"],
                     ["zeta", "accuracy_gap", "observation_count"],
                     [[p.zeta, p.accuracy[MODEL_RETRO] - p.accuracy[MODEL_THRESHOLD],
                       p.count] for p in points])

    # summary: overall accuracies, fitted thresholds, chance
    rows = []
    total_obs = sum(r.num_observations for r in results)
    for m in models:
        theta = ThresholdPolicy().theta if m == MODEL_THRESHOLD else ""
        rows.append([m, float(np.mean(pooled[m])), theta, total_obs])

    stats = DetectionStats(counts=[k for r in results for k in r.detect_counts],
                           frame_count=[f for r in results for f in r.frame_counts])
    truth = [w for r in results for w in r.world_states]
    theta, acc = fit_threshold(stats, truth)
    rows.append([FITTED_ROW, acc, theta, total_obs])
    if len(results) >= 2:
        # the first half of the runs fits theta, the rest scores it
        cut = sum(r.num_observations for r in results[:len(results) // 2])
        theta_h, _ = fit_threshold(stats[:cut], truth[:cut])
        guesses = threshold_infer(stats[cut:], ThresholdPolicy(theta=theta_h))
        bits = [world_state_accuracy(w, g) for w, g in zip(truth[cut:], guesses)]
        rows.append([FITTED_HOLDOUT_ROW, float(np.mean(bits)), theta_h, len(bits)])
    lo, hi = prior.count_bounds
    rows.append([CHANCE_ROW,
                 chance_accuracy(results[0].num_categories,
                                 prior.poisson_lambda, (lo, hi)), "", ""])
    paths["summary"] = out_dir / "summary.csv"
    _write_table(paths["summary"], ["model", "accuracy", "theta", "n_observations"],
                 rows)

    if error_map_run is not None:
        match = [r for r in results if r.run_id == error_map_run]
        if not match:
            raise InputError(f"run_id {error_map_run!r} not found in results")
        paths["error_map"] = out_dir / f"error_map_{error_map_run}.csv"
        _write_table(paths["error_map"],
                     ["model", "observation_index", "category", "status"],
                     _error_map_rows(match[0], models))
    return paths


def _error_map_rows(result: RunResult, models) -> list:
    rows = []
    for m in models:
        for t, (truth, guess) in enumerate(zip(result.world_states, result.maps[m])):
            for cat in range(result.num_categories):
                if cat in truth:
                    status = "correct" if cat in guess else "missed"
                else:
                    status = "false_alarm" if cat in guess else "correct"
                rows.append([m, t + 1, cat, status])
    return rows
