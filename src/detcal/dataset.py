"""Benchmark synthesis, corpus persistence, and external percept ingestion.

A corpus is a line-delimited UTF-8 file: one header record followed by one
record per run. Rates are stored as a flat 2C float array [fa..., miss...];
world states and percepts as sorted category-index arrays. The layout is
streamable, so corpora far larger than memory write and read in O(1).

External percept logs use one record per frame with fields
``observation_id`` (string), ``frame_index`` (integer) and ``labels``
(array of category-name strings); frames of one observation are assumed to
show the same scene, which is the caller's responsibility to guarantee.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Observation,
    PriorConfig,
    VisualSystem,
    render_percepts,
    sample_visual_system,
    sample_world_state,
)

SCHEMA_VERSION = 1

# Seed-derivation streams: world synthesis and inference must never share
# a stream even when they share a root seed.
SYNTH_STREAM = 0
INFER_STREAM = 1


class CorpusFormatError(ValueError):
    """A corpus file does not match the expected record layout."""


class PerceptFormatError(ValueError):
    """An external percept file does not match the expected record layout."""


def run_seed(root_seed: int, index: int) -> np.random.SeedSequence:
    """Seed material for run `index`; identical standalone or in a stream."""
    return np.random.SeedSequence(root_seed, spawn_key=(SYNTH_STREAM, index))


def inference_seed(root_seed: int, index: int) -> np.random.SeedSequence:
    """Seed material for the filter on run `index` (separate stream)."""
    return np.random.SeedSequence(root_seed, spawn_key=(INFER_STREAM, index))


@dataclass
class Run:
    """One synthesized system: its true rates and everything it perceived."""

    run_id: str
    v_true: VisualSystem
    world_states: list
    observations: list
    seed: list | None = None

    def __post_init__(self):
        if len(self.world_states) != len(self.observations):
            raise ValueError("world_states and observations must be parallel lists")

    def to_record(self) -> dict:
        return {
            "record": "run",
            "run_id": self.run_id,
            "seed": self.seed,
            "v_true": self.v_true.as_flat().tolist(),
            "world_states": [sorted(w) for w in self.world_states],
            "observations": [[sorted(p) for p in o.percepts] for o in self.observations],
        }

    @classmethod
    def from_record(cls, rec: dict, num_categories: int) -> "Run":
        """The run of a corpus record whose header says ``num_categories``.

        Raises ValueError when its run_id is not a string, its rates are not
        2C long, it holds no observations, or a world state or percept names
        anything but an integer category index in [0, C).
        """
        def categories(indices) -> frozenset:
            for c in indices:
                # not isinstance: a JSON true is an int, and would index
                # every category at once
                if type(c) is not int or not 0 <= c < num_categories:
                    raise ValueError(f"category index {c!r} is not an integer "
                                     f"in 0..{num_categories - 1}")
            return frozenset(indices)

        if not isinstance(rec["run_id"], str):
            raise ValueError(f"run_id must be a string, got {rec['run_id']!r}")
        run = cls(
            run_id=rec["run_id"],
            v_true=VisualSystem.from_flat(rec["v_true"]),
            world_states=[categories(w) for w in rec["world_states"]],
            observations=[Observation(tuple(categories(p) for p in frames))
                          for frames in rec["observations"]],
            seed=rec.get("seed"),
        )
        if run.v_true.num_categories != num_categories:
            raise ValueError(f"v_true holds rates of {run.v_true.num_categories} "
                             f"categories, the corpus has {num_categories}")
        if not run.observations:
            raise ValueError("the run holds no observations")
        return run


@dataclass
class Corpus:
    """Shared synthesis settings plus a (possibly lazy) sequence of runs."""

    prior: PriorConfig
    num_categories: int
    runs: object
    num_systems: int | None = None
    world_states_per_system: int | None = None
    root_seed: int | None = None


def synthesize_run(prior: PriorConfig, num_categories: int,
                   world_state_count: int, rng: np.random.Generator,
                   run_id: str = "run-00000", seed: list | None = None) -> Run:
    """Draw one system and its percepts from ``rng`` alone.

    The order of the draws fixes a corpus's bytes, and any batching must
    keep it: the 2C rates first (``sample_visual_system``), then per world
    state the count uniform, the category choice, the frame count F
    (uniform over frames_bounds) and F x C detection uniforms, row by row.
    """
    v_true = sample_visual_system(prior, num_categories, rng)
    flo, fhi = prior.frames_bounds
    world_states = []
    observations = []
    for _ in range(world_state_count):
        world = sample_world_state(prior, num_categories, rng)
        frames = int(rng.integers(flo, fhi + 1))
        world_states.append(world)
        observations.append(Observation(render_percepts(world, v_true, frames, rng)))
    return Run(run_id=run_id, v_true=v_true, world_states=world_states,
               observations=observations, seed=seed)


def synthesize_corpus(num_systems: int, prior: PriorConfig, num_categories: int,
                      root_seed: int, world_states_per_system: int = 75):
    """Lazily yield runs with per-run seeds derived from (root_seed, index)."""
    if num_systems < 1:
        raise ValueError("num_systems must be >= 1")
    for i in range(num_systems):
        rng = np.random.default_rng(run_seed(root_seed, i))
        yield synthesize_run(prior, num_categories, world_states_per_system, rng,
                             run_id=f"run-{i:05d}", seed=[root_seed, i])


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def parse_record(line, kind: str) -> dict:
    """The JSON object on ``line``, checked to be a ``kind`` record.

    Raises ValueError (json.JSONDecodeError included) for anything else,
    such as invalid JSON, an array, or another record type.
    """
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError(f"expected a {kind!r} record, got a JSON {type(rec).__name__}")
    if rec.get("record") != kind:
        raise ValueError(f"expected a {kind!r} record, got {rec.get('record')!r}")
    return rec


def text_lines(path, error):
    """The lines of the UTF-8 file at ``path``, read lazily.

    A missing file or a byte sequence that is not UTF-8 raises ``error``
    naming the file, so each caller's error class picks the exit code.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except FileNotFoundError as exc:
        raise error(f"{path}: file not found") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_whole(path: Path, chunks) -> None:
    """Replace ``path`` whole with the text ``chunks`` yield, streamed to a
    temp file beside it that is fsynced and renamed into place; if the write
    fails the temp file is removed and ``path`` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def corpus_header(prior: PriorConfig, num_categories: int, num_systems: int,
                  world_states_per_system: int, root_seed: int) -> dict:
    return {
        "record": "corpus",
        "schema_version": SCHEMA_VERSION,
        "num_categories": num_categories,
        "num_systems": num_systems,
        "world_states_per_system": world_states_per_system,
        "root_seed": root_seed,
        "prior": {
            "beta_alpha": prior.beta_alpha,
            "beta_beta": prior.beta_beta,
            "poisson_lambda": prior.poisson_lambda,
            "count_bounds": list(prior.count_bounds),
            "frames_bounds": list(prior.frames_bounds),
        },
    }


def write_corpus(path, prior: PriorConfig, num_categories: int, num_systems: int,
                 root_seed: int, world_states_per_system: int = 75) -> None:
    """Synthesize and stream a corpus to disk whole, one run per line."""
    path = Path(path)
    header = corpus_header(prior, num_categories, num_systems,
                           world_states_per_system, root_seed)
    index = -1

    def lines():
        nonlocal index
        yield _dump(header) + "\n"
        for index, run in enumerate(synthesize_corpus(
                num_systems, prior, num_categories, root_seed,
                world_states_per_system)):
            yield _dump(run.to_record()) + "\n"

    try:
        write_whole(path, lines())
    except OSError as exc:
        raise OSError(f"corpus write failed at run index {index + 1}: {exc}") from exc


def _parse_header(line: str, path) -> Corpus:
    try:
        rec = parse_record(line, "corpus")
    except ValueError as exc:
        raise CorpusFormatError(f"{path} line 1: bad corpus header ({exc})") from exc
    if rec.get("schema_version") != SCHEMA_VERSION:
        raise CorpusFormatError(
            f"{path} line 1: unsupported schema_version {rec.get('schema_version')}")
    try:
        p = rec["prior"]
        prior = PriorConfig(
            beta_alpha=p["beta_alpha"], beta_beta=p["beta_beta"],
            poisson_lambda=p["poisson_lambda"],
            count_bounds=tuple(p["count_bounds"]),
            frames_bounds=tuple(p["frames_bounds"]))
        num_categories = rec["num_categories"]
    except KeyError as exc:
        raise CorpusFormatError(f"{path} line 1: corpus header lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{path} line 1: bad corpus header ({exc})") from exc
    if type(num_categories) is not int or num_categories < 1:
        raise CorpusFormatError(f"{path} line 1: num_categories must be a positive "
                                f"integer, got {num_categories!r}")
    return Corpus(prior=prior, num_categories=num_categories, runs=None,
                  num_systems=rec.get("num_systems"),
                  world_states_per_system=rec.get("world_states_per_system"),
                  root_seed=rec.get("root_seed"))


def read_corpus(path) -> Corpus:
    """Open a corpus file; `runs` is a lazy generator over its run records."""
    path = Path(path)
    corpus = _parse_header(next(text_lines(path, CorpusFormatError), ""), path)

    def _iter_runs():
        for lineno, line in enumerate(text_lines(path, CorpusFormatError), start=1):
            if lineno == 1 or not line.strip():
                continue
            try:
                yield Run.from_record(parse_record(line, "run"), corpus.num_categories)
            except (ValueError, KeyError, TypeError) as exc:
                raise CorpusFormatError(
                    f"{path} line {lineno}: bad run record ({exc})") from exc

    corpus.runs = _iter_runs()
    return corpus


# ---------------------------------------------------------------------------
# External percept logs
# ---------------------------------------------------------------------------

def default_vocabulary(num_categories: int) -> list:
    return [f"cat{i:02d}" for i in range(num_categories)]


def write_percepts(path, observations, vocabulary,
                   observation_ids=None) -> None:
    """Export observations to the frame-per-line external format."""
    path = Path(path)
    if observation_ids is None:
        observation_ids = [f"obs-{i:05d}" for i in range(len(observations))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obs_id, obs in zip(observation_ids, observations):
            for frame_index, percept in enumerate(obs.percepts):
                rec = {
                    "observation_id": obs_id,
                    "frame_index": frame_index,
                    "labels": [vocabulary[c] for c in sorted(percept)],
                }
                fh.write(_dump(rec) + "\n")


def ingest_percept_groups(path, vocabulary) -> list:
    """Parse an external percept log into (observation_id, Observation) pairs.

    Frames are grouped by observation_id (groups ordered by first
    appearance, frames by frame_index). Unknown labels, malformed records
    and duplicate frame indices raise PerceptFormatError naming the line.
    """
    path = Path(path)
    index_of = {name: i for i, name in enumerate(vocabulary)}
    groups: dict = {}
    for lineno, line in enumerate(text_lines(path, PerceptFormatError), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise PerceptFormatError(f"{path} line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(rec, dict):
            raise PerceptFormatError(f"{path} line {lineno}: expected an object")
        try:
            obs_id = rec["observation_id"]
            frame_index = rec["frame_index"]
            labels = rec["labels"]
        except KeyError as exc:
            raise PerceptFormatError(f"{path} line {lineno}: missing field {exc}") from exc
        if not isinstance(obs_id, str) or type(frame_index) is not int \
                or not isinstance(labels, list):
            raise PerceptFormatError(f"{path} line {lineno}: wrong field types")
        detected = set()
        for label in labels:
            if label not in index_of:
                raise PerceptFormatError(
                    f"{path} line {lineno}: unknown label {label!r} "
                    f"(not in the {len(vocabulary)}-name vocabulary)")
            detected.add(index_of[label])
        frames = groups.setdefault(obs_id, {})
        if frame_index in frames:
            raise PerceptFormatError(
                f"{path} line {lineno}: duplicate frame_index {frame_index} "
                f"for observation {obs_id!r}")
        frames[frame_index] = frozenset(detected)
    if not groups:
        raise PerceptFormatError(f"{path}: no percept records found")
    out = []
    for obs_id, frames in groups.items():
        percepts = tuple(frames[i] for i in sorted(frames))
        out.append((obs_id, Observation(percepts)))
    return out
