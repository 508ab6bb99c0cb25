"""Command-line driver: synthesize corpora, run models, report, ingest.

Data goes to the paths given by --out; progress and diagnostics go to
stderr. Exit codes: 0 success, 2 bad configuration, 3 missing or invalid
input data, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .dataset import CorpusFormatError, PerceptFormatError, text_lines
from .experiment import (
    ALL_MODELS,
    ConfigError,
    ExperimentConfig,
    InputError,
    category_settings,
    corpus_settings,
    ingest_command,
    report_command,
    run_command,
    synth_command,
)

logger = logging.getLogger("detcal")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_IO = 4

# dest name -> (config field, caster, --help text); the dest names are also
# the config-file keys, and each gives the flag --<dest with dashes>
_SETTINGS = {
    "systems": ("num_systems", int, "number of systems to synthesize"),
    "world_states": ("world_states_per_system", int, "world states per system (default 75)"),
    "categories": ("num_categories", int, "number of object categories"),
    "particles": ("num_particles", int, "particle count (default 100)"),
    "ess_threshold": ("ess_resample_threshold", float,
                      "resample when ESS drops below this fraction (default 0.5)"),
    "frames_min": ("frames_min", int, None),
    "frames_max": ("frames_max", int, None),
    "count_min": ("count_min", int, None),
    "count_max": ("count_max", int, None),
    "beta_alpha": ("beta_alpha", float, None),
    "beta_beta": ("beta_beta", float, None),
    "poisson_lambda": ("poisson_lambda", float, None),
    "seed": ("seed", int, "root seed (default 0)"),
    "models": ("models", str, "comma list from: " + ",".join(ALL_MODELS)),
    "jobs": ("jobs", int, "parallel worker processes (default 1)"),
}


def _parse_models(text: str) -> tuple:
    models = tuple(m.strip() for m in text.split(",") if m.strip())
    if not models:
        raise ConfigError("--models was given but names no models")
    return models


def _load_config_file(path: str) -> dict:
    values = {}
    for lineno, line in enumerate(text_lines(path, ConfigError), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
        values[key] = raw.strip()
    return values


def _build_config(args, header_defaults: dict | None = None) -> ExperimentConfig:
    """Merge defaults < corpus header < config file < explicit flags."""
    merged = {}
    if header_defaults:
        merged.update(header_defaults)
    if getattr(args, "config", None):
        for key, raw in _load_config_file(args.config).items():
            field_name, caster, _ = _SETTINGS[key]
            try:
                merged[field_name] = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
    for dest, (field_name, _, _) in _SETTINGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            merged[field_name] = value
    if isinstance(merged.get("models"), str):
        merged["models"] = _parse_models(merged["models"])
    return ExperimentConfig(**merged)


def _add_settings(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("experiment settings")
    g.add_argument("--config", metavar="FILE",
                   help="flat key=value settings file; flags override it")
    for dest, (_, caster, help_text) in _SETTINGS.items():
        g.add_argument("--" + dest.replace("_", "-"), dest=dest, type=caster, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detcal",
        description="Learn a black-box detector's false-alarm and miss rates "
                    "from its own noisy outputs, then correct them.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a benchmark corpus")
    p.add_argument("--out", required=True, help="corpus file to write")
    _add_settings(p)

    p = sub.add_parser("run", help="run the models over a corpus")
    p.add_argument("corpus", help="corpus file from `detcal synth`")
    p.add_argument("--out", required=True, help="results file to write")
    _add_settings(p)

    p = sub.add_parser("report", help="aggregate results into report tables")
    p.add_argument("results", nargs="+", help="results file(s) from `detcal run`")
    p.add_argument("--out", required=True, help="directory for the CSV tables")
    p.add_argument("--models", help="restrict the report to these models")
    p.add_argument("--error-map", dest="error_map", metavar="RUN_ID",
                   help="also write the per-category error map of one run")

    p = sub.add_parser("ingest", help="infer from an external percept log")
    p.add_argument("percepts", help="frame-per-line percept file")
    p.add_argument("--out", required=True, help="inferences file to write")
    vocab = p.add_mutually_exclusive_group(required=True)
    vocab.add_argument("--vocab", help="comma-separated category names, in index order")
    vocab.add_argument("--vocab-file", dest="vocab_file",
                       help="file with one category name per line")
    _add_settings(p)
    return parser


def _dispatch(args) -> int:
    if args.command == "synth":
        config = _build_config(args)
        synth_command(config, args.out)
        logger.info("corpus written to %s", args.out)
    elif args.command == "run":
        config = _build_config(args, header_defaults=corpus_settings(args.corpus))
        computed, skipped = run_command(config, args.corpus, args.out)
        logger.info("results written to %s (%d runs computed)", args.out, computed)
        if skipped:
            return EXIT_INPUT
    elif args.command == "report":
        models = _parse_models(args.models) if args.models else None
        paths = report_command(args.results, args.out, models=models,
                               error_map_run=args.error_map)
        for name, path in paths.items():
            logger.info("wrote %s: %s", name, path)
    elif args.command == "ingest":
        if args.vocab:
            vocabulary = [v.strip() for v in args.vocab.split(",") if v.strip()]
        else:
            vocabulary = [line.strip() for line in text_lines(args.vocab_file, InputError)
                          if line.strip()]
        if not vocabulary:
            raise ConfigError("the vocabulary is empty")
        if len(set(vocabulary)) != len(vocabulary):
            raise ConfigError("the vocabulary contains duplicate names")
        config = _build_config(args, header_defaults=category_settings(len(vocabulary)))
        ingest_command(config, args.percepts, vocabulary, args.out)
        logger.info("inferences written to %s", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s")
    try:
        return _dispatch(args)
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (InputError, CorpusFormatError, PerceptFormatError) as exc:
        logger.error("input error: %s", exc)
        return EXIT_INPUT
    except OSError as exc:
        logger.error("I/O failure: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
