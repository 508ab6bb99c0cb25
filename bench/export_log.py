"""Make the long_ingest workload's input: one external percept log.

Synthesizes one system with the program's own `dataset.synthesize_run`,
exports its percepts with `dataset.write_percepts`, and keeps the
generating truth beside it for the checks. Run with the program on the
path:

    PYTHONPATH=src python3 bench/export_log.py --seed 0 --out DIR \
        --categories 5 --scenes 300
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from detcal.core import PriorConfig
from detcal.dataset import default_vocabulary, synthesize_run, write_percepts


def export(seed: int, out_dir, categories: int, scenes: int) -> None:
    """Write percepts.jsonl and truth.json into out_dir."""
    out_dir = Path(out_dir)
    prior = PriorConfig()
    vocabulary = default_vocabulary(categories)
    run = synthesize_run(prior, categories, scenes, np.random.default_rng(seed))
    ids = [f"obs-{i:05d}" for i in range(scenes)]
    write_percepts(out_dir / "percepts.jsonl", run.observations, vocabulary, ids)
    truth = {
        "vocabulary": vocabulary,
        "prior": {"beta_alpha": prior.beta_alpha, "beta_beta": prior.beta_beta,
                  "poisson_lambda": prior.poisson_lambda,
                  "count_bounds": list(prior.count_bounds)},
        "v_true": run.v_true.as_flat().tolist(),
        "observation_ids": ids,
        "world_states": [sorted(w) for w in run.world_states],
        "observations": [[sorted(p) for p in o.percepts] for o in run.observations],
    }
    (out_dir / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--categories", type=int, required=True)
    parser.add_argument("--scenes", type=int, required=True)
    args = parser.parse_args()
    export(args.seed, args.out, args.categories, args.scenes)
