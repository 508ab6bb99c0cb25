"""The benchmark's traced metrics still resolve against the program.

`bench/trace_layers.py` leaves out every per-layer metric whose targets no
longer exist in the program, so renaming or deleting a traced function
silently drops metrics from the traced run. This test builds the set of
targets that resolve today and checks that they, with the metrics the
traced run adds on its own, give exactly the `per_layer` names of
`BENCHMARK.json`.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from trace_layers import TARGETS, _resolve, layer_metrics  # noqa: E402

# metrics that `trace_layers.measure` adds to the traced layers' own
MEASURED = {
    "cli.startup_s", "dataset.synthesize_s", "dataset.systems_synthesized",
    "dataset.corpus_bytes", "experiment.result_bytes", "experiment.parallel_efficiency",
    "inference.online_accuracy", "inference.rate_mse_prior", "inference.rate_mse_final",
    "trace.overhead_ratio",
}


def test_every_per_layer_metric_resolves():
    present = {target for target in TARGETS if _resolve(target) is not None}
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    assert set(layer_metrics({}, present)) | MEASURED == declared
