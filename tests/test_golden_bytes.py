"""Golden bytes of a tiny fixed pipeline.

Pure refactors must leave the bytes of a fixed small corpus, its results
and its report unchanged. This test runs `synth`, two `run` variants
(JSONL and `--format csv`), `report`, runs at C=8 and at C=16, and
`ingest` of a log exported with `dataset.write_percepts`, and compares the
sha256 of every file written, manifests included, with recorded values.

The hashes were recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64. A
different numpy or BLAS may round floating-point sums differently and
change them without any change to the program; re-record them only on
such a toolchain change, never to absorb a change in the program. The
deliberate exceptions so far: the hashes downstream of the exact
filter (exact.*, report/*, wide-results.jsonl and inferences.jsonl with
its manifest) were re-recorded when that filter became particle learning,
which changes its numerics; every other hash kept its recorded value.
And every manifest was re-recorded when three settings left the config echo
(`proposal_sigma`, `rejuvenation_sweeps` and `enumeration_limit`), and the
step of the sampling filter they served gave way to the C=16 step.
"""

import hashlib

import numpy as np

from detcal.cli import EXIT_OK, main
from detcal.core import PriorConfig
from detcal.dataset import default_vocabulary, synthesize_run, write_percepts

SETTINGS = ["--systems", "4", "--world-states", "30", "--particles", "30",
            "--seed", "7"]
# C=8: 218 enumerated scenes instead of 31.
WIDE = ["--systems", "2", "--world-states", "15", "--particles", "30",
        "--categories", "8", "--seed", "7"]
# C=16: above the enumeration limit, so the filter sums the scenes out with
# elementary symmetric polynomials.
BROAD = ["--systems", "2", "--world-states", "5", "--particles", "30",
         "--categories", "16", "--seed", "7"]

GOLDEN = {
    "broad-results.jsonl":
        "01fb7b6b7f0fb99e25f1472d5161f3034988d3b7f1d16930f164ae1bb7ca59e8",
    "broad-results.jsonl.manifest.json":
        "8b5221bddb7b27791ef2b5061d70b82b9b6222e5ab6a7e3a341c4bf55f05daac",
    "broad.jsonl":
        "947057760694c177f4d22ff3988e02b75287563c65338334ee25a0412379fec3",
    "broad.jsonl.manifest.json":
        "fefee2af1453996fee8a943f9899f226bacc0852ece8a9c588a9e429726f36a7",
    "corpus.jsonl":
        "047d2417f59fde06b95196b31927818781a109b142b45aeb50de497d3bdd59f6",
    "corpus.jsonl.manifest.json":
        "48f4c630f8739ffaa16a5997b094c903bae45f1d9cd3ce54bdb6e02437d169af",
    "exact.csv":
        "580fa56b5e03a617d5769d60db8d2173e67390b4c1a25fd2d94595c71bf8b724",
    "exact.csv.manifest.json":
        "5ab67b996ffc4dd9ca684e350c74c50870c9642541b7e0796ba2fd8a84e327a3",
    "exact.jsonl":
        "014882da05136dc3f271ad381bbc7b2ccbe09b980ffbc240104146450c21bd6b",
    "exact.jsonl.manifest.json":
        "22571a6e45bc74abe822cfa65656ea8b57e6d14d80b1a57d419190c489bb6bf5",
    "inferences.jsonl":
        "04712e548d74d122ae8646e4e06f11b25778aeff19d387bc3293cba5e83b1ea4",
    "inferences.jsonl.manifest.json":
        "fccee35f00d5339d44935e76c12d8f358541ad112fdefe996779f4800b18fd20",
    "percepts.jsonl":
        "5609d67e49ae159ba1051b6d39e67c0ae662dc5bccbc822bad33547895f4507d",
    "report/accuracy_by_noise.csv":
        "088d683a2362f56f52cb96cb82862e37464970b490727e1ef5f5abfff0c7819f",
    "report/accuracy_by_observation.csv":
        "4d92636c009fd9138acb134b7afb2203b4001219df8dd35447c9c1ff0c52c24b",
    "report/error_map_run-00001.csv":
        "5f83ce4eb2dc0110b9429e6d9ccafbc37964309e4d7aa125cb3171d567cce0d6",
    "report/mse_by_observation.csv":
        "41778ae965f71a3833a0cb380dee9c7976480f005a564083fec86d1a0845bb0a",
    "report/noise_gap.csv":
        "68bd7877357edc537ef551cf0201ccc114dee3589f85476b45cd821460bef4cf",
    "report/summary.csv":
        "e254247ab5037f3a214037994537329072f982f3a852c072c7df8cab78ed6c9c",
    "wide-results.jsonl":
        "1c1cf571db15448c7f5a26e10d93c763f2ca2a71c5f909c75c1837f82be98dd5",
    "wide-results.jsonl.manifest.json":
        "fa87d1769350d9d957a79fae1f0b9151f1c003e2d1c74c3f08fd87c574d66533",
    "wide.jsonl":
        "e5d5c5eb877553b5bbd077127ed1d7be6ab5778adfafdaf600c8756f963e5729",
    "wide.jsonl.manifest.json":
        "35c55ace4ce621b916d6c5e561779dfb091e81cae7362562fc32bc97de3383c3",
}


def _run_pipeline(root):
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--out", str(corpus), *SETTINGS]) == EXIT_OK
    runs = {
        "exact.jsonl": [],
        "exact.csv": ["--format", "csv"],
    }
    for name, extra in runs.items():
        assert main(["run", str(corpus), "--out", str(root / name),
                     *SETTINGS, *extra]) == EXIT_OK
    assert main(["report", str(root / "exact.jsonl"), "--out", str(root / "report"),
                 "--error-map", "run-00001"]) == EXIT_OK

    wide = root / "wide.jsonl"
    assert main(["synth", "--out", str(wide), *WIDE]) == EXIT_OK
    assert main(["run", str(wide), "--out", str(root / "wide-results.jsonl"),
                 *WIDE]) == EXIT_OK

    broad = root / "broad.jsonl"
    assert main(["synth", "--out", str(broad), *BROAD]) == EXIT_OK
    assert main(["run", str(broad), "--out", str(root / "broad-results.jsonl"),
                 *BROAD]) == EXIT_OK

    vocabulary = default_vocabulary(5)
    run = synthesize_run(PriorConfig(), 5, 40, np.random.default_rng(13))
    percepts = root / "percepts.jsonl"
    write_percepts(percepts, run.observations, vocabulary)
    assert main(["ingest", str(percepts), "--out", str(root / "inferences.jsonl"),
                 "--vocab", ",".join(vocabulary), "--particles", "30",
                 "--seed", "7"]) == EXIT_OK


def _digests(root):
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_pipeline_bytes_match_the_recorded_hashes(tmp_path):
    _run_pipeline(tmp_path)
    assert _digests(tmp_path) == GOLDEN
