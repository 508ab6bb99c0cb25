"""Golden bytes of a tiny fixed pipeline.

Pure refactors must leave the bytes of a fixed small corpus, its results
and its report unchanged. This test runs `synth`, three `run` variants
(exact default, `--enumeration-limit 0` and `--format csv`), `report`, a
run at C=8 and `ingest` of a log exported with `dataset.write_percepts`,
and compares the sha256 of every file written, manifests included, with
recorded values.

The hashes were recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64. A
different numpy or BLAS may round floating-point sums differently and
change them without any change to the program; re-record them only on
such a toolchain change, never to absorb a change in the program.
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

GOLDEN = {
    "corpus.jsonl":
        "047d2417f59fde06b95196b31927818781a109b142b45aeb50de497d3bdd59f6",
    "corpus.jsonl.manifest.json":
        "83964c1b26a6c37316dcb59cd2d1f91ea946c0cee918d5559c3ccc09ee4f8c3f",
    "exact.csv":
        "10cb66355a41d24237591f1cb1f12e2031ab359ecce9dc3b38c3138149a2b736",
    "exact.csv.manifest.json":
        "d389b7a565723b9ea86cbc8db50877b220cd6a0bc350d300b6f98d9d34f056c2",
    "exact.jsonl":
        "61a54dc53e9aac9ef921d1b5b005d31162f33e5e620187401c18ecf2d8d4d6a2",
    "exact.jsonl.manifest.json":
        "4ff17f2ae897a9e0087fb7cd21c03d7bd09b41ec921f61f80f1d02df5dc17477",
    "inferences.jsonl":
        "25ab0289554b0637ea8d637bf29d521cb9324ec1eaa91e9a1393db212da24aec",
    "inferences.jsonl.manifest.json":
        "c2195746f939b3df7e91955687363a0080018247ea8f3edad775014d6a9b67f8",
    "percepts.jsonl":
        "5609d67e49ae159ba1051b6d39e67c0ae662dc5bccbc822bad33547895f4507d",
    "report/accuracy_by_noise.csv":
        "22ec56ce318ea84bd945a9e4da08e4afa1f67cbdcbce0a80c1d7a6b0cad27fd8",
    "report/accuracy_by_observation.csv":
        "3745a0fbd235154e6b89b73b078e13f1cfd9207001cdbc04d4649af6ec550f8b",
    "report/error_map_run-00001.csv":
        "2da449e22c8e10b7ad41e7f5bfce0f5339d66b562638e442a9567c3c7354edbf",
    "report/mse_by_observation.csv":
        "f5be68d3204162a1a4c125ee1e83ece0f8646be4bac10f103e40d73a253fa799",
    "report/noise_gap.csv":
        "68bd7877357edc537ef551cf0201ccc114dee3589f85476b45cd821460bef4cf",
    "report/summary.csv":
        "29efd4136dd84320ee2f69ab71eebbe18b8fb1558eca0f3d8e5bf531ef80cbe9",
    "sampled.jsonl":
        "632bd20a8d1e68b850163540f458d0653a10f367490026a646a9fb3217804aa3",
    "sampled.jsonl.manifest.json":
        "fe6b627388acae05d0f078be94c3e50dcfe63f1872d1d8d18518876581aabeec",
    "wide-results.jsonl":
        "268d8503f5e3bc04119e8440472b98c9c5de2e89ddac754d20e345a8dac3b973",
    "wide-results.jsonl.manifest.json":
        "e2918397f1e63399477286ca9bf4fbffead0e9ad41c8adae90b532ef7b185c43",
    "wide.jsonl":
        "e5d5c5eb877553b5bbd077127ed1d7be6ab5778adfafdaf600c8756f963e5729",
    "wide.jsonl.manifest.json":
        "3bf3809b7790c3811a154719c42f913fc9aee45175e9e3d50a5b40e9ba1bf8fe",
}


def _run_pipeline(root):
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--out", str(corpus), *SETTINGS]) == EXIT_OK
    runs = {
        "exact.jsonl": [],
        "sampled.jsonl": ["--enumeration-limit", "0"],
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
