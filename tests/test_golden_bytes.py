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
such a toolchain change, never to absorb a change in the program. The
one deliberate exception so far: the hashes downstream of the exact
filter (exact.*, report/*, wide-results.jsonl and inferences.jsonl with
its manifest) were re-recorded when that filter became particle learning,
which changes its numerics; every other hash kept its recorded value.
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
        "580fa56b5e03a617d5769d60db8d2173e67390b4c1a25fd2d94595c71bf8b724",
    "exact.csv.manifest.json":
        "d389b7a565723b9ea86cbc8db50877b220cd6a0bc350d300b6f98d9d34f056c2",
    "exact.jsonl":
        "014882da05136dc3f271ad381bbc7b2ccbe09b980ffbc240104146450c21bd6b",
    "exact.jsonl.manifest.json":
        "4ff17f2ae897a9e0087fb7cd21c03d7bd09b41ec921f61f80f1d02df5dc17477",
    "inferences.jsonl":
        "04712e548d74d122ae8646e4e06f11b25778aeff19d387bc3293cba5e83b1ea4",
    "inferences.jsonl.manifest.json":
        "0ac4d34bfab4f12d03ad5cc604fb373857132d1c713906ec827e529c2c57ae9e",
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
    "sampled.jsonl":
        "632bd20a8d1e68b850163540f458d0653a10f367490026a646a9fb3217804aa3",
    "sampled.jsonl.manifest.json":
        "fe6b627388acae05d0f078be94c3e50dcfe63f1872d1d8d18518876581aabeec",
    "wide-results.jsonl":
        "1c1cf571db15448c7f5a26e10d93c763f2ca2a71c5f909c75c1837f82be98dd5",
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
