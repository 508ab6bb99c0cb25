"""Golden bytes of a tiny fixed pipeline.

Pure refactors must leave the bytes of a fixed small corpus, its results
and its report unchanged. This test runs `synth`, `run`, `report`, runs at
C=8 and at C=16, and `ingest` of a log exported with
`dataset.write_percepts`, and compares the sha256 of every file written,
manifests included, with recorded values.

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
And every manifest was re-recorded again when the CSV results format left
the program: the config echo lost `format`, the results manifests lost
their top-level `format`, and the `exact.csv` step went with its two hashes.
And inferences.jsonl was re-recorded when the retrospective pass stopped
enumerating states and read its MAP masses from elementary symmetric
polynomials: its scenes are the same, its masses moved in the last bits.
And the hashes downstream of the filter and the retrospective pass were
re-recorded when scipy left the program, old -> new: exact.jsonl
014882da -> 8b1d709a, report/accuracy_by_noise.csv 088d683a -> 9b75980e,
report/accuracy_by_observation.csv 4d92636c -> edfb8c35,
report/error_map_run-00001.csv 5f83ce4e -> 67f441df,
report/mse_by_observation.csv 41778ae9 -> d64a2797, report/summary.csv
e254247a -> 5db09d37, wide-results.jsonl 1c1cf571 -> c491007c,
broad-results.jsonl 01fb7b6b -> 6209aa48, inferences.jsonl 110916b6 ->
8046a1c6 and inferences.jsonl.manifest.json 6b3847e3 -> ce926aa4. The
Beta predictive became a ratio of rising factorials and the count prior
a once-rounded ratio, so floats moved by at most 3.4e-14 relative; one
online MAP scene, an exact tie in real arithmetic, now goes to the first
scene in bit order. The corpora, percepts.jsonl and every other file
kept their hashes.
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
        "6209aa48e1c885f496e6354f03d04370fdece336e81af044317335e67f854f64",
    "broad-results.jsonl.manifest.json":
        "b4eca9a1da14d9495a6940acd4a35dc107c570fb95bb7260c719dca3c6b9b724",
    "broad.jsonl":
        "947057760694c177f4d22ff3988e02b75287563c65338334ee25a0412379fec3",
    "broad.jsonl.manifest.json":
        "67081b745641edd07ca94d0ab2bfb7559d2635d5d7bfd2f5a66e2e40ec231396",
    "corpus.jsonl":
        "047d2417f59fde06b95196b31927818781a109b142b45aeb50de497d3bdd59f6",
    "corpus.jsonl.manifest.json":
        "55e225f49cde5855ed81bccf881dcb4ad0b1e8a565a32d393434cb7a1736f976",
    "exact.jsonl":
        "8b1d709ad855da64c6b82dd83fa3deb6d277b0a488d03c1f84e3b923f8944b73",
    "exact.jsonl.manifest.json":
        "c750ba8d4ead73472c86ce2c01734e1026f603c9ceaa6b079b508f2dbd95b009",
    "inferences.jsonl":
        "8046a1c6b25fb170c25a85b517c7a7256e2da0ea0e2a410dee8812613ffaa3c1",
    "inferences.jsonl.manifest.json":
        "ce926aa4acf3cc24094fb3d9793d299c6d4d7fc29dc1b2e7674f0ee0ffa9ed29",
    "percepts.jsonl":
        "5609d67e49ae159ba1051b6d39e67c0ae662dc5bccbc822bad33547895f4507d",
    "report/accuracy_by_noise.csv":
        "9b75980ed60bc3343a798fa50b5cca521905fda4141e1289c52a27c569d63a63",
    "report/accuracy_by_observation.csv":
        "edfb8c35cf20221f629de33fc20f2b30bc4e33d6325046da1eb318cdf7058371",
    "report/error_map_run-00001.csv":
        "67f441df7305d3cf5a3b2f94d0724ffb9837f341c0b60fc03cca8a093db9a09c",
    "report/mse_by_observation.csv":
        "d64a2797871cef9c8272c538bdbc246ff9832a5928a46ac69f107cbef8a8b5d0",
    "report/noise_gap.csv":
        "68bd7877357edc537ef551cf0201ccc114dee3589f85476b45cd821460bef4cf",
    "report/summary.csv":
        "5db09d37b975f1aadfa5646b99fadd0daa50d33e0af398646a34cd40adc5c1d8",
    "wide-results.jsonl":
        "c491007c476e2e52b821548e70e0120dc360ee1c5a3a06a6334c8ae733adf2a1",
    "wide-results.jsonl.manifest.json":
        "e8280bd3abe23d94a3eee8d071917794997db1bac28ef980d0b57b263b1792d6",
    "wide.jsonl":
        "e5d5c5eb877553b5bbd077127ed1d7be6ab5778adfafdaf600c8756f963e5729",
    "wide.jsonl.manifest.json":
        "0917993526cb31d74a92a67a566fbd0dbf7f5c84e4c2291899b0567afafd9609",
}


def _run_pipeline(root):
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--out", str(corpus), *SETTINGS]) == EXIT_OK
    assert main(["run", str(corpus), "--out", str(root / "exact.jsonl"),
                 *SETTINGS]) == EXIT_OK
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
