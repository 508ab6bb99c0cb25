"""The benchmark's own test: every output check must be able to fail.

Runs the desk and long_ingest pipelines once on their real inputs, checks
that the genuine outputs pass, then plants one wrong answer at a time in a
copy and confirms the pass is judged failed:

- a flipped MAP scene (retrospective, fixed-prior and an ingest row),
- a truncated results file,
- a wrong accuracy in summary.csv,
- a later pass whose bytes differ from the first.

Run from the root of a checkout: `python3 bench/selftest.py`.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]
import run as bench  # noqa: E402

SEED = 1


def flip(state: list, categories: int) -> list:
    """The scene with one category's presence flipped, kept non-empty."""
    if len(state) > 1:
        return state[1:]
    return sorted(set(state) | {next(c for c in range(categories) if c not in state)})


def rewrite_jsonl(path: Path, edit) -> None:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class PlantedFaults(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(prefix="bench-selftest-", dir=bench.ROOT))
        cls.outputs = {}
        for workload in ("desk", "long_ingest"):
            inputs = cls.tmp / workload / "inputs"
            out = cls.tmp / workload / "out"
            inputs.mkdir(parents=True)
            out.mkdir()
            log = cls.tmp / "selftest.log"
            _, code, _ = bench.timed(bench.setup_argv(workload, SEED, inputs), log)
            assert code == 0, f"set-up of {workload} exited {code}; see {log}"
            for stage, argv in bench.pipeline(workload, SEED, inputs, out):
                _, code, _ = bench.timed(["-m", "detcal.cli"] + argv, log)
                assert code == 0, f"detcal {stage} exited {code}; see {log}"
            cls.outputs[workload] = (inputs, out)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def planted(self, workload: str, plant) -> list:
        """Errors of the check on a copy of the outputs with `plant` applied."""
        inputs, out = self.outputs[workload]
        copy = self.tmp / workload / f"planted-{self.id().rsplit('.', 1)[-1]}"
        shutil.copytree(out, copy)
        plant(copy)
        return bench.check_pass(workload, inputs, copy)[0]

    def test_genuine_outputs_pass(self):
        for workload, (inputs, out) in self.outputs.items():
            errors, accuracy, _ = bench.check_pass(workload, inputs, out)
            self.assertEqual(errors, [], workload)
            self.assertGreater(accuracy, 0.5, workload)

    def test_flipped_retrospective_scene(self):
        def plant(out):
            def edit(records):
                maps = records[0]["maps"]["retrospective"]
                maps[3] = flip(maps[3], 5)
            rewrite_jsonl(out / "results.jsonl", edit)
        errors = self.planted("desk", plant)
        self.assertTrue(any("run-00000 retrospective scene 3" in e for e in errors), errors)

    def test_flipped_fixed_prior_scene(self):
        def plant(out):
            def edit(records):
                maps = records[-1]["maps"]["fixed_prior"]
                maps[-1] = flip(maps[-1], 5)
            rewrite_jsonl(out / "results.jsonl", edit)
        errors = self.planted("desk", plant)
        self.assertTrue(any("fixed_prior scene 74" in e for e in errors), errors)

    def test_flipped_ingest_scene(self):
        def plant(out):
            def edit(records):
                records[10]["retrospective_map"] = flip(records[10]["retrospective_map"], 5)
            rewrite_jsonl(out / "inferred.jsonl", edit)
        errors = self.planted("long_ingest", plant)
        self.assertTrue(any("scene 9" in e for e in errors), errors)

    def test_truncated_results(self):
        def plant(out):
            path = out / "results.jsonl"
            data = path.read_bytes()
            path.write_bytes(data[:len(data) - 500])
        self.assertNotEqual(self.planted("desk", plant), [])

    def test_wrong_summary_accuracy(self):
        def plant(out):
            path = out / "report" / "summary.csv"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            for i, line in enumerate(lines):
                if line.startswith("retrospective,"):
                    model, acc, rest = line.split(",", 2)
                    lines[i] = f"{model},{float(acc) + 0.01!r},{rest}"
            path.write_text("".join(lines), encoding="utf-8")
        errors = self.planted("desk", plant)
        self.assertTrue(any("summary.csv retrospective" in e for e in errors), errors)

    def test_later_pass_with_other_bytes(self):
        _, out = self.outputs["desk"]
        reference = bench.digest(out)
        self.assertEqual(bench.judge_repeat(out, reference), [])
        copy = self.tmp / "desk" / "later-pass"
        shutil.copytree(out, copy)
        with open(copy / "report" / "summary.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")
        self.assertNotEqual(bench.judge_repeat(copy, reference), [])


if __name__ == "__main__":
    unittest.main()
