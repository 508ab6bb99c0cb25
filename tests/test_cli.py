import json

import pytest

from detcal.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_IO, EXIT_OK, main
from detcal.dataset import default_vocabulary, read_corpus, write_percepts

SMALL = ["--systems", "3", "--world-states", "6", "--particles", "15", "--seed", "5"]


def synth(tmp_path, name="corpus.jsonl", extra=()):
    path = tmp_path / name
    assert main(["synth", "--out", str(path), *SMALL, *extra]) == EXIT_OK
    return path


class TestSynth:
    def test_byte_identical_across_invocations(self, tmp_path):
        a = synth(tmp_path, "a.jsonl")
        b = synth(tmp_path, "b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        assert a.with_name("a.jsonl.manifest.json").read_bytes() == \
            b.with_name("b.jsonl.manifest.json").read_bytes()

    def test_manifest_defaults_record_75_world_states(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(path), "--systems", "1"]) == EXIT_OK
        manifest = json.loads(path.with_name("c.jsonl.manifest.json").read_text())
        assert manifest["config"]["world_states_per_system"] == 75
        assert manifest["header"]["num_categories"] == 5
        assert "sha256" in manifest

    def test_invalid_count_bounds_exit_2(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "c.jsonl"),
                     "--count-min", "5", "--count-max", "1"])
        assert code == EXIT_CONFIG

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "exp.conf"
        cfg.write_text("systems=4\nworld_states=3\nseed=9\n# comment\n")
        path = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(path), "--config", str(cfg),
                     "--systems", "2"]) == EXIT_OK
        corpus = read_corpus(path)
        assert corpus.num_systems == 2          # flag wins
        assert corpus.world_states_per_system == 3  # file applies
        assert corpus.root_seed == 9

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "exp.conf"
        cfg.write_text("particles=10\nwarp_speed=9\n")
        assert main(["synth", "--out", str(tmp_path / "c.jsonl"),
                     "--config", str(cfg)]) == EXIT_CONFIG


class TestRun:
    def test_missing_corpus_exit_3(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "r.jsonl")]) == EXIT_INPUT

    def test_corrupted_record_skipped_with_nonzero_exit(self, tmp_path):
        corpus = synth(tmp_path)
        lines = corpus.read_text().splitlines()
        lines[1] = "{corrupt"
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(out), *SMALL]) == EXIT_INPUT
        ids = [json.loads(l)["run_id"] for l in out.read_text().splitlines()]
        assert ids == ["run-00001", "run-00002"]

    def test_header_that_is_not_an_object_exit_3(self, tmp_path):
        corpus = synth(tmp_path)
        lines = corpus.read_text().splitlines()
        corpus.write_text("\n".join(["[1]"] + lines[1:]) + "\n")
        assert main(["run", str(corpus), "--out", str(tmp_path / "r.jsonl"),
                     *SMALL]) == EXIT_INPUT

    def test_run_record_that_is_not_an_object_skipped(self, tmp_path, caplog):
        corpus = synth(tmp_path)
        lines = corpus.read_text().splitlines()
        lines[2] = "[1, 2]"
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(out), *SMALL]) == EXIT_INPUT
        assert "position 1" in caplog.text
        ids = [json.loads(l)["run_id"] for l in out.read_text().splitlines()]
        assert ids == ["run-00000", "run-00002"]

    def test_truncated_manifest_exit_3_and_results_untouched(self, tmp_path):
        corpus = synth(tmp_path)
        out = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(out), *SMALL]) == EXIT_OK
        results = out.read_bytes()
        manifest = out.with_name("r.jsonl.manifest.json")
        manifest.write_bytes(manifest.read_bytes()[:40])
        assert main(["run", str(corpus), "--out", str(out), *SMALL]) == EXIT_INPUT
        assert out.read_bytes() == results

    def test_unwritable_output_exit_4(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "no" / "dir" / "c.jsonl"),
                     "--systems", "1", "--world-states", "2"]) == EXIT_IO

    def test_missing_percepts_exit_3(self, tmp_path):
        assert main(["ingest", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "o.jsonl"), "--vocab", "a,b"]) \
            == EXIT_INPUT

    def test_jobs_1_and_2_are_byte_identical(self, tmp_path):
        corpus = synth(tmp_path)
        r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        assert main(["run", str(corpus), "--out", str(r1), *SMALL,
                     "--jobs", "1"]) == EXIT_OK
        assert main(["run", str(corpus), "--out", str(r2), *SMALL,
                     "--jobs", "2"]) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

    def test_fixed_prior_with_undefined_beta_mode_exit_2(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "--beta-alpha", "0.5", "--beta-beta", "0.5",
                     "--systems", "2", "--world-states", "5",
                     "--out", str(corpus)]) == EXIT_OK
        out = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(out)]) == EXIT_CONFIG
        assert "fixed_prior" in caplog.text
        assert not out.exists()
        assert not out.with_name("r.jsonl.manifest.json").exists()
        assert main(["run", str(corpus), "--out", str(out), "--particles", "15",
                     "--models", "online,retrospective,threshold"]) == EXIT_OK

    def test_adopts_corpus_prior_without_flags(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(corpus), "--systems", "1",
                     "--world-states", "4", "--beta-alpha", "3.0",
                     "--seed", "2"]) == EXIT_OK
        out = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(out),
                     "--particles", "15"]) == EXIT_OK
        manifest = json.loads(out.with_name("r.jsonl.manifest.json").read_text())
        assert manifest["config"]["beta_alpha"] == 3.0
        assert manifest["config"]["world_states_per_system"] == 4


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    corpus = synth(tmp_path)
    results = tmp_path / "results.jsonl"
    assert main(["run", str(corpus), "--out", str(results), *SMALL]) == EXIT_OK
    return tmp_path, results


class TestReport:
    def test_tables_written(self, pipeline):
        tmp_path, results = pipeline
        out = tmp_path / "report"
        assert main(["report", str(results), "--out", str(out),
                     "--error-map", "run-00002"]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names >= {"mse_by_observation.csv", "accuracy_by_observation.csv",
                         "accuracy_by_noise.csv", "noise_gap.csv", "summary.csv",
                         "error_map_run-00002.csv"}

    def test_empty_results_exit_3(self, pipeline):
        tmp_path, _ = pipeline
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty),
                     "--out", str(tmp_path / "rep2")]) == EXIT_INPUT

    def test_result_record_that_is_not_an_object_exit_3(self, pipeline):
        tmp_path, _ = pipeline
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1]\n")
        assert main(["report", str(bad), "--out", str(tmp_path / "rep4")]) == EXIT_INPUT

    def test_missing_model_exit_3(self, pipeline):
        tmp_path, results = pipeline
        records = [json.loads(line) for line in results.read_text().splitlines()]
        for rec in records:
            del rec["maps"]["fixed_prior"]
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(partial), "--out", str(tmp_path / "rep3"),
                     "--models", "online,fixed_prior"]) == EXIT_INPUT


class TestIngest:
    def test_cross_path_equivalence_with_run(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(corpus), "--systems", "1",
                     "--world-states", "6", "--seed", "3"]) == EXIT_OK
        results = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(results),
                     "--particles", "15", "--seed", "11"]) == EXIT_OK
        record = json.loads(results.read_text().splitlines()[0])

        run = next(read_corpus(corpus).runs)
        vocab = default_vocabulary(5)
        percepts = tmp_path / "percepts.jsonl"
        write_percepts(percepts, run.observations, vocab)
        inferences = tmp_path / "inferences.jsonl"
        assert main(["ingest", str(percepts), "--out", str(inferences),
                     "--vocab", ",".join(vocab), "--particles", "15",
                     "--seed", "11"]) == EXIT_OK

        lines = [json.loads(l) for l in inferences.read_text().splitlines()]
        head, rows = lines[0], lines[1:]
        assert head["v_hat"] == record["v_hat"]
        assert [r["online_map"] for r in rows] == \
            [sorted(w) for w in record["maps"]["online"]]
        assert [r["retrospective_map"] for r in rows] == \
            [sorted(w) for w in record["maps"]["retrospective"]]
        assert all(0.0 < r["retrospective_map_mass"] <= 1.0 for r in rows)

    def test_single_observation_still_estimates(self, tmp_path):
        percepts = tmp_path / "p.jsonl"
        percepts.write_text(
            '{"observation_id":"clip","frame_index":0,"labels":["a"]}\n'
            '{"observation_id":"clip","frame_index":1,"labels":["a","b"]}\n')
        out = tmp_path / "inf.jsonl"
        assert main(["ingest", str(percepts), "--out", str(out),
                     "--vocab", "a,b,c", "--particles", "15"]) == EXIT_OK
        head = json.loads(out.read_text().splitlines()[0])
        assert len(head["v_hat"]) == 6
        assert all(0.0 < x < 1.0 for x in head["v_hat"])

    def test_unknown_label_exit_3(self, tmp_path, capsys):
        percepts = tmp_path / "p.jsonl"
        percepts.write_text(
            '{"observation_id":"clip","frame_index":0,"labels":["truck"]}\n')
        code = main(["ingest", str(percepts), "--out", str(tmp_path / "o.jsonl"),
                     "--vocab", "a,b"])
        assert code == EXIT_INPUT

    def test_vocab_file_variant(self, tmp_path):
        percepts = tmp_path / "p.jsonl"
        percepts.write_text(
            '{"observation_id":"x","frame_index":0,"labels":["b"]}\n')
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("a\nb\n")
        out = tmp_path / "o.jsonl"
        assert main(["ingest", str(percepts), "--out", str(out),
                     "--vocab-file", str(vocab_file), "--particles", "15"]) == EXIT_OK
        assert out.exists()

    def test_duplicate_vocab_exit_2(self, tmp_path):
        percepts = tmp_path / "p.jsonl"
        percepts.write_text('{"observation_id":"x","frame_index":0,"labels":["a"]}\n')
        assert main(["ingest", str(percepts), "--out", str(tmp_path / "o.jsonl"),
                     "--vocab", "a,a"]) == EXIT_CONFIG
