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

    @pytest.mark.parametrize("flag, key", [("--enumeration-limit", "enumeration_limit"),
                                           ("--sweeps", "sweeps"),
                                           ("--proposal-sigma", "proposal_sigma"),
                                           ("--format", "format")])
    def test_removed_filter_settings_exit_2(self, tmp_path, flag, key):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "c.jsonl"), flag, "1"])
        assert exc.value.code == EXIT_CONFIG
        cfg = tmp_path / "exp.conf"
        cfg.write_text(f"{key}=1\n")
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

    def test_header_without_a_required_key_exit_3(self, tmp_path, caplog):
        corpus = synth(tmp_path)
        lines = corpus.read_text().splitlines()
        header = json.loads(lines[0])
        no_prior = {k: v for k, v in header.items() if k != "prior"}
        no_count = {k: v for k, v in header.items() if k != "num_categories"}
        no_field = {**header, "prior": {k: v for k, v in header["prior"].items()
                                        if k != "beta_beta"}}
        not_a_count = {**header, "num_categories": "5"}
        a_boolean = {**header, "num_categories": True}
        for bad, key in ((no_prior, "prior"), (no_count, "num_categories"),
                         (no_field, "beta_beta"), (not_a_count, "num_categories"),
                         (a_boolean, "num_categories")):
            corpus.write_text("\n".join([json.dumps(bad)] + lines[1:]) + "\n")
            caplog.clear()
            assert main(["run", str(corpus), "--out", str(tmp_path / "r.jsonl"),
                         *SMALL]) == EXIT_INPUT
            assert key in caplog.text

    def test_run_record_with_a_category_index_beyond_c_skipped(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(corpus), "--systems", "2",
                     "--world-states", "4", "--seed", "5"]) == EXIT_OK
        lines = corpus.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["observations"][0][0] = [9]
        lines[1] = json.dumps(rec)
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(out), "--particles", "15"]) \
            == EXIT_INPUT
        assert "position 0" in caplog.text and "9" in caplog.text
        ids = [json.loads(l)["run_id"] for l in out.read_text().splitlines()]
        assert ids == ["run-00001"]

    def test_run_record_with_a_boolean_category_index_skipped(self, tmp_path, caplog):
        # a JSON true would index every category and add a detection to each
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(corpus), "--systems", "2",
                     "--world-states", "4", "--seed", "5"]) == EXIT_OK
        lines = corpus.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["observations"][0][0] = [True]
        lines[1] = json.dumps(rec)
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(out), "--particles", "15"]) \
            == EXIT_INPUT
        assert "position 0" in caplog.text and "True" in caplog.text
        ids = [json.loads(l)["run_id"] for l in out.read_text().splitlines()]
        assert ids == ["run-00001"]

    def test_run_record_without_observations_skipped(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(corpus), "--systems", "2",
                     "--world-states", "4", "--seed", "5"]) == EXIT_OK
        lines = corpus.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["world_states"], rec["observations"] = [], []
        lines[1] = json.dumps(rec)
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", str(corpus), "--out", str(out), "--particles", "15"]) \
            == EXIT_INPUT
        assert "position 0" in caplog.text
        ids = [json.loads(l)["run_id"] for l in out.read_text().splitlines()]
        assert ids == ["run-00001"]

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

    def test_result_record_without_observations_exit_3(self, pipeline):
        tmp_path, results = pipeline
        records = [json.loads(line) for line in results.read_text().splitlines()]
        first = records[0]
        for key in ("world_states", "frame_counts", "detect_counts", "zeta"):
            first[key] = []
        first["maps"] = {m: [] for m in first["maps"]}
        for key in ("mse_fa", "mse_miss", "mse_combined"):
            first[key] = first[key][:1]
        edited = tmp_path / "edited.jsonl"
        edited.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(edited), "--out", str(tmp_path / "rep5")]) == EXIT_INPUT

    def test_unknown_model_exit_2(self, pipeline, caplog):
        tmp_path, results = pipeline
        out = tmp_path / "rep6"
        assert main(["report", str(results), "--out", str(out),
                     "--models", "online,psychic"]) == EXIT_CONFIG
        assert "psychic" in caplog.text and "fixed_prior" in caplog.text
        assert not out.exists()

    def test_results_of_the_removed_csv_format_refused(self, pipeline, caplog):
        # what `run --format csv` wrote before that format was removed,
        # cut mid-way through its first run
        tmp_path, results = pipeline
        old = tmp_path / "old.csv"
        old.write_text("run_id,obs_index,frame_count,zeta,world_state,detect_counts,"
                       "online_map,retrospective_map,threshold_map,fixed_prior_map,"
                       "mse_fa,mse_miss,mse_combined\n"
                       "run-00000,0,,,-,-,-,-,-,-,0.01,0.02,0.03\nrun-00000,1,4")
        manifest = json.loads(results.with_name("results.jsonl.manifest.json").read_text())
        manifest["format"] = manifest["config"]["format"] = "csv"
        old_manifest = old.with_name("old.csv.manifest.json")
        old_manifest.write_text(json.dumps(manifest))
        before = old.read_bytes(), old_manifest.read_bytes()
        corpus = tmp_path / "corpus.jsonl"
        assert main(["run", str(corpus), "--out", str(old), *SMALL]) == EXIT_INPUT
        assert (old.read_bytes(), old_manifest.read_bytes()) == before
        caplog.clear()
        assert main(["report", str(old), "--out", str(tmp_path / "rep7")]) == EXIT_INPUT
        assert f"{old} line 1" in caplog.text

    def test_missing_model_exit_3(self, pipeline):
        tmp_path, results = pipeline
        records = [json.loads(line) for line in results.read_text().splitlines()]
        for rec in records:
            del rec["maps"]["fixed_prior"]
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(partial), "--out", str(tmp_path / "rep3"),
                     "--models", "online,fixed_prior"]) == EXIT_INPUT


def _not_utf8_input(tmp_path, case):
    """(argv, the file in it that holds a byte that is not UTF-8)."""
    percepts = tmp_path / "p.jsonl"
    percepts.write_text('{"observation_id":"x","frame_index":0,"labels":["a"]}\n')
    ingest = ["ingest", str(percepts), "--out", str(tmp_path / "o.jsonl"),
              "--particles", "15"]
    if case == "percepts":
        percepts.write_bytes(b'{"observation_id":"x","frame_index":0,"labels":["\xff"]}\n')
        return ingest + ["--vocab", "a,b"], percepts
    if case == "vocab_file":
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(b"a\n\xff\n")
        return ingest + ["--vocab-file", str(vocab)], vocab
    if case == "results":
        results = tmp_path / "r.jsonl"
        results.write_bytes(b'{"record":"result","run_id":"run-0000\xff"}\n')
        return ["report", str(results), "--out", str(tmp_path / "rep")], results
    if case == "config":
        config = tmp_path / "exp.conf"
        config.write_bytes(b"particles=15\n# \xff\n")
        return ["synth", "--out", str(tmp_path / "c.jsonl"), "--config", str(config)], config
    # the bad byte lies in the last run, past the 8 KiB that reading the
    # header decodes, so it is met while runs are being handed out
    corpus = synth(tmp_path, extra=("--world-states", "80"))
    data = corpus.read_bytes()
    at = data.rindex(b"run-0000")
    assert at > 8192
    corpus.write_bytes(data[:at] + b"run-\xff" + data[at + 5:])
    jobs = "2" if case == "corpus_jobs_2" else "1"
    return ["run", str(corpus), "--out", str(tmp_path / "r.jsonl"), *SMALL,
            "--world-states", "80", "--jobs", jobs], corpus


@pytest.mark.parametrize("case, code", [("corpus", EXIT_INPUT), ("corpus_jobs_2", EXIT_INPUT),
                                        ("percepts", EXIT_INPUT), ("vocab_file", EXIT_INPUT),
                                        ("results", EXIT_INPUT), ("config", EXIT_CONFIG)])
def test_input_that_is_not_utf8_exits_with_its_code(tmp_path, caplog, case, code):
    argv, bad = _not_utf8_input(tmp_path, case)
    assert main(argv) == code
    assert f"{bad}: not UTF-8" in caplog.text


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

    def test_boolean_frame_index_exit_3(self, tmp_path):
        percepts = tmp_path / "p.jsonl"
        percepts.write_text(
            '{"observation_id":"clip","frame_index":0,"labels":["a"]}\n'
            '{"observation_id":"clip","frame_index":true,"labels":["b"]}\n')
        assert main(["ingest", str(percepts), "--out", str(tmp_path / "o.jsonl"),
                     "--vocab", "a,b", "--particles", "15"]) == EXIT_INPUT

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
