import json

import numpy as np
import pytest

from detcal.cli import EXIT_INPUT, EXIT_OK, main
from detcal.experiment import (
    ALL_MODELS,
    ConfigError,
    ExperimentConfig,
    InputError,
    MODEL_FIXED_PRIOR,
    MODEL_ONLINE,
    MODEL_RETRO,
    MODEL_THRESHOLD,
    evaluate_run,
    read_results,
    report_command,
    result_chunk,
    run_command,
    synth_command,
)

SMALL = dict(num_systems=3, world_states_per_system=6, num_particles=15, seed=5)


def small_config(**kw):
    merged = dict(SMALL)
    merged.update(kw)
    return ExperimentConfig(**merged)


@pytest.fixture(scope="module")
def small_results(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    config = small_config()
    corpus = root / "corpus.jsonl"
    results = root / "results.jsonl"
    synth_command(config, corpus)
    run_command(config, corpus, results)
    return config, corpus, results


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.num_systems == 1000 and cfg.world_states_per_system == 75
        assert cfg.num_particles == 100 and cfg.models == ALL_MODELS

    def test_bad_count_bounds(self):
        with pytest.raises(ConfigError):
            small_config(count_min=5, count_max=1)

    def test_count_bound_beyond_categories(self):
        with pytest.raises(ConfigError):
            small_config(num_categories=3)  # default count_max 5

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            small_config(models=("online", "psychic"))

    def test_retrospective_needs_online(self):
        with pytest.raises(ConfigError):
            small_config(models=("retrospective", "threshold"))

    def test_bad_format_and_jobs(self):
        with pytest.raises(ConfigError):
            small_config(jobs=0)


    def test_settings_and_prior_map_both_ways(self):
        cfg = small_config(num_categories=8, count_min=2, count_max=6,
                           poisson_lambda=2.0, beta_alpha=3.0, models=("threshold",))
        assert ExperimentConfig.from_echo(cfg.echo()) == cfg
        settings = ExperimentConfig.prior_settings(cfg.prior())
        assert small_config(num_categories=8, **settings).prior() == cfg.prior()


class TestEvaluateRun:
    def test_produces_all_model_maps_and_traces(self):
        config = small_config()
        run = next(read_corpus_runs(config))
        result = evaluate_run(run, config, 0)
        assert set(result.maps) == set(ALL_MODELS)
        T = config.world_states_per_system
        for states in result.maps.values():
            assert len(states) == T
        assert len(result.mse_fa) == T + 1
        assert len(result.zeta) == T
        assert result.v_hat is not None and len(result.v_hat) == 10

    def test_model_subset(self):
        config = small_config(models=(MODEL_THRESHOLD,))
        run = next(read_corpus_runs(config))
        result = evaluate_run(run, config, 0)
        assert list(result.maps) == [MODEL_THRESHOLD]
        assert result.v_hat is None and result.mse_fa is None


def read_corpus_runs(config):
    from detcal.dataset import synthesize_corpus
    return synthesize_corpus(config.num_systems, config.prior(),
                             config.num_categories, config.seed,
                             config.world_states_per_system)


class TestResultSerialization:
    @pytest.mark.parametrize("fmt", ["jsonl"])
    def test_chunk_round_trip(self, tmp_path, fmt):
        config = small_config()
        run = next(read_corpus_runs(config))
        result = evaluate_run(run, config, 0)
        path = tmp_path / f"results.{fmt}"
        path.write_text(result_chunk(result))
        loaded = list(read_results(path))
        assert len(loaded) == 1
        got = loaded[0]
        assert got.run_id == result.run_id
        assert got.world_states == result.world_states
        assert got.maps == result.maps
        assert got.detect_counts == result.detect_counts
        np.testing.assert_allclose(got.zeta, result.zeta, rtol=1e-15)
        np.testing.assert_allclose(got.mse_fa, result.mse_fa, rtol=1e-15)

    def test_empty_results_file_errors(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("")
        with pytest.raises(InputError):
            list(read_results(path))


class TestRunCommand:
    def test_resume_after_truncation_is_byte_identical(self, small_results, tmp_path):
        config, corpus, results = small_results
        reference = results.read_bytes()
        clipped = tmp_path / "results.jsonl"
        manifest = results.with_name(results.name + ".manifest.json")
        clipped_manifest = clipped.with_name(clipped.name + ".manifest.json")
        # cut into the middle of the second record to fake an interruption
        lines = reference.split(b"\n")
        clipped.write_bytes(lines[0] + b"\n" + lines[1][:40])
        clipped_manifest.write_bytes(manifest.read_bytes())
        computed, skipped = run_command(config, corpus, clipped)
        assert (computed, skipped) == (2, 0)  # first record survived
        assert clipped.read_bytes() == reference

    def test_rerun_is_a_no_op(self, small_results):
        config, corpus, results = small_results
        before = results.read_bytes()
        assert run_command(config, corpus, results) == (0, 0)
        assert results.read_bytes() == before

    def test_corrupted_run_record_is_skipped_and_flagged(self, small_results,
                                                         tmp_path):
        config, corpus, _ = small_results
        broken = tmp_path / "broken.jsonl"
        lines = corpus.read_text().splitlines()
        lines[2] = '{"record":"run","but":"malformed"}'
        broken.write_text("\n".join(lines) + "\n")
        out = tmp_path / "results.jsonl"
        computed, skipped = run_command(config, broken, out)
        assert (computed, skipped) == (2, 1)
        ids = [r.run_id for r in read_results(out)]
        assert ids == ["run-00000", "run-00002"]
        # a rerun resumes cleanly after the last written run
        assert run_command(config, broken, out) == (0, 0)

    def test_conflicting_manifest_is_rejected(self, small_results, tmp_path):
        config, corpus, results = small_results
        other = tmp_path / "results.jsonl"
        other.write_bytes(results.read_bytes())
        other_manifest = other.with_name(other.name + ".manifest.json")
        with open(results.with_name(results.name + ".manifest.json")) as fh:
            manifest = json.load(fh)
        manifest["config"]["seed"] = 999
        other_manifest.write_text(json.dumps(manifest))
        with pytest.raises(InputError):
            run_command(config, corpus, other)

    def test_resume_at_another_jobs_count_is_byte_identical(self, tmp_path):
        flags = ["--particles", "15", "--seed", "5"]
        corpus = tmp_path / "corpus.jsonl"
        assert main(["synth", "--out", str(corpus), "--systems", "4",
                     "--world-states", "6", *flags]) == EXIT_OK
        reference = tmp_path / "reference.jsonl"
        assert main(["run", str(corpus), "--out", str(reference), *flags,
                     "--jobs", "1"]) == EXIT_OK
        resumed = tmp_path / "resumed.jsonl"
        resumed.write_bytes(b"".join(reference.read_bytes().splitlines(True)[:2]))
        resumed.with_name(resumed.name + ".manifest.json").write_bytes(
            reference.with_name(reference.name + ".manifest.json").read_bytes())
        assert main(["run", str(corpus), "--out", str(resumed), *flags,
                     "--jobs", "2"]) == EXIT_OK
        assert resumed.read_bytes() == reference.read_bytes()
        assert main(["run", str(corpus), "--out", str(resumed), "--particles", "15",
                     "--seed", "6", "--jobs", "2"]) == EXIT_INPUT

    def test_jobs_do_not_change_bytes(self, small_results, tmp_path):
        config, corpus, results = small_results
        out = tmp_path / "results.jsonl"
        run_command(small_config(jobs=2), corpus, out)
        assert out.read_bytes() == results.read_bytes()


class TestReport:
    def test_tables_exist_with_expected_shape(self, small_results, tmp_path):
        config, corpus, results = small_results
        paths = report_command([results], tmp_path / "report",
                               error_map_run="run-00001")
        for name in ("mse_by_observation", "accuracy_by_observation",
                     "accuracy_by_noise", "noise_gap", "summary", "error_map"):
            assert name in paths and paths[name].exists()
        mse_rows = paths["mse_by_observation"].read_text().splitlines()
        assert mse_rows[0] == "observation_index,mse_fa,mse_miss,mse_combined,run_count"
        assert len(mse_rows) == 2 + config.world_states_per_system  # header + t=0..T
        acc_rows = paths["accuracy_by_observation"].read_text().splitlines()
        assert len(acc_rows) == 1 + config.world_states_per_system

    def test_summary_contains_models_fit_and_chance(self, small_results, tmp_path):
        _, _, results = small_results
        paths = report_command([results], tmp_path / "report")
        rows = {line.split(",")[0]: line.split(",")
                for line in paths["summary"].read_text().splitlines()[1:]}
        for name in (MODEL_ONLINE, MODEL_RETRO, MODEL_THRESHOLD, MODEL_FIXED_PRIOR,
                     "fitted_threshold", "fitted_threshold_holdout", "chance"):
            assert name in rows
        assert float(rows["chance"][1]) == pytest.approx(0.0774, abs=5e-5)
        assert rows["threshold"][2] == "0.5"

    def test_error_map_partitions_cells(self, small_results, tmp_path):
        config, _, results = small_results
        paths = report_command([results], tmp_path / "report",
                               error_map_run="run-00000")
        rows = paths["error_map"].read_text().splitlines()[1:]
        per_model = len(ALL_MODELS)
        expected = per_model * config.world_states_per_system * config.num_categories
        assert len(rows) == expected
        assert all(r.split(",")[3] in ("correct", "missed", "false_alarm")
                   for r in rows)

    def test_missing_model_column_is_reported(self, small_results, tmp_path):
        _, _, results = small_results
        records = [json.loads(line) for line in results.read_text().splitlines()]
        for rec in records:
            del rec["maps"]["threshold"]
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(InputError, match="threshold"):
            report_command([partial], tmp_path / "report",
                           models=list(ALL_MODELS))

    def test_unknown_error_map_run(self, small_results, tmp_path):
        _, _, results = small_results
        with pytest.raises(InputError, match="nope"):
            report_command([results], tmp_path / "report", error_map_run="nope")

    def test_noiseless_corpus_gives_every_model_full_accuracy(self, tmp_path):
        # hand-built corpus whose detector never errs
        from detcal.dataset import Run, corpus_header
        from detcal.core import Observation, PriorConfig, VisualSystem
        rng = np.random.default_rng(3)
        prior = PriorConfig()
        header = corpus_header(prior, 5, 3, 4, 0)
        lines = [json.dumps(header, separators=(",", ":"))]
        for i in range(3):
            worlds, observations = [], []
            for _ in range(4):
                n = int(rng.integers(1, 6))
                w = frozenset(int(x) for x in rng.choice(5, size=n, replace=False))
                worlds.append(w)
                observations.append(Observation(tuple(frozenset(w) for _ in range(5))))
            run = Run(run_id=f"run-{i:05d}",
                      v_true=VisualSystem(fa=np.zeros(5), miss=np.zeros(5)),
                      world_states=worlds, observations=observations)
            lines.append(json.dumps(run.to_record(), separators=(",", ":")))
        corpus = tmp_path / "clean.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        results = tmp_path / "results.jsonl"
        run_command(small_config(world_states_per_system=4), corpus, results)
        paths = report_command([results], tmp_path / "report")
        rows = {line.split(",")[0]: line.split(",")
                for line in paths["summary"].read_text().splitlines()[1:]}
        for model in ALL_MODELS:
            assert float(rows[model][1]) == 1.0

    def test_runs_of_different_lengths_average_where_they_reach(self, tmp_path):
        paths = []
        for length in (4, 6):
            config = small_config(world_states_per_system=length)
            synth_command(config, tmp_path / f"corpus{length}.jsonl")
            paths.append(tmp_path / f"results{length}.jsonl")
            run_command(config, tmp_path / f"corpus{length}.jsonl", paths[-1])
        runs = [r for path in paths for r in read_results(path)]
        tables = report_command(paths, tmp_path / "report")

        def rows(name):
            lines = tables[name].read_text().splitlines()
            return [dict(zip(lines[0].split(","), map(float, line.split(","))))
                    for line in lines[1:]]

        mse = rows("mse_by_observation")
        assert [row["observation_index"] for row in mse] == list(range(7))
        for row in mse:
            t = int(row["observation_index"])
            reach = [r for r in runs if len(r.mse_fa) > t]
            assert row["run_count"] == len(reach) == (6 if t <= 4 else 3)
            for key in ("mse_fa", "mse_miss", "mse_combined"):
                expected = np.mean([getattr(r, key)[t] for r in reach])
                assert row[key] == pytest.approx(expected, rel=1e-12)
        accuracy = rows("accuracy_by_observation")
        assert [row["observation_index"] for row in accuracy] == list(range(1, 7))
        for row in accuracy:
            t = int(row["observation_index"]) - 1
            reach = [r for r in runs if r.num_observations > t]
            assert row["run_count"] == len(reach) == (6 if t < 4 else 3)
            for m in ALL_MODELS:
                expected = np.mean([r.maps[m][t] == r.world_states[t] for r in reach])
                assert row[m] == pytest.approx(expected, rel=1e-12)

    def test_aggregation_is_permutation_invariant(self, small_results, tmp_path):
        _, _, results = small_results
        records = results.read_text().splitlines()
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(records[::-1]) + "\n")
        a = report_command([results], tmp_path / "ra")
        b = report_command([shuffled], tmp_path / "rb")
        for name in ("accuracy_by_noise", "summary", "mse_by_observation"):
            assert a[name].read_bytes() == b[name].read_bytes()
