import json

import numpy as np
import pytest

from detcal.core import Observation, PriorConfig, VisualSystem, render_percepts
from detcal.dataset import (
    CorpusFormatError,
    PerceptFormatError,
    Run,
    default_vocabulary,
    ingest_percept_groups,
    read_corpus,
    run_seed,
    synthesize_corpus,
    synthesize_run,
    write_corpus,
    write_percepts,
)
from oracles import synthesize_run_reference

PRIOR = PriorConfig()


class TestSynthesizeRun:
    def test_percept_totals_stay_in_band(self):
        run = synthesize_run(PRIOR, 5, 75, np.random.default_rng(0))
        total = sum(o.frame_count for o in run.observations)
        assert 375 <= total <= 1125
        assert len(run.world_states) == len(run.observations) == 75
        for o in run.observations:
            assert 5 <= o.frame_count <= 15

    def test_noiseless_system_reproduces_world_states(self, rng):
        v = VisualSystem(fa=np.zeros(5), miss=np.zeros(5))
        worlds = [frozenset({0, 1}), frozenset({4})]
        observations = [
            Observation(render_percepts(w, v, 6, rng)) for w in worlds]
        run = Run(run_id="manual", v_true=v, world_states=worlds,
                  observations=observations)
        for w, o in zip(run.world_states, run.observations):
            assert all(p == w for p in o.percepts)

    def test_serialization_is_seed_deterministic(self):
        a = synthesize_run(PRIOR, 5, 10, np.random.default_rng(run_seed(3, 1)))
        b = synthesize_run(PRIOR, 5, 10, np.random.default_rng(run_seed(3, 1)))
        assert json.dumps(a.to_record()) == json.dumps(b.to_record())

    def test_record_round_trip(self):
        run = synthesize_run(PRIOR, 5, 8, np.random.default_rng(5), run_id="x",
                             seed=[9, 0])
        again = Run.from_record(json.loads(json.dumps(run.to_record())), 5)
        assert again.run_id == run.run_id and again.seed == [9, 0]
        assert np.array_equal(again.v_true.as_flat(), run.v_true.as_flat())
        assert again.world_states == run.world_states
        assert again.observations == run.observations

    def test_record_checked_against_the_category_count(self):
        rec = synthesize_run(PRIOR, 5, 3, np.random.default_rng(5)).to_record()
        for field, value in (("world_states", [[0], [5], [1]]),
                             ("observations", [[[0]], [[-1]], [[2]]]),
                             ("v_true", [0.1] * 8)):
            with pytest.raises(ValueError):
                Run.from_record({**rec, field: value}, 5)
        assert Run.from_record(rec, 5).run_id == rec["run_id"]

    # (C, count_bounds), with the default bounds wherever C allows them
    @pytest.mark.parametrize("c, count_bounds", [
        (c, bounds) for c in (1, 2, 5, 8, 16, 40)
        for bounds in ((0, c), (c, c)) + (((1, 5),) if c >= 5 else ())])
    def test_draws_match_the_per_frame_reference(self, c, count_bounds):
        # the batched render consumes the stream exactly as one draw per frame
        for frames in ((1, 1), (5, 15)):
            for lam in (1e-9, 1.0, 7.0):
                prior = PriorConfig(poisson_lambda=lam, count_bounds=count_bounds,
                                    frames_bounds=frames)
                for seed in (0, 1, 2):
                    batched, reference = (np.random.default_rng(seed) for _ in range(2))
                    got = synthesize_run(prior, c, 12, batched, run_id="r", seed=[seed])
                    want = synthesize_run_reference(prior, c, 12, reference, run_id="r",
                                                    seed=[seed])
                    assert got.to_record() == want
                    assert batched.bit_generator.state == reference.bit_generator.state

    def test_parallel_list_invariant(self):
        v = VisualSystem(fa=np.zeros(2), miss=np.zeros(2))
        with pytest.raises(ValueError):
            Run(run_id="bad", v_true=v, world_states=[frozenset({0})],
                observations=[])


class TestSynthesizeCorpus:
    def test_streamed_run_matches_standalone(self):
        streamed = list(synthesize_corpus(3, PRIOR, 5, root_seed=11,
                                          world_states_per_system=6))
        alone = synthesize_run(PRIOR, 5, 6, np.random.default_rng(run_seed(11, 2)),
                               run_id="run-00002", seed=[11, 2])
        assert streamed[2].to_record() == alone.to_record()

    def test_single_system_reduces_to_one_run(self):
        runs = list(synthesize_corpus(1, PRIOR, 5, root_seed=4,
                                      world_states_per_system=5))
        assert len(runs) == 1 and runs[0].run_id == "run-00000"

    def test_rate_entry_mean_across_corpus(self):
        flats = np.concatenate([
            run.v_true.as_flat()
            for run in synthesize_corpus(2000, PRIOR, 5, root_seed=1,
                                         world_states_per_system=1)])
        assert abs(flats.mean() - 1.0 / 6.0) < 2e-3


class TestCorpusFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, PRIOR, 5, num_systems=4, root_seed=7,
                     world_states_per_system=6)
        corpus = read_corpus(path)
        assert corpus.num_categories == 5
        assert corpus.prior == PRIOR
        assert corpus.num_systems == 4 and corpus.world_states_per_system == 6
        runs = list(corpus.runs)
        assert [r.run_id for r in runs] == [f"run-{i:05d}" for i in range(4)]
        direct = list(synthesize_corpus(4, PRIOR, 5, 7, 6))
        assert [r.to_record() for r in runs] == [r.to_record() for r in direct]

    def test_write_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(a, PRIOR, 5, num_systems=2, root_seed=3)
        write_corpus(b, PRIOR, 5, num_systems=2, root_seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_line_is_reported_with_its_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, PRIOR, 5, num_systems=2, root_seed=3,
                     world_states_per_system=3)
        lines = path.read_text().splitlines()
        lines[2] = "{this is not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="line 3") as exc:
            list(read_corpus(path).runs)
        assert str(exc.value).startswith(f"{path} line 3: bad run record")

    def test_missing_header_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"record":"run"}\n')
        with pytest.raises(CorpusFormatError):
            read_corpus(path)


class TestPerceptFiles:
    def test_two_frames_make_one_observation(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"observation_id":"a","frame_index":0,"labels":["cat00"]}\n'
            '{"observation_id":"a","frame_index":1,"labels":["cat00","cat02"]}\n')
        [(obs_id, observation)] = ingest_percept_groups(path, default_vocabulary(3))
        assert obs_id == "a" and observation.frame_count == 2
        assert observation.percepts == (frozenset({0}), frozenset({0, 2}))

    def test_unknown_label_is_named(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"observation_id":"a","frame_index":0,"labels":["truck"]}\n')
        with pytest.raises(PerceptFormatError, match="'truck'"):
            ingest_percept_groups(path, default_vocabulary(3))

    def test_malformed_line_is_numbered(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"observation_id":"a","frame_index":0,"labels":[]}\n'
            'not json at all\n')
        with pytest.raises(PerceptFormatError, match="line 2"):
            ingest_percept_groups(path, default_vocabulary(3))

    def test_missing_field_and_duplicate_frame(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"observation_id":"a","labels":[]}\n')
        with pytest.raises(PerceptFormatError, match="line 1"):
            ingest_percept_groups(path, default_vocabulary(2))
        path.write_text(
            '{"observation_id":"a","frame_index":0,"labels":[]}\n'
            '{"observation_id":"a","frame_index":0,"labels":[]}\n')
        with pytest.raises(PerceptFormatError, match="duplicate"):
            ingest_percept_groups(path, default_vocabulary(2))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("\n")
        with pytest.raises(PerceptFormatError, match="no percept records"):
            ingest_percept_groups(path, default_vocabulary(2))

    def test_round_trip_through_percept_format(self, tmp_path):
        run = synthesize_run(PRIOR, 5, 6, np.random.default_rng(2))
        vocab = default_vocabulary(5)
        path = tmp_path / "p.jsonl"
        write_percepts(path, run.observations, vocab)
        groups = ingest_percept_groups(path, vocab)
        assert [o for _, o in groups] == run.observations
        assert [gid for gid, _ in groups] == [f"obs-{i:05d}" for i in range(6)]

    def test_frames_reorder_by_frame_index(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"observation_id":"a","frame_index":1,"labels":["cat01"]}\n'
            '{"observation_id":"a","frame_index":0,"labels":["cat00"]}\n')
        [(_, observation)] = ingest_percept_groups(path, default_vocabulary(2))
        assert observation.percepts == (frozenset({0}), frozenset({1}))
