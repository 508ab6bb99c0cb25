import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detcal.core import DetectionStats, Observation, VisualSystem
from detcal.metrics import (
    chance_accuracy,
    meta_mse,
    observation_noise,
    rolling_accuracy_by_noise,
    world_state_accuracy,
)
from oracles import truncated_poisson_pmf_oracle

stats_of = DetectionStats.from_observations


class TestMetaMse:
    def test_identity_is_zero(self, rng):
        v = VisualSystem(fa=rng.random(5), miss=rng.random(5))
        assert meta_mse(v, v) == (0.0, 0.0, 0.0)

    def test_uniform_offset(self):
        v_true = VisualSystem(fa=np.full(5, 0.2), miss=np.full(5, 0.2))
        v_hat = VisualSystem(fa=np.full(5, 0.1), miss=np.full(5, 0.1))
        combined, fa_only, miss_only = meta_mse(v_true, v_hat)
        assert combined == pytest.approx(0.01, abs=1e-15)
        assert fa_only == pytest.approx(0.01, abs=1e-15)
        assert miss_only == pytest.approx(0.01, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_combined_is_mean_of_parts(self, seed):
        r = np.random.default_rng(seed)
        a = VisualSystem(fa=r.random(4), miss=r.random(4))
        b = VisualSystem(fa=r.random(4), miss=r.random(4))
        combined, fa_only, miss_only = meta_mse(a, b)
        assert combined == pytest.approx((fa_only + miss_only) / 2.0, rel=1e-12)

    def test_dimension_mismatch(self):
        a = VisualSystem(fa=np.zeros(3), miss=np.zeros(3))
        b = VisualSystem(fa=np.zeros(4), miss=np.zeros(4))
        with pytest.raises(ValueError):
            meta_mse(a, b)


class TestWorldStateAccuracy:
    def test_exact_match(self):
        assert world_state_accuracy(frozenset({1, 2}), {2, 1}) == 1

    def test_any_difference_is_zero(self):
        assert world_state_accuracy(frozenset({1}), frozenset({1, 2})) == 0
        assert world_state_accuracy(frozenset({1}), frozenset()) == 0


class TestObservationNoise:
    def test_noiseless_is_zero(self):
        w = frozenset({0, 2})
        o = Observation((frozenset(w), frozenset(w)))
        assert observation_noise([w], stats_of([o], 5)) == [0.0]

    def test_single_disagreement(self):
        w = frozenset({0})
        o = Observation((frozenset({0, 1}),))  # one extra category of five
        assert observation_noise([w], stats_of([o], 5)) == pytest.approx([0.2])

    def test_complement_is_maximal(self):
        w = frozenset({0, 1})
        o = Observation((frozenset({2, 3, 4}), frozenset({2, 3, 4})))
        assert observation_noise([w], stats_of([o], 5)) == pytest.approx([1.0])

    def test_order_invariance_and_bounds(self, rng):
        for _ in range(100):
            c = int(rng.integers(1, 6))
            w = frozenset(int(x) for x in np.nonzero(rng.random(c) < 0.5)[0])
            percepts = [frozenset(int(x) for x in np.nonzero(rng.random(c) < 0.5)[0])
                        for _ in range(int(rng.integers(1, 5)))]
            [z] = observation_noise([w], stats_of([Observation(tuple(percepts))], c))
            [z_rev] = observation_noise(
                [w], stats_of([Observation(tuple(reversed(percepts)))], c))
            assert z == pytest.approx(z_rev)
            assert 0.0 <= z <= 1.0


class TestRollingAccuracy:
    def test_noiseless_corpus_pins_the_zero_window(self):
        points = rolling_accuracy_by_noise([0.0, 0.0], {"a": [1, 1], "b": [1, 1]})
        assert points[0].zeta == 0.0
        assert points[0].accuracy == {"a": 1.0, "b": 1.0}
        assert points[0].count == 2

    def test_windows_are_closed_and_counted(self):
        points = {p.zeta: p for p in rolling_accuracy_by_noise([0.10, 0.20], {"m": [1, 0]})}
        # zeta=0.15 window [0.10, 0.20] catches both ends exactly
        assert points[0.15].count == 2
        assert points[0.15].accuracy["m"] == 0.5

    def test_empty_windows_are_omitted(self):
        zetas = [p.zeta for p in rolling_accuracy_by_noise([0.0], {"m": [1]})]
        assert 0.5 not in zetas and max(zetas) == pytest.approx(0.05)

    def test_requires_evaluations(self):
        with pytest.raises(ValueError):
            rolling_accuracy_by_noise([], {"m": []})


class TestChanceAccuracy:
    def test_reference_value(self):
        assert chance_accuracy(5, 1.0, (1, 5)) == pytest.approx(0.0774, abs=5e-5)

    def test_matches_direct_summation(self):
        pmf = truncated_poisson_pmf_oracle(1.0, 1, 5)
        expected = sum(p * p / math.comb(5, n) for n, p in pmf.items())
        assert chance_accuracy(5, 1.0, (1, 5)) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_bounds(self):
        assert chance_accuracy(5, 1.0, (2, 2)) == pytest.approx(1.0 / math.comb(5, 2))
        assert chance_accuracy(7, 0.3, (3, 3)) == pytest.approx(1.0 / math.comb(7, 3))

    def test_monte_carlo_oracle(self, rng):
        # two independent prior draws; exact-match frequency at 1e6 pairs
        n = 1_000_000
        pmf = truncated_poisson_pmf_oracle(1.0, 1, 5)
        value = chance_accuracy(5, 1.0, (1, 5))

        def draw_codes():
            ns = rng.choice(list(pmf.keys()), p=list(pmf.values()), size=n)
            order = np.argsort(rng.random((n, 5)), axis=1)
            present = np.zeros((n, 5), dtype=bool)
            rows = np.arange(n)
            for j in range(5):
                sel = ns > j
                present[rows[sel], order[sel, j]] = True
            return present @ (1 << np.arange(5))

        hits = (draw_codes() == draw_codes()).mean()
        se = math.sqrt(value * (1 - value) / n)
        assert abs(hits - value) < 4 * se
