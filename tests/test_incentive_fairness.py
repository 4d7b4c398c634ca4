"""Tests for the reward-fairness metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FairBFLTrainer
from repro.incentive.fairness import (
    fairness_report,
    gini_coefficient,
    jains_index,
    reward_contribution_correlation,
)


class TestJainsIndex:
    def test_equal_allocation_is_one(self):
        assert jains_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_k(self):
        assert jains_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_one(self):
        assert jains_index([0.0, 0.0]) == 1.0

    def test_scale_invariant(self):
        x = [0.2, 0.5, 1.3]
        assert jains_index(x) == pytest.approx(jains_index([10 * v for v in x]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            jains_index([-1.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            jains_index([])


class TestGini:
    def test_equal_allocation_is_zero(self):
        assert gini_coefficient([2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_single_winner_approaches_one(self):
        g = gini_coefficient([0.0] * 9 + [1.0])
        assert g == pytest.approx(0.9, abs=1e-9)

    def test_all_zero_is_zero(self):
        assert gini_coefficient([0.0, 0.0]) == 0.0

    def test_order_invariant(self):
        assert gini_coefficient([3.0, 1.0, 2.0]) == pytest.approx(gini_coefficient([1.0, 2.0, 3.0]))


class TestCorrelation:
    def test_perfectly_proportional(self):
        assert reward_contribution_correlation([1, 2, 3], [0.1, 0.2, 0.3]) == pytest.approx(1.0)

    def test_anti_correlated(self):
        assert reward_contribution_correlation([3, 2, 1], [0.1, 0.2, 0.3]) == pytest.approx(-1.0)

    def test_constant_inputs_return_zero(self):
        assert reward_contribution_correlation([1, 1, 1], [0.1, 0.2, 0.3]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reward_contribution_correlation([1, 2], [0.1, 0.2, 0.3])


class TestFairnessReport:
    def test_report_fields(self):
        report = fairness_report({0: 1.0, 1: 1.0, 2: 2.0}, {0: 0.2, 1: 0.2, 2: 0.4})
        assert report["num_clients"] == 3
        assert report["total_reward"] == pytest.approx(4.0)
        assert 0.0 < report["jains_index"] <= 1.0
        assert 0.0 <= report["gini_coefficient"] < 1.0
        assert report["max_share"] == pytest.approx(0.5)
        assert report["reward_contribution_correlation"] == pytest.approx(1.0)

    def test_report_requires_rewards(self):
        with pytest.raises(ValueError):
            fairness_report({})

    def test_report_on_real_run(self, engine, tiny_spec):
        """The incentive mechanism spreads rewards across clients rather than to one winner."""
        spec = tiny_spec.with_overrides(num_rounds=3)
        with FairBFLTrainer(engine.dataset_for(spec), spec.fairbfl_config()) as trainer:
            trainer.run()
        totals = trainer.reward_ledger.totals
        report = fairness_report(totals)
        assert report["total_reward"] > 0
        assert report["jains_index"] > 1.0 / len(totals)
        assert report["max_share"] < 1.0


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_fairness_metric_bounds_property(rewards):
    """Property: Jain's index lies in (0, 1] and Gini in [0, 1) for any non-negative allocation."""
    j = jains_index(rewards)
    g = gini_coefficient(rewards)
    assert 0.0 < j <= 1.0 + 1e-12
    assert -1e-12 <= g < 1.0
    # Perfectly equal allocations maximise Jain and minimise Gini.
    equal = [1.0] * len(rewards)
    assert jains_index(equal) >= j - 1e-9
    assert gini_coefficient(equal) <= g + 1e-9
