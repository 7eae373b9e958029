"""Tests for the per-feature attribute observers and the Hoeffding bound.

The per-feature observers are the oracles the structure-of-arrays store is
pinned to (``tests/test_baselines_vectorized.py``), so they are tested here
in their own right.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.criteria import InfoGainCriterion, VarianceReductionCriterion
from repro.trees.hoeffding import hoeffding_bound
from repro.trees.observers import SplitSuggestion
from tests.oracles.trees import (
    GaussianAttributeObserver,
    GaussianEstimator,
    NominalAttributeObserver,
)


class TestHoeffdingBound:
    def test_formula(self):
        expected = math.sqrt(1.0 * math.log(1.0 / 0.05) / (2.0 * 100))
        assert hoeffding_bound(1.0, 0.05, 100) == pytest.approx(expected)

    def test_decreases_with_more_observations(self):
        assert hoeffding_bound(1.0, 1e-7, 1000) < hoeffding_bound(1.0, 1e-7, 100)

    def test_infinite_for_zero_observations(self):
        assert hoeffding_bound(1.0, 0.05, 0) == math.inf

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0.0, 0.05, 10)
        with pytest.raises(ValueError):
            hoeffding_bound(1.0, 0.0, 10)

    @settings(max_examples=50, deadline=None)
    @given(
        value_range=st.floats(0.1, 10.0),
        confidence=st.floats(1e-9, 0.5),
        n=st.integers(1, 10_000),
    )
    def test_bound_is_positive_and_monotone_property(self, value_range, confidence, n):
        bound = hoeffding_bound(value_range, confidence, n)
        assert bound > 0
        assert hoeffding_bound(value_range, confidence, n + 100) <= bound


class TestGaussianEstimator:
    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.0, size=500)
        estimator = GaussianEstimator()
        for value in values:
            estimator.update(float(value))
        assert estimator.mean == pytest.approx(values.mean(), rel=1e-6)
        assert estimator.std == pytest.approx(values.std(ddof=1), rel=1e-6)

    def test_cdf_is_monotone(self):
        estimator = GaussianEstimator()
        for value in np.linspace(-1, 1, 100):
            estimator.update(float(value))
        points = np.linspace(-2, 2, 20)
        cdfs = [estimator.cdf(float(p)) for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(cdfs, cdfs[1:]))
        assert 0.0 <= min(cdfs) and max(cdfs) <= 1.0

    def test_cdf_of_degenerate_distribution(self):
        estimator = GaussianEstimator()
        estimator.update(2.0)
        assert estimator.cdf(1.0) == 0.0
        assert estimator.cdf(2.5) == 1.0

    def test_zero_weight_updates_are_ignored(self):
        estimator = GaussianEstimator()
        estimator.update(5.0, weight=0.0)
        assert estimator.weight == 0.0


class TestGaussianAttributeObserver:
    def _observer_with_separated_classes(self):
        observer = GaussianAttributeObserver(n_split_points=10)
        rng = np.random.default_rng(0)
        for value in rng.normal(0.2, 0.05, size=300):
            observer.update(float(value), 0)
        for value in rng.normal(0.8, 0.05, size=300):
            observer.update(float(value), 1)
        return observer

    def test_suggestion_separates_well_separated_classes(self):
        observer = self._observer_with_separated_classes()
        pre = np.array([300.0, 300.0])
        suggestion = observer.best_split_suggestion(InfoGainCriterion(), pre, feature=4)
        assert suggestion is not None
        assert suggestion.feature == 4
        assert 0.3 < suggestion.threshold < 0.7
        assert suggestion.merit > 0.8

    def test_children_dists_sum_to_observed(self):
        observer = self._observer_with_separated_classes()
        pre = np.array([300.0, 300.0])
        suggestion = observer.best_split_suggestion(InfoGainCriterion(), pre, feature=0)
        total = suggestion.children_dists[0] + suggestion.children_dists[1]
        np.testing.assert_allclose(total, observer.class_dist(2), atol=1e-6)

    def test_no_suggestion_without_value_spread(self):
        observer = GaussianAttributeObserver()
        for _ in range(50):
            observer.update(1.0, 0)
        assert (
            observer.best_split_suggestion(InfoGainCriterion(), np.array([50.0]), 0)
            is None
        )

    def test_sdr_suggestion_separates_classes(self):
        observer = self._observer_with_separated_classes()
        suggestion = observer.best_sdr_suggestion(VarianceReductionCriterion(), feature=2)
        assert suggestion is not None
        assert 0.25 < suggestion.threshold < 0.75
        assert suggestion.merit > 0.2

    def test_invalid_n_split_points(self):
        with pytest.raises(ValueError):
            GaussianAttributeObserver(n_split_points=0)

    def test_total_weight_tracks_updates(self):
        observer = GaussianAttributeObserver()
        for value, label in [(0.1, 0), (0.2, 0), (0.9, 1)]:
            observer.update(value, label)
        assert observer.total_weight == pytest.approx(3.0)


class TestNominalAttributeObserver:
    def test_best_value_split(self):
        observer = NominalAttributeObserver()
        # value 0 -> class 0, values 1/2 -> class 1
        for _ in range(50):
            observer.update(0.0, 0)
            observer.update(1.0, 1)
            observer.update(2.0, 1)
        pre = np.array([50.0, 100.0])
        suggestion = observer.best_split_suggestion(InfoGainCriterion(), pre, feature=1)
        assert suggestion is not None
        assert suggestion.is_nominal
        assert suggestion.threshold == pytest.approx(0.0)
        assert suggestion.merit > 0.5

    def test_single_value_gives_no_suggestion(self):
        observer = NominalAttributeObserver()
        for _ in range(10):
            observer.update(1.0, 0)
        assert (
            observer.best_split_suggestion(InfoGainCriterion(), np.array([10.0]), 0)
            is None
        )

    def test_route_left_semantics(self):
        nominal = SplitSuggestion(feature=0, threshold=2.0, merit=0.1, is_nominal=True)
        assert nominal.route_left(2.0)
        assert not nominal.route_left(1.0)
        numeric = SplitSuggestion(feature=0, threshold=2.0, merit=0.1)
        assert numeric.route_left(1.5)
        assert not numeric.route_left(2.5)
