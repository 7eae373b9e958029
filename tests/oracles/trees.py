"""Reference paths of the Hoeffding-tree family: per-feature observers and trees.

* :class:`GaussianEstimator`, :class:`GaussianAttributeObserver` and
  :class:`NominalAttributeObserver` -- the classic one-object-per-feature
  attribute observers with their per-threshold split loops.
  :class:`ReferenceLeafObservers` materialises them from a
  :class:`~repro.trees.observers.LeafObservers` store to answer split
  queries.
* :class:`ReferenceHoeffdingTree`, :class:`ReferenceHoeffdingAdaptiveTree`,
  :class:`ReferenceExtremelyFastDecisionTree` -- trees that learn one row at
  a time through a root-to-leaf walk, predict one row at a time and split on
  the per-feature observers.
* :class:`ReferenceFIMTDD` -- FIMT-DD with per-feature SDR sweeps and
  per-row inference (:func:`fimtdd_proba_per_row`).
"""

from __future__ import annotations

import numpy as np

from repro.trees.base import LeafNode, SplitNode
from repro.trees.criteria import SplitCriterion, VarianceReductionCriterion
from repro.trees.efdt import ExtremelyFastDecisionTreeClassifier
from repro.trees.fimtdd import FIMTDDClassifier, FIMTLeaf, FIMTSplitNode
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.observers import LeafObservers, SplitSuggestion, _erf_vec
from repro.trees.vfdt import HoeffdingTreeClassifier
from tests.oracles import overrides


class GaussianEstimator:
    """Incremental univariate Gaussian with Welford moment updates."""

    __slots__ = ("weight", "mean", "_m2")

    def __init__(self) -> None:
        self.weight = 0.0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            return
        self.weight += weight
        delta = value - self.mean
        self.mean += weight * delta / self.weight
        self._m2 += weight * delta * (value - self.mean)

    @property
    def variance(self) -> float:
        if self.weight <= 1.0:
            return 0.0
        return max(self._m2 / (self.weight - 1.0), 0.0)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def cdf(self, value: float) -> float:
        """Probability mass of the Gaussian at or below ``value``."""
        if self.weight == 0:
            return 0.0
        std = self.std
        if std == 0.0:
            return 1.0 if value >= self.mean else 0.0
        z = (value - self.mean) / (std * np.sqrt(2.0))
        return float(0.5 * (1.0 + _erf(z)))

    def weight_below(self, value: float) -> float:
        """Estimated weight of observations with values at or below ``value``."""
        return self.weight * self.cdf(value)


def _erf(z: float) -> float:
    """Scalar error function (the production sweep's ``_erf_vec``)."""
    return float(_erf_vec(z))


class GaussianAttributeObserver:
    """Per-class Gaussian observer for one numeric feature.

    Parameters
    ----------
    n_split_points:
        Number of candidate thresholds evaluated between the observed minimum
        and maximum of the feature (the VFDT default of 10 is used throughout
        the paper's baselines).
    """

    def __init__(self, n_split_points: int = 10) -> None:
        if n_split_points < 1:
            raise ValueError(
                f"n_split_points must be >= 1, got {n_split_points!r}."
            )
        self.n_split_points = int(n_split_points)
        self._per_class: dict[int, GaussianEstimator] = {}
        self._min_value = np.inf
        self._max_value = -np.inf

    @property
    def total_weight(self) -> float:
        return float(sum(est.weight for est in self._per_class.values()))

    def update(self, value: float, class_idx: int, weight: float = 1.0) -> None:
        estimator = self._per_class.setdefault(int(class_idx), GaussianEstimator())
        estimator.update(float(value), weight)
        self._min_value = min(self._min_value, float(value))
        self._max_value = max(self._max_value, float(value))

    # ----------------------------------------------------- classification
    def _candidate_thresholds(self) -> np.ndarray:
        if not np.isfinite(self._min_value) or self._max_value <= self._min_value:
            return np.array([])
        return np.linspace(self._min_value, self._max_value, self.n_split_points + 2)[
            1:-1
        ]

    def class_dists_below(self, threshold: float, n_classes: int) -> np.ndarray:
        """Estimated class distribution of values at or below ``threshold``."""
        dist = np.zeros(n_classes)
        for class_idx, estimator in self._per_class.items():
            if class_idx < n_classes:
                dist[class_idx] = estimator.weight_below(threshold)
        return dist

    def class_dist(self, n_classes: int) -> np.ndarray:
        dist = np.zeros(n_classes)
        for class_idx, estimator in self._per_class.items():
            if class_idx < n_classes:
                dist[class_idx] = estimator.weight
        return dist

    def best_split_suggestion(
        self,
        criterion: SplitCriterion,
        pre_split: np.ndarray,
        feature: int,
    ) -> SplitSuggestion | None:
        """Best binary threshold split of this feature according to ``criterion``."""
        thresholds = self._candidate_thresholds()
        if thresholds.size == 0:
            return None
        n_classes = len(pre_split)
        observed = self.class_dist(n_classes)
        best: SplitSuggestion | None = None
        for threshold in thresholds:
            left = self.class_dists_below(threshold, n_classes)
            right = np.maximum(observed - left, 0.0)
            merit = criterion.merit(pre_split, [left, right])
            if best is None or merit > best.merit:
                best = SplitSuggestion(
                    feature=feature,
                    threshold=float(threshold),
                    merit=float(merit),
                    children_dists=[left, right],
                )
        return best

    # --------------------------------------------------------- regression
    def target_stats_split(
        self, threshold: float
    ) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """(count, sum, sum_sq) of the numeric target left / right of ``threshold``.

        Used by the FIMT-DD classification adaptation, which treats the class
        index as a numeric target: the per-class Gaussian estimators give the
        estimated count of each class on either side of the threshold.
        """
        left = np.zeros(3)
        right = np.zeros(3)
        for class_idx, estimator in self._per_class.items():
            weight_left = estimator.weight_below(threshold)
            weight_right = estimator.weight - weight_left
            left += np.array(
                [weight_left, weight_left * class_idx, weight_left * class_idx**2]
            )
            right += np.array(
                [
                    weight_right,
                    weight_right * class_idx,
                    weight_right * class_idx**2,
                ]
            )
        return tuple(left), tuple(right)

    def best_sdr_suggestion(
        self, criterion: VarianceReductionCriterion, feature: int
    ) -> SplitSuggestion | None:
        """Best threshold according to standard-deviation reduction."""
        thresholds = self._candidate_thresholds()
        if thresholds.size == 0:
            return None
        total = np.zeros(3)
        for class_idx, estimator in self._per_class.items():
            total += np.array(
                [
                    estimator.weight,
                    estimator.weight * class_idx,
                    estimator.weight * class_idx**2,
                ]
            )
        best: SplitSuggestion | None = None
        for threshold in thresholds:
            left, right = self.target_stats_split(threshold)
            merit = criterion.merit(tuple(total), [left, right])
            if best is None or merit > best.merit:
                best = SplitSuggestion(
                    feature=feature, threshold=float(threshold), merit=float(merit)
                )
        return best


class NominalAttributeObserver:
    """Per-value class counts for one nominal feature.

    Emits binary "value == v versus rest" suggestions because the paper
    restricts every tree to binary splits.
    """

    def __init__(self) -> None:
        self._counts: dict[float, dict[int, float]] = {}

    @property
    def total_weight(self) -> float:
        return float(
            sum(sum(class_counts.values()) for class_counts in self._counts.values())
        )

    def update(self, value: float, class_idx: int, weight: float = 1.0) -> None:
        value_counts = self._counts.setdefault(float(value), {})
        value_counts[int(class_idx)] = value_counts.get(int(class_idx), 0.0) + weight

    def class_dist_for_value(self, value: float, n_classes: int) -> np.ndarray:
        dist = np.zeros(n_classes)
        for class_idx, weight in self._counts.get(float(value), {}).items():
            if class_idx < n_classes:
                dist[class_idx] = weight
        return dist

    def best_split_suggestion(
        self,
        criterion: SplitCriterion,
        pre_split: np.ndarray,
        feature: int,
    ) -> SplitSuggestion | None:
        if len(self._counts) < 2:
            return None
        n_classes = len(pre_split)
        observed = np.zeros(n_classes)
        for value in self._counts:
            observed += self.class_dist_for_value(value, n_classes)
        best: SplitSuggestion | None = None
        for value in self._counts:
            left = self.class_dist_for_value(value, n_classes)
            right = np.maximum(observed - left, 0.0)
            merit = criterion.merit(pre_split, [left, right])
            if best is None or merit > best.merit:
                best = SplitSuggestion(
                    feature=feature,
                    threshold=float(value),
                    merit=float(merit),
                    children_dists=[left, right],
                    is_nominal=True,
                )
        return best


@overrides(LeafObservers, "best_split_suggestions", "best_sdr_suggestions")
class ReferenceLeafObservers(LeafObservers):
    """Observer store whose split queries run the per-feature observer loops."""

    __slots__ = ()

    @classmethod
    def like(cls, store: LeafObservers) -> "ReferenceLeafObservers":
        """An empty reference store configured like ``store``."""
        return cls(store.n_features, store.n_split_points, store.nominal_features)

    def as_legacy_observers(
        self,
    ) -> dict[int, GaussianAttributeObserver | NominalAttributeObserver]:
        """Materialise classic per-feature observers from the store."""
        observers: dict[int, GaussianAttributeObserver | NominalAttributeObserver] = {}
        for feature in range(self.n_features):
            if feature in self.nominal_features:
                observer = NominalAttributeObserver()
                for value, counts in self._nominal.get(feature, {}).items():
                    observer._counts[value] = {
                        class_idx: weight
                        for class_idx, weight in enumerate(counts)
                        if weight != 0.0
                    }
                observers[feature] = observer
            else:
                observer = GaussianAttributeObserver(self.n_split_points)
                for class_idx in range(self.n_classes):
                    weight = self._weights[class_idx][feature]
                    if weight == 0.0:
                        continue
                    estimator = GaussianEstimator()
                    estimator.weight = weight
                    estimator.mean = self._means[class_idx][feature]
                    estimator._m2 = self._m2[class_idx][feature]
                    observer._per_class[class_idx] = estimator
                observer._min_value = self._mins[feature]
                observer._max_value = self._maxs[feature]
                observers[feature] = observer
        return observers

    def best_split_suggestions(
        self, criterion: SplitCriterion, pre_split: np.ndarray
    ) -> list[SplitSuggestion]:
        pre_split = np.asarray(pre_split, dtype=float)
        suggestions = []
        for feature, observer in self.as_legacy_observers().items():
            suggestion = observer.best_split_suggestion(criterion, pre_split, feature)
            if suggestion is not None:
                suggestions.append(suggestion)
        return suggestions

    def best_sdr_suggestions(
        self, criterion: VarianceReductionCriterion
    ) -> list[SplitSuggestion]:
        suggestions = []
        for feature, observer in self.as_legacy_observers().items():
            if isinstance(observer, NominalAttributeObserver):
                continue
            suggestion = observer.best_sdr_suggestion(criterion, feature)
            if suggestion is not None:
                suggestions.append(suggestion)
        return suggestions


class _PerRowTree:
    """Per-row training and inference on reference observer stores."""

    def _new_leaf(self, depth: int, initial_dist: np.ndarray | None = None) -> LeafNode:
        leaf = super()._new_leaf(depth, initial_dist)
        leaf._observers = ReferenceLeafObservers.like(leaf.observers)
        return leaf

    def _fit_batch(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        for row in range(len(X)):
            self._learn_one(X[row], int(y_idx[row]))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X, _ = self._validate_input(X)
        if self.root is None or self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        n_classes = max(self.n_classes_, 2)
        proba = np.zeros((len(X), self.n_classes_))
        for row, x in enumerate(X):
            node = self.root
            while isinstance(node, SplitNode):
                child = node.child_for(x)
                if child is None:
                    break
                node = child
            if isinstance(node, SplitNode):
                leaf_proba = self._split_node_proba(node, n_classes)
            else:
                leaf_proba = node.predict_proba(x, n_classes)
            proba[row] = leaf_proba[: self.n_classes_]
        row_sums = proba.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        return proba / row_sums


@overrides(HoeffdingTreeClassifier, "_fit_batch", "_new_leaf", "predict_proba")
class ReferenceHoeffdingTree(_PerRowTree, HoeffdingTreeClassifier):
    """VFDT that walks the tree once per training row."""

    def _learn_one(self, x: np.ndarray, y_idx: int) -> None:
        leaf, parent, branch = self._sort_to_leaf(x)
        leaf.learn_one(x, y_idx, n_classes=max(self.n_classes_, 2))
        if self._can_split(leaf):
            weight_seen = leaf.total_weight
            if (
                weight_seen - leaf.weight_at_last_split_attempt
                >= self.grace_period
            ):
                leaf.weight_at_last_split_attempt = weight_seen
                self._attempt_split(leaf, parent, branch)

    def _sort_to_leaf(
        self, x: np.ndarray
    ) -> tuple[LeafNode, SplitNode | None, int]:
        """Walk to the leaf for ``x`` (creating missing children)."""
        node = self.root
        parent: SplitNode | None = None
        branch = 0
        while isinstance(node, SplitNode):
            parent = node
            branch = node.branch_for(x)
            child = node.children[branch]
            if child is None:
                child = self._new_leaf(depth=node.depth + 1)
                node.children[branch] = child
            node = child
        return node, parent, branch


@overrides(HoeffdingAdaptiveTreeClassifier, "_fit_batch", "_new_leaf", "predict_proba")
class ReferenceHoeffdingAdaptiveTree(_PerRowTree, HoeffdingAdaptiveTreeClassifier):
    """HT-Ada that runs its per-row recursion for every row."""


@overrides(ExtremelyFastDecisionTreeClassifier, "_new_leaf", "predict_proba")
class ReferenceExtremelyFastDecisionTree(
    _PerRowTree, ExtremelyFastDecisionTreeClassifier
):
    """EFDT on per-feature observers with per-row inference."""


def fimtdd_proba_per_row(model: FIMTDDClassifier, X: np.ndarray) -> np.ndarray:
    """FIMT-DD inference with one root-to-leaf walk and one model call per row.

    May differ from the batched inference in the last ulp (BLAS blocks the
    batched matmul differently); training statistics never do.
    """
    X, _ = model._validate_input(X)
    if model.root is None or model.classes_ is None:
        raise RuntimeError("predict_proba() called before partial_fit().")
    proba = np.zeros((len(X), model.n_classes_))
    for row, x in enumerate(X):
        node = model.root
        while isinstance(node, FIMTSplitNode):
            child = node.child_for(x)
            if child is None:
                child = model._new_leaf(depth=node.depth + 1)
                node.children[node.branch_for(x)] = child
            node = child
        leaf_proba = node.model.predict_proba(x.reshape(1, -1))[0]
        proba[row] = leaf_proba[: model.n_classes_]
    row_sums = proba.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    return proba / row_sums


@overrides(FIMTDDClassifier, "_new_leaf", "predict_proba")
class ReferenceFIMTDD(FIMTDDClassifier):
    """FIMT-DD on per-feature SDR sweeps with per-row inference."""

    def _new_leaf(self, depth: int, model=None) -> FIMTLeaf:
        leaf = super()._new_leaf(depth, model)
        leaf._observers = ReferenceLeafObservers.like(leaf.observers)
        return leaf

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return fimtdd_proba_per_row(self, X)
