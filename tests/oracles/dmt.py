"""Reference paths of the DMT kernels: candidates, leaf models, inference.

* :class:`ReferenceCandidateManager` -- per-feature ``np.unique`` /
  ``np.quantile`` proposals, and a separate refresh and admission step with
  one Python-loop mask and one scalar gain (:func:`candidate_gain`) per
  candidate.
* :class:`ReferenceGLM` -- one full :meth:`~IncrementalGLM.gradient` call per
  observation in ``fit_incremental``.
* :class:`ReferenceNaiveBayes` -- one log-likelihood reduction per class.
* :class:`ReferenceDynamicModelTree` -- a DMT that trains on the reference
  store and the reference SGD.
* :func:`dmt_proba_per_row` -- DMT inference that routes and scores one row
  at a time; it matches the batched inference to ``atol=1e-12`` (one matmul
  per leaf sums in a different order than one per row).
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import CandidateManager, CandidateStatistics
from repro.core.dmt import DynamicModelTree
from repro.core.gains import approximate_candidate_loss, split_gain
from repro.core.nodes import DMTNode
from repro.linear.glm import IncrementalGLM
from repro.linear.naive_bayes import GaussianNaiveBayes
from tests.oracles import overrides


def candidate_gain(
    candidate: CandidateStatistics,
    node_loss: float,
    node_gradient: np.ndarray,
    node_count: float,
    learning_rate: float,
    reference_loss: float | None = None,
) -> float:
    """Loss-based gain of one candidate.

    Parameters
    ----------
    candidate:
        Left-partition statistics of the candidate.
    node_loss, node_gradient, node_count:
        Accumulated statistics of the node owning this candidate.  The
        right-child statistics are derived as node minus left.
    learning_rate:
        SGD step size used in the candidate-loss approximation.
    reference_loss:
        The loss the candidate competes against.  For a leaf node this is
        the node's own loss (equation (3)); for an inner node it is the
        summed loss of the subtree's leaves (equation (4)).  Defaults to
        ``node_loss``.
    """
    if reference_loss is None:
        reference_loss = node_loss
    left_loss = approximate_candidate_loss(
        candidate.loss, candidate.gradient, candidate.count, learning_rate
    )
    right_gradient = (
        node_gradient - candidate.gradient
        if candidate.gradient.size
        else node_gradient
    )
    right_loss = approximate_candidate_loss(
        node_loss - candidate.loss,
        right_gradient,
        node_count - candidate.count,
        learning_rate,
    )
    return split_gain(reference_loss, left_loss, right_loss)


@overrides(CandidateManager, "propose_thresholds", "observe", "best_candidate")
class ReferenceCandidateManager(CandidateManager):
    """Candidate store that refreshes, scores and admits one candidate at a time.

    :meth:`observe` is the two-step update the production store fuses: every
    stored candidate first accumulates the batch through its own masked row
    sum, then the batch's new proposals are masked, summed and scored one by
    one.  Every gain is a scalar :func:`candidate_gain`, and no gain or child
    loss is carried from one call to the next.
    """

    def propose_thresholds(self, X: np.ndarray) -> dict[int, np.ndarray]:
        """Per-feature ``np.unique``, capped by ``np.quantile``."""
        X = np.asarray(X, dtype=float)
        proposals: dict[int, np.ndarray] = {}
        quantiles: np.ndarray | None = None
        for feature in range(self.n_features):
            values = np.unique(X[:, feature])
            if len(values) > self.max_values_per_feature:
                if quantiles is None:
                    quantiles = np.linspace(
                        0.0, 1.0, self.max_values_per_feature + 2
                    )[1:-1]
                values = np.unique(np.quantile(values, quantiles))
            proposals[feature] = values
        return proposals

    def observe(
        self,
        X: np.ndarray,
        augmented: np.ndarray,
        batch_loss: float,
        batch_gradient: np.ndarray,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
    ) -> None:
        X = np.asarray(X, dtype=float)
        self._ensure_width(augmented.shape[1] - 1)
        stored_masks = X[:, self._features] <= self._thresholds
        for index in range(len(self)):
            sums = augmented[stored_masks[:, index]].sum(axis=0)
            self._gradients[index] += sums[:-1]
            self._losses[index] += sums[-1]
        self._counts += stored_masks.sum(axis=0)

        stored_keys = set(zip(self._features.tolist(), self._thresholds.tolist()))
        proposals = [
            (feature, float(value))
            for feature, values in self.propose_thresholds(X).items()
            for value in values
            if (feature, float(value)) not in stored_keys
        ]
        fresh_features = np.array([key[0] for key in proposals], dtype=np.intp)
        fresh_thresholds = np.array([key[1] for key in proposals], dtype=float)
        masks = X[:, fresh_features] <= fresh_thresholds
        counts = masks.sum(axis=0)
        # A new candidate that does not separate the batch carries no
        # information yet.
        informative = np.flatnonzero((counts > 0) & (counts < len(X)))
        if not len(informative):
            return
        fresh_features = fresh_features[informative]
        fresh_thresholds = fresh_thresholds[informative]
        fresh_counts = counts[informative].astype(float)
        fresh_sums = np.array(
            [augmented[masks[:, index]].sum(axis=0) for index in informative]
        )
        fresh_losses = fresh_sums[:, -1]
        fresh_gradients = fresh_sums[:, :-1]
        fresh_gains = self._scalar_gains(
            fresh_losses, fresh_gradients, fresh_counts,
            batch_loss, batch_gradient, float(len(X)), learning_rate,
        )
        order = sorted(range(len(fresh_gains)), key=lambda index: -fresh_gains[index])
        n_stored = len(self)
        free_slots = max(self.max_candidates - n_stored, 0)
        admitted = order[:free_slots]
        evicted: list[int] = []
        budget = int(np.floor(self.replacement_rate * self.max_candidates))
        if len(order) > free_slots and budget > 0 and n_stored:
            stored_gains = self._scalar_gains(
                self._losses, self._gradients, self._counts,
                node_loss, node_gradient, node_count, learning_rate,
            )
            weakest_first = sorted(range(n_stored), key=stored_gains.__getitem__)
            for newcomer, weakest in zip(order[free_slots:], weakest_first):
                if len(evicted) >= budget:
                    break
                if fresh_gains[newcomer] <= stored_gains[weakest]:
                    break
                evicted.append(weakest)
                admitted.append(newcomer)
        keep = np.ones(n_stored, dtype=bool)
        keep[evicted] = False
        self._features = np.concatenate(
            (self._features[keep], fresh_features[admitted])
        )
        self._thresholds = np.concatenate(
            (self._thresholds[keep], fresh_thresholds[admitted])
        )
        self._losses = np.concatenate((self._losses[keep], fresh_losses[admitted]))
        self._counts = np.concatenate((self._counts[keep], fresh_counts[admitted]))
        self._gradients = np.concatenate(
            (self._gradients[keep], fresh_gradients[admitted])
        )

    def best_candidate(
        self,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
        reference_loss: float | None = None,
        exclude: tuple[int, float] | None = None,
    ) -> tuple[CandidateStatistics | None, float]:
        gains = self._scalar_gains(
            self._losses, self._gradients, self._counts,
            node_loss, node_gradient, node_count, learning_rate, reference_loss,
        )
        best, best_gain = None, -np.inf
        for index, gain in enumerate(gains):
            key = (int(self._features[index]), float(self._thresholds[index]))
            if key == exclude:
                continue
            if gain > best_gain:
                best, best_gain = index, gain
        if best is None:
            return None, -np.inf
        return self._materialize(best), best_gain

    @staticmethod
    def _scalar_gains(
        losses: np.ndarray,
        gradients: np.ndarray,
        counts: np.ndarray,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
        reference_loss: float | None = None,
    ) -> list[float]:
        """One scalar :func:`candidate_gain` per candidate row."""
        return [
            candidate_gain(
                CandidateStatistics(
                    feature=0,
                    threshold=0.0,
                    loss=float(losses[index]),
                    gradient=gradients[index],
                    count=float(counts[index]),
                ),
                node_loss,
                node_gradient,
                node_count,
                learning_rate,
                reference_loss,
            )
            for index in range(len(losses))
        ]


@overrides(IncrementalGLM, "fit_incremental")
class ReferenceGLM(IncrementalGLM):
    """GLM whose instance-incremental SGD calls ``gradient`` once per row."""

    def fit_incremental(
        self, X: np.ndarray, y: np.ndarray, X_aug: np.ndarray | None = None
    ) -> "ReferenceGLM":
        X = self._coerce_batch(X)
        if X is None:
            return self
        y = np.asarray(y, dtype=int)
        for row in range(len(X)):
            grad = self.gradient(X[row : row + 1], y[row : row + 1])
            self.weights = self.weights - self.learning_rate * grad.reshape(
                self._weight_shape()
            )
        return self


@overrides(GaussianNaiveBayes, "_log_likelihood")
class ReferenceNaiveBayes(GaussianNaiveBayes):
    """Naive Bayes whose likelihood reduces one class at a time."""

    def _log_likelihood(self, X: np.ndarray, variances: np.ndarray) -> np.ndarray:
        log_likelihood = np.empty((len(X), self.n_classes))
        for class_idx in range(self.n_classes):
            diff = X - self._means[class_idx]
            var = variances[class_idx]
            log_likelihood[:, class_idx] = -0.5 * np.sum(
                np.log(2.0 * np.pi * var) + diff**2 / var, axis=1
            )
        return log_likelihood


@overrides(DMTNode, "__init__")
class ReferenceDMTNode(DMTNode):
    """DMT node with the reference candidate store (children inherit it)."""

    def __init__(
        self,
        model: IncrementalGLM,
        n_features: int,
        max_candidates: int | None,
        replacement_rate: float,
        max_values_per_feature: int,
    ) -> None:
        super().__init__(
            model, n_features, max_candidates, replacement_rate, max_values_per_feature
        )
        self.candidates = ReferenceCandidateManager(
            n_features=n_features,
            max_candidates=max_candidates,
            replacement_rate=replacement_rate,
            max_values_per_feature=max_values_per_feature,
        )


def dmt_proba_per_row(model: DynamicModelTree, X: np.ndarray) -> np.ndarray:
    """DMT inference that routes and scores one row at a time."""
    X, _ = model._validate_input(X)
    if model.root is None or model.classes_ is None:
        raise RuntimeError("predict_proba() called before partial_fit().")
    n_model_classes = model.root.model.n_classes
    width = min(n_model_classes, model.n_classes_)
    proba = np.zeros((len(X), model.n_classes_))
    for row, x in enumerate(X):
        leaf = model.root.sorted_leaf(x)
        leaf_proba = leaf.model.predict_proba(x.reshape(1, -1))[0]
        proba[row, :width] = leaf_proba[:width]
    row_sums = proba.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    return proba / row_sums


@overrides(DynamicModelTree, "_make_node")
class ReferenceDynamicModelTree(DynamicModelTree):
    """DMT trained on the reference candidate store and reference SGD."""

    def _make_node(self, model: IncrementalGLM | None = None) -> DMTNode:
        if model is None:
            model = ReferenceGLM(
                n_features=self.n_features_,
                n_classes=max(self.n_classes_, 2),
                learning_rate=self.learning_rate,
                rng=self._rng,
            )
        return ReferenceDMTNode(
            model=model,
            n_features=self.n_features_,
            max_candidates=self.n_candidates_factor * self.n_features_,
            replacement_rate=self.replacement_rate,
            max_values_per_feature=self.max_values_per_feature,
        )
