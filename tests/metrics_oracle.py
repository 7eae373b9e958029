"""Per-method metric formulas: the reference the one-pass scorer must match.

Each method here recomputes the sums it needs from a float matrix filled
with ``np.add.at``, and the evaluator scores a batch with a fresh matrix.
``repro`` derives every metric from one read of a count matrix's marginals;
the tests compare the two bit for bit (``float.hex``), so the formulas here
must stay as they are.
"""

from __future__ import annotations

import numpy as np


class ReferenceConfusionMatrix:
    """Confusion matrix over a fixed class space, one formula per method."""

    def __init__(self, classes: np.ndarray) -> None:
        self.classes = np.asarray(classes)
        size = len(self.classes)
        self.matrix = np.zeros((size, size), dtype=float)
        sort_order = np.argsort(self.classes, kind="stable")
        self._sorted_classes = self.classes[sort_order]
        self._sorted_to_caller = sort_order

    def _index(self, labels: np.ndarray) -> np.ndarray:
        positions = np.searchsorted(self._sorted_classes, labels)
        positions = np.clip(positions, 0, len(self._sorted_classes) - 1)
        valid = self._sorted_classes[positions] == labels
        if not np.all(valid):
            unknown = np.asarray(labels)[~valid]
            raise ValueError(f"Unknown labels encountered: {np.unique(unknown)}.")
        return self._sorted_to_caller[positions]

    def update(self, y_true, y_pred) -> "ReferenceConfusionMatrix":
        y_true = np.asarray(y_true)
        y_pred = np.asarray(y_pred)
        rows = self._index(y_true)
        cols = self._index(y_pred)
        np.add.at(self.matrix, (rows, cols), 1.0)
        return self

    @property
    def total(self) -> float:
        return float(self.matrix.sum())

    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return float(np.trace(self.matrix) / self.total)

    def per_class_precision(self) -> np.ndarray:
        predicted = self.matrix.sum(axis=0)
        correct = np.diag(self.matrix)
        return np.divide(
            correct, predicted, out=np.zeros_like(correct), where=predicted > 0
        )

    def per_class_recall(self) -> np.ndarray:
        actual = self.matrix.sum(axis=1)
        correct = np.diag(self.matrix)
        return np.divide(
            correct, actual, out=np.zeros_like(correct), where=actual > 0
        )

    def per_class_f1(self) -> np.ndarray:
        precision = self.per_class_precision()
        recall = self.per_class_recall()
        denominator = precision + recall
        return np.divide(
            2.0 * precision * recall,
            denominator,
            out=np.zeros_like(precision),
            where=denominator > 0,
        )

    def _average(self, per_class: np.ndarray, average: str) -> float:
        support = self.matrix.sum(axis=1)
        if average == "macro":
            present = support > 0
            if not np.any(present):
                return 0.0
            return float(per_class[present].mean())
        if average == "weighted":
            if support.sum() == 0:
                return 0.0
            return float(np.average(per_class, weights=support))
        if average == "binary":
            if len(self.classes) != 2:
                raise ValueError("binary averaging requires exactly two classes.")
            return float(per_class[int(np.argmax(self.classes))])
        raise ValueError(f"unknown average {average!r}.")

    def precision(self, average: str = "macro") -> float:
        return self._average(self.per_class_precision(), average)

    def recall(self, average: str = "macro") -> float:
        return self._average(self.per_class_recall(), average)

    def f1(self, average: str = "macro") -> float:
        return self._average(self.per_class_f1(), average)

    def kappa(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        observed = float(np.trace(self.matrix)) / total
        expected = float(
            self.matrix.sum(axis=1) @ self.matrix.sum(axis=0)
        ) / (total * total)
        if expected >= 1.0:
            return 0.0
        return (observed - expected) / (1.0 - expected)

    def kappa_m(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        observed = float(np.trace(self.matrix)) / total
        majority = float(self.matrix.sum(axis=1).max()) / total
        if majority >= 1.0:
            return 0.0
        return (observed - majority) / (1.0 - majority)


def reference_kappa_temporal_score(y_true, y_pred, last_label=None) -> float:
    """Kappa-temporal against the no-change classifier, in its own pass."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) == 0:
        return 0.0
    observed = float(np.mean(y_true == y_pred))
    no_change = np.zeros(len(y_true), dtype=bool)
    no_change[1:] = y_true[1:] == y_true[:-1]
    if last_label is not None:
        no_change[0] = y_true[0] == last_label
    reference = float(np.mean(no_change))
    if reference >= 1.0:
        return 0.0
    return (observed - reference) / (1.0 - reference)


def reference_batch_scores(
    running: ReferenceConfusionMatrix,
    y_true: np.ndarray,
    y_pred: np.ndarray,
    average: str,
    last_label: object | None,
) -> tuple[float, float, float, float, float]:
    """One scored prequential batch as the evaluator used to score it.

    A fresh matrix per batch, ``update`` on it and on ``running``, then
    ``(f1, accuracy, kappa, kappa_m, kappa_temporal)``.
    """
    batch = ReferenceConfusionMatrix(running.classes)
    if len(y_true):
        batch.update(y_true, y_pred)
        running.update(y_true, y_pred)
    return (
        batch.f1(average),
        batch.accuracy(),
        batch.kappa(),
        batch.kappa_m(),
        reference_kappa_temporal_score(y_true, y_pred, last_label),
    )
