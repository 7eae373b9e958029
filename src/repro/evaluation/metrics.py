"""Classification metrics for (imbalanced) streaming evaluation.

The paper reports the F1 measure because many of the evaluated data sets are
imbalanced; the implementation here provides macro- and weighted-averaged
precision, recall and F1 on top of a confusion matrix that can be updated
incrementally.

Every metric is a function of a confusion count matrix's marginals -- its
total, diagonal, row sums and column sums -- and each is written once, on
:class:`Marginals`.  :class:`ConfusionMatrix`'s metric methods are views of
the marginals of its running matrix; the prequential evaluator reads the
marginals of each batch's counts once and takes all of its per-batch metrics
from them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.persistence.mixin import PersistableStateMixin


def _beyond(observed: float, baseline: float) -> float:
    """Agreement beyond a baseline classifier (the shared kappa formula).

    A baseline that is already perfect leaves nothing to beat: ``0.0``.
    """
    if baseline >= 1.0:
        return 0.0
    return (observed - baseline) / (1.0 - baseline)


class Marginals(NamedTuple):
    """The sums of a confusion count matrix that every metric reads.

    Rows of the count matrix are true classes and columns predicted ones.
    The per-class sums are plain lists: the metrics are a handful of scalar
    operations per class, each rounded exactly as numpy rounds it.  The two
    sums of floats over classes (the macro and weighted averages) go through
    numpy's pairwise reduction, as ``mean`` and ``np.average`` do: from eight
    classes on, a left-to-right sum differs from it in the last bit.  Counts
    are integers (or floats holding integers) below 2**53, so every other sum
    is exact in any order; kappa's chance term, a sum of products of
    marginals, is exact while the squared total is (up to about 9.4e7 rows).
    """

    #: Number of counted rows.
    total: float
    #: Number of correctly predicted rows (the trace).
    n_correct: float
    #: Per class: rows predicted correctly (the diagonal).
    correct: list[float]
    #: Per class: rows whose true label is the class (row sums, the support).
    actual: list[float]
    #: Per class: rows predicted as the class (column sums).
    predicted: list[float]

    @classmethod
    def of(cls, counts: np.ndarray) -> Marginals:
        correct = counts.diagonal().tolist()
        actual = counts.sum(axis=1).tolist()
        return cls(
            float(sum(actual)),
            float(sum(correct)),
            correct,
            actual,
            counts.sum(axis=0).tolist(),
        )

    # ------------------------------------------------------- per class
    def precision(self) -> list[float]:
        return [c / n if n else 0.0 for c, n in zip(self.correct, self.predicted)]

    def recall(self) -> list[float]:
        return [c / n if n else 0.0 for c, n in zip(self.correct, self.actual)]

    def f1(self) -> list[float]:
        return [
            2.0 * p * r / (p + r) if p + r > 0 else 0.0
            for p, r in zip(self.precision(), self.recall())
        ]

    def average(
        self, per_class: list[float], classes: np.ndarray, average: str
    ) -> float:
        """Average a per-class metric over ``classes`` (the matrix's order)."""
        if average == "macro":
            present = [value for value, n in zip(per_class, self.actual) if n > 0]
            if not present:
                return 0.0
            return float(np.add.reduce(present)) / len(present)
        if average == "weighted":
            if self.total == 0:
                return 0.0
            weighted = [value * n for value, n in zip(per_class, self.actual)]
            return float(np.add.reduce(weighted)) / self.total
        if average == "binary":
            if len(classes) != 2:
                raise ValueError("binary averaging requires exactly two classes.")
            # The positive class is the larger label (sklearn's default of
            # pos_label=1 for {0, 1}), independent of the caller's ordering.
            return per_class[1 if classes[1] > classes[0] else 0]
        raise ValueError(
            f"average must be 'macro', 'weighted' or 'binary', got {average!r}."
        )

    # ---------------------------------------------------------- scalars
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return self.n_correct / self.total

    def kappa(self) -> float:
        """Cohen's kappa: agreement beyond a chance classifier.

        Chance agreement is the dot product of the row and column marginals;
        degenerate windows (empty, or marginals that make chance agreement
        exactly one, e.g. a single observed class) score ``0.0``.
        """
        if self.total == 0:
            return 0.0
        chance = float(sum(a * p for a, p in zip(self.actual, self.predicted)))
        return _beyond(self.accuracy(), chance / (self.total * self.total))

    def kappa_m(self) -> float:
        """Kappa-M: agreement beyond the majority-class classifier.

        Replaces Cohen's chance term with the accuracy of always predicting
        the most frequent *true* class (Bifet et al., 2015), which is the
        honest baseline on imbalanced streams.  Degenerate windows (empty,
        or a majority baseline that is already perfect) score ``0.0``.
        """
        if self.total == 0:
            return 0.0
        return _beyond(self.accuracy(), float(max(self.actual)) / self.total)


class ConfusionMatrix(PersistableStateMixin):
    """Incrementally updatable confusion matrix over a fixed class space.

    Rows, columns and the per-class metric arrays follow the order of the
    ``classes`` argument, which need not be sorted.
    """

    def __init__(self, classes: np.ndarray) -> None:
        self.classes = np.asarray(classes)
        if len(self.classes) < 2:
            raise ValueError("At least two classes are required.")
        if len(np.unique(self.classes)) != len(self.classes):
            raise ValueError(f"Duplicate classes in {self.classes!r}.")
        size = len(self.classes)
        self.matrix = np.zeros((size, size), dtype=float)
        # searchsorted requires a sorted array; keep a sorted view plus the
        # permutation back to the caller's class order.
        sort_order = np.argsort(self.classes, kind="stable")
        self._sorted_classes = self.classes[sort_order]
        self._sorted_to_caller = sort_order

    def _index(self, labels: np.ndarray) -> np.ndarray:
        sorted_classes = self._sorted_classes
        positions = sorted_classes.searchsorted(labels)
        # A label above every class lands one past the end.
        np.minimum(positions, len(sorted_classes) - 1, out=positions)
        known = sorted_classes[positions] == labels
        if not known.all():
            raise ValueError(
                f"Unknown labels encountered: {np.unique(labels[~known])}."
            )
        return self._sorted_to_caller[positions]

    def count(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        """Confusion counts of the pairs, without adding them to :attr:`matrix`.

        Returns an integer matrix in this matrix's class order: each side's
        labels are mapped to class indices once and the cells are counted
        with one ``bincount``.
        """
        y_true = np.asarray(y_true)
        y_pred = np.asarray(y_pred)
        if len(y_true) != len(y_pred):
            raise ValueError("y_true and y_pred have inconsistent lengths.")
        size = len(self.classes)
        cells = self._index(y_true)
        cells *= size
        cells += self._index(y_pred)
        return np.bincount(cells, minlength=size * size).reshape(size, size)

    def update(self, y_true: np.ndarray, y_pred: np.ndarray) -> "ConfusionMatrix":
        # Integer counts below 2**53 add exactly, whatever the batching.
        self.matrix += self.count(y_true, y_pred)
        return self

    # ------------------------------------------------------------- metrics
    @property
    def marginals(self) -> Marginals:
        return Marginals.of(self.matrix)

    @property
    def total(self) -> float:
        return self.marginals.total

    def accuracy(self) -> float:
        return self.marginals.accuracy()

    def per_class_precision(self) -> np.ndarray:
        return np.array(self.marginals.precision())

    def per_class_recall(self) -> np.ndarray:
        return np.array(self.marginals.recall())

    def per_class_f1(self) -> np.ndarray:
        return np.array(self.marginals.f1())

    def precision(self, average: str = "macro") -> float:
        marginals = self.marginals
        return marginals.average(marginals.precision(), self.classes, average)

    def recall(self, average: str = "macro") -> float:
        marginals = self.marginals
        return marginals.average(marginals.recall(), self.classes, average)

    def f1(self, average: str = "macro") -> float:
        marginals = self.marginals
        return marginals.average(marginals.f1(), self.classes, average)

    def kappa(self) -> float:
        """Cohen's kappa (see :meth:`Marginals.kappa`)."""
        return self.marginals.kappa()

    def kappa_m(self) -> float:
        """Kappa-M (see :meth:`Marginals.kappa_m`)."""
        return self.marginals.kappa_m()


def _matrix_from(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    # Unique labels of each side, then their union: no concatenated copy of
    # the two label arrays.
    classes = np.union1d(np.unique(y_true), np.unique(y_pred))
    if len(classes) < 2:
        classes = np.unique(np.concatenate([classes, [0, 1]]))
    matrix = ConfusionMatrix(classes)
    matrix.update(y_true, y_pred)
    return matrix


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions."""
    return _matrix_from(y_true, y_pred).accuracy()


def precision_score(
    y_true: np.ndarray, y_pred: np.ndarray, average: str = "macro"
) -> float:
    """Averaged precision."""
    return _matrix_from(y_true, y_pred).precision(average)


def recall_score(
    y_true: np.ndarray, y_pred: np.ndarray, average: str = "macro"
) -> float:
    """Averaged recall."""
    return _matrix_from(y_true, y_pred).recall(average)


def f1_score(y_true: np.ndarray, y_pred: np.ndarray, average: str = "macro") -> float:
    """Averaged F1 measure (harmonic mean of precision and recall)."""
    return _matrix_from(y_true, y_pred).f1(average)


def cohen_kappa_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Cohen's kappa (see :meth:`Marginals.kappa`)."""
    return _matrix_from(y_true, y_pred).kappa()


def kappa_m_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Kappa-M against the majority-class baseline
    (see :meth:`Marginals.kappa_m`)."""
    return _matrix_from(y_true, y_pred).kappa_m()


def kappa_temporal_score(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    last_label: object | None = None,
    observed: float | None = None,
) -> float:
    """Kappa-temporal: agreement beyond the no-change classifier.

    The reference classifier predicts the *previous* true label (Zliobaite
    et al., 2015), which is the honest baseline on autocorrelated streams.
    ``last_label`` is the true label that preceded ``y_true`` (the previous
    batch's final label in a streaming evaluation); without one the first
    row counts as a no-change miss.  ``observed`` is the accuracy of
    ``y_pred`` when the caller already has it (a confusion matrix of the same
    rows); it is computed from the labels otherwise.  Degenerate windows
    (empty, or a no-change baseline that is already perfect) score ``0.0``.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred have inconsistent lengths.")
    if len(y_true) == 0:
        return 0.0
    if observed is None:
        observed = float(np.mean(y_true == y_pred))
    no_change = int(np.count_nonzero(y_true[1:] == y_true[:-1]))
    if last_label is not None and y_true[0] == last_label:
        no_change += 1
    return _beyond(observed, no_change / len(y_true))
