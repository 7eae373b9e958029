"""Attribute observers used by the Hoeffding-tree family.

An attribute observer summarises the joint distribution of one feature and
the class label at a leaf and proposes binary split points.  Numeric features
use a per-class Gaussian estimator (the standard VFDT approach); nominal
features use per-value class counts.  The paper restricts all trees to binary
splits, so both observers only emit binary suggestions.

Each leaf keeps *one* :class:`LeafObservers` store in structure-of-arrays
form (per-class rows of Welford weight/mean/M2 triplets covering every
feature at once) rather than one observer object per feature.  Split queries
score all candidate thresholds of all features in a handful of array
operations, bit-identical to the classic per-feature, per-threshold observer
loops (kept as test oracles in ``tests/oracles``).  Models persisted with
per-feature observers load through :mod:`repro.persistence.migrations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trees.criteria import SplitCriterion, VarianceReductionCriterion


@dataclass
class SplitSuggestion:
    """A candidate binary split of one feature."""

    feature: int
    threshold: float
    merit: float
    children_dists: list[np.ndarray] = field(default_factory=list)
    is_nominal: bool = False

    def route_left(self, value: float) -> bool:
        """Return whether a feature value goes to the left branch."""
        if self.is_nominal:
            return value == self.threshold
        return value <= self.threshold


def _erf_vec(z):
    """Error function via Abramowitz-Stegun approximation (vector-safe).

    Works elementwise on arrays and scalars; numpy's ufuncs produce the same
    bits for an array element as for the equivalent scalar call, so the
    threshold sweeps match a per-threshold scalar evaluation bit for bit.
    """
    sign = np.sign(z)
    z = abs(z)
    t = 1.0 / (1.0 + 0.3275911 * z)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-z * z))


class LeafObservers:
    """Structure-of-arrays attribute statistics for one learning leaf.

    Gaussian statistics live in class-major ``[class][feature]`` lists of Welford
    (weight, mean, M2) triplets, feature ranges in flat min/max lists and
    nominal features in per-value class-count lists.  Lists (not arrays) are
    the working representation because the Welford recurrence is inherently
    sequential per (feature, class) cell: the batch update loops over rows in
    Python but touches every feature of a row with plain float arithmetic,
    which is both faster than per-feature method dispatch and bit-identical
    to a per-feature Welford update.

    Split-point queries materialise numpy arrays on demand:
    :meth:`best_split_suggestions` scores every candidate threshold of every
    feature in one sweep.
    """

    __slots__ = (
        "n_features",
        "n_split_points",
        "nominal_features",
        "n_classes",
        "_weights",
        "_means",
        "_m2",
        "_mins",
        "_maxs",
        "_nominal",
    )

    def __init__(
        self,
        n_features: int,
        n_split_points: int = 10,
        nominal_features: set[int] | None = None,
    ) -> None:
        if n_split_points < 1:
            raise ValueError(
                f"n_split_points must be >= 1, got {n_split_points!r}."
            )
        self.n_features = int(n_features)
        self.n_split_points = int(n_split_points)
        self.nominal_features = set(nominal_features or set())
        self.n_classes = 0
        # Class-major Welford statistics: self._weights[c][f] etc.
        self._weights: list[list[float]] = []
        self._means: list[list[float]] = []
        self._m2: list[list[float]] = []
        self._mins: list[float] = [np.inf] * self.n_features
        self._maxs: list[float] = [-np.inf] * self.n_features
        # feature -> value -> per-class weights (insertion order preserved).
        self._nominal: dict[int, dict[float, list[float]]] = {}

    # ------------------------------------------------------------- growth
    def grow_classes(self, n_classes: int) -> None:
        if n_classes <= self.n_classes:
            return
        for _ in range(self.n_classes, n_classes):
            self._weights.append([0.0] * self.n_features)
            self._means.append([0.0] * self.n_features)
            self._m2.append([0.0] * self.n_features)
        for value_counts in self._nominal.values():
            for counts in value_counts.values():
                counts.extend([0.0] * (n_classes - len(counts)))
        self.n_classes = n_classes

    @property
    def numeric_features(self) -> list[int]:
        return [
            feature
            for feature in range(self.n_features)
            if feature not in self.nominal_features
        ]

    # ------------------------------------------------------------- updates
    def update_row(
        self, values: list[float], y_idx: int, weight: float = 1.0
    ) -> None:
        """Update with one observation.

        ``values`` must be plain Python floats (``x.tolist()``); the Welford
        recurrence below is the per-feature Gaussian estimator update
        (``delta``, ``mean += weight * delta / weight_total``,
        ``m2 += weight * delta * (value - mean)``).
        """
        y_idx = int(y_idx)
        if y_idx >= self.n_classes:
            self.grow_classes(y_idx + 1)
        mins = self._mins
        maxs = self._maxs
        weights = self._weights[y_idx]
        means = self._means[y_idx]
        m2 = self._m2[y_idx]
        nominal = self.nominal_features
        positive = weight > 0
        if not nominal and positive and weight == 1.0:
            # Hot path: all-numeric leaf with a unit-weight observation.
            for feature, value in enumerate(values):
                new_weight = weights[feature] + 1.0
                delta = value - means[feature]
                new_mean = means[feature] + delta / new_weight
                m2[feature] += delta * (value - new_mean)
                means[feature] = new_mean
                weights[feature] = new_weight
                if value < mins[feature]:
                    mins[feature] = value
                if value > maxs[feature]:
                    maxs[feature] = value
            return
        for feature, value in enumerate(values):
            if feature in nominal:
                value_counts = self._nominal.setdefault(feature, {})
                counts = value_counts.get(value)
                if counts is None:
                    counts = value_counts[value] = [0.0] * self.n_classes
                counts[y_idx] += weight
                continue
            if positive:
                new_weight = weights[feature] + weight
                delta = value - means[feature]
                new_mean = means[feature] + weight * delta / new_weight
                m2[feature] += weight * delta * (value - new_mean)
                means[feature] = new_mean
                weights[feature] = new_weight
            if value < mins[feature]:
                mins[feature] = value
            if value > maxs[feature]:
                maxs[feature] = value

    def update_batch(
        self,
        X: np.ndarray,
        y_idx: np.ndarray,
        y_list: list[int] | None = None,
    ) -> None:
        """Bulk update with a batch of unit-weight observations.

        Bit-identical to calling :meth:`update_row` per row: min/max merges
        are exact, nominal counts are additive, and the per-cell Welford
        recurrences only depend on the within-class subsequence of rows.
        ``y_list`` optionally passes the class indices as a plain list so
        hot callers avoid a second ``tolist`` round trip.
        """
        X = np.asarray(X, dtype=float)
        # The emptiness check runs *before* the 1-D reshape: reshaping an
        # empty 1-D input would produce a bogus (1, 0) "row".
        if X.size == 0:
            return
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if y_list is None:
            y_list = np.asarray(y_idx, dtype=np.intp).tolist()
        self.grow_classes(max(y_list) + 1)

        mins = self._mins
        maxs = self._maxs
        rows_list = X.tolist()
        nominal = self.nominal_features
        weights_by_class = self._weights
        means_by_class = self._means
        m2_by_class = self._m2
        if not nominal and len(rows_list) <= 16:
            # Tiny all-numeric chunks: fold the min/max tracking into the
            # Welford pass (min/max are exact under any evaluation order,
            # so this matches the batched reductions bit-for-bit).
            for row, class_idx in zip(rows_list, y_list):
                weights = weights_by_class[class_idx]
                means = means_by_class[class_idx]
                m2 = m2_by_class[class_idx]
                for feature, value in enumerate(row):
                    new_weight = weights[feature] + 1.0
                    delta = value - means[feature]
                    new_mean = means[feature] + delta / new_weight
                    m2[feature] += delta * (value - new_mean)
                    means[feature] = new_mean
                    weights[feature] = new_weight
                    if value < mins[feature]:
                        mins[feature] = value
                    if value > maxs[feature]:
                        maxs[feature] = value
            return
        column_mins = X.min(axis=0).tolist()
        column_maxs = X.max(axis=0).tolist()
        for feature in range(self.n_features):
            if feature in nominal:
                # The per-row path tracks no range for nominal features;
                # keep the stored state identical between the two paths.
                continue
            if column_mins[feature] < mins[feature]:
                mins[feature] = column_mins[feature]
            if column_maxs[feature] > maxs[feature]:
                maxs[feature] = column_maxs[feature]

        if not nominal:
            for row, class_idx in zip(rows_list, y_list):
                weights = weights_by_class[class_idx]
                means = means_by_class[class_idx]
                m2 = m2_by_class[class_idx]
                for feature, value in enumerate(row):
                    new_weight = weights[feature] + 1.0
                    delta = value - means[feature]
                    new_mean = means[feature] + delta / new_weight
                    m2[feature] += delta * (value - new_mean)
                    means[feature] = new_mean
                    weights[feature] = new_weight
            return
        numeric = self.numeric_features
        nominal_present = [
            feature for feature in sorted(nominal) if feature < self.n_features
        ]
        for feature in nominal_present:
            self._nominal.setdefault(feature, {})
        for row, class_idx in zip(rows_list, y_list):
            weights = weights_by_class[class_idx]
            means = means_by_class[class_idx]
            m2 = m2_by_class[class_idx]
            for feature in numeric:
                value = row[feature]
                new_weight = weights[feature] + 1.0
                delta = value - means[feature]
                new_mean = means[feature] + delta / new_weight
                m2[feature] += delta * (value - new_mean)
                means[feature] = new_mean
                weights[feature] = new_weight
            for feature in nominal_present:
                value_counts = self._nominal[feature]
                counts = value_counts.get(row[feature])
                if counts is None:
                    counts = value_counts[row[feature]] = [0.0] * self.n_classes
                counts[class_idx] += 1.0
        return

    # ------------------------------------------------- array materialisation
    def _class_stats(self, n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(weights, means, m2) arrays of shape ``(n_classes, n_features)``.

        Padded (or truncated) to ``n_classes`` rows: class indices at or
        beyond the requested size are ignored.
        """
        shape = (n_classes, self.n_features)
        weights = np.zeros(shape)
        means = np.zeros(shape)
        m2 = np.zeros(shape)
        known = min(self.n_classes, n_classes)
        if known:
            weights[:known] = self._weights[:known]
            means[:known] = self._means[:known]
            m2[:known] = self._m2[:known]
        return weights, means, m2

    # ----------------------------------------------------------- suggestions
    @staticmethod
    def _first_max_indices(merits: np.ndarray) -> np.ndarray:
        """Index of the winning candidate per row, matching the scalar loops.

        Matches a scalar loop that keeps the *first* candidate and only
        replaces it on a strictly greater merit: ties pick the lowest index
        and a NaN merit never beats the incumbent -- including the degenerate
        case where the first candidate itself is NaN.
        """
        masked = np.where(np.isnan(merits), -np.inf, merits)
        best = np.argmax(masked, axis=-1)
        first_nan = np.isnan(merits[..., 0])
        if np.any(first_nan):
            best = np.where(first_nan, 0, best)
        return best

    def _threshold_grid(self, features: np.ndarray) -> np.ndarray:
        """Candidate thresholds of the selected features, shape ``(k, T)``.

        Bit-identical to the per-feature
        ``np.linspace(min, max, n + 2)[1:-1]``: numpy's array-endpoint
        ``linspace`` broadcasts the same arithmetic elementwise.
        """
        mins = np.array(self._mins)[features]
        maxs = np.array(self._maxs)[features]
        return np.linspace(mins, maxs, self.n_split_points + 2, axis=1)[:, 1:-1]

    def _weights_below(
        self, features: np.ndarray, thresholds: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-class weight at or below every candidate threshold.

        Returns ``(observed, below)`` with shapes ``(C, k)`` and
        ``(C, k, T)``: the per-class Gaussian weight times its CDF at the
        threshold, elementwise (a zero-weight class contributes 0 and a
        zero-std class a step at its mean).
        """
        weights, means, m2 = self._class_stats(n_classes)
        weights = weights[:, features]
        means = means[:, features]
        m2 = m2[:, features]
        positive = weights > 1.0
        variances = np.where(
            positive,
            np.maximum(m2 / np.where(positive, weights - 1.0, 1.0), 0.0),
            0.0,
        )
        stds = np.sqrt(variances)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (thresholds[None, :, :] - means[:, :, None]) / (
                stds * np.sqrt(2.0)
            )[:, :, None]
            cdf = 0.5 * (1.0 + _erf_vec(z))
        step = (thresholds[None, :, :] >= means[:, :, None]).astype(float)
        cdf = np.where((stds == 0.0)[:, :, None], step, cdf)
        cdf = np.where((weights == 0.0)[:, :, None], 0.0, cdf)
        below = weights[:, :, None] * cdf
        return weights, below

    def _numeric_sweep_features(self) -> np.ndarray:
        """Features with enough numeric spread to propose thresholds."""
        mins = np.array(self._mins)
        maxs = np.array(self._maxs)
        valid = np.isfinite(mins) & (maxs > mins)
        for feature in self.nominal_features:
            if feature < self.n_features:
                valid[feature] = False
        return np.flatnonzero(valid)

    def _nominal_suggestion(
        self, feature: int, criterion: SplitCriterion, pre_split: np.ndarray
    ) -> SplitSuggestion | None:
        """Vectorized "value == v versus rest" sweep of one nominal feature."""
        value_counts = self._nominal.get(feature)
        if value_counts is None or len(value_counts) < 2:
            return None
        n_classes = len(pre_split)
        dists = np.zeros((len(value_counts), n_classes))
        values = list(value_counts)
        known = min(self.n_classes, n_classes)
        for row, value in enumerate(values):
            dists[row, :known] = value_counts[value][:known]
        # Accumulate the observed distribution value by value, in insertion
        # order (the addition order a per-value loop uses).
        observed = np.zeros(n_classes)
        for row in range(len(values)):
            observed = observed + dists[row]
        rights = np.maximum(observed[None, :] - dists, 0.0)
        merits = criterion.merit_sweep(pre_split, dists, rights)
        best = int(self._first_max_indices(merits[None, :])[0])
        return SplitSuggestion(
            feature=feature,
            threshold=float(values[best]),
            merit=float(merits[best]),
            children_dists=[dists[best].copy(), rights[best].copy()],
            is_nominal=True,
        )

    def best_split_suggestions(
        self,
        criterion: SplitCriterion,
        pre_split: np.ndarray,
    ) -> list[SplitSuggestion]:
        """Best suggestion per feature, in feature order."""
        pre_split = np.asarray(pre_split, dtype=float)
        n_classes = len(pre_split)
        features = self._numeric_sweep_features()
        numeric: dict[int, SplitSuggestion] = {}
        if len(features):
            thresholds = self._threshold_grid(features)
            observed, below = self._weights_below(features, thresholds, n_classes)
            rights = np.maximum(observed[:, :, None] - below, 0.0)
            k, n_thresholds = thresholds.shape
            merits = criterion.merit_sweep(
                pre_split,
                below.transpose(1, 2, 0).reshape(k * n_thresholds, n_classes),
                rights.transpose(1, 2, 0).reshape(k * n_thresholds, n_classes),
            ).reshape(k, n_thresholds)
            best = self._first_max_indices(merits)
            for rank, feature in enumerate(features.tolist()):
                index = int(best[rank])
                numeric[feature] = SplitSuggestion(
                    feature=feature,
                    threshold=float(thresholds[rank, index]),
                    merit=float(merits[rank, index]),
                    children_dists=[
                        below[:, rank, index].copy(),
                        rights[:, rank, index].copy(),
                    ],
                )
        suggestions = []
        for feature in range(self.n_features):
            if feature in self.nominal_features:
                suggestion = self._nominal_suggestion(feature, criterion, pre_split)
            else:
                suggestion = numeric.get(feature)
            if suggestion is not None:
                suggestions.append(suggestion)
        return suggestions

    def best_sdr_suggestions(
        self,
        criterion: VarianceReductionCriterion,
    ) -> list[SplitSuggestion]:
        """Best SDR suggestion per numeric feature (the FIMT-DD criterion)."""
        features = self._numeric_sweep_features()
        if not len(features):
            return []
        n_classes = max(self.n_classes, 1)
        thresholds = self._threshold_grid(features)
        observed, below = self._weights_below(features, thresholds, n_classes)
        k, n_thresholds = thresholds.shape
        # Accumulate (count, sum, sum_sq) of the class-index target with one
        # vector addition per class, in index order.
        left = np.zeros((3, k, n_thresholds))
        right = np.zeros((3, k, n_thresholds))
        total = np.zeros((3, k))
        for class_idx in range(n_classes):
            weight_left = below[class_idx]
            weight_right = observed[class_idx][:, None] - weight_left
            left[0] += weight_left
            left[1] += weight_left * class_idx
            left[2] += weight_left * class_idx**2
            right[0] += weight_right
            right[1] += weight_right * class_idx
            right[2] += weight_right * class_idx**2
            total[0] += observed[class_idx]
            total[1] += observed[class_idx] * class_idx
            total[2] += observed[class_idx] * class_idx**2
        suggestions = []
        for rank, feature in enumerate(features.tolist()):
            merits = criterion.merit_sweep(
                total[:, rank],
                left[:, rank, :].T,
                right[:, rank, :].T,
            )
            index = int(self._first_max_indices(merits[None, :])[0])
            suggestions.append(
                SplitSuggestion(
                    feature=feature,
                    threshold=float(thresholds[rank, index]),
                    merit=float(merits[index]),
                )
            )
        return suggestions
