"""Upgrades for model files written by earlier releases.

Every piece of knowledge about a retired file layout lives in this module,
so the model classes only ever see the current one.  The
:class:`~repro.persistence.codec.Decoder` calls into it for every object it
rebuilds:

* Objects of a class in :data:`RETIRED_CLASSES` decode to a plain ``dict``
  of their decoded attributes instead of an instance.  These are the
  per-feature attribute observers (``GaussianAttributeObserver``,
  ``NominalAttributeObserver``) and their ``GaussianEstimator`` cells, which
  leaves stored before the structure-of-arrays observer store existed.
* :func:`upgrade_attributes` rewrites the decoded attributes of a live
  object before they are set:

  - ``vectorized`` is dropped.  Every model and kernel persisted this flag
    while a scalar reference path shipped beside each vectorized kernel.
  - ``observers`` (a leaf's dict of per-feature observer records) becomes
    ``_observers``, one :class:`~repro.trees.observers.LeafObservers` store.
  - ``_candidates`` (a DMT node's dict of
    :class:`~repro.core.candidates.CandidateStatistics`) becomes the
    structure-of-arrays fields of the candidate store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # the model modules import repro.persistence themselves
    from repro.trees.observers import LeafObservers

#: Registry names of classes that left the package; decoded as plain dicts.
RETIRED_CLASSES = frozenset(
    {"GaussianAttributeObserver", "GaussianEstimator", "NominalAttributeObserver"}
)

#: Attribute names only retired layouts carry (see the module docstring).
RETIRED_ATTRIBUTES = frozenset({"vectorized", "observers", "_candidates"})


def upgrade_attributes(attrs: dict[str, Any]) -> None:
    """Rewrite one object's decoded attributes to the current layout, in place."""
    attrs.pop("vectorized", None)
    if isinstance(attrs.get("observers"), dict):
        attrs["_observers"] = leaf_observers_from_records(
            n_features=attrs["n_features"],
            n_split_points=attrs["n_split_points"],
            nominal_features=attrs.get("nominal_features"),
            records=attrs.pop("observers"),
        )
    if isinstance(attrs.get("_candidates"), dict):
        attrs.update(candidate_arrays(list(attrs.pop("_candidates").values())))


def leaf_observers_from_records(
    n_features: int,
    n_split_points: int,
    nominal_features: set[int] | None,
    records: dict[int, dict[str, Any]],
) -> LeafObservers:
    """One observer store from a leaf's per-feature observer records.

    A nominal record holds ``_counts`` (value -> class -> weight); a
    Gaussian record holds ``_per_class`` (class -> ``GaussianEstimator``
    record with ``weight``/``mean``/``_m2``) and the feature's
    ``_min_value``/``_max_value``.
    """
    from repro.trees.observers import LeafObservers

    store = LeafObservers(n_features, n_split_points, nominal_features)
    n_classes = 0
    for record in records.values():
        per_class = record.get("_per_class")
        if per_class is None:
            class_sets = [counts.keys() for counts in record["_counts"].values()]
        else:
            class_sets = [per_class.keys()]
        for classes in class_sets:
            for class_idx in classes:
                n_classes = max(n_classes, int(class_idx) + 1)
    store.grow_classes(n_classes)
    for feature, record in records.items():
        feature = int(feature)
        if "_counts" in record:
            store.nominal_features.add(feature)
            value_counts: dict[float, list[float]] = {}
            for value, counts in record["_counts"].items():
                row = [0.0] * n_classes
                for class_idx, weight in counts.items():
                    row[int(class_idx)] = float(weight)
                value_counts[float(value)] = row
            store._nominal[feature] = value_counts
            continue
        for class_idx, estimator in record["_per_class"].items():
            class_idx = int(class_idx)
            store._weights[class_idx][feature] = float(estimator["weight"])
            store._means[class_idx][feature] = float(estimator["mean"])
            store._m2[class_idx][feature] = float(estimator["_m2"])
        store._mins[feature] = float(record["_min_value"])
        store._maxs[feature] = float(record["_max_value"])
    return store


def candidate_arrays(stats: list[Any]) -> dict[str, np.ndarray]:
    """Structure-of-arrays candidate fields from per-candidate statistics."""
    width = max((stat.gradient.size for stat in stats), default=0)
    gradients = np.zeros((len(stats), width))
    for row, stat in enumerate(stats):
        if stat.gradient.size:
            gradients[row] = stat.gradient
    return {
        "_features": np.array([stat.feature for stat in stats], dtype=np.intp),
        "_thresholds": np.array([stat.threshold for stat in stats], dtype=float),
        "_losses": np.array([stat.loss for stat in stats], dtype=float),
        "_counts": np.array([stat.count for stat in stats], dtype=float),
        "_gradients": gradients,
    }
