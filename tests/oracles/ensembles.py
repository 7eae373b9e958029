"""Reference paths of the ensemble kernels.

* :func:`member_votes_per_column` -- vote alignment one member column at a
  time (the production kernel is
  :func:`repro.ensembles.bagging.accumulate_member_votes`).
* :func:`saw_mean_increase_per_value` -- an ADWIN fed one error at a time
  (production: :func:`repro.ensembles.bagging.detector_saw_mean_increase`).
* :class:`ReferenceOzaBagging`, :class:`ReferenceLeveragingBagging`,
  :class:`ReferenceAdaptiveRandomForest` -- ensembles that draw their
  Poisson weights with one generator call per member and grow
  :class:`~tests.oracles.trees.ReferenceHoeffdingTree` members.
"""

from __future__ import annotations

import numpy as np

from repro.base import StreamClassifier
from repro.drift.adwin import ADWIN
from repro.ensembles.adaptive_random_forest import AdaptiveRandomForestClassifier
from repro.ensembles.bagging import OzaBaggingClassifier
from repro.ensembles.leveraging_bagging import LeveragingBaggingClassifier
from repro.trees.vfdt import HoeffdingTreeClassifier
from tests.oracles import overrides
from tests.oracles.trees import ReferenceHoeffdingTree


def member_votes_per_column(
    votes: np.ndarray,
    proba: np.ndarray,
    member_classes: np.ndarray,
    ensemble_classes: np.ndarray,
) -> None:
    """Add one member's class-aligned votes in place, one column at a time."""
    n_classes = len(ensemble_classes)
    for column, label in enumerate(member_classes):
        target = np.searchsorted(ensemble_classes, label)
        if target < n_classes and ensemble_classes[target] == label:
            votes[:, target] += proba[:, column]


def saw_mean_increase_per_value(detector: ADWIN, errors: np.ndarray) -> bool:
    """Feed ``errors`` one value at a time; did a drift raise the mean?"""
    increased = False
    for error in errors:
        before = detector.mean
        if detector.update(error) and detector.mean > before:
            increased = True
    return increased


class _PerMemberEnsemble:
    """One Poisson draw per member; reference trees as default members."""

    def _batch_weights(self, n: int) -> np.ndarray:
        return np.stack(
            [
                self._rng.poisson(self.poisson_lambda, size=n)
                for _ in range(self.n_estimators)
            ]
        )

    def _make_estimator(self) -> StreamClassifier:
        if self.base_estimator_factory is HoeffdingTreeClassifier:
            return ReferenceHoeffdingTree()
        return super()._make_estimator()


@overrides(OzaBaggingClassifier, "_batch_weights", "_make_estimator")
class ReferenceOzaBagging(_PerMemberEnsemble, OzaBaggingClassifier):
    """Online bagging on the reference paths."""


@overrides(LeveragingBaggingClassifier, "_batch_weights", "_make_estimator")
class ReferenceLeveragingBagging(_PerMemberEnsemble, LeveragingBaggingClassifier):
    """Leveraging Bagging on the reference paths."""


@overrides(AdaptiveRandomForestClassifier, "_batch_weights", "_make_estimator")
class ReferenceAdaptiveRandomForest(
    _PerMemberEnsemble, AdaptiveRandomForestClassifier
):
    """Adaptive Random Forest on the reference paths."""
