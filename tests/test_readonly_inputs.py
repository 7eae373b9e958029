"""Every model leaves the caller's arrays untouched.

Each model runs test-then-train over a stream whose ``X`` and ``y`` arrays
are marked read-only, so any in-place write to caller data -- in a kernel,
a helper it calls, or a view it hands on -- raises ``ValueError`` at the
write instead of silently corrupting the stream.
"""

import numpy as np
import pytest

from repro.core.dmt import DynamicModelTree
from repro.ensembles.adaptive_random_forest import AdaptiveRandomForestClassifier
from repro.ensembles.bagging import OzaBaggingClassifier
from repro.ensembles.leveraging_bagging import LeveragingBaggingClassifier
from repro.streams.synthetic import AgrawalGenerator, SEAGenerator
from repro.trees.efdt import ExtremelyFastDecisionTreeClassifier
from repro.trees.fimtdd import FIMTDDClassifier
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.vfdt import HoeffdingTreeClassifier

N_ROWS = 1500
BATCH = 32

MODELS = {
    "dmt": lambda: DynamicModelTree(random_state=1),
    "vfdt_mc": lambda: HoeffdingTreeClassifier(grace_period=100),
    "vfdt_nba": lambda: HoeffdingTreeClassifier(
        grace_period=100, leaf_prediction="nba"
    ),
    "ht_ada": lambda: HoeffdingAdaptiveTreeClassifier(grace_period=100),
    "efdt": lambda: ExtremelyFastDecisionTreeClassifier(
        grace_period=100, reevaluation_period=300
    ),
    "fimtdd": lambda: FIMTDDClassifier(grace_period=100, random_state=1),
    "oza": lambda: OzaBaggingClassifier(random_state=1),
    "leveraging": lambda: LeveragingBaggingClassifier(random_state=1),
    "arf": lambda: AdaptiveRandomForestClassifier(random_state=1),
}

STREAMS = {
    "sea": lambda: SEAGenerator(n_samples=N_ROWS, noise=0.1, seed=3),
    "agrawal": lambda: AgrawalGenerator(n_samples=N_ROWS, seed=3),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_training_and_prediction_never_write_caller_arrays(model, stream):
    source = STREAMS[stream]()
    X, y = source.next_sample(N_ROWS)
    X, y = np.array(X), np.array(y)
    X_before, y_before = X.copy(), y.copy()
    X.flags.writeable = False
    y.flags.writeable = False
    classifier = MODELS[model]()
    for start in range(0, N_ROWS, BATCH):
        X_batch, y_batch = X[start : start + BATCH], y[start : start + BATCH]
        if start:
            classifier.predict_proba(X_batch)
            classifier.predict(X_batch)
        classifier.partial_fit(X_batch, y_batch, classes=source.classes)
    assert classifier.complexity().n_splits >= 0
    assert np.array_equal(X, X_before)
    assert np.array_equal(y, y_before)
