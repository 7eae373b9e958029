"""Property tests: the DMT training hot path is bit-identical to the
per-row / per-candidate reference oracles in ``tests/oracles/dmt.py``.

Four layers are compared across random batch schedules (including
single-row and constant-feature batches), binary and multiclass:

* ``CandidateManager`` batch accumulation + admission vs
  ``ReferenceCandidateManager`` (per-candidate loops),
* the gains from ``candidate_child_losses`` against the scalar
  ``candidate_gain``,
* ``IncrementalGLM.fit_incremental`` vs ``ReferenceGLM`` (per-row loop),
* the full ``DynamicModelTree`` training loop vs
  ``ReferenceDynamicModelTree``, including the prequential
  ``deterministic_summary()``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicModelTree
from repro.core.candidates import (
    CandidateManager,
    CandidateStatistics,
    candidate_child_losses,
)
from repro.evaluation.prequential import PrequentialEvaluator
from repro.linear.glm import IncrementalGLM
from repro.streams.synthetic import SEAGenerator
from tests.conftest import make_multiclass_blobs, make_xor, observe_batch
from tests.oracles.dmt import (
    ReferenceCandidateManager,
    ReferenceDynamicModelTree,
    ReferenceGLM,
    candidate_gain,
)


def _batch_schedule(rng, total, max_batch=60):
    """Random batch sizes covering ``total`` rows, always including size 1."""
    sizes = [1]
    covered = 1
    while covered < total:
        size = int(rng.integers(1, max_batch))
        sizes.append(min(size, total - covered))
        covered += sizes[-1]
    return sizes


def _random_batches(
    seed,
    total=300,
    n_features=3,
    n_params=5,
    constant_feature=False,
    tied_feature=False,
    max_batch=60,
):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(total, n_features))
    if constant_feature:
        X[:, 0] = 0.5
    if tied_feature:
        X[:, 1] = np.round(X[:, 1] * 4.0) / 4.0
    loss = rng.uniform(0.05, 2.0, size=total)
    grad = rng.normal(size=(total, n_params))
    batches = []
    start = 0
    for size in _batch_schedule(rng, total, max_batch=max_batch):
        batches.append(
            (X[start : start + size], loss[start : start + size], grad[start : start + size])
        )
        start += size
    return batches


def _manager_state(manager):
    return (
        manager._features.copy(),
        manager._thresholds.copy(),
        manager._losses.copy(),
        manager._gradients.copy(),
        manager._counts.copy(),
    )


def _assert_managers_identical(fast, slow):
    for fast_field, slow_field in zip(_manager_state(fast), _manager_state(slow)):
        assert fast_field.dtype == slow_field.dtype
        assert fast_field.shape == slow_field.shape
        assert fast_field.tobytes() == slow_field.tobytes()
    keys = list(zip(fast._features.tolist(), fast._thresholds.tolist()))
    assert keys == [candidate.key for candidate in slow.candidates]
    assert all(key in fast and fast.get(key).key == key for key in keys)


def _assert_same_best(fast, slow):
    assert (fast[0] is None) == (slow[0] is None)
    assert np.float64(fast[1]).tobytes() == np.float64(slow[1]).tobytes()
    if fast[0] is not None:
        assert fast[0].key == slow[0].key
        assert fast[0].gradient.tobytes() == slow[0].gradient.tobytes()


def _drive(fast, slow, batches, learning_rate=0.05):
    """Feed both stores the same batches and compare them after each one.

    After every batch both stores also take the two split decisions a DMT
    node takes: the leaf's (gain against the node loss, with the child
    losses the production store kept from ``observe``) and an inner node's
    (gain against a subtree loss, excluding the current split).  A third
    query with other node statistics cannot reuse the kept child losses.
    Returns the number of stored candidates evicted along the way.
    """
    node_loss, node_count = 0.0, 0.0
    node_grad = np.zeros(batches[0][2].shape[1])
    evictions = 0
    for X, loss, grad in batches:
        node_loss += float(loss.sum())
        node_grad = node_grad + grad.sum(axis=0)
        node_count += float(len(loss))
        before = {candidate.key for candidate in slow.candidates}
        for manager in (fast, slow):
            observe_batch(
                manager, X, loss, grad, node_loss, node_grad, node_count,
                learning_rate,
            )
        evictions += len(before - {candidate.key for candidate in slow.candidates})
        _assert_managers_identical(fast, slow)
        leaf = [
            manager.best_candidate(node_loss, node_grad, node_count, learning_rate)
            for manager in (fast, slow)
        ]
        _assert_same_best(*leaf)
        exclude = None if leaf[0][0] is None else leaf[0][0].key
        inner = [
            manager.best_candidate(
                node_loss, node_grad, node_count, learning_rate,
                reference_loss=0.9 * node_loss, exclude=exclude,
            )
            for manager in (fast, slow)
        ]
        _assert_same_best(*inner)
        other = [
            manager.best_candidate(
                node_loss + 1.0, node_grad, node_count + 1.0, learning_rate
            )
            for manager in (fast, slow)
        ]
        _assert_same_best(*other)
    return evictions


class TestCandidateManagerEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        constant=st.booleans(),
        tied=st.booleans(),
        max_values=st.sampled_from([3, 10]),
    )
    def test_accumulation_and_admission_bit_identical(
        self, seed, constant, tied, max_values
    ):
        """Batch sizes run from 1 to twice the per-feature proposal cap."""
        fast = CandidateManager(
            n_features=3, max_candidates=7, max_values_per_feature=max_values
        )
        slow = ReferenceCandidateManager(
            n_features=3, max_candidates=7, max_values_per_feature=max_values
        )
        batches = _random_batches(
            seed, constant_feature=constant, tied_feature=tied,
            max_batch=2 * max_values + 1,
        )
        _drive(fast, slow, batches)

    def test_full_store_with_evictions_bit_identical(self):
        """Later batches carry larger losses, so newcomers evict stored ones."""
        fast = CandidateManager(n_features=3, max_candidates=4, replacement_rate=1.0)
        slow = ReferenceCandidateManager(
            n_features=3, max_candidates=4, replacement_rate=1.0
        )
        batches = [
            (X, loss * (1.0 + index), grad * (1.0 + index))
            for index, (X, loss, grad) in enumerate(
                _random_batches(5, total=400, tied_feature=True, max_batch=30)
            )
        ]
        assert _drive(fast, slow, batches) > 0
        assert len(fast) == 4

    def test_single_row_batches_bit_identical(self):
        fast = CandidateManager(n_features=2, max_candidates=4)
        slow = ReferenceCandidateManager(n_features=2, max_candidates=4)
        rng = np.random.default_rng(11)
        batches = [
            (
                rng.uniform(size=(1, 2)),
                rng.uniform(0.1, 1.0, size=1),
                rng.normal(size=(1, 3)),
            )
            for _ in range(40)
        ]
        _drive(fast, slow, batches)


class TestProposalEquivalence:
    @pytest.mark.parametrize("columns", ["untied", "ulp", "tied", "constant"])
    @pytest.mark.parametrize("max_values", [1, 4, 10])
    def test_proposals_bit_identical(self, columns, max_values):
        """Every batch size from 1 to twice the cap, tied and untied columns."""
        fast = CandidateManager(n_features=3, max_values_per_feature=max_values)
        slow = ReferenceCandidateManager(
            n_features=3, max_values_per_feature=max_values
        )
        rng = np.random.default_rng(max_values)
        for n_rows in range(1, 2 * max_values + 1):
            X = rng.normal(size=(n_rows, 3))
            if columns == "ulp":
                # Neighbouring doubles: untied, yet quantiles coincide.
                X[:, 0] = 1.0 + rng.permutation(n_rows) * np.spacing(1.0)
            elif columns == "tied":
                X[:, 1] = np.round(X[:, 1])
            elif columns == "constant":
                X[:, 2] = -0.0
            expected = slow.propose_thresholds(X)
            proposals = fast.propose_thresholds(X)
            for feature in range(3):
                assert proposals[feature].tobytes() == expected[feature].tobytes()


class TestGainSweepEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sweep_matches_scalar_gain(self, seed):
        rng = np.random.default_rng(seed)
        k, p = int(rng.integers(1, 12)), int(rng.integers(2, 20))
        losses = rng.uniform(0.0, 10.0, size=k)
        gradients = rng.normal(size=(k, p)) * rng.uniform(0.1, 10.0)
        counts = rng.integers(0, 50, size=k).astype(float)
        node_loss = float(losses.sum() + rng.uniform(0.0, 5.0))
        node_grad = rng.normal(size=p)
        node_count = float(counts.sum() + rng.integers(1, 20))
        reference_loss = float(rng.uniform(0.0, 20.0))
        left, right = candidate_child_losses(
            losses, gradients, counts, node_loss, node_grad, node_count, 0.05
        )
        swept = reference_loss - left - right
        for index in range(k):
            scalar = candidate_gain(
                CandidateStatistics(
                    feature=0, threshold=0.0,
                    loss=float(losses[index]),
                    gradient=gradients[index],
                    count=float(counts[index]),
                ),
                node_loss, node_grad, node_count, 0.05, reference_loss,
            )
            assert swept[index] == scalar


class TestGLMEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n_classes=st.integers(2, 4))
    def test_fit_incremental_fast_path_bit_identical(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        fast = IncrementalGLM(n_features=3, n_classes=n_classes, rng=seed)
        slow = ReferenceGLM(n_features=3, n_classes=n_classes, rng=seed)
        total = 200
        X = rng.uniform(size=(total, 3))
        y = rng.integers(0, n_classes, size=total)
        start = 0
        for size in _batch_schedule(rng, total):
            xb, yb = X[start : start + size], y[start : start + size]
            start += size
            fast.fit_incremental(xb, yb)
            slow.fit_incremental(xb, yb)
            np.testing.assert_array_equal(fast.weights, slow.weights)

    def test_constant_feature_batch_bit_identical(self):
        fast = IncrementalGLM(n_features=2, n_classes=2, rng=0)
        slow = ReferenceGLM(n_features=2, n_classes=2, rng=0)
        X = np.full((30, 2), 0.25)
        y = np.zeros(30, dtype=int)
        fast.fit_incremental(X, y)
        slow.fit_incremental(X, y)
        np.testing.assert_array_equal(fast.weights, slow.weights)

    def test_single_row_equals_update(self):
        fast = IncrementalGLM(n_features=3, n_classes=2, rng=1)
        other = fast.clone(warm_start=True)
        X = np.array([[0.3, 0.8, 0.1]])
        y = np.array([1])
        fast.fit_incremental(X, y)
        other.update(X, y)
        np.testing.assert_array_equal(fast.weights, other.weights)


class TestDMTEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_training_trajectory_bit_identical(self, seed):
        X, y = make_xor(2500, seed=seed)
        X = X * 3.0
        rng = np.random.default_rng(seed)
        fast = DynamicModelTree(random_state=seed)
        slow = ReferenceDynamicModelTree(random_state=seed)
        start = 0
        for size in _batch_schedule(rng, len(X), max_batch=120):
            xb, yb = X[start : start + size], y[start : start + size]
            start += size
            fast.partial_fit(xb, yb, classes=[0, 1])
            slow.partial_fit(xb, yb, classes=[0, 1])
        assert fast.n_nodes == slow.n_nodes
        assert fast.depth == slow.depth
        np.testing.assert_array_equal(
            fast.predict_proba(X[:200]), slow.predict_proba(X[:200])
        )

    def test_multiclass_training_bit_identical(self):
        X, y = make_multiclass_blobs(3000, n_classes=3, n_features=4, seed=5)
        fast = DynamicModelTree(random_state=3)
        slow = ReferenceDynamicModelTree(random_state=3)
        for begin in range(0, len(X), 64):
            xb, yb = X[begin : begin + 64], y[begin : begin + 64]
            fast.partial_fit(xb, yb, classes=[0, 1, 2])
            slow.partial_fit(xb, yb, classes=[0, 1, 2])
        np.testing.assert_array_equal(fast.predict_proba(X), slow.predict_proba(X))
        assert fast.n_nodes == slow.n_nodes

    def test_deterministic_summary_bit_identical(self):
        """The acceptance criterion: same seeds, both paths, same summary."""
        summaries = []
        for model_class in (DynamicModelTree, ReferenceDynamicModelTree):
            stream = SEAGenerator(n_samples=2000, noise=0.1, seed=42)
            model = model_class(random_state=42)
            evaluator = PrequentialEvaluator(batch_size=50)
            result = evaluator.evaluate(model, stream, model_name="dmt")
            summaries.append(result.deterministic_summary())
        assert summaries[0] == summaries[1]


class TestLegacyPayloadMigration:
    def test_dict_of_dataclass_payload_loads_into_soa_store(self):
        """Models saved before the SoA refactor keep loading (and training)."""
        from repro.persistence import codec

        manager = CandidateManager(n_features=2, max_candidates=6)
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(40, 2))
        loss = rng.uniform(0.1, 1.0, size=40)
        grad = rng.normal(size=(40, 3))
        observe_batch(
            manager, X, loss, grad,
            node_loss=float(loss.sum()), node_gradient=grad.sum(axis=0),
            node_count=40.0,
        )
        assert len(manager) > 0

        # Re-encode the store the way the pre-SoA format did: a dict of
        # CandidateStatistics keyed by (feature, threshold).
        state = codec.encode(manager)
        legacy_candidates = {
            stat.key: stat for stat in manager.candidates
        }
        for field in (
            "_features", "_thresholds", "_losses", "_counts", "_gradients",
        ):
            state["state"].pop(field, None)
        state["state"]["_candidates"] = codec.encode(legacy_candidates)

        loaded = codec.decode(state)
        assert isinstance(loaded, CandidateManager)
        _assert_managers_identical(loaded, manager)

        # The migrated store keeps accumulating identically to the original.
        X2 = rng.uniform(size=(20, 2))
        loss2 = rng.uniform(0.1, 1.0, size=20)
        grad2 = rng.normal(size=(20, 3))
        for store in (loaded, manager):
            observe_batch(
                store, X2, loss2, grad2,
                node_loss=float(loss.sum() + loss2.sum()),
                node_gradient=grad.sum(axis=0) + grad2.sum(axis=0),
                node_count=60.0,
            )
        _assert_managers_identical(loaded, manager)
