"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidates import augment_batch


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_linear_binary(n: int, n_features: int = 4, seed: int = 0, noise: float = 0.0):
    """Linearly separable binary data (optionally with label noise)."""
    generator = np.random.default_rng(seed)
    X = generator.uniform(0.0, 1.0, size=(n, n_features))
    weights = np.linspace(1.0, 2.0, n_features)
    y = (X @ weights > weights.sum() / 2.0).astype(int)
    if noise > 0:
        flip = generator.random(n) < noise
        y = np.where(flip, 1 - y, y)
    return X, y


def make_xor(n: int, seed: int = 0):
    """2-D XOR data: not linearly separable, needs at least one split."""
    generator = np.random.default_rng(seed)
    X = generator.uniform(0.0, 1.0, size=(n, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
    return X, y


def make_multiclass_blobs(n: int, n_classes: int = 3, n_features: int = 5, seed: int = 0):
    """Well-separated Gaussian blobs for multiclass tests."""
    generator = np.random.default_rng(seed)
    centres = generator.uniform(0.0, 1.0, size=(n_classes, n_features))
    y = generator.integers(0, n_classes, size=n)
    X = centres[y] + generator.normal(0.0, 0.05, size=(n, n_features))
    return X, y


@pytest.fixture
def linear_binary():
    return make_linear_binary(600, seed=7)


@pytest.fixture
def xor_data():
    return make_xor(800, seed=3)


@pytest.fixture
def multiclass_blobs():
    return make_multiclass_blobs(600, seed=5)


def observe_batch(
    manager,
    X,
    per_sample_loss,
    per_sample_gradient,
    node_loss,
    node_gradient,
    node_count,
    learning_rate=0.05,
):
    """Feed one batch to a candidate store the way ``DMTNode`` does."""
    manager.observe(
        X,
        augment_batch(per_sample_loss, per_sample_gradient),
        batch_loss=float(per_sample_loss.sum()),
        batch_gradient=per_sample_gradient.sum(axis=0),
        node_loss=node_loss,
        node_gradient=node_gradient,
        node_count=node_count,
        learning_rate=learning_rate,
    )
