"""Loss-based gain functions and AIC thresholds of the Dynamic Model Tree.

Implements equations (3), (4), (5), the gradient-based candidate loss
approximation of equation (7), and the AIC-derived decision thresholds of
Section V-C.
"""

from __future__ import annotations

import math

import numpy as np


def approximate_candidate_loss(
    parent_loss_on_subset: float,
    gradient_on_subset: np.ndarray,
    count: float,
    learning_rate: float,
) -> float:
    """First-order approximation of a split candidate's loss -- equation (7).

    The candidate parameters are warm-started with one gradient step from the
    parent parameters (equation (6)); substituting that step into the
    first-order Taylor expansion of the loss yields

    ``L(Θ_C) ≈ L(Θ_S; Y_C, X_C) − (λ / |C|) · ‖∇L(Θ_S; Y_C, X_C)‖²``.

    Parameters
    ----------
    parent_loss_on_subset:
        Accumulated loss of the *parent* model restricted to the candidate
        subset ``C``.
    gradient_on_subset:
        Accumulated gradient of the parent loss restricted to ``C``
        (flattened parameter vector).
    count:
        ``|C|`` -- the number of observations in the subset.
    learning_rate:
        The SGD step size ``λ`` used in the warm start.

    Returns
    -------
    float
        The approximated candidate loss.  The loss is clamped at zero because
        the negative log-likelihood is non-negative by definition; a negative
        approximation only indicates that the linearisation overshoots.
    """
    if count <= 0:
        return float(parent_loss_on_subset)
    gradient_on_subset = np.asarray(gradient_on_subset, dtype=float)
    # einsum (sequential accumulation) instead of a BLAS dot so this scalar
    # form stays bit-identical to the candidate gain sweep, whose row-wise
    # norms use the same einsum loop order.
    grad_norm_sq = float(
        np.einsum("i,i->", gradient_on_subset, gradient_on_subset)
    )
    approx = parent_loss_on_subset - (learning_rate / count) * grad_norm_sq
    return max(approx, 0.0)


def split_gain(node_loss: float, left_loss: float, right_loss: float) -> float:
    """Gain of splitting a node into two children -- equations (3) and (4).

    ``G = L(node) − L(left) − L(right)``.  For a leaf node ``node_loss`` is
    the node's own accumulated loss (equation (3)); for an inner node it is
    the summed loss of the leaves of its subtree (equation (4)).
    """
    return float(node_loss - left_loss - right_loss)


def prune_gain(subtree_leaf_loss: float, inner_node_loss: float) -> float:
    """Gain of replacing an inner node's subtree with a single leaf -- equation (5).

    ``G = Σ_J L(J) − L(inner node)`` where the sum ranges over the leaves of
    the subtree rooted at the inner node.
    """
    return float(subtree_leaf_loss - inner_node_loss)


def _check_epsilon(epsilon: float) -> float:
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}.")
    return epsilon


def aic_split_threshold(
    k_left: int, k_right: int, k_node: int, epsilon: float
) -> float:
    """Minimum gain required to split a leaf -- equation (11).

    ``G ≥ k_left + k_right − k_node − log(ε)``.  With identical simple-model
    types at every node this simplifies to ``k − log(ε)``.
    """
    _check_epsilon(epsilon)
    return float(k_left + k_right - k_node - math.log(epsilon))


def aic_resplit_threshold(
    k_left: int, k_right: int, k_subtree_leaves: int, epsilon: float
) -> float:
    """Minimum gain (4) required to replace an inner node with a new split.

    Derived exactly like equation (11), comparing the two-leaf candidate
    model against the current subtree's leaves:
    ``G ≥ k_left + k_right − Σ_J k_J − log(ε)``.
    """
    _check_epsilon(epsilon)
    return float(k_left + k_right - k_subtree_leaves - math.log(epsilon))


def aic_prune_threshold(
    k_node: int, k_subtree_leaves: int, epsilon: float
) -> float:
    """Minimum gain (5) required to collapse an inner node into a leaf.

    ``G ≥ k_node − Σ_J k_J − log(ε)``.  Because the subtree always has at
    least as many parameters as a single leaf, this threshold rewards the
    removal of branches that no longer pay for their complexity.
    """
    _check_epsilon(epsilon)
    return float(k_node - k_subtree_leaves - math.log(epsilon))
