"""Split-candidate statistics and bounded candidate storage for the DMT.

Every node of a Dynamic Model Tree evaluates split candidates, i.e.
``(feature, threshold)`` pairs.  For each stored candidate the node keeps the
accumulated loss, gradient and count of the *parent* model restricted to the
left partition (``x[feature] <= threshold``); right-partition statistics are
recovered by subtracting from the node totals (Algorithm 1).

Because the number of distinct candidates can grow quickly for continuous
features, the DMT stores only a bounded number of candidate statistics
(default ``3 · m``) and allows a fixed fraction of them (default 50%) to be
replaced by newly observed candidates at every time step (Section V-D).

The store keeps its statistics in structure-of-arrays form (one array per
field, candidates in insertion order).  :meth:`CandidateManager.observe`
handles one batch of one node in a single pass: it proposes the batch's new
thresholds, builds one broadcast mask matrix ``X[:, feats] <= thrs`` over the
stored and the proposed candidates together and runs one
``(n, k) x (n, p)`` contraction, which both refreshes every stored candidate
and scores every newcomer.  Admission then needs at most two gain sweeps:
the newcomers against the batch, and all candidates against the node.  The
node-referenced child losses of that second sweep are kept for the same
batch's split decision (:meth:`CandidateManager.best_candidate`), because a
gain ``(reference - left) - right`` only differs in its reference loss.

The accumulation primitives are chosen for bit-equivalence with the
per-candidate scalar reference kept as a test oracle (``tests/oracles``):
losses and gradients use ``np.einsum`` (sequential accumulation over rows,
exactly like summing the masked rows of a loss-augmented gradient matrix
along axis 0) rather than a BLAS matmul, whose blocked partial sums differ
in the last ulp, and the gain sweep's squared gradient norms use the same
einsum loop order as the scalar :func:`approximate_candidate_loss`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry import DMT_CANDIDATES, TELEMETRY


@dataclass
class CandidateStatistics:
    """Accumulated left-partition statistics of one split candidate.

    The materialised per-candidate view of the structure-of-arrays store
    (what :meth:`CandidateManager.best_candidate` returns).
    """

    feature: int
    threshold: float
    loss: float = 0.0
    gradient: np.ndarray = field(default_factory=lambda: np.zeros(0))
    count: float = 0.0

    @property
    def key(self) -> tuple[int, float]:
        return (self.feature, self.threshold)


def augment_batch(
    per_sample_loss: np.ndarray, per_sample_gradient: np.ndarray
) -> np.ndarray:
    """Gradient matrix with the per-sample loss as an extra last column.

    The candidate store accumulates losses and gradients through one einsum
    contraction of this matrix, which adds the masked rows in the same order
    as summing them along axis 0 -- a separate 1-D ``loss[mask].sum()`` would
    sum the compressed subset pairwise and drift in the last ulp.  The column
    layout (loss last) is a contract between this function,
    :meth:`CandidateManager.observe` and :meth:`DMTNode.update_statistics`.
    """
    return np.concatenate(
        [per_sample_gradient, per_sample_loss[:, None]], axis=1
    )


def candidate_child_losses(
    losses: np.ndarray,
    gradients: np.ndarray,
    counts: np.ndarray,
    node_loss: float,
    node_gradient: np.ndarray,
    node_count: float,
    learning_rate: float,
    assume_counts_positive: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Approximated left and right child losses of all candidates -- (7).

    Bit-identical to :func:`~repro.core.gains.approximate_candidate_loss`
    per child: the squared gradient norms use the same einsum accumulation
    order, everything else is elementwise.  ``assume_counts_positive`` skips
    the empty-subset guard on the left child; the candidate store guarantees
    it (candidates are only admitted with observations and counts never
    decrease).
    """
    left_norms = np.einsum("kp,kp->k", gradients, gradients)
    right_gradients = node_gradient - gradients
    right_norms = np.einsum("kp,kp->k", right_gradients, right_gradients)

    if assume_counts_positive or (counts > 0).all():
        # Common case (every stored/fresh candidate has observations):
        # skip the empty-subset guards, saving several temporaries per sweep.
        left_losses = np.maximum(
            losses - (learning_rate / counts) * left_norms, 0.0
        )
    else:
        positive = counts > 0
        safe_counts = np.where(positive, counts, 1.0)
        left_losses = np.where(
            positive,
            np.maximum(losses - (learning_rate / safe_counts) * left_norms, 0.0),
            losses,
        )
    right_counts = node_count - counts
    right_subset_losses = node_loss - losses
    right_positive = right_counts > 0
    if right_positive.all():
        right_losses = np.maximum(
            right_subset_losses - (learning_rate / right_counts) * right_norms,
            0.0,
        )
    else:
        safe_right = np.where(right_positive, right_counts, 1.0)
        right_losses = np.where(
            right_positive,
            np.maximum(
                right_subset_losses - (learning_rate / safe_right) * right_norms,
                0.0,
            ),
            right_subset_losses,
        )
    return left_losses, right_losses


def _lerp(
    low: np.ndarray,
    high: np.ndarray,
    gamma: np.ndarray,
    one_minus_gamma: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """numpy's ``linear`` quantile interpolation between sorted neighbours.

    ``low + (high - low) * gamma``, switching to the other side,
    ``high - (high - low) * (1 - gamma)``, where ``upper`` (``gamma >= 0.5``).
    """
    diff = high - low
    return np.where(upper, high - diff * one_minus_gamma, low + diff * gamma)


def _statistics_key(
    node_loss: float,
    node_gradient: np.ndarray,
    node_count: float,
    learning_rate: float,
) -> bytes:
    """Exact bit pattern of the node statistics a gain sweep depends on."""
    return struct.pack(
        "ddd", node_loss, node_count, learning_rate
    ) + np.asarray(node_gradient, dtype=float).tobytes()


class CandidateManager:
    """Bounded store of split-candidate statistics for one DMT node.

    Parameters
    ----------
    n_features:
        Number of input features ``m``.
    max_candidates:
        Maximum number of candidate statistics kept in memory.  The paper
        recommends ``3 · m``.
    replacement_rate:
        Fraction of the stored candidates that may be replaced by newly
        observed candidates at each time step (the paper recommends 0.5).
    max_values_per_feature:
        Cap on the number of distinct thresholds proposed per feature from a
        single batch.  If a batch contains more unique values, evenly spaced
        quantiles are used instead; this mirrors how practical incremental
        trees bound the candidate space for continuous features.
    """

    #: Pure caches skipped by the persistence encoder and rebuilt by
    #: :meth:`_init_transient`.
    _repro_transient = ("_candidate_counters", "_child_losses", "_quantile_grid")

    def __init__(
        self,
        n_features: int,
        max_candidates: int | None = None,
        replacement_rate: float = 0.5,
        max_values_per_feature: int = 10,
    ) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}.")
        if not 0.0 <= replacement_rate <= 1.0:
            raise ValueError(
                f"replacement_rate must be in [0, 1], got {replacement_rate!r}."
            )
        if max_values_per_feature < 1:
            raise ValueError(
                "max_values_per_feature must be >= 1, "
                f"got {max_values_per_feature!r}."
            )
        self.n_features = int(n_features)
        self.max_candidates = (
            3 * self.n_features if max_candidates is None else int(max_candidates)
        )
        if self.max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {self.max_candidates!r}."
            )
        self.replacement_rate = float(replacement_rate)
        self.max_values_per_feature = int(max_values_per_feature)
        self._features = np.zeros(0, dtype=np.intp)
        self._thresholds = np.zeros(0, dtype=float)
        self._losses = np.zeros(0, dtype=float)
        self._counts = np.zeros(0, dtype=float)
        self._gradients = np.zeros((0, 0), dtype=float)
        self._init_transient()

    # -------------------------------------------------------------- decoding
    def _init_transient(self) -> None:
        """Reset the caches: sweep results, proposal grid, telemetry handles."""
        #: Cached admitted/evicted counter handles, stamped with the metric
        #: registry generation they were resolved under (a registry
        #: ``clear()`` bumps the generation and invalidates them).
        #: Candidate updates are the most frequent instrumented site in DMT
        #: training, so the labelled registry lookup is hoisted out of the
        #: per-update path.  Instance state (not a module cache) so the
        #: kernel purity certification stays free of module-level writes.
        self._candidate_counters: dict = {"generation": -1}
        #: ``(statistics key, left losses, right losses)`` of the stored
        #: candidates as the last :meth:`observe` left them, or ``None``.
        self._child_losses: tuple[bytes, np.ndarray, np.ndarray] | None = None
        #: Inner quantile levels of a capped feature's proposals.
        self._quantile_grid = np.linspace(
            0.0, 1.0, self.max_values_per_feature + 2
        )[1:-1]

    def _telemetry_counters(self):
        """Admitted/evicted counter handles, re-resolved per registry generation."""
        registry = TELEMETRY.registry
        cache = self._candidate_counters
        if cache.get("generation") != registry.generation:
            cache["admitted"] = registry.counter(
                "repro.dmt.candidates_admitted_total"
            )
            cache["evicted"] = registry.counter(
                "repro.dmt.candidates_evicted_total"
            )
            cache["generation"] = registry.generation
        return cache["admitted"], cache["evicted"]

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, key: tuple[int, float]) -> bool:
        return self._index_of(key) is not None

    @property
    def candidates(self) -> list[CandidateStatistics]:
        return [self._materialize(index) for index in range(len(self))]

    def get(self, key: tuple[int, float]) -> CandidateStatistics | None:
        index = self._index_of(key)
        return None if index is None else self._materialize(index)

    def _index_of(self, key: tuple[int, float]) -> int | None:
        """Position of the stored candidate with exactly this key, if any."""
        hits = np.flatnonzero(
            (self._features == int(key[0])) & (self._thresholds == float(key[1]))
        )
        return int(hits[0]) if len(hits) else None

    def clear(self) -> None:
        width = self._gradients.shape[1]
        self._features = np.zeros(0, dtype=np.intp)
        self._thresholds = np.zeros(0, dtype=float)
        self._losses = np.zeros(0, dtype=float)
        self._counts = np.zeros(0, dtype=float)
        self._gradients = np.zeros((0, width), dtype=float)
        self._child_losses = None

    def _materialize(self, index: int) -> CandidateStatistics:
        """Per-candidate dataclass view of one row of the store (a copy)."""
        return CandidateStatistics(
            feature=int(self._features[index]),
            threshold=float(self._thresholds[index]),
            loss=float(self._losses[index]),
            gradient=self._gradients[index].copy(),
            count=float(self._counts[index]),
        )

    def _ensure_width(self, width: int) -> None:
        if self._gradients.shape[1] == width:
            return
        if len(self._features):
            raise ValueError(
                f"Gradient width changed from {self._gradients.shape[1]} to "
                f"{width} while candidates are stored."
            )
        self._gradients = np.zeros((0, width), dtype=float)

    # ------------------------------------------------------------ proposals
    def propose_thresholds(self, X: np.ndarray) -> dict[int, np.ndarray]:
        """Candidate thresholds per feature observed in the current batch.

        A per-feature view of :meth:`_propose_concat`, which batches all
        features through one sort and one quantile interpolation.
        """
        features, thresholds = self._propose_concat(np.asarray(X, dtype=float))
        boundaries = np.searchsorted(features, np.arange(self.n_features + 1))
        return {
            feature: thresholds[boundaries[feature] : boundaries[feature + 1]]
            for feature in range(self.n_features)
        }

    def _propose_concat(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All proposed ``(feature, threshold)`` pairs of a batch at once.

        Returns ``(features, thresholds)`` in proposal order (feature
        ascending, thresholds ascending within a feature).  Bit-identical to
        the per-feature ``np.unique``/``np.quantile`` reference: one shared
        column sort replaces the per-feature sorts, consecutive-duplicate
        masks replace ``np.unique``, and numpy's ``linear`` quantile method
        (virtual index ``q * (n - 1)``, see :func:`_lerp`) is replicated as
        one batched interpolation over every capped feature.  A batch
        without ties (the common case for continuous features) takes
        :meth:`_propose_untied`.
        """
        n_rows, n_features = X.shape
        sorted_columns = np.sort(X, axis=0)
        distinct = sorted_columns[1:] != sorted_columns[:-1]
        if distinct.all():
            return self._propose_untied(sorted_columns)
        keep = np.concatenate((np.ones((1, n_features), dtype=bool), distinct))
        counts = keep.sum(axis=0)
        # Per-feature unique values, concatenated feature-contiguously.
        flat = sorted_columns.T[keep.T]
        feature_ids = np.arange(n_features, dtype=np.intp)
        capped = counts > self.max_values_per_feature
        if not capped.any():
            return np.repeat(feature_ids, counts), flat
        capped_ids = feature_ids[capped]
        virtual = self._quantile_grid * (counts[capped_ids, None] - 1)
        previous = np.floor(virtual)
        gamma = virtual - previous
        base = np.concatenate(([0], np.cumsum(counts)))[capped_ids][:, None]
        quantiles = _lerp(
            flat[base + previous.astype(np.intp)],
            flat[base + np.ceil(virtual).astype(np.intp)],
            gamma,
            1.0 - gamma,
            gamma >= 0.5,
        )
        kept = np.empty(quantiles.shape, dtype=bool)
        kept[:, :1] = True
        np.not_equal(quantiles[:, 1:], quantiles[:, :-1], out=kept[:, 1:])
        features = np.concatenate(
            (
                np.repeat(feature_ids[~capped], counts[~capped]),
                np.repeat(capped_ids, kept.sum(axis=1)),
            )
        )
        thresholds = np.concatenate(
            (flat[np.repeat(~capped, counts)], quantiles[kept])
        )
        order = np.argsort(features, kind="stable")
        return features[order], thresholds[order]

    def _propose_untied(
        self, sorted_columns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_propose_concat` of a batch whose columns have no ties.

        Every column then has ``n_rows`` unique values, so one interpolation
        (value indices and weights) serves all features, in a quantile-major
        ``(n_quantiles, n_features)`` layout.
        """
        n_rows, n_features = sorted_columns.shape
        feature_ids = np.arange(n_features, dtype=np.intp)
        if n_rows <= self.max_values_per_feature:
            return np.repeat(feature_ids, n_rows), sorted_columns.T.ravel()
        virtual = self._quantile_grid * (n_rows - 1)
        previous = np.floor(virtual)
        gamma = (virtual - previous)[:, None]
        quantiles = _lerp(
            sorted_columns.take(previous.astype(np.intp), axis=0),
            sorted_columns.take(np.ceil(virtual).astype(np.intp), axis=0),
            gamma,
            1.0 - gamma,
            gamma >= 0.5,
        )
        kept = np.empty(quantiles.shape, dtype=bool)
        kept[:1] = True
        np.not_equal(quantiles[1:], quantiles[:-1], out=kept[1:])
        return (
            np.repeat(feature_ids, kept.sum(axis=0)),
            quantiles.T[kept.T],
        )

    def _unstored_proposals(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The batch's proposed ``(features, thresholds)`` not yet stored."""
        features, thresholds = self._propose_concat(X)
        if len(self._features) and len(features):
            # Exact (feature, threshold) matches, as in :meth:`_index_of`.
            same_threshold = thresholds[:, None] == self._thresholds
            if same_threshold.any():
                duplicate = (
                    same_threshold & (features[:, None] == self._features)
                ).any(axis=1)
                features = features[~duplicate]
                thresholds = thresholds[~duplicate]
        return features, thresholds

    # --------------------------------------------------------------- update
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
        """Refresh every stored candidate with a batch and admit new ones.

        ``augmented`` is the batch's :func:`augment_batch` matrix,
        ``batch_loss`` / ``batch_gradient`` its loss and gradient sums, and
        ``node_*`` the node statistics *including* this batch.  Stored
        candidates accumulate the batch's left-partition statistics.  New
        candidates are scored on the current batch only (their statistics
        start from this batch, as described in Section V-D).  They fill free
        slots first; once the store is full, a newcomer only evicts the
        weakest stored candidate when its batch gain exceeds the gain that
        candidate has accumulated so far, bounded by the replacement budget.
        """
        X = np.asarray(X, dtype=float)
        n_rows = len(X)
        self._ensure_width(augmented.shape[1] - 1)
        # Proposing first is safe: a refresh never changes the stored keys.
        fresh_features, fresh_thresholds = self._unstored_proposals(X)
        n_stored = len(self._features)
        features = np.concatenate((self._features, fresh_features))
        thresholds = np.concatenate((self._thresholds, fresh_thresholds))
        masks = X[:, features] <= thresholds
        column_counts = masks.sum(axis=0)
        # A new candidate that does not separate the batch carries no
        # information yet.
        fresh_counts = column_counts[n_stored:]
        informative = (fresh_counts > 0) & (fresh_counts < n_rows)
        if not informative.all():
            columns = np.concatenate(
                (np.arange(n_stored), n_stored + np.flatnonzero(informative))
            )
            features = features[columns]
            thresholds = thresholds[columns]
            masks = masks[:, columns]
            column_counts = column_counts[columns]
        n_fresh = len(features) - n_stored
        if not len(features):
            self._child_losses = None
            return
        sums = self._masked_sums(masks, augmented)
        gradients = sums[:, :-1]
        losses = sums[:, -1]
        counts = column_counts.astype(float)
        gradients[:n_stored] += self._gradients
        losses[:n_stored] += self._losses
        counts[:n_stored] += self._counts

        # Every stored and fresh candidate has observations (admission
        # requires some and counts never decrease): no empty-subset guard.
        left, right = candidate_child_losses(
            losses, gradients, counts, node_loss, node_gradient, node_count,
            learning_rate, assume_counts_positive=True,
        )
        admitted: list[int] = []
        evicted: list[int] = []
        if n_fresh:
            fresh_left, fresh_right = candidate_child_losses(
                losses[n_stored:],
                gradients[n_stored:],
                counts[n_stored:],
                batch_loss,
                batch_gradient,
                float(n_rows),
                learning_rate,
                assume_counts_positive=True,
            )
            fresh_gains = batch_loss - fresh_left - fresh_right
            # Stable descending order == the stable Python sort it replaces:
            # ties keep proposal order (feature, then threshold ascending).
            order = np.argsort(-fresh_gains, kind="stable")
            free_slots = max(self.max_candidates - n_stored, 0)
            admitted = list(order[:free_slots])
            remaining = order[free_slots:]
            budget = int(np.floor(self.replacement_rate * self.max_candidates))
            if len(remaining) and budget > 0 and n_stored:
                stored_gains = node_loss - left[:n_stored] - right[:n_stored]
                stored_order = np.argsort(stored_gains, kind="stable")
                for newcomer, weakest in zip(remaining, stored_order):
                    if len(evicted) >= budget:
                        break
                    if fresh_gains[newcomer] <= stored_gains[weakest]:
                        # Stored gains ascend while newcomer gains descend
                        # from here on, so no later pair can qualify either.
                        break
                    evicted.append(int(weakest))
                    admitted.append(newcomer)

        if admitted or evicted:
            keep = np.ones(n_stored, dtype=bool)
            keep[evicted] = False
            rows: slice | np.ndarray = np.concatenate(
                (np.flatnonzero(keep), n_stored + np.array(admitted, dtype=np.intp))
            )
        else:
            rows = slice(0, n_stored)
        self._features = features[rows]
        self._thresholds = thresholds[rows]
        self._losses = losses[rows]
        self._counts = counts[rows]
        self._gradients = gradients[rows]
        self._child_losses = (
            _statistics_key(node_loss, node_gradient, node_count, learning_rate),
            left[rows],
            right[rows],
        )
        if (admitted or evicted) and TELEMETRY.enabled:
            TELEMETRY.emit(
                DMT_CANDIDATES,
                n_admitted=len(admitted),
                n_evicted=len(evicted),
                n_stored=len(self._features),
            )
            admitted_total, evicted_total = self._telemetry_counters()
            admitted_total.inc(len(admitted))
            if evicted:
                evicted_total.inc(len(evicted))

    @staticmethod
    def _masked_sums(masks: np.ndarray, augmented: np.ndarray) -> np.ndarray:
        """Column sums of ``augmented`` over each mask column, shape ``(k, p)``.

        One einsum contraction: it accumulates rows sequentially, exactly
        like summing each candidate's masked rows along axis 0.
        """
        return np.einsum("nk,np->kp", masks.astype(float), augmented)

    # ---------------------------------------------------------------- query
    def best_candidate(
        self,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
        reference_loss: float | None = None,
        exclude: tuple[int, float] | None = None,
    ) -> tuple[CandidateStatistics | None, float]:
        """Return the stored candidate with the highest gain and its gain.

        Ties keep the first-inserted candidate, as a per-candidate loop with
        a strict ``>`` comparison would.  When the node statistics are the
        ones the last :meth:`observe` saw, its child losses are reused.
        """
        if not len(self._features):
            return None, -np.inf
        if reference_loss is None:
            reference_loss = node_loss
        cached = self._child_losses
        if cached is not None and cached[0] == _statistics_key(
            node_loss, node_gradient, node_count, learning_rate
        ):
            left, right = cached[1], cached[2]
        else:
            left, right = candidate_child_losses(
                self._losses,
                self._gradients,
                self._counts,
                node_loss,
                node_gradient,
                node_count,
                learning_rate,
                assume_counts_positive=True,
            )
        gains = reference_loss - left - right
        if exclude is not None:
            index = self._index_of(exclude)
            if index is not None:
                if len(self._features) == 1:
                    return None, -np.inf
                gains[index] = -np.inf
        best = int(np.argmax(gains))
        if np.isnan(gains[best]):
            # argmax lands on a NaN whenever one exists; a NaN gain must never
            # beat a finite one, so retry with NaNs masked.
            gains = np.where(np.isnan(gains), -np.inf, gains)
            best = int(np.argmax(gains))
        if gains[best] == -np.inf:
            return None, -np.inf
        return self._materialize(best), float(gains[best])
