"""The benchmark's four workloads, each run as one *episode* per process.

An episode is a fixed amount of work fully determined by its seed: build the
stream, model, registry or service (the set-up), then run the timed loop a
user runs, operation by operation.  Every operation is timed by
:class:`OpClock`, which reports it at the reference speed and is also what switches span recording on in the traced
run, so the traced wall time is exactly the sum of the timed operations.

* ``dmt-sea``, ``hat-storm-delayed`` and ``arf-agrawal`` are prequential:
  the loop is ``PrequentialSession.step()`` until the stream ends (plus
  ``save_model``/``load_model`` checkpoints of the whole session in
  ``hat-storm-delayed``); between steps, the model being trained answers a
  seeded schedule of ``predict_proba`` requests.
* ``serve-swap`` is a closed loop of one client scoring through
  ``ScoringService`` against a DMT champion, with a labelled batch through
  ``ChampionChallenger.process_batch`` after every ``requests_per_update``
  requests, and a hot swap plus a ``save_active``/``load`` round trip on
  every promotion.

The program only ever receives generated inputs; request inputs are made
before the set-up clock runs.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar

import numpy as np

import repro.persistence
from repro.evaluation.metrics import f1_score
from repro.evaluation.prequential import PrequentialSession
from repro.experiments.registry import (
    build_scenario_pipeline,
    make_dataset,
    make_model,
)
from repro.serving import ChampionChallenger, ModelRegistry, ScoringService
from repro.streams.scenarios import LabelDelayer, LabelMasker
from repro.telemetry import TELEMETRY

import speed

#: Request sizes are log-normal around this many rows, clipped to [1, 2048].
REQUEST_MEDIAN_ROWS = 32
REQUEST_SIGMA = 1.5
REQUEST_MAX_ROWS = 2048
#: Every this-many-th response is compared with a direct ``predict_proba``.
CHECK_EVERY = 8
#: Seconds of timed work between two readings of the speed probe.
PROBE_EVERY_S = 0.025


def blockwise_proba(model, X: np.ndarray, block_rows: int) -> np.ndarray:
    """``model.predict_proba`` on consecutive blocks of at most ``block_rows``.

    These are the calls ``ScoringService`` documents for a request larger
    than its ``max_batch_size``, so a correct response equals this bit for
    bit.
    """
    return np.concatenate([
        model.predict_proba(X[start:start + block_rows])
        for start in range(0, len(X), block_rows)
    ])


class OpClock:
    """Times one operation at a time; switches span recording on around it.

    Before an operation, once ``PROBE_EVERY_S`` of timed work has passed
    since the last reading, the clock runs the speed probe (untimed, span
    recording off).  It returns each operation's time divided by the median
    of the last three readings: the time at the reference speed, whatever
    the shared host does that second.  ``total`` sums the times as measured.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.total = 0.0
        self.scaled_total = 0.0
        self._readings: deque[float] = deque(maxlen=3)
        self._since_probe = 0.0

    def __call__(self, operation: Callable, *args):
        if not self._readings or self._since_probe >= PROBE_EVERY_S:
            # The first operation waits for three fresh readings.
            for _ in range(1 if self._readings else self._readings.maxlen):
                self._readings.append(speed.slowdown(repeats=1))
            self._since_probe = 0.0
        recorder = self.recorder
        if recorder is not None:
            recorder.active = True
        started = perf_counter()
        try:
            result = operation(*args)
        finally:
            elapsed = perf_counter() - started
            if recorder is not None:
                recorder.active = False
        self.total += elapsed
        self._since_probe += elapsed
        scaled = elapsed / statistics.median(self._readings)
        self.scaled_total += scaled
        return result, scaled

    @property
    def slowdown(self) -> float:
        """Time as measured over time at the reference speed."""
        return self.total / self.scaled_total if self.scaled_total else 1.0


@dataclass
class EpisodeResult:
    """What one episode measured and what the benchmark checked."""

    step_s: list[float] = field(default_factory=list)
    score_s: list[float] = field(default_factory=list)
    #: Rows and seconds behind ``rows_per_s``: stream rows over the time in
    #: steps and checkpoints, or, in serve-swap, every scored and labelled
    #: row over the time in all operations.
    loop_rows: int = 0
    loop_s: float = 0.0
    score_rows: int = 0
    f1_mean: float = 0.0
    n_splits_mean: float = 0.0
    #: Everything that must repeat bit-for-bit for the same seed.
    summary: dict[str, object] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    failed_checks: list[str] = field(default_factory=list)
    #: Observations printed with the run that are not failed checks.
    notes: list[str] = field(default_factory=list)
    #: The model after the loop, and one request to probe it with.
    model: object = None
    probe: np.ndarray | None = None

    @property
    def operations(self) -> int:
        return len(self.step_s) + len(self.score_s)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed_checks.append(what)


def request_sizes(rng: np.random.Generator, count: int) -> np.ndarray:
    """Seeded log-normal request sizes in ``[1, REQUEST_MAX_ROWS]``."""
    raw = rng.lognormal(np.log(REQUEST_MEDIAN_ROWS), REQUEST_SIGMA, size=count)
    return np.clip(np.rint(raw), 1, REQUEST_MAX_ROWS).astype(np.int64)


def _slices(pool: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Consecutive (wrapping) row windows of ``pool``, one per request."""
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return [
        np.ascontiguousarray(pool[np.arange(start, start + size) % len(pool)])
        for start, size in zip(offsets, sizes)
    ]


# --------------------------------------------------------------------------
# Prequential workloads
# --------------------------------------------------------------------------
def _sea_stream(rows: int, seed: int):
    return make_dataset("sea", scale=rows / 1_000_000, seed=seed)


def _agrawal_stream(rows: int, seed: int):
    return make_dataset("agrawal", scale=rows / 1_000_000, seed=seed)


def _storm_stream(rows: int, seed: int):
    pipeline = build_scenario_pipeline("sea_storm", rows, seed)
    return LabelMasker(
        LabelDelayer(pipeline, delay=500),
        rate=0.5, start=0.2, end=0.8, seed=seed + 1,
    )


@dataclass(frozen=True)
class Prequential:
    """Test-then-train on one stream, with scoring requests between steps."""

    model: str
    stream: Callable[[int, int], object]
    rows: int
    batch_size: int
    read_requests: int
    checkpoint_every: int = 0
    pool_rows: int = 4096
    telemetry: ClassVar[bool] = False

    def inputs(self, seed: int) -> list[np.ndarray]:
        """Scoring requests: rows of an independent copy of the stream."""
        pool, _ = self.stream(self.pool_rows, seed + 10_007).next_sample(
            self.pool_rows
        )
        rng = np.random.default_rng([seed, 1])
        return _slices(pool, request_sizes(rng, self.read_requests))

    def build(self, seed: int, model_seed: int) -> PrequentialSession:
        stream = self.stream(self.rows, seed)
        if stream.n_samples != self.rows:
            raise ValueError(f"stream has {stream.n_samples} rows, not {self.rows}")
        return PrequentialSession(
            make_model(self.model, model_seed), stream, batch_size=self.batch_size
        )

    def run(
        self,
        session: PrequentialSession,
        requests: list[np.ndarray],
        clock: OpClock,
        workdir: str,
    ) -> EpisodeResult:
        out = EpisodeResult()
        checkpoint = os.path.join(workdir, "session.json")
        # Requests arrive between steps, evenly over the stream, so the read
        # path sees the model at every stage of its growth.
        n_steps = -(-session.stream.n_samples // self.batch_size)
        sent = 0

        def score(X: np.ndarray) -> None:
            _, elapsed = clock(session.model.predict_proba, X)
            out.score_s.append(elapsed)
            out.score_rows += len(X)

        checkpoints = 0
        more = True
        while more:
            more, elapsed = clock(session.step)
            out.step_s.append(elapsed)
            steps = len(out.step_s)
            if more and self.checkpoint_every and steps % self.checkpoint_every == 0:
                session, elapsed = clock(_round_trip, session, checkpoint)
                out.loop_s += elapsed
                checkpoints += 1
            # A model scores only once it has been trained (delayed labels
            # hold training back); requests due before then go as soon as it is.
            while sent < steps * len(requests) // n_steps and session.fitted:
                score(requests[sent])
                sent += 1
        for X in requests[sent:]:  # left only if the model was never trained
            score(X)
        out.loop_s += sum(out.step_s)
        out.loop_rows = session.result.n_samples
        model = session.model

        out.summary = session.result.deterministic_summary()
        out.f1_mean = float(out.summary["f1_mean"])
        out.n_splits_mean = float(out.summary["n_splits_mean"])
        out.counts = {
            "stream.rows": session.stream.position, "checkpoints": checkpoints,
        }
        out.model, out.probe = model, requests[0]
        return out

    def reference_summary(
        self, seed: int, model_seed: int
    ) -> dict[str, object] | None:
        """Summary of the same episode without checkpoints (``None`` if it has none)."""
        if not self.checkpoint_every:
            return None
        session = self.build(seed, model_seed)
        while session.step():
            pass
        return session.result.deterministic_summary()


def _round_trip(session: PrequentialSession, path: str) -> PrequentialSession:
    repro.persistence.save_model(session, path)
    return repro.persistence.load_model(path)


# --------------------------------------------------------------------------
# serve-swap
# --------------------------------------------------------------------------
#: Thresholds of the two alternating concepts: ``x0 + x1 <= theta`` on
#: features in [0, 1].  They are farther apart than SEA's own (8, 9, 7, 9.5
#: of 20), so the champion's ADWIN fires at every switch.
SERVE_THRESHOLDS = np.array([0.6, 1.4])


@dataclass
class ServeSchedule:
    """Every input of one serve-swap episode, in the order the client uses it."""

    warm: tuple[np.ndarray, np.ndarray]
    updates: list[tuple[np.ndarray, np.ndarray]]
    requests: list[tuple[np.ndarray, np.ndarray]]


#: Labelled rows per update, rows the champion is warmed on, and updates
#: between concept switches.
UPDATE_ROWS = 64
WARM_ROWS = 1024
SWITCH_EVERY = 40
LABEL_NOISE = 0.1


def serve_schedule(
    seed: int, n_updates: int, requests_per_update: int
) -> ServeSchedule:
    """Seeded SEA-style labelled stream and request stream for serve-swap.

    Labelled rows follow a SEA concept (``x0 + x1 <= theta``, 10% label
    noise, a third feature that is irrelevant); the concept alternates
    every ``SWITCH_EVERY`` updates.  Request rows are labelled by the
    concept that is live when they are sent.
    """
    rng = np.random.default_rng([seed, 2])
    n_labelled = WARM_ROWS + n_updates * UPDATE_ROWS
    concept = (
        np.maximum(np.arange(n_labelled) - WARM_ROWS, 0)
        // (SWITCH_EVERY * UPDATE_ROWS)
    ) % len(SERVE_THRESHOLDS)

    def label(X: np.ndarray, concept: np.ndarray) -> np.ndarray:
        y = (X[:, 0] + X[:, 1] <= SERVE_THRESHOLDS[concept]).astype(np.int64)
        flip = rng.random(len(X)) < LABEL_NOISE
        return np.where(flip, 1 - y, y)

    X = rng.random((n_labelled, 3))
    y = label(X, concept)
    sizes = request_sizes(rng, n_updates * requests_per_update)
    updates = []
    requests = []
    for update in range(n_updates):
        start = WARM_ROWS + update * UPDATE_ROWS
        for size in sizes[
            update * requests_per_update:(update + 1) * requests_per_update
        ]:
            request_X = rng.random((int(size), 3))
            requests.append(
                (request_X, label(request_X, np.full(int(size), concept[start])))
            )
        updates.append((X[start:start + UPDATE_ROWS], y[start:start + UPDATE_ROWS]))
    return ServeSchedule(
        warm=(X[:WARM_ROWS], y[:WARM_ROWS]), updates=updates, requests=requests
    )


@dataclass
class ServeState:
    registry: ModelRegistry
    deployment: ChampionChallenger
    service: ScoringService
    #: Seed of the first challenger; later ones count up from it.
    model_seed: int


@dataclass(frozen=True)
class ServeSwap:
    """Closed-loop scoring next to drift-triggered champion replacement."""

    n_updates: int
    requests_per_update: int
    max_batch_size: ClassVar[int] = 256
    name: ClassVar[str] = "sea"
    telemetry: ClassVar[bool] = True

    def inputs(self, seed: int) -> ServeSchedule:
        return serve_schedule(seed, self.n_updates, self.requests_per_update)

    def build(
        self, seed: int, model_seed: int, schedule: ServeSchedule
    ) -> ServeState:
        champion = make_model("dmt", model_seed)
        champion.partial_fit(*schedule.warm, classes=np.array([0, 1]))
        registry = ModelRegistry()
        # Promote on every champion drift: the challenger's shadow record is
        # not required to be better, so each concept switch is a hot swap.
        deployment = ChampionChallenger(
            registry, self.name, champion, require_challenger_not_worse=False
        )
        deployment.set_challenger(make_model("dmt", model_seed + 1))
        service = ScoringService(registry, max_batch_size=self.max_batch_size)
        return ServeState(registry, deployment, service, model_seed)

    def run(
        self,
        state: ServeState,
        schedule: ServeSchedule,
        clock: OpClock,
        workdir: str,
    ) -> EpisodeResult:
        out = EpisodeResult()
        registry, service = state.registry, state.service
        checkpoint = os.path.join(workdir, "champion.json")
        digest = hashlib.sha256()
        served: list[np.ndarray] = []
        n_splits: list[int] = []
        promotions = 0

        def update(X: np.ndarray, y: np.ndarray) -> dict[str, object]:
            nonlocal promotions
            report = state.deployment.process_batch(X, y)
            if report["promoted"]:
                promotions += 1
                registry.save_active(self.name, checkpoint)
                registry.load(self.name, checkpoint)
                state.deployment.set_challenger(
                    make_model("dmt", state.model_seed + 1 + promotions)
                )
            return report

        requests = iter(enumerate(schedule.requests))
        for X_update, y_update in schedule.updates:
            for _ in range(self.requests_per_update):
                index, (X, _y) = next(requests)
                proba, elapsed = clock(service.predict_proba, self.name, X)
                out.score_s.append(elapsed)
                out.score_rows += len(X)
                served.append(np.argmax(proba, axis=1))
                digest.update(proba.tobytes())
                if index % CHECK_EVERY == 0:
                    model = registry.get(self.name)
                    out.check(
                        np.array_equal(
                            proba, blockwise_proba(model, X, self.max_batch_size)
                        ),
                        f"response {index} differs from the active model's "
                        "predict_proba on the same blocks",
                    )
                    # Known in the program: a one-row block goes through
                    # another numpy kernel than the same row in a larger
                    # block, so the response can differ from one unchunked
                    # call in the last bit.  Reported, not counted as failed.
                    whole = model.predict_proba(X)
                    if not np.array_equal(proba, whole):
                        out.notes.append(
                            f"response {index} ({len(X)} rows) differs from "
                            "one unchunked predict_proba by up to "
                            f"{np.max(np.abs(proba - whole)):.3g}"
                        )
            _, elapsed = clock(update, X_update, y_update)
            out.step_s.append(elapsed)
            out.loop_rows += len(y_update)
            n_splits.append(registry.get(self.name).complexity().n_splits)

        deployment = state.deployment
        out.loop_s = sum(out.step_s) + sum(out.score_s)
        out.loop_rows += out.score_rows
        out.f1_mean = f1_score(
            np.concatenate([y for _, y in schedule.requests]),
            np.concatenate(served),
            average="weighted",
        )
        out.n_splits_mean = float(np.mean(n_splits))
        out.summary = {
            "promotions": deployment.n_promotions,
            "drifts": deployment.n_drifts,
            "f1_mean": out.f1_mean,
            "n_splits_mean": out.n_splits_mean,
            "responses_sha256": digest.hexdigest(),
        }
        out.check(
            promotions == deployment.n_promotions,
            "hot swaps differ from ChampionChallenger.n_promotions",
        )
        out.counts = {
            "serving.rows": out.score_rows,
            "serving.promotions": deployment.n_promotions,
            "serving.drifts": deployment.n_drifts,
        }
        out.model, out.probe = registry.get(self.name), schedule.requests[0][0]
        return out

    def reference_summary(self, seed: int, model_seed: int) -> None:
        """serve-swap has no checkpoints, so no uninterrupted reference."""
        return None


#: Workload name -> definition.  Sizes are per episode; a run repeats
#: episodes over several derived seeds (see ``run.py``).  The request counts
#: put enough requests of the log-normal's upper tail in every run for a
#: steady p99.
WORKLOADS: dict[str, Prequential | ServeSwap] = {
    "dmt-sea": Prequential(
        model="dmt", stream=_sea_stream, rows=30_000, batch_size=32,
        read_requests=1_200,
    ),
    "hat-storm-delayed": Prequential(
        model="ht_ada", stream=_storm_stream, rows=12_000, batch_size=8,
        read_requests=1_200, checkpoint_every=250,
    ),
    "serve-swap": ServeSwap(n_updates=320, requests_per_update=4),
    "arf-agrawal": Prequential(
        model="arf", stream=_agrawal_stream, rows=4_000, batch_size=32,
        read_requests=800,
    ),
}


def set_telemetry(enabled: bool) -> None:
    """Fresh telemetry state for the episode, on or off."""
    TELEMETRY.reset()
    if enabled:
        TELEMETRY.enable()
