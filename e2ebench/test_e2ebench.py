"""Tests of the benchmark's own code: span arithmetic, percentiles, inputs.

Run with ``PYTHONPATH=src python -m pytest e2ebench -q`` from the root.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import LAYER_SPANS, SpanRecorder, instrument, self_times  # noqa: E402
from stats import percentile, tail_level  # noqa: E402
from workloads import (  # noqa: E402
    REQUEST_MAX_ROWS,
    WORKLOADS,
    OpClock,
    blockwise_proba,
    Prequential,
    _storm_stream,
    serve_schedule,
)

import repro.persistence  # noqa: E402
from repro.experiments.registry import make_model  # noqa: E402
from repro.serving import ScoringService  # noqa: E402
from repro.trees.vfdt import HoeffdingTreeClassifier  # noqa: E402


# ----------------------------------------------------------------- self time
def test_self_time_of_a_hand_built_tree():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("a", 12.0, 13.0, -1),
    ]
    times = self_times(spans)
    assert times["a"] == pytest.approx((10.0 - 3.0 - 2.0 + 1.0, 2))
    assert times["b"] == pytest.approx((2.0 + 2.0, 2))
    assert times["c"] == pytest.approx((1.0, 1))
    wall = 10.0 + 1.0
    assert sum(seconds for seconds, _ in times.values()) == pytest.approx(wall)


def test_self_time_counts_overlapping_children_once():
    spans = [("x", 0.0, 5.0, -1), ("y", 1.0, 3.0, 0), ("z", 2.0, 6.0, 0)]
    assert self_times(spans)["x"] == pytest.approx((1.0, 1))


def test_recorder_nests_folds_reentry_and_skips_inactive_calls():
    recorder = SpanRecorder(("outer", "inner"))

    def leaf(depth: int) -> int:
        return inner(depth - 1) if depth else 0

    inner = recorder.wrap(1, leaf)
    outer = recorder.wrap(0, lambda: inner(3))

    outer()  # inactive: nothing recorded
    assert recorder.spans() == []
    recorder.active = True
    outer()
    recorder.active = False
    spans = recorder.spans()
    # The three recursive entries into "inner" fold into one span.
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("outer", -1),
        ("inner", 0),
    ]
    assert all(start <= end for _, start, end, _ in spans)


# --------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    "n, level",
    [(5000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (40, 75.0), (20, 50.0), (5, 50.0)],
)
def test_tail_level_keeps_ten_samples_beyond_it(n, level):
    assert tail_level(n) == level


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile([3.0], 99.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_best_of_repeats_pairs_operations_of_one_seed():
    episodes = [
        {"index": 0, "step_s": [1.0, 5.0, 2.0]},
        {"index": 1, "step_s": [7.0]},
        {"index": 0, "step_s": [3.0, 4.0, 2.5]},
    ]
    assert run.best_of_repeats(episodes, "step_s") == [1.0, 4.0, 2.0, 7.0]


# -------------------------------------------------------------------- inputs
def test_serve_schedule_repeats_for_a_seed():
    first = serve_schedule(7, n_updates=30, requests_per_update=4)
    again = serve_schedule(7, n_updates=30, requests_per_update=4)
    other = serve_schedule(8, n_updates=30, requests_per_update=4)

    def arrays(schedule):
        pairs = [schedule.warm, *schedule.updates, *schedule.requests]
        return [array for pair in pairs for array in pair]

    assert len(arrays(first)) == len(arrays(again))
    assert all(np.array_equal(a, b) for a, b in zip(arrays(first), arrays(again)))
    assert not all(
        np.array_equal(a, b) for a, b in zip(arrays(first), arrays(other))
        if a.shape == b.shape
    )
    assert len(first.requests) == 30 * 4
    assert all(1 <= len(X) <= REQUEST_MAX_ROWS for X, _ in first.requests)


def test_blockwise_reference_equals_service_with_a_one_row_last_block():
    schedule = serve_schedule(31, n_updates=1, requests_per_update=1)
    model = make_model("dmt", 1)
    model.partial_fit(*schedule.warm, classes=np.array([0, 1]))
    service = ScoringService(max_batch_size=4)
    service.registry.register("sea", model)
    X = np.random.default_rng(0).random((9, 3))
    served = service.predict_proba("sea", X)
    assert np.array_equal(served, blockwise_proba(model, X, 4))
    other = make_model("dmt", 2)
    other.partial_fit(*schedule.updates[0], classes=np.array([0, 1]))
    assert not np.array_equal(served, blockwise_proba(other, X, 4))


# ------------------------------------------------------------ traced episode
def test_traced_episode_matches_untraced_and_model_round_trips(tmp_path):
    spec = Prequential(
        model="ht_ada", stream=_storm_stream, rows=1_200, batch_size=8,
        read_requests=5, checkpoint_every=40, pool_rows=256,
    )
    original = vars(HoeffdingTreeClassifier)["partial_fit"]

    untraced = spec.run(spec.build(3, 1), spec.inputs(3), OpClock(), str(tmp_path))
    recorder = SpanRecorder()
    clock = OpClock(recorder)
    with instrument(recorder):
        assert vars(HoeffdingTreeClassifier)["partial_fit"] is not original
        traced = spec.run(spec.build(3, 1), spec.inputs(3), clock, str(tmp_path))
    assert vars(HoeffdingTreeClassifier)["partial_fit"] is original

    # Checkpoints ran while the wrappers were installed.
    assert traced.counts["checkpoints"] > 0
    assert traced.summary == untraced.summary
    assert traced.counts == untraced.counts
    times = self_times(recorder.spans())
    assert set(times) <= set(LAYER_SPANS)
    assert times["persistence.save_model"][1] == traced.counts["checkpoints"]
    assert times["trees.partial_fit"][1] > 0
    unattributed = clock.total - sum(seconds for seconds, _ in times.values())
    assert 0.0 <= unattributed < clock.total

    path = str(tmp_path / "model.json")
    repro.persistence.save_model(traced.model, path)
    restored = repro.persistence.load_model(path)
    assert np.array_equal(
        restored.predict_proba(traced.probe), traced.model.predict_proba(traced.probe)
    )


# ------------------------------------------------------------ declared names
def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {
        metric["name"]: metric["unit"] for metric in declared["end_to_end"]
    } == run.END_TO_END_UNITS
    layer_names = [
        f"{span}.{kind}" for span in LAYER_SPANS for kind in ("self_s", "calls")
    ] + list(run.LAYER_COUNTS) + [
        "trace.wall_s", "trace.unattributed_s", "trace.overhead_frac",
    ]
    assert [metric["name"] for metric in declared["per_layer"]] == layer_names
