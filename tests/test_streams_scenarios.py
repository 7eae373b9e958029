"""Tests for the composable stream-scenario subsystem.

Covers the semantics of every transform (drift modes, corruption, label
noise, prior shift), pipeline composition, persistence round-trips
(including a resumable experiment grid over a scenario from a cold result
store) and the scenario catalogue wired into the experiment registry.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import (
    SCENARIO_REGISTRY,
    build_scenario_pipeline,
    make_dataset,
    scenario_names,
)
from repro.experiments.runner import ExperimentSuite
from repro.experiments.store import ResultStore, RunConfig
from repro.persistence import load_model, save_model
from repro.streams import (
    DriftInjector,
    FeatureCorruptor,
    HyperplaneGenerator,
    ImbalanceShifter,
    LabelDelayer,
    LabelMasker,
    LabelNoiser,
    OscillatingDrift,
    ScenarioPipeline,
    SchemaShifter,
    SEAGenerator,
    label_realism,
)

N = 2_000


def _sea(seed=1, concept=0, noise=0.0):
    return SEAGenerator(
        n_samples=N, noise=noise, drift_positions=(), initial_concept=concept,
        seed=seed,
    )


def _pair():
    return _sea(seed=1, concept=0), _sea(seed=2, concept=2)


class TestDriftInjector:
    def test_abrupt_switches_source_at_position(self):
        base, alternate = _pair()
        injector = DriftInjector(base, alternate, mode="abrupt", position=0.5)
        X, y = injector.take()
        X_base, y_base = base._generate(0, N)
        X_alt, y_alt = alternate._generate(0, N)
        np.testing.assert_array_equal(X[: N // 2], X_base[: N // 2])
        np.testing.assert_array_equal(y[: N // 2], y_base[: N // 2])
        np.testing.assert_array_equal(X[N // 2 :], X_alt[N // 2 :])
        np.testing.assert_array_equal(y[N // 2 :], y_alt[N // 2 :])

    def test_gradual_hands_over_probabilistically(self):
        base, alternate = _pair()
        injector = DriftInjector(
            base, alternate, mode="gradual", position=0.5, width=0.1, seed=3
        )
        X, _ = injector.take()
        X_alt, _ = alternate._generate(0, N)
        from_alt = np.all(X == X_alt, axis=1)
        assert from_alt[: N // 4].mean() < 0.05
        assert from_alt[-N // 4 :].mean() > 0.95
        window = from_alt[int(0.45 * N) : int(0.55 * N)]
        assert 0.2 < window.mean() < 0.8

    def test_incremental_interpolates_features(self):
        base, alternate = _pair()
        injector = DriftInjector(
            base, alternate, mode="incremental", position=0.25, width=0.5
        )
        X, y = injector.take()
        X_base, _ = base._generate(0, N)
        X_alt, y_alt = alternate._generate(0, N)
        mid = N // 2  # fraction 0.5 -> blend (0.5 - 0.25) / 0.5 = 0.5
        np.testing.assert_allclose(X[mid], 0.5 * X_base[mid] + 0.5 * X_alt[mid])
        np.testing.assert_array_equal(X[: N // 4], X_base[: N // 4])
        np.testing.assert_array_equal(X[-N // 8 :], X_alt[-N // 8 :])
        np.testing.assert_array_equal(y[-N // 8 :], y_alt[-N // 8 :])

    def test_recurring_alternates_concepts(self):
        base, alternate = _pair()
        injector = DriftInjector(base, alternate, mode="recurring", period=0.25)
        X, _ = injector.take()
        X_base, _ = base._generate(0, N)
        X_alt, _ = alternate._generate(0, N)
        quarter = N // 4
        np.testing.assert_array_equal(X[:quarter], X_base[:quarter])
        np.testing.assert_array_equal(X[quarter : 2 * quarter], X_alt[quarter : 2 * quarter])
        np.testing.assert_array_equal(X[2 * quarter : 3 * quarter], X_base[2 * quarter : 3 * quarter])

    def test_wraps_shorter_children_modulo_length(self):
        base = _sea(seed=1)
        alternate = SEAGenerator(
            n_samples=N // 2, noise=0.0, drift_positions=(), initial_concept=2, seed=2
        )
        injector = DriftInjector(
            base, alternate, mode="abrupt", position=0.0, n_samples=N
        )
        X, _ = injector.take()
        X_alt, _ = alternate._generate(0, N // 2)
        np.testing.assert_array_equal(X[: N // 2], X_alt)
        np.testing.assert_array_equal(X[N // 2 :], X_alt)

    def test_validation_errors(self):
        base, alternate = _pair()
        with pytest.raises(ValueError):
            DriftInjector(base, HyperplaneGenerator(n_samples=N, n_features=5), mode="abrupt")
        with pytest.raises(ValueError):
            DriftInjector(base, alternate, mode="sideways")
        with pytest.raises(ValueError):
            DriftInjector(base, alternate, width=0.0)
        with pytest.raises(ValueError):
            DriftInjector(base, alternate, position=1.5)


class TestFeatureCorruptor:
    def test_missing_rate_inside_window_only(self):
        corruptor = FeatureCorruptor(
            _sea(), missing_rate=0.3, start=0.5, missing_value=-1.0, seed=3
        )
        X, _ = corruptor.take()
        X_raw, _ = corruptor.stream._generate(0, N)
        np.testing.assert_array_equal(X[: N // 2], X_raw[: N // 2])
        missing = (X[N // 2 :] == -1.0).mean()
        assert 0.25 < missing < 0.35

    def test_gaussian_noise_is_added(self):
        corruptor = FeatureCorruptor(_sea(), noise_std=0.5, seed=3)
        X, _ = corruptor.take()
        X_raw, _ = corruptor.stream._generate(0, N)
        deltas = X - X_raw
        assert abs(deltas.mean()) < 0.05
        assert 0.4 < deltas.std() < 0.6

    def test_swap_exchanges_columns(self):
        corruptor = FeatureCorruptor(_sea(), swap=((0, 2),), start=0.5)
        X, _ = corruptor.take()
        X_raw, _ = corruptor.stream._generate(0, N)
        np.testing.assert_array_equal(X[N // 2 :, 0], X_raw[N // 2 :, 2])
        np.testing.assert_array_equal(X[N // 2 :, 2], X_raw[N // 2 :, 0])
        np.testing.assert_array_equal(X[: N // 2], X_raw[: N // 2])

    def test_labels_never_touched(self):
        corruptor = FeatureCorruptor(_sea(), missing_rate=0.5, noise_std=1.0, seed=3)
        _, y = corruptor.take()
        _, y_raw = corruptor.stream._generate(0, N)
        np.testing.assert_array_equal(y, y_raw)

    def test_invalid_swap_pair_raises(self):
        with pytest.raises(ValueError):
            FeatureCorruptor(_sea(), swap=((0, 9),))


class TestLabelNoiser:
    def test_flip_rate_matches_noise(self):
        noiser = LabelNoiser(_sea(), noise=0.3, seed=3)
        _, y = noiser.take()
        _, y_raw = noiser.stream._generate(0, N)
        flipped = (y != y_raw).mean()
        assert 0.25 < flipped < 0.35

    def test_window_limits_flips(self):
        noiser = LabelNoiser(_sea(), noise=0.5, start=0.75, seed=3)
        _, y = noiser.take()
        _, y_raw = noiser.stream._generate(0, N)
        np.testing.assert_array_equal(y[: 3 * N // 4], y_raw[: 3 * N // 4])
        assert (y[3 * N // 4 :] != y_raw[3 * N // 4 :]).mean() > 0.4

    def test_flips_to_other_classes_only(self):
        noiser = LabelNoiser(_sea(), noise=1.0, seed=3)
        _, y = noiser.take()
        _, y_raw = noiser.stream._generate(0, N)
        assert (y != y_raw).all()
        assert np.isin(y, (0, 1)).all()

    def test_features_never_touched(self):
        noiser = LabelNoiser(_sea(), noise=0.5, seed=3)
        X, _ = noiser.take()
        X_raw, _ = noiser.stream._generate(0, N)
        np.testing.assert_array_equal(X, X_raw)


class TestImbalanceShifter:
    def test_prior_ramps_to_target(self):
        # SEA theta=8: roughly 1/3 positive naturally; shift to 5% positive.
        shifter = ImbalanceShifter(
            _sea(), class_weights=(0.95, 0.05), start=0.0, end=0.5, oversample=1.5
        )
        _, y = shifter.take()
        tail = y[len(y) // 2 :]
        assert tail.mean() < 0.12
        assert shifter.n_samples == int(N / 1.5)

    def test_natural_prior_before_ramp(self):
        shifter = ImbalanceShifter(
            _sea(), class_weights=(0.99, 0.01), start=0.8, end=1.0, oversample=1.5
        )
        _, y = shifter.take()
        _, y_raw = shifter.stream._generate(0, N)
        head = y[: len(y) // 2]
        assert abs(head.mean() - y_raw.mean()) < 0.08

    def test_prior_holds_within_blocks(self):
        """The shifted prior holds in any sub-window, not just per block
        (regression: greedy earliest-row selection clustered the minority
        class at the start of each block)."""
        shifter = ImbalanceShifter(
            _sea(), class_weights=(0.9, 0.1), start=0.0, end=0.5
        )
        _, y = shifter.take()
        block = y[len(y) // 2 : len(y) // 2 + 1024]
        first_half, second_half = block[:512], block[512:]
        assert abs(first_half.mean() - second_half.mean()) < 0.05

    def test_rows_come_from_base_stream_in_order(self):
        shifter = ImbalanceShifter(_sea(), class_weights=(0.9, 0.1), oversample=2.0)
        X, _ = shifter.take()
        X_raw, _ = shifter.stream._generate(0, N)
        # Every output row is a base row; order within the output preserved
        # per block, so sorting by first feature must match a subset check.
        raw_rows = {row.tobytes() for row in X_raw}
        assert all(row.tobytes() in raw_rows for row in X)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ImbalanceShifter(_sea(), class_weights=(0.9, 0.2))
        with pytest.raises(ValueError):
            ImbalanceShifter(_sea(), class_weights=(0.5, 0.5), oversample=0.5)
        with pytest.raises(ValueError):
            ImbalanceShifter(_sea(), class_weights=(0.5, 0.2, 0.3))


def _make_pipeline():
    base, alternate = _pair()
    return ScenarioPipeline(
        DriftInjector(base, alternate, mode="gradual", seed=5),
        layers=[
            (FeatureCorruptor, dict(missing_rate=0.1, seed=6)),
            (LabelNoiser, dict(noise=0.1, seed=7)),
        ],
        name="test_pipeline",
    )


class TestScenarioPipeline:
    def test_layer_stack_and_describe(self):
        pipeline = _make_pipeline()
        names = [type(s).__name__ for s in pipeline.layer_stack()]
        assert names == [
            "LabelNoiser", "FeatureCorruptor", "DriftInjector", "SEAGenerator",
        ]
        assert pipeline.describe().startswith("test_pipeline: LabelNoiser")

    def test_empty_pipeline_is_identity(self):
        base = _sea()
        pipeline = ScenarioPipeline(base, name="identity")
        X, y = pipeline.take()
        X_raw, y_raw = base._generate(0, N)
        np.testing.assert_array_equal(X, X_raw)
        np.testing.assert_array_equal(y, y_raw)


class TestScenarioPersistence:
    def test_pipeline_state_round_trip_bit_exact(self):
        pipeline = _make_pipeline()
        X, y = pipeline.take()
        clone = ScenarioPipeline.from_state(pipeline.to_state())
        clone.restart()
        X_clone, y_clone = clone.take()
        np.testing.assert_array_equal(X, X_clone)
        np.testing.assert_array_equal(y, y_clone)

    def test_state_resumes_mid_stream(self):
        pipeline = _make_pipeline()
        pipeline.next_sample(700)
        clone = ScenarioPipeline.from_state(pipeline.to_state())
        assert clone.position == 700
        X_rest, y_rest = clone.take()
        X_orig, y_orig = pipeline.take()
        np.testing.assert_array_equal(X_rest, X_orig)
        np.testing.assert_array_equal(y_rest, y_orig)

    def test_block_caches_are_not_serialised(self):
        pipeline = _make_pipeline()
        pipeline.next_sample(700)  # populate block caches
        document = json.dumps(pipeline.to_state())
        assert "_block_cache" not in document
        assert "_boundary_states" not in document

    def test_save_and_load_model_file(self, tmp_path):
        pipeline = _make_pipeline()
        path = tmp_path / "scenario.json"
        save_model(pipeline, path)
        clone = load_model(path)
        X, y = pipeline.take()
        X_clone, y_clone = clone.take()
        np.testing.assert_array_equal(X, X_clone)
        np.testing.assert_array_equal(y, y_clone)

    def test_catalog_scenarios_round_trip(self):
        for name in scenario_names():
            pipeline = build_scenario_pipeline(name, 600, seed=11)
            X, y = pipeline.take()
            clone = ScenarioPipeline.from_state(pipeline.to_state())
            clone.restart()
            X_clone, y_clone = clone.take()
            np.testing.assert_array_equal(X, X_clone, err_msg=name)
            np.testing.assert_array_equal(y, y_clone, err_msg=name)


class TestScenarioRegistry:
    def test_catalog_has_at_least_ten_scenarios(self):
        assert len(scenario_names()) >= 10

    def test_specs_match_built_streams(self):
        for name, spec in SCENARIO_REGISTRY.items():
            stream = make_dataset(name, scale=0.005, seed=1)
            assert stream.n_features == spec.n_features, name
            assert stream.n_classes == spec.n_classes, name
            assert stream.n_samples >= 500 / 1.5, name

    def test_every_drift_family_is_covered(self):
        families = {spec.family for spec in SCENARIO_REGISTRY.values()}
        assert {"drift", "corruption", "label_noise", "imbalance", "composite"} <= families

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            build_scenario_pipeline("no_such_scenario", 500)
        with pytest.raises(KeyError):
            make_dataset("no_such_scenario")


class TestScenarioGridResume:
    def test_grid_over_scenario_resumes_from_cold_store(self, tmp_path):
        """A scenario grid persisted to disk reloads bit-identically."""
        store_dir = tmp_path / "store"
        kwargs = dict(
            model_names=("vfdt_mc",),
            dataset_names=("stagger_abrupt", "sea_storm"),
            scale=0.005,
            seed=7,
            batch_fraction=0.05,
        )
        first = ExperimentSuite(store=ResultStore(store_dir), **kwargs).run()
        assert len(ResultStore(store_dir)) == 2
        # Cold start: new suite, new store handle, nothing recomputed.
        events = []
        second = ExperimentSuite(store=ResultStore(store_dir), **kwargs)
        second.run(progress=events.append)
        assert all(event.status == "cached" for event in events)
        for key, result in first.results.items():
            np.testing.assert_equal(
                second.results[key].deterministic_summary(),
                result.deterministic_summary(),
            )

    def test_scenario_cells_store_and_reload_by_config(self, tmp_path):
        store = ResultStore(tmp_path)
        config = RunConfig(
            model="vfdt_mc", dataset="led_label_noise", scale=0.005,
            seed=3, batch_fraction=0.05,
        )
        from repro.experiments.parallel import run_grid

        result = run_grid([config], store=store)[config]
        reloaded = store.get(config)
        np.testing.assert_equal(
            reloaded.deterministic_summary(), result.deterministic_summary()
        )


class TestScenarioCLI:
    def test_cli_scenarios_flag_runs_catalogue(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        exit_code = main(
            [
                "--scenarios", "--models", "vfdt_mc", "--scale", "0.0025",
                "--batch-fraction", "0.05", "--store", str(tmp_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert f"{len(scenario_names())} cells finished" in output
        assert len(ResultStore(tmp_path)) == len(scenario_names())


class TestOscillatingDrift:
    def _pair(self):
        return _sea(seed=1, concept=0), _sea(seed=1, concept=2)

    def test_mismatched_streams_raise(self):
        narrow = HyperplaneGenerator(n_samples=N, n_features=5, seed=1)
        with pytest.raises(ValueError, match="features"):
            OscillatingDrift(_sea(), narrow)

    def test_invalid_parameters_raise(self):
        base, alternate = self._pair()
        with pytest.raises(ValueError, match="period"):
            OscillatingDrift(base, alternate, period=0.0)
        with pytest.raises(ValueError, match="decay"):
            OscillatingDrift(base, alternate, decay=0.0)
        with pytest.raises(ValueError, match="min_period"):
            OscillatingDrift(base, alternate, min_period=-0.1)

    def test_alternation_follows_the_switch_schedule(self):
        base, alternate = self._pair()
        stream = OscillatingDrift(
            base, alternate, start=0.25, period=0.25, decay=1.0
        )
        X, y = stream.take()
        X_base, y_base = _sea(seed=1, concept=0).take()
        X_alt, y_alt = _sea(seed=1, concept=2).take()
        switches = stream.switch_fractions()
        np.testing.assert_array_equal(switches, [0.25, 0.5, 0.75])
        quarter = N // 4
        np.testing.assert_array_equal(X, X_base)  # same seed: X is shared
        np.testing.assert_array_equal(y[:quarter], y_base[:quarter])
        np.testing.assert_array_equal(y[quarter : 2 * quarter], y_alt[quarter : 2 * quarter])
        np.testing.assert_array_equal(y[2 * quarter : 3 * quarter], y_base[2 * quarter : 3 * quarter])
        np.testing.assert_array_equal(y[3 * quarter :], y_alt[3 * quarter :])

    def test_alternation_accelerates(self):
        base, alternate = self._pair()
        stream = OscillatingDrift(
            base, alternate, start=0.2, period=0.2, decay=0.5, min_period=0.02
        )
        gaps = np.diff(stream.switch_fractions())
        assert (np.diff(gaps) <= 1e-12).all()  # shrinking intervals
        assert gaps.min() >= 0.02 - 1e-12  # floored at min_period

    def test_decay_one_keeps_a_fixed_period(self):
        base, alternate = self._pair()
        stream = OscillatingDrift(
            base, alternate, start=0.1, period=0.3, decay=1.0
        )
        gaps = np.diff(stream.switch_fractions())
        np.testing.assert_allclose(gaps, 0.3)


class TestSchemaShifter:
    def test_invalid_schedule_raises(self):
        with pytest.raises(ValueError, match="outside"):
            SchemaShifter(_sea(), schedule=[(7, 0.0, 1.0)])
        with pytest.raises(ValueError, match="disappear"):
            SchemaShifter(_sea(), schedule=[(0, 0.5, 0.2)])
        with pytest.raises(ValueError, match="more than once"):
            SchemaShifter(_sea(), schedule=[(0, 0.0, 0.5), (0, 0.5, 1.0)])

    def test_presence_window_controls_the_column(self):
        stream = SchemaShifter(
            _sea(), schedule=[(1, 0.25, 0.75)], fill_value=-1.0
        )
        X, y = stream.take()
        X_raw, y_raw = _sea().take()
        lo, hi = N // 4, 3 * N // 4
        assert (X[:lo, 1] == -1.0).all()  # before appearing
        np.testing.assert_array_equal(X[lo:hi, 1], X_raw[lo:hi, 1])  # present
        assert (X[hi:, 1] == -1.0).all()  # after disappearing
        # Untouched columns and labels pass through bit-identically.
        np.testing.assert_array_equal(X[:, [0, 2]], X_raw[:, [0, 2]])
        np.testing.assert_array_equal(y, y_raw)

    def test_nan_fill_marks_absent_cells(self):
        stream = SchemaShifter(
            _sea(), schedule=[(0, 0.5, 1.0)], fill_value=float("nan")
        )
        X, _ = stream.take()
        assert np.isnan(X[: N // 2, 0]).all()
        assert not np.isnan(X[N // 2 :, 0]).any()

    def test_shape_and_metadata_are_preserved(self):
        stream = SchemaShifter(_sea(), schedule=[(2, 0.3, 0.6)])
        assert stream.n_features == 3
        X, y = stream.next_sample(100)
        assert X.shape == (100, 3)


class TestLabelDelayer:
    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            LabelDelayer(_sea(), delay=-1)

    def test_data_passes_through_unchanged(self):
        stream = LabelDelayer(_sea(), delay=100)
        X, y = stream.take()
        X_raw, y_raw = _sea().take()
        np.testing.assert_array_equal(X, X_raw)
        np.testing.assert_array_equal(y, y_raw)

    def test_label_arrival_is_shifted_by_the_delay(self):
        stream = LabelDelayer(_sea(), delay=25)
        arrival = stream.label_arrival(10, 5)
        np.testing.assert_array_equal(arrival, [35, 36, 37, 38, 39])


class TestLabelMasker:
    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            LabelMasker(_sea(), rate=1.5)
        with pytest.raises(ValueError, match="end"):
            LabelMasker(_sea(), rate=0.5, start=0.8, end=0.2)

    def test_rate_zero_keeps_every_label(self):
        stream = LabelMasker(_sea(), rate=0.0, seed=3)
        assert stream.label_available(0, N).all()

    def test_rate_one_masks_exactly_the_window(self):
        stream = LabelMasker(_sea(), rate=1.0, start=0.25, end=0.75, seed=3)
        available = stream.label_available(0, N)
        lo, hi = N // 4, 3 * N // 4
        assert not available[lo:hi].any()
        assert available[:lo].all()
        assert available[hi:].all()

    def test_mask_rate_is_roughly_respected(self):
        stream = LabelMasker(_sea(), rate=0.3, seed=3)
        available = stream.label_available(0, N)
        assert 0.6 < available.mean() < 0.8

    def test_mask_is_chunk_invariant(self):
        stream = LabelMasker(_sea(), rate=0.4, seed=3)
        full = stream.label_available(0, N)
        pieces = np.concatenate(
            [stream.label_available(0, 700), stream.label_available(700, N - 700)]
        )
        np.testing.assert_array_equal(full, pieces)

    @settings(max_examples=40, deadline=None)
    @given(
        cuts=st.lists(st.integers(1, N - 1), max_size=12, unique=True),
        revisit=st.integers(0, N - 8),
    )
    def test_cached_block_mask_is_chunk_invariant(self, cuts, revisit):
        # Steps of any size reuse the last block's draws; the mask must not
        # depend on the schedule, nor on a jump back into an earlier block.
        reference = LabelMasker(_sea(), rate=0.4, start=0.1, seed=3)
        full = reference.label_available(0, N)
        stream = LabelMasker(_sea(), rate=0.4, start=0.1, seed=3)
        bounds = [0, *sorted(cuts), N]
        pieces = [
            stream.label_available(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), full)
        np.testing.assert_array_equal(
            stream.label_available(revisit, 8), full[revisit : revisit + 8]
        )

    def test_cached_block_mask_survives_a_persistence_round_trip(self):
        from repro.persistence import from_state, to_state

        stream = LabelMasker(_sea(), rate=0.4, seed=3)
        head = [stream.label_available(start, 8) for start in range(0, 80, 8)]
        state = to_state(stream)
        assert "_withheld_cache" not in json.dumps(state)
        clone = from_state(state)
        full = LabelMasker(_sea(), rate=0.4, seed=3).label_available(0, N)
        np.testing.assert_array_equal(
            np.concatenate(head + [clone.label_available(80, N - 80)]), full
        )
        np.testing.assert_array_equal(stream.label_available(80, N - 80), full[80:])

    def test_data_passes_through_unchanged(self):
        stream = LabelMasker(_sea(), rate=0.9, seed=3)
        X, y = stream.take()
        X_raw, y_raw = _sea().take()
        np.testing.assert_array_equal(X, X_raw)
        np.testing.assert_array_equal(y, y_raw)


class TestLabelRealism:
    def test_plain_stream_is_inactive(self):
        realism = label_realism(_sea())
        assert not realism.active
        assert realism.delay == 0
        assert realism.maskers == ()
        np.testing.assert_array_equal(realism.arrival(5, 3), [5, 6, 7])
        assert realism.available(0, 50).all()

    def test_nested_wrappers_accumulate(self):
        stream = LabelMasker(
            LabelDelayer(LabelDelayer(_sea(), delay=10), delay=5),
            rate=1.0,
            start=0.0,
            end=0.5,
            seed=3,
        )
        realism = label_realism(stream)
        assert realism.active
        assert realism.delay == 15
        assert len(realism.maskers) == 1
        np.testing.assert_array_equal(realism.arrival(0, 3), [15, 16, 17])
        available = realism.available(0, N)
        assert not available[: N // 2].any()
        assert available[N // 2 :].all()

    def test_multiple_maskers_intersect(self):
        stream = LabelMasker(
            LabelMasker(_sea(), rate=1.0, start=0.0, end=0.4, seed=1),
            rate=1.0,
            start=0.6,
            end=1.0,
            seed=2,
        )
        available = label_realism(stream).available(0, N)
        assert not available[: int(0.4 * N)].any()
        assert available[int(0.4 * N) : int(0.6 * N)].all()
        assert not available[int(0.6 * N) :].any()

    def test_realism_survives_a_persistence_round_trip(self):
        from repro.persistence import from_state, to_state

        stream = LabelMasker(LabelDelayer(_sea(), delay=40), rate=0.5, seed=9)
        clone = from_state(to_state(stream))
        original = label_realism(stream)
        restored = label_realism(clone)
        assert restored.delay == original.delay
        np.testing.assert_array_equal(
            restored.available(0, N), original.available(0, N)
        )
