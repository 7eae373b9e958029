"""Regeneration of the paper's tables (Tables I-VI).

Every builder takes an :class:`~repro.experiments.runner.ExperimentSuite`
(already run, or run lazily through :meth:`ExperimentSuite.get`) and returns
both a structured representation (list of dictionaries) and a formatted text
table, so benchmarks can print exactly the rows the paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import (
    DATASET_REGISTRY,
    MODEL_REGISTRY,
    get_dataset_spec,
)
from repro.experiments.runner import ExperimentSuite


def _format_table(headers: list[str], rows: list[list[str]], title: str) -> str:
    widths = [
        max(len(str(headers[col])), *(len(str(row[col])) for row in rows))
        for col in range(len(headers))
    ]
    lines = [title]
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Table I -- data-set inventory
# --------------------------------------------------------------------------
def table1_datasets(suite: ExperimentSuite | None = None) -> tuple[list[dict], str]:
    """Table I: the data sets, their shapes and drift types."""
    records = []
    for name in DATASET_REGISTRY:
        spec = get_dataset_spec(name)
        records.append(
            {
                "dataset": spec.display_name,
                "n_samples": spec.n_samples,
                "n_features": spec.n_features,
                "n_classes": spec.n_classes,
                "drift": spec.drift,
                "known_drift": spec.known_drift,
            }
        )
    rows = [
        [
            record["dataset"],
            f"{record['n_samples']:,}",
            record["n_features"],
            record["n_classes"],
            record["drift"],
        ]
        for record in records
    ]
    text = _format_table(
        ["Name", "#Samples", "#Features", "#Classes", "Drift"],
        rows,
        "Table I: Data sets",
    )
    return records, text


# --------------------------------------------------------------------------
# Tables II-V -- per-metric grids
# --------------------------------------------------------------------------
def _metric_table(
    suite: ExperimentSuite,
    mean_attr: str,
    std_attr: str,
    title: str,
    higher_is_better: bool,
    precision: int = 2,
) -> tuple[list[dict], str]:
    records = []
    dataset_keys = list(suite.dataset_names)
    model_keys = list(suite.model_names)
    for model_key in model_keys:
        row: dict = {"model": MODEL_REGISTRY[model_key].display_name}
        values = []
        for dataset_key in dataset_keys:
            result = suite.get(model_key, dataset_key)
            mean = getattr(result, mean_attr)
            std = getattr(result, std_attr)
            row[dataset_key] = (mean, std)
            values.append(mean)
        row["mean"] = float(np.mean(values)) if values else 0.0
        records.append(row)

    headers = ["Model"] + [
        get_dataset_spec(key).display_name for key in dataset_keys
    ] + ["Mean"]
    rows = []
    for record in records:
        cells = [record["model"]]
        for dataset_key in dataset_keys:
            mean, std = record[dataset_key]
            cells.append(f"{mean:.{precision}f} ± {std:.{precision}f}")
        cells.append(f"{record['mean']:.{precision}f}")
        rows.append(cells)
    direction = "higher is better" if higher_is_better else "lower is better"
    text = _format_table(headers, rows, f"{title} ({direction})")
    return records, text


def table2_f1(suite: ExperimentSuite) -> tuple[list[dict], str]:
    """Table II: prequential F1 measure (mean ± std) per model and data set."""
    return _metric_table(
        suite, "f1_mean", "f1_std", "Table II: F1 Measure", higher_is_better=True
    )


def table3_splits(suite: ExperimentSuite) -> tuple[list[dict], str]:
    """Table III: number of splits (mean ± std) per model and data set."""
    return _metric_table(
        suite,
        "n_splits_mean",
        "n_splits_std",
        "Table III: No. of Splits",
        higher_is_better=False,
        precision=1,
    )


def table4_parameters(suite: ExperimentSuite) -> tuple[list[dict], str]:
    """Table IV: number of parameters (mean ± std) per model and data set."""
    return _metric_table(
        suite,
        "n_parameters_mean",
        "n_parameters_std",
        "Table IV: No. of Parameters",
        higher_is_better=False,
        precision=0,
    )


def table5_time(suite: ExperimentSuite) -> tuple[list[dict], str]:
    """Table V: model time per iteration, predict + partial_fit (mean ± std s)."""
    records = []
    for model_key in suite.model_names:
        times = []
        for dataset_key in suite.dataset_names:
            result = suite.get(model_key, dataset_key)
            times.extend(result.time_trace)
        times = np.asarray(times, dtype=float)
        records.append(
            {
                "model": MODEL_REGISTRY[model_key].display_name,
                "time_mean": float(times.mean()) if times.size else 0.0,
                "time_std": float(times.std()) if times.size else 0.0,
            }
        )
    rows = [
        [record["model"], f"{record['time_mean']:.4f} ± {record['time_std']:.4f}"]
        for record in records
    ]
    text = _format_table(
        ["Model", "Seconds / iteration"],
        rows,
        "Table V: Computation Time in Seconds (lower is better)",
    )
    return records, text


# --------------------------------------------------------------------------
# Table VI -- qualitative summary
# --------------------------------------------------------------------------
def _scores_from_ranking(values: dict[str, float], higher_is_better: bool) -> dict[str, str]:
    """Map raw values to the paper's ++ / + / − / −− notation."""
    names = list(values)
    raw = np.array([values[name] for name in names], dtype=float)
    order = raw if higher_is_better else -raw
    best = names[int(np.argmax(order))]
    worst = names[int(np.argmin(order))]
    median = float(np.median(order))
    scores = {}
    for name, value in zip(names, order):
        if name == best:
            scores[name] = "++"
        elif name == worst:
            scores[name] = "--"
        elif value >= median:
            scores[name] = "+"
        else:
            scores[name] = "-"
    return scores


def table6_summary(
    suite: ExperimentSuite, standalone_only: bool = True
) -> tuple[list[dict], str]:
    """Table VI: qualitative ranking across the four evaluation categories."""
    model_keys = [
        key
        for key in suite.model_names
        if not standalone_only or MODEL_REGISTRY[key].group == "standalone"
    ]
    drift_datasets = [
        key
        for key in suite.dataset_names
        if get_dataset_spec(key).known_drift
    ]

    f1_overall: dict[str, float] = {}
    f1_drift: dict[str, float] = {}
    splits: dict[str, float] = {}
    times: dict[str, float] = {}
    for model_key in model_keys:
        f1_values, drift_values, split_values, time_values = [], [], [], []
        for dataset_key in suite.dataset_names:
            result = suite.get(model_key, dataset_key)
            f1_values.append(result.f1_mean)
            split_values.append(result.n_splits_mean)
            time_values.append(result.time_mean)
            if dataset_key in drift_datasets:
                drift_values.append(result.f1_mean)
        f1_overall[model_key] = float(np.mean(f1_values))
        f1_drift[model_key] = float(np.mean(drift_values)) if drift_values else 0.0
        splits[model_key] = float(np.mean(split_values))
        times[model_key] = float(np.mean(time_values))

    categories = {
        "Overall Pred. Performance": _scores_from_ranking(f1_overall, True),
        "Pred. Performance For Known Drift": _scores_from_ranking(f1_drift, True),
        "Complexity/Interpretability": _scores_from_ranking(splits, False),
        "Computational Efficiency": _scores_from_ranking(times, False),
    }

    records = []
    for model_key in model_keys:
        record = {"model": MODEL_REGISTRY[model_key].display_name}
        for category, scores in categories.items():
            record[category] = scores[model_key]
        record["_raw"] = {
            "f1_overall": f1_overall[model_key],
            "f1_drift": f1_drift[model_key],
            "splits": splits[model_key],
            "time": times[model_key],
        }
        records.append(record)

    headers = ["Model"] + list(categories)
    rows = [
        [record["model"]] + [record[category] for category in categories]
        for record in records
    ]
    text = _format_table(headers, rows, "Table VI: Experiment Summary")
    return records, text
