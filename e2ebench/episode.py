"""Run one benchmark episode in a fresh interpreter and print it as JSON.

Usage (normally started by ``run.py``, one process per episode)::

    python3 e2ebench/episode.py --workload dmt-sea --seed 7001 --model-seed 1 \
        --trace 0 --workdir .e2ebench_work/0 [--reference]

``--seed`` makes the inputs (stream, requests, labels); ``--model-seed`` is
the ``random_state`` of the models, part of the workload's configuration.

The episode reports when its set-up ended on the system-wide monotonic
clock, so ``run.py`` can measure set-up from the moment it started this
interpreter (numpy and ``repro`` imports included) to the first timed
operation; the time spent generating request inputs is reported separately
and excluded.  With ``--trace 1`` the layer wrappers of
:mod:`spans` are installed for the timed loop only and removed before the
final model is saved and loaded again as a check.  ``--reference`` also runs
an uninterrupted session after the timed part, for workloads that checkpoint
theirs, and checks that both end with the same summary.  The last line of standard output is one
JSON object.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--model-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--reference", action="store_true")
    return parser.parse_args(argv)


def run_episode(args: argparse.Namespace) -> dict[str, object]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import repro.persistence
    from spans import SpanRecorder, instrument, self_times
    from workloads import WORKLOADS, OpClock, Prequential, set_telemetry

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    spec = WORKLOADS[args.workload]
    inputs = spec.inputs(args.seed)
    generated = time.clock_gettime(time.CLOCK_MONOTONIC)
    set_telemetry(spec.telemetry)
    if isinstance(spec, Prequential):
        state = spec.build(args.seed, args.model_seed)
    else:
        state = spec.build(args.seed, args.model_seed, inputs)
    built = time.clock_gettime(time.CLOCK_MONOTONIC)

    recorder = SpanRecorder() if args.trace else None
    clock = OpClock(recorder)
    os.makedirs(args.workdir, exist_ok=True)
    with instrument(recorder) if recorder else contextlib.nullcontext():
        result = spec.run(state, inputs, clock, args.workdir)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payload: dict[str, object] = {
        "setup_end": built,
        "inputs_s": generated - imported,
        "wall_s": clock.total,
        "slowdown": clock.slowdown,
        "step_s": result.step_s,
        "score_s": result.score_s,
        "loop_rows": result.loop_rows,
        "loop_s": result.loop_s,
        "score_rows": result.score_rows,
        "f1_mean": result.f1_mean,
        "n_splits_mean": result.n_splits_mean,
        "summary": result.summary,
        "counts": result.counts,
        "operations": result.operations,
        "failed_checks": result.failed_checks,
        "notes": result.notes,
        "peak_rss_mb": rss_mb,
        "telemetry": spec.telemetry,
    }
    if recorder is not None:
        layers = self_times(recorder.spans())
        payload["spans"] = {
            name: list(layers.get(name, (0.0, 0))) for name in recorder.span_names
        }
        payload["counts"] = {**result.counts, **recorder.counts}
        # The wrappers are gone again: the traced model must still persist.
        path = os.path.join(args.workdir, "traced_model.json")
        repro.persistence.save_model(result.model, path)
        restored = repro.persistence.load_model(path)
        if not np.array_equal(
            result.model.predict_proba(result.probe),
            restored.predict_proba(result.probe),
        ):
            payload["failed_checks"].append("traced model did not round-trip")
    if args.reference:
        reference = spec.reference_summary(args.seed, args.model_seed)
        if reference is not None and reference != result.summary:
            payload["failed_checks"].append(
                "checkpointed summary differs from an uninterrupted session"
            )
    return payload


def main(argv: list[str]) -> int:
    args = _parse(argv)
    try:
        payload = run_episode(args)
    except Exception:  # reported to run.py, which counts the episode as failed
        payload = {"error": traceback.format_exc()}
    print(json.dumps(payload))
    return 1 if "error" in payload else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
