"""End-to-end benchmark of the repository: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload dmt-sea --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run is a sequence of episodes (see ``workloads.py``), each in a fresh
interpreter: two passes over the input seeds derived from ``--seed``, as
many seeds as two passes fit into ``--seconds`` on the reference machine
(``EPISODE_S``).  The second pass must reproduce the first exactly.  Every
time is reported at the reference speed of ``speed.py``.  Quality metrics
are averaged over the derived seeds; throughputs are totals over the run,
latencies percentiles over the timed operations of the run, each taken
from the better of its two runs, and set-up time and memory medians over
episodes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each derived
seed once untraced and once with the layer wrappers of ``spans.py`` and
prints the per-layer metrics: mean self time and calls per episode of every
layer span, the traced wall time they add up to, and the tracing overhead.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit code 0 means the run completed, whether or not every check passed;
it is 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
from stats import percentile, tail_level  # noqa: E402

WORKLOAD_NAMES = ("dmt-sea", "hat-storm-delayed", "serve-swap", "arf-agrawal")
#: Seconds one episode takes on the reference machine, start-up included.
#: A run of ``--seconds`` covers as many input seeds as two passes fit.
EPISODE_S = {
    "dmt-sea": 1.55, "hat-storm-delayed": 1.45, "serve-swap": 1.6, "arf-agrawal": 1.45,
}
EPISODE_TIMEOUT_S = 120
WORKDIR = os.path.join(ROOT, ".e2ebench_work")

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "score_p50_ms": "ms",
    "score_p99_ms": "ms",
    "score_rows_per_s": "rows/s",
    "f1_mean": "ratio",
    "n_splits_mean": "count",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
LAYER_COUNTS = (
    "stream.rows", "persistence.bytes", "serving.rows",
    "serving.promotions", "serving.drifts",
)


def derived_seed(seed: int, index: int) -> int:
    return seed * 1_000 + index


def seeds_per_run(workload: str, seconds: float) -> int:
    """Input seeds of one run: two passes over them take about ``seconds``."""
    return max(2, int(seconds / (2 * EPISODE_S[workload])))


# --------------------------------------------------------------------------
# Episodes
# --------------------------------------------------------------------------
class Run:
    """Episodes of one workload and the checks across them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.episodes: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        #: Observations that are not failures, once per derived seed.
        self.notes: dict[str, None] = {}

    def episode(self, index: int, trace: bool, reference: bool = False) -> None:
        """Run one episode in a fresh interpreter and record what it reports."""
        seed = derived_seed(self.seed, index)
        workdir = os.path.join(WORKDIR, f"{os.getpid()}-{len(self.episodes)}")
        command = [
            sys.executable, os.path.join(HERE, "episode.py"),
            "--workload", self.workload, "--seed", str(seed),
            # The models' random_state is fixed configuration, like the rest
            # of the model settings: only the inputs change with --seed.
            "--model-seed", str(index + 1),
            "--trace", str(int(trace)), "--workdir", workdir,
        ]
        if reference:
            command.append("--reference")
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_TELEMETRY")
        }
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        before = speed.slowdown()
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            completed = subprocess.run(
                command, capture_output=True, text=True, env=env, cwd=ROOT,
                timeout=EPISODE_TIMEOUT_S,
            )
            lines = completed.stdout.strip().splitlines()
            payload = json.loads(lines[-1]) if lines else {
                "error": completed.stderr[-2000:] or "episode printed nothing"
            }
        except subprocess.TimeoutExpired:
            payload = {"error": f"episode exceeded {EPISODE_TIMEOUT_S} s"}
        except ValueError:
            payload = {"error": f"episode printed no JSON: {lines[-1][:200]}"}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if "error" in payload:
            self.attempted += 1
            self.failures.append(f"seed {seed}: {payload['error'].strip()}")
            return
        payload.update(
            index=index, traced=trace,
            setup_s=payload["setup_end"] - spawned - payload["inputs_s"],
            setup_slowdown=(before + speed.slowdown()) / 2,
        )
        self.episodes.append(payload)
        self.attempted += payload["operations"]
        self.failures.extend(
            f"seed {seed}: {what}" for what in payload["failed_checks"]
        )
        self.notes.update(
            dict.fromkeys(f"seed {seed}: {note}" for note in payload["notes"])
        )

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def check_repeats(self) -> None:
        """Every episode of one derived seed has the identical summary."""
        first: dict[int, dict] = {}
        for episode in self.episodes:
            summary = first.setdefault(episode["index"], episode["summary"])
            self.expect(
                episode["summary"] == summary,
                f"seed {derived_seed(self.seed, episode['index'])}: summary of a "
                f"{'traced' if episode['traced'] else 'untraced'} episode "
                "differs from the first episode of the same seed",
            )

    def by_kind(self, traced: bool) -> list[dict]:
        return [e for e in self.episodes if e["traced"] == traced]


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Two episodes of every derived seed.

    Untraced, a first pass runs each seed once and a second pass repeats
    them in the same order; traced, every derived seed runs once untraced
    and once traced, alternating which goes first.
    """
    seeds = seeds_per_run(run.workload, seconds)
    if trace:
        for index in range(seeds):
            kinds = (False, True) if index % 2 == 0 else (True, False)
            for traced in kinds:
                run.episode(index, traced, reference=index == 0 and not traced)
    else:
        for repeat in range(2):
            for index in range(seeds):
                # The first episode also checks a checkpointing workload
                # against an uninterrupted session.
                run.episode(index, False, reference=index == 0 and repeat == 0)
    run.check_repeats()


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------
def _tail(values: list[float]) -> float:
    """p99, or the highest level below it that has ten samples beyond it."""
    return percentile(values, min(99.0, tail_level(len(values))))


def best_of_repeats(episodes: list[dict], key: str) -> list[float]:
    """Each operation's time: the lower of its runs in the episodes of its seed.

    The episodes of one derived seed perform the same operations in the same
    order (``check_repeats`` holds them to it), so the i-th time of each is
    the same work; the lower one drops an interruption of the shared host
    that hit only one of them, which would otherwise set the tail.
    """
    runs: dict[int, list[list[float]]] = {}
    for episode in episodes:
        runs.setdefault(episode["index"], []).append(episode[key])
    return [min(times) for seed_runs in runs.values() for times in zip(*seed_runs)]


def _timings(episodes: list[dict]) -> dict[str, float]:
    """Time metrics; the episodes report their times at the reference speed."""
    steps = best_of_repeats(episodes, "step_s")
    scores = best_of_repeats(episodes, "score_s")
    return {
        "setup_s": statistics.median(
            e["setup_s"] / e["setup_slowdown"] for e in episodes
        ),
        # Throughputs are totals over every episode of the run.
        "rows_per_s": sum(e["loop_rows"] for e in episodes)
        / sum(e["loop_s"] for e in episodes),
        "step_p50_ms": 1e3 * percentile(steps, 50.0),
        "step_p99_ms": 1e3 * _tail(steps),
        "score_p50_ms": 1e3 * percentile(scores, 50.0),
        "score_p99_ms": 1e3 * _tail(scores),
        "score_rows_per_s": sum(e["score_rows"] for e in episodes)
        / sum(s for e in episodes for s in e["score_s"]),
    }


def end_to_end(run: Run) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics and one report line per metric."""
    episodes = run.episodes
    if not episodes:
        return {}, []
    n_steps = len(best_of_repeats(episodes, "step_s"))
    n_scores = len(best_of_repeats(episodes, "score_s"))
    per_seed = {e["index"]: e for e in episodes}
    values = {
        **_timings(episodes),
        "f1_mean": statistics.fmean(e["f1_mean"] for e in per_seed.values()),
        "n_splits_mean": statistics.fmean(
            e["n_splits_mean"] for e in per_seed.values()
        ),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in episodes),
        "ok_ratio": 1.0 - len(run.failures) / max(run.attempted, 1),
    }
    n = len(episodes)
    basis = {
        "setup_s": f"median of {n} fresh interpreters, measured "
        f"{statistics.median(e['setup_s'] for e in episodes):.6g}",
        "rows_per_s": f"total over {n} episodes",
        "step_p50_ms": f"p50 of {n_steps} steps, each the better of its runs",
        "step_p99_ms": f"p{min(99.0, tail_level(n_steps)):g} of {n_steps} steps, "
        "each the better of its runs",
        "score_p50_ms": f"p50 of {n_scores} requests, each the better of its runs",
        "score_p99_ms": f"p{min(99.0, tail_level(n_scores)):g} of {n_scores} "
        "requests, each the better of its runs",
        "score_rows_per_s": f"total over {n} episodes",
        "f1_mean": f"mean of {len(per_seed)} seeds",
        "n_splits_mean": f"mean of {len(per_seed)} seeds",
        "peak_rss_mb": f"median of {n} episodes",
        "ok_ratio": f"fail_ratio = {len(run.failures)}/{run.attempted}",
    }
    lines = [
        f"  {name:<18} {values[name]:>14.6g} {END_TO_END_UNITS[name]:<7} {basis[name]}"
        for name in END_TO_END_UNITS
    ]
    return values, lines


def per_layer(run: Run) -> tuple[dict[str, float], list[str], dict[str, str]]:
    """Per-layer metrics of a traced run, their report lines and units."""
    traced, untraced = run.by_kind(True), run.by_kind(False)
    if not traced or not untraced:
        return {}, [], {}
    for episode in traced:
        twin = [e for e in untraced if e["index"] == episode["index"]]
        run.expect(
            bool(twin) and twin[0]["counts"].items() <= episode["counts"].items(),
            f"seed {derived_seed(run.seed, episode['index'])}: counts differ "
            "between the traced and the untraced episode",
        )
    n = len(traced)
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    for span in traced[0]["spans"]:
        values[f"{span}.self_s"] = (
            sum(e["spans"][span][0] / e["slowdown"] for e in traced) / n
        )
        values[f"{span}.calls"] = sum(e["spans"][span][1] for e in traced) / n
        units[f"{span}.self_s"], units[f"{span}.calls"] = "s", "count"
    for name in LAYER_COUNTS:
        values[name] = sum(e["counts"].get(name, 0) for e in traced) / n
        units[name] = "bytes" if name == "persistence.bytes" else "count"
    wall = sum(e["wall_s"] / e["slowdown"] for e in traced) / n
    attributed = sum(v for k, v in values.items() if k.endswith(".self_s"))
    paired = {e["index"] for e in traced} & {e["index"] for e in untraced}
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - attributed
    values["trace.overhead_frac"] = (
        sum(e["wall_s"] / e["slowdown"] for e in traced if e["index"] in paired)
        / sum(e["wall_s"] / e["slowdown"] for e in untraced if e["index"] in paired)
        - 1.0
    )
    units.update({
        "trace.wall_s": "s", "trace.unattributed_s": "s",
        "trace.overhead_frac": "ratio",
    })
    lines = []
    for name, value in values.items():
        share = (
            f"{100 * value / wall:6.2f}% of traced wall"
            if units[name] == "s" and name != "trace.wall_s" else ""
        )
        lines.append(f"  {name:<34} {value:>14.6g} {units[name]:<6} {share}")
    return values, lines, units


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------
def environment() -> dict[str, object]:
    """The machine and the code every number of this run was measured on."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_git(),
        "src_sha256": _tree_digest(os.path.join(ROOT, "src")),
        "threads": 1,
    }


def _git() -> dict[str, object]:
    # Stop git at the checkout: a checkout that is not a repository must not
    # pick up a repository it happens to sit in.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def _tree_digest(directory: str) -> str:
    """SHA-256 over the relative paths and contents of every ``.py`` file."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, directory).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------
def bench(workload: str, seed: int, seconds: float, trace: bool):
    run = Run(workload, seed)
    measure(run, seconds, trace)
    if trace:
        values, lines, units = per_layer(run)
    else:
        values, lines = end_to_end(run)
        units = END_TO_END_UNITS
    telemetry = "on" if any(e["telemetry"] for e in run.episodes) else "off"
    slowdown = statistics.median(e["slowdown"] for e in run.episodes or [{"slowdown": 1.0}])
    print(
        f"{workload} (seed {seed}, {len(run.episodes)} episodes, trace {int(trace)}, "
        f"program telemetry {telemetry}, median slowdown {slowdown:.4f}: times "
        "are scaled to the reference speed)"
    )
    for line in lines:
        print(line)
    for note in run.notes:
        print(f"  NOTE: {note}")
    for failure in run.failures:
        print(f"  FAILED: {failure.splitlines()[-1]}")
    return run, values, units


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    env = environment()
    # One core for the probe and every episode, which inherit the affinity,
    # so the speed factor is measured where the work runs.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("environment:", json.dumps(env, sort_keys=True))

    attempted = failed = 0
    metrics: dict[str, dict[str, object]] = {}
    complete = True
    try:
        for workload in workloads:
            run, values, units = bench(workload, args.seed, args.seconds, bool(args.trace))
            attempted += run.attempted
            failed += len(run.failures)
            complete = complete and bool(values)
            prefix = f"{workload}/" if args.workload == "all" else ""
            for name, value in values.items():
                metrics[prefix + name] = {"value": value, "unit": units[name]}
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps({
        "correct": complete and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
