"""Span recording from outside the program, for the traced benchmark run.

The traced run attributes wall time to the package's layers without any span
inside ``src/``: :func:`instrument` replaces a fixed list of public functions
and methods with thin wrappers that record one span per call, and puts the
originals back afterwards.  Wrappers are installed on classes and modules,
never on instances, so an instrumented model still serialises: the persisted
state of an object is its instance ``__dict__``, which the wrappers never
touch.

Each span records its name, start, end and parent.  A layer's *self time*
is its span's duration minus the time its children cover (see
:func:`self_times`); the traced wall time minus the sum of every self time is
the time no layer accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections.abc import Callable, Iterator, Sequence
from time import perf_counter

#: Layer spans, in report order: span name -> the public callables it times,
#: as ``(module, attribute path)``.  A class attribute path wraps the method
#: on that class only; subclasses that inherit it are timed through it, and
#: subclasses that override it are listed separately.  A call into a span
#: already open under the same name (``super()`` chains, a wrapper stream
#: delegating to its source, ``update_many`` feeding ``update``) is folded
#: into the outer span, so ``calls`` counts entries into the layer.
LAYER_SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "stream.next_sample": (
        ("repro.streams.base", "Stream.next_sample"),
        ("repro.streams.preprocessing", "NormalizedStream.next_sample"),
    ),
    "evaluation.step": (
        ("repro.evaluation.prequential", "PrequentialSession.step"),
    ),
    "evaluation.metrics": tuple(
        ("repro.evaluation.metrics", f"ConfusionMatrix.{method}")
        for method in (
            "__init__", "update", "accuracy", "per_class_precision",
            "per_class_recall", "per_class_f1", "precision", "recall", "f1",
            "kappa", "kappa_m",
        )
    ) + (
        # The evaluator calls the function through its own module global.
        ("repro.evaluation.prequential", "kappa_temporal_score"),
    ),
    "model.complexity": (
        ("repro.core.dmt", "DynamicModelTree.complexity"),
        ("repro.trees.vfdt", "HoeffdingTreeClassifier.complexity"),
        ("repro.trees.hat", "HoeffdingAdaptiveTreeClassifier.complexity"),
        ("repro.trees.efdt", "ExtremelyFastDecisionTreeClassifier.complexity"),
        ("repro.trees.fimtdd", "FIMTDDClassifier.complexity"),
        ("repro.ensembles.adaptive_random_forest",
         "AdaptiveRandomForestClassifier.complexity"),
        ("repro.ensembles.bagging", "OzaBaggingClassifier.complexity"),
    ),
    "dmt.partial_fit": (("repro.core.dmt", "DynamicModelTree.partial_fit"),),
    "dmt.predict_proba": (("repro.core.dmt", "DynamicModelTree.predict_proba"),),
    "trees.partial_fit": (
        ("repro.trees.vfdt", "HoeffdingTreeClassifier.partial_fit"),
        ("repro.trees.fimtdd", "FIMTDDClassifier.partial_fit"),
    ),
    "trees.predict_proba": (
        ("repro.trees.vfdt", "HoeffdingTreeClassifier.predict_proba"),
        ("repro.trees.fimtdd", "FIMTDDClassifier.predict_proba"),
    ),
    "drift.adwin.update": (
        ("repro.drift.adwin", "ADWIN.update"),
        ("repro.drift.adwin", "ADWIN.update_many"),
    ),
    "ensembles.partial_fit": (
        ("repro.ensembles.adaptive_random_forest",
         "AdaptiveRandomForestClassifier.partial_fit"),
        ("repro.ensembles.bagging", "OzaBaggingClassifier.partial_fit"),
        ("repro.ensembles.leveraging_bagging",
         "LeveragingBaggingClassifier.partial_fit"),
    ),
    "ensembles.predict_proba": (
        ("repro.ensembles.adaptive_random_forest",
         "AdaptiveRandomForestClassifier.predict_proba"),
        ("repro.ensembles.bagging", "OzaBaggingClassifier.predict_proba"),
    ),
    "persistence.save_model": (
        ("repro.persistence.serialize", "save_model"),
        ("repro.persistence", "save_model"),
        ("repro", "save_model"),
    ),
    "persistence.load_model": (
        ("repro.persistence.serialize", "load_model"),
        ("repro.persistence", "load_model"),
        ("repro", "load_model"),
    ),
    "serving.score": (
        ("repro.serving.service", "ScoringService.predict_proba"),
        ("repro.serving.service", "ScoringService.predict"),
    ),
    "serving.process_batch": (
        ("repro.serving.deployment", "ChampionChallenger.process_batch"),
    ),
    "serving.registry.register": (
        ("repro.serving.registry", "ModelRegistry.register"),
    ),
}


class SpanRecorder:
    """Flat in-memory span log: parallel lists indexed by span id.

    Spans are recorded only while :attr:`active` is true, so the benchmark
    can call into the program for its own checks without those calls
    counting as workload time.  ``parent`` is ``-1`` for a root span.
    """

    def __init__(self, span_names: Sequence[str] = tuple(LAYER_SPANS)) -> None:
        self.span_names = tuple(span_names)
        self.active = False
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._open = -1
        self._open_name = -1
        #: Counts recorded next to the spans (rows, bytes), keyed by name.
        self.counts: dict[str, int] = {}

    def add_count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, name_id: int, function: Callable) -> Callable:
        """Return ``function`` timed as a span named ``span_names[name_id]``."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.active or recorder._open_name == name_id:
                return function(*args, **kwargs)
            parent, parent_name = recorder._open, recorder._open_name
            span = len(recorder.name)
            recorder.name.append(name_id)
            recorder.parent.append(parent)
            recorder.end.append(0.0)
            recorder._open, recorder._open_name = span, name_id
            recorder.start.append(perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                recorder.end[span] = perf_counter()
                recorder._open, recorder._open_name = parent, parent_name

        return traced

    def spans(self) -> list[tuple[str, float, float, int]]:
        """Every closed span as ``(name, start, end, parent)``."""
        return [
            (self.span_names[n], s, e, p)
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]


def self_times(
    spans: Sequence[tuple[str, float, float, int]],
) -> dict[str, tuple[float, int]]:
    """Per-name ``(self seconds, calls)`` of a span list.

    ``spans[i] = (name, start, end, parent)`` with ``parent`` an index into
    ``spans`` or ``-1``.  A span's self time is its duration minus the union
    of its children's intervals, clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, tuple[float, int]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            low, high = max(child_start, cursor), min(child_end, end)
            if high > low:
                covered += high - low
                cursor = high
        seconds, calls = totals.get(name, (0.0, 0))
        totals[name] = (seconds + (end - start) - covered, calls + 1)
    return totals


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every :data:`LAYER_SPANS` wrapper; restore the originals on exit.

    Besides the spans, ``persistence.bytes`` counts the size of every file
    written through ``save_model``.
    """
    installed: list[tuple[object, str, object]] = []
    try:
        for name_id, span_name in enumerate(recorder.span_names):
            for module_name, path in LAYER_SPANS[span_name]:
                owner, attribute = _resolve(module_name, path)
                original = vars(owner)[attribute]
                function = recorder.wrap(name_id, original)
                if span_name == "persistence.save_model":
                    function = _counting_save(recorder, function)
                setattr(owner, attribute, function)
                installed.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)


def _counting_save(recorder: SpanRecorder, save_model: Callable) -> Callable:
    def save(model: object, path: str | os.PathLike[str]) -> str:
        written = save_model(model, path)
        if recorder.active:
            recorder.add_count("persistence.bytes", os.path.getsize(written))
        return written

    return save
