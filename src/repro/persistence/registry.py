"""Registry mapping serialized class names to constructors.

Serialized state never stores import paths or pickles code: every class that
may appear in a model file has to be registered here under a stable name.
All classes shipped with :mod:`repro` are registered on import of
:mod:`repro.persistence`; downstream code can add its own components with
:func:`register` (usable as a decorator) before saving or loading.
"""

from __future__ import annotations

from typing import Callable, overload

_CLASSES: dict[str, type] = {}
_NAMES: dict[type, str] = {}
_defaults_loaded = False


@overload
def register(cls: type, *, name: str | None = None) -> type: ...


@overload
def register(
    cls: None = None, *, name: str | None = None
) -> Callable[[type], type]: ...


def register(
    cls: type | None = None, *, name: str | None = None
) -> type | Callable[[type], type]:
    """Register ``cls`` under ``name`` (default: its ``__qualname__``).

    Usable directly (``register(MyClass)``) or as a decorator
    (``@register`` / ``@register(name="alias")``).  Re-registering the same
    class under the same name is a no-op; name collisions raise.
    """

    def _register(klass: type) -> type:
        key = name or klass.__qualname__
        existing = _CLASSES.get(key)
        if existing is not None and existing is not klass:
            raise ValueError(
                f"Serialization name {key!r} is already taken by "
                f"{existing.__module__}.{existing.__qualname__}."
            )
        _CLASSES[key] = klass
        _NAMES.setdefault(klass, key)
        return klass

    if cls is None:
        return _register
    return _register(cls)


def registered_name(cls: type) -> str:
    """Stable serialization name of ``cls`` (raises ``KeyError`` if absent)."""
    ensure_default_registrations()
    return _NAMES[cls]


def resolve(name: str) -> type:
    """Class registered under ``name``."""
    ensure_default_registrations()
    try:
        return _CLASSES[name]
    except KeyError:
        raise KeyError(
            f"Unknown serialized class {name!r}. If the model file uses a "
            "custom component, register its class with "
            "repro.persistence.register() before loading."
        ) from None


def registered_classes() -> dict[str, type]:
    """Snapshot of the current name -> class mapping."""
    ensure_default_registrations()
    return dict(_CLASSES)


def ensure_default_registrations() -> None:
    """Register every serialisable class shipped with :mod:`repro`.

    Imports are local so that ``repro.base`` (imported by the model modules
    themselves) can depend on :mod:`repro.persistence` without a cycle.
    """
    global _defaults_loaded
    if _defaults_loaded:
        return

    from repro.core.candidates import CandidateManager, CandidateStatistics
    from repro.core.dmt import DynamicModelTree
    from repro.core.nodes import DMTNode
    from repro.drift.adwin import ADWIN, _BucketRow
    from repro.drift.ddm import DDM
    from repro.drift.eddm import EDDM
    from repro.drift.kswin import KSWIN
    from repro.drift.page_hinkley import PageHinkley
    from repro.ensembles.adaptive_random_forest import (
        AdaptiveRandomForestClassifier,
        _ForestMember,
    )
    from repro.ensembles.bagging import OzaBaggingClassifier
    from repro.ensembles.leveraging_bagging import LeveragingBaggingClassifier
    from repro.evaluation.metrics import ConfusionMatrix
    from repro.evaluation.prequential import PrequentialResult, PrequentialSession
    from repro.linear.glm import IncrementalGLM
    from repro.linear.naive_bayes import GaussianNaiveBayes
    from repro.trees.base import LeafNode, SplitNode
    from repro.trees.criteria import (
        GiniCriterion,
        InfoGainCriterion,
        VarianceReductionCriterion,
    )
    from repro.trees.efdt import EFDTSplitNode, ExtremelyFastDecisionTreeClassifier
    from repro.trees.fimtdd import FIMTDDClassifier, FIMTLeaf, FIMTSplitNode
    from repro.trees.hat import (
        AdaLeafNode,
        AdaSplitNode,
        HoeffdingAdaptiveTreeClassifier,
    )
    from repro.trees.observers import LeafObservers, SplitSuggestion
    from repro.trees.vfdt import HoeffdingTreeClassifier
    from repro.serving.service import ScoringStats, ScoringStatsArchive
    from repro.telemetry.metrics import Counter, Gauge, Histogram
    from repro.streams.base import ArrayStream
    from repro.streams.preprocessing import NormalizedStream, OnlineMinMaxScaler
    from repro.streams.realworld import SurrogateStream
    from repro.streams.scenarios import (
        DriftInjector,
        FeatureCorruptor,
        ImbalanceShifter,
        LabelDelayer,
        LabelMasker,
        LabelNoiser,
        LabelRealism,
        OscillatingDrift,
        ScenarioPipeline,
        SchemaShifter,
    )
    from repro.streams.synthetic import (
        AgrawalGenerator,
        ConceptDriftStream,
        HyperplaneGenerator,
        LEDGenerator,
        MixedGenerator,
        RandomRBFGenerator,
        SEAGenerator,
        SineGenerator,
        STAGGERGenerator,
        WaveformGenerator,
    )

    for cls in (
        # Classifiers (the public entry points of repro.__init__).
        DynamicModelTree,
        HoeffdingTreeClassifier,
        HoeffdingAdaptiveTreeClassifier,
        ExtremelyFastDecisionTreeClassifier,
        FIMTDDClassifier,
        OzaBaggingClassifier,
        LeveragingBaggingClassifier,
        AdaptiveRandomForestClassifier,
        # DMT internals.
        DMTNode,
        CandidateManager,
        CandidateStatistics,
        # Linear models.
        IncrementalGLM,
        GaussianNaiveBayes,
        # Hoeffding-family tree internals.
        LeafNode,
        SplitNode,
        AdaLeafNode,
        AdaSplitNode,
        EFDTSplitNode,
        FIMTLeaf,
        FIMTSplitNode,
        SplitSuggestion,
        LeafObservers,
        InfoGainCriterion,
        GiniCriterion,
        VarianceReductionCriterion,
        # Ensemble internals.
        _ForestMember,
        # Evaluation artefacts (experiment result store).
        ConfusionMatrix,
        PrequentialResult,
        PrequentialSession,
        # Serving metrics (histogram-backed stats survive hot restarts).
        ScoringStats,
        ScoringStatsArchive,
        Counter,
        Gauge,
        Histogram,
        # Drift detectors.
        ADWIN,
        _BucketRow,
        PageHinkley,
        DDM,
        EDDM,
        KSWIN,
        # Streams and scenario transforms (resumable grids, serving replay).
        ArrayStream,
        SEAGenerator,
        AgrawalGenerator,
        HyperplaneGenerator,
        RandomRBFGenerator,
        STAGGERGenerator,
        SineGenerator,
        MixedGenerator,
        LEDGenerator,
        WaveformGenerator,
        ConceptDriftStream,
        SurrogateStream,
        NormalizedStream,
        OnlineMinMaxScaler,
        DriftInjector,
        FeatureCorruptor,
        LabelNoiser,
        ImbalanceShifter,
        OscillatingDrift,
        SchemaShifter,
        LabelDelayer,
        LabelMasker,
        LabelRealism,
        ScenarioPipeline,
    ):
        register(cls)
    # Only mark the defaults as loaded once every registration succeeded, so
    # a transient import failure is retried (and surfaced) on the next call
    # instead of leaving the registry silently half-empty.
    _defaults_loaded = True
