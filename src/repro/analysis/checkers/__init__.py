"""The project-specific checker plugins of repro-lint."""

from __future__ import annotations

from repro.analysis.checkers.copydiscipline import CopyDisciplineChecker
from repro.analysis.checkers.locking import LockDisciplineChecker
from repro.analysis.checkers.metric_names import MetricNamingChecker
from repro.analysis.checkers.persistence import PersistenceChecker
from repro.analysis.checkers.purity import KernelPurityChecker
from repro.analysis.checkers.rng import RngDisciplineChecker
from repro.analysis.checkers.telemetry_guard import TelemetryGuardChecker
from repro.analysis.checkers.wallclock import WallClockChecker

__all__ = [
    "CopyDisciplineChecker",
    "KernelPurityChecker",
    "LockDisciplineChecker",
    "MetricNamingChecker",
    "PersistenceChecker",
    "RngDisciplineChecker",
    "TelemetryGuardChecker",
    "WallClockChecker",
]
