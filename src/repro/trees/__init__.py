"""Incremental decision-tree baselines and their shared substrate.

Contains the Hoeffding-tree family evaluated by the paper -- VFDT with
majority-class and Naive-Bayes-adaptive leaves, the Hoeffding Adaptive Tree
(HT-Ada) and the Extremely Fast Decision Tree (EFDT) -- plus the FIMT-DD
model tree adapted to classification, and the attribute observer store /
split criteria they are built on.
"""

from repro.trees.vfdt import HoeffdingTreeClassifier
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.efdt import ExtremelyFastDecisionTreeClassifier
from repro.trees.fimtdd import FIMTDDClassifier
from repro.trees.hoeffding import hoeffding_bound
from repro.trees.criteria import (
    InfoGainCriterion,
    GiniCriterion,
    VarianceReductionCriterion,
)
from repro.trees.observers import LeafObservers, SplitSuggestion

__all__ = [
    "HoeffdingTreeClassifier",
    "HoeffdingAdaptiveTreeClassifier",
    "ExtremelyFastDecisionTreeClassifier",
    "FIMTDDClassifier",
    "hoeffding_bound",
    "InfoGainCriterion",
    "GiniCriterion",
    "VarianceReductionCriterion",
    "LeafObservers",
    "SplitSuggestion",
]
