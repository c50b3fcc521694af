"""Packing-based complexity estimation and its consistency checks."""

from .layers import (
    ComplexityReport,
    LayerDecomposition,
    SandwichVerdict,
    estimate_sc,
    integral_estimate,
    layer_decomposition,
    report_to_json,
    sandwich_check,
)
from .packing import (
    LemmaSuiteVerdict,
    greedy_packing,
    lemma_consistency_trials,
)

__all__ = [
    "ComplexityReport",
    "LayerDecomposition",
    "LemmaSuiteVerdict",
    "SandwichVerdict",
    "estimate_sc",
    "greedy_packing",
    "integral_estimate",
    "layer_decomposition",
    "lemma_consistency_trials",
    "report_to_json",
    "sandwich_check",
]
