"""Certified zeroth-order global optimization of Lipschitz functions.

The package maximises black-box functions with a known Lipschitz bound
and, unlike plain global optimizers, emits after every query a
certificate: a number guaranteed to dominate the recommendation's
distance from the true maximum.  Around that sit packing-based
estimators of how many queries certification must cost, and adversarial
audits that demonstrate the cost is real by constructing
indistinguishable objectives.
"""

from .adversary import AuditReport, audit_certified_run, audit_to_json
from .complexity import (
    ComplexityReport,
    LayerDecomposition,
    LemmaSuiteVerdict,
    SandwichVerdict,
    estimate_sc,
    greedy_packing,
    integral_estimate,
    layer_decomposition,
    lemma_consistency_trials,
    report_to_json,
    sandwich_check,
)
from .core import (
    EUCLIDEAN,
    L1,
    NOT_REACHED,
    SUP,
    Ball,
    Box,
    CertificateCheck,
    ComplexityScale,
    Norm,
    RunTrace,
    TestFunction,
    certificate_validity,
    convert_lip_bound,
    diameter,
    midpoint_grid,
    read_trace,
    recommendations_consistent,
    sigma_from_trace,
    trace_from_json,
    trace_to_json,
    write_trace,
    zeta_from_trace,
)
from .optimizers import (
    CandidateSet,
    Envelope1D,
    candidates_for,
    cdoo_run,
    ncdoo_run,
    ps_run_1d,
    ps_run_grid,
)
from .partition import (
    AssumptionCheck,
    BisectionPartition,
    bisection_setup,
    verify_assumptions,
)
from .cli import LABELS, default_algorithm, get_function, registry

__version__ = "0.1.0"

__all__ = [
    "AssumptionCheck",
    "AuditReport",
    "Ball",
    "BisectionPartition",
    "Box",
    "CandidateSet",
    "CertificateCheck",
    "ComplexityReport",
    "ComplexityScale",
    "EUCLIDEAN",
    "Envelope1D",
    "L1",
    "LABELS",
    "LayerDecomposition",
    "LemmaSuiteVerdict",
    "NOT_REACHED",
    "Norm",
    "RunTrace",
    "SUP",
    "SandwichVerdict",
    "TestFunction",
    "audit_certified_run",
    "audit_to_json",
    "bisection_setup",
    "candidates_for",
    "cdoo_run",
    "certificate_validity",
    "convert_lip_bound",
    "default_algorithm",
    "diameter",
    "estimate_sc",
    "get_function",
    "greedy_packing",
    "integral_estimate",
    "layer_decomposition",
    "lemma_consistency_trials",
    "midpoint_grid",
    "ncdoo_run",
    "ps_run_1d",
    "ps_run_grid",
    "read_trace",
    "recommendations_consistent",
    "registry",
    "report_to_json",
    "sandwich_check",
    "sigma_from_trace",
    "trace_from_json",
    "trace_to_json",
    "verify_assumptions",
    "write_trace",
    "zeta_from_trace",
]
