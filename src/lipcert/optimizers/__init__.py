"""Query-efficient global maximisation with and without certificates."""

from .doo import cdoo_run, ncdoo_run
from .piyavskii import (
    CandidateSet,
    Envelope1D,
    candidates_for,
    ps_run_1d,
    ps_run_grid,
)


def _ncdoo(fn, eps, budget):
    # The plain search has no accuracy stop; it spends the whole budget.
    return ncdoo_run(fn, budget)


# Every algorithm by name, each run as ``runner(fn, eps, budget)``.
ALGORITHMS = {
    "cdoo": cdoo_run,
    "ncdoo": _ncdoo,
    "ps1d": ps_run_1d,
    "psgrid": ps_run_grid,
}
# The algorithms whose traces carry certificates.
CERTIFIED = tuple(name for name in ALGORITHMS if name != "ncdoo")

__all__ = [
    "ALGORITHMS",
    "CERTIFIED",
    "CandidateSet",
    "Envelope1D",
    "candidates_for",
    "cdoo_run",
    "ncdoo_run",
    "ps_run_1d",
    "ps_run_grid",
]
