"""Exact, size-optimal confidence intervals for the hypergeometric parameter.

Given a population of N items, n of which are sampled without replacement,
and an observed count x of "special" items in the sample, this package
computes exact confidence intervals for the unknown number M of special
items in the population. The main construction inverts minimum-cardinality
acceptance intervals after shifting them to monotone endpoints and
symmetrizing; a pivotal-cdf baseline, coverage analysis, and an
exact-rational certification oracle round out the toolkit.
"""

from .acceptance import AcceptanceFamily, amo_half
from .certify import CertificationReport, run_certification
from .core import (
    Params,
    interval_prob,
    mode,
    pmf,
    support,
)
from .inversion import (
    ConfidenceTable,
    Method,
    acceptance_of,
    coverage,
    cstar_table,
    invert,
    table_from_csv,
    table_to_csv,
    total_size_diff,
)
from .monotonize import AdjustmentTrace, adjust, center_interval, symmetrize
from .oracle import (
    exact_coverage,
    exact_interval_prob,
    min_level_interval,
    min_symmetric_total,
    unimodal_peak,
)
from .pivot import pivot_ci, pivot_table

__version__ = "0.1.0"

__all__ = [
    "AcceptanceFamily",
    "AdjustmentTrace",
    "CertificationReport",
    "ConfidenceTable",
    "Method",
    "Params",
    "acceptance_of",
    "adjust",
    "amo_half",
    "center_interval",
    "coverage",
    "cstar_table",
    "exact_coverage",
    "exact_interval_prob",
    "interval_prob",
    "invert",
    "min_level_interval",
    "min_symmetric_total",
    "mode",
    "pivot_ci",
    "pivot_table",
    "pmf",
    "run_certification",
    "support",
    "symmetrize",
    "table_from_csv",
    "table_to_csv",
    "total_size_diff",
    "unimodal_peak",
]
