"""Exact, size-optimal confidence intervals for the hypergeometric parameter.

Given a population of N items, n of which are sampled without replacement,
and an observed count x of "special" items in the sample, this package
computes exact confidence intervals for the unknown number M of special
items in the population. The main construction inverts minimum-cardinality
acceptance intervals after shifting them to monotone endpoints and
symmetrizing; a pivotal-cdf baseline, coverage analysis, and an
exact-rational certification oracle round out the toolkit.

``import hyperci`` runs no submodule: each exported name loads its module
on first use (PEP 562) and is then cached here, so ``hyperci.Params``
loads only ``core``. Only the exports of ``certify`` and ``oracle`` load
the exact-rational checker.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "acceptance": ("AcceptanceFamily", "amo_half"),
        "certify": ("CertificationReport", "run_certification"),
        "core": ("Params", "interval_prob", "mode", "pmf", "support"),
        "inversion": (
            "ConfidenceTable", "Method", "acceptance_of", "coverage", "cstar_table",
            "invert", "table_from_csv", "table_to_csv", "total_size_diff",
        ),
        "monotonize": ("AdjustmentTrace", "adjust", "center_interval", "symmetrize"),
        "oracle": (
            "exact_coverage", "exact_interval_prob", "min_level_interval",
            "min_symmetric_total", "unimodal_peak",
        ),
        "pivot": ("pivot_ci", "pivot_table"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
