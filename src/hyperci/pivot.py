"""Baseline confidence intervals by pivoting the c.d.f.

L(x) is the smallest M whose upper tail P_M(X >= x) exceeds alpha1, U(x)
the largest M whose lower tail P_M(X <= x) exceeds alpha2. Both tails are
monotone in M, so single intervals can use binary search; full tables use
one quantile sweep over M instead. All tail comparisons are exact integer
tests against the threshold's integer ratio.
"""

from __future__ import annotations

from .core import Params, interval_weight, lower_quantile, support, weight_exceeds
from .invert import ConfidenceTable, Method


def _upper_tail_weight(M: int, x: int, p: Params) -> int:
    """Integer numerator of P_M(X >= x), summed from the cheaper end."""
    lo, hi = support(M, p)
    if x - lo <= hi - x + 1:
        return p.total_weight - interval_weight(M, lo, x - 1, p)
    return interval_weight(M, x, hi, p)


def _lower_tail_weight(M: int, x: int, p: Params) -> int:
    """Integer numerator of P_M(X <= x)."""
    return p.total_weight - _upper_tail_weight(M, x + 1, p)


def pivot_ci(x: int, p: Params, alpha1=None, alpha2=None, scan: bool = False) -> tuple:
    """Interval [L, U] for one observation; defaults to equal tails alpha/2.

    scan=True replaces the binary searches with linear scans, kept only for
    differential verification of the search bounds.
    """
    if not 0 <= x <= p.n:
        raise ValueError(f"x must be in [0, {p.n}], got {x}")
    if alpha1 is None and alpha2 is None:
        alpha1 = alpha2 = p.alpha / 2
    if alpha1 is None or alpha2 is None or alpha1 < 0 or alpha2 < 0:
        raise ValueError("alpha1 and alpha2 must both be given and nonnegative")
    if alpha1 + alpha2 != p.alpha:
        raise ValueError(
            f"alpha1 + alpha2 = {alpha1 + alpha2} must equal alpha = {p.alpha}"
        )

    def upper_tail_exceeds(M):
        return weight_exceeds(_upper_tail_weight(M, x, p), alpha1, p)

    def lower_tail_exceeds(M):
        return weight_exceeds(_lower_tail_weight(M, x, p), alpha2, p)

    if scan:
        lower = next(M for M in range(p.N + 1) if upper_tail_exceeds(M))
        upper = next(M for M in range(p.N, -1, -1) if lower_tail_exceeds(M))
        return (lower, upper)

    # P_M(X >= x) is nondecreasing in M and reaches 1 at M = N
    lo, hi = 0, p.N
    while lo < hi:
        mid = (lo + hi) // 2
        if upper_tail_exceeds(mid):
            hi = mid
        else:
            lo = mid + 1
    lower = lo

    # P_M(X <= x) is nonincreasing in M and equals 1 at M = 0
    lo, hi = 0, p.N
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if lower_tail_exceeds(mid):
            lo = mid
        else:
            hi = mid - 1
    return (lower, lo)


def pivot_table(p: Params) -> ConfidenceTable:
    """Equal-tail table for every x, via one pass of per-M tail quantiles.

    For each M the sweep finds the smallest x with P_M(X <= x) > alpha/2;
    those thresholds are nondecreasing in M, and merging them against x
    yields U(x) = max{M : threshold(M) <= x} and, by the M -> N-M
    reflection, L(x) = N - U(n-x). Rows agree with pivot_ci at every x.
    """
    half_alpha = p.alpha / 2
    N, n = p.N, p.n
    thresholds = []
    prev = 0
    for M in range(N + 1):
        x_t = lower_quantile(M, half_alpha, p)
        if x_t < prev:
            raise AssertionError("tail quantiles not monotone in M")
        prev = x_t
        thresholds.append(x_t)

    upper = [0] * (n + 1)
    m = 0
    for x in range(n + 1):
        while m < N and thresholds[m + 1] <= x:
            m += 1
        upper[x] = m
    lower = [N - upper[n - x] for x in range(n + 1)]
    return ConfidenceTable(p, Method.PIVOT, tuple(lower), tuple(upper))
