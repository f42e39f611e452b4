"""Baseline confidence intervals by pivoting the c.d.f.

The pivotal interval is equal-tailed. U(x) is the largest M with
P_M(X <= x) > alpha/2, one bisection since that tail is nonincreasing in
M; L(x) = N - U(n - x) by the pmf reflection w(M, x) = w(N - M, n - x).
A full table inverts the equal-tail acceptance intervals by the sweep
``invert`` runs. Tail comparisons are exact integer tests against alpha's
own integer ratio, halved exactly (``_half_alpha_bar``), for every float.
"""

from __future__ import annotations

from .core import Params, interval_weight, step_m, support, weight
from .inversion import ConfidenceTable, Method, _inverse


def _lower_tail_weight(M: int, x: int, p: Params) -> int:
    """Integer numerator of P_M(X <= x), summed from the cheaper end."""
    lo, hi = support(M, p)
    if x - lo < hi - x:
        return interval_weight(M, lo, x, p)
    return p.total_weight - interval_weight(M, x + 1, hi, p)


def _half_alpha_bar(p: Params) -> tuple:
    """(bar, den): a tail weight T has T / C(N, n) > alpha/2 exactly when T * den > bar."""
    num, den = p._alpha_ratio
    return num * p.total_weight, 2 * den


def _upper_end(x: int, p: Params) -> int:
    """U(x), the largest M with P_M(X <= x) > alpha/2, by bisection over M."""
    bar, den = _half_alpha_bar(p)
    # P_M(X <= x) is nonincreasing in M and equals 1 at M = 0
    lo, hi = 0, p.N
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _lower_tail_weight(mid, x, p) * den > bar:
            lo = mid
        else:
            hi = mid - 1
    return lo


def pivot_ci(x: int, p: Params) -> tuple:
    """Equal-tail interval [L, U] for one observation x."""
    if not 0 <= x <= p.n:
        raise ValueError(f"x must be in [0, {p.n}], got {x}")
    return (p.N - _upper_end(p.n - x, p), _upper_end(x, p))


def pivot_table(p: Params) -> ConfidenceTable:
    """Equal-tail table for every x, via one sweep of per-M tail quantiles.

    For each M the sweep finds t(M), the smallest x with P_M(X <= x) >
    alpha/2, and ``_inverse`` inverts the family [t(M), n - t(N - M)]:
    U(x) = max{M : t(M) <= x}, L(x) = N - U(n - x). Rows agree with pivot_ci.

    The sweep carries (x, w_M(x), W_M(X <= x)) from M to M+1: ``step_m``
    moves the weight and the interval-mass identity moves the tail, then x
    steps up to the next threshold. x never steps down, so the whole table
    costs O(N + n) exact steps. Monotonicity is checked at each M as its
    premise, P_{M+1}(X <= x-1) <= alpha/2 at the carried x; the carried
    tail must equal the carried weight when x leaves the support, and both
    are checked against weight and interval_weight after the last M.
    """
    bar, den = _half_alpha_bar(p)
    N, n = p.N, p.n
    x = 0
    w = tail = weight(0, 0, p)
    thresholds = []
    for M in range(N + 1):
        if M:
            if x < M + n - N:  # x left the support: reseed at its lower end
                if tail != w:  # x was the lower end, so its tail is its weight
                    raise AssertionError("carried pivot weights drifted; corrupt kernels")
                x = M + n - N
                w = tail = weight(M, x, p)
            else:
                tail -= (n - x) * w // (N - M + 1)
                w = step_m(w, M - 1, x, p)
                if (tail - w) * den > bar:
                    raise AssertionError("tail quantiles not monotone in M; corrupt kernels")
        hi = min(M, n)
        while tail * den <= bar:
            if x == hi:
                raise AssertionError(f"tail never exceeds alpha/2 at M={M}; corrupt kernels")
            # step_up inlined: this loop runs O(N + n) times per table
            w = w * (M - x) * (n - x) // ((x + 1) * (N - M - n + x + 1))
            x += 1
            tail += w
        thresholds.append(x)
    if w != weight(N, x, p) or tail != interval_weight(N, 0, x, p):
        raise AssertionError("carried pivot weights drifted; corrupt kernels")
    try:
        rows = _inverse(p, thresholds, [n - t for t in reversed(thresholds)])
        return ConfidenceTable(p, Method.PIVOT, *rows)
    except ValueError as e:  # p is valid, so a failed self-check is a program fault
        raise AssertionError(f"pivot table self-check failed: {e}") from e
