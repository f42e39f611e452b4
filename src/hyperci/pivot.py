"""Baseline confidence intervals by pivoting the c.d.f.

The pivotal interval is equal-tailed. U(x) is the largest M with
P_M(X <= x) > alpha/2, one bisection since that tail is nonincreasing in
M; L(x) = N - U(n - x) by the pmf reflection w(M, x) = w(N - M, n - x).
A full table is those n + 1 bisections when n << N, else one sweep over M
of the equal-tail acceptance intervals, inverted by ``_inverse``. The
bisection path and ``pivot_ci`` carry a certificate that shares none of
their sums (``_certify_row``): each bisected U(x) is tested against its
definition, with tails summed by ``step_down`` from one ``math.comb`` pair
and T_{U+1} taken from the tail identity. The sweep keeps its carried
checks. Tail comparisons are exact integer tests against alpha's own
integer ratio, halved exactly (``_half_alpha_bar``), for every float.
"""

from __future__ import annotations

import math

from .core import Params, interval_weight, step_down, step_m, support, weight
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
    """Equal-tail interval [L, U] for one observation x; both bisected rows,
    U(n - x) and U(x), are certified (``_certify_row``)."""
    if not 0 <= x <= p.n:
        raise ValueError(f"x must be in [0, {p.n}], got {x}")
    low, high = _upper_end(p.n - x, p), _upper_end(x, p)
    _certify_row(p.n - x, low, p)
    _certify_row(x, high, p)
    return (p.N - low, high)


def pivot_table(p: Params) -> ConfidenceTable:
    """Equal-tail table for every x, from two exact builders with identical rows.

    ``_bisect_table`` costs about (n + 1) * n * N.bit_length() steps: n + 1
    bisections of ceil(log2(N + 1)) tail sums of up to n weights each. The
    sweep costs O(N + n), so the table bisects while that count is below 2 * N.
    """
    try:
        if (p.n + 1) * p.n * p.N.bit_length() < 2 * p.N:
            return _bisect_table(p)
        return _sweep_table(p)
    except ValueError as e:  # p is valid, so a failed self-check is a program fault
        raise AssertionError(f"pivot table self-check failed: {e}") from e


def _bisect_table(p: Params) -> ConfidenceTable:
    """Rows U(x) = ``_upper_end(x, p)`` and L(x) = N - U(n - x), as pivot_ci gives them."""
    upper = tuple(_upper_end(x, p) for x in range(p.n + 1))
    tbl = ConfidenceTable(p, Method.PIVOT, tuple(p.N - u for u in upper[::-1]), upper)
    for x, U in enumerate(upper):
        _certify_row(x, U, p)
    return tbl


def _certify_row(x: int, U: int, p: Params) -> None:
    """Prove T_U(x) > alpha/2 >= T_{U+1}(x), T_M(x) = P_M(X <= x).

    That is U(x)'s definition, since T_M(x) is nonincreasing in M. T_U is
    summed down from w_U(x) = C(U, x) C(N - U, n - x) by ``step_down`` to the
    support's lower end, and T_{U+1} follows from the tail identity
    (N - U)(T_U - T_{U+1}) = (n - x) w_U(x), whose division must be exact.
    At U = N there is no U + 1, so T_{U+1} is taken as 0. The bisection's
    sums are not used, so a faulty tail kernel fails here (AssertionError).
    """
    bar, den = _half_alpha_bar(p)
    N, n = p.N, p.n
    w_x = w = tail = math.comb(U, x) * math.comb(N - U, n - x)
    if w_x:  # else x is off the support of U: U < x, or T_U(x) = 0
        for y in range(x, max(0, U + n - N), -1):
            w = step_down(w, U, y, p)
            tail += w
    drop, rest = divmod((n - x) * w_x, N - U) if U < N else (tail, 0)
    if rest or not tail * den > bar >= (tail - drop) * den:
        raise AssertionError(f"pivot row U({x}) = {U} fails its definition; corrupt kernels")


def _sweep_table(p: Params) -> ConfidenceTable:
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
    rows = _inverse(p, thresholds, [n - t for t in reversed(thresholds)])
    return ConfidenceTable(p, Method.PIVOT, *rows)
