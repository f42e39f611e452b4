"""Shift acceptance intervals to nondecreasing endpoints and symmetrize.

The shift step compares each lower endpoint with the running maximum of
lower endpoints (and each upper endpoint with the running minimum computed
backward over the raw uppers). Offending intervals slide up or down by the
gap; the two offender sets are provably disjoint and the slide preserves
both interval length and the coverage level.

Symmetrizing keeps the shifted intervals below N/2, mirrors them above,
and, for even N, replaces the middle entry by the shortest interval
[h, n-h] symmetric about n/2 that still holds 1 - alpha mass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .acceptance import AcceptanceFamily, Stage
from .core import Params, attains_level, interval_weight, lower_quantile


@dataclass(frozen=True)
class AdjustmentTrace:
    """Bookkeeping of the monotonizing shifts.

    running_max_lower[M] = max of raw lowers up to M, running_min_upper[M] =
    min of raw uppers from M on; set_lower/set_upper hold the shifted
    indices; delta[M] is the (nonnegative) shift applied at M.
    """

    running_max_lower: tuple
    running_min_upper: tuple
    set_lower: frozenset
    set_upper: frozenset
    delta: tuple

    @property
    def max_shift(self) -> int:
        return max(self.delta) if self.delta else 0


def adjust(half: AcceptanceFamily) -> tuple:
    """Monotonize a raw half-family; returns (adjusted family, trace).

    The input must be level alpha at every M (a corrupt family fails with a
    diagnostic naming the first offending M). Output intervals keep their
    lengths, stay level alpha, and both endpoint sequences are nondecreasing.
    """
    p = half.params
    for M, (a, b) in enumerate(zip(half.lower, half.upper)):
        mass = interval_weight(M, a, b, p)
        if not attains_level(mass, p):
            raise ValueError(
                f"input family is not level alpha at M={M}: "
                f"interval {half.interval(M)} has mass {mass}/{p.total_weight}"
            )

    k = len(half) - 1
    a, b = half.lower, half.upper
    run_max = []
    cur = a[0]
    for M in range(k + 1):
        cur = max(cur, a[M])
        run_max.append(cur)
    run_min = [0] * (k + 1)
    cur = b[k]
    for M in range(k, -1, -1):
        cur = min(cur, b[M])
        run_min[M] = cur

    set_lower = frozenset(M for M in range(k + 1) if a[M] < run_max[M])
    set_upper = frozenset(M for M in range(k + 1) if b[M] > run_min[M])
    overlap = set_lower & set_upper
    if overlap:
        raise ValueError(
            f"shift sets overlap at M={sorted(overlap)}; input intervals were "
            "not minimum-cardinality probability maximizers"
        )

    new_a, new_b, delta = list(a), list(b), [0] * (k + 1)
    for M in set_lower:
        delta[M] = run_max[M] - a[M]
        new_a[M] = run_max[M]
        new_b[M] = b[M] + delta[M]
    for M in set_upper:
        delta[M] = b[M] - run_min[M]
        new_a[M] = a[M] - delta[M]
        new_b[M] = run_min[M]

    for M in range(k):
        if new_a[M] > new_a[M + 1] or new_b[M] > new_b[M + 1]:
            raise ValueError(
                f"adjusted endpoints not monotone at M={M}; input intervals "
                "were not minimum-cardinality probability maximizers"
            )

    adjusted = AcceptanceFamily(p, Stage.ADJUSTED, tuple(new_a), tuple(new_b))
    trace = AdjustmentTrace(
        running_max_lower=tuple(run_max),
        running_min_upper=tuple(run_min),
        set_lower=set_lower,
        set_upper=set_upper,
        delta=tuple(delta),
    )
    return adjusted, trace


def center_interval(p: Params, raw_center: tuple) -> tuple:
    """Shortest symmetric level-alpha interval [h, n-h] at M = N/2 (N even).

    h = max{x in [0..n] : P_{N/2}(X < x) <= alpha/2}, which is the smallest
    x with P_{N/2}(X <= x) > alpha/2, found by an exact lower-tail scan
    that stops there. The shortcut
    h = min(a_{N/2}, n - b_{N/2}) must agree whenever raw_center is a
    minimum-cardinality interval of maximal mass, and is asserted as a
    cross-check.
    """
    if p.N % 2:
        raise ValueError(f"center interval needs even N, got N={p.N}")
    h = lower_quantile(p.N // 2, p.alpha / 2, p)
    if h > p.n // 2:
        raise AssertionError(f"tail scan produced h={h} > n/2; corrupt kernels")
    shortcut = min(raw_center[0], p.n - raw_center[1])
    if h != shortcut:
        raise ValueError(
            f"center cross-check failed at N={p.N}, n={p.n}: tail scan gives "
            f"h={h} but min(a, n-b)={shortcut}; raw center {raw_center} is "
            "not a minimum-cardinality interval of maximal mass"
        )
    return (h, p.n - h)


def symmetrize(adjusted_half: AcceptanceFamily, p: Params) -> AcceptanceFamily:
    """Full symmetric family: keep below N/2, reflect above, center at N/2."""
    if adjusted_half.params != p:
        raise ValueError("family params do not match")
    N, n = p.N, p.n
    k = N // 2
    if len(adjusted_half) != k + 1:
        raise ValueError(f"expected an adjusted half-family over 0..{k}")
    a, b = adjusted_half.lower, adjusted_half.upper
    lower = [0] * (N + 1)
    upper = [0] * (N + 1)
    for M in range((N + 1) // 2):
        lower[M], upper[M] = a[M], b[M]
    for M in range(k + 1, N + 1):
        lower[M], upper[M] = n - b[N - M], n - a[N - M]
    if N % 2 == 0:
        lower[k], upper[k] = center_interval(p, adjusted_half.interval(k))
    return AcceptanceFamily(p, Stage.SYMMETRIZED, tuple(lower), tuple(upper))
