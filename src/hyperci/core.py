"""Hypergeometric kernels shared by every other module.

Everything is grounded in integer weights ``C(M,x)*C(N-M,n-x)``, which sum
to ``C(N,n)`` over the support for every M:

* exact window and tail masses come from two kernels: ``interval_weight``
  (the integer weight sum over [a, b]) and ``lower_quantile`` (the
  smallest x whose lower tail exceeds a threshold); both step through
  only the points they need;
* probabilities (``pmf``, ``lower_tail``, ``interval_prob``) sum weights
  exactly and round once at the final division, so a reported value is the
  correctly rounded double of the true rational (a full-support sum is
  exactly 1.0);
* threshold decisions (``attains_level``, ``weight_exceeds``,
  ``lower_quantile``) compare integer weight sums against the exact integer
  ratio of alpha, never a rounded double; pass alpha as a
  ``fractions.Fraction`` for an exact rational level, or as a float to use
  that double's exact binary value;
* ``log_pmf`` serves log-scale queries with O(1) ``math.lgamma`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Union

AlphaLike = Union[float, Fraction]

NEG_INF = float("-inf")


class Support(NamedTuple):
    """Range of x with positive probability: [max(0, M+n-N), min(M, n)]."""

    x_min: int
    x_max: int


@dataclass(frozen=True)
class Params:
    """A problem instance: population N, sample size n, error level alpha.

    Immutable; the total draw count C(N, n) and the integer ratio of alpha
    are precomputed once, so threshold tests never recompute them.
    """

    N: int
    n: int
    alpha: AlphaLike
    _total_weight: int = field(init=False, repr=False, compare=False)
    _alpha_ratio: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if not 0 < self.n <= self.N:
            raise ValueError(f"need 0 < n <= N, got n={self.n}, N={self.N}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"need 0 < alpha < 1, got {self.alpha!r}")
        object.__setattr__(self, "_total_weight", math.comb(self.N, self.n))
        object.__setattr__(self, "_alpha_ratio", self.alpha.as_integer_ratio())

    @property
    def total_weight(self) -> int:
        """C(N, n), the common denominator of all pmf values."""
        return self._total_weight

    def check_m(self, M: int) -> None:
        if not 0 <= M <= self.N:
            raise ValueError(f"M must be in [0, {self.N}], got {M}")


def support(M: int, p: Params) -> Support:
    """Endpoints of the set of x where the pmf is nonzero."""
    p.check_m(M)
    return Support(max(0, M + p.n - p.N), min(M, p.n))


def mode(M: int, p: Params) -> int:
    """floor((n+1)(M+1)/(N+2)), a maximizer of the pmf, in exact integers."""
    p.check_m(M)
    return ((p.n + 1) * (M + 1)) // (p.N + 2)


def log_pmf(M: int, x: int, p: Params) -> float:
    """Natural log of P_M(X = x); -inf outside the support.

    The log-factorial terms are grouped into sums invariant under the
    reflection (M, x) -> (N-M, n-x), so reflected calls return bit-identical
    values.
    """
    p.check_m(M)
    lo, hi = support(M, p)
    if x < lo or x > hi:
        return NEG_INF

    def lf(k):
        return math.lgamma(k + 1)

    N, n = p.N, p.n
    t_pop = lf(M) + lf(N - M)
    t_split = (lf(x) + lf(M - x)) + (lf(n - x) + lf(N - M - n + x))
    t_const = lf(N) - lf(n) - lf(N - n)
    return (t_pop - t_split) - t_const


def pmf(M: int, x: int, p: Params) -> float:
    """P_M(X = x): the correctly rounded double of the exact rational."""
    return weight(M, x, p) / p.total_weight


def interval_prob(M: int, a: int, b: int, p: Params) -> float:
    """P_M(a <= X <= b); empty intervals (a > b) give 0.

    The integer weights over [a, b] are summed exactly (no float
    accumulation error at any term ordering) and divided once, so the
    result is the correctly rounded double of the true probability.
    """
    return interval_weight(M, a, b, p) / p.total_weight


def lower_tail(M: int, x: int, p: Params) -> float:
    """P_M(X < x)."""
    lo, _ = support(M, p)
    return interval_prob(M, lo, x - 1, p)


# -- exact integer kernels ---------------------------------------------------
#
# weight(M, x) = C(M, x) * C(N-M, n-x); pmf = weight / C(N, n). Weights sum
# to C(N, n) over the support for every M, so tails never need the far end.


def weight(M: int, x: int, p: Params) -> int:
    """Unnormalized pmf numerator; 0 outside the support."""
    p.check_m(M)
    lo, hi = support(M, p)
    if x < lo or x > hi:
        return 0
    return math.comb(M, x) * math.comb(p.N - M, p.n - x)


def weight_table(M: int, p: Params) -> list:
    """Weights over the support, built by the adjacent-ratio recurrence."""
    lo, hi = support(M, p)
    N, n = p.N, p.n
    w = weight(M, lo, p)
    out = [w]
    for x in range(lo, hi):
        w = w * (M - x) * (n - x) // ((x + 1) * (N - M - n + x + 1))
        out.append(w)
    return out


def interval_weight(M: int, a: int, b: int, p: Params) -> int:
    """Exact weight sum over [a, b] clipped to the support; 0 when empty.

    Starts from the weight at a and steps up to b, so the cost is the
    window's length, not the support's.
    """
    lo, hi = support(M, p)
    a, b = max(a, lo), min(b, hi)
    if a > b:
        return 0
    w = total = weight(M, a, p)
    for x in range(a, b):
        w = step_up(w, M, x, p)
        total += w
    return total


def lower_quantile(M: int, threshold: AlphaLike, p: Params) -> int:
    """Smallest x with P_M(X <= x) > threshold, for threshold < 1.

    Steps up from the bottom of the support and stops at the answer; the
    comparison is an exact integer test against threshold's integer ratio.
    """
    num, den = threshold.as_integer_ratio()
    bar = num * p.total_weight  # the tail weight must exceed bar / den
    lo, hi = support(M, p)
    N, n = p.N, p.n
    x = lo
    w = cum = weight(M, lo, p)
    while cum * den <= bar:
        if x == hi:
            raise ValueError(f"P_M(X <= x) never exceeds {threshold} at M={M}")
        # step_up inlined: pivot_table runs this loop for every M
        w = w * (M - x) * (n - x) // ((x + 1) * (N - M - n + x + 1))
        x += 1
        cum += w
    return x


def step_up(w: int, M: int, x: int, p: Params) -> int:
    """Weight at x+1 from the weight at x (x+1 must stay in the support)."""
    return w * (M - x) * (p.n - x) // ((x + 1) * (p.N - M - p.n + x + 1))


def step_down(w: int, M: int, x: int, p: Params) -> int:
    """Weight at x-1 from the weight at x (x-1 must stay in the support)."""
    return w * x * (p.N - M - p.n + x) // ((M - x + 1) * (p.n - x + 1))


def attains_level(weight_sum: int, p: Params) -> bool:
    """Exact test of weight_sum / C(N,n) >= 1 - alpha."""
    num, den = p._alpha_ratio
    return weight_sum * den >= (den - num) * p.total_weight


def weight_exceeds(weight_sum: int, threshold: AlphaLike, p: Params) -> bool:
    """Exact test of weight_sum / C(N,n) > threshold."""
    num, den = threshold.as_integer_ratio()
    return weight_sum * den > num * p.total_weight
