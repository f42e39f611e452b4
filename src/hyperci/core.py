"""Hypergeometric kernels shared by every other module.

Everything is grounded in integer weights ``C(M,x)*C(N-M,n-x)``, which sum
to ``C(N,n)`` over the support for every M:

* exact window masses come from one kernel, ``interval_weight`` (the
  integer weight sum over [a, b]), which steps through only the points
  it needs;
* probabilities (``pmf``, ``interval_prob``) sum weights exactly and round
  once at the final division, so a reported value is the correctly rounded
  double of the true rational (a full-support sum is exactly 1.0);
* the level decision (``attains_level``) compares an integer weight sum
  against the exact integer ratio of alpha, never a rounded double; pass
  alpha as a ``fractions.Fraction`` for an exact rational level, or as a
  float to use that double's exact binary value;
* stages that need one quantity for every M sweep M upward and carry it:
  ``step_m`` moves a weight from (M, x) to (M+1, x), and the interval-mass
  identity (N-M)(W_{M+1}[a,b] - W_M[a,b]) = (n-a+1) w_M(a-1) - (n-b) w_M(b)
  moves a window or tail mass; a carried point that falls below the new
  support's lower end max(0, M+1+n-N) is reseeded from ``weight``.
  ``carry_window`` is the greedy's window move, and the greedy sweep
  (``acceptance._greedy_sweep``) is its one caller. The greedy sweep does
  not walk a run of one greedy interval [a, b]: it bisects the run's level
  end with exact ``interval_weight`` probes.
  Every other exact window mass at every M (a table's coverage over its
  dual runs, ``AcceptanceFamily.masses`` over runs of one M each) comes
  from one sweep over run lists (``acceptance._window_masses``), which
  carries the identity's two terms instead of the weights,
  t(M) = (n-b) w_M(b)/(N-M) = C(M, b) C(N-M-1, n-b-1) and
  u(M) = (n-a+1) w_M(a-1)/(N-M) = C(M, a-1) C(N-M-1, n-a): each M is
  mass += u - t, one exact multiply-divide per term, and a long run's end
  checks the carried mass against ``interval_weight``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# float or fractions.Fraction. Under the __future__ import every annotation
# is a string, so naming the alias imports neither fractions nor typing.
AlphaLike = "float | Fraction"

DRIFTED = "carried window mass drifted; corrupt kernels"


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


def support(M: int, p: Params) -> tuple:
    """(lo, hi) = (max(0, M+n-N), min(M, n)), the x where the pmf is nonzero."""
    p.check_m(M)
    return (max(0, M + p.n - p.N), min(M, p.n))


def mode(M: int, p: Params) -> int:
    """floor((n+1)(M+1)/(N+2)), a maximizer of the pmf, in exact integers."""
    p.check_m(M)
    return ((p.n + 1) * (M + 1)) // (p.N + 2)


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


# -- exact integer kernels ---------------------------------------------------
#
# weight(M, x) = C(M, x) * C(N-M, n-x); pmf = weight / C(N, n). Weights sum
# to C(N, n) over the support for every M, so tails never need the far end.


def weight(M: int, x: int, p: Params) -> int:
    """Unnormalized pmf numerator; 0 outside the support."""
    p.check_m(M)
    if x < max(0, M + p.n - p.N) or x > min(M, p.n):
        return 0
    return math.comb(M, x) * math.comb(p.N - M, p.n - x)


def interval_weight(M: int, a: int, b: int, p: Params) -> int:
    """Exact weight sum over [a, b] clipped to the support; 0 when empty.

    Starts from the weight at a and steps up to b, so the cost is the
    window's length, not the support's. M is validated once; the support
    bounds and ``step_up`` are inlined.
    """
    p.check_m(M)
    N, n = p.N, p.n
    s = N - M - n
    a, b = max(a, 0, -s), min(b, M, n)
    if a > b:
        return 0
    w = total = math.comb(M, a) * math.comb(N - M, n - a)
    for x in range(a, b):
        w = w * (M - x) * (n - x) // ((x + 1) * (s + x + 1))
        total += w
    return total


def step_up(w: int, M: int, x: int, p: Params) -> int:
    """Weight at x+1 from the weight at x (x+1 must stay in the support)."""
    return w * (M - x) * (p.n - x) // ((x + 1) * (p.N - M - p.n + x + 1))


def step_down(w: int, M: int, x: int, p: Params) -> int:
    """Weight at x-1 from the weight at x (x-1 must stay in the support)."""
    return w * x * (p.N - M - p.n + x) // ((M - x + 1) * (p.n - x + 1))


def step_m(w: int, M: int, x: int, p: Params) -> int:
    """Weight at (M+1, x) from the weight at (M, x), for M < N.

    C(M+1, x) = C(M, x) (M+1)/(M+1-x) and C(N-M-1, n-x) = C(N-M, n-x)
    (N-M-n+x)/(N-M), so the division is exact; the result is 0 when x falls
    below the support of M+1.
    """
    return w * (M + 1) * (p.N - M - p.n + x) // ((M + 1 - x) * (p.N - M))


def carry_window(M: int, a: int, b: int, w_a: int, w_b: int, mass: int, p: Params) -> tuple:
    """Window state (a, b, w_a, w_b, mass) at M moved to M+1, for M < N.

    w_a and w_b are the weights at a and b and mass is the weight sum over
    [a, b], all at M. The interval-mass identity moves the mass and
    ``step_m`` the endpoint weights; a window wholly below the support of
    M+1 must carry mass 0 and is reseeded at that support's lower end, and
    an a below it moves up to it (those points have weight 0 at M+1).
    """
    N, n = p.N, p.n
    # w_M(a-1); step_down gives 0 when a is the support's lower end
    w_below = step_down(w_a, M, a, p)
    mass += ((n - a + 1) * w_below - (n - b) * w_b) // (N - M)
    lo = M + 1 + n - N  # the support of M+1 starts at max(0, lo)
    if b < lo:
        if mass:
            raise AssertionError(DRIFTED)
        w = weight(M + 1, lo, p)
        return lo, lo, w, w, w
    w_b = step_m(w_b, M, b, p)
    if a < lo:
        return lo, b, weight(M + 1, lo, p), w_b, mass
    return a, b, step_m(w_a, M, a, p), w_b, mass


def attains_level(weight_sum: int, p: Params) -> bool:
    """Exact test of weight_sum / C(N,n) >= 1 - alpha."""
    num, den = p._alpha_ratio
    return weight_sum * den >= (den - num) * p.total_weight
