"""Minimum-cardinality acceptance intervals, built greedily from the mode.

For each M the greedy interval starts at the pmf maximizer mode(M) and
repeatedly absorbs the more probable neighbor (the left one on ties) until
its mass reaches 1 - alpha. Among intervals of its cardinality the result
has maximal probability, and no smaller level-alpha set exists.

The greedy is not rerun from the mode at every M. A sweep carries the
window, its endpoint weights and its exact mass from M to M+1
(``core.carry_window``) and corrects it with a few endpoint moves: slide to
the leftmost max-mass window of the same length, shrink while a window one
point shorter still reaches the level, put a one-point window on mode(M),
then grow by the greedy rule. The result is the greedy interval itself,
and the cost per M is the endpoint drift, not |A(M)|. The from-scratch
greedy is kept as the reference ``oracle.greedy_interval``.

Every move and the stopping rule are exact integer comparisons, so the
output is a deterministic function of (N, n, alpha).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import le

from .core import DRIFTED, Params, carry_window, interval_weight, step_down, step_up, weight


@dataclass(frozen=True)
class AcceptanceFamily:
    """Per-M acceptance intervals [lower[M], upper[M]] for M = 0..len-1.

    The constructor checks only the support, by ``_check_support`` (the C*
    build runs it on its half); ``inversion._build`` lists the others.
    """

    params: Params
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValueError("lower/upper must be nonempty and equally long")
        self.params.check_m(len(self.lower) - 1)
        _check_support(self.params, self.lower, self.upper)

    def __len__(self) -> int:
        return len(self.lower)

    def interval(self, M: int) -> tuple:
        return (self.lower[M], self.upper[M])

    def length(self, M: int) -> int:
        return self.upper[M] - self.lower[M] + 1

    def total_size(self) -> int:
        return sum(b - a + 1 for a, b in zip(self.lower, self.upper))

    def masses(self) -> list:
        """Exact weight sum of each interval, for M = 0..len-1 (``interval_masses``)."""
        return list(interval_masses(self.params, self.lower, self.upper))


def _check_support(p: Params, lower, upper) -> None:
    """Raise ValueError unless lo <= lower[M] <= upper[M] <= hi at each M."""
    N, n = p.N, p.n
    # C-level passes first; the loop runs only on failure, to name the first bad M
    tail = lower[N - n:]  # M >= N - n, where lo(M) = M - (N - n)
    if (min(lower, default=0) >= 0 and max(upper, default=0) <= n and all(map(le, lower, upper))
            and all(map(le, upper, range(len(upper)))) and all(map(le, range(len(tail)), tail))):
        return
    for M, (a, b) in enumerate(zip(lower, upper)):
        lo, hi = max(0, M + n - N), min(M, n)
        if not lo <= a <= b <= hi:
            raise ValueError(f"interval [{a}, {b}] at M={M} leaves the support [{lo}, {hi}]")


def interval_masses(p: Params, lower, upper) -> Iterator[int]:
    """Yield the exact weight sum of each [lower[M], upper[M]], M = 0, 1, ...

    One sweep; the intervals must lie in their supports. ``carry_window``
    moves the window and its mass to M+1, then endpoint steps reach the
    next interval; once the sweep is exhausted, the last mass must equal
    its sum.
    """
    a, b = lower[0], upper[0]
    w_a, w_b = weight(0, a, p), weight(0, b, p)
    mass = interval_weight(0, a, b, p)
    for M, (a_new, b_new) in enumerate(zip(lower, upper)):
        if M:
            a, b, w_a, w_b, mass = carry_window(M - 1, a, b, w_a, w_b, mass, p)
            while b < b_new:
                w_b = step_up(w_b, M, b, p)
                b += 1
                mass += w_b
            while a > a_new:
                w_a = step_down(w_a, M, a, p)
                a -= 1
                mass += w_a
            while a < a_new:
                mass -= w_a
                w_a = step_up(w_a, M, a, p)
                a += 1
            while b > b_new:
                mass -= w_b
                w_b = step_down(w_b, M, b, p)
                b -= 1
        yield mass
    if mass != interval_weight(M, a, b, p):
        raise AssertionError(DRIFTED)


def _greedy_sweep(p: Params) -> tuple:
    """Greedy lists (lower, upper, coverage) for M = 0..floor(N/2), each carried.

    M = 0 starts from its one-point support {0}. Each later M takes the
    previous window (a, b, w_a, w_b, mass) through ``carry_window``, then
    corrects it with exact endpoint moves: slide to the leftmost max-mass
    window of the same length, shrink while the window one point shorter
    (without its lighter end, the right one on ties) still reaches the
    level, put a one-point window on mode(M), and grow by the greedy rule.
    A carried window only ever slides right, since the leftmost max-mass
    start of each length is nondecreasing in M; the left slide keeps the
    correction exact from any window. The grow loop stops only once the mass
    attains the level, so coverage[M] = mass / C(N, n) is level-checked.
    After the last M the carried mass and weights must match
    interval_weight and weight.
    """
    N, n = p.N, p.n
    num, den = p._alpha_ratio
    total = p.total_weight
    bar = (den - num) * total  # the mass must reach bar / den
    a = b = 0
    w_a = w_b = mass = weight(0, 0, p)
    lower, upper, cov = [], [], []
    for M in range(N // 2 + 1):
        if M:
            a, b, w_a, w_b, mass = carry_window(M - 1, a, b, w_a, w_b, mass, p)
        # the support [lo, hi], the neighbour weights w_left = w(a-1) and
        # w_right = w(b+1) (step_down/step_up inlined; both give 0 past the
        # support) and mode(M) below are written out because they run for
        # every M, where calls cost more than the arithmetic on small N
        lo = M + n - N if M + n > N else 0
        hi = M if M < n else n
        s = N - M - n
        w_left = w_a * a * (s + a) // ((M - a + 1) * (n - a + 1))
        w_right = w_b * (M - b) * (n - b) // ((b + 1) * (s + b + 1))
        while a > lo and w_left >= w_b:  # slide left, onto the leftmost tie
            mass += w_left - w_b
            w_right, w_b = w_b, step_down(w_b, M, b, p)
            w_a = w_left
            a, b = a - 1, b - 1
            w_left = step_down(w_a, M, a, p)
        while b < hi and w_right > w_a:  # slide right
            mass += w_right - w_a
            w_left, w_a = w_a, step_up(w_a, M, a, p)
            w_b = w_right
            a, b = a + 1, b + 1
            w_right = step_up(w_b, M, b, p)
        while a < b:  # shrink, dropping the lighter end (the right on ties)
            if w_b <= w_a:
                if (mass - w_b) * den < bar:
                    break
                mass -= w_b
                w_right, w_b = w_b, step_down(w_b, M, b, p)
                b -= 1
            else:
                if (mass - w_a) * den < bar:
                    break
                mass -= w_a
                w_left, w_a = w_a, step_up(w_a, M, a, p)
                a += 1
        if a == b and a != (n + 1) * (M + 1) // (N + 2):
            # tied modes: the slide stopped at the left one, mode() is the right
            w_left, w_a = w_a, w_right
            a = b = a + 1
            w_b, w_right = w_a, step_up(w_a, M, a, p)
        while mass * den < bar:  # grow: the heavier neighbour, left on ties
            if b < hi and w_right > w_left:
                b += 1
                mass += w_right
                w_b, w_right = w_right, step_up(w_right, M, b, p)
            elif a > lo:
                a -= 1
                mass += w_left
                w_a, w_left = w_left, step_down(w_left, M, a, p)
            else:
                raise AssertionError("full support below the level; corrupt kernels")
        lower.append(a)
        upper.append(b)
        cov.append(mass / total)
    if mass != interval_weight(M, a, b, p) or (w_a, w_b) != (weight(M, a, p), weight(M, b, p)):
        raise AssertionError(DRIFTED)
    return lower, upper, cov


def amo_half(p: Params) -> AcceptanceFamily:
    """Greedy acceptance intervals for M = 0..floor(N/2), in one sweep."""
    lower, upper, _ = _greedy_sweep(p)
    return AcceptanceFamily(p, tuple(lower), tuple(upper))


def _mirror(p: Params, lower, upper) -> tuple:
    """Endpoint lists over M = 0..N from half lists over 0..floor(N/2).

    M <= N/2 keeps the half's interval; M > N/2 takes the reflection
    a_M = n - b_{N-M}, b_M = n - a_{N-M}.
    ``symmetrize``, ``inversion._build`` and certify's ``reflect-level``
    check all reflect through it.
    """
    N, n = p.N, p.n
    k = N // 2
    if len(lower) != k + 1:
        raise ValueError(f"expected a half-family over 0..{k}, got length {len(lower)}")
    below = (N + 1) // 2  # the M < N/2 that the upper half mirrors
    full_lower = list(lower) + [n - b for b in reversed(upper[:below])]
    full_upper = list(upper) + [n - a for a in reversed(lower[:below])]
    return full_lower, full_upper

