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

The sweep emits runs: one (last M, a, b) each time the interval changes,
so a family is three run lists, and the later stages (``_check_support``,
``_mirror``, ``monotonize._shift``, ``inversion._inverse``) work one step
per run; a per-M list is the special case of one M per run. Where n << N
the greedy keeps one interval over thousands of M. After ``_RUN_AFTER``
consecutive M on one interval the sweep bounds a run by probes
(``_run_end``), which prove every per-M condition of the greedy but the
level on the whole run; inside it the mass moves by the two terms of the
interval-mass identity and the level is tested exactly at every M. Short
runs, and every M outside a run, take the per-M moves, which stay the
reference for runs.

Every move and the stopping rule are exact integer comparisons, so the
output is a deterministic function of (N, n, alpha).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from math import perm
from operator import add, le, sub

from .core import DRIFTED, Params, carry_window, interval_weight, step_down, step_up, weight


@dataclass(frozen=True)
class AcceptanceFamily:
    """Per-M acceptance intervals [lower[M], upper[M]] for M = 0..len-1.

    The constructor checks only the support, by ``_check_support`` (the C*
    build runs it once per run of its half); ``inversion._build_runs`` lists
    the others.
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


def _check_support(p: Params, lower, upper, ends=None) -> None:
    """Raise ValueError unless lo(M) <= a <= b <= hi(M) at each M of each run.

    Run r is [lower[r], upper[r]] on M1..M2 = ends[r-1]+1..ends[r], and run 0
    starts at M = 0 (ends None: one M per entry). Both support bounds are
    nondecreasing in M, so a run stays in its supports when a >= lo(M2) and
    b <= hi(M1).
    """
    N, n = p.N, p.n
    if ends is None:
        ends = starts = range(len(lower))
    else:
        starts = [0, *[e + 1 for e in ends[:-1]]]
    # C-level passes first, a >= lo(M2) = M2 - (N - n) only where that is
    # positive; the loop runs only on failure, to name the first bad M
    tail = bisect_right(ends, N - n)
    if (min(lower, default=0) >= 0 and max(upper, default=0) <= n and all(map(le, lower, upper))
            and all(map(le, upper, starts))
            and all(map(le, ends[tail:], map(add, lower[tail:], repeat(N - n))))):
        return
    for M1, M2, a, b in zip(starts, ends, lower, upper):
        if not max(0, M2 + n - N) <= a <= b <= min(M1, n):
            # b > hi and a > b fail first at M1, a < lo first where lo passes a
            M = M1 if a < 0 or a > b or b > min(M1, n) else max(M1, a + N - n + 1)
            lo, hi = max(0, M + n - N), min(M, n)
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


# an interval that the greedy has kept on this many consecutive M may start a
# run; the longest hold on the ladder of the benchmark is 6, so those builds
# never pay for the probes that bound a run
_RUN_AFTER = 32


def _greedy_sweep(p: Params) -> tuple:
    """Greedy runs (lower, upper, ends) and per-M coverage for M = 0..floor(N/2).

    Run r is the interval [lower[r], upper[r]] on M = ends[r-1]+1..ends[r];
    a run is emitted each time the interval changes. coverage[M] is the
    interval's carried mass over C(N, n) at each M.

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

    [a, b] is the greedy interval at M when four conditions hold: (i) it
    attains the level; (ii) w(a-1) < w(b) and (iii) w(b+1) < w(a), so it is
    the leftmost max-mass window of its length (window masses are unimodal
    in the start, the pmf being log-concave; (iii) is strict for the
    one-point window on mode(M), the right one of tied modes); (iv) [a+1, b]
    and [a, b-1] both miss the level, so no shorter window attains it.
    Once an interval has held on ``_RUN_AFTER`` consecutive M with the
    support at [0, n], the sweep tries a run: ``_run_end`` proves (ii),
    (iii) and (iv) by probes on M..M2. Up to M2 each M moves the mass by the
    two terms of the interval-mass identity,
    t(M) = (n-b) w_M(b) / (N-M) = C(M, b) C(N-M-1, n-b-1) and
    u(M) = (n-a+1) w_M(a-1) / (N-M) = C(M, a-1) C(N-M-1, n-a),
    mass(M+1) = mass(M) + u(M) - t(M), each term stepped to M+1 by one exact
    multiply-divide, and tests the level exactly (mass >= need). The
    correction moves take over at the first M below the level, from the
    carried window. At each run end the mass must match interval_weight and
    t must match weight, and after the last M the carried mass and weights
    must match them too.
    """
    N, n = p.N, p.n
    num, den = p._alpha_ratio
    total = p.total_weight
    # the level is mass / C(N, n) >= 1 - num / den, that is mass * den >= bar,
    # exactly when mass >= need (one integer compare per test)
    bar = (den - num) * total
    need = -(-bar // den)
    k = N // 2
    a = b = 0
    w_a = w_b = mass = weight(0, 0, p)
    lower, upper, ends, cov = [0], [0], [], []  # M = 0 has the one interval [0, 0]
    M = a0 = b0 = 0  # [a0, b0] is the interval of the current run
    after = _RUN_AFTER - 1
    run_from = after  # the M from which the current interval may start a run
    while True:
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
                if mass - w_b < need:
                    break
                mass -= w_b
                w_right, w_b = w_b, step_down(w_b, M, b, p)
                b -= 1
            else:
                if mass - w_a < need:
                    break
                mass -= w_a
                w_left, w_a = w_a, step_up(w_a, M, a, p)
                a += 1
        if a == b and a != (n + 1) * (M + 1) // (N + 2):
            # tied modes: the slide stopped at the left one, mode() is the right
            w_left, w_a = w_a, w_right
            a = b = a + 1
            w_b, w_right = w_a, step_up(w_a, M, a, p)
        while mass < need:  # grow: the heavier neighbour, left on ties
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
        if a != a0 or b != b0:  # a new run: the previous one ended at M - 1
            ends.append(M - 1)
            lower.append(a)
            upper.append(b)
            a0, b0 = a, b
            run_from = M + after
        cov.append(mass / total)
        if M >= run_from and lo == 0 and hi == n and M < k:
            stop = _run_end(p, M, a, b, need)
            if stop > M:
                # w_left is w(a-1) at M; both divisions are exact
                t = (n - b) * w_b // (N - M)
                u = (n - a + 1) * w_left // (N - M)  # 0 when a = 0
                # t(M)/t(M-1) = M (N-M+1-n+b) / ((M-b)(N-M)), u(M)/u(M-1) likewise
                tb, ua = N - n + b + 1, N - n + a
                for M in range(M + 1, stop + 1):
                    mass += u - t
                    r = N - M
                    t = t * (M * (tb - M)) // ((M - b) * r)
                    u = u * (M * (ua - M)) // ((M + 1 - a) * r)
                    if mass < need:
                        break
                    cov.append(mass / total)
                w_a, w_b = weight(M, a, p), weight(M, b, p)
                if mass != interval_weight(M, a, b, p) or t * (N - M) != (n - b) * w_b:
                    raise AssertionError(f"{DRIFTED} (run of [{a}, {b}] ending at M={M})")
                if len(cov) == M:  # M is below the level: correct the carried window there
                    continue
        if M == k:
            break
        a, b, w_a, w_b, mass = carry_window(M, a, b, w_a, w_b, mass, p)
        M += 1
    if mass != interval_weight(M, a, b, p) or (w_a, w_b) != (weight(M, a, p), weight(M, b, p)):
        raise AssertionError(DRIFTED)
    ends.append(k)
    return lower, upper, ends, cov


def _run_end(p: Params, M: int, a: int, b: int, need: int) -> int:
    """Last M2 >= M such that the greedy's [a, b] at M stays the greedy's
    on M..M2 wherever it attains the level, with the support at [0, n].

    Each condition but the level (``_greedy_sweep`` lists them) holds at M,
    and each is proven on M..M2 by exact integer probes:
    - (ii) w(a-1) < w(b): w(a-1) / w(b) falls as M rises (the monotone
      likelihood ratio), so it holds on all of M..M2 from M on; no probe.
    - (iii) w(b+1) < w(a): w(b+1) / w(a) rises with M, so it holds on a
      prefix, found by bisection.
    - (iv) [a+1, b] and [a, b-1] miss the level (mass < need): by the
      interval-mass identity the mass of [a+1, b] rises while
      (n-a) w(a) > (n-b) w(b), and that of [a, b-1] while
      (n-a+1) w(a-1) > (n-b+1) w(b-1), each on a prefix, and then falls. So
      each misses on the whole range if it misses at its peak clamped to
      the range, and else on a prefix below the peak.
    A weight comparison c_x w(x) > c_y w(y) is tested through the exact
    ratio w(y) / w(x) (``_heavier``), two ``math.perm`` per probe.
    """
    N, n = p.N, p.n
    stop = _last_true(_heavier(p, a, b + 1, 1, 1), M, min(N // 2, N - n))
    if a < b:
        rising = stop
        # at a = 0, w(a-1) = 0: the mass of [a, b-1] never rises, and misses from M on
        for lo, hi in [(a + 1, b), (a, b - 1)] if a else [(a + 1, b)]:
            # [lo, hi] rises while (n-lo+1) w(lo-1) > (n-hi) w(hi); [a, b-1]
            # rises only where [a+1, b] does (w(b)/w(a) < w(b-1)/w(a-1) by
            # log-concavity), so its bisection starts below [a+1, b]'s bound
            rising = _last_true(_heavier(p, lo - 1, hi, n - lo + 1, n - hi), M, min(rising, stop))
            peak = min(rising + 1, stop)
            if interval_weight(peak, lo, hi, p) >= need:
                stop = _last_true(lambda m: interval_weight(m, lo, hi, p) < need, M, peak)
    return stop


def _heavier(p: Params, x: int, y: int, cx: int, cy: int):
    """m -> cx w_m(x) > cy w_m(y) for 0 <= x < y <= n + 1, exactly, at any m
    with support [0, n].

    w_m(y) / w_m(x) = perm(m-x, d) perm(n-x, d) / (perm(y, d) perm(N-m-n+y, d)),
    d = y - x (the product of the step_up ratios), so the test compares two
    products of d factors each; w_m(n+1) = 0 because perm(n-x, d) = 0.
    """
    N, n = p.N, p.n
    d = y - x
    left, right = cx * perm(y, d), cy * perm(n - x, d)
    s = N - n + y
    return lambda m: left * perm(s - m, d) > right * perm(m - x, d)


def _last_true(holds, lo: int, hi: int) -> int:
    """Largest m in [lo, hi] with holds(m') at every lo < m' <= m, for a
    holds that is true on a prefix of (lo, hi]; by bisection."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def amo_half(p: Params) -> AcceptanceFamily:
    """Greedy acceptance intervals for M = 0..floor(N/2), in one sweep."""
    lower, upper, ends, _ = _greedy_sweep(p)
    return AcceptanceFamily(p, *_per_m(ends, lower, upper))


def _per_m(ends, *runs) -> tuple:
    """Per-M tuples of run lists: each run's value repeated over its M."""
    counts = list(map(sub, ends, [-1, *ends[:-1]]))
    return tuple(tuple(chain.from_iterable(map(repeat, values, counts))) for values in runs)


def _mirror(p: Params, lower, upper, ends=None) -> tuple:
    """Run lists (lower, upper, ends) over M = 0..N from half runs over 0..floor(N/2).

    M <= N/2 keeps the half's runs; M > N/2 takes the reflection
    a_M = n - b_{N-M}, b_M = n - a_{N-M}: a half run on M1..M2 is mirrored
    onto N-M2..N-M1, and at even N the run that holds N/2 is mirrored
    without it. ends None: one M per entry, and the full lists are per M.
    ``symmetrize``, ``inversion._build_runs`` and certify's ``reflect-level``
    check all reflect through it.
    """
    N, n = p.N, p.n
    k = N // 2
    if ends is None:
        ends = range(len(lower))
    if ends[-1] != k:
        raise ValueError(f"expected a half-family over 0..{k}, got one over 0..{ends[-1]}")
    # the runs that start below N/2, the M < N/2 that the upper half mirrors
    r = bisect_left(ends, (N + 1) // 2 - 1) + 1
    full_ends = [*ends, *[N - 1 - e for e in reversed(ends[:r - 1])], N]
    full_lower = [*lower, *[n - b for b in upper[r - 1::-1]]]
    full_upper = [*upper, *[n - a for a in lower[r - 1::-1]]]
    return full_lower, full_upper, full_ends
