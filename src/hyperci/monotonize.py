"""Shift acceptance intervals to nondecreasing endpoints and symmetrize.

The shift step compares each lower endpoint with the running maximum of
lower endpoints (and each upper endpoint with the running minimum computed
backward over the raw uppers). Offending intervals slide up or down by the
gap; the two offender sets are provably disjoint and the slide preserves
both interval length and the coverage level.

Symmetrizing keeps the shifted intervals below N/2, mirrors them above,
and, for even N, replaces the middle entry by the shortest interval
[h, n-h] symmetric about n/2 that still holds 1 - alpha mass.

``adjust`` and ``symmetrize`` wrap the run-list helpers that
``cstar_table`` runs, one entry per run of M with one interval; they pass
their per-M lists as runs of one M each (ends = range(len)).
``inversion._build_runs`` says where the run path checks each invariant.
``_shift`` works in place and returns the one record of what it moved,
an ``AdjustmentTrace`` keyed by M; ``_build_runs`` and ``adjust`` both
hand it on, and ``adjust`` keeps its level and monotonicity checks for
outside families. Its level guard reads ``AcceptanceFamily.masses``, the
one window sweep (``acceptance._window_masses``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .acceptance import AcceptanceFamily, _mirror
from .core import DRIFTED, Params, attains_level, interval_weight, weight


@dataclass(frozen=True)
class AdjustmentTrace:
    """The monotonizing shifts: set_lower maps each raised M to its raise,
    set_upper each dropped M to its drop.

    On endpoints a, b over M = 0..k, raise(M) = max(a_0..a_M) - a_M and
    drop(M) = b_M - min(b_M..b_k), each kept where positive; the two key
    sets are disjoint.
    """

    set_lower: dict
    set_upper: dict


def _shift(lower, upper, ends) -> AdjustmentTrace:
    """Monotonize run lists in place; returns the shifts it applied, per M.

    Run r is [lower[r], upper[r]] on M = ends[r-1]+1..ends[r]. The running
    maximum of the lower endpoints and the backward running minimum of the
    upper ones take one step per run, and a run's shift applies to each of
    its M.
    """
    up, down = {}, {}
    top = lower[0]
    for r, a in enumerate(lower):
        if a < top:
            up[r] = top - a
        else:
            top = a
    bottom = upper[-1]
    for r in range(len(upper) - 1, -1, -1):
        if upper[r] > bottom:
            down[r] = upper[r] - bottom
        else:
            bottom = upper[r]
    if not (up or down):
        return AdjustmentTrace(up, down)
    raises, drops = ({M: d for r, d in moved.items()
                      for M in range(ends[r - 1] + 1 if r else 0, ends[r] + 1)}
                     for moved in (up, down))
    overlap = raises.keys() & drops.keys()
    if overlap:
        raise ValueError(
            f"shift sets overlap at M={sorted(overlap)}; input intervals were "
            "not minimum-cardinality probability maximizers"
        )
    for r, d in up.items():
        lower[r] += d
        upper[r] += d
    for r, d in down.items():
        lower[r] -= d
        upper[r] -= d
    return AdjustmentTrace(raises, drops)


def adjust(half: AcceptanceFamily) -> tuple:
    """Monotonize a raw half-family; returns (adjusted family, trace).

    The input must be level alpha at every M (a corrupt family fails with a
    diagnostic naming the first offending M). Output intervals keep their
    lengths, stay level alpha, and both endpoint sequences are nondecreasing.
    """
    p = half.params
    for M, mass in enumerate(half.masses()):
        if not attains_level(mass, p):
            if mass != interval_weight(M, *half.interval(M), p):
                raise AssertionError(DRIFTED)
            raise ValueError(
                f"input family is not level alpha at M={M}: "
                f"interval {half.interval(M)} has mass {mass}/{p.total_weight}"
            )
    new_a, new_b = list(half.lower), list(half.upper)
    trace = _shift(new_a, new_b, range(len(half)))
    for M in range(len(half) - 1):
        if new_a[M] > new_a[M + 1] or new_b[M] > new_b[M + 1]:
            raise ValueError(
                f"adjusted endpoints not monotone at M={M}; input intervals "
                "were not minimum-cardinality probability maximizers"
            )
    return AcceptanceFamily(p, tuple(new_a), tuple(new_b)), trace


def center_interval(p: Params, raw_center: tuple) -> tuple:
    """Shortest symmetric level-alpha interval [h, n-h] at M = N/2 (N even).

    h = max{x in [0..n] : P_{N/2}(X < x) <= alpha/2} is min(a, n - b) for
    raw_center [a, b], a minimum-cardinality interval of maximal mass, and
    is proven by the level test alone: the pmf at N/2 is symmetric, so
    [h, n-h] attains the level iff P(X < h) <= alpha/2, and [h+1, n-h-1]
    (mass minus 2 w(h); empty if 2h >= n) misses it iff P(X <= h) > alpha/2.
    """
    if p.N % 2:
        raise ValueError(f"center interval needs even N, got N={p.N}")
    k, n = p.N // 2, p.n
    h = min(raw_center[0], n - raw_center[1])
    mass = interval_weight(k, h, n - h, p)
    inner = mass - 2 * weight(k, h, p) if 2 * h < n else 0
    if not attains_level(mass, p) or attains_level(inner, p):
        raise ValueError(f"center proof failed at N={p.N}, n={p.n}: [{h}, {n - h}] from raw "
                         f"center {raw_center} is not the shortest symmetric level interval")
    return (h, n - h)


def symmetrize(adjusted_half: AcceptanceFamily, p: Params) -> AcceptanceFamily:
    """Full symmetric family: keep below N/2, reflect above, center at N/2."""
    if adjusted_half.params != p:
        raise ValueError("family params do not match")
    lower, upper, _ = _mirror(p, adjusted_half.lower, adjusted_half.upper,
                              range(len(adjusted_half)))
    if p.N % 2 == 0:
        k = p.N // 2
        lower[k], upper[k] = center_interval(p, adjusted_half.interval(k))
    return AcceptanceFamily(p, tuple(lower), tuple(upper))
