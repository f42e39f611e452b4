"""Invert a monotone acceptance family into a confidence table.

C(x) = {M : x in A(M)}; with nondecreasing endpoints it is an interval
[L(x), U(x)], L(x) = min{M : b_M >= x} and U(x) = max{M : a_M <= x}: two
bisections of the sorted endpoint lists per x, which may hold one entry
per run of M with one interval. ``_inverse`` is that inversion, and the
only one: ``invert``, ``cstar_table`` and ``pivot_table`` all run it.

``cstar_table`` is ``_build_runs(p)[0]``, the C* pipeline on the greedy's
runs; ``_build_runs``'s docstring lists where it checks each invariant,
and ``_build`` expands its family to per-M lists for certify and tests.

Coverage at M is the mass of the dual window A(M) = [x_lo(M), x_hi(M)]
(``invert(fam)`` has dual ``fam``), and coverage(N - M) = coverage(M).
Every table gets it one way: the first read runs one sweep over the dual
runs of M = 0..N/2 (``_half_coverage``, through the one window sweep
``acceptance._window_masses``) and caches the result, which a later read
looks up. On a table that ``cstar_table`` or ``pivot_table`` built, the
sweep also tests the level exactly at every M.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import truediv

from .acceptance import (AcceptanceFamily, _check_support, _greedy_sweep, _level_need, _mirror,
                         _per_m, _window_masses)
from .core import Params, attains_level, interval_weight
from .monotonize import _shift, center_interval


class Method(enum.Enum):
    CSTAR = "cstar"
    PIVOT = "pivot"


@dataclass(frozen=True)
class ConfidenceTable:
    """Intervals [lower[x], upper[x]] for M, one per observed x in 0..n."""

    params: Params
    method: Method
    lower: tuple
    upper: tuple
    # coverage at M = 0..N/2, cached by the first read (``_half_coverage``);
    # replace() builds a new table, which carries neither field
    _coverage: tuple = field(default=None, init=False, compare=False, repr=False)
    # set by cstar_table and pivot_table (``_claim_level``): the sweep tests
    # their level at every M
    _claims_level: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        N, n = self.params.N, self.params.n
        if len(self.lower) != n + 1 or len(self.upper) != n + 1:
            raise ValueError("table must have one row per x in 0..n")
        for x in range(n + 1):
            if not 0 <= self.lower[x] <= self.upper[x] <= N:
                raise ValueError(
                    f"invalid interval [{self.lower[x]}, {self.upper[x]}] at x={x}"
                )
        for x in range(n):
            if self.lower[x] > self.lower[x + 1] or self.upper[x] > self.upper[x + 1]:
                raise ValueError(f"endpoints not nondecreasing at x={x}")
        for x in range(n + 1):
            if self.lower[x] != N - self.upper[n - x]:
                raise ValueError(f"symmetry broken at x={x}")

    def interval(self, x: int) -> tuple:
        return (self.lower[x], self.upper[x])

    @property
    def total_size(self) -> int:
        return sum(b - a + 1 for a, b in zip(self.lower, self.upper))


def invert(fam: AcceptanceFamily, method: Method = Method.CSTAR) -> ConfidenceTable:
    """Confidence table from a full family with nondecreasing endpoints."""
    p = fam.params
    return ConfidenceTable(p, method, *_inverse(p, fam.lower, fam.upper, range(len(fam))))


def _inverse(p: Params, a, b, ends) -> tuple:
    """Endpoint tuples (L, U) inverting the family [a[r], b[r]] on the runs
    M = ends[r-1]+1..ends[r] that cover M = 0..N.

    L(x) is the first M of the first run with b >= x and U(x) the last M of
    the last run with a <= x: two bisections of the run lists per x.
    Every family here lies in its supports, so a[0] = 0 and b[-1] = n (M = 0
    and M = N have one-point supports): each x has some b >= x and some
    a <= x. An x that no interval contains gets L(x) > U(x); every caller
    builds a ``ConfidenceTable`` from the rows, which rejects such a row.
    """
    N, n = p.N, p.n
    if not len(a) == len(b) == len(ends) or ends[-1] != N:
        raise ValueError("family must cover M = 0..N")
    if list(a) != sorted(a) or list(b) != sorted(b):  # sorting a sorted list is one C pass
        r = next(r for r in range(len(a) - 1) if a[r] > a[r + 1] or b[r] > b[r + 1])
        raise ValueError(f"family endpoints not nondecreasing at M={ends[r]}; "
                         "inversion would not be interval-valued")
    # run r starts at ends[r-1] + 1 and run 0 at M = 0; ends is read only at
    # the n + 1 bisected runs, never copied (it may hold one M per entry)
    xs = range(n + 1)
    return (tuple([ends[r - 1] + 1 if r else 0 for r in map(bisect_left, repeat(b), xs)]),
            tuple([ends[r - 1] if r else -1 for r in map(bisect_right, repeat(a), xs)]))


def coverage(tbl: ConfidenceTable, M: int) -> float:
    """P_M(M in C(X)): the chance the reported interval captures M."""
    p = tbl.params
    N = p.N
    if tbl._coverage is not None and 0 <= M <= N:  # a table read before caches M = 0..N/2
        return tbl._coverage[M if M + M <= N else N - M]
    p.check_m(M)
    return _half_coverage(tbl)[M if M + M <= N else N - M]


def _half_coverage(tbl: ConfidenceTable) -> tuple:
    """coverage(tbl, M) at M = 0..N/2; tables are symmetric, so coverage(N - M) = coverage(M).

    One sweep of the dual's runs (``_window_masses``), each mass over
    C(N, n) as it streams, cached in _coverage; on a table marked
    _claims_level it tests the level at every M. A concurrent first read at
    worst sweeps twice.
    """
    if tbl._coverage is None:
        p = tbl.params
        need = _level_need(p) if tbl._claims_level else 0
        masses = _window_masses(p, *_dual_runs(tbl, p.N // 2), need)
        object.__setattr__(tbl, "_coverage", tuple(map(truediv, masses, repeat(p.total_weight))))
    return tbl._coverage


def _claim_level(tbl: ConfidenceTable) -> ConfidenceTable:
    """tbl marked as built level 1 - alpha: a coverage below it is a program fault."""
    object.__setattr__(tbl, "_claims_level", True)
    return tbl


def total_size_diff(a: ConfidenceTable, b: ConfidenceTable) -> int:
    """a.total_size - b.total_size; tables must share one problem instance."""
    if a.params != b.params:
        raise ValueError("tables were built for different (N, n, alpha)")
    return a.total_size - b.total_size


def cstar_table(p: Params) -> ConfidenceTable:
    """``invert(symmetrize(adjust(amo_half(p))[0], p))``, run on run lists."""
    return _build_runs(p)[0]


def _build(p: Params) -> tuple:
    """(table, lower, upper, trace, A(N//2) before the centre), with the
    family as per-M tuples over M = 0..N: ``_build_runs`` expanded."""
    tbl, lower, upper, ends, trace, pre_centre = _build_runs(p)
    return (tbl, *_per_m(ends, lower, upper), trace, pre_centre)


def _build_runs(p: Params) -> tuple:
    """(table, lower, upper, ends, trace, A(N//2) before the centre).

    lower, upper and ends are the run lists of the family over M = 0..N
    that the table inverts (run r is [lower[r], upper[r]] on
    M = ends[r-1]+1..ends[r]); trace is ``_shift``'s ``AdjustmentTrace``,
    the same per-M record that ``adjust(amo_half(p))`` returns. Every stage
    after the greedy takes one step per run.
    Each of its invariants is checked once:
    - the level at M = 0..N/2: at each M that the greedy's per-M moves
      correct, by their grow loop's exit; on a greedy run, by the exact
      probes of the bisection that ends it (the level holds on a prefix of
      the run); at each M of a run the shift moved, by an exact sum; at an
      even-N centre, by its proof (``center_interval``). The table is
      marked _claims_level, so the first coverage read tests the level
      again at every M (``_half_coverage``);
    - the greedy's carried masses, against ``interval_weight`` at each run
      start and after its last M;
    - the support, by ``_check_support`` once per run of the half
      (``_mirror`` maps the support of M onto that of N - M);
    - monotone endpoints, in ``_inverse``, once per run;
    - reflection symmetry, in ``ConfidenceTable``, which a mirror fault
      that changes a row breaks.
    p is valid, so a failed check is a program fault (AssertionError).
    """
    try:
        greedy_lower, greedy_upper, ends = _greedy_sweep(p)
        lower, upper = list(greedy_lower), list(greedy_upper)
        trace = _shift(lower, upper, ends)
        N, k = p.N, p.N // 2
        # each M of a run the shift moved is summed again, except an even-N
        # centre, which center_interval replaces and proves
        if lower != greedy_lower or upper != greedy_upper:  # one C-level pass
            last = k - 1 if N % 2 == 0 else k
            for r, (a, b) in enumerate(zip(lower, upper)):
                if a != greedy_lower[r] or b != greedy_upper[r]:
                    for M in range(ends[r - 1] + 1 if r else 0, min(ends[r], last) + 1):
                        if not attains_level(interval_weight(M, a, b, p), p):
                            raise AssertionError(f"C* family below level at M={M}: {a, b}")
        pre_centre = (lower[-1], upper[-1])
        if N % 2 == 0:
            centre = center_interval(p, pre_centre)
            if len(ends) > 1 and ends[-2] == k - 1:  # the last run is the centre alone
                lower[-1], upper[-1] = centre
            else:  # the centre splits it
                ends[-1] = k - 1
                ends.append(k)
                lower.append(centre[0])
                upper.append(centre[1])
        _check_support(p, lower, upper, ends)
        del greedy_lower, greedy_upper  # freed before the full-length lists: peak memory
        lower, upper, ends = _mirror(p, lower, upper, ends)
        tbl = ConfidenceTable(p, Method.CSTAR, *_inverse(p, lower, upper, ends))
        return _claim_level(tbl), lower, upper, ends, trace, pre_centre
    except ValueError as e:  # p is valid, so a failed self-check is a program fault
        raise AssertionError(f"C* pipeline self-check failed: {e}") from e


def acceptance_of(tbl: ConfidenceTable) -> AcceptanceFamily:
    """Dual family A(M) = {x : M in C(x)}, an interval by monotonicity."""
    lower, upper, ends = _dual_runs(tbl, tbl.params.N)
    for r, (a, b) in enumerate(zip(lower, upper)):
        if a > b:
            raise ValueError(f"table accepts no x at M={ends[r - 1] + 1 if r else 0}")
    return AcceptanceFamily(tbl.params, *_per_m(ends, lower, upper))


def _dual_runs(tbl: ConfidenceTable, last: int) -> tuple:
    """Run lists (lower, upper, ends) of the dual [x_lo(M), x_hi(M)] on M = 0..last.

    x_lo(M) = #{x : U(x) < M} and x_hi(M) = #{x : L(x) <= M} - 1 change only
    at M = U(x) + 1 and M = L(x): at most 2n + 2 runs, each read by the two
    bisections of its first M. An M that no row holds has x_lo = x_hi + 1.
    """
    starts = sorted({0, *[M for M in tbl.lower if M <= last],
                     *[U + 1 for U in tbl.upper if U < last]})
    return ([bisect_left(tbl.upper, M) for M in starts],
            [bisect_right(tbl.lower, M) - 1 for M in starts],
            [M - 1 for M in starts[1:]] + [last])


# -- CSV schema ---------------------------------------------------------------
#
#   # hyperci table N=500 n=100 alpha=0.05 method=cstar
#   x,L,U
#   0,0,14
#   ...
#   # total_size: 7129
#   # time_s: 0.0123        (optional footer, excluded from determinism)


def table_to_csv(tbl: ConfidenceTable, elapsed_s: float = None) -> str:
    p = tbl.params
    lines = [
        f"# hyperci table N={p.N} n={p.n} alpha={p.alpha} method={tbl.method.value}",
        "x,L,U",
    ]
    for x in range(p.n + 1):
        lines.append(f"{x},{tbl.lower[x]},{tbl.upper[x]}")
    lines.append(f"# total_size: {tbl.total_size}")
    if elapsed_s is not None:
        lines.append(f"# time_s: {elapsed_s:.4f}")
    return "\n".join(lines) + "\n"


def _parse_alpha(text: str):
    """A fraction a/b as an exact Fraction (only then is fractions loaded), else a float."""
    if "/" not in text:
        return float(text)
    from fractions import Fraction

    return Fraction(text)


def table_from_csv(text: str) -> ConfidenceTable:
    """Parse the schema above back into a validated table."""
    meta = {}
    rows = []
    total = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("# ")
            if body.startswith("hyperci table"):
                for part in body.split()[2:]:
                    key, _, val = part.partition("=")
                    meta[key] = val
            elif body.startswith("total_size:"):
                total = int(body.split(":")[1])
            continue
        cells = line.replace("\t", ",").split(",")
        if cells[0] == "x":
            continue
        try:
            x, low, high = (int(c) for c in cells)
        except ValueError:
            raise ValueError(
                f"line {lineno}: expected a row of three integers x,L,U, got {line!r}"
            ) from None
        rows.append((x, low, high))
    if not meta:
        raise ValueError("missing metadata header line")
    for key in ("N", "n", "alpha"):
        if key not in meta:
            raise ValueError(f"metadata header lacks {key}=")
    meta.setdefault("method", Method.CSTAR.value)

    def value(key, parse):
        try:
            return parse(meta[key])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"metadata header has a bad value {key}={meta[key]}") from None

    alpha = value("alpha", _parse_alpha)
    p = Params(value("N", int), value("n", int), alpha)
    method = value("method", Method)
    rows.sort()
    if [x for x, _, _ in rows] != list(range(p.n + 1)):
        raise ValueError("table rows do not cover x = 0..n exactly once")
    tbl = ConfidenceTable(
        p, method, tuple(r[1] for r in rows), tuple(r[2] for r in rows)
    )
    if total is not None and total != tbl.total_size:
        raise ValueError(f"footer total_size {total} != computed {tbl.total_size}")
    return tbl
