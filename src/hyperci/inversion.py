"""Invert a monotone acceptance family into a confidence table.

C(x) = {M : x in A(M)}; with nondecreasing endpoints it is an interval
[L(x), U(x)], L(x) = min{M : b_M >= x} and U(x) = max{M : a_M <= x}: two
bisections of the sorted endpoint lists per x, which may hold one entry
per run of M with one interval. ``_inverse`` is that inversion, and the
only one: ``invert``, ``cstar_table`` and ``pivot_table`` all run it.

``cstar_table`` is ``_build_runs(p)[0]``, the C* pipeline on the greedy's
runs; ``_build_runs``'s docstring lists where it checks each invariant,
and ``_build`` expands its family to per-M lists for certify and tests.
Its level masses over C(N, n) are the coverage at
M = 0..N/2 (``invert(fam)`` has dual ``fam``; coverage(N - M) =
coverage(M)), so the table keeps them; other tables are summed per M, or
over the half in one sweep of their dual (``_half_coverage``).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .acceptance import AcceptanceFamily, _check_support, _greedy_sweep, _mirror, _per_m
from .core import Params, attains_level, interval_prob, interval_weight
from .monotonize import _center, _shift


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
    # set only by cstar_table, so replace() and hand-built tables carry none
    _coverage: tuple = field(default=None, init=False, compare=False, repr=False)

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
    return ConfidenceTable(fam.params, method, *_inverse(fam.params, fam.lower, fam.upper))


def _inverse(p: Params, a, b, ends=None) -> tuple:
    """Endpoint tuples (L, U) inverting the family [a[r], b[r]] on the runs
    M = ends[r-1]+1..ends[r] that cover M = 0..N (ends None: one M per entry).

    L(x) is the first M of the first run with b >= x and U(x) the last M of
    the last run with a <= x: two bisections of the run lists per x.
    Every family here lies in its supports, so a[0] = 0 and b[-1] = n (M = 0
    and M = N have one-point supports): each x has some b >= x and some
    a <= x. An x that no interval contains gets L(x) > U(x); every caller
    builds a ``ConfidenceTable`` from the rows, which rejects such a row.
    """
    N, n = p.N, p.n
    # bounds[r] + 1 is the first M of run r and bounds[r + 1] its last
    bounds = range(-1, len(a)) if ends is None else [-1, *ends]
    if not len(a) == len(b) == len(bounds) - 1 or bounds[-1] != N:
        raise ValueError("family must cover M = 0..N")
    if list(a) != sorted(a) or list(b) != sorted(b):  # sorting a sorted list is one C pass
        r = next(r for r in range(len(a) - 1) if a[r] > a[r + 1] or b[r] > b[r + 1])
        raise ValueError(f"family endpoints not nondecreasing at M={bounds[r + 1]}; "
                         "inversion would not be interval-valued")
    xs = range(n + 1)
    if ends is None:  # one M per entry: the run index is M
        return tuple([bisect_left(b, x) for x in xs]), tuple([bisect_right(a, x) - 1 for x in xs])
    return (tuple([bounds[bisect_left(b, x)] + 1 for x in xs]),
            tuple([bounds[bisect_right(a, x)] for x in xs]))


def coverage(tbl: ConfidenceTable, M: int) -> float:
    """P_M(M in C(X)): the chance the reported interval captures M."""
    p = tbl.params
    N = p.N
    if tbl._coverage is not None and 0 <= M <= N:  # a C* table, which stores M = 0..N/2
        return tbl._coverage[M if M + M <= N else N - M]
    p.check_m(M)
    # qualifying x form an interval because L and U are nondecreasing
    x_lo = bisect_left(tbl.upper, M)
    x_hi = bisect_right(tbl.lower, M) - 1
    return interval_prob(M, x_lo, x_hi, p)  # 0.0 for an empty window


def _half_coverage(tbl: ConfidenceTable) -> tuple:
    """coverage(tbl, M) at M = 0..N/2; tables are symmetric, so coverage(N - M) = coverage(M).

    A C* table's stored values, else one carried sweep of the dual's half.
    """
    if tbl._coverage is not None:
        return tbl._coverage
    p = tbl.params
    half = AcceptanceFamily(p, *_dual(tbl, p.N // 2 + 1))
    return tuple(m / p.total_weight for m in half.masses())


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
    Each of its invariants is checked once: the level at M = 0..N/2, by the
    greedy's exact test at every M (its grow loop's exit, or a run's per-M
    test), else by an exact sum at each M of a run the shift moved, and at
    an even-N centre by the mass its proof summed (``_center``); the
    carried masses, against ``interval_weight`` at each run end and after
    the greedy's last M; the support, by ``_check_support`` once per run of
    the half (``_mirror`` maps the support of M onto that of N - M);
    monotone endpoints in ``_inverse``, once per run; reflection symmetry
    in ``ConfidenceTable``, which a mirror fault that changes a row breaks.
    p is valid, so a failed check is a program fault (AssertionError).
    """
    try:
        greedy_lower, greedy_upper, ends, cov = _greedy_sweep(p)
        lower, upper = list(greedy_lower), list(greedy_upper)
        trace = _shift(lower, upper, ends)
        N, k = p.N, p.N // 2
        # cov holds the greedy's level-checked masses; each M of a run the
        # shift moved is summed again, except an even-N centre, which the
        # centre replaces with the interval and the mass that its proof summed
        if lower != greedy_lower or upper != greedy_upper:  # one C-level pass
            last = k - 1 if N % 2 == 0 else k
            for r, (a, b) in enumerate(zip(lower, upper)):
                if a != greedy_lower[r] or b != greedy_upper[r]:
                    for M in range(ends[r - 1] + 1 if r else 0, min(ends[r], last) + 1):
                        mass = interval_weight(M, a, b, p)
                        if not attains_level(mass, p):
                            raise AssertionError(f"C* family below level at M={M}: {a, b}")
                        cov[M] = mass / p.total_weight
        pre_centre = (lower[-1], upper[-1])
        if N % 2 == 0:
            centre, mass = _center(p, pre_centre)
            if not attains_level(mass, p):
                raise AssertionError(f"C* family below level at M={k}: {centre}")
            cov[k] = mass / p.total_weight
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
        object.__setattr__(tbl, "_coverage", tuple(cov))
        return tbl, lower, upper, ends, trace, pre_centre
    except ValueError as e:  # p is valid, so a failed self-check is a program fault
        raise AssertionError(f"C* pipeline self-check failed: {e}") from e


def acceptance_of(tbl: ConfidenceTable) -> AcceptanceFamily:
    """Dual family A(M) = {x : M in C(x)}, an interval by monotonicity."""
    return AcceptanceFamily(tbl.params, *_dual(tbl, tbl.params.N + 1))


def _dual(tbl: ConfidenceTable, count: int) -> tuple:
    """Dual endpoints (lower, upper) at M = 0..count-1, two bisections of the table per M."""
    lower, upper = [], []
    for M in range(count):
        x_lo = bisect_left(tbl.upper, M)
        x_hi = bisect_right(tbl.lower, M) - 1
        if x_lo > x_hi:
            raise ValueError(f"table accepts no x at M={M}")
        lower.append(x_lo)
        upper.append(x_hi)
    return tuple(lower), tuple(upper)


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
