"""Invert a monotone acceptance family into a confidence table.

C(x) = {M : x in A(M)}; with nondecreasing endpoints it is an interval
[L(x), U(x)], L(x) = min{M : b_M >= x} and U(x) = max{M : a_M <= x}: two
bisections of the sorted endpoint lists per x. ``_inverse`` is that
inversion, and the only one: ``invert``, ``cstar_table`` and
``pivot_table`` all run it.

``cstar_table`` is ``_build(p)[0]``; ``_build``'s docstring lists where it
checks each invariant. Its level masses over C(N, n) are the coverage at
M = 0..N/2 (``invert(fam)`` has dual ``fam``; coverage(N - M) =
coverage(M)), so the table keeps them; other tables are summed per M, or
over the half in one sweep of their dual (``_half_coverage``).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .acceptance import AcceptanceFamily, _check_support, _greedy_sweep, _mirror
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


def _inverse(p: Params, a, b) -> tuple:
    """Endpoint tuples (L, U) inverting the family [a[M], b[M]], M = 0..N.

    Every family here lies in its supports, so a[0] = 0 and b[N] = n (M = 0
    and M = N have one-point supports): each x has some b_M >= x and some
    a_M <= x. An x that no interval contains gets L(x) > U(x); every caller
    builds a ``ConfidenceTable`` from the rows, which rejects such a row.
    """
    N, n = p.N, p.n
    if len(a) != N + 1 or len(b) != N + 1:
        raise ValueError("family must cover M = 0..N")
    if list(a) != sorted(a) or list(b) != sorted(b):  # sorting a sorted list is one C pass
        M = next(M for M in range(N) if a[M] > a[M + 1] or b[M] > b[M + 1])
        raise ValueError(f"family endpoints not nondecreasing at M={M}; "
                         "inversion would not be interval-valued")
    xs = range(n + 1)
    return tuple([bisect_left(b, x) for x in xs]), tuple([bisect_right(a, x) - 1 for x in xs])


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
    """``invert(symmetrize(adjust(amo_half(p))[0], p))``, run on endpoint lists."""
    return _build(p)[0]


def _build(p: Params) -> tuple:
    """(table, lower, upper, trace, A(N//2) before the centre).

    lower and upper are the family over M = 0..N that the table inverts;
    trace is ``_shift``'s ``AdjustmentTrace``, the same record that
    ``adjust(amo_half(p))`` returns.
    Each of its invariants is checked once: the level at M = 0..N/2, by the
    greedy's exact test at every M (its grow loop's exit, or a run's per-M
    test), else by an exact sum for the few intervals the shift moved, and
    at an even-N centre by the mass its proof summed (``_center``); the
    carried masses, against ``interval_weight`` at each run end and after
    the greedy's last M; the support there, by ``_check_support``
    (``_mirror`` maps the support of M onto that of N - M); monotone
    endpoints in ``_inverse``; reflection symmetry in ``ConfidenceTable``,
    which a mirror fault that changes a row breaks.
    p is valid, so a failed check is a program fault (AssertionError).
    """
    try:
        greedy_lower, greedy_upper, cov = _greedy_sweep(p)
        lower, upper = list(greedy_lower), list(greedy_upper)
        trace = _shift(lower, upper)
        k = p.N // 2
        # cov holds the greedy's level-checked masses; an interval the shift
        # changed is summed again, except an even-N centre, which the centre
        # replaces with the interval and the mass that its proof summed
        if lower != greedy_lower or upper != greedy_upper:  # one C-level pass
            for M in range(k if p.N % 2 == 0 else k + 1):
                if lower[M] != greedy_lower[M] or upper[M] != greedy_upper[M]:
                    mass = interval_weight(M, lower[M], upper[M], p)
                    if not attains_level(mass, p):
                        raise AssertionError(f"C* family below level at M={M}: {lower[M], upper[M]}")
                    cov[M] = mass / p.total_weight
        pre_centre = (lower[k], upper[k])
        if p.N % 2 == 0:
            (lower[k], upper[k]), mass = _center(p, pre_centre)
            if not attains_level(mass, p):
                raise AssertionError(f"C* family below level at M={k}: {lower[k], upper[k]}")
            cov[k] = mass / p.total_weight
        _check_support(p, lower, upper)
        del greedy_lower, greedy_upper  # freed before the full-length lists: peak memory
        lower, upper = _mirror(p, lower, upper)
        tbl = ConfidenceTable(p, Method.CSTAR, *_inverse(p, lower, upper))
        object.__setattr__(tbl, "_coverage", tuple(cov))
        return tbl, lower, upper, trace, pre_centre
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
