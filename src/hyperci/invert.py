"""Invert a monotone acceptance family into a confidence table.

C(x) = {M : x in A(M)}. With nondecreasing endpoint sequences this set is
an interval [L(x), U(x)], recovered by one merged sweep over M (no per-x
searches). Coverage at M sums the pmf over the x whose interval contains
M, located by bisection since L and U are monotone.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .acceptance import AcceptanceFamily, Stage, amo_half
from .core import Params, interval_prob
from .monotonize import adjust, symmetrize


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
    N, n = p.N, p.n
    if len(fam) != N + 1:
        raise ValueError("family must cover M = 0..N")
    a, b = fam.lower, fam.upper
    for M in range(N):
        if a[M] > a[M + 1] or b[M] > b[M + 1]:
            raise ValueError(
                f"family endpoints not nondecreasing at M={M}; inversion "
                "would not be interval-valued"
            )
    lower = [0] * (n + 1)
    upper = [0] * (n + 1)
    m_low = 0   # min M with b_M >= x
    m_high = 0  # max M with a_M <= x
    for x in range(n + 1):
        while m_low <= N and b[m_low] < x:
            m_low += 1
        while m_high < N and a[m_high + 1] <= x:
            m_high += 1
        if m_low > N or m_low > m_high:
            raise ValueError(f"no acceptance interval contains x={x}")
        lower[x] = m_low
        upper[x] = m_high
    return ConfidenceTable(p, method, tuple(lower), tuple(upper))


def coverage(tbl: ConfidenceTable, M: int) -> float:
    """P_M(M in C(X)): the chance the reported interval captures M."""
    p = tbl.params
    p.check_m(M)
    # qualifying x form an interval because L and U are nondecreasing
    x_lo = bisect_left(tbl.upper, M)
    x_hi = bisect_right(tbl.lower, M) - 1
    if x_lo > x_hi:
        return 0.0
    return interval_prob(M, x_lo, x_hi, p)


def total_size_diff(a: ConfidenceTable, b: ConfidenceTable) -> int:
    """a.total_size - b.total_size; tables must share one problem instance."""
    if a.params != b.params:
        raise ValueError("tables were built for different (N, n, alpha)")
    return a.total_size - b.total_size


def cstar_table(p: Params, workers: int = 0) -> ConfidenceTable:
    """Full pipeline: greedy intervals, shift, symmetrize, invert."""
    adjusted, _ = adjust(amo_half(p, workers))
    return invert(symmetrize(adjusted, p), Method.CSTAR)


def acceptance_of(tbl: ConfidenceTable) -> AcceptanceFamily:
    """Dual family A(M) = {x : M in C(x)}, an interval by monotonicity."""
    p = tbl.params
    lower, upper = [], []
    for M in range(p.N + 1):
        x_lo = bisect_left(tbl.upper, M)
        x_hi = bisect_right(tbl.lower, M) - 1
        if x_lo > x_hi:
            raise ValueError(f"table accepts no x at M={M}")
        lower.append(x_lo)
        upper.append(x_hi)
    return AcceptanceFamily(p, Stage.SYMMETRIZED, tuple(lower), tuple(upper))


# -- CSV schema ---------------------------------------------------------------
#
#   # hyperci table N=500 n=100 alpha=0.05 method=cstar
#   x,L,U
#   0,0,14
#   ...
#   # total_size: 7129
#   # time_s: 0.0123        (optional footer, excluded from determinism)


def table_to_csv(tbl: ConfidenceTable, elapsed_s: float = None, sep: str = ",") -> str:
    p = tbl.params
    lines = [
        f"# hyperci table N={p.N} n={p.n} alpha={p.alpha} method={tbl.method.value}",
        sep.join(("x", "L", "U")),
    ]
    for x in range(p.n + 1):
        lines.append(sep.join((str(x), str(tbl.lower[x]), str(tbl.upper[x]))))
    lines.append(f"# total_size: {tbl.total_size}")
    if elapsed_s is not None:
        lines.append(f"# time_s: {elapsed_s:.4f}")
    return "\n".join(lines) + "\n"


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
    alpha_text = meta["alpha"]
    alpha = Fraction(alpha_text) if "/" in alpha_text else float(alpha_text)
    p = Params(int(meta["N"]), int(meta["n"]), alpha)
    method = Method(meta.get("method", "cstar"))
    rows.sort()
    if [x for x, _, _ in rows] != list(range(p.n + 1)):
        raise ValueError("table rows do not cover x = 0..n exactly once")
    tbl = ConfidenceTable(
        p, method, tuple(r[1] for r in rows), tuple(r[2] for r in rows)
    )
    if total is not None and total != tbl.total_size:
        raise ValueError(f"footer total_size {total} != computed {tbl.total_size}")
    return tbl
