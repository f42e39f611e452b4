"""Grid certification: exact brute-force verification of every claim.

Builds each C* table of a small grid of (N, n, alpha) instances once, with
alpha as an exact rational, and checks the table that ``cstar_table`` ships
and the evidence its build returns (the family it inverted, the shift
trace, the centre's input) against the oracle module's naive searches; the
greedy half is that family's lower half with the traced shifts undone. It also
verifies the supporting distribution properties exhaustively in integer
arithmetic. Produces a text report with one line per check and instance
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle
from .acceptance import AcceptanceFamily, _mirror
from .core import Params, mode, support
from .inversion import _build, acceptance_of, coverage, invert
from .pivot import _sweep_table, pivot_ci, pivot_table

DEFAULT_ALPHAS = (
    Fraction(1, 100),
    Fraction(1, 20),
    Fraction(1, 10),
    Fraction(1, 5),
    Fraction(3, 5),
)

MAX_FAILURES_KEPT = 12

# largest N (n for SUBSET_CAP in check_instance) of the costlier checks
PROPERTY_CAP = 20  # pmf shape, MLR, the mass identity, peak shifts
RATIO_CAP = 25     # pmf-ratio order and interval-mass peak shape
SUBSET_CAP = 12    # subset enumeration
PIVOT_CAP = 20     # the oracle's linear pivot scan


@dataclass
class Tally:
    """Outcome of one named check, summed over instances."""

    name: str
    instances: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, count: int, failure: str = None):
        self.instances += count
        if failure and len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(failure)


class Tallies(dict):
    def hit(self, name: str, count: int = 1, failure: str = None):
        self.setdefault(name, Tally(name)).add(count, failure)

    def metric_max(self, name: str, key: str, value, tag):
        """Keep the largest (value, tag): a tie on value goes to the larger tag."""
        t = self.setdefault(name, Tally(name))
        cur = t.metrics.get(key)
        if cur is None or (value, tag) > cur:
            t.metrics[key] = (value, tag)

    def metric_count(self, name: str, key: str, inc: int = 1):
        t = self.setdefault(name, Tally(name))
        t.metrics[key] = t.metrics.get(key, 0) + inc


@dataclass
class CertificationReport:
    checks: list
    grid: str

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.checks)

    def metric(self, check: str, key: str):
        for t in self.checks:
            if t.name == check:
                return t.metrics.get(key)
        return None

    @property
    def gap_instances(self) -> int:
        """Even-parity instances where |C*| sits one above the set bound."""
        return self.metric("size-optimality", "set_gap_instances") or 0

    def render(self) -> str:
        lines = [f"certification grid: {self.grid}"]
        for t in sorted(self.checks, key=lambda t: t.name):
            status = "FAIL" if not t.ok else ("INFO" if t.instances == 0 else "PASS")
            extra = "".join(
                f", {k}={v}" for k, v in sorted(t.metrics.items())
            )
            lines.append(f"{status} {t.name}: {t.instances} checks{extra}")
            for f in t.failures:
                lines.append(f"    failure: {f}")
        lines.append("RESULT: " + ("all checks passed" if self.ok else "FAILURES FOUND"))
        return "\n".join(lines) + "\n"


def check_instance(t: Tallies, N: int, n: int, alpha: Fraction) -> None:
    """Add all pipeline checks for one (N, n, alpha) instance to ``t``."""
    tag = f"(N={N}, n={n}, alpha={alpha})"
    p = Params(N, n, alpha)
    bar = (1 - alpha) * p.total_weight
    rows = [oracle.prefix_row(M, p) for M in range(N + 1)]
    k = N // 2

    def below_level(family):
        return [
            M
            for M, (a, b) in enumerate(zip(family.lower, family.upper))
            if oracle.window_mass(rows[M], a, b) < bar
        ]

    tbl, lower, upper, trace, (a_k, b_k) = _build(p)
    up, down = trace.set_lower, trace.set_upper
    fam = AcceptanceFamily(p, tuple(lower), tuple(upper))
    ptbl = pivot_table(p)
    # the shifted half M = 0..N//2 (its centre before the even-N centre
    # replaced it), and the greedy half: the same with the shifts undone
    shifted = AcceptanceFamily(p, fam.lower[:k] + (a_k,), fam.upper[:k] + (b_k,))
    undo = [down.get(M, 0) - up.get(M, 0) for M in range(k + 1)]
    half = AcceptanceFamily(p, tuple(a + d for a, d in zip(shifted.lower, undo)),
                            tuple(b + d for b, d in zip(shifted.upper, undo)))

    # greedy output must have minimum cardinality and, within that
    # cardinality, maximal probability
    cards = []
    for M in range(k + 1):
        card, _, best = oracle.min_level_interval(M, p, alpha)
        cards.append(card)
        ours = half.length(M)
        mass = Fraction(oracle.window_mass(rows[M], *half.interval(M)), p.total_weight)
        if ours != card:
            t.hit("greedy-min-cardinality", 1, f"{tag} M={M}: got {ours}, oracle {card}")
        else:
            t.hit("greedy-min-cardinality", 1)
        if mass != best:
            t.hit("greedy-max-probability", 1, f"{tag} M={M}: mass {mass} != {best}")
        else:
            t.hit("greedy-max-probability", 1)

    # one-endpoint monotonicity violations only (raw family), and centers
    # sitting at or below n/2 before symmetrization
    ok = all(
        not (half.lower[M2] < half.lower[M1] and half.upper[M2] < half.upper[M1])
        for M1 in range(k + 1)
        for M2 in range(M1 + 1, k + 1)
    )
    ok = ok and all(
        half.lower[M] + half.upper[M] <= n for M in range(k + 1) if 2 * M < N
    )
    t.hit("raw-structure", 1, None if ok else f"{tag} raw family structure broken")

    # shift bookkeeping: the trace's shifts must be the greedy half's offenders,
    # raise(M) = max(a_0..a_M) - a_M and drop(M) = b_M - min(b_M..b_k) where positive
    a, b = half.lower, half.upper
    raises = {M: d for M in range(k + 1) if (d := max(a[:M + 1]) - a[M]) > 0}
    drops = {M: d for M in range(k + 1) if (d := b[M] - min(b[M:])) > 0}
    ok = raises == up and drops == down and not (up.keys() & down.keys())
    t.hit("shift-disjoint-sets", 1,
          None if ok else f"{tag} shifts {up}, {down}; by definition {raises}, {drops}")
    ok = all(shifted.length(M) == cards[M] for M in range(k + 1))
    t.hit("shift-length-preserved", 1, None if ok else f"{tag} lengths changed")
    bad = below_level(shifted)
    t.hit("shift-level-preserved", 1, None if not bad else f"{tag} M={bad[:3]}")
    max_delta = max([*up.values(), *down.values()], default=0)
    t.metric_max("shift-metrics", "max_delta", max_delta, tag)

    # center interval formulas (even N): the build's centre must be [h, n - h]
    # with h the oracle's tail scan, min{x : P(X <= x) > alpha/2}; the max-form
    # shortcut's disagreements with h are a metric rather than failures
    if N % 2 == 0:
        h = oracle.lower_quantile(k, alpha / 2, p)
        ok = fam.interval(k) == (h, n - h)
        t.hit("center-formulas", 1, None if ok else f"{tag}: centre {fam.interval(k)}")
        if max(a_k, n - b_k) != h:
            t.metric_count("center-formulas", "maxform_disagreements")

    # the inverted family: reflection, nondecreasing endpoints, level at
    # every M, and mirrored lengths
    bad = below_level(fam)
    ok = (
        not bad
        and len(fam) == N + 1
        and all(fam.lower[M] + fam.upper[N - M] == n for M in range(N + 1))
        and all(fam.lower[M] <= fam.lower[M + 1] and fam.upper[M] <= fam.upper[M + 1]
                for M in range(N))
        and all(fam.length(M) == fam.length(N - M) for M in range(N + 1))
    )
    t.hit("family-level", 1,
          None if ok else f"{tag} symmetrized reflection/order/level/length {bad[:3]}")

    # the greedy half reflected onto M = 0..N, unshifted
    reflected = _mirror(p, half.lower, half.upper, range(len(half)))
    bad = below_level(AcceptanceFamily(p, *reflected[:2]))
    t.hit("reflect-level", 1, None if not bad else f"{tag} M={bad[:3]}")

    # inversion: the dual read back from the table equals the family the
    # build inverted; round trip, total-size double count, endpoints
    dual = acceptance_of(tbl)
    ok = (
        tbl.total_size == fam.total_size()
        and dual.lower == fam.lower
        and dual.upper == fam.upper
        and invert(dual) == tbl
        and tbl.lower[0] == 0
        and tbl.upper[n] == N
    )
    t.hit("inversion-duality", 1, None if ok else f"{tag} inversion inconsistent")

    # exact coverage for both methods at every M; ``coverage`` is its double
    level = 1 - alpha
    bad = [
        M
        for M in range(N + 1)
        for tb in (tbl, ptbl)
        if (exact := oracle.exact_coverage(tb, M)) < level or coverage(tb, M) != float(exact)
    ]
    t.hit("coverage-exactness", 1, None if not bad else f"{tag} M={bad[:3]}")

    # the per-x binary search and pivot_table's rows (the same bisections
    # when n << N) equal the rows of the sweep over M; on small N also the
    # oracle's linear scan and the monotone-tails premise
    sweep = _sweep_table(p)
    ok = ptbl == sweep and all(pivot_ci(x, p) == sweep.interval(x) for x in range(n + 1))
    t.hit("pivot-consistency", 1, None if ok else f"{tag} pivot rows differ")
    if N <= PIVOT_CAP:
        ok = oracle.pivot_scan(p) == list(zip(ptbl.lower, ptbl.upper))
        t.hit("pivot-scan-differential", 1, None if ok else f"{tag} scan differs")
        mono = True
        for x in range(n + 1):
            prev_up = -1
            prev_low = None
            for M in range(N + 1):
                up = oracle.window_mass(rows[M], x, n)
                low = oracle.window_mass(rows[M], 0, x)
                if up < prev_up or (prev_low is not None and low > prev_low):
                    mono = False
                prev_up, prev_low = up, low
        t.hit("pivot-tail-monotonicity", 1, None if mono else f"{tag} tails not monotone")

    # size optimality versus the oracle bounds
    full_cards = cards + [cards[N - M] for M in range(k + 1, N + 1)]
    bound_int = sum(full_cards)
    bound_set = bound_int
    if N % 2 == 0:
        sym_set = oracle.min_symmetric_set_size(p, alpha)
        bound_set += sym_set - cards[k]
        bound_int += oracle.min_center_length(rows[k], n, bar) - cards[k]
    size = tbl.total_size
    gap = size - bound_set
    if gap not in (0, 1):
        t.hit("size-optimality", 1, f"{tag} |C*|={size} vs set bound {bound_set}")
    elif gap == 1 and (N % 2 or n % 2):
        t.hit("size-optimality", 1, f"{tag} gap with odd N or n")
    elif size != bound_int:
        t.hit("size-optimality", 1, f"{tag} |C*|={size} vs interval bound {bound_int}")
    else:
        t.hit("size-optimality", 1)
        if gap == 1:
            t.metric_count("size-optimality", "set_gap_instances")

    if (N, n, alpha) == (20, 6, Fraction(3, 5)):
        ok = gap == 1 and fam.interval(10) == (2, 4)
        t.hit("adversarial-even-case", 1, None if ok else f"{tag} expected +1 gap at [2,4]")

    if N % 2 == 0 and n <= SUBSET_CAP:
        ok = oracle.min_symmetric_set_size_bruteforce(p, alpha) == oracle.min_symmetric_set_size(p, alpha)
        t.hit("symmetric-set-bruteforce", 1, None if ok else f"{tag} greedy != subset search")


def check_distribution(t: Tallies, N: int, n: int, alphas: tuple) -> None:
    """Add the distribution properties for one (N, n) pair, exhaustively, to ``t``."""
    tag = f"(N={N}, n={n})"
    p = Params(N, n, 0.5)  # alpha unused by these checks
    rows = [oracle.prefix_row(M, p) for M in range(N + 1)]
    weights = [oracle.weight_table(M, p) for M in range(N + 1)]
    supports = [support(M, p) for M in range(N + 1)]

    def w_of(M, x):
        lo, hi = supports[M]
        return weights[M][x - lo] if lo <= x <= hi else 0

    if N <= PROPERTY_CAP:
        # pmf reflection across (M, x) -> (N-M, n-x)
        ok = all(
            w_of(M, x) == w_of(N - M, n - x)
            for M in range(N + 1)
            for x in range(n + 1)
        )
        t.hit("pmf-reflection", 1, None if ok else f"{tag} reflection broken")

        # strict unimodality with the documented argmax pair
        ok = True
        for M in range(N + 1):
            lo, hi = supports[M]
            w = weights[M]
            m2 = mode(M, p)
            num = (n + 1) * (M + 1)
            m1 = m2 - 1 if num % (N + 2) == 0 else m2
            for x in range(lo, min(m1, hi)):
                ok = ok and w[x - lo] < w[x + 1 - lo]
            for x in range(max(m2, lo), hi):
                ok = ok and w[x - lo] > w[x + 1 - lo]
            if m1 != m2 and lo <= m1 and m2 <= hi:
                ok = ok and w[m1 - lo] == w[m2 - lo]
            peak = max(w)
            ok = ok and lo <= m2 <= hi and w[m2 - lo] == peak
        t.hit("pmf-unimodality", 1, None if ok else f"{tag} unimodality broken")

        # monotone likelihood ratio over the common support
        ok = True
        for M1 in range(N + 1):
            for M2 in range(M1 + 1, N + 1):
                lo = max(supports[M1][0], supports[M2][0])
                hi = min(supports[M1][1], supports[M2][1])
                for x in range(lo, hi):
                    ok = ok and (
                        w_of(M2, x) * w_of(M1, x + 1) <= w_of(M2, x + 1) * w_of(M1, x)
                    )
        t.hit("mlr", 1, None if ok else f"{tag} MLR broken")

        # difference identity for interval masses at adjacent M
        ok = True
        for M in range(N):
            for a in range(n + 1):
                for b in range(a, n + 1):
                    lhs = (N - M) * (
                        oracle.window_mass(rows[M + 1], a, b)
                        - oracle.window_mass(rows[M], a, b)
                    )
                    rhs = (n - a + 1) * w_of(M, a - 1) - (n - b) * w_of(M, b)
                    ok = ok and lhs == rhs
        t.hit("interval-mass-identity", 1, None if ok else f"{tag} identity broken")

    if N <= RATIO_CAP:
        # pmf ratios strictly increasing in M where both stay positive
        ok = True
        for x1 in range(n + 1):
            for x2 in range(x1 + 1, n + 1):
                if x2 - x1 >= N - n:
                    continue
                for M in range(x2, N - n + x1):
                    ok = ok and (
                        w_of(M, x2) * w_of(M + 1, x1) < w_of(M + 1, x2) * w_of(M, x1)
                    )
        t.hit("ratio-monotonicity", 1, None if ok else f"{tag} ratio order broken")

        # interval mass rises to the peak M then falls
        ok = True
        for a in range(n + 1):
            for b in range(a, n + 1):
                if b - a >= n:
                    continue
                peak = oracle.unimodal_peak(a, b, p)
                for M in range(N):
                    here = oracle.window_mass(rows[M], a, b)
                    there = oracle.window_mass(rows[M + 1], a, b)
                    if M < peak and there < here:
                        ok = False
                    if M >= peak and there > here:
                        ok = False
        t.hit("interval-peak-shape", 1, None if ok else f"{tag} peak shape broken")

    if N <= PROPERTY_CAP:
        # shifting an interval right never moves its peak left, and beyond
        # the shifted peak the shifted interval dominates
        ok = True
        peaks = {}
        for a in range(n):
            for b in range(a, n):
                peaks[(a, b)] = oracle.unimodal_peak(a, b, p)
        for a in range(n):
            for b in range(a, n):
                for d in range(1, n - b + 1):
                    right = (
                        peaks[(a + d, b + d)]
                        if b + d < n
                        else oracle.unimodal_peak(a + d, b + d, p)
                    )
                    if peaks[(a, b)] > right:
                        ok = False
                    for M in range(right, N + 1):
                        mass = oracle.window_mass(rows[M], a, b)
                        if mass > oracle.window_mass(rows[M], a + d, b + d):
                            ok = False
        t.hit("peak-shift", 1, None if ok else f"{tag} shift property broken")

        # oracle-optimal intervals for increasing M couple their endpoints
        for alpha in alphas:
            ints = [oracle.min_level_interval(M, p, alpha)[1] for M in range(N + 1)]
            ok = all(
                not (ints[M2][0] < ints[M1][0] and ints[M2][1] < ints[M1][1])
                for M1 in range(N + 1)
                for M2 in range(M1 + 1, N + 1)
            )
            t.hit("optimal-interval-coupling", 1, None if ok else f"{tag} a={alpha}")

    if N <= SUBSET_CAP:
        # a window always achieves the best mass any same-size subset can
        # (the k largest pmf values); tiny supports re-verify by enumeration
        ok = True
        for M in range(N + 1):
            lo, hi = supports[M]
            w = weights[M]
            size = hi - lo + 1
            _, _, pre = rows[M]
            best_window = [
                max(pre[s + length] - pre[s] for s in range(size - length + 1))
                for length in range(1, size + 1)
            ]
            ranked = sorted(w, reverse=True)
            best_subset = []
            run = 0
            for x in ranked:
                run += x
                best_subset.append(run)
            ok = ok and best_window == best_subset
            if size <= 8:
                for mask in range(1, 1 << size):
                    bits = bin(mask).count("1")
                    total = sum(w[i] for i in range(size) if mask >> i & 1)
                    ok = ok and total <= best_window[bits - 1]
        t.hit("maximizing-sets-are-intervals", 1, None if ok else f"{tag} subset beats window")


def run_certification(
    max_population: int = 40,
    alphas=DEFAULT_ALPHAS,
    populations=None,
) -> CertificationReport:
    """Run every check over the grid; N values default to 1..max_population.

    A repeated N or alpha runs once: N values are sorted, alphas keep the
    order of their first occurrence. Every instance is checked in this
    process, in grid order, and adds its results to one set of tallies.
    A bad grid raises ValueError; a ValueError while checking the validated
    grid is a program fault and raises AssertionError.
    """
    ns = sorted(set(populations)) if populations is not None else range(1, max_population + 1)
    if not ns or ns[0] < 1:
        found = f"N={ns[0]}" if ns else "no N"
        raise ValueError(f"grid needs at least one N and every N >= 1; got {found}")
    if ns[-1] > oracle.N_CAP:
        raise ValueError(f"grid capped at N <= {oracle.N_CAP}")
    alphas = tuple(dict.fromkeys(Fraction(a) for a in alphas))  # first occurrence kept
    tallies = Tallies()
    try:
        for N in ns:
            for n in range(1, N + 1):
                for a in alphas:
                    check_instance(tallies, N, n, a)
        for N in ns:
            if N <= max(PROPERTY_CAP, RATIO_CAP, SUBSET_CAP):
                for n in range(1, N + 1):
                    check_distribution(tallies, N, n, alphas)
    except ValueError as e:  # the grid is valid, so a failed self-check is a program fault
        raise AssertionError(f"certification self-check failed: {e}") from e
    tallies.setdefault("size-optimality", Tally("size-optimality")).metrics.setdefault(
        "set_gap_instances", 0
    )
    grid = (
        f"N in {{{', '.join(str(N) for N in ns)}}}"
        if populations is not None
        else f"N = 1..{max_population}"
    )
    grid += f", n = 1..N, alphas = {', '.join(str(a) for a in alphas)}"
    return CertificationReport(checks=list(tallies.values()), grid=grid)
