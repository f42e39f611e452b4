"""Exact-arithmetic brute-force references for small instances.

Everything here works on big-integer pmf numerators and compares against
alpha as an explicit Fraction, never as a converted double, so "within
level" and "larger probability" are unambiguous. The searches are
deliberately naive (window scans, subset enumeration) and capped at
N <= 200: they certify the fast pipeline, they do not replace it. Two
uncapped references, the from-scratch greedy ``greedy_interval`` and the
tail quantile ``lower_quantile``, check the carried sweeps and the centre.

Window masses come from per-M prefix rows (``prefix_row``, ``window_mass``)
built from the full weight table (``weight_table``), independently of the
production kernel ``interval_weight``, so verification checks that
kernel rather than reusing it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .core import AlphaLike, Params, attains_level, mode, step_down, step_up, support, weight
from .inversion import ConfidenceTable

N_CAP = 200


def _require_fraction(alpha) -> Fraction:
    if not isinstance(alpha, Fraction):
        raise TypeError(f"oracle alpha must be a Fraction, got {type(alpha).__name__}")
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    return alpha


def _check_cap(p: Params) -> None:
    if p.N > N_CAP:
        raise ValueError(f"oracle capped at N <= {N_CAP}, got N={p.N}")


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


def prefix_row(M: int, p: Params) -> tuple:
    """(lo, hi, prefix) with prefix[i] the weight sum over [lo, lo + i)."""
    lo, hi = support(M, p)
    return (lo, hi, list(accumulate(weight_table(M, p), initial=0)))


def window_mass(row: tuple, a: int, b: int) -> int:
    """Weight sum over [a, b] clipped to the row's support; 0 when empty."""
    lo, hi, pre = row
    a, b = max(a, lo), min(b, hi)
    return pre[b - lo + 1] - pre[a - lo] if a <= b else 0


def min_center_length(row: tuple, n: int, bar) -> int:
    """Length n - 2c + 1 of the shortest [c, n - c] whose mass reaches bar."""
    for c in range(n // 2, -1, -1):
        if window_mass(row, c, n - c) >= bar:
            return n - 2 * c + 1
    raise AssertionError("full support failed the level; corrupt kernels")


def exact_interval_prob(M: int, a: int, b: int, p: Params) -> Fraction:
    """P_M(a <= X <= b) as an exact rational."""
    _check_cap(p)
    return Fraction(window_mass(prefix_row(M, p), a, b), p.total_weight)


def greedy_interval(p: Params, M: int) -> tuple:
    """The greedy acceptance interval at M, grown from scratch.

    Starts at mode(M) and absorbs the heavier neighbour, the left one on
    ties, until the mass reaches 1 - alpha. This is the rule the carried
    sweep in ``acceptance`` must reproduce. Its cost is O(|A(M)|) steps, so
    unlike the searches here it is not capped in N.
    """
    c = d = mode(M, p)
    mass = weight(M, c, p)
    w_left, w_right = step_down(mass, M, c, p), step_up(mass, M, d, p)
    while not attains_level(mass, p):
        if not (w_left or w_right):
            raise AssertionError("full support failed the level; corrupt kernels")
        if w_right > w_left:
            d += 1
            mass += w_right
            w_right = step_up(w_right, M, d, p)
        else:
            c -= 1
            mass += w_left
            w_left = step_down(w_left, M, c, p)
    return (c, d)


def lower_quantile(M: int, threshold: AlphaLike, p: Params) -> int:
    """Smallest x with P_M(X <= x) > threshold, for threshold < 1.

    Steps up from the bottom of the support and stops at the answer; the
    comparison is an exact integer test against threshold's integer ratio.
    """
    num, den = threshold.as_integer_ratio()
    bar = num * p.total_weight  # the tail weight must exceed bar / den
    lo, hi = support(M, p)
    x = lo
    w = cum = weight(M, lo, p)
    while cum * den <= bar:
        if x == hi:
            raise ValueError(f"P_M(X <= x) never exceeds {threshold} at M={M}")
        w = step_up(w, M, x, p)
        x += 1
        cum += w
    return x


def min_level_interval(M: int, p: Params, alpha: Fraction) -> tuple:
    """(smallest cardinality, best interval, best probability).

    Scans window lengths in increasing order; the first length admitting a
    window of mass >= 1 - alpha is minimal, and among windows of that
    length the one of maximal exact mass is reported (leftmost on ties).
    """
    _check_cap(p)
    alpha = _require_fraction(alpha)
    lo, hi, pre = prefix_row(M, p)
    bar = (1 - alpha) * p.total_weight
    size = hi - lo + 1
    for length in range(1, size + 1):
        best = -1
        best_at = 0
        for start in range(size - length + 1):
            mass = pre[start + length] - pre[start]
            if mass > best:
                best = mass
                best_at = start
        if best >= bar:
            interval = (lo + best_at, lo + best_at + length - 1)
            return (length, interval, Fraction(best, p.total_weight))
    raise AssertionError("full support failed the level; corrupt kernels")


def min_symmetric_set_size(p: Params, alpha: Fraction) -> int:
    """Minimum cardinality of a level-alpha set symmetric about n/2, at M = N/2.

    At M = N/2 the pmf is symmetric and unimodal, so the best symmetric set
    of a given cardinality takes the innermost points: the center n/2 plus
    matching pairs {x, n-x} when the cardinality is odd (n even), matching
    pairs alone when it is even. Cardinalities are scanned in increasing
    order.
    """
    _check_cap(p)
    alpha = _require_fraction(alpha)
    if p.N % 2:
        raise ValueError("defined for even N only")
    M = p.N // 2
    n = p.n
    lo, hi = support(M, p)
    w = weight_table(M, p)

    def mass_of(points) -> int:
        return sum(w[x - lo] for x in points if lo <= x <= hi)

    bar = (1 - alpha) * p.total_weight
    for size in range(1, n + 2):
        if n % 2 == 0 and size % 2 == 1:
            k = (size - 1) // 2
            pts = [n // 2] + [x for d in range(1, k + 1) for x in (n // 2 - d, n // 2 + d)]
        elif size % 2 == 0:
            k = size // 2
            first = (n - 1) // 2
            pts = [x for d in range(k) for x in (first - d, n - first + d)]
        else:
            continue  # n odd: symmetric sets have even cardinality
        if any(x < 0 or x > n for x in pts):
            continue
        if mass_of(pts) >= bar:
            return size
    raise AssertionError("no symmetric level-alpha set found; corrupt kernels")


def min_symmetric_set_size_bruteforce(p: Params, alpha: Fraction) -> int:
    """Full enumeration over symmetric subsets of [0..n]; n <= 14 only."""
    _check_cap(p)
    alpha = _require_fraction(alpha)
    if p.N % 2:
        raise ValueError("defined for even N only")
    if p.n > 14:
        raise ValueError("brute force capped at n <= 14")
    M, n = p.N // 2, p.n
    lo, hi = support(M, p)
    w = weight_table(M, p)

    def wt(x):
        return w[x - lo] if lo <= x <= hi else 0

    pairs = [(x, n - x) for x in range((n + 1) // 2)]
    center = [n // 2] if n % 2 == 0 else []
    bar = (1 - alpha) * p.total_weight
    best = None
    for mask in range(1 << len(pairs)):
        for with_center in ([False, True] if center else [False]):
            size = 2 * bin(mask).count("1") + (1 if with_center else 0)
            if best is not None and size >= best:
                continue
            mass = sum(wt(a) + wt(b) for i, (a, b) in enumerate(pairs) if mask >> i & 1)
            if with_center:
                mass += wt(center[0])
            if mass >= bar:
                best = size
    return best


def min_symmetric_total(p: Params, alpha: Fraction) -> int:
    """Lower bound on the total size of any symmetric confidence set.

    Sums the per-M minimum level-alpha interval cardinality (mirrored across
    N/2), replacing the M = N/2 term (even N) by the minimum symmetric
    level-alpha set cardinality, which may be one smaller than any interval.
    """
    _check_cap(p)
    alpha = _require_fraction(alpha)
    half = [min_level_interval(M, p, alpha)[0] for M in range(p.N // 2 + 1)]
    total = sum(half) + sum(half[: (p.N + 1) // 2])
    if p.N % 2 == 0:
        total += min_symmetric_set_size(p, alpha) - half[p.N // 2]
    return total


def unimodal_peak(a: int, b: int, p: Params) -> int:
    """The M at which P_M([a, b]) peaks.

    0 when a = 0, N when b = n, otherwise the first M where the weighted
    boundary comparison (n-a+1) P_M(a-1) < (n-b) P_M(b) flips, found by an
    exact scan.
    """
    _check_cap(p)
    if not 0 <= a <= b <= p.n:
        raise ValueError(f"need 0 <= a <= b <= n, got [{a}, {b}]")
    if b - a >= p.n:
        raise ValueError("peak undefined for the full range [0, n]")
    if a == 0:
        return 0
    if b == p.n:
        return p.N
    ca, cb = p.n - a + 1, p.n - b
    for M in range(p.N + 1):
        if ca * weight(M, a - 1, p) < cb * weight(M, b, p):
            return M
    raise AssertionError("boundary comparison never flipped; corrupt kernels")


def pivot_scan(p: Params) -> list:
    """Equal-tail pivot intervals [L, U] for x = 0..n, by linear scans over M.

    L(x) is the first M whose upper tail P_M(X >= x) exceeds alpha/2 and
    U(x) the last whose lower tail P_M(X <= x) does. The tails are window
    masses of one prefix row per M, built once for every x, so this checks
    ``pivot_ci``'s bisection, its tail kernel and its reflection for L.
    """
    _check_cap(p)
    num, den = (Fraction(p.alpha) / 2).as_integer_ratio()
    bar = num * p.total_weight  # a tail weight must exceed bar / den
    rows = [prefix_row(M, p) for M in range(p.N + 1)]
    out = []
    for x in range(p.n + 1):
        lower = next(M for M in range(p.N + 1) if window_mass(rows[M], x, p.n) * den > bar)
        upper = next(M for M in range(p.N, -1, -1) if window_mass(rows[M], 0, x) * den > bar)
        out.append((lower, upper))
    return out


def exact_coverage(tbl: ConfidenceTable, M: int) -> Fraction:
    """Rational coverage probability of a confidence table at M."""
    _check_cap(tbl.params)
    p = tbl.params
    p.check_m(M)
    lo, hi = support(M, p)
    w = weight_table(M, p)
    mass = sum(
        w[x - lo]
        for x in range(lo, hi + 1)
        if tbl.lower[x] <= M <= tbl.upper[x]
    )
    return Fraction(mass, p.total_weight)
