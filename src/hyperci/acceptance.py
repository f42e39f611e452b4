"""Minimum-cardinality acceptance intervals, built greedily from the mode.

For each M the interval starts at the pmf maximizer and repeatedly absorbs
the more probable neighbor (the left one on ties) until its mass reaches
1 - alpha. Among intervals of its cardinality the result has maximal
probability, and no smaller level-alpha set exists.

Greedy direction choices and the stopping rule are exact integer
comparisons, so the output is a deterministic function of (N, n, alpha).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import Params, mode, step_m, step_up, weight
from .parallel import pmap


class Stage(enum.Enum):
    RAW = "raw"
    ADJUSTED = "adjusted"
    SYMMETRIZED = "symmetrized"


@dataclass(frozen=True)
class AcceptanceFamily:
    """Per-M acceptance intervals [lower[M], upper[M]] for M = 0..len-1."""

    params: Params
    stage: Stage
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValueError("lower/upper must be nonempty and equally long")
        N, n = self.params.N, self.params.n
        self.params.check_m(len(self.lower) - 1)
        for M, (a, b) in enumerate(zip(self.lower, self.upper)):
            lo, hi = max(0, M + n - N), min(M, n)
            if not lo <= a <= b <= hi:
                raise ValueError(
                    f"interval [{a}, {b}] at M={M} leaves the support [{lo}, {hi}]"
                )
        if self.stage is Stage.SYMMETRIZED:
            self._check_symmetrized()

    def _check_symmetrized(self):
        N, n = self.params.N, self.params.n
        if len(self.lower) != N + 1:
            raise ValueError("symmetrized family must cover M = 0..N")
        for M in range(N + 1):
            if self.lower[M] + self.upper[N - M] != n:
                raise ValueError(f"reflection symmetry broken at M={M}")
        for M in range(N):
            if self.lower[M] > self.lower[M + 1] or self.upper[M] > self.upper[M + 1]:
                raise ValueError(f"endpoints not nondecreasing at M={M}")

    def __len__(self) -> int:
        return len(self.lower)

    def interval(self, M: int) -> tuple:
        return (self.lower[M], self.upper[M])

    def length(self, M: int) -> int:
        return self.upper[M] - self.lower[M] + 1

    def total_size(self) -> int:
        return sum(b - a + 1 for a, b in zip(self.lower, self.upper))


def _greedy_interval(p: Params, M: int, w_mode: int) -> tuple:
    """Smallest level-alpha interval of maximal mass for one M.

    w_mode is the weight at mode(M, p); step_up/step_down are inlined and
    the stopping rule is attains_level against a precomputed bar.
    """
    N, n = p.N, p.n
    num, den = p._alpha_ratio
    bar = (den - num) * p.total_weight  # the mass must reach bar / den
    lo, hi = max(0, M + n - N), min(M, n)
    s = N - M - n
    c = d = mode(M, p)
    w_left = w_mode * c * (s + c) // ((M - c + 1) * (n - c + 1)) if c > lo else 0
    w_right = w_mode * (M - d) * (n - d) // ((d + 1) * (s + d + 1)) if d < hi else 0
    mass = w_mode
    while mass * den < bar:
        if w_right > w_left:
            d += 1
            mass += w_right
            w_right = w_right * (M - d) * (n - d) // ((d + 1) * (s + d + 1)) if d < hi else 0
        else:
            c -= 1
            mass += w_left
            w_left = w_left * c * (s + c) // ((M - c + 1) * (n - c + 1)) if c > lo else 0
    return (c, d)


def _greedy_block(p: Params, ms: range) -> list:
    """Greedy intervals for contiguous M, carrying the weight at the mode.

    The mode moves up by at most 1 per M, so the carried weight follows it
    with one step_m and at most one step_up; it is reseeded from weight()
    only when the old mode falls below the new support.
    """
    N, n = p.N, p.n
    c = mode(ms[0], p)
    w = weight(ms[0], c, p)
    out = []
    for M in ms:
        if M > ms[0]:
            new_c = mode(M, p)
            if c < M + n - N:
                w = weight(M, new_c, p)
            else:
                w = step_m(w, M - 1, c, p)
                if new_c > c:
                    w = step_up(w, M, c, p)
            c = new_c
        out.append(_greedy_interval(p, M, w))
    return out


def amo_half(p: Params, workers: int = 0) -> AcceptanceFamily:
    """Acceptance intervals for M = 0..floor(N/2), stage RAW.

    The M range is cut into contiguous blocks, each swept by _greedy_block;
    with workers > 1 about workers*4 blocks are mapped over a process pool,
    with output identical to the sequential sweep.
    """
    k = p.N // 2
    parts = 1 if workers <= 1 else min(k + 1, workers * 4)
    bounds = [(k + 1) * i // parts for i in range(parts + 1)]
    blocks = [range(bounds[i], bounds[i + 1]) for i in range(parts)]
    intervals = [iv for block in pmap(_greedy_block, p, blocks, workers) for iv in block]
    lower, upper = zip(*intervals)
    return AcceptanceFamily(p, Stage.RAW, lower, upper)


def reflect_full(half: AcceptanceFamily) -> AcceptanceFamily:
    """Extend a half-family to M = 0..N via a_{N-M} = n - b_M, b_{N-M} = n - a_M.

    For even N the index N/2 reflects onto itself; the half-family's own
    entry is kept (the symmetrizing step replaces it anyway).
    """
    p = half.params
    N, n = p.N, p.n
    k = N // 2
    if len(half) != k + 1:
        raise ValueError(f"expected a half-family over 0..{k}, got length {len(half)}")
    lower = list(half.lower) + [0] * (N - k)
    upper = list(half.upper) + [0] * (N - k)
    for M in range(k + 1):
        if N - M == M:
            continue
        lower[N - M] = n - half.upper[M]
        upper[N - M] = n - half.lower[M]
    return AcceptanceFamily(p, half.stage, tuple(lower), tuple(upper))
