"""Workload definitions: every input a benchmark run uses, made from its seed.

A workload is a list of instance groups (each group is timed as one unit),
a certification grid bound, a list of cold ``ci`` queries and the cold
``table`` query. Seed 0 gives the instances named in README.md; any other
seed moves each N and n of ``ladder`` and ``wide`` by up to 1%, rounded (so
an n of 50 or less does not move), which keeps the cost of a run within a
few percent of seed 0 while giving tables no claim was written against. ``small`` is an
exhaustive grid and stays the same under every seed; there the seed draws
the cold ``ci`` queries only, as it does in every workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

LADDER = (
    (500, 100, 0.05),
    (365, 292, 0.10),
    (1000, 500, 0.05),
    (2000, 1000, 0.05),
    (5000, 1000, 0.05),
)
WIDE = ((100000, 20, 0.05), (50000, 50, 0.01), (200000, 10, 0.05))
# certify's default alphas, as exact rationals; kept here so that the
# workload does not change with the library
GRID_ALPHAS = (
    Fraction(1, 100),
    Fraction(1, 20),
    Fraction(1, 10),
    Fraction(1, 5),
    Fraction(3, 5),
)
CI_ALPHAS = ("0.01", "0.05", "0.10")
TABLE_QUERY = (1000, 500, 0.05)
# the first cold call of a run is discarded from timing; its answer is pinned
WARMUP_CI = ((365, 292, 16, "0.10"), "[17, 24]")
GOLDEN = ((500, 100, 0.05), 7129)
PERTURB = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple        # tuples of (N, n, alpha); each group is one timed unit
    certify_max_n: int   # run_certification(max_population=...)
    certify_calls: int   # spaced through the run like the cold CLI calls
    ci_queries: tuple    # (N, n, x, alpha_text) for cold `ci` calls
    table_calls: int     # cold `table` calls at TABLE_QUERY
    setup_calls: int     # fresh processes timed for setup_s

    @property
    def instances(self) -> list:
        return [inst for group in self.groups for inst in group]


def grid(max_n: int) -> tuple:
    """Every (N, n, alpha) with N <= max_n and alpha in GRID_ALPHAS."""
    return tuple(
        (N, n, a) for N in range(1, max_n + 1) for n in range(1, N + 1) for a in GRID_ALPHAS
    )


def _perturb(rng: random.Random, inst: tuple) -> tuple:
    N, n, alpha = inst
    N2 = N + round(N * PERTURB * rng.uniform(-1, 1))
    n2 = n + round(n * PERTURB * rng.uniform(-1, 1))
    return (N2, min(n2, N2), alpha)


def _ci_queries(rng: random.Random, count: int) -> tuple:
    out = []
    for _ in range(count):
        N = rng.randint(10, 100)
        n = rng.randint(1, N)
        out.append((N, n, rng.randint(0, n), rng.choice(CI_ALPHAS)))
    return tuple(out)


def make(name: str, seed: int, mini: bool = False) -> Workload:
    """The workload `name` for `seed`; `mini` shrinks it for the smoke test."""
    rng = random.Random(f"{name}:{seed}")
    if name == "ladder":
        base = LADDER[:2] if mini else LADDER
        groups = tuple((inst if seed == 0 else _perturb(rng, inst),) for inst in base)
        certify_n, certify_calls = 6, 8
    elif name == "wide":
        base = ((5000, 10, 0.05),) if mini else WIDE
        groups = tuple((inst if seed == 0 else _perturb(rng, inst),) for inst in base)
        certify_n, certify_calls = 6, 8
    elif name == "small":
        groups = (grid(6 if mini else 40),)
        certify_n, certify_calls = 14, 4
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(
        name=name,
        groups=groups,
        certify_max_n=5 if mini else certify_n,
        certify_calls=2 if mini else certify_calls,
        ci_queries=_ci_queries(rng, 11 if mini else 32),
        table_calls=1 if mini else 4,
        setup_calls=2 if mini else 6,
    )


NAMES = ("ladder", "wide", "small")
