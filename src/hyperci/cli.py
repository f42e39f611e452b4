"""Command-line front end.

Subcommands: ci (one interval), table (full x -> [L, U] table), coverage
(per-M coverage probabilities), compare (size/time sweep against the
pivotal baseline over a list of n), certify (exact small-grid checks).

Output is CSV by default (tsv/pretty available); a total-size footer is
deterministic, the timing footer is not and can be suppressed with
--no-timing. Exit codes: 0 ok, 1 certification failure, 2 usage error.
Worker count for the sweeps comes from HYPERCI_WORKERS (a nonnegative
integer, capped at the CPU count). Alpha is a decimal (a float) or a
fraction such as 3/5 (an exact rational).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from .certify import DEFAULT_ALPHAS, run_certification
from .core import AlphaLike, Params
from .invert import ConfidenceTable, coverage, cstar_table, table_to_csv
from .parallel import pmap
from .pivot import pivot_table


def _workers() -> int:
    """HYPERCI_WORKERS as a worker count, capped at the CPU count; 0 if unset."""
    text = os.environ.get("HYPERCI_WORKERS", "").strip() or "0"
    if not text.isdecimal():
        raise ValueError(f"HYPERCI_WORKERS must be a nonnegative integer, got {text!r}")
    return min(int(text), os.cpu_count() or 1)


def _params(args) -> Params:
    return Params(args.N, args.n, args.alpha)


def _alpha_arg(text: str) -> AlphaLike:
    try:
        value = Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text}")
    return value


def _build(args, p: Params) -> ConfidenceTable:
    if args.method == "pivot":
        return pivot_table(p)
    return cstar_table(p, workers=args.workers)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, lines: list) -> None:
    sep = {"csv": ",", "tsv": "\t"}.get(args.format)
    if sep is None:  # pretty: pad each column
        body = [l for l in lines if not l[0].startswith("#")]
        widths = [max(len(row[i]) for row in body) for i in range(len(body[0]))]
        text = "\n".join(
            row[0]
            if row[0].startswith("#")
            else "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in lines
        )
    else:
        text = "\n".join(sep.join(row) for row in lines)
    _write(args, text + "\n")


def cmd_ci(args) -> int:
    p = _params(args)
    if not 0 <= args.x <= p.n:
        raise ValueError(f"x must be in [0, {p.n}], got {args.x}")
    tbl = _build(args, p)
    low, high = tbl.interval(args.x)
    print(f"[{low}, {high}]")
    return 0


def cmd_table(args) -> int:
    p = _params(args)
    start = time.perf_counter()
    tbl = _build(args, p)
    elapsed = time.perf_counter() - start
    text = table_to_csv(tbl, None if args.no_timing else elapsed)
    _emit(args, [[l] if l.startswith("#") else l.split(",") for l in text.splitlines()])
    return 0


def cmd_coverage(args) -> int:
    p = _params(args)
    tbl = _build(args, p)
    lines = [
        [f"# hyperci coverage N={p.N} n={p.n} alpha={p.alpha} method={args.method}"],
        ["M", "coverage"],
    ]
    values = pmap(coverage, tbl, range(p.N + 1), args.workers)
    for M, cov in enumerate(values):
        lines.append([str(M), f"{cov:.12f}"])
    _emit(args, lines)
    return 0


def _compare_one(base: tuple, n: int) -> tuple:
    N, alpha = base
    p = Params(N, n, alpha)
    start = time.perf_counter()
    size_cstar = cstar_table(p).total_size
    t_cstar = (time.perf_counter() - start) * 1000
    start = time.perf_counter()
    size_pivot = pivot_table(p).total_size
    t_pivot = (time.perf_counter() - start) * 1000
    return (n, size_cstar, size_pivot, t_cstar, t_pivot)


def cmd_compare(args) -> int:
    ns = _parse_int_list(args.n_list)
    for n in ns:
        Params(args.N, n, args.alpha)  # validate early
    lines = [
        [f"# hyperci compare N={args.N} alpha={args.alpha}"],
        ["n", "size_cstar", "size_pivot", "diff", "time_cstar_ms", "time_pivot_ms"],
    ]
    rows = pmap(_compare_one, (args.N, args.alpha), ns, args.workers)
    for n, size_cstar, size_pivot, t_cstar, t_pivot in rows:
        t1 = "0.000" if args.no_timing else f"{t_cstar:.3f}"
        t2 = "0.000" if args.no_timing else f"{t_pivot:.3f}"
        lines.append(
            [str(n), str(size_cstar), str(size_pivot), str(size_pivot - size_cstar), t1, t2]
        )
    _emit(args, lines)
    return 0


def cmd_certify(args) -> int:
    alphas = tuple(Fraction(a) for a in args.alphas) if args.alphas else DEFAULT_ALPHAS
    populations = _parse_int_list(args.N_list) if args.N_list else None
    report = run_certification(
        max_population=args.max_N,
        alphas=alphas,
        populations=populations,
        workers=args.workers,
    )
    _write(args, report.render())
    return 0 if report.ok else 1


def _parse_int_list(text: str) -> list:
    """Comma list ("10,20,30") or start:stop:step range ("10:490:10")."""
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        start, stop = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        return list(range(start, stop + 1, step))
    return [int(v) for v in text.split(",")]


def _add_common(sub, with_n=True, with_method=True):
    sub.add_argument("--N", type=int, required=True, help="population size")
    if with_n:
        sub.add_argument("--n", type=int, required=True, help="sample size")
    sub.add_argument(
        "--alpha", type=_alpha_arg, required=True,
        help="error level in (0, 1): a decimal, or an exact fraction such as 3/5",
    )
    if with_method:
        sub.add_argument(
            "--method", choices=["cstar", "pivot"], default="cstar",
            help="interval construction (default: cstar)",
        )
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument(
        "--format", choices=["csv", "tsv", "pretty"], default="csv",
        help="output format (default: csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperci",
        description="Exact confidence intervals for the hypergeometric count "
        "of special items in a population",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("ci", help="one confidence interval for an observed x")
    _add_common(sub)
    sub.add_argument("--x", type=int, required=True, help="observed special count")
    sub.set_defaults(fn=cmd_ci)

    sub = subs.add_parser("table", help="full confidence table for x = 0..n")
    _add_common(sub)
    sub.add_argument("--no-timing", action="store_true", help="suppress the timing footer")
    sub.set_defaults(fn=cmd_table)

    sub = subs.add_parser("coverage", help="coverage probability for M = 0..N")
    _add_common(sub)
    sub.set_defaults(fn=cmd_coverage)

    sub = subs.add_parser("compare", help="size and time versus the pivotal baseline")
    _add_common(sub, with_n=False, with_method=False)
    sub.add_argument(
        "--n-list", required=True,
        help="sample sizes: comma list (10,20) or range start:stop:step (10:490:10)",
    )
    sub.add_argument("--no-timing", action="store_true", help="zero out the time columns")
    sub.set_defaults(fn=cmd_compare)

    sub = subs.add_parser("certify", help="run the exact small-grid certification")
    sub.add_argument("--max-N", type=int, default=40, help="largest N in the grid (<= 200)")
    sub.add_argument("--N-list", help="explicit N values, comma list or range")
    sub.add_argument(
        "--alphas", nargs="*",
        help="alpha values as exact decimals or fractions (e.g. 0.05 3/5)",
    )
    sub.add_argument("--out", help="write the report to this path")
    sub.set_defaults(fn=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.workers = _workers()
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
