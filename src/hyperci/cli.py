"""Command-line front end.

Subcommands: ci (one interval), table (full x -> [L, U] table), coverage
(per-M coverage probabilities), compare (size/time sweep against the
pivotal baseline over a list of n), certify (exact small-grid checks).

Output of table, coverage and compare is CSV by default (tsv/pretty
available); ci prints one interval [L, U]. A total-size footer is
deterministic, the timing footer is not and can be suppressed with
--no-timing. Exit codes: 0 ok, 1 certification failure, 2 usage error
(bad input, or an --out path that cannot be written), 3 internal error (a
failed kernel self-check).
coverage mirrors M <= N/2 (a C* table's stored values, or one sweep of a
pivot dual). Every subcommand runs in one process; compare and certify
loop over their items (n values, grid instances) in order.
Alpha is a decimal (a float) or a fraction such as 3/5 (an exact
rational); certify's --alphas are always exact rationals.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from functools import partial

from .certify import DEFAULT_ALPHAS, run_certification
from .core import AlphaLike, Params
from .inversion import ConfidenceTable, _half_coverage, cstar_table, table_to_csv
from .pivot import pivot_ci, pivot_table


def _params(args) -> Params:
    return Params(args.N, args.n, args.alpha)


def _alpha_arg(text: str, exact: bool = False) -> AlphaLike:
    """Alpha in (0, 1): an exact Fraction when exact or written a/b, else a float."""
    try:
        value = Fraction(text) if exact or "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text}")
    return value


def _build(args, p: Params) -> ConfidenceTable:
    if args.method == "pivot":
        return pivot_table(p)
    return cstar_table(p)


def _write(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {args.out}: {e.strerror or e}") from None
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
    low, high = pivot_ci(args.x, p) if args.method == "pivot" else cstar_table(p).interval(args.x)
    _write(args, f"[{low}, {high}]\n")
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
    half = _half_coverage(tbl)  # M = 0..N/2; coverage(N - M) = coverage(M)
    for M in range(p.N + 1):
        lines.append([str(M), f"{half[min(M, p.N - M)]:.12f}"])
    _emit(args, lines)
    return 0


def cmd_compare(args) -> int:
    # every n is validated before any table is built
    params = [Params(args.N, n, args.alpha) for n in _parse_int_list(args.n_list)]
    lines = [
        [f"# hyperci compare N={args.N} alpha={args.alpha}"],
        ["n", "size_cstar", "size_pivot", "diff", "time_cstar_ms", "time_pivot_ms"],
    ]
    for p in params:
        start = time.perf_counter()
        size_cstar = cstar_table(p).total_size
        mid = time.perf_counter()
        size_pivot = pivot_table(p).total_size
        end = time.perf_counter()
        t1 = "0.000" if args.no_timing else f"{(mid - start) * 1000:.3f}"
        t2 = "0.000" if args.no_timing else f"{(end - mid) * 1000:.3f}"
        lines.append(
            [str(p.n), str(size_cstar), str(size_pivot), str(size_pivot - size_cstar), t1, t2]
        )
    _emit(args, lines)
    return 0


def cmd_certify(args) -> int:
    populations = None if args.N_list is None else _parse_int_list(args.N_list)
    report = run_certification(
        max_population=args.max_N,
        alphas=args.alphas,
        populations=populations,
    )
    _write(args, report.render())
    return 0 if report.ok else 1


def _parse_int_list(text: str) -> list:
    """Comma list ("10,20,30") or range start:stop[:step] ("10:490:10"), nonempty."""
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        start, stop, step = (parts + [1])[:3]
        if len(parts) > 3 or step < 1:
            raise ValueError(f"list {text!r} is not a range start:stop[:step] with step >= 1")
        values = list(range(start, stop + 1, step))
    else:
        values = [int(v) for v in text.split(",")]
    if not values:
        raise ValueError(f"list {text!r} has no values")
    return values


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, ``error: <message>``, and exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_common(sub, with_n=True, with_method=True, with_format=True):
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
    if with_format:
        sub.add_argument(
            "--format", choices=["csv", "tsv", "pretty"], default="csv",
            help="output format (default: csv)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyperci",
        description="Exact confidence intervals for the hypergeometric count "
        "of special items in a population",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("ci", help="one confidence interval for an observed x")
    _add_common(sub, with_format=False)  # one interval has no CSV form
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
    grid = sub.add_mutually_exclusive_group()
    # argparse parses a string default only when the flag is absent, so an
    # explicit --max-N 40 still conflicts with --N-list
    grid.add_argument("--max-N", type=int, default="40",
                      help="largest N in the grid (<= 200; default: 40)")
    grid.add_argument("--N-list", help="explicit N values, comma list or range")
    sub.add_argument(
        "--alphas", nargs="+", type=partial(_alpha_arg, exact=True), default=DEFAULT_ALPHAS,
        help="alpha values in (0, 1) as exact decimals or fractions (e.g. 0.05 3/5)",
    )
    sub.add_argument("--out", help="write the report to this path")
    sub.set_defaults(fn=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
