#!/usr/bin/env python3
"""hyperci benchmark: end-to-end metrics (--trace 0) or per-layer ones (--trace 1).

Run from the repository root, for example:

    python3 benchmarks/run.py --workload ladder --seed 0 --seconds 16 --trace 0

One serial client drives the load in a closed loop: the library is called
in-process and the CLI as cold ``python -m hyperci.cli`` subprocesses, and
every call starts after the previous one returned. ``HYPERCI_WORKERS`` is
removed from the environment, so nothing runs in parallel, and so is
``PYTHONDONTWRITEBYTECODE``, so cold calls load cached bytecode.

Every output is checked (see ``Gate``). The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 1 when any check failed. README.md describes the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# nothing runs in parallel, and subprocesses cache bytecode as an installed
# package would (the first cold call of a run compiles it and is not timed)
for name in ("HYPERCI_WORKERS", "PYTHONDONTWRITEBYTECODE"):
    os.environ.pop(name, None)
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
sys.path[:0] = [str(HERE), str(SRC)]

try:
    import hyperci
except ImportError as exc:
    sys.exit(f"run.py: cannot import hyperci from {SRC}: {exc}")
if Path(hyperci.__file__).resolve().parent != SRC / "hyperci":
    sys.exit(f"run.py: hyperci was imported from {hyperci.__file__}, not from {SRC}")

import workloads  # noqa: E402
from hyperci import (  # noqa: E402
    Method,
    Params,
    acceptance_of,
    adjust,
    amo_half,
    cli,
    coverage,
    cstar_table,
    invert,
    pivot_ci,
    pivot_table,
    run_certification,
    support,
    symmetrize,
    table_to_csv,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cstar_s": "s",
    "pivot_s": "s",
    "coverage_s": "s",
    "certify_s": "s",
    "cli_table_s": "s",
    "cli_ci_s": "s",
    "cli_ci_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.params_s": "s",
    "core.weight_bits": "bits",
    "acceptance.amo_half_s": "s",
    "acceptance.ns_per_step": "ns",
    "acceptance.greedy_steps": "count",
    "monotonize.adjust_s": "s",
    "monotonize.adjust_ns_per_point": "ns",
    "monotonize.symmetrize_s": "s",
    "monotonize.shifted": "count",
    "invert.invert_s": "s",
    "invert.coverage_s": "s",
    "invert.coverage_ns_per_point": "ns",
    "pivot.pivot_table_s": "s",
    "pivot.ns_per_support_point": "ns",
    "pivot.support_points": "count",
    "certify.run_s": "s",
    "certify.us_per_check": "us",
    "certify.checks": "count",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
}
# per-layer time metric -> the span whose self time it sums
LAYER_SPANS = {
    "core.params_s": "core.Params",
    "acceptance.amo_half_s": "acceptance.amo_half",
    "monotonize.adjust_s": "monotonize.adjust",
    "monotonize.symmetrize_s": "monotonize.symmetrize",
    "invert.invert_s": "invert.invert",
    "invert.coverage_s": "invert.coverage",
    "pivot.pivot_table_s": "pivot.pivot_table",
}
CLI_PROBES = 12          # cold `python -c` starts for cli.interp_s and cli.import_s
PIVOT_SPOT_CHECKS = 12   # pivot_table rows re-derived by pivot_ci's binary search
SUBPROCESS_TIMEOUT = 60
# a big unit (pivot_table at (5000, 1000) takes about 8 s) needs a second
# sample, or one slow phase of a shared machine decides the metric
MIN_SAMPLES = 2

SETUP_CHILD = """
import json, sys, time
from fractions import Fraction
insts = [(N, n, Fraction(a) if isinstance(a, str) else a) for N, n, a in json.load(sys.stdin)]
t0 = time.perf_counter()
import hyperci
for N, n, a in insts:
    hyperci.Params(N, n, a)
print(time.perf_counter() - t0)
"""


class Gate:
    """Counts checks; a failed one is kept with a message and fails the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Tracer:
    """In-memory spans [name, start, end, parent index, instance id]."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._open = []

    def span(self, name: str, instance: int) -> "_Span":
        return _Span(self, name, instance)

    def self_times(self, first: int = 0) -> dict:
        """Span name -> summed self time over spans[first:] (children subtracted)."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write(self, path: Path, meta: dict) -> None:
        spans = [[n, s - self.t0, e - self.t0, p, i] for n, s, e, p, i in self.spans]
        doc = dict(meta, fields=["name", "start_s", "end_s", "parent", "instance"], spans=spans)
        path.write_text(json.dumps(doc, separators=(",", ":")))


class _Span:
    __slots__ = ("tracer", "name", "instance", "index")

    def __init__(self, tracer, name, instance):
        self.tracer, self.name, self.instance = tracer, name, instance

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._open[-1] if t._open else -1
        t.spans.append([self.name, time.perf_counter(), 0.0, parent, self.instance])
        t._open.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._open.pop()


def cold(args: list, stdin: str = None) -> tuple:
    """Run `python <args>` from the repository root: (wall seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=CHILD_ENV, input=stdin,
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
    )
    return time.perf_counter() - t0, proc


def ci_argv(query: tuple) -> list:
    N, n, x, alpha = query
    return ["ci", "--N", str(N), "--n", str(n), "--x", str(x), "--alpha", alpha]


def table_argv(inst: tuple) -> list:
    N, n, alpha = inst
    return ["-m", "hyperci.cli", "table", "--N", str(N), "--n", str(n),
            "--alpha", str(alpha), "--no-timing"]


def rows_sha256(tbl) -> str:
    rows = "".join(f"{x},{a},{b}\n" for x, (a, b) in enumerate(zip(tbl.lower, tbl.upper)))
    return hashlib.sha256(rows.encode()).hexdigest()


def digests(method: str, group: tuple, tables: list) -> dict:
    """Checksum entries: one per table of a one-instance group, one per grid."""
    entries = {
        f"{method}:{N},{n},{a}": {"total_size": t.total_size, "sha256": rows_sha256(t)}
        for (N, n, a), t in zip(group, tables)
    }
    if len(group) == 1:
        return entries
    lines = "".join(f"{k} {v['total_size']} {v['sha256']}\n" for k, v in entries.items())
    return {
        f"{method}:grid{len(group)}": {
            "total_size": sum(t.total_size for t in tables),
            "sha256": hashlib.sha256(lines.encode()).hexdigest(),
        }
    }


def measure(units: list, probes: list, seconds: float, gate: Gate, first: dict, tracer=None):
    """Run the library units round-robin for `seconds`, cold probes spread among them.

    The budget counts library time only; the loop ends once it is spent and
    every unit has run MIN_SAMPLES times (once in a traced run, whose
    metrics have no bound). After each unit, the probes fall due in proportion
    to the library time spent, out of the loop's expected length, so that
    each metric samples the whole run and a slow phase of a shared machine
    hits every metric alike. Returns
    ({label: [seconds]}, {label: [span self times]}). The first result of
    each unit goes into `first`; every repeat must equal it.
    """
    times = {label: [] for label, _ in units + probes}
    selfs = {label: [] for label, _ in units}
    pending = iter(spread(probes))
    cycle = itertools.cycle(units)
    spent, probed = 0.0, 0
    round_s = None  # library time of the first full round
    need = 1 if tracer else MIN_SAMPLES
    while spent < seconds or any(len(times[label]) < need for label, _ in units):
        label, fn = next(cycle)
        mark = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        spent += dt
        times[label].append(dt)
        if tracer:
            selfs[label].append(tracer.self_times(mark))
        if label in first:
            gate.check(result == first[label], f"{label}: a repeat differs from the first run")
        else:
            first[label] = result
        if round_s is None and all(times[label] for label, _ in units):
            round_s = spent
        expected_s = max(seconds, need * (spent if round_s is None else round_s))
        for _ in range(probed, min(len(probes), int(len(probes) * spent / expected_s))):
            probe_label, probe = next(pending)
            times[probe_label].append(probe())
            probed += 1
    for probe_label, probe in pending:
        times[probe_label].append(probe())
    return times, selfs


def spread(probes: list) -> list:
    """Probes reordered so that each label's calls are spaced evenly."""
    counts = collections.Counter(label for label, _ in probes)
    seen = collections.Counter()
    keyed = []
    for probe in probes:
        label = probe[0]
        keyed.append(((seen[label] + 0.5) / counts[label], probe))
        seen[label] += 1
    return [probe for _, probe in sorted(keyed, key=lambda kp: kp[0])]


def sum_medians(times: dict, kind: str) -> float:
    return sum(median(v) for (k, _), v in times.items() if k == kind)


def coverage_sweep(tbl) -> list:
    return [coverage(tbl, M) for M in range(tbl.params.N + 1)]


def stage_composed(p: Params, tracer: Tracer, i: int) -> tuple:
    """cstar_table's pipeline, one span per stage call."""
    with tracer.span("cstar", i):
        with tracer.span("acceptance.amo_half", i):
            half = amo_half(p)
        with tracer.span("monotonize.adjust", i):
            adjusted, trace = adjust(half)
        with tracer.span("monotonize.symmetrize", i):
            sym = symmetrize(adjusted, p)
        with tracer.span("invert.invert", i):
            tbl = invert(sym, Method.CSTAR)
    return half, trace, tbl


def traced_each(tracer: Tracer, name: str, ids, fn, items) -> list:
    out = []
    for i, item in zip(ids, items):
        with tracer.span(name, i):
            out.append(fn(item))
    return out


def build_units(wl, params: list, first: dict, tracer) -> list:
    """Library units: cstar, pivot and coverage over each instance group."""
    units = []
    offset = 0
    for g, ps in enumerate(params):
        ids = range(offset, offset + len(ps))
        offset += len(ps)
        cstar = (("cstar", g), lambda ps=ps: [cstar_table(p) for p in ps])
        if tracer is None:
            units += [
                cstar,
                (("pivot", g), lambda ps=ps: [pivot_table(p) for p in ps]),
                (("coverage", g), lambda g=g: [coverage_sweep(t) for t in first["cstar", g]]),
            ]
        else:
            units += [
                (("params", g), lambda g=g, ids=ids: traced_each(
                    tracer, "core.Params", ids, lambda inst: Params(*inst), wl.groups[g])),
                cstar,
                (("stages", g), lambda ps=ps, ids=ids: [
                    stage_composed(p, tracer, i) for i, p in zip(ids, ps)]),
                (("pivot", g), lambda ps=ps, ids=ids: traced_each(
                    tracer, "pivot.pivot_table", ids, pivot_table, ps)),
                (("coverage", g), lambda g=g, ids=ids: traced_each(
                    tracer, "invert.coverage", ids, coverage_sweep, first["cstar", g])),
            ]
    return units


def certify_probes(wl, first: dict, gate: Gate, tracer) -> list:
    """Certification runs, spaced through the run like the cold CLI calls.

    A run is short, so a few of them at fixed points would each catch one
    phase of a shared machine; the first report is kept in `first`.
    """
    def certify():
        span = tracer.span("certify.run_certification", -1) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            report = run_certification(max_population=wl.certify_max_n)
        dt = time.perf_counter() - t0
        if ("certify", 0) in first:
            gate.check(report == first["certify", 0], "certification: a repeat differs from the first run")
        else:
            first["certify", 0] = report
        return dt

    return [(("certify", 0), certify)] * wl.certify_calls


def e2e_probes(wl, expected: dict, gate: Gate) -> list:
    """Cold `ci`, `table` and set-up processes; each returns its seconds."""
    tbl = cstar_table(Params(*workloads.TABLE_QUERY))
    check_digests("cstar", (workloads.TABLE_QUERY,), [tbl], expected, gate)
    want_csv = table_to_csv(tbl)

    def ci(q):
        dt, proc = cold(["-m", "hyperci.cli", *ci_argv(q)])
        gate.check(proc.returncode == 0 and proc.stdout.strip() == ci_answer(q),
                   f"cold ci {q}: {proc.stdout.strip()!r} != {ci_answer(q)!r}")
        return dt

    def table():
        dt, proc = cold(table_argv(workloads.TABLE_QUERY))
        gate.check(proc.returncode == 0 and proc.stdout == want_csv,
                   "cold `table` stdout differs from table_to_csv")
        return dt

    insts = json.dumps([[N, n, str(a) if isinstance(a, Fraction) else a]
                        for N, n, a in wl.instances])

    def setup():
        _, proc = cold(["-c", SETUP_CHILD], stdin=insts)
        try:
            value = float(proc.stdout)
        except ValueError:
            value = float("nan")
        gate.check(proc.returncode == 0 and value > 0, f"setup process failed: {proc.stderr[-300:]}")
        return value

    return (
        [(("cli_ci", 0), lambda q=q: ci(q)) for q in wl.ci_queries]
        + [(("cli_table", 0), table)] * wl.table_calls
        + [(("setup", 0), setup)] * wl.setup_calls
    )


def trace_probes(wl, tracer: Tracer, gate: Gate) -> list:
    """Cold interpreter starts, cold `import hyperci.cli`, in-process cli.main()."""
    def start(name, code, k):
        with tracer.span(name, k):
            dt, proc = cold(["-c", code])
        gate.check(proc.returncode == 0, f"`python -c {code!r}` failed: {proc.stderr[-300:]}")
        return dt

    def main(k, q):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            with tracer.span("cli.main", k):
                code = cli.main(ci_argv(q))
            dt = time.perf_counter() - t0
        gate.check(code == 0 and buf.getvalue().strip() == ci_answer(q), f"cli.main ci {q} mismatch")
        return dt

    return (
        [(("cli.interp", 0), lambda k=k: start("cli.interp", "pass", k)) for k in range(CLI_PROBES)]
        + [(("cli.import", 0), lambda k=k: start("cli.import", "import hyperci.cli", k))
           for k in range(CLI_PROBES)]
        + [(("cli.main", 0), lambda k=k, q=q: main(k, q)) for k, q in enumerate(wl.ci_queries)]
    )


def ci_answer(query: tuple) -> str:
    N, n, x, alpha = query
    low, high = cstar_table(Params(N, n, float(alpha))).interval(x)
    return f"[{low}, {high}]"


def check_digests(method: str, group: tuple, tables: list, expected: dict, gate: Gate) -> None:
    for key, got in digests(method, group, tables).items():
        if key in expected:
            gate.check(got == expected[key], f"{key}: {got} != expected {expected[key]}")


def check_tables(wl, seed: int, first: dict, expected: dict, gate: Gate) -> None:
    """Checksums where recorded, and the invariants that hold for any seed."""
    for g, group in enumerate(wl.groups):
        cstar, pivot, covs = first["cstar", g], first["pivot", g], first["coverage", g]
        check_digests("cstar", group, cstar, expected, gate)
        check_digests("pivot", group, pivot, expected, gate)
        if ("stages", g) in first:
            composed = [tbl for _, _, tbl in first["stages", g]]
            gate.check(composed == cstar, f"group {g}: stage-composed tables differ from cstar_table")
        for inst, c, pv, cov in zip(group, cstar, pivot, covs):
            gate.check(c.total_size <= pv.total_size,
                       f"{inst}: cstar total {c.total_size} > pivot total {pv.total_size}")
            # coverage is a correctly rounded double, so compare with the
            # correctly rounded level
            level = float(1 - Fraction(inst[2]))
            gate.check(min(cov) >= level, f"{inst}: coverage {min(cov)!r} < {level!r}")
    rng = random.Random(f"spot:{wl.name}:{seed}")
    for _ in range(PIVOT_SPOT_CHECKS):
        g = rng.randrange(len(wl.groups))
        k = rng.randrange(len(wl.groups[g]))
        tbl = first["pivot", g][k]
        x = rng.randint(0, tbl.params.n)
        gate.check(pivot_ci(x, tbl.params) == tbl.interval(x),
                   f"{wl.groups[g][k]}: pivot_table row {x} differs from pivot_ci")
    report = first["certify", 0]
    gate.check(report.ok, f"certification failed: {report.render()}")
    (N, n, a), total = workloads.GOLDEN
    golden = cstar_table(Params(N, n, a)).total_size
    gate.check(golden == total, f"({N}, {n}, {a}) total size {golden} != {total}")


def e2e_metrics(times: dict) -> dict:
    ci = sorted(times["cli_ci", 0])
    return {
        "setup_s": median(times["setup", 0]),
        "cstar_s": sum_medians(times, "cstar"),
        "pivot_s": sum_medians(times, "pivot"),
        "coverage_s": sum_medians(times, "coverage"),
        "certify_s": median(times["certify", 0]),
        "cli_table_s": median(times["cli_table", 0]),
        "cli_ci_s": median(ci),
        # the highest percentile with at least ten samples above it
        "cli_ci_tail_s": ci[len(ci) - 11],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(wl, first: dict, times: dict, selfs: dict, gate: Gate) -> dict:
    m = {}
    for metric, span in LAYER_SPANS.items():
        m[metric] = sum(median(d.get(span, 0.0) for d in v) for v in selfs.values() if v and span in v[0])
    stages = [s for g in range(len(wl.groups)) for s in first["stages", g]]
    steps = sum(half.total_size() - len(half) for half, _, _ in stages)
    accepted = sum(half.total_size() for half, _, _ in stages)
    cov_points = sum(acceptance_of(tbl).total_size() for _, _, tbl in stages)
    support_points = sum(
        hi - lo + 1
        for _, _, tbl in stages
        for lo, hi in (support(M, tbl.params) for M in range(tbl.params.N + 1))
    )
    m["core.weight_bits"] = max(tbl.params.total_weight.bit_length() for _, _, tbl in stages)
    m["acceptance.greedy_steps"] = steps
    m["acceptance.ns_per_step"] = m["acceptance.amo_half_s"] / steps * 1e9
    m["monotonize.adjust_ns_per_point"] = m["monotonize.adjust_s"] / accepted * 1e9
    m["monotonize.shifted"] = sum(len(t.set_lower) + len(t.set_upper) for _, t, _ in stages)
    m["invert.coverage_ns_per_point"] = m["invert.coverage_s"] / cov_points * 1e9
    m["pivot.support_points"] = support_points
    m["pivot.ns_per_support_point"] = m["pivot.pivot_table_s"] / support_points * 1e9
    m["certify.run_s"] = median(times["certify", 0])
    m["certify.checks"] = sum(t.instances for t in first["certify", 0].checks)
    m["certify.us_per_check"] = m["certify.run_s"] / m["certify.checks"] * 1e6
    m["cli.interp_s"] = median(times["cli.interp", 0])
    m["cli.import_s"] = median(times["cli.import", 0]) - m["cli.interp_s"]
    m["cli.main_s"] = median(times["cli.main", 0])

    untraced = sum_medians(times, "cstar")
    m["trace.overhead_s"] = sum_medians(times, "stages") - untraced
    # the stage spans must account for the traced cstar time: what they leave
    # uncovered is span bookkeeping, no more than the tracing overhead
    glue = sum(median(d["cstar"] for d in v) for (k, _), v in selfs.items() if k == "stages")
    gate.check(glue <= max(m["trace.overhead_s"], 0.0) + 0.05 * untraced,
               f"stage spans leave {glue:.4f} s of traced cstar time unaccounted")
    return m


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hyperci").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(args) -> int:
    wl = workloads.make(args.workload, args.seed, args.mini)
    expected = json.loads(Path(args.expected).read_text())
    gate = Gate()
    tracer = Tracer() if args.trace else None

    # discarded warm-up: compiles bytecode after a fresh checkout
    query, answer = workloads.WARMUP_CI
    _, proc = cold(["-m", "hyperci.cli", *ci_argv(query)])
    gate.check(proc.returncode == 0 and proc.stdout.strip() == answer,
               f"ci {query}: {proc.stdout.strip()!r} != {answer!r}")

    params = [[Params(*inst) for inst in group] for group in wl.groups]
    first = {}
    units = build_units(wl, params, first, tracer)
    probes = trace_probes(wl, tracer, gate) if tracer else e2e_probes(wl, expected, gate)
    probes += certify_probes(wl, first, gate, tracer)
    times, selfs = measure(units, probes, args.seconds, gate, first, tracer)
    check_tables(wl, args.seed, first, expected, gate)
    if tracer:
        metrics, units_of = layer_metrics(wl, first, times, selfs, gate), PER_LAYER_UNITS
    else:
        metrics, units_of = e2e_metrics(times), END_TO_END_UNITS

    env = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mini": args.mini,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "src_sha256": src_sha256(), "instances": len(wl.instances),
        "fail_ratio": len(gate.failures) / gate.attempted,
    }
    print("# env " + json.dumps(env))
    print("# samples " + json.dumps({f"{k}#{g}": len(v) for (k, g), v in times.items()}))
    if tracer:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": wl.name, "seed": args.seed,
                            "instances": [[N, n, str(a)] for N, n, a in wl.instances]})
        totals = tracer.self_times()
        print("# self_s " + json.dumps({k: round(v, 6) for k, v in sorted(totals.items())}))
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, unit in units_of.items():
        print(f"{name} {metrics[name]!r} {unit}")
    for failure in gate.failures[:20]:
        print("# FAIL " + failure)
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units_of.items()},
    }))
    return 1 if gate.failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mini", action="store_true",
                        help="miniature instances, for the smoke test")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="checksum file (default: benchmarks/expected.json)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
