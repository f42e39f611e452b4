"""The table digests recorded in benchmarks/expected.json.

A full benchmark run checks every entry; its smoke test builds only the
miniature instances. Here both methods' tables for the seed-0 ``ladder``,
``wide`` and ``small`` groups are hashed by the benchmark's own recipe
(``digests`` in benchmarks/run.py) and must match all of them.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hyperci import Params, cstar_table, pivot_table

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    # run.py edits sys.path and the environment when imported; undo both
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        for name in ("HYPERCI_WORKERS", "PYTHONDONTWRITEBYTECODE"):
            mp.delenv(name, raising=False)
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    return run


def test_tables_match_recorded_digests(bench):
    expected = json.loads((BENCH / "expected.json").read_text())
    got = {}
    for name in ("ladder", "wide", "small"):
        for group in bench.workloads.make(name, 0).groups:
            params = [Params(*inst) for inst in group]
            for method, build in (("cstar", cstar_table), ("pivot", pivot_table)):
                got.update(bench.digests(method, group, [build(p) for p in params]))
    assert len(expected) == 18
    assert got == expected
