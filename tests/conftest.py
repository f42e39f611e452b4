import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from hyperci import Params, cstar_table, pivot_table, run_certification


@pytest.fixture(scope="session")
def p500():
    return Params(500, 100, 0.05)


@pytest.fixture(scope="session")
def cstar500(p500):
    return cstar_table(p500)


@pytest.fixture(scope="session")
def pivot500(p500):
    return pivot_table(p500)


@pytest.fixture(scope="session")
def certification():
    """Full exact-grid certification run, shared by the acceptance tests."""
    start = time.perf_counter()
    report = run_certification(max_population=40)
    elapsed = time.perf_counter() - start
    return report, elapsed
