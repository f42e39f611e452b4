import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperci


# a name left in __all__ after its definition is gone breaks
# `from hyperci import *` with an AttributeError
def test_every_export_resolves_once():
    names = hyperci.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from hyperci import *", namespace)
    assert [name for name in names if name not in namespace] == []


# the package promises no runtime dependencies beyond the standard library
def test_imports_only_the_standard_library():
    package = Path(hyperci.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# a child reports the modules its statements load beyond the interpreter's own
# start-up; stdout is redirected while they run, so a CLI call prints nothing
CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    {}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(statement):
    src = os.path.dirname(os.path.dirname(hyperci.__file__))
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(statement)], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return set(json.loads(out))


def hyperci_modules(modules):
    return sorted(m for m in modules if m.partition(".")[0] == "hyperci")


def test_import_runs_no_submodule():
    assert hyperci_modules(loaded_by("import hyperci")) == ["hyperci"]


def test_params_loads_only_core():
    loaded = loaded_by("import hyperci; hyperci.Params(10, 3, 0.1)")
    assert hyperci_modules(loaded) == ["hyperci", "hyperci.core"]
    assert "fractions" not in loaded


# every command but certify runs without the exact-rational checker, and a
# float alpha needs no fractions
@pytest.mark.parametrize("argv", [
    ["ci", "--N", "20", "--n", "6", "--alpha", "0.1", "--x", "3"],
    ["table", "--N", "20", "--n", "6", "--alpha", "0.1"],
    ["coverage", "--N", "20", "--n", "6", "--alpha", "0.1", "--method", "pivot"],
    ["compare", "--N", "20", "--alpha", "0.1", "--n-list", "3,6"],
], ids=lambda argv: argv[0])
def test_cli_commands_load_no_checker(argv):
    loaded = loaded_by(f"from hyperci.cli import main; assert main({argv!r}) == 0")
    assert hyperci_modules(loaded) == [
        "hyperci", "hyperci.acceptance", "hyperci.cli", "hyperci.core",
        "hyperci.inversion", "hyperci.monotonize", "hyperci.pivot",
    ]
    assert "fractions" not in loaded


def test_exports_listed_and_unknown_names_rejected():
    assert set(hyperci.__all__) <= set(dir(hyperci))
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperci.no_such_name
