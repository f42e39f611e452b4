import ast
import sys
from pathlib import Path

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
