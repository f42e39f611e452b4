import ast
import re
import shlex
from pathlib import Path

from hyperci import coverage
from hyperci.cli import main
from hyperci.core import interval_prob

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    return re.search(rf"## {heading}\n\n```{lang}\n(.*?)```", README, re.S).group(1)


# the Library example runs, and each commented value is what it prints
def test_library_block_values():
    block = _block("Library", "python")
    lines = block.splitlines()
    namespace, seen = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            seen[source] = (eval(source, namespace), comment)
        else:
            exec(source, namespace)
    tbl = namespace["tbl"]

    def check(source, expected):
        value, comment = seen[source]
        assert value == expected
        assert comment.startswith(repr(expected))

    check("tbl.interval(13)", (40, 102))
    check("tbl.total_size", 7129)
    check("pivot_table(p).interval(13)", (39, 101))
    value, comment = seen["coverage(tbl, 250)"]
    assert value >= 0.95 and comment.startswith(">= 0.95")
    swept, _ = seen["[m / p.total_weight for m in acceptance_of(tbl).masses()]"]
    assert swept == [coverage(tbl, M) for M in range(501)]
    # coverage and masses() share one sweep; each dual window summed on its own
    dual = namespace["acceptance_of"](tbl)
    assert swept == [interval_prob(M, *dual.interval(M), tbl.params) for M in range(501)]


def test_cli_ci_example(capsys):
    line = next(l for l in _block("CLI", "bash").splitlines() if l.startswith("hyperci ci "))
    command, _, comment = line.partition("#")
    assert command.split() == "hyperci ci --N 365 --n 292 --x 16 --alpha 0.10".split()
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == "[17, 24]\n"
    assert comment.strip() == "one interval: [17, 24]"
