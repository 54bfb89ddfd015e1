"""The README's library snippet runs, and gives the results its comments name."""

import ast
import re
from pathlib import Path

from comblab import Cotree

README = Path(__file__).resolve().parents[1] / "README.md"


def _snippet(heading: str) -> str:
    """The first ```python block after the given heading."""
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```python\n(.*?)^```$",
                      text, re.DOTALL | re.MULTILINE)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def _run(source: str):
    """Run the statements in order; return the namespace and, for each
    expression statement, its value with the comment that ends its line."""
    namespace, results = {}, []
    lines = source.splitlines()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            results.append((value, comment))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    return namespace, results


def test_library_at_a_glance():
    namespace, results = _run(_snippet("Library at a glance"))
    (pair, pair_comment), (ok, ok_comment), (tree, _) = results
    assert pair == "UpOne" and ast.literal_eval(pair_comment) == pair
    assert ok is True and ast.literal_eval(ok_comment) is True
    graph = namespace["graph"]
    assert (graph.n, len(graph.edges)) == (16, 40)
    assert isinstance(tree, Cotree) and isinstance(namespace["cotree"], Cotree)
