"""The library's source holds no code that only the tests use."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "comblab"


def _names(tree: ast.AST):
    """Every name a tree reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_top_level_definition_is_used_in_src():
    # A definition counts as used when src names it outside its own body;
    # the re-exports of `comblab/__init__.py` count.  Test-only code belongs
    # in tests/helpers.py.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and uses[node.name] == Counter(_names(node))[node.name]]
    assert unused == []
