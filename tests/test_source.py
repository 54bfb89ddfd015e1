"""The library's source holds no code that only the tests use, and no
resource limit outside the one budget."""

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


def _resource_refusals(node: ast.AST, function: str):
    """The innermost enclosing function of each call to `ResourceError`, and
    of each raise of the bare class, below `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and not isinstance(child.exc, ast.Call):
            target = child.exc
        else:
            target = child.func if isinstance(child, ast.Call) else None
        if target is not None and "ResourceError" in _names(target):
            yield function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else function
        yield from _resource_refusals(child, inner)


def test_every_resource_refusal_goes_through_the_one_budget():
    # require_within holds a count to errors.BUDGET; the JSON reader's
    # nesting refusal counts nothing.  No other function keeps a limit of
    # its own.
    refusals = {(path.name, function) for path in sorted(SRC.glob("*.py"))
                for function in _resource_refusals(
                    ast.parse(path.read_text(encoding="utf-8")), "<module>")}
    assert refusals == {("errors.py", "require_within"), ("cli.py", "_read_json")}
