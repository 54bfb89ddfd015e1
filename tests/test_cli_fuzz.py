"""CLI fuzz: every subcommand that reads a fixture input is run on that input
with one JSON value replaced, or one key dropped, and must answer with an
exit code (0-3) instead of raising."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cli_fixtures import build_workdir, golden_commands, run_cli

REPLACEMENTS = (None, True, "x", [], {}, [1], -1)
DROP = object()  # the mutation that removes a key instead of replacing its value


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = build_workdir(tmp_path_factory.mktemp("fuzz"))
    (root / "mutated").mkdir()
    return root


# Fixture inputs that no golden command reads, with commands that read
# their kind of JSON ({f} is the input, {root} the fixture directory).
EXTRA_READERS = {
    "map.json": [["pullback", "--map", "{f}", "--in", "{root}/weave1.json"]],
    "combgraph1_graph.json": [
        ["cotree", "--in", "{f}"], ["find-p4", "--in", "{f}"],
        ["witness", "graph", "--graph", "{f}"],
        ["check-graph-pattern", "--graph", "{f}", "--in", "{root}/combpattern.json"]],
}


def readers(root) -> dict:
    """Input file name -> the command lines that read it."""
    table = {}
    for _, argv, _ in golden_commands(root):
        for arg in argv:
            if arg.startswith(str(root)):
                table.setdefault(Path(arg).name, []).append(argv)
    for name, commands in EXTRA_READERS.items():
        table[name] = [[arg.format(f=root / name, root=root) for arg in argv]
                       for argv in commands]
    return table


def value_paths(value, path=()):
    """Every position in a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from value_paths(item, path + (key,))
    elif isinstance(value, list):
        for pos, item in enumerate(value):
            yield from value_paths(item, path + (pos,))


def mutated(value, path, replacement):
    if not path:
        return replacement
    value = json.loads(json.dumps(value))
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    if replacement is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return value


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_never_raise(fuzz_root, data):
    table = readers(fuzz_root)
    name = data.draw(st.sampled_from(sorted(table)), label="input")
    payload = json.loads((fuzz_root / name).read_text())
    path = data.draw(st.sampled_from(list(value_paths(payload))), label="path")
    choices = list(REPLACEMENTS)
    if path and isinstance(path[-1], str):
        choices.append(DROP)
    replacement = data.draw(st.sampled_from(choices), label="mutation")
    target = fuzz_root / "mutated" / name
    target.write_text(json.dumps(mutated(payload, path, replacement)))
    for argv in table[name]:
        argv = [str(target) if arg == str(fuzz_root / name) else arg for arg in argv]
        code, _, _ = run_cli(argv)
        assert code in (0, 1, 2, 3), (argv, path, replacement)
