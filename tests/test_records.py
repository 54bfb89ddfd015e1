"""The library's records are NamedTuples: immutable, equal and hashed by
value, and cheap to import, since nothing at import time generates code for
them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from comblab import cographs, combs, genericity, patterns, transforms, verify
from comblab.errors import ArgumentError
from comblab.index_core import Node, enumerate_level

SRC = Path(__file__).resolve().parents[1] / "src"


def _always(_element) -> bool:
    return True


def _leaf(vertex: int) -> cographs.Cotree:
    return cographs.Cotree(((cographs.LEAF, vertex),))


def _identity_map() -> transforms.IndexMap:
    return transforms.IndexMap(1, "level", {node: node for node in enumerate_level(1)})


# Each builder makes a new record with the same values on every call; the
# second item names one of its fields.
RECORDS = {
    "SplitKind": (lambda: combs.narrow_below(1), "bit"),
    "SplitWitness": (lambda: combs.SplitWitness(Node("0"), combs.wide_left()), "tau"),
    "CombClass": (lambda: combs.wide_right(2, combs.LITERAL), "n"),
    "CombCertificate": (lambda: combs.is_comb(enumerate_level(1)[:2], combs.up(2)), "a_size"),
    "Violation": (lambda: patterns.Violation(patterns.CONSISTENCY, (Node("0"), Node("1"))),
                  "indices"),
    "Report": (lambda: patterns.Report(False, 3, violations=(
        patterns.Violation(patterns.INCONSISTENCY, ((0, 1), (1, 0))),)), "ok"),
    "Template": (lambda: patterns.Template.make({1, 2, 3}, [{1, 2}], [{1, 2, 3}], 2), "k"),
    "Cotree": (lambda: cographs.Cotree(_leaf(0).nodes + _leaf(1).nodes + ((cographs.JOIN, 2),)),
               "nodes"),
    "DensePredicate": (lambda: genericity.DensePredicate("all", _always), "test"),
    "ChainStep": (lambda: genericity.ChainStep("01", (0, 2)), "satisfied"),
    "IndexMap": (_identity_map, "mapping"),
    "CheckResult": (lambda: verify.CheckResult("pair-dichotomy", True, "all pairs"), "detail"),
}


def test_cli_import_needs_no_code_generation():
    # `-S` keeps the host's site packages out of the answer.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    script = f"import sys, comblab.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    build, field = RECORDS[name]
    record, twin = build(), build()
    assert type(record).__name__ == name
    assert record is not twin and record == twin
    if name != "IndexMap":  # it holds a dict
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(twin, field))
    assert getattr(record, field) == getattr(twin, field)


@pytest.mark.parametrize("build, message", [
    (lambda: combs.CombClass("down", 1), "unknown comb kind 'down'"),
    (lambda: combs.CombClass("up", -1),
     "comb size bound must be a nonnegative integer or OMEGA, got -1"),
    (lambda: combs.CombClass("wide-right", 1, "loose"), "unknown wide reading 'loose'"),
    (lambda: combs.CombClass("up", 1, combs.LITERAL),
     "the reading switch only applies to wide-right combs"),
    (lambda: cographs.Cotree(((cographs.LEAF, None),)), "a leaf carries exactly one vertex"),
    (lambda: cographs.Cotree(((cographs.LEAF, "0"),)), "a leaf carries exactly one vertex"),
    (lambda: cographs.Cotree(_leaf(0).nodes + ((cographs.UNION, 1),)),
     "a union node needs at least two children"),
    (lambda: cographs.Cotree(_leaf(0).nodes * 2 + (("meet", 2),)), "unknown cotree op 'meet'"),
    (lambda: cographs.Cotree(_leaf(0).nodes * 2 + ((cographs.JOIN, 2.0),)),
     "a join node needs at least two children"),
    (lambda: cographs.Cotree("union"), "cotree nodes must be a tuple, got str"),
    (lambda: cographs.Cotree(list(_leaf(0).nodes)), "cotree nodes must be a tuple, got list"),
    (lambda: cographs.Cotree(("union",)), "cotree entry 0 is not an (op, value) pair: 'union'"),
    (lambda: cographs.Cotree(((cographs.LEAF, 0, 1),)),
     "cotree entry 0 is not an (op, value) pair: ('leaf', 0, 1)"),
    # Five children after three finished subtrees: the count of finished
    # subtrees would still end at one.
    (lambda: cographs.Cotree(_leaf(0).nodes * 3 + ((cographs.UNION, 5),) + _leaf(0).nodes * 2),
     "cotree entry 3: a union node of 5 children follows 3 subtrees"),
    (lambda: cographs.Cotree(_leaf(0).nodes * 2), "a cotree needs exactly one root, got 2"),
    (lambda: cographs.Cotree(()), "a cotree needs exactly one root, got 0"),
    (lambda: transforms.IndexMap(1, "level", {}), "index map is missing 0"),
    (lambda: transforms.IndexMap(1, "grid", {node: (0, 0) for node in enumerate_level(1)}),
     "index map must be injective"),
    # `_replace` and `_make` build through the same checks.
    (lambda: combs.up(1)._replace(kind="down"), "unknown comb kind 'down'"),
    (lambda: _leaf(0)._replace(nodes=((cographs.UNION, 0),)),
     "a union node needs at least two children"),
    (lambda: _identity_map()._replace(mapping={}), "index map is missing 0"),
    # A template built directly, not through `Template.make`, is checked too.
    (lambda: patterns.Template(frozenset({0}), (frozenset({1}),), (), 2),
     "constraint sets must be subsets of the indices"),
    (lambda: patterns.Template(frozenset({0}), (), (frozenset({1}),), 2),
     "constraint sets must be subsets of the indices"),
    (lambda: patterns.Template(frozenset({0}), (), (), 1), "k must be an integer >= 2, got 1"),
    (lambda: patterns.Template.make({0}, [{0}], [], 2)._replace(must_k_inconsist=({1},)),
     "constraint sets must be subsets of the indices"),
    (lambda: patterns.Template.make({0}, [{0}], [], 2)._replace(k=1),
     "k must be an integer >= 2, got 1"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ArgumentError) as err:
        build()
    assert str(err.value) == message


def test_deep_cotree_compares_hashes_and_prints():
    # A 200,000-level tree is a flat tuple of 400,001 entries, so `==`,
    # `hash` and `repr` are a tuple's and need no recursion at all.
    script = """if True:
        from comblab.cographs import JOIN, LEAF, Cotree
        nodes = [(LEAF, 0)]
        for v in range(1, 200_001):
            nodes += [(LEAF, v), (JOIN, 2)]
        tree, twin = Cotree(tuple(nodes)), Cotree(tuple(nodes))
        print(tree is not twin and tree == twin, hash(tree) == hash(twin))
        text = repr(tree)
        print(text.startswith("Cotree(nodes=(('leaf', 0), ('leaf', 1), ('join', 2),"),
              eval(text) == tree)
        """
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\nTrue True\n"
