"""Contract errors named by the operation specs, exercised in one place."""

import pytest

from comblab.combs import CombClass, OMEGA
from comblab.cographs import Graph, comb_graph
from comblab.errors import ArgumentError, ParseError, ResourceError
from comblab.index_core import Letter, decode, enumerate_level
from comblab.patterns import (SetSystem, check_graph_pattern, check_grid, check_weave,
                              graph_witness, grid_witness, triangle_free_demo,
                              weave_witness)
from comblab.transforms import grid_embed_index, strongify_index


def test_letter_from_digit_rejects_garbage():
    with pytest.raises(ParseError):
        Letter.from_digit("x")


def test_comb_class_validation():
    with pytest.raises(ArgumentError):
        CombClass("sideways", 1)
    with pytest.raises(ArgumentError):
        CombClass("up", -1)
    with pytest.raises(ArgumentError):
        CombClass("up", 1, "literal")
    with pytest.raises(ArgumentError):
        CombClass("wide-right", 1, "strange")


def test_set_system_validation():
    with pytest.raises(ArgumentError):
        SetSystem(["a", "a"], {})
    with pytest.raises(ArgumentError):
        SetSystem(["a"], {0: {"zzz"}})
    with pytest.raises(ArgumentError):
        SetSystem(["a"], {0: {5}})
    ci = SetSystem(["a"], {0: {"a"}})
    with pytest.raises(ArgumentError):
        ci.set_of(99)


def test_set_system_from_json_rejects_duplicate_index():
    payload = weave_witness(1, 2, 1, 1).to_json()
    payload["family"].append({"index": "0", "set": []})
    with pytest.raises(ArgumentError, match="duplicate index '0'"):
        SetSystem.from_json(payload, decode)


@pytest.mark.parametrize("payload, where", [
    ([1, 2], "JSON object"),
    ({"family": []}, "'universe' list"),
    ({"universe": [], "family": {"index": "-", "set": []}}, "'family' list"),
    ({"universe": ["a"], "family": ["-"]}, r"family\[0\] must be an object"),
    ({"universe": ["a"], "family": [{"set": ["a"]}]}, r"family\[0\] must be an object"),
    ({"universe": ["a", "b"], "family": [{"index": "-", "set": "ab"}]},
     r"family\[0\] needs a 'set' list"),
    ({"universe": ["a"], "family": [{"index": "-", "set": []}, {"index": "", "set": []}]},
     r"family\[1\]: bad index ''"),
])
def test_set_system_from_json_rejects_malformed_payload(payload, where):
    with pytest.raises(ParseError, match=where):
        SetSystem.from_json(payload, decode)


def test_checkers_reject_negative_max_violations():
    graph = Graph(2, [(0, 1)])
    checks = (
        lambda mv: check_weave(weave_witness(1, 2, 1, 1), 1, 2, 1, 1, max_violations=mv),
        lambda mv: check_grid(grid_witness(2, 2), 2, 2, max_violations=mv),
        lambda mv: check_graph_pattern(graph_witness(graph), graph, max_violations=mv),
    )
    for check in checks:
        with pytest.raises(ArgumentError, match="max_violations"):
            check(-1)
        report = check(0)
        assert report.ok and report.violations == []


def test_witness_parameter_validation():
    with pytest.raises(ArgumentError):
        weave_witness(1, 1, 1, 1)
    with pytest.raises(ArgumentError):
        grid_witness(2, 1)
    with pytest.raises(ArgumentError):
        triangle_free_demo(1)


def test_check_grid_validation():
    ci = grid_witness(2, 2)
    with pytest.raises(ArgumentError):
        check_grid(ci, 2, 1)
    with pytest.raises(ArgumentError):
        check_grid(ci, 0, 2)
    with pytest.raises(ArgumentError):
        check_grid(ci, 3, 2)  # wrong side for the indexed square


def test_index_map_apply_outside_domain():
    fmap = grid_embed_index(1)
    with pytest.raises(ArgumentError):
        fmap.apply(decode("00"))


def test_depth_bounds(monkeypatch):
    monkeypatch.setenv("COMBLAB_MAX_DEPTH", "3")
    with pytest.raises(ResourceError):
        strongify_index(2)  # doubled depth 4 exceeds the bound
    with pytest.raises(ResourceError):
        enumerate_level(4)
    monkeypatch.setenv("COMBLAB_MAX_DEPTH", "nonsense")
    with pytest.raises(ArgumentError):
        enumerate_level(1)


def test_comb_graph_bound():
    with pytest.raises(ResourceError):
        comb_graph(5)


def test_weave_witness_resource_limit():
    with pytest.raises(ResourceError):
        weave_witness(3, 2, 1, OMEGA, limit=100)


def test_negative_depths():
    with pytest.raises(ArgumentError):
        enumerate_level(-1)
