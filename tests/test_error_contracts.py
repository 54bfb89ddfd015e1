"""Contract errors named by the operation specs, exercised in one place."""

import json
import time

import pytest

from comblab import errors, verify
from comblab.combs import CombClass, OMEGA, comb_entries
from comblab.cographs import (Cotree, Graph, comb_graph, embed_cograph, eval_cotree, leaf,
                              union)
from comblab.errors import ArgumentError, ParseError, ResourceError
from comblab.genericity import (RequirementPoset, binary_string_poset, generic_chain,
                                length_requirements)
from comblab.index_core import Node, decode, enumerate_level
from comblab.patterns import (PredicateOracle, SetSystem, _above, _require_chain_count, check_graph_pattern,
                              check_grid, check_weave, grid_points, product_leq,
                              graph_witness, grid_witness, triangle_free_demo,
                              weave_witness)
from comblab.transforms import (IndexMap, grid_embed_index, grid_to_weave, pullback,
                                strongify_index, strongify_weave)
from comblab.verify import run_battery
from cli_fixtures import run_cli
from helpers import MALFORMED_SET_SYSTEMS, materialized


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
    payload = materialized(weave_witness(1, 2, 1, 1).to_json())
    payload["family"].append({"index": "0", "set": []})
    with pytest.raises(ArgumentError, match="duplicate index '0'"):
        SetSystem.from_json(payload, decode)


@pytest.mark.parametrize("payload, where", MALFORMED_SET_SYSTEMS)
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
        assert report.ok and report.violations == ()


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


def _write_json(path, payload) -> str:
    """Write a payload whose family may be an iterator; return the path."""
    if "family" in payload:
        payload = dict(payload, family=list(payload["family"]))
    path.write_text(json.dumps(payload))
    return str(path)


def _appends_1() -> IndexMap:
    """The prefix map of level 1 that appends the digit 1: "0" -> "01"."""
    return IndexMap(1, "level", {node: Node(node + "1") for node in enumerate_level(1)})


def _raised(call):
    def message(ci, tmp_path):
        with pytest.raises(ArgumentError) as err:
            call(ci)
        return str(err.value)
    return message


def _exits_2(*command):
    def message(ci, tmp_path):
        argv = [arg.format(family=_write_json(tmp_path / "family.json", ci.to_json()),
                           map=_write_json(tmp_path / "map.json", _appends_1().to_json()))
                for arg in command]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        return err.removeprefix("error: ").removesuffix("\n")
    return message


@pytest.mark.parametrize("message", [
    _raised(lambda ci: ci.reindexed({"new": Node("01")})),
    _raised(lambda ci: PredicateOracle(ci.indices, bool).reindexed({"new": Node("01")})),
    _raised(strongify_weave),
    _raised(lambda ci: pullback(ci, _appends_1())),
    _exits_2("strongify", "--in", "{family}"),
    _exits_2("pullback", "--map", "{map}", "--in", "{family}"),
], ids=["SetSystem.reindexed", "PredicateOracle.reindexed", "strongify_weave", "pullback",
        "cli-strongify", "cli-pullback"])
def test_a_missing_image_has_one_message(tmp_path, message):
    # Every reindexing step checks its images in `reindexed`, so each names
    # the first image the family lacks the same way: strongify's "0" -> "01"
    # and the map "0" -> "01" both miss the family's removed node 01.
    ci = weave_witness(2, 2, 1, 1)
    ci = ci.reindexed({node: node for node in ci.indices if node != "01"})
    assert message(ci, tmp_path) == "image index 01 is not in the family"


def test_index_map_refuses_a_source_outside_its_level(tmp_path):
    # A source of another level used to pass `IndexMap` and was refused by
    # `pullback` alone; now the map itself refuses it.
    deeper = {**{node: Node(node + "1") for node in enumerate_level(1)}, Node("00"): Node("001")}
    refusal = "index map has 1 source(s) outside level 1"
    with pytest.raises(ArgumentError) as err:
        IndexMap(1, "level", deeper)
    assert str(err.value) == refusal
    family = _write_json(tmp_path / "family.json", weave_witness(2, 2, 1, 1).to_json())
    payload = {"depth": 1, "codomain": "level", "map": [[s, t] for s, t in deeper.items()]}
    code, out, stderr = run_cli(["pullback", "--map", _write_json(tmp_path / "map.json", payload),
                                 "--in", family])
    assert (code, out, stderr) == (2, "", f"error: {refusal}\n")


def _refused_quickly(call, message: str) -> None:
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=f"^{message}$"):
        call()
    assert time.perf_counter() - start < 0.1


def test_depth_bounds(monkeypatch):
    # Every caller of the level guard builds at the budget and is refused one
    # node above it: level 2 has 16 nodes, level 1 has 4.  The checks and the
    # witness then count their comb tables, 8 combs at most at depth 1.
    family = weave_witness(2, 2, 1, OMEGA)
    identity = {node: node for node in enumerate_level(2)}
    grid_map = grid_embed_index(2).mapping
    small = weave_witness(1, 2, 1, OMEGA)
    at_depth_2 = (lambda: enumerate_level(2),
                  lambda: comb_entries(2, CombClass("up", 1), 1),  # its 16 singletons
                  lambda: strongify_index(2),
                  lambda: grid_embed_index(2),
                  lambda: IndexMap(2, "grid", grid_map),
                  lambda: pullback(family, IndexMap(2, "level", identity)))
    at_depth_1 = (lambda: check_weave(small, 1, 2, 1, OMEGA, strong=True),
                  lambda: weave_witness(1, 2, 1, OMEGA))
    monkeypatch.setattr(errors, "BUDGET", 16)
    for call in at_depth_2:
        call()
    monkeypatch.setattr(errors, "BUDGET", 15)
    for call in at_depth_2:
        _refused_quickly(call, "level 2 would have 16 nodes, over the limit 15")
    monkeypatch.setattr(errors, "BUDGET", 8)
    assert check_weave(small, 1, 2, 1, OMEGA, strong=True).ok
    assert materialized(weave_witness(1, 2, 1, OMEGA).to_json()) == \
        materialized(small.to_json())
    monkeypatch.setattr(errors, "BUDGET", 7)
    for call in at_depth_1:
        _refused_quickly(call, "enumeration would produce 8 combs, over the limit 7")
    monkeypatch.setattr(errors, "BUDGET", 3)
    for call in at_depth_1:
        _refused_quickly(call, "level 1 would have 4 nodes, over the limit 3")
    monkeypatch.undo()
    # Only level d is enumerated: the images at depth 2d are not a level.
    assert len(strongify_index(7).mapping) == 4 ** 7


def test_comb_graph_bound(monkeypatch):
    # The comb graph is held to its C(4^d, 2) vertex pairs: 120 at depth 2.
    monkeypatch.setattr(errors, "BUDGET", 120)
    assert len(comb_graph(2)[0].edges) == 40
    monkeypatch.setattr(errors, "BUDGET", 119)
    _refused_quickly(lambda: comb_graph(2),
                     "comb graph at depth 2 would have 120 vertex pairs, over the limit 119")
    monkeypatch.undo()
    _refused_quickly(lambda: comb_graph(6),
                     "comb graph at depth 6 would have 8386560 vertex pairs, "
                     "over the limit 2000000")
    graph, tree = comb_graph(5)  # 523,776 pairs
    assert (graph.n, len(graph.edges)) == (1024, 174592)
    assert eval_cotree(tree) == graph


def test_weave_witness_resource_limit(monkeypatch):
    # The witness's atoms, its genuine-k extras included, are counted before
    # the extras are made: depth 1 with k = 3 has 8 combs and 10 node subsets
    # of size below 3, 18 atoms before the repeats go.
    monkeypatch.setattr(errors, "BUDGET", 18)
    assert len(weave_witness(1, 3, 1, OMEGA, genuine_k=True).universe) == 10
    monkeypatch.setattr(errors, "BUDGET", 17)
    _refused_quickly(lambda: weave_witness(1, 3, 1, OMEGA, genuine_k=True),
                     "witness universe would have 18 atoms, over the limit 17")
    monkeypatch.undo()
    # The comb count stops once it passes the budget, so a deep level within
    # the node budget is refused at once: depth 8 used to spend 1.5 s, and
    # depth 9 10 s, on an exact count of about 170 digits.
    _refused_quickly(lambda: weave_witness(4, 2, 1, OMEGA),
                     "enumeration would produce at least 26753165 combs, over the limit 2000000")
    for d in (8, 9, 10):
        _refused_quickly(lambda: weave_witness(d, 2, 1, OMEGA),
                         r"enumeration would produce at least \d{8} combs, over the limit 2000000")


def test_every_other_guard_reads_the_one_budget(monkeypatch):
    above = _above(grid_points(3), product_leq)
    chains = _require_chain_count(above, 5, "chain listing")
    empty = Graph(4, [])
    pattern = graph_witness(empty)
    monkeypatch.setattr(errors, "BUDGET", chains)
    assert _require_chain_count(above, 5, "chain listing") == chains
    monkeypatch.setattr(errors, "BUDGET", chains - 1)
    _refused_quickly(lambda: _require_chain_count(above, 5, "chain listing"),
                     f"chain listing would produce at least {chains} chains of at most 5 "
                     f"points, over the limit {chains - 1}")
    monkeypatch.setattr(errors, "BUDGET", 15)
    assert check_graph_pattern(pattern, empty).ok  # 15 nonempty subsets of 4 vertices
    assert Graph.from_json({"n": 15, "edges": []}).n == 15
    monkeypatch.setattr(errors, "BUDGET", 14)
    _refused_quickly(lambda: check_graph_pattern(pattern, empty),
                     "graph pattern check would scan 15 subsets, over the limit 14")
    _refused_quickly(lambda: Graph.from_json({"n": 15, "edges": []}),
                     "graph has 15 vertices, over the limit 14")


def test_run_battery_counts_its_largest_sweep(monkeypatch):
    # The grid embedding's pairs at depth max_depth + 1 are counted before
    # any check runs: C(16, 2) = 120 at max depth 1.
    def first_check(max_depth):
        raise ResourceError("the first check ran")

    monkeypatch.setattr(verify, "_pair_dichotomy", first_check)
    monkeypatch.setattr(errors, "BUDGET", 120)
    with pytest.raises(ResourceError, match="^the first check ran$"):
        run_battery(1)
    monkeypatch.setattr(errors, "BUDGET", 119)
    _refused_quickly(lambda: run_battery(1),
                     "verify-paper at max depth 1 would classify 120 grid-embedding pairs, "
                     "over the limit 119")


def test_negative_depths():
    with pytest.raises(ArgumentError):
        enumerate_level(-1)


def test_set_system_from_json_names_bad_atoms():
    # A list atom used to fail as "unhashable type: 'list'", and an unknown
    # atom did not name its family entry.
    with pytest.raises(ParseError, match=r"universe\[1\] must be a JSON scalar"):
        SetSystem.from_json({"universe": ["a", ["b"]], "family": []}, decode)
    for atom in (["a"], "zz"):
        payload = {"universe": ["a"], "family": [{"index": "-", "set": ["a"]},
                                                 {"index": "0", "set": [atom]}]}
        with pytest.raises(ArgumentError, match=r"family\[1\]: atom .* is not in the universe"):
            SetSystem.from_json(payload, decode)
    with pytest.raises(ArgumentError, match="atom \\['a'\\] is not in the universe"):
        SetSystem(["a"], {0: [["a"]]})


@pytest.mark.parametrize("payload, where", [
    ([1, 2], "graph must be a JSON object"),
    ({"n": 2}, "graph needs 'edges' as a list"),
    ({"n": 2, "edges": {}}, "graph needs 'edges' as a list"),
    ({"n": True, "edges": []}, "graph needs 'n' as an integer"),
    ({"n": 2, "edges": [[0]]}, r"edges\[0\] must be a pair of vertices"),
    ({"n": 3, "edges": [[0, 1], ["1", 2]]}, r"edges\[1\] must be a pair of vertices"),
])
def test_graph_from_json_names_the_location(payload, where):
    with pytest.raises(ParseError, match=where):
        Graph.from_json(payload)


@pytest.mark.parametrize("payload, where", [
    ([1, 2], "cotree must be a JSON object"),
    ({"op": "leaf"}, "cotree needs 'v' as an integer"),
    ({"op": "leaf", "v": "0"}, "cotree needs 'v' as an integer"),
    ({"op": "leaf", "v": -1}, "cotree: leaf vertex must be nonnegative"),
    ({"op": "union", "children": [{"op": "leaf", "v": 0}]},
     "cotree: a union node needs at least two children"),
    ({"op": "join", "children": [{"op": "leaf", "v": 0}, {"v": 1}]},
     r"cotree.children\[1\] needs 'op' as a string"),
    ({"op": "fork", "children": [{"op": "leaf", "v": 0}, {"op": "leaf", "v": 1}]},
     "cotree: unknown cotree op 'fork'"),
])
def test_cotree_from_json_names_the_location(payload, where):
    with pytest.raises(ParseError, match=where):
        Cotree.from_json(payload)


@pytest.mark.parametrize("payload, where", [
    ([1, 2], "index map must be a JSON object"),
    ({"codomain": "level", "map": []}, "index map needs 'depth' as an integer"),
    ({"depth": 0, "codomain": "tree", "map": []}, "codomain must be 'level' or 'grid'"),
    ({"depth": 0, "codomain": "grid", "map": [["-", [0]]]}, r"map\[0\]: grid target \[0\]"),
    ({"depth": 0, "codomain": "grid", "map": [["-", ["0", 0]]]}, r"map\[0\]: grid target"),
    ({"depth": 0, "codomain": "level", "map": [["-"]]}, r"map\[0\] must be a \[source, target\]"),
    ({"depth": 0, "codomain": "level", "map": ["-0"]}, r"map\[0\] must be a \[source, target\]"),
    ({"depth": 0, "codomain": "level", "map": [[0, "0"]]}, r"map\[0\]: a node is written"),
    ({"depth": 0, "codomain": "level", "map": [["-", "0x"]]}, r"map\[0\]: invalid letter digit"),
    ({"depth": 1, "codomain": "level", "map": [["0", "00"], ["0", "01"]]},
     r"map\[1\]: duplicate source '0'"),
])
def test_index_map_from_json_names_the_entry(payload, where):
    with pytest.raises(ParseError, match=where):
        IndexMap.from_json(payload)


def test_decode_requires_a_string():
    for raw in (0, ["0"], None, True):
        with pytest.raises(ParseError, match="digit string"):
            decode(raw)


def test_poset_elements_must_be_distinct():
    with pytest.raises(ArgumentError, match="distinct"):
        RequirementPoset.from_table(["a", "b", "a"], [("a", "b")])


def test_generic_chain_horizon_below_one_rejected():
    # A horizon below 1 used to be read as "not dense": the chain failed
    # with a density error at the start.
    poset = binary_string_poset()
    for horizon in (0, -5):
        with pytest.raises(ArgumentError, match=f"horizon must be at least 1, got {horizon}"):
            generic_chain(poset, length_requirements(5), "", steps=5, horizon=horizon)


def test_caps_below_one_rejected():
    # check_grid and check_graph_pattern used to accept cap 0 or -3: the grid
    # check then scanned every chain and the graph check scanned nothing.
    graph = Graph(2, [(0, 1)])
    for cap in (0, -3):
        with pytest.raises(ArgumentError, match="cap must be an integer >= 1"):
            check_grid(grid_witness(2, 2), 2, 2, cap=cap)
        with pytest.raises(ArgumentError, match="cap must be an integer >= 1"):
            check_graph_pattern(graph_witness(graph), graph, cap=cap)
        with pytest.raises(ArgumentError, match="cap must be an integer >= 1"):
            check_weave(weave_witness(1, 2, 1, 1), 1, 2, 1, 1, cap=cap)


def test_negative_depths_rejected_by_battery_and_grid_bridge():
    with pytest.raises(ArgumentError, match="max_depth must be nonnegative"):
        run_battery(-1)
    with pytest.raises(ArgumentError, match="depth must be nonnegative"):
        grid_to_weave(grid_witness(1, 2), -1)


def test_embed_cograph_rejects_duplicate_leaves():
    # The second leaf 0 used to overwrite the first, dropping a vertex.
    with pytest.raises(ArgumentError, match="duplicate leaf vertex 0"):
        embed_cograph(union(leaf(0), leaf(1), leaf(0)))


def test_set_system_from_json_rejects_mixed_atom_types():
    # A universe of names and numbers used to load, and every later sort of
    # its names failed with an unlocated TypeError.
    for universe, pos in ((["a", 7, "b"], 1), ([1, 2, "c"], 2), ([2, True], 1),
                          (["a", None], 1), ([1, 2.5], 1)):
        payload = {"universe": universe, "family": []}
        with pytest.raises(ParseError, match=rf"universe\[{pos}\] must have the type of "
                                             r"universe\[0\]"):
            SetSystem.from_json(payload, decode)
    system = SetSystem.from_json({"universe": [3, 1], "family": [{"index": "-", "set": [1]}]},
                                 decode)
    assert system.atom_names(system.set_of(decode("-"))) == [1]  # integer atoms stay names


@pytest.mark.parametrize("n", [10 ** 9, 10 ** 18])
def test_graph_from_json_bounds_the_vertex_count(n):
    # A huge vertex count used to allocate its adjacency masks before
    # anything refused.
    with pytest.raises(ResourceError, match=f"graph has {n} vertices, over the limit"):
        Graph.from_json({"n": n, "edges": []})
