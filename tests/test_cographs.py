import hashlib
import json
import random
from itertools import combinations

import pytest

from comblab import cographs as cographs_mod
from comblab.combs import OMEGA, UP_ONE, classify_pair
from comblab.cographs import (JOIN, LEAF, UNION, Cotree, Graph, P4Certificate, comb_graph,
                              combine, cotree_of, embed_cograph, eval_cotree,
                              find_p4, graph_to_weave_oracle, join, leaf,
                              random_cotree, union, weave_to_graph_oracle)
from comblab.cographs import _first_p4
from comblab.errors import ArgumentError
from comblab.index_core import decode, enumerate_level
from comblab.patterns import (check_graph_pattern, check_weave, graph_witness,
                              weave_witness)

from helpers import (SEED, all_small_cotrees, induced_p4_oracle, least_induced_p4,
                     random_graph)


def all_graphs(n):
    pair_list = list(combinations(range(n), 2))
    for bits in range(1 << len(pair_list)):
        yield Graph(n, [e for i, e in enumerate(pair_list) if (bits >> i) & 1])


# --- algebra ----------------------------------------------------------------


def test_combine_examples():
    k1 = Graph(1)
    k2 = combine("join", k1, k1)
    assert k2.edges == frozenset({(0, 1)})
    two_k2 = combine("union", k2, k2)
    assert two_k2.n == 4
    assert two_k2.edges == frozenset({(0, 1), (2, 3)})


def test_combine_edge_count_oracle():
    rng = random.Random(SEED)
    for _ in range(100):
        g0 = random_graph(rng.randint(1, 6), 0.5, rng)
        g1 = random_graph(rng.randint(1, 6), 0.5, rng)
        joined = combine("join", g0, g1)
        assert len(joined.edges) == len(g0.edges) + len(g1.edges) + g0.n * g1.n
        united = combine("union", g0, g1)
        assert len(united.edges) == len(g0.edges) + len(g1.edges)


def test_eval_cotree_examples():
    assert eval_cotree(leaf(0)) == Graph(1)
    k3 = eval_cotree(join(leaf(0), leaf(1), leaf(2)))
    assert len(k3.edges) == 3
    with pytest.raises(ArgumentError):
        eval_cotree(union(leaf(0), leaf(0)))
    with pytest.raises(ArgumentError):
        eval_cotree(union(leaf(0), leaf(5)))


def test_eval_cotree_roundtrip_random():
    rng = random.Random(SEED)
    for _ in range(200):
        tree = random_cotree(rng.randint(1, 24), rng.randrange(1 << 30))
        graph = eval_cotree(tree)
        back = cotree_of(graph)
        assert isinstance(back, Cotree)
        assert eval_cotree(back) == graph


def _post_order_oracle(nodes):
    """Whether `nodes` is one tree in post-order, read by recursion from its
    last entry."""
    def start(pos):  # where the subtree ending at pos begins, or None
        if pos < 0 or not (isinstance(nodes[pos], tuple) and len(nodes[pos]) == 2):
            return None
        op, value = nodes[pos]
        if op == "leaf":
            return pos if type(value) is int else None
        if op not in ("union", "join") or type(value) is not int or value < 2:
            return None
        end = pos - 1
        for _ in range(value):
            first = start(end)
            if first is None:
                return None
            end = first - 1
        return end + 1

    return bool(nodes) and start(len(nodes) - 1) == 0


def test_cotree_validation():
    # `Cotree(nodes)` accepts exactly the post-order tuples of one tree, and
    # refuses everything else with an ArgumentError.
    assert Cotree(((LEAF, 0), (LEAF, 1), (UNION, 2))) == union(leaf(0), leaf(1))
    for bad in ("union", [(LEAF, 0)], (), ((LEAF, 0), (LEAF, 1)),
                ((LEAF, 0), (LEAF, 1), (LEAF, 2), (UNION, 5), (LEAF, 3), (LEAF, 4))):
        with pytest.raises(ArgumentError):
            Cotree(bad)
    entries = [(LEAF, 0), (LEAF, 1), (LEAF, -2), (LEAF, "0"), (LEAF, True), (UNION, 0),
               (UNION, 1), (UNION, 2), (JOIN, 2), (JOIN, 3), (UNION, 2.0), ("meet", 2),
               ("union",), (LEAF, 0, 1), "leaf", None]
    rng = random.Random(SEED + 6)
    accepted = 0
    for _ in range(20_000):
        nodes = tuple(rng.choice(entries) for _ in range(rng.randint(0, 7)))
        try:
            Cotree(nodes)
        except ArgumentError:
            assert not _post_order_oracle(nodes), nodes
        else:
            assert _post_order_oracle(nodes), nodes
            accepted += 1
    assert accepted > 100


# --- p4 search --------------------------------------------------------------


def test_find_p4_examples():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert find_p4(p4) == P4Certificate(0, 1, 2, 3)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert find_p4(c4) is None
    assert induced_p4_oracle(c4) is None


def test_find_p4_matches_definition_oracle():
    for n in range(1, 6):
        for graph in all_graphs(n):
            assert (find_p4(graph) is None) == (induced_p4_oracle(graph) is None)


def test_find_p4_certificate_is_induced_path():
    rng = random.Random(SEED)
    for _ in range(200):
        graph = random_graph(8, rng.random(), rng)
        cert = find_p4(graph)
        if cert is None:
            continue
        a, b, c, d = cert
        assert graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(c, d)
        assert not graph.has_edge(a, c) and not graph.has_edge(a, d)
        assert not graph.has_edge(b, d)


def test_find_p4_is_the_least_induced_path():
    # The certificate is the lexicographically least induced four-path,
    # found by trying every ordered 4-tuple.
    for n in range(6):
        for graph in all_graphs(n):
            assert find_p4(graph) == least_induced_p4(graph), graph
    rng = random.Random(SEED + 3)
    for trial in range(300):
        graph = random_graph(8 + trial % 2, rng.random(), rng)
        assert find_p4(graph) == least_induced_p4(graph), graph


def test_find_p4_scans_only_graphs_that_are_not_cographs(monkeypatch):
    # The decomposition answers for a cograph; the scan runs only when it
    # fails, once.
    scanned = []

    def scan(graph):
        scanned.append(graph)
        return _first_p4(graph)

    monkeypatch.setattr(cographs_mod, "_first_p4", scan)
    for n in range(6):
        for graph in all_graphs(n):
            before = len(scanned)
            cert = find_p4(graph)
            assert len(scanned) - before == (induced_p4_oracle(graph) is not None), graph
            assert (cert is None) == (induced_p4_oracle(graph) is None), graph
    rng = random.Random(SEED + 4)
    scanned.clear()
    for _ in range(100):
        assert find_p4(eval_cotree(random_cotree(rng.randint(1, 24),
                                                 rng.randrange(1 << 30)))) is None
    assert scanned == []


def test_deep_cograph_needs_no_deep_recursion():
    # A threshold graph's cotree is about as deep as it has vertices: past
    # the interpreter's recursion limit, the decomposition must still answer.
    n = 1100
    graph = _threshold_graph(n)
    assert isinstance(cotree_of(graph), Cotree)
    assert find_p4(graph) is None


def _threshold_graph(n):
    # Each odd vertex is joined to every earlier one: a cotree about as deep
    # as the graph has vertices.
    return Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


def test_deep_cotree_walks_need_no_deep_recursion():
    # The threshold graph's cotree is a path of 1,099 inner vertices: its
    # walks, folds, comparison, hash and repr must not recurse once per level.
    n = 1100
    graph = _threshold_graph(n)
    tree = cotree_of(graph)
    assert tree.leaves() == list(range(n))
    assert eval_cotree(tree) == graph
    twin = cotree_of(graph)
    assert tree is not twin and tree == twin and hash(tree) == hash(twin)
    assert eval(repr(tree), {"Cotree": Cotree}) == tree
    dot = tree.to_dot()
    assert dot.count(" -> ") == 2 * n - 2 and dot.count("[label=") == 2 * n - 1
    depth = 0
    node = tree.to_json()
    while node["op"] != "leaf":
        node, depth = node["children"][0], depth + 1
    assert depth == n - 1


def test_deep_cotree_embeds_exactly():
    # The embedding of a deep cotree is injective and sends edges, and only
    # edges, to UpOne pairs; checked on the pairs of 60 seeded vertices.
    n = 1100
    graph = _threshold_graph(n)
    depth, mapping = embed_cograph(cotree_of(graph))
    assert list(mapping) == list(range(n))
    assert len(set(mapping.values())) == n
    assert {node.depth for node in mapping.values()} == {depth}
    sample = random.Random(SEED + 7).sample(range(n), 60)
    for u, v in combinations(sample, 2):
        assert (classify_pair(mapping[u], mapping[v]) == UP_ONE) == graph.has_edge(u, v)


def test_cotree_outputs_are_p4_free():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        tree = random_cotree(rng.randint(1, 16), rng.randrange(1 << 30))
        assert find_p4(eval_cotree(tree)) is None


# --- recognition ------------------------------------------------------------


def test_cotree_of_examples():
    k2 = Graph(2, [(0, 1)])
    tree = cotree_of(k2)
    assert tree.to_json() == {"op": "join", "children": [
        {"op": "leaf", "v": 0}, {"op": "leaf", "v": 1}]}
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert cotree_of(p4) == P4Certificate(0, 1, 2, 3)


def test_cotree_of_comb_graph_depth1():
    graph, tree = comb_graph(1)
    expected = union(join(leaf(0), leaf(1)), join(leaf(2), leaf(3)))
    assert tree == expected
    # recognition recovers the same tree from the bare graph
    assert cotree_of(graph) == expected


def test_cotree_of_random16():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        graph = random_graph(16, rng.random(), rng)
        result = cotree_of(graph)
        assert isinstance(result, Cotree) == (_first_p4(graph) is None)


# --- comb graph -------------------------------------------------------------


def test_comb_graph_examples():
    graph, _ = comb_graph(0)
    assert graph.n == 1 and not graph.edges
    graph, _ = comb_graph(1)
    assert graph.edges == frozenset({(0, 1), (2, 3)})
    graph, _ = comb_graph(2)
    assert len(graph.edges) == 40


def test_comb_graph_recursion_counts():
    expected = 0
    for d in range(4):
        graph, tree = comb_graph(d)
        assert len(graph.edges) == expected
        assert eval_cotree(tree) == graph
        expected = 4 * expected + 2 * 16 ** d


def test_comb_graph_edges_are_up_pairs():
    level = enumerate_level(2)
    graph, _ = comb_graph(2)
    for i, j in combinations(range(len(level)), 2):
        expected = classify_pair(level[i], level[j]) == UP_ONE
        assert graph.has_edge(i, j) == expected


# --- embedding --------------------------------------------------------------


def test_embed_cograph_examples():
    depth, mapping = embed_cograph(leaf(7))
    assert depth == 0 and mapping == {7: decode("-")}
    depth, mapping = embed_cograph(join(leaf(0), leaf(1)))
    assert depth == 1
    assert mapping == {0: decode("0"), 1: decode("1")}
    depth, mapping = embed_cograph(union(leaf(0), leaf(1)))
    assert mapping == {0: decode("0"), 1: decode("2")}


def test_embed_cograph_exactness_random():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        tree = random_cotree(rng.randint(1, 20), rng.randrange(1 << 30))
        graph = eval_cotree(tree)
        _, mapping = embed_cograph(tree)
        assert len(set(mapping.values())) == len(mapping)
        for u, v in combinations(sorted(mapping), 2):
            assert (classify_pair(mapping[u], mapping[v]) == UP_ONE) == \
                graph.has_edge(u, v)


def test_cotree_texts_are_pinned():
    # The JSON and DOT text and the embedding map, in order, of every
    # alternating cotree on up to 5 leaves and of 300 seeded random cotrees,
    # hashed together, so a change to any byte of them shows.
    def trees():
        yield from all_small_cotrees(5)
        rng = random.Random(SEED + 5)
        for _ in range(300):
            yield random_cotree(rng.randint(1, 40), rng.randrange(1 << 30))

    digest = hashlib.sha256()
    count = 0
    for tree in trees():
        depth, mapping = embed_cograph(tree)
        digest.update(json.dumps(tree.to_json()).encode())
        digest.update(tree.to_dot().encode())
        digest.update(f"{depth} {[(v, str(node)) for v, node in mapping.items()]}\n".encode())
        count += 1
    assert count == 835
    assert digest.hexdigest() == \
        "f94fd102ba041c0dbd2d5292b6061fb5dc205c72329696cb6cdfe45b607eeafc"


# --- bridges ----------------------------------------------------------------


def test_graph_to_weave_bridge():
    for d in (1, 2):
        graph, _ = comb_graph(d)
        pattern = graph_witness(graph)
        ci = graph_to_weave_oracle(pattern, d)
        assert check_weave(ci, d, 2, OMEGA, OMEGA, strong=True).ok


def test_graph_to_weave_rejects_non_pattern():
    from comblab.patterns import SetSystem

    graph, _ = comb_graph(1)
    bad = SetSystem(["a"], {v: {"a"} for v in range(graph.n)})
    with pytest.raises(ArgumentError):
        graph_to_weave_oracle(bad, 1)


def test_weave_to_graph_bridge_small_cotrees():
    ci_by_depth = {d: weave_witness(d, 2, 1, OMEGA) for d in (1, 2)}
    seen = set()
    for tree in all_small_cotrees(4):
        depth, _ = embed_cograph(tree)
        if depth > 2 or depth == 0:
            continue
        key = tree.to_dot()
        if key in seen:
            continue
        seen.add(key)
        pattern = weave_to_graph_oracle(ci_by_depth[depth], tree)
        assert check_graph_pattern(pattern, eval_cotree(tree)).ok


def test_weave_to_graph_rejects_depth_overflow():
    ci = weave_witness(1, 2, 1, OMEGA)
    deep = join(union(join(leaf(0), leaf(1)), leaf(2)), leaf(3))
    with pytest.raises(ArgumentError):
        weave_to_graph_oracle(ci, deep)


def test_weave_to_graph_join_edge_inconsistent():
    ci = weave_witness(1, 2, 1, OMEGA)
    pattern = weave_to_graph_oracle(ci, join(leaf(0), leaf(1)))
    assert not pattern.consistent([0, 1])
    assert pattern.consistent([0])


def test_bridge_roundtrip():
    for d in (1, 2):
        graph, tree = comb_graph(d)
        pattern = graph_witness(graph)
        weave_ci = graph_to_weave_oracle(pattern, d)
        for sub in (join(leaf(0), leaf(1)), union(leaf(0), leaf(1))):
            back = weave_to_graph_oracle(weave_ci, sub)
            assert check_graph_pattern(back, eval_cotree(sub)).ok


# --- generators and serialization -------------------------------------------


def test_random_cotree_deterministic():
    assert random_cotree(9, 5).to_json() == random_cotree(9, 5).to_json()
    assert random_cotree(1, 0) == leaf(0)


def test_graph_json_roundtrip():
    graph = Graph(4, [(0, 1), (2, 3)])
    assert Graph.from_json(graph.to_json()) == graph


def test_cotree_json_roundtrip():
    tree = union(join(leaf(0), leaf(1)), leaf(2))
    assert Cotree.from_json(tree.to_json()) == tree


def test_dot_exports():
    graph = Graph(2, [(0, 1)])
    dot = graph.to_dot()
    assert "0 -- 1;" in dot
    tree_dot = cotree_of(graph).to_dot()
    assert "join" in tree_dot


def test_graph_validation():
    with pytest.raises(ArgumentError):
        Graph(2, [(0, 0)])
    with pytest.raises(ArgumentError):
        Graph(2, [(0, 5)])
