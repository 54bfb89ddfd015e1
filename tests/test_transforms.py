import json
import random
from itertools import combinations

import pytest

from comblab.combs import (CombClass, NARROW_BELOW, OMEGA, UP_ONE, WIDE_LEFT,
                           classify_pair, is_comb, split_relation)
from comblab.errors import ArgumentError
from comblab.index_core import Node, decode, encode, enumerate_level
from comblab.patterns import (SetSystem, check_grid, check_weave, comparable,
                              grid_points, grid_witness, strictly_below, weave_witness)
from comblab.transforms import (IndexMap, epsilon_scale, grid_embed_index,
                                grid_to_weave, pullback, scale_point,
                                strongify_index, strongify_weave)

from helpers import SEED, is_antichain, is_strict_chain, letter, subset_filter_combs


def strongify_formula(node):
    """Independent evaluation of the displayed doubling formula: letter
    (i,j) becomes (i,0)(i,j), each spelled from its coordinates."""
    return Node("".join(f"{2 * i}{2 * i + j}" for i, j in map(letter, node)))


# --- strongify --------------------------------------------------------------


def test_strongify_displayed_values():
    fmap = strongify_index(1)
    assert encode(fmap.apply(decode("2"))) == "22"
    assert encode(fmap.apply(decode("1"))) == "01"


def test_strongify_depth2_value_fixed_by_formula():
    # the formula gives letters ((0,0),(0,1),(1,0),(1,1)), i.e. "0123"
    expected = strongify_formula(decode("13"))
    assert encode(expected) == "0123"
    assert strongify_index(2).apply(decode("13")) == expected


def test_strongify_matches_formula_everywhere():
    for d in range(4):
        fmap = strongify_index(d)
        for node in enumerate_level(d):
            assert fmap.apply(node) == strongify_formula(node)


def test_strongify_image_pairs():
    fmap = strongify_index(1)
    image = lambda *texts: frozenset(fmap.apply(decode(t)) for t in texts)  # noqa: E731
    kinds = {w.kind.kind for w in split_relation(image("0"), image("1"))}
    assert NARROW_BELOW in kinds
    kinds = {w.kind.kind for w in split_relation(image("0"), image("2"))}
    assert WIDE_LEFT in kinds


def test_strongify_comb_images():
    for d in (1, 2):
        fmap = strongify_index(d)
        for m in (1, 2, OMEGA):
            for comb in subset_filter_combs(d, CombClass("up", m), 4):
                image = frozenset(fmap.apply(n) for n in comb)
                assert is_comb(image, CombClass("up", m)) is not None
        for n in (1, 2, OMEGA):
            for comb in subset_filter_combs(d, CombClass("right", n), 4):
                image = frozenset(fmap.apply(node) for node in comb)
                assert is_comb(image, CombClass("wide-right", n)) is not None


def test_strongify_weave_pullback():
    ci = weave_witness(2, 2, 1, 1)
    pulled = strongify_weave(ci)
    assert check_weave(pulled, 1, 2, 1, 1, strong=True).ok


def test_strongify_weave_validation():
    with pytest.raises(ArgumentError):
        strongify_weave(weave_witness(1, 2, 1, 1))  # odd depth


# --- pullback ---------------------------------------------------------------


def test_pullback_identity():
    ci = weave_witness(1, 2, 1, 1)
    same = pullback(ci, IndexMap(1, "level", {node: node for node in enumerate_level(1)}))
    for node in enumerate_level(1):
        assert same.set_of(node) == ci.set_of(node)


def test_pullback_one_level_down():
    ci = weave_witness(2, 2, 1, 1)
    pad = "0"  # letter (0,0)
    assert letter(pad) == (0, 0)
    mapping = {node: Node(node + pad) for node in enumerate_level(1)}
    pulled = pullback(ci, IndexMap(1, "level", mapping))
    assert check_weave(pulled, 1, 2, 1, 1, strong=True).ok


def test_pullback_prefix_violation():
    ci = weave_witness(2, 2, 1, 1)
    bad = {node: Node("0" + node) for node in enumerate_level(1)}  # "1" -> "01"
    with pytest.raises(ArgumentError) as err:
        pullback(ci, IndexMap(1, "level", bad))
    assert "prefix" in str(err.value)


def test_pullback_preserves_weave_on_random_prefix_maps():
    rng = random.Random(SEED)
    for d0, d in ((1, 1), (1, 2), (2, 2)):
        ci = weave_witness(d, 2, 1, OMEGA)
        for _ in range(17):
            mapping = {}
            for node in enumerate_level(d0):
                suffix = "".join(rng.choice("0123") for _ in range(d - d0))
                mapping[node] = Node(node + suffix)
            pulled = pullback(ci, IndexMap(d0, "level", mapping))
            assert check_weave(pulled, d0, 2, 1, OMEGA, strong=True).ok


# --- grid embedding ---------------------------------------------------------


def test_grid_embed_depth1_table():
    fmap = grid_embed_index(1)
    assert fmap.apply(decode("0")) == (0, 1)
    assert fmap.apply(decode("1")) == (1, 0)
    assert fmap.apply(decode("2")) == (2, 3)
    assert fmap.apply(decode("3")) == (3, 2)
    assert not comparable((0, 1), (1, 0))
    assert strictly_below((0, 1), (2, 3))


def test_grid_embed_pair_invariant():
    for d in range(4):
        fmap = grid_embed_index(d)
        level = enumerate_level(d)
        images = [fmap.apply(node) for node in level]
        side = 4 ** d
        assert len(set(images)) == len(images)
        assert all(0 <= x < side and 0 <= y < side for x, y in images)
        for (a, pa), (b, pb) in combinations(zip(level, images), 2):
            verdict = classify_pair(a, b)
            if verdict == UP_ONE:
                assert not comparable(pa, pb)
            else:
                assert strictly_below(pa, pb) or strictly_below(pb, pa)


def test_grid_to_weave_witness():
    grid = grid_witness(4, 2)
    pulled = grid_to_weave(grid, 1)
    assert check_weave(pulled, 1, 2, OMEGA, OMEGA, strong=True).ok


def test_grid_to_weave_mutation_fails_with_up_violation():
    grid = grid_witness(4, 2)
    # force one antichain pair to become consistent everywhere
    fam = {p: set(grid.atom_names(grid.set_of(p))) for p in grid_points(4)}
    fmap = grid_embed_index(1)
    p, q = fmap.apply(decode("0")), fmap.apply(decode("1"))
    universe = sorted(grid.universe) + ["extra"]
    fam[p].add("extra")
    fam[q].add("extra")
    mutated = SetSystem(universe, fam)
    assert not check_grid(mutated, 4, 2).ok
    pulled = grid_to_weave(mutated, 1)
    report = check_weave(pulled, 1, 2, OMEGA, OMEGA, strong=True)
    assert not report.ok
    assert any(v.kind == "Inconsistency" for v in report.violations)


def test_grid_to_weave_depth0():
    ci = SetSystem(["a"], {(0, 0): {"a"}})
    pulled = grid_to_weave(ci, 0)
    assert check_weave(pulled, 0, 2, OMEGA, OMEGA, strong=True).ok


def test_grid_to_weave_validation():
    ci = SetSystem(["a"], {(0, 0): {"a"}})
    with pytest.raises(ArgumentError):
        grid_to_weave(ci, 1)


# --- epsilon scaling --------------------------------------------------------


def test_epsilon_scale_examples():
    assert is_strict_chain([scale_point((0, 0)), scale_point((1, 1))])
    assert is_antichain([scale_point((0, 1)), scale_point((1, 0))])
    tied = [scale_point((0, 0)), scale_point((0, 1))]
    assert not is_strict_chain(tied)  # the documented tie limitation
    assert tied[0][0] == tied[1][0]


def test_epsilon_scale_pairs_exhaustive():
    for s in (2, 3, 4):
        for p, q in combinations(grid_points(s), 2):
            sp, sq = scale_point(p), scale_point(q)
            assert comparable(p, q) == comparable(sp, sq)
            before = strictly_below(p, q) or strictly_below(q, p)
            after = strictly_below(sp, sq) or strictly_below(sq, sp)
            if before:
                assert after
            tie_free = p[0] != q[0] and p[1] != q[1]
            if comparable(p, q) and tie_free:
                assert after
            if not tie_free:
                assert not after


def test_epsilon_scale_system():
    ci = grid_witness(2, 2)
    scaled = epsilon_scale(ci)
    assert scaled.consistent([scale_point((0, 0)), scale_point((1, 1))])
    assert not scaled.consistent([scale_point((0, 1)), scale_point((1, 0))])


# --- index map serialization -------------------------------------------------


def test_index_map_json_roundtrip():
    for fmap in (strongify_index(1), grid_embed_index(1)):
        payload = fmap.to_json()
        back = IndexMap.from_json(payload)
        assert back.mapping == fmap.mapping
        assert back.codomain == fmap.codomain


def test_index_map_json_writes_nodes_and_the_empty_node():
    # Nodes are written as themselves; the depth-0 maps still print "-".
    assert strongify_index(0).to_json()["map"] == [["-", "-"]]
    assert grid_embed_index(0).to_json()["map"] == [["-", [0, 0]]]
    pairs = strongify_index(1).to_json()["map"]
    assert json.dumps(pairs) == '[["0", "00"], ["1", "01"], ["2", "22"], ["3", "23"]]'


def test_index_map_validation():
    level = enumerate_level(1)
    with pytest.raises(ArgumentError):
        IndexMap(1, "grid", {level[0]: (0, 0)})  # not total
    with pytest.raises(ArgumentError):
        IndexMap(1, "grid", {node: (0, 0) for node in level})  # not injective
