import random
import sys
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from comblab.combs import (_SPLIT_RULES, CombClass, LITERAL, NARROW_BELOW,
                           NARROW_LEFT, OMEGA, UP_ONE, WIDE_LEFT, WIDE_RIGHT_ONE,
                           classify_pair, comb_entries, enumerate_combs,
                           is_binary_right_comb, is_comb, mask_nodes, split_relation)
from comblab import errors
from comblab.errors import ArgumentError, ResourceError
from comblab.index_core import decode, encode, enumerate_level
from comblab.oracle import build_tree_comb_oracle, narrowly_below, narrowly_left, widely_left
from comblab.verify import _RECOGNITION_CLASSES

from helpers import (SEED, binary_right_comb_oracle, has_up_pair, reference_build_tree_comb_oracle,
                     reference_comb_entries, reference_comb_order, subset_filter_combs)


def nodes(*texts):
    return frozenset(decode(t) for t in texts)


# --- split relations -------------------------------------------------------


def kinds_of(a, b):
    return {w.kind.kind for w in split_relation(a, b)}


def test_split_relation_examples():
    assert kinds_of(nodes("0"), nodes("1")) == {NARROW_BELOW}
    (witness,) = split_relation(nodes("0"), nodes("1"))
    assert witness.tau == decode("-") and witness.kind.bit == 0

    assert kinds_of(nodes("0"), nodes("2")) == {NARROW_LEFT, WIDE_LEFT}
    assert kinds_of(nodes("0"), nodes("3")) == {WIDE_LEFT}
    # Mixed depths: the split is at the meet of all three, the empty node.
    assert kinds_of(nodes("01"), nodes("1", "10")) == {NARROW_BELOW}


def test_split_relation_orientation():
    # the relation is directional: B is not narrowly below A
    assert kinds_of(nodes("1"), nodes("0")) == set()
    assert kinds_of(nodes("2"), nodes("0")) == set()


def test_split_relation_never_below_and_wide():
    for a in enumerate_level(2):
        for b in enumerate_level(2):
            if a == b:
                continue
            ks = kinds_of(frozenset([a]), frozenset([b]))
            assert not (NARROW_BELOW in ks and WIDE_LEFT in ks)
            if NARROW_LEFT in ks:
                assert WIDE_LEFT in ks


def test_split_relation_errors():
    with pytest.raises(ArgumentError):
        split_relation(set(), nodes("0"))
    with pytest.raises(ArgumentError):
        split_relation(nodes("0"), nodes("0"))
    # A member that is not a Node is refused before anything else is asked,
    # a digit string included.
    for a_set, b_set, name in (({"0"}, nodes("1"), "str"), (nodes("0"), ["1"], "str"),
                               (["0"], [], "str"), (nodes("0"), [(0, 1)], "tuple")):
        with pytest.raises(ArgumentError, match=f"^expected Node, got {name}$"):
            split_relation(a_set, b_set)


def test_split_relation_matches_the_oracle_relations():
    # Every pair of disjoint, nonempty sets of at most two nodes of depths 1
    # and 2, mixed depths included.
    universe = enumerate_level(1) + enumerate_level(2)
    sets = [frozenset(combo) for size in (1, 2) for combo in combinations(universe, size)]
    relations = ((NARROW_BELOW, narrowly_below), (NARROW_LEFT, narrowly_left),
                 (WIDE_LEFT, widely_left))
    for a_set in sets:
        for b_set in sets:
            if a_set.isdisjoint(b_set):
                expected = {kind for kind, holds in relations if holds(a_set, b_set)}
                assert kinds_of(a_set, b_set) == expected, (a_set, b_set)


def test_split_rules_order_their_letters():
    # Recognition cuts a sorted set where the upper letters begin and picks
    # the rule by the first node's letter, and split_relation picks it by any
    # of A's letters, which this keeps sound.
    for rules in _SPLIT_RULES.values():
        for key, rule in rules.items():
            lower, upper, _ = rule
            assert set(lower).isdisjoint(upper)
            assert max(lower) < min(upper)
            assert key in lower
            assert all(rules[letter] == rule for letter in lower)


# --- pair classification ---------------------------------------------------


def test_classify_pair_examples():
    assert classify_pair(decode("0"), decode("1")) == UP_ONE
    assert classify_pair(decode("00"), decode("01")) == UP_ONE
    assert classify_pair(decode("03"), decode("20")) == WIDE_RIGHT_ONE


def test_classify_pair_cross_checked_by_build_oracle():
    # frozen from the exhaustive inductive-build oracle at depth 2
    pair = nodes("03", "20")
    memo = {}
    assert not build_tree_comb_oracle(pair, CombClass("up", 1), memo)
    assert build_tree_comb_oracle(pair, CombClass("wide-right", 1), memo)


def test_classify_pair_errors():
    with pytest.raises(ArgumentError):
        classify_pair(decode("0"), decode("00"))
    with pytest.raises(ArgumentError):
        classify_pair(decode("0"), decode("0"))
    # An argument that is not a Node is refused, a digit string included.
    for a, b, name in (("0x", "1y", "str"), (decode("0"), "1", "str"),
                       ((0, 1), decode("1"), "tuple")):
        with pytest.raises(ArgumentError, match=f"^expected Node, got {name}$"):
            classify_pair(a, b)


def test_dichotomy_small_depths():
    memo = {}
    for d in range(3):
        for a, b in combinations(enumerate_level(d), 2):
            verdict = classify_pair(a, b)
            up1 = is_comb({a, b}, CombClass("up", 1)) is not None
            wr1 = is_comb({a, b}, CombClass("wide-right", 1)) is not None
            assert up1 != wr1
            assert verdict == (UP_ONE if up1 else WIDE_RIGHT_ONE)
            assert up1 == build_tree_comb_oracle(frozenset((a, b)), CombClass("up", 1), memo)


# --- recognition -----------------------------------------------------------


def test_is_comb_examples():
    s = nodes("00", "01", "10")
    cert = is_comb(s, CombClass("up", 2))
    assert cert is not None
    assert cert.a_size == 2
    assert cert.a.nodes == nodes("00", "01")
    assert is_comb(s, CombClass("up", 1)) is None
    assert is_comb(nodes("00", "13", "20"), CombClass("wide-right", OMEGA)) is None
    assert has_up_pair(nodes("00", "13", "20"))
    # Nodes given twice or out of order are read as their set.
    a, b = decode("00"), decode("01")
    for given in ((a, a, b), (b, a), [a, b, a, b]):
        assert is_comb(given, CombClass("up", 1)) == is_comb({a, b}, CombClass("up", 1))


def test_is_comb_errors():
    with pytest.raises(ArgumentError):
        is_comb([], CombClass("up", 1))
    with pytest.raises(ArgumentError):
        is_comb(nodes("0", "00"), CombClass("up", 1))


def test_literal_and_recursive_readings_differ():
    # A wide part that is not a narrow right-comb separates the two readings;
    # expected values frozen from the build oracle.
    s = nodes("00", "03", "20")
    memo = {}
    assert build_tree_comb_oracle(s, CombClass("wide-right", OMEGA), memo)
    assert not build_tree_comb_oracle(s, CombClass("wide-right", OMEGA, LITERAL), memo)
    assert is_comb(s, CombClass("wide-right", OMEGA)) is not None
    assert is_comb(s, CombClass("wide-right", OMEGA, LITERAL)) is None


def test_build_tree_comb_oracle_matches_reference():
    # The closure and the bipartition search are two algorithms for the same
    # inductive definition: they must agree on every small set.
    memo, reference_memo = {}, {}
    for d in (1, 2):
        level = enumerate_level(d)
        for size in range(1, 6):
            for combo in combinations(level, size):
                combo = frozenset(combo)
                for cls in _RECOGNITION_CLASSES:
                    assert build_tree_comb_oracle(combo, cls, memo) == \
                        reference_build_tree_comb_oracle(combo, cls, reference_memo), \
                        (sorted(map(encode, combo)), cls)


def test_recognition_matches_build_tree_comb_oracle_depth3():
    # The classes of acceptance criterion 3, on every set of at most three
    # nodes at depth 3; the oracle's part-pair index makes this scale cheap.
    level = enumerate_level(3)
    memo = {}
    compared = 0
    for size in range(1, 4):
        for combo in combinations(level, size):
            combo = frozenset(combo)
            for cls in _RECOGNITION_CLASSES:
                assert (is_comb(combo, cls) is not None) == \
                    build_tree_comb_oracle(combo, cls, memo), (sorted(map(encode, combo)), cls)
                compared += 1
    assert compared == 12 * (64 + 2016 + 41664)


def test_build_tree_comb_oracle_errors():
    with pytest.raises(ArgumentError):
        build_tree_comb_oracle(frozenset(), CombClass("up", 1))
    # {0, 10} mixes depths 1 and 2: not a set of one level.
    for cls in (CombClass("up", OMEGA), CombClass("wide-right", OMEGA)):
        with pytest.raises(ArgumentError):
            build_tree_comb_oracle(nodes("0", "10"), cls)


def test_wide_characterization_depth3_sampled():
    rng = random.Random(SEED)
    level = enumerate_level(3)
    cls = CombClass("wide-right", OMEGA)
    for _ in range(2000):
        combo = rng.sample(level, rng.randint(1, 8))
        assert (is_comb(combo, cls) is not None) == (not has_up_pair(combo))


def test_subset_closure():
    level = enumerate_level(2)
    classes = [CombClass(kind, n) for kind in ("up", "right", "wide-right")
               for n in (1, 2, OMEGA)]
    for cls in classes:
        for comb in subset_filter_combs(2, cls, 4):
            for size in range(1, len(comb)):
                for sub in combinations(sorted(comb), size):
                    assert is_comb(sub, cls) is not None, (cls, sub)


def test_pair_classification_inside_combs():
    for cls, expected in ((CombClass("up", OMEGA), UP_ONE),
                          (CombClass("right", OMEGA), WIDE_RIGHT_ONE),
                          (CombClass("wide-right", OMEGA), WIDE_RIGHT_ONE)):
        for comb in subset_filter_combs(2, cls, 4):
            for a, b in combinations(sorted(comb), 2):
                assert classify_pair(a, b) == expected


# --- binary right combs ----------------------------------------------------


def test_binary_right_comb_examples():
    # expected values fixed by the build oracle, not intuition
    assert is_binary_right_comb({"0", "1"}, 1)
    assert is_binary_right_comb({"00", "01"}, 1)
    assert is_binary_right_comb({"0", "10", "11"}, 1)
    assert binary_right_comb_oracle(frozenset({"00", "01"}), 1)
    assert binary_right_comb_oracle(frozenset({"0", "10", "11"}), 1)


def test_binary_right_comb_matches_oracle():
    # Every set of at most 4 nonempty words of length at most 4.
    universe = ["".join(bits) for length in range(1, 5) for bits in product("01", repeat=length)]
    memo = {}
    checks = 0
    for size in range(1, 5):
        for combo in combinations(universe, size):
            s = frozenset(combo)
            for n in (1, 2, 3, OMEGA):
                assert is_binary_right_comb(s, n) == binary_right_comb_oracle(s, n, memo), (s, n)
                checks += 1
    assert checks == 127_720


def test_binary_right_comb_errors():
    # A word that is not a string is refused before it is hashed.
    for strings, message in [(set(), "requires a nonempty set"),
                             ({"012"}, "binary string expected, got '012'"),
                             ({5}, "binary string expected, got 5$"),
                             ({"0", 1}, "binary string expected, got 1$"),
                             ({b"01"}, "binary string expected, got b'01'"),
                             ([["0", "1"]], r"binary string expected, got \['0', '1'\]")]:
        with pytest.raises(ArgumentError, match=message):
            is_binary_right_comb(strings, 1)


# --- enumeration -----------------------------------------------------------


def test_enumerate_combs_depth1_up():
    got = [frozenset(map(encode, c))
           for c in enumerate_combs(1, CombClass("up", 1), 2)]
    assert got == [{"0"}, {"1"}, {"2"}, {"3"}, {"0", "1"}, {"2", "3"}]


def test_enumerate_combs_depth1_wide():
    got = {frozenset(map(encode, c))
           for c in enumerate_combs(1, CombClass("wide-right", OMEGA), 4)}
    # exactly the up-pair-free subsets: at most one node per half
    level = enumerate_level(1)
    expected = set()
    for size in range(1, 5):
        for combo in combinations(level, size):
            if not has_up_pair(combo):
                expected.add(frozenset(map(encode, combo)))
    assert got == expected


def test_enumerate_combs_depth0():
    for kind in ("up", "right", "wide-right"):
        combs = list(enumerate_combs(0, CombClass(kind, OMEGA), 3))
        assert combs == [frozenset([decode("-")])]


def test_enumerate_combs_matches_subset_filter():
    for cls in (CombClass("up", 1), CombClass("up", OMEGA),
                CombClass("right", 2), CombClass("wide-right", OMEGA),
                CombClass("wide-right", 1, LITERAL)):
        fast = list(enumerate_combs(2, cls, 4))
        assert len(fast) == len(set(fast))
        assert set(fast) == set(subset_filter_combs(2, cls, 4))


def test_enumerate_combs_matches_recognizer_at_larger_sizes():
    # the structural generator and the meet-splitting recognizer are
    # independent implementations; compare them beyond oracle reach
    level = enumerate_level(2)
    for cls in (CombClass("up", 2), CombClass("right", 1),
                CombClass("wide-right", OMEGA)):
        generated = set(enumerate_combs(2, cls, 8))
        filtered = set()
        for size in range(1, 9):
            for combo in combinations(level, size):
                if is_comb(combo, cls) is not None:
                    filtered.add(frozenset(combo))
        assert generated == filtered


def test_enumerate_combs_deterministic_order():
    runs = [list(enumerate_combs(2, CombClass("up", 2), 3)) for _ in range(2)]
    assert runs[0] == runs[1]
    sizes = [len(c) for c in runs[0]]
    assert sizes == sorted(sizes)


def test_enumerate_combs_keeps_the_size_then_positions_order():
    # enumerate_combs sorts by the name-order keys of `comb_order`; the order
    # must be the one the ascending level positions give, for every class.
    for d in (0, 1, 2):
        level = enumerate_level(d)
        for cls in _RECOGNITION_CLASSES:
            table = comb_entries(d, cls, 8)
            want = [frozenset(mask_nodes(table.masks[pos], level))
                    for pos in reference_comb_order(table, range(len(table)))]
            assert list(enumerate_combs(d, cls, 8)) == want, (d, cls)


def test_enumerate_combs_resource_limit(monkeypatch):
    # The estimated combs are held to the budget before any is built: the
    # depth-2 wide-right table has 288 combs.
    cls = CombClass("wide-right", OMEGA)
    monkeypatch.setattr(errors, "BUDGET", 288)
    assert len(list(enumerate_combs(2, cls, 16))) == 288
    # By size they are 16, 80, 128 and 64.  Counting stops past the budget:
    # a count above it is held there, and a level whose block combs alone
    # (4 times the level below's 8) pass it skips its cross-block combs; the
    # refusal then gives the sum it reached as a lower bound.
    for budget, message in ((287, "288"), (127, "288"), (126, "at least 287"),
                            (31, "at least 112"), (30, "at least 32")):
        monkeypatch.setattr(errors, "BUDGET", budget)
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=f"^enumeration would produce {message} "
                                                f"combs, over the limit {budget}$"):
            list(enumerate_combs(2, cls, 16))
        assert time.perf_counter() - start < 0.1


def test_comb_table_matches_reference():
    # The columnar table must hold exactly the entries, in the same order and
    # with the same part links, that the entry-by-entry builder makes.
    for d in range(4):
        for cls in _RECOGNITION_CLASSES:
            for max_size in sorted({1, 2, 3, 8, 4 ** d}):
                table = comb_entries(d, cls, max_size)
                expected = reference_comb_entries(d, cls, max_size)
                assert len(table) == len(expected), (d, cls, max_size)
                assert table.masks == [e.mask for e in expected], (d, cls, max_size)
                assert table.sizes == [e.size for e in expected], (d, cls, max_size)
                assert table.a == [-1 if e.a_index is None else e.a_index
                                   for e in expected], (d, cls, max_size)
                assert table.b == [-1 if e.b_index is None else e.b_index
                                   for e in expected], (d, cls, max_size)


def test_comb_tables_die_with_their_caller():
    # A module-wide cache used to keep the last six tables alive, so the
    # depth-3 table outlived the weave witness that read it once.
    cls = CombClass("wide-right", OMEGA)
    table = comb_entries(2, cls, 4)
    assert sys.getrefcount(table) == 2  # `table` and the argument
    assert comb_entries(2, cls, 4) is not table


def test_omega_repr_and_identity():
    from comblab.combs import _Omega

    assert _Omega() is OMEGA
    assert repr(OMEGA) == "omega"


# --- property tests ----------------------------------------------------------

node_sets_d2 = st.sets(
    st.sampled_from(enumerate_level(2)), min_size=1, max_size=8)


@given(node_sets_d2)
@settings(max_examples=300)
def test_property_wide_combs_are_up_pair_free(nodes_set):
    wide = is_comb(nodes_set, CombClass("wide-right", OMEGA)) is not None
    assert wide == (not has_up_pair(nodes_set))


@given(node_sets_d2, st.sampled_from([1, 2, OMEGA]),
       st.sampled_from(["up", "right", "wide-right"]))
@settings(max_examples=300)
def test_property_subset_closure(nodes_set, bound, kind):
    cls = CombClass(kind, bound)
    if is_comb(nodes_set, cls) is None:
        return
    ordered = sorted(nodes_set)
    for size in range(1, len(ordered)):
        for sub in combinations(ordered, size):
            assert is_comb(sub, cls) is not None


@given(st.sets(st.sampled_from(enumerate_level(2)), min_size=2, max_size=2))
@settings(max_examples=200)
def test_property_pair_dichotomy(pair_set):
    a, b = sorted(pair_set)
    verdict = classify_pair(a, b)
    up = is_comb(pair_set, CombClass("up", 1)) is not None
    wide = is_comb(pair_set, CombClass("wide-right", 1)) is not None
    assert up != wide
    assert verdict == (UP_ONE if up else WIDE_RIGHT_ONE)
