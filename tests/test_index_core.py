import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from comblab import errors
from comblab.errors import ArgumentError, ParseError, ResourceError
from comblab.index_core import (EMPTY, Letter, Node, decode, encode,
                                enumerate_level, extend, level_size, meet, meet_all,
                                node_from_pairs, node_to_pairs)


def all_nodes_up_to(d):
    out = []
    for depth in range(d + 1):
        out.extend(enumerate_level(depth))
    return out


def test_letter_values():
    assert Letter(0, 1).digit == "1"
    assert Letter.from_digit("3") == Letter(1, 1)
    assert len({Letter(i, j) for i in (0, 1) for j in (0, 1)}) == 4


def test_extend_examples():
    assert extend(EMPTY, Letter(0, 1)) == decode("1")
    assert extend(decode("2"), Letter(1, 1)) == decode("23")


def test_extend_length_arithmetic():
    rng = random.Random(0xC0FFEE)
    for _ in range(100):
        depth = rng.randint(0, 8)
        node = Node("".join(rng.choice("0123") for _ in range(depth)))
        letter = Letter(rng.randint(0, 1), rng.randint(0, 1))
        assert len(extend(node, letter)) == len(node) + 1


def test_meet_examples():
    assert meet(decode("01"), decode("02")) == decode("0")
    sigma = decode("312")
    assert meet(sigma, sigma) == sigma
    assert meet(decode("12"), decode("30")) == EMPTY


def test_meet_invariants_exhaustive():
    nodes = all_nodes_up_to(3)
    for a in nodes:
        for b in nodes:
            m = meet(a, b)
            assert m == meet(b, a)
            assert m.is_prefix_of(a) and m.is_prefix_of(b)
    # distinct equal-depth nodes differ at the meet position
    for d in range(1, 4):
        for a in enumerate_level(d):
            for b in enumerate_level(d):
                if a == b:
                    continue
                m = meet(a, b)
                assert len(m) < d
                assert a.letter_at(len(m)) != b.letter_at(len(m))


def test_meet_all():
    nodes = [decode(s) for s in ("011", "010", "013")]
    assert meet_all(nodes) == decode("01")
    with pytest.raises(ArgumentError):
        meet_all([])


@given(st.text(alphabet="0123", max_size=10), st.text(alphabet="0123", max_size=10))
def test_meet_is_longest_common_prefix(a, b):
    m = meet(Node(a), Node(b))
    assert a.startswith(m) and b.startswith(m)
    if len(m) < min(len(a), len(b)):
        assert a[len(m)] != b[len(m)]


def test_enumerate_level_examples():
    assert [encode(n) for n in enumerate_level(0)] == ["-"]
    assert [encode(n) for n in enumerate_level(1)] == ["0", "1", "2", "3"]
    assert len(enumerate_level(3)) == 4 ** 3


def test_enumerate_level_counts_and_uniqueness():
    for d in range(7):
        level = enumerate_level(d)
        assert len(level) == 4 ** d
        assert len(set(level)) == len(level)
        assert all(len(n) == d for n in level)


def test_enumerate_level_bound(monkeypatch):
    # The level's 4^d nodes are held to the budget, read at every call: a
    # cached level is refused too once the budget drops below it.
    enumerate_level(3)
    monkeypatch.setattr(errors, "BUDGET", 64)
    assert len(enumerate_level(3)) == level_size(3) == 64
    monkeypatch.setattr(errors, "BUDGET", 63)
    with pytest.raises(ResourceError, match="^level 3 would have 64 nodes, over the limit 63$"):
        enumerate_level(3)
    monkeypatch.undo()
    assert level_size(10) == 4 ** 10  # 1,048,576 nodes: within the budget
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="^level 11 would have 4194304 nodes"):
        enumerate_level(11)
    # A depth past the budget's bit length is refused without its power.
    with pytest.raises(ResourceError, match="^level 1000000000 would have at least"):
        enumerate_level(10 ** 9)
    assert time.perf_counter() - start < 0.1


def test_codec_examples():
    assert decode("-") == EMPTY
    assert decode("3").letters == (Letter(1, 1),)
    with pytest.raises(ParseError) as err:
        decode("01x2")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        decode("")


def test_codec_roundtrip_exhaustive():
    for node in all_nodes_up_to(3):
        assert decode(encode(node)) == node


def test_node_json_pairs():
    node = decode("0123")
    pairs = node_to_pairs(node)
    assert pairs == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert node_from_pairs(pairs) == node
    with pytest.raises(ParseError):
        node_from_pairs([[0, 2]])


def test_node_ordering_and_prefix():
    assert decode("0") < decode("1") < decode("00")
    assert decode("01").is_prefix_of(decode("013"))
    assert not decode("1").is_prefix_of(decode("01"))


def test_node_is_its_digit_text():
    # A node is a str equal to its digits, so the text finds it as a key.
    node = decode("2")
    assert isinstance(node, str) and node == "2" and hash(node) == hash("2")
    assert {"2": 1}[node] == 1 and {node: 1}["2"] == 1
    assert node in {"2"} and "2" in {node} and node != "3"
    # Nodes order by depth, then digits, which text order does not.
    texts = ["10", "3", "01", "-", "0", "33"]
    ordered = sorted(decode(t) for t in texts)
    assert [encode(n) for n in ordered] == ["-", "0", "3", "01", "10", "33"]
    assert sorted(map(str, ordered)) == ["", "0", "01", "10", "3", "33"]
    for a, b in combinations(ordered, 2):
        assert a < b and a <= b and b > a and b >= a
        assert not (b < a or b <= a or a > b or a >= b)
    assert all(a <= a and a >= a and not a < a and not a > a for a in ordered)
    # encode and decode are inverse; the empty node is falsy and prints "-".
    for text in texts:
        assert type(encode(decode(text))) is str and encode(decode(text)) == text
    assert decode("-") is EMPTY and not EMPTY and encode(EMPTY) == "-"
    assert repr(EMPTY) == "Node('-')" and repr(node) == "Node('2')"
    # The meet of mixed depths is the common prefix of their text.
    for order in permutations([decode("1"), decode("10"), decode("01")]):
        assert meet_all(order) == EMPTY and type(meet_all(order)) is Node
