import ast
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from comblab import genericity
from comblab.errors import ArgumentError
from comblab.genericity import (ChainStep, DensePredicate, DensityError,
                                RequirementPoset, binary_string_poset,
                                generic_chain, length_requirements)
from helpers import SEED, reference_from_table, reference_reach

SRC = str(Path(genericity.__file__).resolve().parents[1])


def test_length_demo_meets_all_requirements():
    poset = binary_string_poset()
    chain = generic_chain(poset, length_requirements(5), "", steps=5)
    satisfied = {i for step in chain for i in step.satisfied}
    assert satisfied == set(range(5))
    lengths = [len(step.element) for step in chain]
    assert lengths == sorted(lengths)
    assert len(lengths) == len(set(lengths))  # strictly increasing
    assert len(chain) <= 6  # start plus at most five moves


def test_contains_one_requirement():
    poset = binary_string_poset()
    wants_one = DensePredicate("contains-1", lambda s: "1" in s)
    chain = generic_chain(poset, [wants_one], "000", steps=1)
    assert "1" in chain[-1].element
    assert chain[-1].satisfied == (0,)


def test_requirement_satisfied_at_start_is_credited_in_place():
    poset = binary_string_poset()
    trivial = DensePredicate("nonempty-or-empty", lambda s: True)
    chain = generic_chain(poset, [trivial], "0", steps=1)
    assert len(chain) == 1
    assert chain[0] == ChainStep("0", (0,))


def test_non_dense_requirement_fails_with_name():
    poset = binary_string_poset()
    shrink = DensePredicate("length<2", lambda s: len(s) < 2)
    with pytest.raises(DensityError) as err:
        generic_chain(poset, [shrink], "000", steps=1, horizon=128)
    assert err.value.requirement == "length<2"
    assert err.value.stuck_at == "000"


def test_chain_is_increasing_in_the_order():
    poset = binary_string_poset()
    chain = generic_chain(poset, length_requirements(4), "", steps=4)
    for prev, cur in zip(chain, chain[1:]):
        assert poset.leq(prev.element, cur.element)


def test_deterministic():
    poset = binary_string_poset()
    runs = [generic_chain(poset, length_requirements(3), "", steps=3)
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_steps_must_cover_requirements():
    poset = binary_string_poset()
    with pytest.raises(ArgumentError):
        generic_chain(poset, length_requirements(3), "", steps=2)


def test_finite_table_poset():
    poset = RequirementPoset.from_table(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("a", "d")])
    assert poset.leq("a", "c")  # transitive closure
    assert not poset.leq("c", "a")
    assert set(poset.extensions("a")) == {"b", "c", "d"}
    chain = generic_chain(
        poset,
        [DensePredicate("reach-c", lambda e: e == "c")],
        "a", steps=1)
    assert chain[-1].element == "c"


def test_finite_table_rejects_cycles():
    with pytest.raises(ArgumentError):
        RequirementPoset.from_table(["a", "b"], [("a", "b"), ("b", "a")])


def test_finite_table_unknown_element():
    with pytest.raises(ArgumentError):
        RequirementPoset.from_table(["a"], [("a", "z")])


def test_density_error_when_stuck_in_finite_poset():
    poset = RequirementPoset.from_table(["a", "b"], [("a", "b")])
    with pytest.raises(DensityError) as err:
        generic_chain(poset, [DensePredicate("reach-z", lambda e: e == "z")],
                      "a", steps=1)
    assert err.value.requirement == "reach-z"


def test_inconsistent_enumerator_is_reported():
    # extensions claim b follows a, but the order test denies it
    poset = RequirementPoset(extensions=lambda e: ["b"] if e == "a" else [],
                             leq=lambda x, y: x == y)
    with pytest.raises(ArgumentError) as err:
        generic_chain(poset, [DensePredicate("reach-b", lambda e: e == "b")],
                      "a", steps=1)
    assert "does not extend" in str(err.value)


CYCLE = re.compile(r"^order has a cycle through (.+) and (.+)$")


def _random_table(rng, acyclic):
    """Up to 12 elements, named in an order of their own, and up to twice as
    many pairs; an acyclic table runs its pairs up a random ranking, and a
    few pairs of the others name an element the table does not hold."""
    elements = [f"e{i}" for i in range(rng.randint(1, 12))]
    ranking = rng.sample(elements, len(elements))
    pairs = []
    for _ in range(rng.randint(0, 2 * len(elements))):
        i, j = sorted(rng.randrange(len(elements)) for _ in range(2))
        if acyclic:
            pairs.append((ranking[i], ranking[j]))
        else:
            pairs.append((rng.choice(elements), "zz" if rng.random() < 0.02 else rng.choice(elements)))
    return elements, pairs


def test_closure_free_poset_matches_the_warshall_closure():
    # The order was closed by Warshall's loop over n-bit masks and checked
    # for cycles pair by pair.  Walked up the pairs per query, it keeps the
    # same extensions, order test and refusals; a cycle is named by two of
    # its elements, distinct and each reaching the other.
    rng = random.Random(SEED + 37)
    cycles = 0
    for t in range(300):
        elements, pairs = _random_table(rng, acyclic=t < 50)
        try:
            want = reference_from_table(elements, pairs)
        except ArgumentError as err:
            assert t >= 50, (elements, pairs)
            with pytest.raises(ArgumentError) as got:
                RequirementPoset.from_table(elements, pairs)
            if not str(err).startswith("order has a cycle"):
                continue
            cycles += 1
            named = CYCLE.match(str(got.value))
            index, reach = reference_reach(elements, pairs)
            i, j = (index[ast.literal_eval(name)] for name in named.groups())
            assert i != j and reach[i] >> j & 1 and reach[j] >> i & 1, (elements, pairs)
            continue
        got = RequirementPoset.from_table(elements, pairs)
        for a in elements:
            assert got.extensions(a) == want.extensions(a), (elements, pairs, a)
            assert [got.leq(a, b) for b in elements] == [want.leq(a, b) for b in elements]
    assert 50 < cycles < 250


def test_cycle_message_does_not_depend_on_the_hash_seed(tmp_path):
    # Three cycles, among elements listed out of order: the two elements
    # named are the same whatever order string hashes give to sets.
    path = tmp_path / "cycles.json"
    order = [["x9", "x4"], ["x4", "x7"], ["x7", "x9"], ["x2", "x5"], ["x5", "x2"],
             ["x0", "x1"], ["x1", "x8"], ["x8", "x0"], ["x3", "x6"]]
    path.write_text(json.dumps({"elements": [f"x{i}" for i in (5, 2, 9, 0, 7, 3, 1, 8, 6, 4)],
                                "order": order, "start": "x0", "dense": []}))
    runs = set()
    for seed in range(4):
        proc = subprocess.run([sys.executable, "-m", "comblab.cli", "generic-chain",
                               "--in", str(path)], capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed)))
        runs.add((proc.returncode, proc.stdout, proc.stderr))
    [(code, out, err)] = runs
    assert (code, out) == (2, "") and CYCLE.match(err.removeprefix("error: ").strip()), err


def test_long_tables_are_walked_not_closed():
    # Warshall's loop took 4.4 s on a 4,000-element antichain, and a
    # 100,000-element table never finished.
    elements = [f"e{i}" for i in range(100_000)]
    chain = RequirementPoset.from_table(elements, zip(elements, elements[1:]))
    top = DensePredicate("top", lambda e: e == elements[-1])
    assert generic_chain(chain, [top], elements[0], steps=1)[-1] == ChainStep(elements[-1], (0,))
    assert chain.leq(elements[0], elements[-1]) and not chain.leq(elements[-1], elements[0])
    antichain = RequirementPoset.from_table(elements[:4000], [])
    assert all(antichain.extensions(e) == [] for e in elements[:4000])
