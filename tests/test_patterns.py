import random
import time
from collections import Counter
from itertools import combinations, compress
from types import SimpleNamespace

import pytest

from comblab import errors, patterns
from comblab.combs import OMEGA, CombTable, comb_order, name_keys
from comblab.cographs import Graph, comb_graph, graph_to_weave_oracle
from comblab.errors import ArgumentError, ParseError, ResourceError
from comblab.index_core import decode, encode, enumerate_level
from comblab.oracle import assignment_oracle
from comblab.patterns import (CONSISTENCY, INCONSISTENCY, PredicateOracle,
                              SetSystem, Template, antichains_of_size, chains,
                              check_graph_pattern, check_grid, check_weave, consistent,
                              demo_edges, encode_index, graph_witness, grid_points,
                              grid_witness, is_antichain, k_inconsistent, realizable,
                              strict_chains, triangle_free_demo, weave_witness)
from comblab.patterns import (_above, _maximal_independent_sets, _require_chain_count,
                              default_cap, product_leq, strictly_below)
from comblab.transforms import strongify_weave

from helpers import (SEED, assignment_oracle_slow, direct_grid_ok, direct_weave_ok,
                     downward_closed, materialized, random_graph, random_set_system,
                     random_subsystem_mutations, reference_atom_names, reference_chains,
                     reference_check_graph_pattern, reference_check_grid,
                     reference_check_weave, reference_comb_order, reference_grid_witness,
                     reference_graph_witness, reference_maximal_independent_sets,
                     reference_realizable, reference_triangle_p_predicate,
                     reference_weave_witness, small_graphs)


def small_system():
    return SetSystem(["1", "2", "3", "9"],
                     {"a": {"1", "2"}, "b": {"2", "3"}, "c": {"9"}})


# --- consistency primitives -------------------------------------------------


def test_consistent_examples():
    ci = small_system()
    assert consistent(ci, ["a", "b"])
    assert not consistent(ci, ["a", "c"])
    assert consistent(ci, [])


def test_set_system_masks():
    ci = small_system()  # universe order "1", "2", "3", "9" gives bits 0..3
    assert ci.set_of("a") == 0b0011
    assert ci.intersection(["a", "b"]) == 0b0010
    assert ci.atom_names(ci.intersection(["a", "b"])) == ["2"]
    assert ci.common_atom(["a", "b"]) == "2"
    assert ci.common_atom(["a", "c"]) is None
    assert ci.mutated_without("a", "2").set_of("a") == 0b0001
    empty = SetSystem([], {0: set()})
    assert empty.consistent([]) is True
    assert empty.consistent([0]) is False


def test_set_system_int_atoms_are_names():
    # Integer atoms used to be read as positions: 1 decoded as 5, and 5 was
    # refused as out of range.
    ci = SetSystem([1, 5], {"a": {1}, "b": {5}, "c": {1, 5}})
    assert ci.set_of("a") == 0b01 and ci.set_of("b") == 0b10
    assert ci.atom_names(ci.set_of("a")) == [1]
    assert ci.common_atom(["b", "c"]) == 5
    assert ci.mutated_without("c", 5).set_of("c") == 0b01
    with pytest.raises(ArgumentError, match="atom 0 is not in the universe"):
        SetSystem([1, 5], {"a": {0}})
    with pytest.raises(ArgumentError, match="atom 7 is not in the universe"):
        ci.mutated_without("a", 7)


def test_atom_names_sorted_on_a_universe_out_of_order():
    # Names are listed without a sort only when the universe increases as
    # given; realizable names its atoms c0, ..., c10, which do not ("c10" <
    # "c2").  Index 10 is in every must-consist set, so it has every atom.
    template = Template.make(range(11), [{i, 10} for i in range(11)], [], 2)
    system = realizable(template)
    assert system.universe == tuple(f"c{i}" for i in range(11))
    names = sorted(system.universe)
    assert system.atom_names(system.set_of(10)) == names
    assert system.reindexed({"x": 10}).atom_names(system.set_of(10)) == names
    assert system.common_atom([10]) == "c0"
    payload = materialized(system.to_json(repr))
    assert payload["universe"] == names
    assert [entry["set"] for entry in payload["family"]][:3] == [["c0"], ["c1"], names]
    assert materialized(SetSystem.from_json(payload, int).to_json(repr)) == payload
    reversed_payload = {"universe": names[::-1], "family": payload["family"]}
    assert materialized(SetSystem.from_json(reversed_payload, int).to_json(repr)) == payload
    in_order = SetSystem(names, {0: names[::-1]})
    assert materialized(in_order.to_json(repr)) == {"universe": names, "family": [
        {"index": "0", "set": names}]}


def _walk_masks(size, rng):
    """Masks that put the stretches `atom_names` walks at the edges of its
    8-byte gaps: gaps of 63-130 absent atoms at the start, in the middle and
    at the end, on a byte boundary and off one, in a full universe and
    between two lone members; no gap at all; and bits beyond the universe."""
    full = (1 << size) - 1
    masks = [0, full, 1, 1 << max(size - 1, 0), full | 1 << size + 3,
             1 << size + 70, full | 1 << size + 200 | 1 << size + 64]
    for step in (60, 65):
        masks += [sum(1 << i for i in range(0, size, step)),
                  sum(1 << i for i in range(step - 1, size, step))]
    for density in (0.01, 0.09, 0.5):
        masks.append(sum(1 << i for i in range(size) if rng.random() < density))
    for gap in (63, 64, 65, 130):
        hole = (1 << gap) - 1
        for low in {0, 5, 64, 69, size // 2, size - gap, size - gap - 3}:
            if 0 <= low <= size - gap:
                masks.append(full & ~(hole << low))
                masks.append(1 << low + gap | (1 << low - 1 if low else 0))
    return masks


def _check_stretches(mask, stretches):
    """The stretches `atom_names` walked, as (start, stop) pairs, are the
    ones its walk defines: each runs from a member up to the first block of
    64 absent atoms on a byte boundary (a `_GAP`), or to the last member;
    they follow one another; every member lies in one; and no stretch holds
    such a block."""
    block = (1 << 64) - 1
    covered = last = 0
    for start, stop in stretches:
        assert mask >> start & 1 and start >= last, (start, stop)
        assert stop == mask.bit_length() or stop % 8 == 0 and not mask >> stop & block
        assert all(mask >> low & block for low in range(start + 7 & ~7, stop, 8))
        covered |= (1 << stop) - (1 << start)
        last = stop
    assert mask & covered == mask


def _walk(system, mask, monkeypatch):
    """`system.atom_names(mask)`, and the (start, stop) stretches of the
    universe it handed to `compress`."""
    stretches, members = [], bin(mask).count("1")

    def recording(atoms, selector):
        # A tuple iterator's position, which stops at the universe's end.
        start = atoms.__reduce__()[2]
        stretches.append((start, start + len(selector)))
        # Each stretch holds a member: more would be a walk that never ends.
        assert len(stretches) <= members
        return compress(atoms, selector)

    monkeypatch.setattr(patterns, "compress", recording)
    try:
        return system.atom_names(mask), stretches
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097])
def test_atom_names_skips_gaps_as_the_whole_universe_walk(size, monkeypatch):
    rng = random.Random(SEED + size)
    names = [f"a{i:04d}" for i in range(size)]
    shuffled = rng.sample(names, size)
    for universe in (names, shuffled):
        system = SetSystem(universe, {})
        for mask in _walk_masks(size, rng):
            named, stretches = _walk(system, mask, monkeypatch)
            assert named == reference_atom_names(system, mask), (size, mask)
            if not mask >> size:
                _check_stretches(mask, stretches)


@pytest.mark.parametrize("n", [1, 2, OMEGA])
def test_atom_names_on_the_depth_2_weave_witnesses(n, monkeypatch):
    for k, genuine_k in ((2, False), (3, False), (3, True)):
        ci = weave_witness(2, k, OMEGA, n, genuine_k=genuine_k)
        for mask in ci.family.values():
            named, stretches = _walk(ci, mask, monkeypatch)
            assert named == reference_atom_names(ci, mask)
            _check_stretches(mask, stretches)


def test_consistent_unknown_index():
    with pytest.raises(ArgumentError):
        consistent(small_system(), ["zzz"])


def test_k_inconsistent_examples():
    disjoint = SetSystem(["x", "y", "z"], {0: {"x"}, 1: {"y"}, 2: {"z"}})
    assert k_inconsistent(disjoint, [0, 1, 2], 2)
    assert k_inconsistent(disjoint, [0, 1, 2], 4)  # vacuous below size k
    ci = small_system()
    assert not k_inconsistent(ci, ["a", "b", "c"], 2)
    with pytest.raises(ArgumentError):
        k_inconsistent(ci, ["a"], 1)


def test_k_inconsistent_holds_its_scan_to_the_budget():
    # C(34, 17) subfamilies are refused before the first is tested, though
    # the first pair of this family is already consistent.
    ci = SetSystem(["a"], {i: {"a"} for i in range(34)})
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="17-inconsistency check would test "
                                            "2333606220 subfamilies, over the limit"):
        k_inconsistent(ci, range(34), 17)
    assert not k_inconsistent(ci, range(34), 2)
    assert time.perf_counter() - start < 1.0


def test_k_inconsistent_monotone_in_k():
    rng = random.Random(SEED)
    ci = grid_witness(3, 2)
    points = grid_points(3)
    for _ in range(50):
        family = rng.sample(points, rng.randint(2, 5))
        for k in (2, 3):
            if k_inconsistent(ci, family, k):
                for k2 in range(k, 5):
                    assert k_inconsistent(ci, family, k2)


def test_pairwise_two_inconsistency_implies_k():
    ci = grid_witness(3, 2)
    points = grid_points(3)
    for combo in combinations(points, 3):
        if all(not ci.consistent(pair) for pair in combinations(combo, 2)):
            for k in (2, 3, 4):
                assert k_inconsistent(ci, combo, k)


# --- weave checker ----------------------------------------------------------


def test_check_weave_witness_examples():
    ci = weave_witness(1, 2, 1, 1)
    assert check_weave(ci, 1, 2, 1, 1, strong=True).ok
    assert direct_weave_ok(ci, 1, 2, 1, 1, strong=True)


def test_check_weave_depth0_empty_set():
    ci = SetSystem(["u"], {decode("-"): set()})
    report = check_weave(ci, 0, 2, 1, 1)
    assert not report.ok
    assert report.violations[0].kind == CONSISTENCY


def test_check_weave_mutation_names_broken_comb():
    ci = weave_witness(1, 2, 1, 1)
    node = decode("0")
    atom = ci.atom_names(ci.set_of(node))[0]
    mutated = ci.mutated_without(node, atom)
    report = check_weave(mutated, 1, 2, 1, 1, strong=True)
    assert not report.ok
    violation = report.violations[0]
    assert violation.kind == CONSISTENCY
    assert decode("0") in violation.indices


def test_check_weave_requires_full_level():
    ci = SetSystem(["u"], {decode("0"): {"u"}})
    with pytest.raises(ArgumentError):
        check_weave(ci, 1, 2, 1, 1)


def test_check_weave_k_validation():
    ci = weave_witness(1, 2, 1, 1)
    with pytest.raises(ArgumentError):
        check_weave(ci, 1, 1, 1, 1)


def test_check_weave_agrees_with_direct_oracle():
    rng = random.Random(SEED)
    for d in (1, 2):
        for n in (1, 2, OMEGA):
            ci = weave_witness(d, 2, 1, n)
            for strong in (False, True):
                assert check_weave(ci, d, 2, 1, n, strong=strong).ok == \
                    direct_weave_ok(ci, d, 2, 1, n, strong=strong)
            # single-atom deletions, verdicts must continue to agree
            for _ in range(6):
                node = rng.choice(enumerate_level(d))
                atoms = ci.atom_names(ci.set_of(node))
                if not atoms:
                    continue
                mutated = ci.mutated_without(node, rng.choice(atoms))
                for strong in (False, True):
                    assert check_weave(mutated, d, 2, 1, n, strong=strong).ok == \
                        direct_weave_ok(mutated, d, 2, 1, n, strong=strong)


def test_check_weave_agrees_with_direct_oracle_on_random_systems():
    from comblab.combs import LITERAL

    rng = random.Random(SEED + 11)
    level = enumerate_level(1)
    for trial in range(60):
        ci = random_set_system(level, rng)
        for n in (1, OMEGA):
            for strong, reading in ((False, "recursive"), (True, "recursive"),
                                    (True, LITERAL)):
                got = check_weave(ci, 1, 2, 1, n, strong=strong, reading=reading).ok
                want = direct_weave_ok(ci, 1, 2, 1, n, strong=strong, reading=reading)
                assert got == want, (trial, n, strong, reading)


def test_check_weave_report_matches_reference(monkeypatch):
    # Whole reports, not just verdicts: violation order, truncation, atoms and
    # certificates must equal the straightforward computation, and a
    # certificate is built only for a reported violation.
    from comblab import patterns as patterns_mod
    from comblab.combs import LITERAL, RECURSIVE

    calls = [0]
    real_is_comb = patterns_mod.is_comb

    def counting_is_comb(nodes, cls):
        calls[0] += 1
        return real_is_comb(nodes, cls)

    monkeypatch.setattr(patterns_mod, "is_comb", counting_is_comb)
    rng = random.Random(SEED + 5)
    settings = ((1, False, RECURSIVE), (2, True, RECURSIVE), (OMEGA, False, RECURSIVE),
                (OMEGA, True, RECURSIVE), (OMEGA, True, LITERAL))
    for d in (1, 2):
        witness = weave_witness(d, 2, 1, OMEGA)
        systems = [witness, weave_witness(d, 2, 1, 1)]
        systems += [witness.mutated_without(index, atom)
                    for index, atom in random_subsystem_mutations(witness, rng, 3)]
        systems += [random_set_system(enumerate_level(d), rng) for _ in range(2)]
        for ci in systems:
            for k, m in ((2, 1), (3, OMEGA)):
                for n, strong, reading in settings:
                    for max_violations in (0, 1, 3, 10):
                        calls[0] = 0
                        got = check_weave(ci, d, k, m, n, strong=strong, reading=reading,
                                          max_violations=max_violations).to_json()
                        assert calls[0] == len(got["violations"])
                        want = reference_check_weave(ci, d, k, m, n, strong=strong,
                                                     reading=reading,
                                                     max_violations=max_violations)
                        assert got == want, (d, k, m, n, strong, reading, max_violations)


def test_report_order_matches_the_position_key():
    # Violations and enumerated combs used to be sorted by size and then by
    # `mask_indices`, the ascending level positions; the reversed masks,
    # descending, must give the same order, ties included, on masks of one
    # size and of several.
    rng = random.Random(SEED)
    for width in (1, 3, 8, 9, 64, 200):
        masks = []
        for size in range(1, min(width, 4) + 1):
            masks += [sum(1 << i for i in rng.sample(range(width), size)) for _ in range(40)]
        masks += rng.sample(masks, 10)  # equal masks keep their order
        table = CombTable(masks, [mask.bit_count() for mask in masks], [], [])
        for _ in range(5):
            positions = sorted(rng.sample(range(len(masks)), rng.randrange(len(masks) + 1)))
            want = reference_comb_order(table, positions)
            assert comb_order(table, positions) == want, width


def test_check_weave_literal_catches_non_extendable_pair():
    # {"00","03"} is a literal-wide comb that no larger literal-wide comb
    # contains, so the checker must examine it directly rather than rely on
    # covering supersets (which exist only under the recursive reading).
    from comblab.combs import LITERAL, CombClass, is_comb

    ci = weave_witness(2, 2, 1, OMEGA)
    a, b = decode("00"), decode("03")
    pair_cls_lit = CombClass("wide-right", OMEGA, LITERAL)
    assert is_comb({a, b}, pair_cls_lit) is not None
    shared = sorted(set(ci.atom_names(ci.set_of(a))) & set(ci.atom_names(ci.set_of(b))))
    mutated = ci
    for atom in shared:
        mutated = mutated.mutated_without(a, atom)
    assert not mutated.consistent([a, b])
    report = check_weave(mutated, 2, 2, 1, OMEGA, strong=True, reading=LITERAL)
    assert not report.ok
    assert any(set(v.indices) == {a, b} for v in report.violations)
    assert not direct_weave_ok(mutated, 2, 2, 1, OMEGA, strong=True, reading=LITERAL)


def test_check_weave_agrees_with_direct_oracle_literal():
    from comblab.combs import LITERAL

    rng = random.Random(SEED + 3)
    for d in (1, 2):
        ci = weave_witness(d, 2, 1, OMEGA)
        systems = [ci]
        for _ in range(4):
            node = rng.choice(enumerate_level(d))
            atoms = ci.atom_names(ci.set_of(node))
            if atoms:
                systems.append(ci.mutated_without(node, rng.choice(atoms)))
        for system in systems:
            got = check_weave(system, d, 2, 1, OMEGA, strong=True, reading=LITERAL).ok
            want = direct_weave_ok(system, d, 2, 1, OMEGA, strong=True, reading=LITERAL)
            assert got == want


def test_weave_parameter_collapse():
    # with m + 1 >= k the up clause cannot distinguish m from omega
    rng = random.Random(SEED + 1)
    for d in (1, 2):
        ci = weave_witness(d, 2, 1, OMEGA)
        systems = [ci]
        for _ in range(4):
            node = rng.choice(enumerate_level(d))
            atoms = ci.atom_names(ci.set_of(node))
            if atoms:
                systems.append(ci.mutated_without(node, rng.choice(atoms)))
        for system in systems:
            for m, k in ((1, 2), (2, 2), (2, 3)):
                assert m + 1 >= k
                got = check_weave(system, d, k, m, OMEGA, strong=True).ok
                want = check_weave(system, d, k, OMEGA, OMEGA, strong=True).ok
                assert got == want


def test_weave_witness_genuine_k():
    ci = weave_witness(2, 3, OMEGA, OMEGA, genuine_k=True)
    assert check_weave(ci, 2, 3, OMEGA, OMEGA, strong=True).ok
    report = check_weave(ci, 2, 2, OMEGA, OMEGA, strong=True)
    assert not report.ok
    assert report.violations[0].kind == INCONSISTENCY
    # Past the level's size every node subset is an atom already: a huge k
    # used to loop over every size below it.
    start = time.perf_counter()
    everything = weave_witness(1, 10 ** 9, 1, OMEGA, genuine_k=True)
    assert time.perf_counter() - start < 0.5
    assert materialized(everything.to_json()) == \
        materialized(weave_witness(1, 5, 1, OMEGA, genuine_k=True).to_json())
    assert len(everything.universe) == 2 ** 4 - 1


def test_weave_witness_matches_reference(monkeypatch):
    def outcome(build, *args):
        try:
            return materialized(build(*args).to_json())
        except (ArgumentError, ResourceError) as err:
            return type(err)

    for d in (0, 1, 2):
        for k in (2, 3):
            for n in (OMEGA, 0, 1, 2):
                for genuine_k in (False, True):
                    args = (d, k, 1, n, genuine_k)
                    got = weave_witness(*args)
                    assert materialized(got.to_json()) == \
                        materialized(reference_weave_witness(*args).to_json()), args
                    assert list(got.universe) == sorted(got.universe)
    # Atoms are named a batch of keys at a time: batches of 1 and 7 keys cut
    # the depth-2 witnesses (two bytes a key) at every edge.
    for batch in (1, 7):
        monkeypatch.setattr(patterns, "_NAME_BATCH", batch)
        for args in ((2, 2, 1, OMEGA), (2, 3, 1, 1, True), (1, 2, 1, 2)):
            assert materialized(weave_witness(*args).to_json()) == \
                materialized(reference_weave_witness(*args).to_json()), (batch, args)
    monkeypatch.undo()
    for args, budget in (((2, 1, 1, OMEGA), None), ((2, 2, 1, OMEGA), 10),
                         ((1, 3, 1, OMEGA, True), 10), ((1, 3, 1, OMEGA, True), 17)):
        if budget is not None:
            monkeypatch.setattr(errors, "BUDGET", budget)
        got = outcome(weave_witness, *args)
        assert got in (ArgumentError, ResourceError), (args, budget)
        assert got == outcome(reference_weave_witness, *args)


def test_name_order_key_sorts_like_the_names():
    # weave_witness sorts the atoms of every size by a key instead of by
    # name: node i is bit 7 - i % 8 of byte i // 8, and keys sort descending.
    for d in (0, 1, 2):
        level = enumerate_level(d)
        width = (len(level) + 7) // 8

        def key(mask):
            return next(name_keys([mask], width))

        def name(mask):
            return "{" + ",".join(encode(node) for i, node in enumerate(level)
                                  if mask >> i & 1) + "}"

        for i in range(len(level)):
            assert key(1 << i)[i // 8] == 1 << (7 - i % 8)
        masks = range(1, 1 << len(level))  # 65,535 subsets at depth 2
        assert sorted(masks, key=key, reverse=True) == sorted(masks, key=name), d


def test_set_system_universe_checks_without_the_index():
    # The universe is told distinct without the name -> bit index, so a
    # system whose sets are all masks builds none.
    assert "_atom_id" not in vars(weave_witness(2, 2, 1, OMEGA))
    system = SetSystem(["b", "a"], {0: {"a"}})
    assert "_atom_id" in vars(system) and system.set_of(0) == 0b10
    distinct = "universe atoms must be distinct"
    for universe in (["b", "a", "c", "a"], [3, 1, 2, 1.0], [1, True],
                     [frozenset({1}), frozenset({2}), frozenset({1})]):
        with pytest.raises(ArgumentError, match=distinct):
            SetSystem(universe, {})
    with pytest.raises(ArgumentError, match=distinct):
        SetSystem.from_json({"universe": ["b", "a", "c", "a"], "family": []}, decode)
    for universe, where in (([["a"], ["b"]], r"universe\[0\] must be a JSON scalar, got \['a'\]"),
                            ([["a"], ["a"]], r"universe\[0\] must be a JSON scalar"),
                            (["a", {"b": 1}], r"universe\[1\] must be a JSON scalar"),
                            (["a", 1, "b"], r"universe\[1\] must have the type of "
                                            r"universe\[0\] \(str\), got 1"),
                            ([2, 1.5], r"universe\[1\] must have the type of "
                                       r"universe\[0\] \(int\), got 1.5")):
        with pytest.raises(ParseError, match=where):
            SetSystem.from_json({"universe": universe, "family": []}, decode)


def test_witness_interfaces_monotone():
    rng = random.Random(SEED)
    cases = [
        (weave_witness(1, 2, 1, OMEGA), list(enumerate_level(1))),
        (weave_witness(2, 2, 1, 1), list(enumerate_level(2))),
        (grid_witness(3, 2), grid_points(3)),
        (grid_witness(3, 2, strong=True), grid_points(3)),
        (graph_witness(Graph(5, [(0, 1), (1, 2), (3, 4)])), list(range(5))),
        (graph_witness(Graph(5, [(0, 1), (1, 2), (3, 4)]), materialize=True),
         list(range(5))),
    ]
    for ci, indices in cases:
        for _ in range(40):
            family = rng.sample(indices, rng.randint(1, min(5, len(indices))))
            if ci.consistent(family):
                for size in range(1, len(family)):
                    for sub in combinations(family, size):
                        assert ci.consistent(sub)


def test_checker_reports_identical_across_threads():
    # checkers are pure; concurrent evaluation must reproduce the same report
    from concurrent.futures import ThreadPoolExecutor

    ci = weave_witness(2, 2, 1, OMEGA)
    node = decode("00")
    mutated = ci.mutated_without(node, ci.atom_names(ci.set_of(node))[0])

    def run(_):
        return check_weave(mutated, 2, 2, 1, OMEGA, strong=True).to_json()

    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(run, range(8)))
    assert all(r == reports[0] for r in reports)
    assert not reports[0]["ok"]


# --- grid checker -----------------------------------------------------------


def test_check_grid_witness():
    ci = grid_witness(3, 2)
    assert check_grid(ci, 3, 2).ok
    assert not check_grid(ci, 3, 2, strong=True).ok
    strong_ci = grid_witness(3, 2, strong=True)
    assert check_grid(strong_ci, 3, 2, strong=True).ok
    assert check_grid(strong_ci, 3, 2).ok


def test_check_grid_constant_family():
    points = [(i, j) for i in range(2) for j in range(2)]
    ci = SetSystem(["atom"], {p: {"atom"} for p in points})
    report = check_grid(ci, 2, 2)
    assert not report.ok
    violation = report.violations[0]
    assert violation.kind == INCONSISTENCY
    assert set(violation.indices) == {(0, 1), (1, 0)}


def test_check_grid_exact_by_default():
    report = check_grid(grid_witness(4, 2), 4, 2)
    assert report.cap >= 2 * 4 - 1
    assert not report.truncated


def test_grid_witness_two_by_two():
    ci = grid_witness(2, 2)
    assert ci.consistent([(0, 0), (1, 1)])
    assert not ci.consistent([(0, 1), (1, 0)])


def test_check_grid_agrees_with_direct_oracle():
    rng = random.Random(SEED + 5)
    for s in (2, 3):
        for strong in (False, True):
            ci = grid_witness(s, 2, strong=strong)
            assert check_grid(ci, s, 2, strong=strong).ok == \
                direct_grid_ok(ci, s, 2, strong=strong)
            for _ in range(4):
                point = rng.choice(grid_points(s))
                atoms = ci.atom_names(ci.set_of(point))
                if not atoms:
                    continue
                mutated = ci.mutated_without(point, rng.choice(atoms))
                assert check_grid(mutated, s, 2, strong=strong).ok == \
                    direct_grid_ok(mutated, s, 2, strong=strong)


def test_check_grid_agrees_with_direct_oracle_on_random_systems():
    rng = random.Random(SEED + 6)
    points = grid_points(2)
    for _ in range(60):
        ci = random_set_system(points, rng, atoms=3)
        for strong in (False, True):
            assert check_grid(ci, 2, 2, strong=strong).ok == \
                direct_grid_ok(ci, 2, 2, strong=strong)


def _single_atom_mutations(system):
    """The system and every copy of it with one atom removed from one set."""
    return [system] + [system.mutated_without(index, atom)
                       for index in sorted(system.family)
                       for atom in system.atom_names(system.set_of(index))]


def test_check_grid_report_matches_reference():
    # Whole reports: the chain walk must find the same violations, in the
    # same order and with the same truncation, as listing and sorting every
    # chain and intersecting each from scratch.
    for s in range(1, 5):
        for witness_strong in (False, True):
            witness = grid_witness(s, 2, strong=witness_strong)
            for ci in _single_atom_mutations(witness):
                for strong in (False, True):
                    for cap in (None, 1, 2, 3):
                        for max_violations in (0, 1, 3, 10):
                            got = check_grid(ci, s, 2, strong=strong, cap=cap,
                                             max_violations=max_violations).to_json()
                            want = reference_check_grid(ci, s, 2, strong=strong, cap=cap,
                                                        max_violations=max_violations)
                            assert got == want, (s, witness_strong, strong, cap,
                                                 max_violations)


def test_check_grid_report_matches_reference_on_random_systems():
    # Random sets make many maximal chains fail, and their failing subchains
    # overlap: each must be reported once, in report order, and the listing
    # may stop early only where the report cannot change any more.
    rng = random.Random(SEED + 12)
    for s in range(1, 5):
        for atoms in (2, 3, 4):
            for _ in range(4):
                ci = random_set_system(grid_points(s), rng, atoms=atoms)
                for strong in (False, True):
                    for cap in (None, 1, 2, 3):
                        for max_violations in (0, 1, 3, 10):
                            got = check_grid(ci, s, 2, strong=strong, cap=cap,
                                             max_violations=max_violations).to_json()
                            want = reference_check_grid(ci, s, 2, strong=strong, cap=cap,
                                                        max_violations=max_violations)
                            assert got == want, (s, atoms, strong, cap, max_violations)


def test_check_grid_predicate_report_matches_reference():
    # A predicate oracle has no mask to carry; its verdicts are asked on the
    # same maximal chains and their failing subchains.
    rng = random.Random(SEED + 7)
    for s in (2, 3):
        systems = _single_atom_mutations(grid_witness(s, 2))
        systems += [random_set_system(grid_points(s), rng, atoms=3) for _ in range(3)]
        for system in systems:
            ci = PredicateOracle(system.family, system.consistent)
            for strong in (False, True):
                for cap in (None, 2):
                    got = check_grid(ci, s, 2, strong=strong, cap=cap, max_violations=3)
                    assert got.to_json() == reference_check_grid(
                        ci, s, 2, strong=strong, cap=cap, max_violations=3)


def test_check_grid_report_matches_reference_every_k():
    # The antichain clause at every k up to one past the longest antichain;
    # random systems make some antichains consistent, so it reports.
    rng = random.Random(SEED + 11)
    for s in range(1, 5):
        systems = [grid_witness(s, 2), grid_witness(s, 2, strong=True)]
        systems += [random_set_system(grid_points(s), rng, atoms=2) for _ in range(3)]
        for ci in systems:
            for k in range(2, s + 2):
                for strong in (False, True):
                    got = check_grid(ci, s, k, strong=strong).to_json()
                    assert got == reference_check_grid(ci, s, k, strong=strong), (s, k, strong)


def test_chains_match_reference():
    for s in range(1, 7):
        for max_size in range(1, 2 * s):
            assert chains(s, max_size) == reference_chains(s, max_size), (s, max_size)
            assert strict_chains(s, max_size) == \
                reference_chains(s, max_size, strong=False), (s, max_size)


def test_antichains_match_reference():
    for s in range(1, 6):
        points = grid_points(s)
        for size in range(1, s + 2):
            want = [combo for combo in combinations(points, size) if is_antichain(combo)]
            assert antichains_of_size(s, size) == want, (s, size)


def test_antichains_beyond_the_width_are_quick():
    # No antichain of the s x s square has more than s points; listing them
    # must not scan the C(s*s, k) subsets to find that out.
    witness = grid_witness(6, 2, strong=True)
    start = time.perf_counter()
    assert antichains_of_size(8, 9) == []
    assert check_grid(witness, 6, 6, strong=True).ok
    assert time.perf_counter() - start < 1.0


def _lattice_path_witness(s):
    """The strong s x s witness built by hand: one atom per monotone lattice
    path from (0, 0) to (s - 1, s - 1), which are the maximal chains of the
    square, and each point's set is the paths through it."""
    paths = []
    for downs in combinations(range(2 * s - 2), s - 1):
        point, path = (0, 0), [(0, 0)]
        for step in range(2 * s - 2):
            point = (point[0] + 1, point[1]) if step in downs else (point[0], point[1] + 1)
            path.append(point)
        paths.append(tuple(path))
    names = ["{" + ";".join(f"{i},{j}" for i, j in path) + "}" for path in paths]
    family = {pt: {name for name, path in zip(names, paths) if pt in path}
              for pt in grid_points(s)}
    return SetSystem(names, family), dict(zip(names, paths))


def test_chains_are_counted_before_they_are_made():
    # The count is the number of chains listed; the 7 x 7 square's 1,150,591
    # chains at the default cap stay allowed for a listing.
    for s in range(1, 6):
        points = grid_points(s)
        for related, listed in ((product_leq, chains), (strictly_below, strict_chains)):
            above = _above(points, related)
            for cap in range(1, 2 * s + 1):
                assert _require_chain_count(above, cap, "test") == len(listed(s, cap))
    assert _require_chain_count(_above(grid_points(7), product_leq),
                                default_cap(2, 7), "test") == 1_150_591
    # Every interface is decided on the maximal chains: the 8 x 8 square
    # has 3,432 of them against 12,451,583 chains, which a listing still has
    # to make and is refused before a single one is made.
    everywhere = SetSystem(["a"], {pt: {"a"} for pt in grid_points(8)})
    start = time.perf_counter()
    assert check_grid(everywhere, 8, 9, strong=True).ok
    assert check_grid(PredicateOracle(grid_points(8), lambda family: True), 8, 9,
                      strong=True).ok
    assert time.perf_counter() - start < 1.0
    # The strict chains of the 8 x 8 square are few enough to check.
    assert check_grid(everywhere, 8, 9).ok
    witness, paths = _lattice_path_witness(8)
    assert len(witness.universe) == 3432
    for strong in (False, True):
        assert check_grid(witness, 8, 2, strong=strong).ok
    # One atom out of one point's set: only chains through that point and
    # inside that path lose their common atom.
    name = sorted(paths)[1000]
    path, point = paths[name], paths[name][7]
    report = check_grid(witness.mutated_without(point, name), 8, 2, strong=True,
                        max_violations=50)
    assert not report.ok and report.violations_truncated
    assert len(report.violations) == 50
    for violation in report.violations:
        assert violation.kind == CONSISTENCY
        assert set(violation.indices) <= set(path) and point in violation.indices
    start = time.perf_counter()
    # The 13 x 13 square has 2,704,156 maximal chains.
    with pytest.raises(ResourceError, match="2704156 maximal chains, over the limit"):
        check_grid(SetSystem(["a"], {pt: {"a"} for pt in grid_points(13)}), 13, 2,
                   strong=True)
    with pytest.raises(ResourceError, match="2704156 maximal chains, over the limit"):
        check_grid(PredicateOracle(grid_points(13), lambda family: True), 13, 2, strong=True)
    with pytest.raises(ResourceError, match="over the limit"):
        chains(8, 15)
    with pytest.raises(ResourceError, match="over the limit"):
        grid_witness(8, 2, strong=True)
    assert time.perf_counter() - start < 1.0


def test_grid_witness_matches_reference():
    for s in range(1, 7):
        for strong in (False, True):
            got, want = grid_witness(s, 2, strong=strong), reference_grid_witness(s, 2, strong)
            assert (got.universe, got.family) == (want.universe, want.family), (s, strong)
            assert materialized(got.to_json()) == materialized(want.to_json()), (s, strong)


# --- graph pattern checker --------------------------------------------------


def test_check_graph_pattern_witnesses():
    k2 = Graph(2, [(0, 1)])
    assert check_graph_pattern(graph_witness(k2), k2).ok
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert check_graph_pattern(graph_witness(p4), p4).ok
    assert check_graph_pattern(graph_witness(p4, materialize=True), p4).ok


def test_check_graph_pattern_constant_family():
    k2 = Graph(2, [(0, 1)])
    ci = SetSystem(["atom"], {0: {"atom"}, 1: {"atom"}})
    report = check_graph_pattern(ci, k2)
    assert not report.ok
    violation = report.violations[0]
    assert violation.kind == INCONSISTENCY
    assert violation.indices == (0, 1)
    assert violation.certificate.edge == (0, 1)


def test_graph_witness_oracle_and_materialized_agree():
    rng = random.Random(SEED)
    from helpers import random_graph

    for _ in range(10):
        graph = random_graph(6, 0.4, rng)
        oracle = graph_witness(graph)
        system = graph_witness(graph, materialize=True)
        for size in range(1, 5):
            for combo in combinations(range(6), size):
                assert oracle.consistent(combo) == system.consistent(combo)


def _downward_mutations(graph, rng):
    """The graph-witness predicate changed in three downward-closed ways:
    every family holding one random vertex refused, one random non-edge pair
    forbidden, and every subset of a random set that holds an edge allowed.  The first two make independent sets inconsistent, the
    third makes families with an edge consistent."""
    oracle, n = graph_witness(graph), graph.n
    out = []
    if n:
        v = rng.randrange(n)
        out.append(PredicateOracle(range(n), lambda fam: oracle.consistent(fam) and v not in fam))
    non_edges = sorted(set(combinations(range(n), 2)) - graph.edges)
    if non_edges:
        pair = frozenset(rng.choice(non_edges))
        out.append(PredicateOracle(range(n),
                                   lambda fam: oracle.consistent(fam) and not pair <= fam))
    if graph.edges:
        allowed = frozenset(rng.choice(sorted(graph.edges)))
        allowed |= {u for u in range(n) if rng.random() < 0.5}
        out.append(PredicateOracle(range(n), lambda fam: oracle.consistent(fam) or fam <= allowed))
    return out


def _graph_pattern_cases(graph, rng):
    """Both witnesses of the graph and their mutations: every single-atom
    deletion of the set system, and the downward-closed mutations of the
    predicate, each checked to be downward closed on every vertex subset."""
    cases = _single_atom_mutations(graph_witness(graph, materialize=True))
    cases.append(graph_witness(graph))
    for mutant in _downward_mutations(graph, rng):
        assert downward_closed(mutant, range(graph.n)), graph.edges
        cases.append(mutant)
    return cases


def test_check_graph_pattern_report_matches_reference():
    # Every labelled graph on at most 5 vertices, then seeded random graphs
    # on up to 9: whole reports equal the subset-by-subset scan, and the
    # maximal independent sets equal the scan over all vertex subsets.
    rng = random.Random(SEED + 8)
    graphs = small_graphs(5)
    assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 1024
    graphs += [random_graph(n, rng.random(), rng) for n in range(6, 10) for _ in range(4)]
    kinds = Counter()
    for graph in graphs:
        masks = graph.adjacency_masks()
        assert _maximal_independent_sets(graph.n, masks) == \
            reference_maximal_independent_sets(graph.n, masks), graph
        settings = ((None, 10),) if graph.n <= 5 else \
            ((None, 0), (None, 1), (None, 10), (2, 3), (3, 10))
        for ci in _graph_pattern_cases(graph, rng):
            for cap, max_violations in settings:
                got = check_graph_pattern(ci, graph, cap=cap, max_violations=max_violations)
                assert got.to_json() == reference_check_graph_pattern(
                    ci, graph, cap=cap, max_violations=max_violations), (graph, cap)
                if isinstance(ci, PredicateOracle):
                    kinds.update(violation.kind for violation in got.violations)
    # The predicate mutations break both clauses.
    assert kinds[CONSISTENCY] and kinds[INCONSISTENCY]


def test_maximal_independent_sets_limit():
    with pytest.raises(ResourceError, match="limited to 20 vertices, got 21"):
        _maximal_independent_sets(21, (0,) * 21)
    empty = Graph(20, [])
    assert _maximal_independent_sets(20, empty.adjacency_masks()) == [tuple(range(20))]


def test_graph_witness_matches_reference():
    # The same universe in the same order and the same masks as the vertex
    # by vertex construction over the scanned maximal independent sets.
    rng = random.Random(SEED + 13)
    graphs = small_graphs(5) + [Graph(0, [])]
    graphs += [random_graph(n, rng.random(), rng) for n in range(6, 13) for _ in range(4)]
    for graph in graphs:
        got, want = graph_witness(graph, materialize=True), reference_graph_witness(graph)
        assert (got.universe, got.family) == (want.universe, want.family), graph


def _counting(system):
    """A predicate oracle answering as the system, and the count of each
    family it was asked on."""
    asked = Counter()

    def predicate(family):
        asked[family] += 1
        return system.consistent(family)

    return PredicateOracle(system.indices, predicate), asked


# Each count pair is (asks, asks of a full walk over every family up to the
# cap), without and with `strong`.  A family is asked at most once per walk.
# The weave has two walks, the up side and the consistency side, and each
# takes a verdict on every comb it folds, parts included, so a single node
# is asked on both sides.  The consistency side folds only its largest combs
# and their parts, so from d = 2 on a check asks fewer than a full walk.  At
# d = 1, k = 2 it asks more (12 and 14 against 8 and 10), because the up
# side also asks the parts of its size-k combs.
@pytest.mark.parametrize("d, k, counts", [(1, 2, ((12, 8), (14, 10))),
                                          (1, 3, ((6, 6), (8, 8))),
                                          (2, 2, ((88, 136), (152, 328))),
                                          (2, 3, ((68, 112), (132, 304)))])
def test_predicate_asked_once_per_family_weave(d, k, counts):
    for strong, (want, full) in zip((False, True), counts):
        ci, asked = _counting(weave_witness(d, 2, 1, OMEGA))
        assert check_weave(ci, d, k, 1, OMEGA, strong=strong).ok
        assert max(asked.values()) <= 2
        assert sum(asked.values()) == want, (d, k, strong)
        if d >= 2:
            assert want < full


# The grid has two walks: the maximal chains, then the subchains of the
# failing ones.  Those include the failing maximal chains again, which the
# second walk takes as failing without asking.  So the strong 2 x 2 check of
# the strict-chain witness, where both maximal chains fail, asks each of
# its 12 families once, as a full walk does.
@pytest.mark.parametrize("s, counts", [(2, ((4, 6), (12, 12))),
                                       (3, ((18, 28), (51, 112))),
                                       (4, ((63, 105), (156, 1043)))])
def test_predicate_asked_once_per_family_grid(s, counts):
    for strong, (want, full) in zip((False, True), counts):
        ci, asked = _counting(grid_witness(s, 2))
        check_grid(ci, s, 2, strong=strong)
        assert max(asked.values()) == 1
        assert sum(asked.values()) == want, (s, strong)
        if s >= 3:
            assert want < full


def test_predicate_asked_once_per_family_graph():
    # One walk, each subset asked once; once a subset holds an edge and is
    # inconsistent, its extensions are skipped.  A full walk asks every
    # nonempty vertex subset of the depth-2 comb graph.
    graph, _ = comb_graph(2)
    ci, asked = _counting(graph_witness(graph))
    assert check_graph_pattern(ci, graph).ok
    assert set(asked.values()) == {1}
    assert sum(asked.values()) == 1008 < 2 ** 16 - 1


def _four_members(system):
    """The system's consistency behind a predicate, exposed through nothing
    but the indices, the four fold members, `consistent` and `common_atom`:
    reading any other member raises AttributeError."""
    oracle = PredicateOracle(system.indices, system.consistent)
    bare = SimpleNamespace(indices=oracle.indices, state=oracle.state, meet=oracle.meet,
                           verdict=oracle.verdict, top=oracle.top,
                           common_atom=oracle.common_atom)
    bare.consistent = lambda indices: consistent(bare, indices)
    return bare


def _without_atoms(report):
    payload = report.to_json()
    for violation in payload["violations"]:
        violation.pop("atom", None)
    return payload


def test_checkers_read_only_the_four_fold_members():
    # A bare interface gets the report of the set system it answers for,
    # without atoms, which a predicate does not name.  The weave systems
    # and settings are those of the weave reference test, so this also
    # compares the predicate path of the consistency side's shortcut.
    from comblab.combs import LITERAL, RECURSIVE

    rng = random.Random(SEED + 5)
    settings = ((1, False, RECURSIVE), (2, True, RECURSIVE), (OMEGA, False, RECURSIVE),
                (OMEGA, True, RECURSIVE), (OMEGA, True, LITERAL))
    for d in (1, 2):
        witness = weave_witness(d, 2, 1, OMEGA)
        systems = [witness, weave_witness(d, 2, 1, 1)]
        systems += [witness.mutated_without(index, atom)
                    for index, atom in random_subsystem_mutations(witness, rng, 3)]
        systems += [random_set_system(enumerate_level(d), rng) for _ in range(2)]
        for system in systems:
            bare = _four_members(system)
            for k, m in ((2, 1), (3, OMEGA)):
                for n, strong, reading in settings:
                    for max_violations in (0, 1, 3, 10):
                        got, want = (check_weave(ci, d, k, m, n, strong=strong,
                                                 reading=reading, max_violations=max_violations)
                                     for ci in (bare, system))
                        assert _without_atoms(got) == _without_atoms(want), \
                            (d, k, m, n, strong, reading, max_violations)
    for s in range(1, 5):
        systems = _single_atom_mutations(grid_witness(s, 2))
        systems += [random_set_system(grid_points(s), rng, atoms=3) for _ in range(3)]
        for system in systems:
            bare = _four_members(system)
            for strong in (False, True):
                for cap in (None, 2):
                    got, want = (check_grid(ci, s, 2, strong=strong, cap=cap, max_violations=3)
                                 for ci in (bare, system))
                    assert _without_atoms(got) == _without_atoms(want), (s, strong, cap)
    for graph in small_graphs(5):
        witness = graph_witness(graph, materialize=True)
        systems = [witness]
        if graph.n:
            systems += [witness.mutated_without(index, atom)
                        for index, atom in random_subsystem_mutations(witness, rng, 2)]
        for system in systems:
            got, want = (check_graph_pattern(ci, graph) for ci in (_four_members(system), system))
            assert _without_atoms(got) == _without_atoms(want), graph.edges


def test_every_predicate_built_is_downward_closed():
    # The contract the checkers rely on: for every consistent family F and
    # every x in F, F - {x} is consistent.
    for graph in small_graphs(5):
        assert downward_closed(graph_witness(graph), range(graph.n)), graph.edges
    for length in range(2, 7):
        for side in triangle_free_demo(length):
            assert downward_closed(side, range(length)), length
    pattern = graph_witness(comb_graph(1)[0])
    assert downward_closed(graph_to_weave_oracle(pattern, 1), enumerate_level(1))
    # A pullback along the strongify map: level 2 read back at level 1.
    deep = graph_to_weave_oracle(graph_witness(comb_graph(2)[0]), 2)
    assert downward_closed(strongify_weave(deep), enumerate_level(1))


def test_predicate_oracle_unknown_index():
    oracle = PredicateOracle([0, 1], lambda fam: True)
    with pytest.raises(ArgumentError):
        oracle.consistent([5])
    assert oracle.consistent([])


# --- templates --------------------------------------------------------------


def test_realizable_direct_conflict():
    template = Template.make(["a", "b"], [{"a", "b"}], [{"a", "b"}], 2)
    assert realizable(template) is None


def test_realizable_empty_constraints():
    template = Template.make(["a", "b"], [], [], 2)
    system = realizable(template)
    assert system is not None
    assert all(not system.set_of(i) for i in ("a", "b"))


def test_realizable_returns_passing_witness():
    template = Template.make(
        [0, 1, 2, 3],
        [{0, 1}, {1, 2}, {2, 3}],
        [{0, 1, 2, 3}],
        3)
    system = realizable(template)
    assert system is not None
    for cset in template.must_consist:
        assert system.consistent(cset)
    for group in template.must_k_inconsist:
        assert k_inconsistent(system, group, template.k)


def test_realizable_matches_assignment_oracle_seeded():
    rng = random.Random(SEED)
    for _ in range(150):
        index_count = rng.randint(1, 4)
        indices = list(range(index_count))
        mc = [frozenset(rng.sample(indices, rng.randint(1, index_count)))
              for _ in range(rng.randint(0, 4))]
        mi = [frozenset(rng.sample(indices, rng.randint(1, index_count)))
              for _ in range(rng.randint(0, 4))]
        template = Template.make(indices, mc, mi, rng.randint(2, 4))
        assert (realizable(template) is not None) == assignment_oracle(template, atoms=4)


def test_realizable_matches_reference():
    # The verdict equals the k-subset scan, groups smaller than k included,
    # and a witness has the reference's universe, in its order, and masks.
    # With no must-consist set the universe is empty and every set is 0.
    rng = random.Random(SEED + 14)
    templates = [Template.make(range(3), [], [{0, 1}], 2)]
    for _ in range(300):
        indices = list(range(rng.randint(1, 8)))
        groups = [[frozenset(rng.sample(indices, rng.randint(0, len(indices))))
                   for _ in range(rng.randint(0, 12))] for _ in range(2)]
        templates.append(Template.make(indices, *groups, rng.randint(2, 5)))
    for template in templates:
        got, want = realizable(template), reference_realizable(template)
        assert (got is None) == (want is None), template
        if got is not None:
            assert (got.universe, got.family) == (want.universe, want.family), template
    empty = realizable(templates[0])
    assert empty.universe == () and empty.family == {0: 0, 1: 0, 2: 0}


def test_assignment_oracle_bitparallel_matches_slow():
    rng = random.Random(SEED + 7)
    for _ in range(40):
        index_count = rng.randint(1, 3)
        indices = list(range(index_count))
        mc = [frozenset(rng.sample(indices, rng.randint(1, index_count)))
              for _ in range(rng.randint(0, 2))]
        mi = [frozenset(rng.sample(indices, rng.randint(1, index_count)))
              for _ in range(rng.randint(0, 2))]
        template = Template.make(indices, mc, mi, 2)
        for atoms in (0, 3):
            assert assignment_oracle(template, atoms) == assignment_oracle_slow(template, atoms)


def test_assignment_oracle_empty_family_is_consistent():
    template = Template.make({0, 1}, [frozenset()], [], 2)
    assert assignment_oracle_slow(template, 0) is True
    assert assignment_oracle(template, 0) is True


def test_template_validation():
    with pytest.raises(ArgumentError):
        Template.make([0], [{1}], [], 2)
    with pytest.raises(ArgumentError):
        Template.make([0], [], [], 1)


# --- triangle-free demo -----------------------------------------------------


def test_triangle_free_demo_len2():
    p_side, _ = triangle_free_demo(2)
    assert not p_side.consistent([0, 1])


def test_triangle_free_demo_len5():
    p_side, q_side = triangle_free_demo(5)
    for pair in combinations(range(5), 2):
        assert not p_side.consistent(pair)
    for i in range(5):
        assert p_side.consistent([i])
    assert q_side.consistent(range(5))


def test_triangle_free_demo_matches_the_edge_list_predicate():
    # The p side used to scan the whole edge list on every call.
    for length in range(2, 11):
        p_side, _ = triangle_free_demo(length)
        reference = reference_triangle_p_predicate(length)
        for size in range(4):
            for family in combinations(range(length), size):
                assert p_side._predicate(frozenset(family)) == reference(frozenset(family))


def test_demo_edges_shape():
    edges = list(demo_edges(3))
    assert (("v", 0), ("u", 1)) in edges
    assert (("v", 1), ("u", 2)) in edges
    assert len(edges) == 3


# --- serialization ----------------------------------------------------------


def test_set_system_json_roundtrip():
    ci = weave_witness(1, 2, 1, 1)
    payload = materialized(ci.to_json())
    back = SetSystem.from_json(payload, decode)
    assert back.indices == ci.indices
    for node in ci.indices:
        assert back.atom_names(back.set_of(node)) == ci.atom_names(ci.set_of(node))


def test_report_json_shape():
    report = check_weave(weave_witness(1, 2, 1, 1), 1, 2, 1, 1, strong=True)
    payload = report.to_json()
    assert set(payload) == {"ok", "cap", "truncated", "violations", "violations_truncated"}


def test_checker_reports_are_hashable_values():
    # A report holds its violations in a tuple and each certificate is a
    # value: equal checks give equal reports with equal hashes, and the
    # checker keeps no list to append to.
    ci = weave_witness(1, 2, 1, OMEGA)
    node = decode("0")
    mutated = ci.mutated_without(node, ci.atom_names(ci.set_of(node))[0])
    constant = SetSystem(["a"], {p: {"a"} for p in grid_points(2)})
    k2 = SetSystem(["a"], {0: {"a"}, 1: {"a"}})
    apart = SetSystem(["a", "b"], {0: {"a"}, 1: {"b"}})
    checks = [lambda: check_weave(ci, 1, 2, 1, OMEGA),
              lambda: check_weave(mutated, 1, 2, 1, OMEGA),
              lambda: check_grid(constant, 2, 2),
              lambda: check_grid(grid_witness(3, 2), 3, 2, strong=True),
              lambda: check_graph_pattern(k2, Graph(2, [(0, 1)])),
              lambda: check_graph_pattern(apart, Graph(2, []))]
    structures = []
    for check in checks:
        report, twin = check(), check()
        assert type(report.violations) is tuple
        assert report is not twin and report == twin and hash(report) == hash(twin)
        assert report.to_json()["violations"] == [v.to_json() for v in report.violations]
        if check is not checks[0]:
            assert not report.ok and report.violations
            structures.append(report.to_json()["violations"][0]["certificate"])
    assert structures[1:] == [{"structure": "antichain"}, {"structure": "chain"},
                              {"structure": "edge", "edge": [0, 1]},
                              {"structure": "independent"}]


def test_encode_index_forms():
    assert encode_index(decode("01")) == "01"
    assert encode_index((2, 3)) == "2,3"
    assert encode_index(7) == "7"
