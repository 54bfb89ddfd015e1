"""The battery's exhaustive sweeps keep their strength: one planted defect
in a recognizer, a classifier or an oracle relation, on one subset or one
pair, fails the sweep and is named in its detail.  And `run_battery` runs
each check at the scale its schedule sets."""

import pytest

from comblab import cographs, combs, oracle, verify
from comblab.combs import LITERAL, OMEGA, UP_ONE, WIDE_RIGHT_ONE, CombClass
from comblab.index_core import enumerate_level

WIDE_OMEGA = CombClass("wide-right", OMEGA)


def _subset(*digits):
    """The level-2 nodes with these digits, in the sweeps' order."""
    return [node for node in enumerate_level(2) if node in digits]


def _listed(subset):
    """A subset as the sweeps' details list it."""
    return str([repr(node) for node in subset])


def _flip_is_comb(monkeypatch, subset, cls):
    real, target = combs.is_comb, frozenset(subset)

    def flipped(nodes, comb_cls):
        verdict = real(nodes, comb_cls)
        if comb_cls != cls or frozenset(nodes) != target:
            return verdict
        return "planted certificate" if verdict is None else None

    monkeypatch.setattr(combs, "is_comb", flipped)


# A pair, a mid-size set, and the whole level: a sweep that skips a size
# misses one of them.
WIDE_SUBSETS = [("03", "33"), ("00", "02", "11", "13", "20", "31", "32"),
                tuple(enumerate_level(2))]


@pytest.mark.parametrize("digits", WIDE_SUBSETS)
def test_wide_characterization_catches_a_flipped_recognizer(monkeypatch, digits):
    subset = _subset(*digits)
    _flip_is_comb(monkeypatch, subset, WIDE_OMEGA)
    result = verify._wide_characterization(2)
    assert not result.ok
    assert result.detail.startswith(_listed(subset) + ": wide="), result.detail


# An early up pair, a wide pair, and an up pair late in the order.
@pytest.mark.parametrize("digits", [("00", "01"), ("10", "12"), ("21", "30")])
def test_wide_characterization_catches_a_flipped_pair(monkeypatch, digits):
    subset = _subset(*digits)
    real = combs.classify_pair
    target = frozenset(subset)

    def flipped(a, b):
        verdict = real(a, b)
        if {a, b} != target:
            return verdict
        return WIDE_RIGHT_ONE if verdict == UP_ONE else UP_ONE

    monkeypatch.setattr(combs, "classify_pair", flipped)
    result = verify._wide_characterization(2)
    assert not result.ok
    assert result.detail.startswith(_listed(subset) + ": wide="), result.detail


@pytest.mark.parametrize("digits, cls", [
    (("21",), CombClass("up", 1)),
    (("01", "12", "30"), CombClass("right", 2)),
    (("00", "02", "20", "22"), WIDE_OMEGA),
    # The readings differ here: a recursive wide comb, not a literal one.
    (("00", "03", "20"), CombClass("wide-right", 2, LITERAL)),
])
def test_recognition_vs_brute_catches_a_flipped_recognizer(monkeypatch, digits, cls):
    subset = _subset(*digits)
    _flip_is_comb(monkeypatch, subset, cls)
    result = verify._recognition_vs_brute(2, 4)
    assert not result.ok
    assert result.detail == f"{_listed(subset)} under {cls!r}"


def test_recognition_vs_brute_catches_a_rejected_oracle_pair(monkeypatch):
    # {00, 02} widely left of {20, 22} is the only build of their union, a
    # wide comb of the largest size the sweep covers.
    real = oracle.widely_left
    a_part, b_part = frozenset(_subset("00", "02")), frozenset(_subset("20", "22"))
    assert real(a_part, b_part)

    def rejecting(a_set, b_set):
        return False if (a_set, b_set) == (a_part, b_part) else real(a_set, b_set)

    monkeypatch.setattr(oracle, "widely_left", rejecting)
    result = verify._recognition_vs_brute(2, 4)
    assert not result.ok
    subset = _subset("00", "02", "20", "22")
    assert result.detail == f"{_listed(subset)} under {CombClass('wide-right', 2)!r}"


def _plant_cotree_of(monkeypatch, plant):
    """Make `cotree_of` answer `plant(graph, its real answer)`."""
    real = cographs.cotree_of
    monkeypatch.setattr(cographs, "cotree_of", lambda graph: plant(graph, real(graph)))


def test_cograph_stack_catches_a_path_that_is_not_induced(monkeypatch):
    # With b and c swapped, a-c is a non-edge of the certified path.
    def swapped(graph, answer):
        if isinstance(answer, cographs.Cotree):
            return answer
        return cographs.P4Certificate(answer.a, answer.c, answer.b, answer.d)

    _plant_cotree_of(monkeypatch, swapped)
    result = verify._cograph_stack(4, 0, [])
    assert not result.ok
    assert result.detail == ("Graph(n=4, edges=[(0, 1), (0, 3), (1, 2)]): "
                             "P4Certificate(a=2, b=0, c=1, d=3) is not an induced four-path")


def test_cograph_stack_catches_a_tree_for_a_non_cograph(monkeypatch):
    # The edgeless graph's tree, given for every graph with a four-path.
    def edgeless(graph, answer):
        if isinstance(answer, cographs.Cotree):
            return answer
        return cographs.cotree_of(cographs.Graph(graph.n, []))

    _plant_cotree_of(monkeypatch, edgeless)
    result = verify._cograph_stack(4, 0, [])
    assert not result.ok
    assert result.detail.endswith(": recognition mismatch")


def test_cograph_stack_checks_the_comb_graph_against_its_definition(monkeypatch):
    # The comb graph is read from its cotree, so a wrong tree gives a graph
    # that agrees with it: the check must still find the pairs it gets wrong.
    # Here depth 1's tree joins 0 to 2 and 1 to 3: as many edges as the UpOne
    # pairs {0, 1} and {2, 3}, but not those.
    real = cographs.comb_graph

    def planted(d):
        if d != 1:
            return real(d)
        a, b, c, e = map(cographs.leaf, range(4))
        tree = cographs.union(cographs.join(a, c), cographs.join(b, e))
        return cographs.eval_cotree(tree), tree

    monkeypatch.setattr(cographs, "comb_graph", planted)
    result = verify._cograph_stack(1, 1, [])
    assert (result.ok, result.detail) == (False, "comb graph edges at d=1")


def test_battery_scale_is_pinned():
    # The schedule's clamps: wide, recognition, witness weaves, comb graphs
    # and bridges stay at depth 2 when max_depth is 3.
    assert [(c.name, c.detail) for c in verify.run_battery(3)] == [
        ("pair-dichotomy", "all pairs at depths <= 3"),
        ("wide-characterization", "all subsets at depth 2"),
        ("recognition-vs-brute", "subsets of size <= 4 at depth 2"),
        ("strongify-pairs", "all pairs at depths <= 3"),
        ("grid-embedding", "all pairs at depths <= 4"),
        ("witnesses", "weave, grid, and graph witnesses pass their checkers"),
        ("realizability", "criterion matches the assignment oracle"),
        ("cograph-stack", "recognition, comb graph, and embedding agree"),
        ("bridges", "both graph bridges and the grid bridge pass at d=2"),
        ("triangle-demo", "length 6"),
        ("epsilon-scaling", "pairs at s=3, tie preserved as documented"),
        ("genericity", "demo chain and density failure behave"),
    ]
