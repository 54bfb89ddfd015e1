"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from math import comb
from pathlib import Path

from comblab import cographs as cographs_mod, combs as combs_mod
from comblab import patterns as patterns_mod, verify
from comblab.combs import (CombClass, LITERAL, OMEGA, UP_ONE, classify_pair,
                           is_comb)
from comblab.cographs import (Cotree, Graph, comb_graph, cotree_of,
                              embed_cograph, eval_cotree,
                              graph_to_weave_oracle, random_cotree,
                              weave_to_graph_oracle)
from comblab.cographs import _first_p4
from comblab.index_core import decode, enumerate_level
from comblab.patterns import (CONSISTENCY, INCONSISTENCY, check_graph_pattern,
                              check_grid, check_weave, comparable,
                              graph_witness, grid_points, grid_witness,
                              realizable, strictly_below, weave_witness)
from comblab.transforms import (epsilon_scale, grid_to_weave, scale_point,
                                strongify_index, strongify_weave)

from helpers import (SEED, all_small_cotrees, direct_weave_ok, random_graph,
                     subset_filter_combs, with_shared_atom)
from cli_fixtures import build_workdir, golden_commands, run_cli

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    note = f"{elapsed:.2f}s" + (f" < {budget}s" if budget else "")
    print(f"PASS criterion {number} ({label}): {note}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


# --- 1: pair dichotomy ------------------------------------------------------


def test_criterion_01_pair_dichotomy(monkeypatch):
    # The battery check is the one copy of this sweep; counting the pairs it
    # classifies at each depth pins its scale.
    pairs = Counter()

    def counted(a, b):
        pairs[a.depth] += 1
        return classify_pair(a, b)

    monkeypatch.setattr(combs_mod, "classify_pair", counted)
    with criterion(1, "pair dichotomy at depths up to 4", budget=1.0):
        result = verify._pair_dichotomy(4)
    assert result.ok, result.detail
    assert result.detail == "all pairs at depths <= 4"
    assert pairs == {1: 6, 2: 120, 3: 2016, 4: 32640}


# --- 2: wide characterization ----------------------------------------------


def test_criterion_02_wide_characterization(monkeypatch):
    # The battery check sweeps every depth-2 subset; counting the sets it
    # recognizes pins that scale.  The seeded depth-3 samples are this
    # criterion's own.
    calls = Counter()

    def counted(nodes, cls):
        calls[cls] += 1
        return is_comb(nodes, cls)

    monkeypatch.setattr(combs_mod, "is_comb", counted)
    with criterion(2, "wide combs = up-pair-free sets", budget=10.0):
        cls = CombClass("wide-right", OMEGA)
        result = verify._wide_characterization(2)
        assert result.ok, result.detail
        assert result.detail == "all subsets at depth 2"
        assert calls == {cls: 2 ** 16 - 1}
        rng = random.Random(SEED)
        level3 = enumerate_level(3)
        pair_up = {}
        for i, a in enumerate(level3):
            for b in level3[i + 1:]:
                pair_up[(a, b)] = classify_pair(a, b) == UP_ONE
        for _ in range(100_000):
            combo = rng.sample(level3, rng.randint(1, 8))
            ordered = sorted(combo)
            pairfree = not any(pair_up[(ordered[i], ordered[j])]
                               for i in range(len(ordered))
                               for j in range(i + 1, len(ordered)))
            assert (is_comb(combo, cls) is not None) == pairfree


# --- 3: recognition vs brute force -----------------------------------------


def test_criterion_03_recognition_vs_brute_force(monkeypatch):
    # Every set of at most 5 depth-2 nodes and every depth-1 set, under
    # every kind and bound and both wide readings, through the battery check.
    assert set(verify._RECOGNITION_CLASSES) == \
        {CombClass(kind, n) for kind in ("up", "right", "wide-right") for n in (1, 2, OMEGA)} | \
        {CombClass("wide-right", n, LITERAL) for n in (1, 2, OMEGA)}
    sizes = Counter()

    def counted(nodes, cls):
        sizes[next(iter(nodes)).depth, len(nodes)] += 1
        return is_comb(nodes, cls)

    monkeypatch.setattr(combs_mod, "is_comb", counted)
    with criterion(3, "recognition equals the build-tree oracle", budget=30.0):
        for d, max_size in ((1, 4), (2, 5)):
            result = verify._recognition_vs_brute(d, max_size)
            assert result.ok, result.detail
            assert result.detail == f"subsets of size <= {max_size} at depth {d}"
    assert sizes == {(d, size): 12 * comb(4 ** d, size)
                     for d, max_size in ((1, 4), (2, 5)) for size in range(1, max_size + 1)}


# --- 4: strongification ------------------------------------------------------


def test_criterion_04_strongification():
    with criterion(4, "strongify preserves splits and combs", budget=10.0):
        # The pair laws (narrow-below kept, narrow-left widened) are the
        # battery's strongify check, run here up to depth 3.
        result = verify._strongify(3)
        assert result.ok, result.detail
        assert result.detail == "all pairs at depths <= 3"
        for d in (1, 2):
            fmap = strongify_index(d)
            for bound in (1, 2, OMEGA):
                for comb in subset_filter_combs(d, CombClass("up", bound), 4):
                    image = frozenset(fmap.apply(node) for node in comb)
                    assert is_comb(image, CombClass("up", bound)) is not None
                for comb in subset_filter_combs(d, CombClass("right", bound), 4):
                    image = frozenset(fmap.apply(node) for node in comb)
                    assert is_comb(image, CombClass("wide-right", bound)) is not None
        pulled = strongify_weave(weave_witness(2, 2, 1, 1))
        assert check_weave(pulled, 1, 2, 1, 1, strong=True).ok


# --- 5: grid embedding -------------------------------------------------------


def test_criterion_05_grid_embedding():
    with criterion(5, "embedding pair laws up to depth 5", budget=30.0):
        # The battery check covers injectivity, the box, and both pair laws
        # at depths 0..max_depth+1.
        result = verify._grid_embedding(4)
        assert result.ok, result.detail
        assert result.detail == "all pairs at depths <= 5"


# --- 6: witness validity -----------------------------------------------------


def test_criterion_06_witness_validity():
    with criterion(6, "witnesses pass checkers; mutations flip them"):
        # The battery check: weave witnesses at depths <= 3 for every m, n
        # and (k, genuine_k), grid witnesses at sides <= 5, and the graph
        # witnesses of 100 random cotrees.
        rng = random.Random(SEED)
        cotrees = [random_cotree(rng.randint(1, 12), rng.randrange(1 << 30))
                   for _ in range(100)]
        result = verify._witnesses(3, 5, cotrees)
        assert result.ok, result.detail
        for trial in range(100):
            graph = random_graph(rng.randint(1, 12), rng.random(), rng)
            assert check_graph_pattern(graph_witness(graph), graph).ok
        _run_mutation_suite()


def _run_mutation_suite():
    """20+ deterministic perturbations; each must flip the verdict and carry a
    checkable certificate."""
    cases = 0

    # weave deletions: drop the first atom of a node's set
    for d, n in ((1, 1), (1, OMEGA), (2, 1), (2, OMEGA)):
        ci = weave_witness(d, 2, 1, n)
        for text in ("0", "3") if d == 1 else ("00", "13"):
            node = decode(text)
            atom = ci.atom_names(ci.set_of(node))[0]
            report = check_weave(ci.mutated_without(node, atom), d, 2, 1, n, strong=True)
            assert not report.ok
            violation = next(v for v in report.violations if v.kind == CONSISTENCY)
            assert node in violation.indices
            cls = CombClass("wide-right", n)
            assert is_comb(violation.indices, cls) is not None
            cases += 1

    # weave additions: a shared fresh atom on an up-pair defeats inconsistency
    for d in (1, 2):
        ci = weave_witness(d, 2, 1, OMEGA)
        pair = (decode("0"), decode("1")) if d == 1 else (decode("00"), decode("01"))
        mutated = with_shared_atom(ci, pair)
        report = check_weave(mutated, d, 2, 1, OMEGA, strong=True)
        assert not report.ok
        violation = next(v for v in report.violations if v.kind == INCONSISTENCY)
        assert is_comb(violation.indices, CombClass("up", 1)) is not None
        assert mutated.consistent(violation.indices)
        cases += 1

    # grid deletions: break a maximal chain through a corner point
    for s in (3, 4):
        for strong in (False, True):
            ci = grid_witness(s, 2, strong=strong)
            point = (0, 0) if strong else (0, 1)
            atom = ci.atom_names(ci.set_of(point))[0]
            report = check_grid(ci.mutated_without(point, atom), s, 2, strong=strong)
            assert not report.ok
            violation = next(v for v in report.violations if v.kind == CONSISTENCY)
            assert point in violation.indices
            check = (lambda pts: all(comparable(p, q) for p, q in combinations(pts, 2))) \
                if strong else \
                (lambda pts: all(strictly_below(p, q) or strictly_below(q, p)
                                 for p, q in combinations(pts, 2)))
            assert check(violation.indices)
            cases += 1

    # grid additions: a shared atom on an antichain pair
    for s in (3, 4):
        ci = grid_witness(s, 2)
        mutated = with_shared_atom(ci, [(0, 1), (1, 0)])
        report = check_grid(mutated, s, 2)
        assert not report.ok
        violation = next(v for v in report.violations if v.kind == INCONSISTENCY)
        assert not comparable(*violation.indices)
        assert mutated.consistent(violation.indices)
        cases += 1

    # graph patterns: deletions break independent sets, additions fake edges
    for edges, size in (([(0, 1)], 2), ([(0, 1), (1, 2), (2, 3)], 4),
                        ([(0, 1), (2, 3)], 4)):
        graph = Graph(size, edges)
        ci = graph_witness(graph, materialize=True)
        atom = ci.atom_names(ci.set_of(0))[0]
        report = check_graph_pattern(ci.mutated_without(0, atom), graph)
        assert not report.ok
        violation = next(v for v in report.violations if v.kind == CONSISTENCY)
        assert 0 in violation.indices
        cases += 1

        u, v = edges[0]
        mutated = with_shared_atom(ci, [u, v])
        report = check_graph_pattern(mutated, graph)
        assert not report.ok
        violation = next(v2 for v2 in report.violations if v2.kind == INCONSISTENCY)
        cert_edge = violation.certificate.edge
        assert graph.has_edge(*cert_edge)
        assert set(cert_edge) <= set(violation.indices)
        cases += 1

    assert cases >= 20, cases


# --- 7: realizability --------------------------------------------------------


def test_criterion_07_realizability(monkeypatch):
    # Up to 4 indices, 4 groups of each kind, k <= 4, and 4 atoms for the
    # oracle, through the battery check; counting its templates pins the scale.
    templates = []

    def counted(template):
        templates.append(template)
        return realizable(template)

    monkeypatch.setattr(patterns_mod, "realizable", counted)
    with criterion(7, "criterion equals the assignment oracle on 1000 templates",
                   budget=60.0):
        result = verify._realizability(random.Random(SEED), 1000, 4)
        assert result.ok, result.detail
    assert len(templates) == 1000


# --- 8: cograph stack --------------------------------------------------------


def test_criterion_08_cograph_stack(monkeypatch):
    # The battery check walks every labelled graph on 1..7 vertices; counting
    # what it recognizes pins that scale and the labelled cograph counts.
    recognized = Counter()

    def counted(graph):
        tree = cotree_of(graph)
        recognized[graph.n, isinstance(tree, Cotree)] += 1
        return tree

    monkeypatch.setattr(cographs_mod, "cotree_of", counted)
    with criterion(8, "recognition, comb graph, and embedding", budget=60.0):
        rng = random.Random(SEED)
        for _ in range(500):
            graph = random_graph(16, rng.random(), rng)
            tree = cotree_of(graph)
            assert isinstance(tree, Cotree) == (_first_p4(graph) is None)
            if isinstance(tree, Cotree):
                assert eval_cotree(tree) == graph

        expected = {1: 2, 2: 40, 3: 672}
        for d in (1, 2, 3):
            graph, _ = comb_graph(d)
            assert len(graph.edges) == expected[d]
            level = enumerate_level(d)
            brute = sum(1 for a, b in combinations(level, 2)
                        if classify_pair(a, b) == UP_ONE)
            assert brute == expected[d]

        # The battery check: the exhaustive sweep, comb-graph cotrees at
        # depths <= 3, and the embeddings of 100 random cotrees.
        cotrees = [random_cotree(rng.randint(1, 32), rng.randrange(1 << 30))
                   for _ in range(100)]
        result = verify._cograph_stack(7, 3, cotrees)
        assert result.ok, result.detail
    labelled_cographs = {1: 1, 2: 2, 3: 8, 4: 52, 5: 472, 6: 5504, 7: 78416}
    for n, count in labelled_cographs.items():
        assert recognized[n, True] == count
        assert recognized[n, False] == 2 ** comb(n, 2) - count
    assert recognized.total() == sum(2 ** comb(n, 2) for n in labelled_cographs)


# --- 9: bridges --------------------------------------------------------------


def test_criterion_09_bridges():
    with criterion(9, "pattern/weave bridges at small depth"):
        # The battery check: both graph bridges and the grid bridge pass
        # check_weave and check_graph_pattern.
        for d in (1, 2):
            result = verify._bridges(d)
            assert result.ok, result.detail
            assert result.detail == f"both graph bridges and the grid bridge pass at d={d}"
        # The direct reference agrees, and round trips cover every small cotree.
        weaves_from_patterns = {}
        for d in (1, 2):
            graph, _ = comb_graph(d)
            ci = graph_to_weave_oracle(graph_witness(graph), d)
            assert direct_weave_ok(ci, d, 2, OMEGA, OMEGA, strong=True)
            weaves_from_patterns[d] = ci
        systems = {d: weave_witness(d, 2, 1, OMEGA) for d in (1, 2)}
        tested = 0
        for tree in all_small_cotrees(4):
            depth, _ = embed_cograph(tree)
            if depth == 0 or depth > 2:
                continue
            back = weave_to_graph_oracle(systems[depth], tree)
            assert check_graph_pattern(back, eval_cotree(tree)).ok
            # full round trip: pattern -> weave -> pattern stays valid
            back2 = weave_to_graph_oracle(weaves_from_patterns[depth], tree)
            assert check_graph_pattern(back2, eval_cotree(tree)).ok
            tested += 1
        assert tested >= 10
        pulled = grid_to_weave(grid_witness(4, 2), 1)
        assert direct_weave_ok(pulled, 1, 2, OMEGA, OMEGA, strong=True)


# --- 10: triangle-free demo --------------------------------------------------


def test_criterion_10_triangle_free_demo():
    with criterion(10, "pair demo at lengths up to 10", budget=1.0):
        for length in range(2, 11):
            result = verify._triangle_demo(length)
            assert result.ok, result.detail
            assert result.detail == f"length {length}"


# --- 11: epsilon scaling ------------------------------------------------------


def test_criterion_11_epsilon_scaling():
    with criterion(11, "scaling laws exhaustive at sides up to 4"):
        for s in (2, 3, 4):
            points = grid_points(s)
            for p, q in combinations(points, 2):
                sp, sq = scale_point(p), scale_point(q)
                assert comparable(p, q) == comparable(sp, sq)
                before_strict = strictly_below(p, q) or strictly_below(q, p)
                after_strict = strictly_below(sp, sq) or strictly_below(sq, sp)
                if before_strict:
                    assert after_strict
                if not comparable(p, q):
                    assert not comparable(sp, sq)
                tie_free = p[0] != q[0] and p[1] != q[1]
                if comparable(p, q) and tie_free:
                    assert after_strict


def test_criterion_11_known_limitation_tied_chains():
    # A chain with a tied coordinate does not become strict under scaling;
    # this failure is the documented deviation and must stay in place.
    sp, sq = scale_point((0, 0)), scale_point((0, 1))
    assert comparable((0, 0), (0, 1))
    assert not (strictly_below(sp, sq) or strictly_below(sq, sp))
    ci = grid_witness(2, 2, strong=True)
    scaled = epsilon_scale(ci)
    assert scaled.consistent([sp, sq])  # the family survives, the order claim fails
    print("PASS criterion 11 (tied-coordinate limitation asserted)")


# --- 12: genericity -----------------------------------------------------------


def test_criterion_12_genericity():
    with criterion(12, "dense requirements met within bounds"):
        # All five length requirements met in at most 5 strictly lengthening
        # steps, and a requirement that is not dense fails by name.
        result = verify._genericity()
        assert result.ok, result.detail


# --- 13: CLI stability ---------------------------------------------------------


def test_criterion_13_cli_golden_and_battery(tmp_path):
    with criterion(13, "CLI byte-stability and the self-check battery", budget=120.0):
        root = build_workdir(tmp_path)
        for name, argv, expected_code in golden_commands(root):
            code1, out1, _ = run_cli(argv)
            code2, out2, _ = run_cli(argv)
            assert code1 == code2 == expected_code
            assert out1 == out2, f"{name} not byte-stable"
            golden = GOLDEN_DIR / f"{name}.txt"
            assert out1 == golden.read_text(), f"{name} deviates from golden file"
        code, out, _ = run_cli(["verify-paper", "--max-depth", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
