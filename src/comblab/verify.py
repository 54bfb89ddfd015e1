"""Self-check battery: re-derives the library's structural claims at small
depths and reports one verdict per check.

Each check recomputes expected values from definitions (pair scans, subset
sweeps, independent counting recursions) and compares them against the
library's recognizers, witnesses, and transforms, so a defect in any core
table or classifier flips at least one verdict.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from . import cographs as cographs_mod
from . import combs as combs_mod
from . import genericity as genericity_mod
from . import patterns as patterns_mod
from . import transforms as transforms_mod
from .combs import OMEGA, CombClass, UP_ONE, WIDE_RIGHT_ONE
from .errors import ArgumentError, ResourceError, require_within
from .index_core import enumerate_level, level_size
from .patterns import DEFAULT_SEED


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _pair_dichotomy(max_depth: int) -> CheckResult:
    up_cls, wide_cls = CombClass("up", 1), CombClass("wide-right", 1)
    for d in range(max_depth + 1):
        level = enumerate_level(d)
        for a, b in combinations(level, 2):
            verdict = combs_mod.classify_pair(a, b)
            up_cert = combs_mod.is_comb({a, b}, up_cls)
            wide_cert = combs_mod.is_comb({a, b}, wide_cls)
            if (up_cert is None) == (wide_cert is None):
                return CheckResult("pair-dichotomy", False,
                                   f"pair {a!r},{b!r} fails exclusivity")
            expected = UP_ONE if up_cert is not None else WIDE_RIGHT_ONE
            if verdict != expected:
                return CheckResult("pair-dichotomy", False,
                                   f"pair {a!r},{b!r}: classify={verdict}, combs say {expected}")
    return CheckResult("pair-dichotomy", True, f"all pairs at depths <= {max_depth}")


def _wide_characterization(max_depth: int) -> CheckResult:
    d = min(max_depth, 2)
    level = enumerate_level(d)
    cls = CombClass("wide-right", OMEGA)
    # partners[j]: the earlier nodes that make an UpOne pair with node j.  A
    # set is pair-free iff the set without its top node is pair-free and
    # that node has no partner among the rest.
    partners = [0] * len(level)
    for (i, a), (j, b) in combinations(enumerate(level), 2):
        if combs_mod.classify_pair(a, b) == UP_ONE:
            partners[j] |= 1 << i
    pairfree = [True] * (1 << len(level))
    for mask in range(1, len(pairfree)):
        top = mask.bit_length() - 1
        rest = mask ^ 1 << top
        pairfree[mask] = pairfree[rest] and not partners[top] & rest
    bits = [1 << i for i in range(len(level))]
    for size in range(1, len(level) + 1):
        for combo, combo_bits in zip(combinations(level, size), combinations(bits, size)):
            wide = combs_mod.is_comb(combo, cls) is not None
            free = pairfree[sum(combo_bits)]
            if wide != free:
                return CheckResult("wide-characterization", False,
                                   f"{[repr(n) for n in combo]}: wide={wide}, pair-free={free}")
    return CheckResult("wide-characterization", True, f"all subsets at depth {d}")


def _recognition_vs_brute(max_depth: int) -> CheckResult:
    from .oracle import build_tree_comb_oracle

    d = min(max_depth, 2)
    level = enumerate_level(d)
    classes = [CombClass("up", n) for n in (1, 2, OMEGA)]
    classes += [CombClass("right", n) for n in (1, 2, OMEGA)]
    classes += [CombClass("wide-right", n) for n in (1, 2, OMEGA)]
    memo = {}
    for size in range(1, 5):
        for combo in combinations(level, size):
            nodes = frozenset(combo)
            for cls in classes:
                fast = combs_mod.is_comb(combo, cls) is not None
                slow = build_tree_comb_oracle(nodes, cls, memo)
                if fast != slow:
                    return CheckResult("recognition-vs-brute", False,
                                       f"{[repr(n) for n in combo]} under {cls!r}")
    return CheckResult("recognition-vs-brute", True, f"subsets of size <= 4 at depth {d}")


def _strongify(max_depth: int) -> CheckResult:
    for d in range(max_depth + 1):
        fmap = transforms_mod.strongify_index(d)
        level = enumerate_level(d)
        images = [fmap.apply(node) for node in level]
        for (a, fa), (b, fb) in combinations(zip(level, images), 2):
            before = combs_mod.classify_pair(a, b)
            after = combs_mod.classify_pair(fa, fb)
            if before != after:
                return CheckResult("strongify-pairs", False,
                                   f"{a!r},{b!r}: {before} became {after}")
            kinds_before = {w.kind.kind for w in combs_mod.split_relation({a}, {b})}
            kinds_after = {w.kind.kind for w in combs_mod.split_relation({fa}, {fb})}
            if combs_mod.NARROW_BELOW in kinds_before and \
                    combs_mod.NARROW_BELOW not in kinds_after:
                return CheckResult("strongify-pairs", False,
                                   f"{a!r},{b!r}: narrow-below not preserved")
            if combs_mod.NARROW_LEFT in kinds_before and \
                    combs_mod.WIDE_LEFT not in kinds_after:
                return CheckResult("strongify-pairs", False,
                                   f"{a!r},{b!r}: narrow-left not widened")
    return CheckResult("strongify-pairs", True, f"all pairs at depths <= {max_depth}")


def _grid_embedding(max_depth: int) -> CheckResult:
    top = max_depth + 1
    for d in range(top + 1):
        fmap = transforms_mod.grid_embed_index(d)
        level = enumerate_level(d)
        points = [fmap.apply(node) for node in level]
        side = 4 ** d
        if len(set(points)) != len(points):
            return CheckResult("grid-embedding", False, f"not injective at depth {d}")
        if any(not (0 <= x < side and 0 <= y < side) for x, y in points):
            return CheckResult("grid-embedding", False, f"image escapes the box at depth {d}")
        for (a, p), (b, q) in combinations(zip(level, points), 2):
            verdict = combs_mod.classify_pair(a, b)
            strict = patterns_mod.strictly_below(p, q) or patterns_mod.strictly_below(q, p)
            incomp = not patterns_mod.comparable(p, q)
            if verdict == UP_ONE and not incomp:
                return CheckResult("grid-embedding", False,
                                   f"up-pair {a!r},{b!r} not incomparable")
            if verdict == WIDE_RIGHT_ONE and not strict:
                return CheckResult("grid-embedding", False,
                                   f"wide pair {a!r},{b!r} not strictly comparable")
    return CheckResult("grid-embedding", True, f"all pairs at depths <= {top}")


def _witnesses(max_depth: int, rng: random.Random) -> CheckResult:
    for d in range(min(max_depth, 2) + 1):
        for k, genuine in ((2, False), (2, True), (3, True)):
            for n in (1, OMEGA):
                ci = patterns_mod.weave_witness(d, k, 1, n, genuine_k=genuine)
                report = patterns_mod.check_weave(ci, d, k, 1, n, strong=True)
                if not report.ok:
                    return CheckResult("witnesses", False,
                                       f"weave witness d={d} k={k} n={n!r} genuine={genuine}")
    for s in range(1, max_depth + 3):
        for strong in (False, True):
            ci = patterns_mod.grid_witness(s, 2, strong=strong)
            report = patterns_mod.check_grid(ci, s, 2, strong=strong)
            if not report.ok:
                return CheckResult("witnesses", False, f"grid witness s={s} strong={strong}")
    for sample in range(4):
        tree = cographs_mod.random_cotree(6, rng.randrange(1 << 30))
        graph = cographs_mod.eval_cotree(tree)
        ci = patterns_mod.graph_witness(graph)
        report = patterns_mod.check_graph_pattern(ci, graph)
        if not report.ok:
            return CheckResult("witnesses", False, f"graph witness sample {sample}")
    return CheckResult("witnesses", True, "weave, grid, and graph witnesses pass their checkers")


def _realizability(rng: random.Random) -> CheckResult:
    from .oracle import assignment_oracle

    for trial in range(100):
        index_count = rng.randint(1, 3)
        indices = list(range(index_count))
        must_consist = [frozenset(rng.sample(indices, rng.randint(1, index_count)))
                        for _ in range(rng.randint(0, 3))]
        must_inconsist = [frozenset(rng.sample(indices, rng.randint(1, index_count)))
                          for _ in range(rng.randint(0, 3))]
        k = rng.randint(2, 3)
        template = patterns_mod.Template.make(indices, must_consist, must_inconsist, k)
        predicted = patterns_mod.realizable(template) is not None
        actual = assignment_oracle(template, atoms=3)
        if predicted != actual:
            return CheckResult("realizability", False,
                               f"trial {trial}: criterion={predicted}, oracle={actual}")
    return CheckResult("realizability", True, "criterion matches the assignment oracle")


def _cograph_stack(max_depth: int, rng: random.Random) -> CheckResult:
    for n in range(1, 5):
        for bits in range(1 << (n * (n - 1) // 2)):
            edges = []
            position = 0
            for u in range(n):
                for v in range(u + 1, n):
                    if (bits >> position) & 1:
                        edges.append((u, v))
                    position += 1
            graph = cographs_mod.Graph(n, edges)
            # The scan itself: find_p4 answers from the decomposition under test.
            has_p4 = cographs_mod._first_p4(graph) is not None
            tree = cographs_mod.cotree_of(graph)
            got_tree = isinstance(tree, cographs_mod.Cotree)
            if got_tree == has_p4:
                return CheckResult("cograph-stack", False, f"{graph!r}: recognition mismatch")
            if got_tree and cographs_mod.eval_cotree(tree) != graph:
                return CheckResult("cograph-stack", False, f"{graph!r}: cotree round-trip")
    for d in range(min(max_depth, 2) + 1):
        graph, tree = cographs_mod.comb_graph(d)
        if cographs_mod.eval_cotree(tree) != graph:
            return CheckResult("cograph-stack", False, f"comb graph tree mismatch at d={d}")
        expected = 0
        for t in range(d):
            expected = 4 * expected + 2 * 16 ** t
        if len(graph.edges) != expected:
            return CheckResult("cograph-stack", False,
                               f"comb graph edge count at d={d}: {len(graph.edges)} != {expected}")
    for sample in range(4):
        tree = cographs_mod.random_cotree(8, rng.randrange(1 << 30))
        depth, mapping = cographs_mod.embed_cograph(tree)
        graph = cographs_mod.eval_cotree(tree)
        for u, v in combinations(sorted(mapping), 2):
            verdict = combs_mod.classify_pair(mapping[u], mapping[v])
            if (verdict == UP_ONE) != graph.has_edge(u, v):
                return CheckResult("cograph-stack", False,
                                   f"embedding sample {sample}: pair {u},{v}")
    return CheckResult("cograph-stack", True, "recognition, comb graph, and embedding agree")


def _bridges(max_depth: int) -> CheckResult:
    d = max(1, min(max_depth, 2))  # the two-vertex union embeds at depth 1
    graph, tree = cographs_mod.comb_graph(d)
    pattern = patterns_mod.graph_witness(graph)
    weave_ci = cographs_mod.graph_to_weave_oracle(pattern, d)
    report = patterns_mod.check_weave(weave_ci, d, 2, OMEGA, OMEGA, strong=True)
    if not report.ok:
        return CheckResult("bridges", False, f"graph-to-weave fails at d={d}")
    ci = patterns_mod.weave_witness(d, 2, 1, OMEGA)
    small = cographs_mod.union(cographs_mod.leaf(0), cographs_mod.leaf(1))
    back = cographs_mod.weave_to_graph_oracle(ci, small)
    report = patterns_mod.check_graph_pattern(back, cographs_mod.eval_cotree(small))
    if not report.ok:
        return CheckResult("bridges", False, "weave-to-graph fails on the two-vertex union")
    grid = patterns_mod.grid_witness(4, 2)
    pulled = transforms_mod.grid_to_weave(grid, 1)
    report = patterns_mod.check_weave(pulled, 1, 2, OMEGA, OMEGA, strong=True)
    if not report.ok:
        return CheckResult("bridges", False, "grid-to-weave fails at d=1")
    return CheckResult("bridges", True, f"both graph bridges and the grid bridge pass at d={d}")


def _triangle_demo() -> CheckResult:
    length = 6
    p_side, q_side = patterns_mod.triangle_free_demo(length)
    for i, j in combinations(range(length), 2):
        if p_side.consistent((i, j)):
            return CheckResult("triangle-demo", False, f"pair {i},{j} consistent on the p side")
    for i in range(length):
        if not p_side.consistent((i,)):
            return CheckResult("triangle-demo", False, f"singleton {i} inconsistent on the p side")
    if not q_side.consistent(range(length)):
        return CheckResult("triangle-demo", False, "full family inconsistent on the q side")
    return CheckResult("triangle-demo", True, f"length {length}")


def _epsilon_scaling() -> CheckResult:
    s = 3
    points = patterns_mod.grid_points(s)
    for p, q in combinations(points, 2):
        sp, sq = transforms_mod.scale_point(p), transforms_mod.scale_point(q)
        before_strict = patterns_mod.strictly_below(p, q) or patterns_mod.strictly_below(q, p)
        after_strict = patterns_mod.strictly_below(sp, sq) or \
            patterns_mod.strictly_below(sq, sp)
        if before_strict and not after_strict:
            return CheckResult("epsilon-scaling", False, f"strict pair {p},{q} lost")
        if not patterns_mod.comparable(p, q) and patterns_mod.comparable(sp, sq):
            return CheckResult("epsilon-scaling", False, f"antichain pair {p},{q} became comparable")
        distinct_coords = p[0] != q[0] and p[1] != q[1]
        if patterns_mod.comparable(p, q) and distinct_coords and not after_strict:
            return CheckResult("epsilon-scaling", False, f"tie-free chain pair {p},{q} not strict")
    tied = (transforms_mod.scale_point((0, 0)), transforms_mod.scale_point((0, 1)))
    if patterns_mod.strictly_below(*tied):
        return CheckResult("epsilon-scaling", False,
                           "tied pair unexpectedly became strict; the recorded limitation moved")
    return CheckResult("epsilon-scaling", True, f"pairs at s={s}, tie preserved as documented")


def _genericity() -> CheckResult:
    poset = genericity_mod.binary_string_poset()
    chain = genericity_mod.generic_chain(
        poset, genericity_mod.length_requirements(5), "", steps=5)
    satisfied = {i for step in chain for i in step.satisfied}
    if satisfied != set(range(5)):
        return CheckResult("genericity", False, f"requirements met: {sorted(satisfied)}")
    lengths = [len(step.element) for step in chain]
    if lengths != sorted(set(lengths)):
        return CheckResult("genericity", False, f"chain lengths not strictly increasing: {lengths}")
    try:
        genericity_mod.generic_chain(
            poset, [genericity_mod.DensePredicate("length<2", lambda s: len(s) < 2)],
            "000", steps=2, horizon=64)
    except genericity_mod.DensityError as err:
        if err.requirement != "length<2":
            return CheckResult("genericity", False, f"wrong requirement named: {err.requirement}")
    else:
        return CheckResult("genericity", False, "non-dense requirement did not fail")
    return CheckResult("genericity", True, "demo chain and density failure behave")


def run_battery(max_depth: int = 2, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every check at the given depth scale; deterministic for a seed.

    The largest sweep, the grid embedding's pairs at depth max_depth + 1, is
    held to the budget before any check runs.
    """
    if max_depth < 0:
        raise ArgumentError(f"max_depth must be nonnegative, got {max_depth}")
    n = level_size(max_depth + 1)
    require_within(n * (n - 1) // 2, f"verify-paper at max depth {max_depth} would classify",
                   "grid-embedding pairs")
    rng = random.Random(seed)
    scheduled = [
        ("pair-dichotomy", lambda: _pair_dichotomy(max_depth)),
        ("wide-characterization", lambda: _wide_characterization(max_depth)),
        ("recognition-vs-brute", lambda: _recognition_vs_brute(max_depth)),
        ("strongify-pairs", lambda: _strongify(max_depth)),
        ("grid-embedding", lambda: _grid_embedding(max_depth)),
        ("witnesses", lambda: _witnesses(max_depth, rng)),
        ("realizability", lambda: _realizability(rng)),
        ("cograph-stack", lambda: _cograph_stack(max_depth, rng)),
        ("bridges", lambda: _bridges(max_depth)),
        ("triangle-demo", _triangle_demo),
        ("epsilon-scaling", _epsilon_scaling),
        ("genericity", _genericity),
    ]
    checks = []
    for name, fn in scheduled:
        try:
            checks.append(fn())
        except ResourceError:
            raise  # a refused computation is a resource bound, not a failed check
        except Exception as err:  # a broken core should fail the battery, not crash it
            checks.append(CheckResult(name, False, f"unexpected error: {err!r}"))
    return checks
