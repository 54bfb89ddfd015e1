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
from typing import Iterable, NamedTuple

from . import cographs as cographs_mod
from . import combs as combs_mod
from . import genericity as genericity_mod
from . import patterns as patterns_mod
from . import transforms as transforms_mod
from .combs import LITERAL, OMEGA, CombClass, UP_ONE, WIDE_RIGHT_ONE
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


def _wide_characterization(d: int) -> CheckResult:
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


# Every kind and bound, and both readings of the wide class.
_RECOGNITION_CLASSES = tuple(
    [CombClass(kind, n) for kind in ("up", "right", "wide-right") for n in (1, 2, OMEGA)]
    + [CombClass("wide-right", n, LITERAL) for n in (1, 2, OMEGA)])


def _recognition_vs_brute(d: int, max_size: int) -> CheckResult:
    from .oracle import build_tree_comb_oracle

    level = enumerate_level(d)
    memo = {}
    for size in range(1, max_size + 1):
        for combo in combinations(level, size):
            nodes = frozenset(combo)
            for cls in _RECOGNITION_CLASSES:
                # The unordered set takes is_comb's sorting path.
                fast = combs_mod.is_comb(nodes, cls) is not None
                slow = build_tree_comb_oracle(nodes, cls, memo)
                if fast != slow:
                    return CheckResult("recognition-vs-brute", False,
                                       f"{[repr(n) for n in combo]} under {cls!r}")
    return CheckResult("recognition-vs-brute", True,
                       f"subsets of size <= {max_size} at depth {d}")


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


def _witnesses(max_depth: int, side: int, cotrees: Iterable) -> CheckResult:
    for d in range(max_depth + 1):
        for n in (1, 2, OMEGA):
            plain = patterns_mod.weave_witness(d, 2, 1, n)  # its universe has no k
            matrix = [(2, False, plain), (3, False, plain)]
            matrix += [(k, True, patterns_mod.weave_witness(d, k, 1, n, genuine_k=True))
                       for k in (2, 3)]
            for k, genuine, ci in matrix:
                for m in (1, 2, OMEGA):
                    if not patterns_mod.check_weave(ci, d, k, m, n, strong=True).ok:
                        return CheckResult("witnesses", False, f"weave witness d={d} k={k} "
                                           f"m={m!r} n={n!r} genuine={genuine}")
                if genuine and k > 2 and d >= 1 and \
                        patterns_mod.check_weave(ci, d, k - 1, 1, n, strong=True).ok:
                    return CheckResult("witnesses", False,
                                       f"genuine weave witness d={d} k={k} n={n!r} "
                                       f"passes at k={k - 1}")
    for s in range(1, side + 1):
        for strong in (False, True):
            ci = patterns_mod.grid_witness(s, 2, strong=strong)
            report = patterns_mod.check_grid(ci, s, 2, strong=strong)
            if not report.ok:
                return CheckResult("witnesses", False, f"grid witness s={s} strong={strong}")
    for sample, tree in enumerate(cotrees):
        graph = cographs_mod.eval_cotree(tree)
        ci = patterns_mod.graph_witness(graph)
        report = patterns_mod.check_graph_pattern(ci, graph)
        if not report.ok:
            return CheckResult("witnesses", False, f"graph witness sample {sample}")
    return CheckResult("witnesses", True, "weave, grid, and graph witnesses pass their checkers")


def _realizability(rng: random.Random, trials: int, size: int) -> CheckResult:
    from .oracle import assignment_oracle

    for trial in range(trials):
        index_count = rng.randint(1, size)
        indices = list(range(index_count))
        must_consist = [frozenset(rng.sample(indices, rng.randint(1, index_count)))
                        for _ in range(rng.randint(0, size))]
        must_inconsist = [frozenset(rng.sample(indices, rng.randint(1, index_count)))
                          for _ in range(rng.randint(0, size))]
        k = rng.randint(2, size)
        template = patterns_mod.Template.make(indices, must_consist, must_inconsist, k)
        predicted = patterns_mod.realizable(template) is not None
        actual = assignment_oracle(template, atoms=size)
        if predicted != actual:
            return CheckResult("realizability", False,
                               f"trial {trial}: criterion={predicted}, oracle={actual}")
    return CheckResult("realizability", True, "criterion matches the assignment oracle")


def _is_induced_p4(graph, path) -> bool:
    """Whether a-b-c-d are four distinct vertices of the graph with edges
    ab, bc and cd and no edge ac, bd or ad."""
    a, b, c, d = path
    if min(path) < 0:
        return False
    b_bit, c_bit, d_bit = 1 << b, 1 << c, 1 << d
    vertices = 1 << a | b_bit | c_bit | d_bit
    masks = graph.adjacency_masks()
    return vertices.bit_count() == 4 and vertices >> graph.n == 0 and \
        masks[a] & (b_bit | c_bit | d_bit) == b_bit and masks[b] & (c_bit | d_bit) == c_bit and \
        masks[c] & d_bit != 0


def _cograph_stack(max_vertices: int, comb_depth: int, cotrees: Iterable) -> CheckResult:
    for n in range(1, max_vertices + 1):
        # Every labelled graph on n vertices, in Gray order: step i flips the
        # edge at the lowest set bit of i.
        pairs = list(combinations(range(n), 2))
        masks = [0] * n
        for i in range(1 << len(pairs)):
            if i:
                u, v = pairs[(i & -i).bit_length() - 1]
                masks[u] ^= 1 << v
                masks[v] ^= 1 << u
            graph = cographs_mod.Graph.from_masks(n, masks)
            tree = cographs_mod.cotree_of(graph)
            if not isinstance(tree, cographs_mod.Cotree):
                if not _is_induced_p4(graph, tree):
                    return CheckResult("cograph-stack", False,
                                       f"{graph!r}: {tree!r} is not an induced four-path")
            # The scan itself, since find_p4 answers from the decomposition
            # under test: a cograph has no induced four-path.
            elif cographs_mod._first_p4(graph) is not None:
                return CheckResult("cograph-stack", False, f"{graph!r}: recognition mismatch")
            elif cographs_mod.eval_cotree(tree) != graph:
                return CheckResult("cograph-stack", False, f"{graph!r}: cotree round-trip")
    for d in range(comb_depth + 1):
        # comb_graph is the graph its cotree denotes, so it is checked
        # against the definition: the edges are the UpOne pairs.
        graph, _ = cographs_mod.comb_graph(d)
        level = enumerate_level(d)
        if graph.n != len(level) or any(
                graph.has_edge(u, v) != (combs_mod.classify_pair(level[u], level[v]) == UP_ONE)
                for u, v in combinations(range(graph.n), 2)):
            return CheckResult("cograph-stack", False, f"comb graph edges at d={d}")
        expected = 0
        for t in range(d):
            expected = 4 * expected + 2 * 16 ** t
        if len(graph.edges) != expected:
            return CheckResult("cograph-stack", False,
                               f"comb graph edge count at d={d}: {len(graph.edges)} != {expected}")
    for sample, tree in enumerate(cotrees):
        _, mapping = cographs_mod.embed_cograph(tree)
        graph = cographs_mod.eval_cotree(tree)
        if len(set(mapping.values())) != len(mapping):
            return CheckResult("cograph-stack", False, f"embedding sample {sample}: not injective")
        for u, v in combinations(sorted(mapping), 2):
            verdict = combs_mod.classify_pair(mapping[u], mapping[v])
            if verdict != (UP_ONE if graph.has_edge(u, v) else WIDE_RIGHT_ONE):
                return CheckResult("cograph-stack", False,
                                   f"embedding sample {sample}: pair {u},{v}")
    return CheckResult("cograph-stack", True, "recognition, comb graph, and embedding agree")


def _bridges(d: int) -> CheckResult:
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


def _triangle_demo(length: int) -> CheckResult:
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
    if len(chain) - 1 > 5:
        return CheckResult("genericity", False, f"{len(chain) - 1} steps, over the 5 allowed")
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

    The schedule below is the one table from max_depth to each check's
    scale: its depth, subset size, square side, vertex count and sample
    counts.  The largest sweep, the grid embedding's pairs at depth
    max_depth + 1, is held to the budget before any check runs.
    """
    if max_depth < 0:
        raise ArgumentError(f"max_depth must be nonnegative, got {max_depth}")
    n = level_size(max_depth + 1)
    require_within(n * (n - 1) // 2, f"verify-paper at max depth {max_depth} would classify",
                   "grid-embedding pairs")
    rng = random.Random(seed)

    def cotrees(leaves, count):  # drawn as the check reads them
        return (cographs_mod.random_cotree(leaves, rng.randrange(1 << 30))
                for _ in range(count))

    scheduled = [
        ("pair-dichotomy", lambda: _pair_dichotomy(max_depth)),
        ("wide-characterization", lambda: _wide_characterization(min(max_depth, 2))),
        ("recognition-vs-brute", lambda: _recognition_vs_brute(min(max_depth, 2), 4)),
        ("strongify-pairs", lambda: _strongify(max_depth)),
        ("grid-embedding", lambda: _grid_embedding(max_depth)),
        ("witnesses", lambda: _witnesses(min(max_depth, 2), max_depth + 2, cotrees(6, 4))),
        ("realizability", lambda: _realizability(rng, 100, 3)),
        ("cograph-stack", lambda: _cograph_stack(4, min(max_depth, 2), cotrees(8, 4))),
        # the two-vertex union of the weave-to-graph bridge embeds at depth 1
        ("bridges", lambda: _bridges(max(1, min(max_depth, 2)))),
        ("triangle-demo", lambda: _triangle_demo(6)),
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
