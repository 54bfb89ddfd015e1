"""Shared test oracles: slow, definition-direct computations that the fast
paths are checked against."""

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Optional

from comblab import errors
from comblab.combs import (LITERAL, OMEGA, UP_ONE, CombClass,
                           RECURSIVE, classify_pair, comb_entries, is_comb, mask_indices,
                           mask_nodes, size_within, wide_right)
from comblab.errors import ArgumentError, ParseError, ResourceError
from comblab.index_core import encode, enumerate_level
from comblab.oracle import narrowly_below, narrowly_left, widely_left
from comblab.patterns import (CONSISTENCY, INCONSISTENCY, Report, _DIGIT_TO_BYTE,
                              _FoldedAtoms, SetSystem, Structure, Violation, comparable,
                              demo_edges, grid_points, is_antichain, k_inconsistent, product_leq,
                              strictly_below)

SEED = 0xC0FFEE

# Malformed set-system payloads, each with a pattern its error must match
# (read with the node index decoder).
MALFORMED_SET_SYSTEMS = [
    ([1, 2], "JSON object"),
    ({"family": []}, "'universe' list"),
    ({"universe": [], "family": {"index": "-", "set": []}}, "'family' list"),
    ({"universe": ["a"], "family": ["-"]}, r"family\[0\] must be an object"),
    ({"universe": ["a"], "family": [{"set": ["a"]}]}, r"family\[0\] must be an object"),
    ({"universe": ["a", "b"], "family": [{"index": "-", "set": "ab"}]},
     r"family\[0\] needs a 'set' list"),
    ({"universe": ["a"], "family": [{"index": "-", "set": []}, {"index": "", "set": []}]},
     r"family\[1\]: bad index ''"),
    # A set atom equal to a universe atom of another type used to be read as it.
    ({"universe": [1, 2],
      "family": [{"index": "-", "set": [1]}, {"index": "0", "set": [True, 2]}]},
     r"family\[1\]: atom True must have the type of the universe's atoms \(int\)"),
    ({"universe": [1, 2], "family": [{"index": "-", "set": [2.0]}]},
     r"family\[0\]: atom 2.0 must have the type of the universe's atoms \(int\)"),
    ({"universe": [1.0, 2.5], "family": [{"index": "-", "set": [1]}]},
     r"family\[0\]: atom 1 must have the type of the universe's atoms \(float\)"),
    ({"universe": [True, False], "family": [{"index": "-", "set": [0]}]},
     r"family\[0\]: atom 0 must have the type of the universe's atoms \(bool\)"),
]


def subset_filter_combs(d, cls, max_size):
    """Comb enumeration the slow way: all subsets of the level, filtered by
    the recognizer."""
    level = enumerate_level(d)
    out = []
    for size in range(1, max_size + 1):
        for combo in combinations(level, size):
            if is_comb(combo, cls) is not None:
                out.append(frozenset(combo))
    return out


# The letters (i, j) a class's branch relation admits at a top split, lower
# part's then upper part's: narrowly below keeps the first coordinate and
# raises the second, narrowly left keeps the second and raises the first,
# widely left raises the first.
_ADMITS = {
    "up": lambda a, b: a[0] == b[0] and a[1] < b[1],
    "right": lambda a, b: a[1] == b[1] and a[0] < b[0],
    "wide-right": lambda a, b: a[0] < b[0],
}


def letter(digit):
    """The coordinates (i, j) of the letter written as the digit 2i+j."""
    return divmod(int(digit), 2)


@dataclass
class CombEntry:
    mask: int  # node-index bitmask within enumerate_level(d)
    size: int
    a_index: Optional[int] = None  # indices into the owning entry list
    b_index: Optional[int] = None


def reference_comb_entries(d, cls, max_size):
    """comb_entries as one CombEntry object per comb, built entry by entry:
    the four prepended blocks of the depth-(d-1) list, then every cross-block
    pairing of part-class combs whose sizes fit, duplicates of the literal
    wide class dropped at the top."""
    def part_class(cls):
        literal = cls.kind == "wide-right" and cls.reading == LITERAL
        return CombClass("right", cls.n) if literal else cls

    def build(d, cls):
        if d == 0:
            return [CombEntry(1, 1)]
        part_cls = part_class(cls)
        sub = build(d - 1, cls)
        part_list = sub if part_cls is cls else build(d - 1, part_cls)
        block_width = 4 ** (d - 1)
        entries = []

        def prepended(source):
            offsets = {}
            for block, digit in enumerate("0123"):
                offset = len(entries)
                offsets[digit] = offset
                for entry in source:
                    entries.append(CombEntry(
                        entry.mask << block * block_width,
                        entry.size,
                        None if entry.a_index is None else entry.a_index + offset,
                        None if entry.b_index is None else entry.b_index + offset,
                    ))
            return offsets

        block_offsets = prepended(sub)
        part_offsets = block_offsets if part_cls is cls else prepended(part_list)
        pairings = [(a, b) for a in "0123" for b in "0123"
                    if _ADMITS[cls.kind](letter(a), letter(b))]
        for a_digit, b_digit in pairings:
            a_off, b_off = part_offsets[a_digit], part_offsets[b_digit]
            for ia, part_a in enumerate(part_list):
                if not size_within(part_a.size, cls.n):
                    continue
                budget = max_size - part_a.size
                if budget < 1:
                    continue
                for ib, part_b in enumerate(part_list):
                    if part_b.size > budget:
                        continue
                    entries.append(CombEntry(
                        entries[a_off + ia].mask | entries[b_off + ib].mask,
                        part_a.size + part_b.size,
                        a_off + ia,
                        b_off + ib,
                    ))
        return entries

    entries = build(d, cls)
    if part_class(cls) is cls:
        return entries
    seen, remap, out = {}, [], []
    for entry in entries:
        if entry.mask in seen:
            remap.append(seen[entry.mask])
            continue
        seen[entry.mask] = len(out)
        remap.append(len(out))
        out.append(CombEntry(
            entry.mask,
            entry.size,
            None if entry.a_index is None else remap[entry.a_index],
            None if entry.b_index is None else remap[entry.b_index],
        ))
    return out


def has_up_pair(nodes) -> bool:
    """Whether some 2-subset classifies UpOne: the obstruction whose absence
    characterizes the wide-right-omega combs."""
    return any(classify_pair(a, b) == UP_ONE for a, b in combinations(nodes, 2))


def reference_comb_order(table, positions):
    """The positions by size, then by ascending level positions: the order
    `sorted(zip(table.sizes, map(mask_indices, table.masks)))` gives."""
    return sorted(positions, key=lambda i: (table.sizes[i], mask_indices(table.masks[i])))


def reference_build_tree_comb_oracle(nodes, cls, memo=None):
    """Comb membership by searching every inductive build: try all
    bipartitions A, B in both orientations, all part builds, and the branch
    relation of the class."""
    if memo is None:
        memo = {}
    key = (nodes, cls)
    if key in memo:
        return memo[key]
    if not nodes:
        raise ArgumentError("oracle requires a nonempty set")
    if len(nodes) == 1:
        memo[key] = True
        return True
    if cls.kind == "up":
        relation, part_cls = narrowly_below, cls
    elif cls.kind == "right":
        relation, part_cls = narrowly_left, cls
    else:
        relation = widely_left
        part_cls = CombClass("right", cls.n) if cls.reading == LITERAL else cls
    items = sorted(nodes)
    rest = items[1:]
    result = False
    # Fix items[0] in A to halve the bipartition count; the relation is
    # orientation-specific, so also try items[0] in B via the swapped call.
    for take in range(1 << len(rest)):
        a_set = frozenset([items[0]] + [n for i, n in enumerate(rest) if (take >> i) & 1])
        b_set = nodes - a_set
        if not b_set:
            continue
        for first, second in ((a_set, b_set), (b_set, a_set)):
            if not size_within(len(first), cls.n):
                continue
            if relation(first, second) and \
                    reference_build_tree_comb_oracle(first, part_cls, memo) and \
                    reference_build_tree_comb_oracle(second, part_cls, memo):
                result = True
                break
        if result:
            break
    memo[key] = result
    return result


def direct_weave_ok(ci, d, k, m, n, strong=False, reading=RECURSIVE):
    """Uncapped weave verdict: every subset of the level is classified by the
    recognizer and the definition is applied directly."""
    level = enumerate_level(d)
    up_cls = CombClass("up", m)
    cons_cls = CombClass("wide-right", n, reading) if strong else CombClass("right", n)
    for size in range(1, len(level) + 1):
        for combo in combinations(level, size):
            if is_comb(combo, up_cls) is not None and not k_inconsistent(ci, combo, k):
                return False
            if is_comb(combo, cons_cls) is not None and not ci.consistent(combo):
                return False
    return True


def direct_grid_ok(ci, s, k, strong=False):
    """Uncapped grid verdict: every subset of the square classified by the
    pairwise order predicates, definition applied directly."""
    from comblab.patterns import grid_points, is_antichain, is_chain, is_strict_chain

    points = grid_points(s)
    for size in range(1, len(points) + 1):
        for combo in combinations(points, size):
            if is_antichain(combo) and not k_inconsistent(ci, combo, k):
                return False
            in_class = is_chain(combo) if strong else is_strict_chain(combo)
            if in_class and not ci.consistent(combo):
                return False
    return True


def reference_check_weave(ci, d, k, m, n, strong=False, reading=RECURSIVE,
                          cap=None, max_violations=10):
    """check_weave's report on a set system, computed the straightforward way:
    a frozenset intersection for every comb entry, every entry sorted by
    (size, level positions), and a certificate and atom for every violation
    before the list is truncated."""
    level = enumerate_level(d)
    atoms = {node: frozenset(ci.atom_names(ci.set_of(node))) for node in level}
    if cap is None:
        cap = max(k, 2 * d, 8)

    def intersections(table):
        out = []
        for mask, ia, ib in zip(table.masks, table.a, table.b):
            if ia < 0:
                out.append(atoms[level[mask.bit_length() - 1]])
            else:
                out.append(out[ia] & out[ib])
        return out

    def folded(table, wanted):
        # The checked combs: the wanted ones plus the parts they are built from.
        keep = [False] * len(table)
        for pos in range(len(table) - 1, -1, -1):
            if wanted(table.sizes[pos]) or keep[pos]:
                keep[pos] = True
                if table.a[pos] >= 0:
                    keep[table.a[pos]] = keep[table.b[pos]] = True
        return keep

    violations = []
    up_cls = CombClass("up", m)
    up_table = comb_entries(d, up_cls, max(k, 1))
    up_inters = intersections(up_table)
    for pos in reference_comb_order(up_table, range(len(up_table))):
        if up_table.sizes[pos] == k and up_inters[pos]:
            nodes = frozenset(mask_nodes(up_table.masks[pos], level))
            violations.append(Violation(INCONSISTENCY, tuple(sorted(nodes)),
                                        is_comb(nodes, up_cls), min(up_inters[pos])))

    cons_cls = CombClass("wide-right", n, reading) if strong else CombClass("right", n)
    cons_table = comb_entries(d, cons_cls, cap)
    cons_inters = intersections(cons_table)
    if n is OMEGA and cons_cls.reading == RECURSIVE:
        target = min(cap, 2 ** d)
        checked = folded(cons_table, lambda size: size == target)
    else:
        checked = [True] * len(cons_table)
    for pos in reference_comb_order(cons_table, range(len(cons_table))):
        if checked[pos] and not cons_inters[pos]:
            nodes = frozenset(mask_nodes(cons_table.masks[pos], level))
            violations.append(Violation(CONSISTENCY, tuple(sorted(nodes)),
                                        is_comb(nodes, cons_cls)))
    return Report(ok=not violations, cap=cap, truncated=cap < 2 ** d,
                  violations=tuple(violations[:max_violations]),
                  violations_truncated=len(violations) > max_violations).to_json()


def reference_weave_witness(d, k, m, n, genuine_k=False):
    """weave_witness built the straightforward way: each comb as a sorted
    tuple of nodes, one set of atom names per node, and the names packed
    into masks by SetSystem."""
    from math import comb as binom

    if not isinstance(k, int) or k < 2:
        raise ArgumentError(f"k must be an integer >= 2, got {k!r}")
    level = enumerate_level(d)
    table = comb_entries(d, wide_right(n), max_size=len(level))
    atom_sets = [tuple(mask_nodes(mask, level)) for mask in table.masks]
    if genuine_k:
        extra_total = sum(binom(len(level), size) for size in range(1, k))
        if len(atom_sets) + extra_total > errors.BUDGET:
            raise ResourceError(f"witness universe would have {len(atom_sets) + extra_total} "
                                f"atoms, over the limit {errors.BUDGET}")
        for size in range(1, k):
            atom_sets.extend(combinations(sorted(level), size))
    atom_sets = sorted(set(atom_sets))
    names = ["{" + ",".join(map(encode, group)) + "}" for group in atom_sets]
    member = {node: set() for node in level}
    for name, group in zip(names, atom_sets):
        for node in group:
            member[node].add(name)
    return SetSystem(names, member)


def reference_chains(s, max_size, strong=True):
    """The chains (strict chains unless strong) of the s x s square with at
    most max_size points, grown one point at a time from every start and
    then sorted by size and lexicographically."""
    points = grid_points(s)
    if strong:
        def step_ok(p, q):
            return product_leq(p, q) and p != q
    else:
        step_ok = strictly_below
    out = []
    stack = [((pt,), idx) for idx, pt in enumerate(points)]
    while stack:
        chain, last_idx = stack.pop()
        out.append(chain)
        if len(chain) == max_size:
            continue
        for idx in range(last_idx + 1, len(points)):
            if step_ok(chain[-1], points[idx]):
                stack.append((chain + (points[idx],), idx))
    out.sort(key=lambda c: (len(c), c))
    return out


def reference_check_grid(ci, s, k, strong=False, cap=None, max_violations=10):
    """check_grid's report computed the straightforward way: every k-subset
    of the square filtered for antichains, every chain of the square listed
    and sorted first, and each family's intersection taken from scratch
    through `consistent`."""
    if cap is None:
        cap = max(k, 2 * s, 8)
    violations = []
    for combo in combinations(grid_points(s), k):
        if is_antichain(combo) and ci.consistent(combo):
            violations.append(Violation(INCONSISTENCY, combo, Structure("antichain"),
                                        ci.common_atom(combo)))
    structure = "chain" if strong else "strict-chain"
    for fam in reference_chains(s, cap, strong):
        if not ci.consistent(fam):
            violations.append(Violation(CONSISTENCY, fam, Structure(structure)))
    return Report(ok=not violations, cap=cap, truncated=cap < 2 * s - 1,
                  violations=tuple(violations[:max_violations]),
                  violations_truncated=len(violations) > max_violations).to_json()


def reference_check_graph_pattern(ci, graph, cap=None, max_violations=10):
    """check_graph_pattern's report computed the straightforward way: every
    vertex subset by size, its first edge found by a scan and its
    consistency asked from scratch."""
    from math import comb as binom

    cap = graph.n if cap is None else min(cap, graph.n)
    total = sum(binom(graph.n, size) for size in range(1, cap + 1))
    if total > errors.BUDGET:
        raise ResourceError(
            f"graph pattern check would scan {total} subsets, over the limit {errors.BUDGET}")
    masks = graph.adjacency_masks()
    violations = []
    for size in range(1, cap + 1):
        for combo in combinations(range(graph.n), size):
            edge, seen = None, 0
            for v in combo:
                if masks[v] & seen:
                    edge = ((masks[v] & seen).bit_length() - 1, v)
                    break
                seen |= 1 << v
            is_consistent = ci.consistent(combo)
            if edge is None and not is_consistent:
                violations.append(Violation(CONSISTENCY, combo, Structure("independent")))
            elif edge is not None and is_consistent:
                violations.append(Violation(INCONSISTENCY, combo,
                                            Structure("edge", edge),
                                            ci.common_atom(combo)))
    return Report(ok=not violations, cap=cap, truncated=cap < graph.n,
                  violations=tuple(violations[:max_violations]),
                  violations_truncated=len(violations) > max_violations).to_json()


def reference_maximal(families, points, fits):
    """The families that no outside point fits, tested point by point."""
    out = []
    for fam in families:
        fam_set = set(fam)
        if any(pt not in fam_set and fits(fam, pt) for pt in points):
            continue
        out.append(fam)
    return out


def reference_grid_witness(s, k, strong=False):
    """grid_witness built with the point-by-point maximality test."""
    if not isinstance(k, int) or k < 2:
        raise ArgumentError(f"k must be an integer >= 2, got {k!r}")
    points = grid_points(s)
    if strong:
        base = reference_chains(s, 2 * s - 1)

        def fits(fam, pt):
            return all(comparable(pt, q) for q in fam)
    else:
        base = reference_chains(s, s, strong=False)

        def fits(fam, pt):
            return all(strictly_below(pt, q) or strictly_below(q, pt) for q in fam)

    maximal = reference_maximal(base, points, fits)
    names = ["{" + ";".join(f"{i},{j}" for i, j in fam) + "}" for fam in maximal]
    family = {pt: {name for name, fam in zip(names, maximal) if pt in fam}
              for pt in points}
    return SetSystem(sorted(names), family)


def reference_maximal_independent_sets(n, masks):
    """The maximal independent sets found by scanning every vertex subset."""
    if n > 20:
        raise ResourceError(f"maximal independent set scan limited to 20 vertices, got {n}")
    out = []
    for subset in range(1, 1 << n):
        members = [v for v in range(n) if (subset >> v) & 1]
        if any(masks[v] & subset for v in members):
            continue
        if any(not (subset >> v) & 1 and not (masks[v] & subset) for v in range(n)):
            continue
        out.append(tuple(members))
    return sorted(out)


def reference_graph_witness(graph):
    """graph_witness(materialize=True) built from the scan over every vertex
    subset, each vertex tested against every maximal independent set."""
    mis = reference_maximal_independent_sets(graph.n, graph.adjacency_masks())
    names = ["{" + ",".join(map(str, sorted(group))) + "}" for group in mis]
    family = {v: {name for name, group in zip(names, mis) if v in group}
              for v in range(graph.n)}
    return SetSystem(sorted(names), family)


def reference_realizable(template):
    """realizable by its definition: unrealizable iff some k-subset of a
    must-k-inconsist group lies in a must-consist set; otherwise atom c{i}
    for the i-th must-consist set, given to each index it holds."""
    for group in template.must_k_inconsist:
        for sub in combinations(sorted(group, key=repr), template.k):
            if any(frozenset(sub) <= cset for cset in template.must_consist):
                return None
    names = [f"c{i}" for i in range(len(template.must_consist))]
    family = {index: {names[i] for i, cset in enumerate(template.must_consist) if index in cset}
              for index in template.indices}
    return SetSystem(names, family)


def reference_atom_names(system, mask):
    """`SetSystem.atom_names` by one `compress` over the whole universe."""
    names = compress(system.universe, bin(mask)[:1:-1].encode().translate(_DIGIT_TO_BYTE))
    return list(names) if system._in_order else sorted(names)


def assignment_oracle_slow(template, atoms: int) -> bool:
    """Plain nested-loop version of :func:`assignment_oracle` (cross-check)."""
    indices = sorted(template.indices, key=repr)
    count = len(indices)
    for assignment in range(1 << (atoms * count)):
        sets = {index: (assignment >> (atoms * i)) & ((1 << atoms) - 1)
                for i, index in enumerate(indices)}

        def family_consistent(family):
            acc = (1 << atoms) - 1
            for index in family:
                acc &= sets[index]
            return bool(acc) or not family

        if not all(family_consistent(c) for c in template.must_consist):
            continue
        bad = False
        for group in template.must_k_inconsist:
            if len(group) < template.k:
                continue
            for sub in combinations(sorted(group, key=repr), template.k):
                if family_consistent(sub):
                    bad = True
                    break
            if bad:
                break
        if not bad:
            return True
    return False


def reference_triangle_p_predicate(length):
    """The p side's predicate of `triangle_free_demo` by its definition: a
    family is consistent when no edge of the demo graph, from the whole edge
    list, has both ends among the family's endpoints."""
    edges = list(demo_edges(length))

    def p_predicate(family):
        endpoints = {(side, t) for t in family for side in ("u", "v")}
        return not any(a in endpoints and b in endpoints for a, b in edges)

    return p_predicate


def materialized(value):
    """`value` with every iterator in it, at any depth, drawn into a list:
    the plain data that a lazy `SetSystem.to_json()` stands for."""
    if isinstance(value, dict):
        return {key: materialized(item) for key, item in value.items()}
    if isinstance(value, (list, Iterator)):
        return [materialized(item) for item in value]
    return value


def random_set_system(indices, rng, atoms=4):
    """Seeded arbitrary small set system over the given index list."""
    universe = [f"a{i}" for i in range(atoms)]
    family = {index: {u for u in universe if rng.random() < 0.55}
              for index in indices}
    return SetSystem(universe, family)


def reference_from_json(payload, index_decoder):
    """`SetSystem.from_json` the sequential way: each entry is checked and
    then packed by name lookups in the whole universe's index, in family
    order, so the first failing entry raises."""
    if not isinstance(payload, dict):
        raise ParseError(f"set system must be a JSON object, got {type(payload).__name__}")
    for key in ("universe", "family"):
        if not isinstance(payload.get(key), list):
            raise ParseError(f"set system needs a {key!r} list")
    try:
        system = SetSystem(payload["universe"], {})
    except TypeError:
        pos, atom = next((pos, atom) for pos, atom in enumerate(payload["universe"])
                         if isinstance(atom, (list, dict)))
        raise ParseError(f"universe[{pos}] must be a JSON scalar, got {atom!r}") from None
    first = type(system.universe[0]) if system.universe else str
    if len(set(map(type, system.universe))) > 1:
        pos, atom = next((pos, atom) for pos, atom in enumerate(system.universe)
                         if type(atom) is not first)
        raise ParseError(f"universe[{pos}] must have the type of universe[0] "
                         f"({first.__name__}), got {atom!r}")
    atom_id = {name: i for i, name in enumerate(system.universe)}
    family = {}
    for pos, entry in enumerate(payload["family"]):
        if not isinstance(entry, dict) or "index" not in entry:
            raise ParseError(f"family[{pos}] must be an object with an 'index'")
        atoms = entry.get("set")
        if isinstance(atoms, _FoldedAtoms):
            atoms = str(atoms).split(_FoldedAtoms.SEPARATOR)
        elif not isinstance(atoms, list):
            raise ParseError(f"family[{pos}] needs a 'set' list")
        try:
            index = index_decoder(entry["index"])
        except (ParseError, ValueError, TypeError) as err:
            raise ParseError(f"family[{pos}]: bad index {entry['index']!r}: {err}") from None
        if index in family:
            raise ArgumentError(f"family[{pos}]: duplicate index {entry['index']!r}")
        if first is not str:
            for atom in atoms:
                if type(atom) is not first:
                    raise ParseError(f"family[{pos}]: atom {atom!r} must have the type "
                                     f"of the universe's atoms ({first.__name__})")
        bits = bytearray(len(system.universe))
        for atom in atoms:
            try:
                bits[atom_id[atom]] = 1
            except (KeyError, TypeError):
                raise ArgumentError(f"family[{pos}]: atom {atom!r} is not in the universe") \
                    from None
        family[index] = int(bits[::-1].translate(bytes.maketrans(b"\x00\x01", b"01")) or b"0", 2)
    return system._with_masks(family)


def induced_p4_oracle(graph):
    """Definition-direct induced-path search: try every ordered 4-tuple."""
    n = graph.n
    for quad in combinations(range(n), 4):
        for order in _orderings(quad):
            a, b, c, d = order
            wanted = {(min(a, b), max(a, b)), (min(b, c), max(b, c)),
                      (min(c, d), max(c, d))}
            actual = {(min(u, v), max(u, v))
                      for u, v in combinations(quad, 2) if graph.has_edge(u, v)}
            if actual == wanted:
                return order
    return None


def least_induced_p4(graph):
    """The lexicographically least (a, b, c, d) spanning an induced path
    a-b-c-d, by trying every ordered 4-tuple in lexicographic order."""
    from itertools import permutations

    from comblab.cographs import P4Certificate

    edge = graph.has_edge
    for a, b, c, d in permutations(range(graph.n), 4):
        if edge(a, b) and edge(b, c) and edge(c, d) and not (
                edge(a, c) or edge(a, d) or edge(b, d)):
            return P4Certificate(a, b, c, d)
    return None


def _orderings(quad):
    from itertools import permutations

    seen = set()
    for perm in permutations(quad):
        if perm[0] > perm[3]:
            perm = tuple(reversed(perm))
        if perm not in seen:
            seen.add(perm)
            yield perm


def random_graph(n, p, rng):
    from comblab.cographs import Graph

    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def small_graphs(max_n):
    """Every labelled graph on at most max_n vertices, by vertex count."""
    from comblab.cographs import Graph

    graphs = []
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        graphs += [Graph(n, [pair for bit, pair in enumerate(pairs) if chosen >> bit & 1])
                   for chosen in range(1 << len(pairs))]
    return graphs


def downward_closed(ci, indices):
    """Whether every subfamily of a consistent family is consistent, over
    every family of the indices: each consistent family F must stay
    consistent when any one x in F is taken out.  Families are visited by
    size, so the verdict on each F - {x} is already known."""
    indices = list(indices)
    verdicts = {(): ci.consistent(())}
    for size in range(1, len(indices) + 1):
        for family in combinations(indices, size):
            verdicts[family] = ok = ci.consistent(family)
            if ok and not all(verdicts[family[:i] + family[i + 1:]] for i in range(size)):
                return False
    return True


def random_subsystem_mutations(system, rng, count):
    """Deterministic stream of (index, atom) single-deletion mutations."""
    picks = []
    indices = sorted(system.family, key=repr)
    for _ in range(count):
        index = rng.choice(indices)
        atoms = system.atom_names(system.set_of(index))
        if not atoms:
            continue
        picks.append((index, rng.choice(atoms)))
    return picks


def with_shared_atom(system, indices):
    """Copy of a set system with one fresh atom added to the given indices."""
    fam = {index: set(system.atom_names(system.set_of(index)))
           for index in system.family}
    for index in indices:
        fam[index].add("shared-extra")
    return SetSystem(sorted(system.universe) + ["shared-extra"], fam)


def all_small_cotrees(max_leaves):
    """Every alternating cotree on leaf sets 0..k-1 for k <= max_leaves."""
    from comblab.cographs import join, leaf, union

    def trees(labels, op):
        if len(labels) == 1:
            yield leaf(labels[0])
            return
        other = "union" if op == "join" else "join"
        for partition in ordered_partitions(labels):
            if len(partition) == 1:
                continue
            for kids in child_products(partition, other):
                yield (union if op == "union" else join)(*kids)

    def ordered_partitions(labels):
        if not labels:
            yield []
            return
        first = labels[0]
        rest = labels[1:]
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                block = [first] + list(extra)
                remaining = [x for x in rest if x not in extra]
                for tail in ordered_partitions(remaining):
                    yield [block] + tail

    def child_products(partition, op):
        if not partition:
            yield []
            return
        for head in trees(partition[0], op):
            for tail in child_products(partition[1:], op):
                yield [head] + tail

    for k in range(1, max_leaves + 1):
        labels = list(range(k))
        if k == 1:
            yield leaf(0)
            continue
        for top in ("union", "join"):
            yield from trees(labels, top)
