"""Definition-faithful brute-force oracles.

These deliberately avoid the insights the fast paths rely on: comb
membership builds the class from its inductive definition, deciding each
candidate pair of parts by the branch relations, which try every candidate
split prefix; template feasibility sweeps the full assignment space.  They
exist to be slow and obviously right, so the fast implementations can be
checked against them.  The one shortcut is an index that offers the closure
only the part pairs a relation could hold on (see `_file_parts`); every
offered pair is still decided by the relation itself.
"""

from __future__ import annotations

from itertools import combinations

from .combs import CombClass, LITERAL, size_within
from .errors import ArgumentError
from .index_core import common_prefix, enumerate_level


def _candidate_prefixes(nodes: frozenset) -> list[str]:
    shared = common_prefix(nodes)
    return [shared[:i] for i in range(len(shared) + 1)]


def _extends(node: str, prefix: str, letter_digit: str) -> bool:
    want = prefix + letter_digit
    return node.startswith(want)


def narrowly_below(a_set: frozenset, b_set: frozenset) -> bool:
    for tau in _candidate_prefixes(a_set | b_set):
        for i in (0, 1):
            lo, hi = "02"[i], "13"[i]
            if all(_extends(n, tau, lo) for n in a_set) and \
                    all(_extends(n, tau, hi) for n in b_set):
                return True
    return False


def narrowly_left(a_set: frozenset, b_set: frozenset) -> bool:
    for tau in _candidate_prefixes(a_set | b_set):
        for j in (0, 1):
            lo, hi = "01"[j], "23"[j]
            if all(_extends(n, tau, lo) for n in a_set) and \
                    all(_extends(n, tau, hi) for n in b_set):
                return True
    return False


def widely_left(a_set: frozenset, b_set: frozenset) -> bool:
    for sigma in _candidate_prefixes(a_set | b_set):
        p = len(sigma)
        if all(len(n) > p for n in a_set | b_set) and \
                all(n.startswith(sigma) for n in a_set | b_set) and \
                all(n[p] in "01" for n in a_set) and \
                all(n[p] in "23" for n in b_set):
            return True
    return False


def build_tree_comb_oracle(nodes: frozenset, cls: CombClass, memo: dict = None) -> bool:
    """Membership in the comb class by its inductive definition, read as a
    least fixed point.

    At one level the class is the least family of node sets that holds the
    singletons and holds A | B for all disjoint members A, B of the part
    class with |A| within the class bound and the class's branch relation
    holding from A to B.  The closure is grown size by size up to len(nodes)
    and kept in `memo` under (cls, depth), so a query costs the closure of
    its whole level up to its size.  Candidate pairs come from an index of
    the parts by split prefix and letters (`_file_parts`), which makes the
    closures of depth 3 affordable up to size 4.
    """
    if not nodes:
        raise ArgumentError("oracle requires a nonempty set")
    depths = {node.depth for node in nodes}
    if len(depths) != 1:
        raise ArgumentError("oracle requires nodes of equal depth")
    if memo is None:
        memo = {}
    (depth,) = depths
    return frozenset(nodes) in _closure(cls, depth, len(nodes), memo)[len(nodes)]


# The letters a part may carry at the split position, per class kind: the
# A-part's letter set, then the B-part's letter sets the relation admits.
_ADMITTED = {
    "up": {"0": ("1",), "2": ("3",)},
    "right": {"0": ("2",), "1": ("3",)},
    "wide-right": dict.fromkeys(("0", "1", "01"), ("2", "3", "23")),
}


def _file_parts(parts: set, depth: int) -> dict:
    """The parts filed under (tau, the letters their nodes carry at |tau|),
    once for each prefix tau of their meet that is shorter than `depth`.

    Every branch relation that holds from A to B holds at a prefix tau that
    both meets extend, with all of A's letters at |tau| on one side and all
    of B's on the other, so the pair meets under the keys of that tau.
    """
    filed = {}
    for part in parts:
        meet = common_prefix(part)
        for p in range(min(len(meet), depth - 1) + 1):
            letters = meet[p] if p < len(meet) else "".join(sorted({n[p] for n in part}))
            filed.setdefault((meet[:p], letters), []).append(part)
    return filed


def _filed(cls: CombClass, depth: int, parts: list, size: int, memo: dict) -> dict:
    """`_file_parts` of the class's members of one size, kept in `memo`."""
    filed = memo.setdefault(("filed", cls, depth), [])
    while len(filed) <= size:
        filed.append(_file_parts(parts[len(filed)], depth))
    return filed[size]


def _closure(cls: CombClass, depth: int, size: int, memo: dict) -> list[set]:
    """The members of the class at one depth, by size: entry m holds those of
    size m, for every m <= size."""
    levels = memo.get((cls, depth))
    if levels is None:
        levels = memo[(cls, depth)] = [set(), {frozenset((node,)) for node in
                                               enumerate_level(depth)}]
    if len(levels) > size:
        return levels
    if cls.kind == "up":
        relation, part_cls = narrowly_below, cls
    elif cls.kind == "right":
        relation, part_cls = narrowly_left, cls
    else:
        relation = widely_left
        part_cls = CombClass("right", cls.n) if cls.reading == LITERAL else cls
    parts = levels if part_cls == cls else _closure(part_cls, depth, size - 1, memo)
    admitted = _ADMITTED[cls.kind]
    while len(levels) <= size:
        m = len(levels)
        members = set()
        for a_size in range(1, m):
            if not size_within(a_size, cls.n):
                continue
            b_filed = _filed(part_cls, depth, parts, m - a_size, memo)
            for (tau, letters), a_parts in _filed(part_cls, depth, parts, a_size, memo).items():
                for b_letters in admitted.get(letters, ()):
                    for b_set in b_filed.get((tau, b_letters), ()):
                        for a_set in a_parts:
                            if a_set.isdisjoint(b_set) and relation(a_set, b_set):
                                members.add(a_set | b_set)
        levels.append(members)
    return levels


def binary_right_comb_oracle(strings: frozenset, n, memo: dict = None) -> bool:
    """Binary right-comb membership by searching every inductive build."""
    if memo is None:
        memo = {}
    key = (strings, n if isinstance(n, int) else "omega")
    if key in memo:
        return memo[key]
    if len(strings) == 1:
        memo[key] = True
        return True
    items = sorted(strings)
    rest = items[1:]
    result = False
    for take in range(1 << len(rest)):
        a_set = frozenset([items[0]] + [s for i, s in enumerate(rest) if (take >> i) & 1])
        b_set = strings - a_set
        if not b_set:
            continue
        for first, second in ((a_set, b_set), (b_set, a_set)):
            if not size_within(len(first), n):
                continue
            sigma = common_prefix(sorted(first | second))
            p = len(sigma)
            if all(len(s) > p and s[p] == "0" for s in first) and \
                    all(len(s) > p and s[p] == "1" for s in second) and \
                    binary_right_comb_oracle(first, n, memo) and \
                    binary_right_comb_oracle(second, n, memo):
                result = True
                break
        if result:
            break
    memo[key] = result
    return result


def assignment_oracle(template, atoms: int) -> bool:
    """Exhaustive feasibility over all assignments of `atoms` atoms to the
    template's indices, evaluated bit-parallel over the assignment space.

    Assignment id layout: index i owns bits [atoms*i, atoms*(i+1)); bit a of
    that nibble means atom a belongs to b_i.  Every constraint becomes a mask
    over all 2^(atoms*|indices|) assignments and feasibility is a nonzero AND.
    """
    indices = sorted(template.indices, key=repr)
    slot = {index: i for i, index in enumerate(indices)}
    total_bits = atoms * len(indices)
    space = 1 << (1 << total_bits)  # 2^(assignment count) minus 1, below
    full = space - 1

    def bit_mask(position: int) -> int:
        # Assignments whose bit `position` is set: blocks of 2^position ones.
        block = 1 << position
        ones = (1 << block) - 1
        period = ones << block
        out = 0
        shift = 0
        width = 1 << total_bits
        while shift < width:
            out |= period << shift
            shift += 2 * block
        return out & full

    membership = {}

    def member(index, atom) -> int:
        key = (slot[index], atom)
        if key not in membership:
            membership[key] = bit_mask(atoms * slot[index] + atom)
        return membership[key]

    def consistent_mask(family) -> int:
        if not family:
            return full  # the empty family is consistent by convention
        out = 0
        for atom in range(atoms):
            acc = full
            for index in family:
                acc &= member(index, atom)
                if not acc:
                    break
            out |= acc
        return out

    feasible = full
    for cset in template.must_consist:
        feasible &= consistent_mask(cset)
        if not feasible:
            return False
    for group in template.must_k_inconsist:
        if len(group) < template.k:
            continue
        for sub in combinations(sorted(group, key=repr), template.k):
            feasible &= full ^ consistent_mask(sub)
            if not feasible:
                return False
    return feasible != 0
