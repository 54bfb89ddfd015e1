"""Definition-faithful brute-force oracles.

These deliberately avoid the insights the fast paths rely on: comb
recognition searches every bipartition and every candidate split prefix, and
template feasibility sweeps the full assignment space.  They exist to be slow
and obviously right, so the fast implementations can be checked against them.
"""

from __future__ import annotations

from itertools import combinations

from .combs import CombClass, LITERAL, size_within
from .errors import ArgumentError
from .index_core import common_prefix


def _candidate_prefixes(digit_strings: list[str]) -> list[str]:
    shared = common_prefix(digit_strings)
    return [shared[:i] for i in range(len(shared) + 1)]


def _extends(digits: str, prefix: str, letter_digit: str) -> bool:
    want = prefix + letter_digit
    return digits.startswith(want)


def narrowly_below(a_set: frozenset, b_set: frozenset) -> bool:
    all_digits = [n.digits for n in a_set] + [n.digits for n in b_set]
    for tau in _candidate_prefixes(all_digits):
        for i in (0, 1):
            lo, hi = "02"[i], "13"[i]
            if all(_extends(n.digits, tau, lo) for n in a_set) and \
                    all(_extends(n.digits, tau, hi) for n in b_set):
                return True
    return False


def narrowly_left(a_set: frozenset, b_set: frozenset) -> bool:
    all_digits = [n.digits for n in a_set] + [n.digits for n in b_set]
    for tau in _candidate_prefixes(all_digits):
        for j in (0, 1):
            lo, hi = "01"[j], "23"[j]
            if all(_extends(n.digits, tau, lo) for n in a_set) and \
                    all(_extends(n.digits, tau, hi) for n in b_set):
                return True
    return False


def widely_left(a_set: frozenset, b_set: frozenset) -> bool:
    all_digits = [n.digits for n in a_set] + [n.digits for n in b_set]
    for sigma in _candidate_prefixes(all_digits):
        p = len(sigma)
        if all(len(n.digits) > p for n in a_set | b_set) and \
                all(n.digits.startswith(sigma) for n in a_set | b_set) and \
                all(n.digits[p] in "01" for n in a_set) and \
                all(n.digits[p] in "23" for n in b_set):
            return True
    return False


def build_tree_comb_oracle(nodes: frozenset, cls: CombClass, memo: dict = None) -> bool:
    """Membership by searching every inductive build: try all bipartitions
    A, B, all part builds, and the branch relation of the class."""
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
                    build_tree_comb_oracle(first, part_cls, memo) and \
                    build_tree_comb_oracle(second, part_cls, memo):
                result = True
                break
        if result:
            break
    memo[key] = result
    return result


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
