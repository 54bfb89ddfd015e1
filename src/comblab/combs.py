"""Split relations on node sets, comb recognition, and comb enumeration.

Three branch relations are distinguished by which coordinate of the first
differing letter varies (narrow-below, narrow-left, wide-left), and three comb
classes are built inductively from them (up, right, wide-right).  Recognition
recurses at the meet of the set: in any inductive build of A∪B the outermost
split happens exactly at the longest common prefix, so grouping by the letter
there is forced and recognition is deterministic.

The wide class carries a reading switch.  Under the "recursive" reading the
two parts of a wide combination may themselves be wide; under the "literal"
reading they must be narrow right-combs.  Only the recursive reading makes
wide-right-omega-combs coincide with the up-pair-free sets, which is what the
rest of the library relies on, so it is the default.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import errors
from .errors import ArgumentError, require_within
from .index_core import Node, common_prefix, encode, enumerate_level, level_size

UP_ONE = "UpOne"
WIDE_RIGHT_ONE = "WideRightOne"

RECURSIVE = "recursive"
LITERAL = "literal"


class _Omega:
    """Explicit no-size-bound marker for comb parameters."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"


OMEGA = _Omega()


def size_within(size: int, bound) -> bool:
    return bound is OMEGA or size <= bound


def _check_bound(n) -> None:
    if n is OMEGA:
        return
    if not isinstance(n, int) or n < 0:
        raise ArgumentError(f"comb size bound must be a nonnegative integer or OMEGA, got {n!r}")


NARROW_BELOW = "narrow-below"
NARROW_LEFT = "narrow-left"
WIDE_LEFT = "wide-left"


class SplitKind(NamedTuple):
    kind: str
    bit: Optional[int] = None

    def to_json(self):
        if self.kind == WIDE_LEFT:
            return {"kind": self.kind}
        key = "i" if self.kind == NARROW_BELOW else "j"
        return {"kind": self.kind, key: self.bit}


def narrow_below(i: int) -> SplitKind:
    return SplitKind(NARROW_BELOW, i)


def narrow_left(j: int) -> SplitKind:
    return SplitKind(NARROW_LEFT, j)


def wide_left() -> SplitKind:
    return SplitKind(WIDE_LEFT)


class SplitWitness(NamedTuple):
    tau: Node
    kind: SplitKind

    def to_json(self):
        return {"tau": encode(self.tau), "kind": self.kind.to_json()}


class _CombClassFields(NamedTuple):
    kind: str  # "up" | "right" | "wide-right"
    n: object  # int or OMEGA
    reading: str = RECURSIVE


class CombClass(_CombClassFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, kind: str, n, reading: str = RECURSIVE):
        if kind not in ("up", "right", "wide-right"):
            raise ArgumentError(f"unknown comb kind {kind!r}")
        _check_bound(n)
        if reading not in (RECURSIVE, LITERAL):
            raise ArgumentError(f"unknown wide reading {reading!r}")
        if kind != "wide-right" and reading != RECURSIVE:
            raise ArgumentError("the reading switch only applies to wide-right combs")
        return super().__new__(cls, kind, n, reading)

    def __repr__(self):
        if self.kind == "wide-right":
            return f"CombClass(wide-right, n={self.n!r}, {self.reading})"
        return f"CombClass({self.kind}, n={self.n!r})"


def up(n) -> CombClass:
    return CombClass("up", n)


def right(n) -> CombClass:
    return CombClass("right", n)


def wide_right(n, reading: str = RECURSIVE) -> CombClass:
    return CombClass("wide-right", n, reading)


# The comb grammar: each class splits by one branch relation, whose rules are
# keyed by the letter a lower part starts with: (the lower part's letters, the
# upper part's letters, the split kind), every lower letter below every upper.
_SPLIT_RULES = {
    "up": {"0": ("0", "1", narrow_below(0)), "2": ("2", "3", narrow_below(1))},
    "right": {"0": ("0", "2", narrow_left(0)), "1": ("1", "3", narrow_left(1))},
    "wide-right": dict.fromkeys("01", ("01", "23", wide_left())),
}


def _part_class(cls: CombClass) -> CombClass:
    if cls.kind == "wide-right" and cls.reading == LITERAL:
        return CombClass("right", cls.n)
    return cls


# The (lower, upper) first letters of the parts of each class's top splits.
_BLOCK_PAIRS = {kind: [(key, letter) for key, (_, upper, _) in rules.items() for letter in upper]
                for kind, rules in _SPLIT_RULES.items()}
# The rules of each class and of its parts, by reading, then kind.
_CLASS_RULES = {reading: {c.kind: (_SPLIT_RULES[c.kind], _SPLIT_RULES[_part_class(c).kind])
                          for c in (up(1), right(1), wide_right(1), wide_right(1, LITERAL))
                          if c.reading == reading} for reading in (RECURSIVE, LITERAL)}


class CombCertificate(NamedTuple):
    """Binary proof tree: leaves are singletons, internal vertices carry the
    split witness and the size of the lower/left part."""

    nodes: frozenset
    split: Optional[SplitWitness] = None
    a_size: Optional[int] = None
    a: Optional["CombCertificate"] = None
    b: Optional["CombCertificate"] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def to_json(self):
        if self.is_leaf:
            (node,) = self.nodes
            return {"leaf": encode(node)}
        return {
            "split": self.split.to_json(),
            "a_size": self.a_size,
            "A": self.a.to_json(),
            "B": self.b.to_json(),
        }


def _require_nodes(nodes: Iterable) -> None:
    for node in nodes:
        if not isinstance(node, Node):
            raise ArgumentError(f"expected Node, got {type(node).__name__}")


def split_relation(a_set: Iterable[Node], b_set: Iterable[Node]) -> tuple[SplitWitness, ...]:
    """All branch relations that hold between A and B, as witnesses.

    A narrow-left witness is always accompanied by a wide-left one; a
    narrow-below witness excludes wide-left.  Returns () when no relation
    holds.
    """
    a_nodes, b_nodes = list(a_set), list(b_set)
    nodes = a_nodes + b_nodes
    _require_nodes(nodes)
    if not a_nodes or not b_nodes:
        raise ArgumentError("split_relation requires nonempty sets")
    if not set(a_nodes).isdisjoint(b_nodes):
        raise ArgumentError("split_relation requires disjoint sets")
    prefix = common_prefix(nodes)
    p = len(prefix)
    if any(len(s) <= p for s in nodes):
        return ()
    a_letters = {s[p] for s in a_nodes}
    b_letters = {s[p] for s in b_nodes}
    tau = Node._raw(prefix)
    # A rule stands under each of its lower letters: any of A's letters finds it.
    found = []
    for rules in _SPLIT_RULES.values():
        rule = rules.get(min(a_letters))
        if rule and a_letters.issubset(rule[0]) and b_letters.issubset(rule[1]):
            found.append(SplitWitness(tau, rule[2]))
    return tuple(found)


def classify_pair(a: Node, b: Node) -> str:
    """Dichotomy for a pair of distinct equal-depth nodes.

    UpOne when the letters at the meet position share their first coordinate,
    WideRightOne otherwise; exactly one verdict applies.
    """
    if not isinstance(a, Node) or not isinstance(b, Node):
        _require_nodes((a, b))
    if len(a) != len(b):
        raise ArgumentError("classify_pair requires nodes of equal depth")
    if a == b:
        raise ArgumentError("classify_pair requires distinct nodes")
    i = 0
    while a[i] == b[i]:
        i += 1
    return UP_ONE if (a[i] < "2") == (b[i] < "2") else WIDE_RIGHT_ONE


def is_comb(nodes: Iterable[Node], cls: CombClass) -> Optional[CombCertificate]:
    """Recognize membership in a comb class; returns a certificate or None."""
    # In order as plain text, which for nodes of one depth is their own
    # order.  Callers often pass them so, and checking is cheaper than
    # sorting, which makes a plain string of every node.
    nodes = tuple(nodes)
    if not all(map(str.__lt__, nodes, nodes[1:])):
        nodes = sorted(set(nodes), key=str)
    if not nodes:
        raise ArgumentError("is_comb requires a nonempty set")
    if [*map(len, nodes)].count(len(nodes[0])) != len(nodes):
        raise ArgumentError("is_comb requires nodes of equal depth")
    rules, part_rules = _CLASS_RULES[cls.reading][cls.kind]
    return _recognize(nodes, rules, part_rules, cls.n)


def _recognize(nodes: Sequence, rules: dict, part_rules: dict, n) -> Optional[CombCertificate]:
    # The nodes are sorted, distinct and of one depth, so they share their
    # first p letters and their letters at p ascend: each part is a slice,
    # cut where the upper letters begin.
    if len(nodes) == 1:
        return CombCertificate(frozenset(nodes))
    lo, hi = nodes[0], nodes[-1]
    p = 0
    while lo[p] == hi[p]:
        p += 1
    rule = rules.get(lo[p])
    if rule is None or hi[p] not in rule[1]:
        return None
    lower, upper, kind = rule
    cut = bisect_left(nodes, upper[0], key=itemgetter(p))
    # A letter between the two parts, or a lower part over the bound.
    if nodes[cut - 1][p] not in lower or n is not OMEGA and cut > n:
        return None
    cert_a = _recognize(nodes[:cut], part_rules, part_rules, n)
    cert_b = cert_a and _recognize(nodes[cut:], part_rules, part_rules, n)
    if cert_b is None:
        return None
    return CombCertificate(cert_a.nodes | cert_b.nodes, SplitWitness(Node._raw(lo[:p]), kind),
                           cut, cert_a, cert_b)


def is_binary_right_comb(strings: Iterable[str], n) -> bool:
    """Right-comb recognition for finite sets of binary strings.

    Each word is read as a node of one level: bit b as the letter (b, 0),
    padded with the letter (0, 1) to the longest word's length.  The level's
    right combs are then exactly the binary ones: a word that ends at the
    meet is shorter than another, so it reads the padding letter there,
    which no right split admits beside a bit's letter.
    """
    _check_bound(n)
    items = set()
    for s in strings:
        if not isinstance(s, str) or s.strip("01"):
            raise ArgumentError(f"binary string expected, got {s!r}")
        items.add(s)
    if not items:
        raise ArgumentError("is_binary_right_comb requires a nonempty set")
    width = max(map(len, items))
    return is_comb([s.replace("1", "2").ljust(width, "1") for s in items], right(n)) is not None


# --- enumeration ---------------------------------------------------------
#
# Combs of depth d are generated structurally: a comb either lives inside a
# single first-letter block (a prepended depth-(d-1) comb) or its top split is
# at position 0, in which case the two parts are block-confined combs of the
# part class.  The combs of one enumeration form a CombTable of parallel
# columns, and each comb links to the table positions of its two parts, so
# downstream checkers can fold set intersections bottom-up.
#
# A comb is stored as a bitmask over the node indices of its level (node at
# level position i is bit i).  Prepending a block letter is then a shift and
# a cross union is a bitwise or, so each block and each pairing of parts is
# one list comprehension over a column.


class CombTable:
    """The combs of one enumeration, as parallel columns indexed by position.

    masks[i] is comb i as a node-index bitmask within enumerate_level(d),
    sizes[i] its node count, and a[i], b[i] the positions of its two parts,
    both -1 for a single node.  Parts precede the combs built from them.
    """

    __slots__ = ("masks", "sizes", "a", "b")

    def __init__(self, masks: list, sizes: list, a: list, b: list):
        self.masks, self.sizes, self.a, self.b = masks, sizes, a, b

    def __len__(self) -> int:
        return len(self.masks)


def mask_indices(mask: int) -> tuple:
    """Level positions selected by a comb mask, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


def mask_nodes(mask: int, level) -> list:
    """Level nodes selected by a comb mask, ascending."""
    return [level[i] for i in mask_indices(mask)]


def comb_entries(d: int, cls: CombClass, max_size: int) -> CombTable:
    """All combs of the class at depth d with size <= max_size, with structure.

    The table is topologically ordered: parts precede the compounds built
    from them.  The level's nodes, then the estimated combs, are held to the
    budget before anything is built.  Each call builds a new table, which
    lives as long as its caller keeps it.
    """
    level_size(d)
    if max_size < 1:
        raise ArgumentError("max_size must be at least 1")
    counts, cut = _count_vector(d, cls, max_size, errors.BUDGET + 1)
    require_within(sum(count for _, count in counts),
                   f"enumeration would produce{' at least' if cut else ''}", "combs")
    table = _build_entries(d, cls, max_size, {})
    if cls.kind == "wide-right" and cls.reading == LITERAL:
        table = _dedupe_entries(table)
    return table


def _build_entries(d: int, cls: CombClass, max_size: int, cache: dict) -> CombTable:
    key = (d, cls, max_size)
    if key in cache:
        return cache[key]
    if d == 0:
        cache[key] = CombTable([1], [1], [-1], [-1])
        return cache[key]
    part_cls = _part_class(cls)
    sub = _build_entries(d - 1, cls, max_size, cache)
    part = sub if part_cls is cls else _build_entries(d - 1, part_cls, max_size, cache)
    block_width = 4 ** (d - 1)
    masks: list[int] = []
    sizes: list[int] = []
    a: list[int] = []
    b: list[int] = []

    def prepended(source: CombTable) -> dict:
        # Prepending block letter L shifts every node index by L * 4^(d-1).
        # Returns each block's table offset and masks, by letter.
        blocks = {}
        for block, digit in enumerate("0123"):
            offset = len(masks)
            shift = block * block_width
            blocks[digit] = (offset, [m << shift for m in source.masks])
            masks.extend(blocks[digit][1])
            sizes.extend(source.sizes)
            a.extend([i + offset if i >= 0 else -1 for i in source.a])
            b.extend([i + offset if i >= 0 else -1 for i in source.b])
        return blocks

    # Combs confined to one block.  For the literal reading the block contents
    # recurse through the *wide* class (nested wide splits sit below a block),
    # so `sub` is correct here.
    blocks = prepended(sub)
    # Cross-block combs: the top split is at position 0 and the two parts are
    # block-confined combs of the part class.
    part_blocks = blocks if part_cls is cls else prepended(part)
    part_sizes = part.sizes
    fitting = {}  # budget -> the part positions of size <= budget, ascending
    for a_digit, b_digit in _BLOCK_PAIRS[cls.kind]:
        a_off, a_masks = part_blocks[a_digit]
        b_off, b_masks = part_blocks[b_digit]
        for ia, size_a in enumerate(part_sizes):
            budget = max_size - size_a
            if budget < 1 or not size_within(size_a, cls.n):
                continue
            if budget not in fitting:
                fitting[budget] = [ib for ib, size_b in enumerate(part_sizes) if size_b <= budget]
            fits = fitting[budget]
            mask_a = a_masks[ia]
            masks.extend([mask_a | b_masks[ib] for ib in fits])
            sizes.extend([size_a + part_sizes[ib] for ib in fits])
            a.extend([a_off + ia] * len(fits))
            b.extend([b_off + ib for ib in fits])
    result = CombTable(masks, sizes, a, b)
    cache[key] = result
    return result


def _dedupe_entries(table: CombTable) -> CombTable:
    # The literal wide class overlaps with the narrow right class, so the two
    # generation routes can produce the same node set; keep the first.
    seen: dict[int, int] = {}
    remap: list[int] = []
    out = CombTable([], [], [], [])
    for mask, size, ia, ib in zip(table.masks, table.sizes, table.a, table.b):
        if mask in seen:
            remap.append(seen[mask])
            continue
        seen[mask] = len(out)
        remap.append(len(out))
        out.masks.append(mask)
        out.sizes.append(size)
        out.a.append(remap[ia] if ia >= 0 else -1)
        out.b.append(remap[ib] if ib >= 0 else -1)
    return out


@lru_cache(maxsize=None)
def _count_vector(d: int, cls: CombClass, max_size: int, cap: int) -> tuple:
    """(counts, cut): counts holds (s, number of size-s combs of the class at
    depth d) for each size s <= max_size that has combs, ascending.  Counting
    stops at `cap`: each count is held to it, and a level whose block combs
    alone pass it skips its cross-block combs.  cut tells whether counting
    stopped, which makes the sum of the counts a lower bound that passes the
    cap.  So the counts stay small however deep the level, and only sizes
    that have combs are paired."""
    if d == 0:
        return ((1, 1),), False
    sub, cut = _count_vector(d - 1, cls, max_size, cap)
    part_cls = _part_class(cls)
    part, part_cut = (sub, cut) if part_cls is cls else \
        _count_vector(d - 1, part_cls, max_size, cap)
    out = {size: 4 * count for size, count in sub}
    if sum(out.values()) > cap:  # past the cap on the block combs alone
        cut = True
    else:
        pairings = len(_BLOCK_PAIRS[cls.kind])
        for sa, ca in part:
            if not size_within(sa, cls.n):
                continue
            for sb, cb in part:
                if sa + sb > max_size:
                    break
                out[sa + sb] = out.get(sa + sb, 0) + pairings * ca * cb
        # Literal-wide overlaps with narrow-right; this overestimates, which
        # is fine for a resource guard.
        cut = cut or part_cut or max(out.values()) > cap
    return tuple((size, min(out[size], cap)) for size in sorted(out)), cut


# _REVERSED_BITS[value] is `value` with its eight bits in reverse order.
_REVERSED_BITS = bytes(int(f"{value:08b}"[::-1], 2) for value in range(256))


def name_keys(masks: Iterable[int], width: int) -> Iterator[bytes]:
    """Each mask's name-order key: `width` bytes with level position i at bit
    7 - i % 8 of byte i // 8.  A comb's name lists its nodes in level order
    and sorts after its own extensions, so keys sorted descending give the
    combs in name order, and equal keys are equal masks."""
    return map(bytes.translate, map(int.to_bytes, masks, repeat(width), repeat("little")),
               repeat(_REVERSED_BITS))


def comb_order(table: CombTable, positions: Sequence[int]) -> list[int]:
    """The given table positions by size, then by ascending level positions.

    Of two combs of one size, the one holding the lowest level position
    where they differ comes first.  That position is the highest where their
    masks differ once the bits are reversed over a common width, so within a
    size the order is that of the reversed masks, descending: the order of
    the weave witness's name-order keys, compared as bytes in C.
    """
    mask_at = table.masks.__getitem__
    width = (max(map(mask_at, positions), default=0).bit_length() + 7) // 8
    keys = list(name_keys(map(mask_at, positions), width))
    by_key = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    del keys  # freed before the size sort, which holds two lists of positions
    return sorted(map(positions.__getitem__, by_key), key=table.sizes.__getitem__)


def enumerate_combs(d: int, cls: CombClass, max_size: int) -> Iterator[frozenset]:
    """Yield every comb of the class at depth d with size <= max_size.

    Deterministic order: by size, then lexicographically by the sorted node
    encodings.  No duplicates.
    """
    table = comb_entries(d, cls, max_size)
    level = enumerate_level(d)
    for pos in comb_order(table, range(len(table))):
        yield frozenset(mask_nodes(table.masks[pos], level))
