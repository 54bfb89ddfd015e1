"""Constructive maps between configurations.

A letter (i,j) is the digit 2i+j and a node its digit string, so each map
below is written on digits.

- strongify: interleave a marker letter so narrow-left splits become wide,
  turning plain weave witnesses into strong ones by pullback.
- truncation pullback: reindex along any prefix-respecting map.
- grid embedding: a closed-form map into the square under which up-pairs land
  incomparable and wide-right pairs land strictly comparable, so grid families
  pull back to strong weave families.
- epsilon scaling: symbolic a - b*eps coordinates, compared by the product
  order helpers of `patterns`; ties in a coordinate survive scaling, which is
  recorded as a known limitation rather than repaired.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import ArgumentError, ParseError, is_int_pair, json_fields
from .index_core import Node, decode, encode, enumerate_level
from .patterns import level_depth

GridPoint = tuple  # (x, y) under the product order


class EpsCoord:
    """The value a - b*eps for an infinitesimal eps > 0.

    Ordered lexicographically with the epsilon part reversed: more epsilon
    subtracted means smaller.  With `<`, `<=` and equality defined, the
    product order helpers of `patterns` compare scaled points directly.
    Not a tuple: a tuple's own `>` and `>=` would disagree with the key, and
    `patterns.encode_index` would read the value as a grid point.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"EpsCoord(a={self.a!r}, b={self.b!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def key(self) -> tuple:
        return (self.a, -self.b)

    def __lt__(self, other: "EpsCoord") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "EpsCoord") -> bool:
        return self.key() <= other.key()

    def to_json(self) -> list:
        return [self.a, self.b]


class _IndexMapFields(NamedTuple):
    depth: int
    codomain: str  # "level" | "grid"
    mapping: dict


class IndexMap(_IndexMapFields):
    """A total injective reindexing of one level into nodes or grid points."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, depth: int, codomain: str, mapping: dict):
        level = enumerate_level(depth)
        missing = [node for node in level if node not in mapping]
        if missing:
            raise ArgumentError(f"index map is missing {encode(missing[0])}")
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise ArgumentError("index map must be injective")
        return super().__new__(cls, depth, codomain, mapping)

    def apply(self, node: Node):
        try:
            return self.mapping[node]
        except KeyError:
            raise ArgumentError(f"node {encode(node)} outside the map's domain")

    def to_json(self) -> dict:
        # json writes a node, a str subclass, as its text; `encode` copies it.
        def enc(target):
            if isinstance(target, Node):
                return target or encode(target)
            return list(target)

        pairs = [[node or encode(node), enc(self.mapping[node])]
                 for node in sorted(self.mapping)]
        return {"depth": self.depth, "codomain": self.codomain, "map": pairs}

    @classmethod
    def from_json(cls, payload: dict) -> "IndexMap":
        """Read {"depth": d, "codomain": ..., "map": [[source, target], ...]};
        a malformed value raises ParseError naming where it is."""
        depth, codomain, pairs = json_fields(payload, "index map",
                                             depth=int, codomain=str, map=list)
        if codomain not in ("level", "grid"):
            raise ParseError(f"index map codomain must be 'level' or 'grid', got {codomain!r}")
        mapping = {}
        for pos, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(f"map[{pos}] must be a [source, target] pair, got {pair!r}")
            source, target = pair
            if codomain == "grid" and not is_int_pair(target):
                raise ParseError(f"map[{pos}]: grid target {target!r} is not an integer pair")
            try:
                node = decode(source)
                target = decode(target) if codomain == "level" else tuple(target)
            except ParseError as err:
                raise ParseError(f"map[{pos}]: {err}") from None
            if node in mapping:
                raise ParseError(f"map[{pos}]: duplicate source {source!r}")
            mapping[node] = target
        return cls(depth, codomain, mapping)


# A letter (i,j) becomes (i,0)(i,j): as digits 2i+j, "0"->"00", "1"->"01",
# "2"->"22" and "3"->"23".
_STRONGIFY = str.maketrans({"0": "00", "1": "01", "2": "22", "3": "23"})


def strongify_index(d: int) -> IndexMap:
    """The depth-doubling map: position 2t records the first coordinate of
    letter t (paired with 0), position 2t+1 records letter t itself.  Only
    level d is enumerated; the images at depth 2d are made one per node."""
    return IndexMap(d, "level", {node: Node._raw(node.translate(_STRONGIFY))
                                 for node in enumerate_level(d)})


def strongify_weave(ci):
    """Pull a family on level 2d back to level d along the strongify map.

    If the input satisfies the plain weave conditions, the output satisfies
    the strong ones: narrow-below splits are preserved and narrow-left splits
    become wide-left ones.
    """
    depth2 = level_depth(ci)
    if depth2 % 2:
        raise ArgumentError(f"expected an even depth, got {depth2}")
    d = depth2 // 2
    fmap = strongify_index(d)
    missing = [t for t in fmap.mapping.values() if t not in ci.indices]
    if missing:
        raise ArgumentError(f"family is missing image index {encode(missing[0])}")
    return ci.reindexed(fmap.mapping)


def pullback(ci, mapping: Union[IndexMap, dict]):
    """Reindex along a prefix-respecting map into a deeper family.

    Every source node must be an initial segment of its image; this is what
    keeps comb structure intact under the pullback.
    """
    table = mapping.mapping if isinstance(mapping, IndexMap) else dict(mapping)
    if not table:
        raise ArgumentError("pullback requires a nonempty map")
    depths = {node.depth for node in table}
    if len(depths) != 1:
        raise ArgumentError("pullback domain must be a single level")
    (d0,) = depths
    level = enumerate_level(d0)
    for node in level:
        if node not in table:
            raise ArgumentError(f"pullback map is missing {encode(node)}")
    for node, target in table.items():
        if not isinstance(target, Node) or not target.startswith(node):
            raise ArgumentError(
                f"prefix condition violated at {encode(node)}: image {encode(target) if isinstance(target, Node) else target!r}")
        if target not in ci.indices:
            raise ArgumentError(f"image index {encode(target)} is not in the family")
    return ci.reindexed(table)


# Offsets of the four first-letter blocks inside a box of side 4W: chosen so
# same-first-coordinate blocks sit crosswise (incomparable) and the
# first-coordinate-1 blocks dominate the first-coordinate-0 blocks in both
# axes.
BASE_OFFSETS = {
    "0": (0, 1),  # letter (0,0)
    "1": (1, 0),  # letter (0,1)
    "2": (2, 3),  # letter (1,0)
    "3": (3, 2),  # letter (1,1)
}


def grid_embed_index(d: int) -> IndexMap:
    """Closed-form embedding of level d into [0, 4^d)^2.

    At each letter the block offset is BASE_OFFSETS scaled by the remaining
    box width; up-pairs map to incomparable points and wide-right pairs to
    strictly comparable ones.
    """
    mapping = {}
    for node in enumerate_level(d):
        x = y = 0
        width = 4 ** (d - 1) if d else 1
        for ch in node:
            bx, by = BASE_OFFSETS[ch]
            x += bx * width
            y += by * width
            width //= 4
        mapping[node] = (x, y)
    return IndexMap(d, "grid", mapping)


def grid_to_weave(ci, d: int):
    """Pull a 4^d x 4^d grid family back onto level d along the embedding.

    A family passing the plain grid check pulls back to one passing the
    strong weave check with unbounded comb parameters: up-combs are pairwise
    incomparable images (antichains) and wide-right combs are pairwise
    strictly comparable images (strict chains).
    """
    if d < 0:
        raise ArgumentError(f"depth must be nonnegative, got {d}")
    side = 4 ** d
    # The size test first: a deep request must not build its square.
    if len(ci.indices) != side * side or \
            ci.indices != {(i, j) for i in range(side) for j in range(side)}:
        raise ArgumentError(f"family must be indexed by the full {side}x{side} square")
    fmap = grid_embed_index(d)
    return ci.reindexed(fmap.mapping)


def scale_point(point: GridPoint) -> tuple:
    """(i, j) as the symbolic pair ((1-eps)i, (1-eps)j)."""
    i, j = point
    return (EpsCoord(i, i), EpsCoord(j, j))


def epsilon_scale(ci):
    """Reindex a grid family by the symbolic scaling (i,j) -> ((1-eps)i, (1-eps)j).

    Antichains stay antichains and strict chains stay strict; a chain whose
    points have pairwise distinct coordinates on both axes becomes strict.  A
    chain with a tied coordinate keeps the tie, so it does not become strict;
    this limitation is deliberate and covered by tests.
    """
    mapping = {scale_point(pt): pt for pt in ci.indices}
    return ci.reindexed(mapping)
