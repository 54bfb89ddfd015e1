"""Finite index sequences over the four-letter alphabet {0,1}x{0,1}.

A Node is a finite word of letters (i,j) with i,j bits.  In the compact text
encoding each letter is the digit 2*i+j, and the empty node prints as "-".
All values here are immutable and safe to share across threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple

from . import errors
from .errors import ArgumentError, ParseError, require_within

_DIGITS = "0123"


class Letter(NamedTuple):
    first: int
    second: int

    @property
    def digit(self) -> str:
        return _DIGITS[2 * self.first + self.second]

    @classmethod
    def from_digit(cls, ch: str) -> "Letter":
        if ch not in _DIGITS:
            raise ParseError(f"invalid letter digit {ch!r}")
        c = int(ch)
        return _LETTERS[c]


#: The four letters, indexed by their digit value.
_LETTERS = tuple(Letter(i, j) for i in (0, 1) for j in (0, 1))
LETTERS = _LETTERS


class Node(str):
    """An element of the index tree: a finite sequence of letters.

    A node is its compact digit string: it equals and hashes as that text,
    and str's methods read its letters.  Nodes order by depth, then digits.
    The empty node is the empty, falsy string, so a node prints through
    :func:`encode`.
    """

    __slots__ = ()

    def __new__(cls, digits: str = ""):
        for pos, ch in enumerate(digits):
            if ch not in _DIGITS:
                raise ParseError(f"invalid letter digit {ch!r}", position=pos)
        return str.__new__(cls, digits)

    # Internal fast path: digits already validated.
    _raw = classmethod(str.__new__)

    @classmethod
    def from_letters(cls, letters: Iterable[Letter]) -> "Node":
        return cls._raw("".join(let.digit for let in letters))

    depth = property(len)

    def letter_at(self, i: int) -> Letter:
        if not 0 <= i < len(self):
            raise ArgumentError(f"position {i} out of range for node of depth {len(self)}")
        return _LETTERS[int(self[i])]

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(_LETTERS[int(ch)] for ch in self)

    def extend(self, letter: Letter) -> "Node":
        return Node._raw(self + letter.digit)

    def is_prefix_of(self, other: "Node") -> bool:
        return other.startswith(self)

    def _key(self) -> tuple:
        # As a plain str the digits compare as text, not through these methods.
        return len(self), str(self)

    def __lt__(self, other: "Node") -> bool:
        return self._key() < other._key() if isinstance(other, Node) else NotImplemented

    def __le__(self, other: "Node") -> bool:
        return self._key() <= other._key() if isinstance(other, Node) else NotImplemented

    def __gt__(self, other: "Node") -> bool:
        return self._key() > other._key() if isinstance(other, Node) else NotImplemented

    def __ge__(self, other: "Node") -> bool:
        return self._key() >= other._key() if isinstance(other, Node) else NotImplemented

    def __repr__(self) -> str:
        return f"Node({encode(self)!r})"


EMPTY = Node("")


def extend(node: Node, letter: Letter) -> Node:
    """Append one letter; the result has depth |node|+1."""
    return node.extend(letter)


def meet(a: Node, b: Node) -> Node:
    """Longest common prefix of two nodes."""
    return meet_all((a, b))


def meet_all(nodes: Iterable[Node]) -> Node:
    """Longest common prefix of a nonempty collection of nodes."""
    return Node._raw(common_prefix(nodes))


def common_prefix(words: Iterable[str]) -> str:
    """Longest common prefix of a nonempty collection of words, as a str."""
    # The common prefix of the lexicographic least and greatest words is that
    # of all.  Nodes order by depth first, so every word is read as a str.
    words = list(map(str, words))
    if not words:
        raise ArgumentError("meet of an empty collection is undefined")
    lo = min(words)
    hi = max(words)
    n = min(len(lo), len(hi))
    i = 0
    while i < n and lo[i] == hi[i]:
        i += 1
    return lo[:i]


@lru_cache(maxsize=32)
def _level_nodes(d: int) -> tuple[Node, ...]:
    return tuple(Node._raw("".join(p)) for p in product(_DIGITS, repeat=d))


def level_size(d: int) -> int:
    """4^d, the node count of level d, once it is within the budget.

    Past the budget's bit length 4^d is over the budget anyway, so a deeper
    level is refused on the power at that length, without computing its own.
    """
    if d < 0:
        raise ArgumentError(f"depth must be nonnegative, got {d}")
    counted = min(d, errors.BUDGET.bit_length())
    return require_within(4 ** counted, f"level {d} would have"
                          f"{' at least' if counted < d else ''}", "nodes")


def enumerate_level(d: int) -> tuple[Node, ...]:
    """All 4^d nodes of depth d, lexicographic by compact encoding; the node
    count is held to the budget before the level is built."""
    level_size(d)
    return _level_nodes(d)


def encode(node: Node) -> str:
    """Compact text encoding; the empty node encodes as "-"."""
    return str(node) or "-"


def decode(text: str) -> Node:
    """Inverse of :func:`encode`; raises ParseError with the offending position."""
    if not isinstance(text, str):
        raise ParseError(f"a node is written as a digit string, got {text!r}")
    if text == "-":
        return EMPTY
    if not text:
        raise ParseError("empty text; the empty node is written '-'", position=0)
    return Node(text)


def node_to_pairs(node: Node) -> list[list[int]]:
    """JSON form of a node: an array of [i, j] bit pairs."""
    return [[let.first, let.second] for let in node.letters]


def node_from_pairs(pairs: Iterable[Iterable[int]]) -> Node:
    letters = []
    for pos, pair in enumerate(pairs):
        pair = list(pair)
        if len(pair) != 2 or any(bit not in (0, 1) for bit in pair):
            raise ParseError(f"letter must be a pair of bits, got {pair!r}", position=pos)
        letters.append(Letter(pair[0], pair[1]))
    return Node.from_letters(letters)
