"""Cograph algebra and recognition, the up-pair comb graph, and the two
bridges between vertex-indexed patterns and level-indexed families.

Recognition uses the complement-connectivity recursion: a graph with at
least two vertices is a cograph exactly when it or its complement is
disconnected, recursing into the pieces.  Graphs carry adjacency bitmasks so
recognition and induced-path search stay fast on exhaustive sweeps.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Optional, Union

from . import combs as combs_mod
from . import patterns as patterns_mod
from .combs import mask_indices
from .errors import (ArgumentError, ParseError, is_int_pair, json_fields,
                     require_within)
from .index_core import Node, enumerate_level, level_size

UNION = "union"
JOIN = "join"
LEAF = "leaf"


class Graph:
    """Finite simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_masks", "_edges")

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise ArgumentError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        for edge in edges:
            u, v = edge
            if not (0 <= u < n and 0 <= v < n):
                raise ArgumentError(f"edge {edge!r} out of range for n={n}")
            if u == v:
                raise ArgumentError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self._masks = tuple(masks)
        self._edges = None

    @classmethod
    def from_masks(cls, n: int, masks) -> "Graph":
        graph = cls.__new__(cls)
        graph.n = n
        graph._masks = tuple(masks)
        graph._edges = None
        return graph

    def adjacency_masks(self) -> tuple:
        return self._masks

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            # Each edge once, from its lower end: u's neighbours above u.
            self._edges = frozenset((u, v) for u, mask in enumerate(self._masks)
                                    for v in mask_indices(mask >> (u + 1) << (u + 1)))
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._masks[u] >> v) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}

    @classmethod
    def from_json(cls, payload: dict) -> "Graph":
        """Read {"n": n, "edges": [[u, v], ...]}; a malformed value raises
        ParseError naming where it is."""
        n, edges = json_fields(payload, "graph", n=int, edges=list)
        require_within(n, "graph has", "vertices")  # before the masks are allocated
        for pos, edge in enumerate(edges):
            if not is_int_pair(edge):
                raise ParseError(f"edges[{pos}] must be a pair of vertices, got {edge!r}")
        return cls(n, [tuple(e) for e in edges])

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in range(self.n):
            lines.append(f"  {v};")
        for u, v in sorted(self.edges):
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class P4Certificate(NamedTuple):
    """Vertices of an induced four-path a-b-c-d."""

    a: int
    b: int
    c: int
    d: int

    def to_json(self) -> list:
        return list(self)


class _CotreeFields(NamedTuple):
    nodes: tuple


class Cotree(_CotreeFields):
    """Decomposition tree: leaves carry vertices, internal vertices combine
    children by disjoint union or join.  It is held flat in post-order,
    `(LEAF, vertex)` at a leaf and `(op, child count)` after the children's
    entries, so equality, hashing and `repr` are a tuple's."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, nodes: tuple):
        if not isinstance(nodes, tuple):
            raise ArgumentError(f"cotree nodes must be a tuple, got {type(nodes).__name__}")
        finished = 0  # subtrees complete so far
        for pos, entry in enumerate(nodes):
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ArgumentError(f"cotree entry {pos} is not an (op, value) pair: {entry!r}")
            op, value = entry
            if op == LEAF:
                if type(value) is not int:
                    raise ArgumentError("a leaf carries exactly one vertex")
                finished += 1
                continue
            _check_inner(op, value)
            if value > finished:
                raise ArgumentError(f"cotree entry {pos}: a {op} node of {value} "
                                    f"children follows {finished} subtrees")
            finished -= value - 1
        if finished != 1:
            raise ArgumentError(f"a cotree needs exactly one root, got {finished}")
        return super().__new__(cls, nodes)

    def fold(self, at_leaf, at_inner):
        """The tree's value bottom-up: at_leaf(vertex) at a leaf, and
        at_inner(op, values of the children in order) at an inner vertex."""
        values = []
        for op, value in self.nodes:
            if op == LEAF:
                values.append(at_leaf(value))
            else:
                kids = values[-value:]
                del values[-value:]
                values.append(at_inner(op, kids))
        return values[0]

    def leaves(self) -> list[int]:
        return [value for op, value in self.nodes if op == LEAF]

    def to_json(self):
        return self.fold(lambda v: {"op": LEAF, "v": v},
                         lambda op, kids: {"op": op, "children": kids})

    @classmethod
    def from_json(cls, payload) -> "Cotree":
        """Read {"op": "leaf", "v": v} or {"op": ..., "children": [...]}; a
        malformed value raises ParseError naming where it is."""
        nodes = []

        def read(node, where: str) -> None:
            (op,) = json_fields(node, where, op=str)
            if op == LEAF:
                (vertex,) = json_fields(node, where, v=int)
                if vertex < 0:
                    raise ParseError(f"{where}: leaf vertex must be nonnegative, got {vertex}")
                nodes.append((LEAF, vertex))
                return
            (children,) = json_fields(node, where, children=list)
            for pos, child in enumerate(children):
                read(child, f"{where}.children[{pos}]")
            try:
                _check_inner(op, len(children))
            except ArgumentError as err:
                raise ParseError(f"{where}: {err}") from None
            nodes.append((op, len(children)))

        read(payload, "cotree")
        return cls(tuple(nodes))

    def to_dot(self) -> str:
        """Vertices are numbered in pre-order, and the edge to a child follows
        the child's subtree."""
        lines = ["digraph T {"]
        count = 0
        # One fold pairs each vertex's label with its children, then an
        # explicit stack walks them in pre-order.
        top = self.fold(lambda v: (f"v{v}", ()), lambda op, kids: (op, kids))
        stack = [(top, None)]  # ((label, children), parent's number), or an edge's line
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                lines.append(item)
                continue
            (label, kids), parent = item
            lines.append(f'  n{count} [label="{label}"];')
            if parent is not None:
                stack.append(f"  n{parent} -> n{count};")
            stack.extend((kid, count) for kid in reversed(kids))
            count += 1
        lines.append("}")
        return "\n".join(lines) + "\n"


def _check_inner(op, count) -> None:
    """An inner vertex's op is union or join, over at least two children."""
    if op not in (UNION, JOIN):
        raise ArgumentError(f"unknown cotree op {op!r}")
    if type(count) is not int or count < 2:
        raise ArgumentError(f"a {op} node needs at least two children")


def leaf(vertex: int) -> Cotree:
    return Cotree(((LEAF, vertex),))


def union(*children: Cotree) -> Cotree:
    return Cotree(tuple(e for child in children for e in child.nodes) + ((UNION, len(children)),))


def join(*children: Cotree) -> Cotree:
    return Cotree(tuple(e for child in children for e in child.nodes) + ((JOIN, len(children)),))


def _distinct_leaves(tree: Cotree) -> list[int]:
    """The tree's leaf vertices; a vertex on two leaves is an ArgumentError."""
    labels = tree.leaves()
    if len(set(labels)) != len(labels):
        dup = next(v for v in labels if labels.count(v) > 1)
        raise ArgumentError(f"duplicate leaf vertex {dup}")
    return labels


def eval_cotree(tree: Cotree) -> Graph:
    """The graph a cotree denotes: leaves are the vertices, and two leaves are
    adjacent exactly when their lowest common ancestor is a join.

    Leaf labels must be distinct and form 0..n-1 so the result is exact.
    """
    labels = _distinct_leaves(tree)
    n = len(labels)
    if set(labels) != set(range(n)):
        raise ArgumentError(f"leaf vertices must be 0..{n - 1}, got {sorted(labels)}")
    masks = [0] * n

    def below(op: str, kids: list) -> int:
        # kids are the vertex masks of the children's subtrees, disjoint.
        whole = sum(kids)
        if op == JOIN:
            for kid in kids:
                others = whole & ~kid
                for v in mask_indices(kid):
                    masks[v] |= others
        return whole

    tree.fold(lambda v: 1 << v, below)
    return Graph.from_masks(n, masks)


def find_p4(graph: Graph) -> Optional[P4Certificate]:
    """Lexicographically first induced four-path (a, b, c, d), or None.

    A graph has no induced four-path exactly when it is a cograph (Corneil,
    Lerchs and Stewart Burlingham, 1981), so the cotree decomposition settles
    the answer, and the scan for the first path runs only when it fails.
    """
    if graph.n == 0 or _decompose(graph) is not None:
        return None
    return _first_p4(graph)


def _first_p4(graph: Graph) -> Optional[P4Certificate]:
    """The scan behind `find_p4`: for ascending a, b in N(a), c in N(b)
    avoiding a, the least d in N(c) \\ (N(a) | N(b)) completes an induced
    path; the first hit is the least tuple because both orientations of every
    path are scanned.  The self-checks compare it with the decomposition.
    """
    masks = graph._masks
    for a in range(graph.n):
        ma = masks[a]
        bb = ma
        while bb:
            b_bit = bb & -bb
            bb ^= b_bit
            b = b_bit.bit_length() - 1
            mb = masks[b]
            cc = mb & ~ma & ~(1 << a)
            while cc:
                c_bit = cc & -cc
                cc ^= c_bit
                c = c_bit.bit_length() - 1
                dd = masks[c] & ~mb & ~ma
                if dd:
                    d = (dd & -dd).bit_length() - 1
                    return P4Certificate(a, b, c, d)
    return None


def _components(vertices: int, masks, complement: bool = False) -> list[int]:
    """Connected components of the induced subgraph on a vertex mask, or of
    its complement."""
    flip = -1 if complement else 0  # mask ^ -1 == ~mask, the non-neighbours
    out = []
    remaining = vertices
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            f = frontier
            while f:
                v_bit = f & -f
                f ^= v_bit
                grow |= masks[v_bit.bit_length() - 1] ^ flip
            grow &= vertices & ~comp
            comp |= grow
            frontier = grow
        out.append(comp)
        remaining &= ~comp
    return out


def cotree_of(graph: Graph) -> Union[Cotree, P4Certificate]:
    """Recognize a cograph, returning its cotree, or certify failure with an
    induced four-path (the lexicographically first one)."""
    if graph.n == 0:
        raise ArgumentError("cotree_of requires a nonempty graph")
    tree = _decompose(graph)
    if tree is not None:
        return tree
    cert = _first_p4(graph)
    if cert is None:
        raise ArgumentError("recognition failed but no induced four-path exists")
    return cert


def _decompose(graph: Graph) -> Optional[Cotree]:
    """The cotree of a nonempty graph, or None when it is not a cograph.

    A multi-vertex cograph is disconnected or co-disconnected; its pieces are
    split in turn from an explicit stack, so a deep cotree needs no deep
    recursion.  A split pushes its `(op, piece count)` entry under its
    pieces, so the entries leave the stack in post-order.  A piece that
    neither splits holds an induced four-path.
    """
    masks = graph._masks
    nodes = []
    stack = [(1 << graph.n) - 1]  # vertex masks, and the entries of split sets
    while stack:
        vertices = stack.pop()
        if isinstance(vertices, tuple):
            nodes.append(vertices)
        elif vertices & (vertices - 1) == 0:
            nodes.append((LEAF, vertices.bit_length() - 1))
        else:
            comps = _components(vertices, masks)
            op = UNION
            if len(comps) == 1:
                comps = _components(vertices, masks, complement=True)
                if len(comps) == 1:
                    return None
                op = JOIN
            stack.append((op, len(comps)))
            stack.extend(reversed(comps))
    return Cotree(tuple(nodes))


def comb_graph(d: int) -> tuple[Graph, Cotree]:
    """Graph on level d whose edges are the UpOne pairs, with its cotree.

    Vertices follow the level enumeration; the tree branches on the first
    letter, joining over the second coordinate inside each half and uniting
    the two halves; the graph is the one the tree denotes.
    """
    n = level_size(d)
    require_within(n * (n - 1) // 2, f"comb graph at depth {d} would have", "vertex pairs")

    def build(prefix: str) -> Cotree:
        if len(prefix) == d:
            return leaf(int(prefix, 4) if prefix else 0)
        return union(
            join(build(prefix + "0"), build(prefix + "1")),
            join(build(prefix + "2"), build(prefix + "3")),
        )

    tree = build("")
    return eval_cotree(tree), tree


_PAD = "0"  # letter (0,0)
_UNION_MARK = "2"  # letter (1,0)
_JOIN_MARK = "1"  # letter (0,1)


def embed_cograph(tree: Cotree) -> tuple[int, dict]:
    """Injective map of the cotree's vertices into a level such that edges are
    exactly the UpOne pairs.

    Children are embedded recursively, right-padded with the letter (0,0) to a
    common depth (padding never moves a pair's meet), and a discriminator
    letter is prepended: (0,0)/(1,0) for a union, (0,0)/(0,1) for a join.
    Multi-child vertices fold left, so child j > 0 of an m-child vertex gets
    the letters pad * (m-1-j) + discriminator, and child 0 gets pad * (m-1).
    A vertex's node is its ancestors' letters, outermost first, right-padded
    to the longest: the root's depth.  Leaf vertices must be distinct.
    """
    _distinct_leaves(tree)
    # Backwards, the post-order meets each vertex before its children, the
    # last child first; each entry takes its letters from the top of `above`.
    above = [""]
    placed = []
    for op, value in reversed(tree.nodes):
        letters = above.pop()
        if op == LEAF:
            placed.append((value, letters))
            continue
        second = _UNION_MARK if op == UNION else _JOIN_MARK
        above.append(letters + _PAD * (value - 1))
        above.extend(letters + _PAD * (value - 1 - j) + second for j in range(1, value))
    depth = max(len(letters) for _, letters in placed)
    return depth, {v: Node(letters.ljust(depth, _PAD)) for v, letters in reversed(placed)}


def graph_to_weave_oracle(pattern_ci, d: int):
    """Reindex a comb-graph pattern by the vertex-to-node correspondence.

    The input must pass the graph pattern check against the comb graph; the
    output then satisfies the strong weave conditions with k=2 and unbounded
    comb parameters, since up-combs are cliques and wide-right combs are
    independent sets of the comb graph.
    """
    graph, _ = comb_graph(d)
    report = patterns_mod.check_graph_pattern(pattern_ci, graph)
    if not report.ok:
        first = report.violations[0].to_json() if report.violations else None
        raise ArgumentError(f"input is not a comb-graph pattern: {first}")
    level = enumerate_level(d)
    mapping = {node: v for v, node in enumerate(level)}
    return pattern_ci.reindexed(mapping)


def weave_to_graph_oracle(ci, tree: Cotree):
    """Pull a level-indexed family back onto a cotree's vertices.

    Each vertex v maps to its embedding node right-padded to the family's
    depth; edges become up-pairs (inconsistent) and non-edges wide pairs
    (consistent), so the result is a pattern for the cotree's graph.
    """
    d = patterns_mod.level_depth(ci)
    embed_depth, vmap = embed_cograph(tree)
    if embed_depth > d:
        raise ArgumentError(
            f"cotree needs depth {embed_depth}, family only has depth {d}")
    report = patterns_mod.check_weave(ci, d, 2, 1, combs_mod.OMEGA, strong=True)
    if not report.ok:
        first = report.violations[0].to_json() if report.violations else None
        raise ArgumentError(f"input fails the strong weave conditions: {first}")
    mapping = {v: Node(node + _PAD * (d - embed_depth))
               for v, node in vmap.items()}
    return ci.reindexed(mapping)


def random_cotree(n_leaves: int, seed: int) -> Cotree:
    """Seeded random cotree with alternating labels on leaves 0..n_leaves-1."""
    if n_leaves < 1:
        raise ArgumentError(f"need at least one leaf, got {n_leaves}")
    rng = random.Random(seed)
    labels = list(range(n_leaves))
    rng.shuffle(labels)
    nodes = []

    def build(items: list[int], op: str) -> None:
        if len(items) == 1:
            nodes.append((LEAF, items[0]))
            return
        parts = min(len(items), rng.randint(2, 3))
        cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
        other = UNION if op == JOIN else JOIN
        prev = 0
        for cut in cuts + [len(items)]:
            build(items[prev:cut], other)
            prev = cut
        nodes.append((op, parts))

    build(labels, rng.choice((UNION, JOIN)))
    return Cotree(tuple(nodes))
