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
from .combs import UP_ONE, mask_indices
from .errors import (ArgumentError, ParseError, is_int_pair, json_fields,
                     require_within)
from .index_core import EMPTY, Letter, Node, enumerate_level, level_size

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
            out = []
            for u in range(self.n):
                mask = self._masks[u] >> (u + 1)
                v = u + 1
                while mask:
                    if mask & 1:
                        out.append((u, v))
                    mask >>= 1
                    v += 1
            self._edges = frozenset(out)
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
    op: str
    vertex: Optional[int] = None
    children: tuple = ()


class Cotree(_CotreeFields):
    """Decomposition tree: leaves carry vertices, internal vertices combine
    children by disjoint union or join."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, op: str, vertex: Optional[int] = None, children: tuple = ()):
        if op == LEAF:
            if vertex is None or children:
                raise ArgumentError("a leaf carries exactly one vertex")
        elif op in (UNION, JOIN):
            if len(children) < 2:
                raise ArgumentError(f"a {op} node needs at least two children")
        else:
            raise ArgumentError(f"unknown cotree op {op!r}")
        return super().__new__(cls, op, vertex, children)

    def __hash__(self):  # a tuple's own hash recurses in C with no depth check
        return hash((self.op, self.vertex, self.children))

    def fold(self, at_leaf, at_inner):
        """The tree's value bottom-up: at_leaf(vertex) at a leaf, and
        at_inner(op, values of the children in order) at an inner vertex.
        Post-order from an explicit stack, so a deep tree needs no deep
        recursion."""
        values = []
        stack = [(self, False)]
        while stack:
            tree, expanded = stack.pop()
            if tree.op == LEAF:
                values.append(at_leaf(tree.vertex))
            elif expanded:
                split = len(values) - len(tree.children)
                kids = values[split:]
                del values[split:]
                values.append(at_inner(tree.op, kids))
            else:
                stack.append((tree, True))
                stack.extend((child, False) for child in reversed(tree.children))
        return values[0]

    def leaves(self) -> list[int]:
        out = []
        stack = [self]
        while stack:
            tree = stack.pop()
            if tree.op == LEAF:
                out.append(tree.vertex)
            else:
                stack.extend(reversed(tree.children))
        return out

    def to_json(self):
        return self.fold(lambda v: {"op": LEAF, "v": v},
                         lambda op, kids: {"op": op, "children": kids})

    @classmethod
    def from_json(cls, payload) -> "Cotree":
        """Read {"op": "leaf", "v": v} or {"op": ..., "children": [...]}; a
        malformed value raises ParseError naming where it is."""
        def read(node, where: str) -> "Cotree":
            (op,) = json_fields(node, where, op=str)
            if op == LEAF:
                (vertex,) = json_fields(node, where, v=int)
                if vertex < 0:
                    raise ParseError(f"{where}: leaf vertex must be nonnegative, got {vertex}")
                return cls(LEAF, vertex=vertex)
            (children,) = json_fields(node, where, children=list)
            kids = tuple(read(child, f"{where}.children[{pos}]")
                         for pos, child in enumerate(children))
            try:
                return cls(op, children=kids)
            except ArgumentError as err:
                raise ParseError(f"{where}: {err}") from None

        return read(payload, "cotree")

    def to_dot(self) -> str:
        """Vertices are numbered in pre-order, and the edge to a child follows
        the child's subtree."""
        lines = ["digraph T {"]
        count = 0
        stack = [(self, None)]  # (tree, parent's number), or an edge's line
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                lines.append(item)
                continue
            tree, parent = item
            label = f"v{tree.vertex}" if tree.op == LEAF else tree.op
            lines.append(f'  n{count} [label="{label}"];')
            if parent is not None:
                stack.append(f"  n{parent} -> n{count};")
            stack.extend((child, count) for child in reversed(tree.children))
            count += 1
        lines.append("}")
        return "\n".join(lines) + "\n"

    def normalized(self) -> "Cotree":
        """Flatten nested same-op children so union/join levels alternate."""
        def flatten(op: str, kids: list) -> "Cotree":
            flat = []
            for child in kids:
                flat.extend(child.children if child.op == op else (child,))
            return Cotree(op, children=tuple(flat))

        return self.fold(leaf, flatten)


def leaf(vertex: int) -> Cotree:
    return Cotree(LEAF, vertex=vertex)


def union(*children: Cotree) -> Cotree:
    return Cotree(UNION, children=tuple(children))


def join(*children: Cotree) -> Cotree:
    return Cotree(JOIN, children=tuple(children))


def combine(op: str, g0: Graph, g1: Graph) -> Graph:
    """Disjoint union or join; the second graph's vertices shift by g0.n."""
    if op not in (UNION, JOIN):
        raise ArgumentError(f"unknown combine op {op!r}")
    n = g0.n + g1.n
    edges = list(g0.edges)
    edges.extend((u + g0.n, v + g0.n) for u, v in g1.edges)
    if op == JOIN:
        edges.extend((u, v + g0.n) for u in range(g0.n) for v in range(g1.n))
    return Graph(n, edges)


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
    recursion, and the tree is assembled bottom-up once every piece has split.
    A piece that neither splits holds an induced four-path.
    """
    masks = graph._masks
    full = (1 << graph.n) - 1
    splits = []  # (vertices, op, pieces), each piece after the set it splits
    stack = [full]
    while stack:
        vertices = stack.pop()
        if vertices & (vertices - 1) == 0:
            splits.append((vertices, LEAF, ()))
            continue
        comps = _components(vertices, masks)
        op = UNION
        if len(comps) == 1:
            comps = _components(vertices, masks, complement=True)
            if len(comps) == 1:
                return None
            op = JOIN
        splits.append((vertices, op, comps))
        stack.extend(comps)
    built = {}
    for vertices, op, comps in reversed(splits):
        if op == LEAF:
            built[vertices] = leaf(vertices.bit_length() - 1)
        else:
            built[vertices] = Cotree(op, children=tuple(map(built.pop, comps)))
    return built[full]


def comb_graph(d: int) -> tuple[Graph, Cotree]:
    """Graph on level d whose edges are the UpOne pairs, with its cotree.

    Vertices follow the level enumeration; the tree branches on the first
    letter, joining over the second coordinate inside each half and uniting
    the two halves.
    """
    n = level_size(d)
    require_within(n * (n - 1) // 2, f"comb graph at depth {d} would classify", "pairs")
    level = enumerate_level(d)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if combs_mod.classify_pair(level[i], level[j]) == UP_ONE:
                edges.append((i, j))
    graph = Graph(n, edges)

    def build(prefix: str) -> Cotree:
        if len(prefix) == d:
            return leaf(int(prefix, 4) if prefix else 0)
        return union(
            join(build(prefix + "0"), build(prefix + "1")),
            join(build(prefix + "2"), build(prefix + "3")),
        )

    return graph, build("")


def embed_cograph(tree: Cotree) -> tuple[int, dict]:
    """Injective map of the cotree's vertices into a level such that edges are
    exactly the UpOne pairs.

    Children are embedded recursively, right-padded with the letter (0,0) to a
    common depth (padding never moves a pair's meet), and a discriminator
    letter is prepended: (0,0)/(1,0) for a union, (0,0)/(0,1) for a join.
    Multi-child vertices fold left.  Leaf vertices must be distinct.
    """
    _distinct_leaves(tree)
    pad = Letter(0, 0).digit

    def lift(mapping: dict, letter: str, depth: int, to_depth: int) -> dict:
        return {v: Node(letter + node.digits + pad * (to_depth - depth))
                for v, node in mapping.items()}

    def embed(op: str, kids: list) -> tuple[int, dict]:
        second = Letter(1, 0) if op == UNION else Letter(0, 1)
        depth, mapping = kids[0]
        for child_depth, child_map in kids[1:]:
            common = max(depth, child_depth)
            mapping = lift(mapping, pad, depth, common) | \
                lift(child_map, second.digit, child_depth, common)
            depth = common + 1
        return depth, mapping

    return tree.fold(lambda v: (0, {v: EMPTY}), embed)


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
    pad = Letter(0, 0).digit
    mapping = {v: Node(node.digits + pad * (d - embed_depth))
               for v, node in vmap.items()}
    return ci.reindexed(mapping)


def random_cotree(n_leaves: int, seed: int) -> Cotree:
    """Seeded random cotree with alternating labels on leaves 0..n_leaves-1."""
    if n_leaves < 1:
        raise ArgumentError(f"need at least one leaf, got {n_leaves}")
    rng = random.Random(seed)
    labels = list(range(n_leaves))
    rng.shuffle(labels)

    def build(items: list[int], op: str) -> Cotree:
        if len(items) == 1:
            return leaf(items[0])
        parts = min(len(items), rng.randint(2, 3))
        cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
        groups = []
        prev = 0
        for cut in cuts + [len(items)]:
            groups.append(items[prev:cut])
            prev = cut
        other = UNION if op == JOIN else JOIN
        return Cotree(op, children=tuple(build(g, other) for g in groups))

    top = rng.choice((UNION, JOIN))
    if n_leaves == 1:
        return leaf(labels[0])
    return build(labels, top)
