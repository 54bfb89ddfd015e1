"""Chains through a requirement poset meeting a list of dense sets.

This is the countable dense-set-meeting argument: requirements are scheduled
round-robin (which visits each one cofinally often), and each is met by a
breadth-first search through the extension relation, bounded by a horizon.
A requirement that cannot be met within the horizon produces an explicit
failure naming the requirement and the element where the search got stuck.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .errors import ArgumentError, ComblabError

DEFAULT_HORIZON = 10_000


class DensityError(ComblabError):
    """A promised-dense requirement could not be met within the horizon."""

    def __init__(self, requirement: str, stuck_at):
        super().__init__(
            f"requirement {requirement!r} not reachable from {stuck_at!r} within the horizon")
        self.requirement = requirement
        self.stuck_at = stuck_at


class RequirementPoset:
    """Extension structure: programmatic (an extension enumerator) or an
    explicit finite table of order pairs."""

    def __init__(self, extensions: Callable[[object], list], leq: Callable = None):
        self._extensions = extensions
        self._leq = leq

    @classmethod
    def from_table(cls, elements: Iterable, order_pairs: Iterable) -> "RequirementPoset":
        elements = list(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        if len(index) != n:
            raise ArgumentError("poset elements must be distinct")
        reach = [1 << i for i in range(n)]  # reflexive
        for a, b in order_pairs:
            if a not in index or b not in index:
                raise ArgumentError(f"order pair ({a!r}, {b!r}) mentions unknown elements")
            reach[index[a]] |= 1 << index[b]
        # transitive closure, by Warshall: after step k, i reaches j through
        # intermediates among the first k + 1 elements
        for k in range(n):
            for i in range(n):
                if reach[i] >> k & 1:
                    reach[i] |= reach[k]
        for i in range(n):
            for j in range(n):
                if i != j and (reach[i] >> j) & 1 and (reach[j] >> i) & 1:
                    raise ArgumentError(
                        f"order has a cycle through {elements[i]!r} and {elements[j]!r}")

        def extensions(element):
            i = index[element]
            return [elements[j] for j in range(n) if j != i and (reach[i] >> j) & 1]

        def leq(a, b):
            return bool((reach[index[a]] >> index[b]) & 1)

        return cls(extensions, leq)

    def extensions(self, element) -> list:
        return list(self._extensions(element))

    def leq(self, a, b) -> bool:
        if self._leq is None:
            raise ArgumentError("this poset has no order test")
        return self._leq(a, b)


class DensePredicate(NamedTuple):
    """A named requirement with a membership test; density above every
    element is a promise checked only by the bounded search."""

    name: str
    test: Callable[[object], bool]


class ChainStep(NamedTuple):
    element: object
    satisfied: tuple  # indices of requirements credited at this element


def generic_chain(poset: RequirementPoset, dense: list[DensePredicate], start,
                  steps: int, horizon: int = DEFAULT_HORIZON) -> list[ChainStep]:
    """Build an extension-increasing chain from `start` meeting every
    requirement, of length at most `steps` moves.

    Requirements are visited round-robin; a requirement already satisfied at
    the current tip is credited in place, otherwise the nearest satisfying
    extension (breadth-first, deterministic) becomes the next tip.
    """
    if steps < len(dense):
        raise ArgumentError(
            f"steps ({steps}) must be at least the number of requirements ({len(dense)})")
    if horizon < 1:
        raise ArgumentError(f"horizon must be at least 1, got {horizon}")
    chain = [ChainStep(start, ())]
    pending = list(range(len(dense)))
    moves = 0
    while pending:
        req_index = pending.pop(0)
        requirement = dense[req_index]
        tip = chain[-1]
        if requirement.test(tip.element):
            chain[-1] = ChainStep(tip.element, tip.satisfied + (req_index,))
            continue
        if moves >= steps:
            raise DensityError(requirement.name, tip.element)
        target = _bfs(poset, tip.element, requirement, horizon)
        if poset._leq is not None and not poset.leq(tip.element, target):
            raise ArgumentError(
                f"extension enumerator disagrees with the order: "
                f"{target!r} does not extend {tip.element!r}")
        chain.append(ChainStep(target, (req_index,)))
        moves += 1
    return chain


def _bfs(poset: RequirementPoset, origin, requirement: DensePredicate, horizon: int):
    seen = {origin}
    queue = [origin]
    expanded = 0
    while queue:
        if expanded >= horizon:
            break
        element = queue.pop(0)
        expanded += 1
        for ext in poset.extensions(element):
            if ext in seen:
                continue
            if requirement.test(ext):
                return ext
            seen.add(ext)
            queue.append(ext)
    raise DensityError(requirement.name, origin)


def binary_string_poset() -> RequirementPoset:
    """Binary strings ordered by the prefix relation, extended one bit at a
    time."""
    return RequirementPoset(
        extensions=lambda s: [s + "0", s + "1"],
        leq=lambda a, b: b.startswith(a),
    )


def length_requirements(count: int) -> list[DensePredicate]:
    """The demo requirements: "length >= i" for i = 1..count."""
    return [DensePredicate(f"length>={i}", (lambda i: lambda s: len(s) >= i)(i))
            for i in range(1, count + 1)]
