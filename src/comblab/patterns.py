"""Set-system consistency semantics, configuration checkers, and witnesses.

A family of parameter sets is modeled as subsets of a finite universe;
"consistent" means the family has a common atom (the empty family is
consistent by convention).  Any finite set system arises this way from unary
predicates, so this is the exact finite fragment of the solution-set notion
the checkers are about.

Checkers quantify over combs/chains up to an explicit size cap, which is
reported; the inconsistency clauses need no cap because a failure is always
witnessed at size k (subsets of combs, chains, and antichains stay in class).
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations, compress, cycle, groupby, islice, repeat
from math import comb as binom
from operator import and_, eq, is_, itemgetter, lt, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import combs as combs_mod
from .combs import (CombClass, RECURSIVE, comb_entries, comb_order, is_comb,
                    mask_indices, name_keys, wide_right)
from .errors import ArgumentError, ComblabError, ParseError, require_within
from .index_core import Node, encode, enumerate_level, level_size

DEFAULT_SEED = 0xC0FFEE
DEFAULT_MAX_VIOLATIONS = 10

CONSISTENCY = "Consistency"
INCONSISTENCY = "Inconsistency"


class ConstructionError(ArgumentError):
    """A supposedly valid construction failed its own re-check."""


class SetSystem:
    """A family of subsets of a finite universe, keyed by arbitrary indices.

    Each index's atom set is one int bitmask over `universe`: atom i is bit i.
    `set_of` returns that mask, intersection is `&` and consistency a nonzero
    mask; `atom_names` decodes a mask.  The JSON form uses the atom names.
    As a fold, the state is the mask, `meet` is `&` and `top` is every bit.
    """

    top = -1
    meet = staticmethod(and_)
    verdict = staticmethod(bool)

    def __init__(self, universe: Iterable[str], family: dict):
        self.universe = tuple(universe)
        # Whether the universe is in name order already, so that naming
        # atoms sorts nothing.
        self._in_order = _distinct_in_order(self.universe)
        self.family = {index: self._mask(atoms) for index, atoms in family.items()}
        self.indices = frozenset(self.family)

    def _with_masks(self, family: dict) -> "SetSystem":
        """A system over the same universe whose sets are given as masks."""
        out = SetSystem.__new__(SetSystem)
        out.universe = self.universe
        out._in_order = self._in_order
        out.family = family
        out.indices = frozenset(family)
        return out

    @cached_property
    def _atom_id(self) -> dict:
        """Atom name -> bit, built by the first `_mask` call, or by `_pack`
        when it packs a universe in one block or a name misses its block.  A
        system whose sets are all given as masks, as the weave witness is,
        holds none unless a set is later masked by name: 17 MB for the
        332,928 atoms of the depth-3 weave witness."""
        return {name: i for i, name in enumerate(self.universe)}

    def _mask(self, atoms: Iterable) -> int:
        """The mask of the named atoms; every atom is looked up by name."""
        bits = bytearray(len(self.universe))
        atom_id = self._atom_id
        for atom in atoms:
            try:
                bits[atom_id[atom]] = 1
            except (KeyError, TypeError):  # an unhashable atom is not in the universe either
                raise ArgumentError(f"atom {atom!r} is not in the universe") from None
        return _numeral(bits)

    def set_of(self, index) -> int:
        try:
            return self.family[index]
        except KeyError:
            raise ArgumentError(f"unknown index {index!r}")

    state = set_of

    def intersection(self, indices: Iterable) -> int:
        return reduce(and_, map(self.set_of, indices), (1 << len(self.universe)) - 1)

    def consistent(self, indices: Iterable) -> bool:
        return consistent(self, indices)

    def common_atom(self, indices: Iterable) -> Optional[str]:
        """The least atom name shared by every set of the family, or None."""
        names = self.atom_names(self.intersection(indices))
        return names[0] if names else None

    def atom_names(self, mask: int) -> list[str]:
        """The names of the mask's atoms, in name order; bits beyond the
        universe name nothing.

        `compress` picks the names by a selector of one 0/1 byte per atom,
        but only over the stretches of the universe that hold members.  A
        stretch ends where the mask's bytes begin a `_GAP` of absent atoms,
        and the next begins at the next member.  So a sparse set costs one
        Python step per gap and one `compress` step per atom of its
        stretches, not one `compress` step per atom of the universe.  Each
        stretch is read through a tuple iterator set to its first atom, so
        no slice copies it: a copy would touch every atom of the stretch
        twice more.
        """
        selected = bin(mask)[:1:-1].encode().translate(_DIGIT_TO_BYTE)
        packed = mask.to_bytes(len(selected) + 7 >> 3, "little")
        names = []
        start = selected.find(1)
        while start >= 0:
            gap = packed.find(_GAP, start >> 3)
            stop = len(selected) if gap < 0 else gap << 3
            atoms = iter(self.universe)
            atoms.__setstate__(start)
            names += compress(atoms, selected[start:stop])
            start = selected.find(1, stop)
        return names if self._in_order else sorted(names)

    def reindexed(self, mapping: dict) -> "SetSystem":
        """New system with family b'_new = b_old over the same universe;
        every old index must be in the family."""
        family = self.family
        try:
            masks = {new_index: family[old_index] for new_index, old_index in mapping.items()}
        except KeyError as missing:
            raise ArgumentError(
                f"image index {encode_index(missing.args[0])} is not in the family") from None
        return self._with_masks(masks)

    def mutated_without(self, index, atom_name: str) -> "SetSystem":
        """Copy with one atom removed from one set (for perturbation tests)."""
        family = dict(self.family)
        family[index] = self.set_of(index) & ~self._mask((atom_name,))
        return self._with_masks(family)

    def to_json(self, index_encoder: Callable = None) -> dict:
        """The JSON form, whose family is an iterator over its entries in
        the order of their encoded indices.  An entry, and the list naming
        its atoms, is made only when the iterator reaches it, so a writer
        holds one set's names at a time: 1.9 million names at once for the
        depth-3 weave witness otherwise."""
        enc = index_encoder or encode_index
        order = sorted(((enc(index), index) for index in self.family), key=itemgetter(0))
        universe = list(self.universe) if self._in_order else sorted(self.universe)
        family = ({"index": key, "set": self.atom_names(self.family[index])}
                  for key, index in order)
        return {"universe": universe, "family": family}

    @staticmethod
    def fold_entry(entry: dict) -> dict:
        """Applied to each JSON object as a set-system file is decoded: an
        entry's 'set' of string atoms becomes one `_FoldedAtoms` string, so
        the decoded file does not hold one string per atom of every set at
        once.  `from_json` packs the masks from the folded texts.  A set
        that is empty, holds a non-string, or has an atom containing the
        separator stays a list."""
        atoms = entry.get("set")
        if type(atoms) is list and atoms:
            try:
                text = _FoldedAtoms.SEPARATOR.join(atoms)
            except TypeError:
                return entry
            if text.count(_FoldedAtoms.SEPARATOR) == len(atoms) - 1:
                entry["set"] = _FoldedAtoms(text)
        return entry

    @classmethod
    def from_json(cls, payload: dict, index_decoder: Callable) -> "SetSystem":
        """Read {"universe": [...], "family": [{"index": ..., "set": [...]}]};
        a malformed value raises ParseError naming where it is.  A set may be
        folded by `fold_entry`."""
        if not isinstance(payload, dict):
            raise ParseError(f"set system must be a JSON object, got {type(payload).__name__}")
        for key in ("universe", "family"):
            if not isinstance(payload.get(key), list):
                raise ParseError(f"set system needs a {key!r} list")
        try:
            system = cls(payload["universe"], {})
        except TypeError:  # an unhashable atom; found only on failure, to keep loads fast
            pos, atom = next((pos, atom) for pos, atom in enumerate(payload["universe"])
                             if isinstance(atom, (list, dict)))
            raise ParseError(f"universe[{pos}] must be a JSON scalar, got {atom!r}") from None
        first = type(system.universe[0]) if system.universe else str
        if len(set(map(type, system.universe))) > 1:  # names of two types do not sort
            pos, atom = next((pos, atom) for pos, atom in enumerate(system.universe)
                             if type(atom) is not first)
            raise ParseError(f"universe[{pos}] must have the type of universe[0] "
                             f"({first.__name__}), got {atom!r}")
        # Every entry is checked before any atom is looked up.  Atoms are
        # looked up entry by entry only when one is not in the universe or an
        # entry is refused, so that the first failing entry raises.
        family, sets, refused = {}, [], None
        try:
            for pos, entry in enumerate(payload["family"]):
                if not isinstance(entry, dict) or "index" not in entry:
                    raise ParseError(f"family[{pos}] must be an object with an 'index'")
                atoms = entry.get("set")
                if isinstance(atoms, _FoldedAtoms):
                    if first is not str:
                        atoms = atoms.names()
                elif not isinstance(atoms, list):
                    raise ParseError(f"family[{pos}] needs a 'set' list")
                try:
                    index = index_decoder(entry["index"])
                except (ParseError, ValueError, TypeError) as err:
                    raise ParseError(f"family[{pos}]: bad index {entry['index']!r}: "
                                     f"{err}") from None
                if index in family:
                    raise ArgumentError(f"family[{pos}]: duplicate index {entry['index']!r}")
                # Atoms are looked up by value, and `True == 1 == 1.0`; no other
                # JSON type equals a string, so a string universe needs no test.
                if first is not str:
                    for atom in atoms:
                        if type(atom) is not first:
                            raise ParseError(f"family[{pos}]: atom {atom!r} must have the "
                                             f"type of the universe's atoms ({first.__name__})")
                family[index] = None
                sets.append(atoms)
        except ComblabError as err:
            refused = err
        masks = None if refused else system._pack(sets)
        if masks is None:
            for pos, atoms in enumerate(sets):
                if isinstance(atoms, _FoldedAtoms):
                    atoms = atoms.names()
                try:
                    system._mask(atoms)
                except ArgumentError as err:
                    raise ArgumentError(f"family[{pos}]: {err}") from None
            raise refused
        return system._with_masks(dict(zip(family, masks)))

    def _pack(self, sets: list) -> Optional[list]:
        """The masks of `from_json`'s checked sets, or None when an atom is
        not in the universe.

        A list is masked by `_mask`.  Folded sets are packed together, one
        block of the universe at a time: `_PACK_BLOCK` atoms of a universe
        in name order, otherwise the whole universe.  Each block's names are
        looked up in a dict of that block alone, which stays in cache where
        the whole universe's index does not.  A set in name order gives up
        to each block the atoms that sort below the next block's first name,
        found by a binary search of its text.  A name that misses the block's
        dict is looked up in `_atom_id`, so a set or a universe out of order
        is packed all the same, only with less locality.
        """
        masks = [None] * len(sets)
        folded = []
        for pos, atoms in enumerate(sets):
            if isinstance(atoms, _FoldedAtoms):
                folded.append(pos)
                continue
            try:
                masks[pos] = self._mask(atoms)
            except ArgumentError:
                return None
        universe, size = self.universe, len(self.universe)
        blocked = self._in_order and size > _PACK_BLOCK
        rows = [bytearray(size) for _ in folded]
        starts = [0] * len(folded)
        for low in range(0, size, _PACK_BLOCK) if blocked else (0,):
            high = low + _PACK_BLOCK
            if blocked:
                names_at = dict(zip(universe[low:high], range(low, high)))
                bound = universe[high] if high < size else None
            else:
                names_at, bound = self._atom_id, None
            for j, pos in enumerate(folded):
                text, start = sets[pos], starts[j]
                end = _cut(text, start, bound)
                if end == start:
                    continue
                starts[j] = end
                names, row = text[start:end - 1].split(_FoldedAtoms.SEPARATOR), rows[j]
                try:
                    for at in map(names_at.__getitem__, names):
                        row[at] = 1
                except KeyError:
                    ats = list(map(self._atom_id.get, names))
                    if None in ats:
                        return None
                    for at in ats:
                        row[at] = 1
        for j, pos in enumerate(folded):
            masks[pos] = _numeral(rows[j])
            rows[j] = None
        return masks


def _distinct_in_order(atoms: tuple) -> bool:
    """Whether the atoms strictly increase as given; ArgumentError when two
    are equal.  Told without an index of them: atoms that strictly increase
    as given or once sorted are distinct.  Atoms that do not sort that way
    (two types, a partial order) are counted in a set.  An unhashable atom
    raises TypeError, as it would as a key of the index."""
    hash(atoms)
    try:
        if _increasing(atoms):
            return True
        if _increasing(sorted(atoms)):
            return False
    except TypeError:
        pass
    if len(set(atoms)) < len(atoms):
        raise ArgumentError("universe atoms must be distinct")
    return False


def _increasing(atoms) -> bool:
    return all(map(lt, atoms, islice(atoms, 1, None)))


def _numeral(bits: bytearray) -> int:
    """The mask with bit i set where bits[i] is 1: one byte per atom, read
    as a binary numeral in a single big-int conversion instead of one
    universe-wide `|` per atom."""
    return int(bits[::-1].translate(_BYTE_TO_DIGIT) or b"0", 2)


def _cut(text: str, start: int, bound: Optional[str]) -> int:
    """Where the first atom of a folded set at or after `start` that does not
    sort below `bound` begins, for a set in name order; len(text) + 1 when
    there is none or no bound.  `start` is where an atom begins: at 0 or
    after a separator."""
    low, high = start, len(text) + 1
    if bound is None:
        return high
    while low < high:
        mid = (low + high) // 2
        first = text.rfind(_FoldedAtoms.SEPARATOR, low, mid) + 1 or low
        last = text.find(_FoldedAtoms.SEPARATOR, first)
        if last < 0:
            last = len(text)
        if text[first:last] < bound:
            low = last + 1
        else:
            high = first
    return low


class _FoldedAtoms(str):
    """A family entry's string atoms, joined on SEPARATOR by
    `SetSystem.fold_entry`.  Its repr is the list's, so a message that quotes
    the entry reads as it would for the list."""

    __slots__ = ()
    SEPARATOR = "\n"

    def names(self) -> list[str]:
        """The atoms, as plain strings: `split` gives the folded text itself
        back for the one empty atom of [""], and its repr is this list's."""
        return str(self).split(self.SEPARATOR)

    def __repr__(self) -> str:
        return repr(self.names())


# The weave witness makes its keys, joins them, and names its atoms this many
# at a time.
_NAME_BATCH = 4096
# `SetSystem.from_json` packs the folded sets over a universe in name order
# this many atoms at a time.
_PACK_BLOCK = 4096
# `SetSystem.atom_names` skips a stretch of the universe where a mask holds
# none of this many bytes' atoms (64).  On the depth-3 weave witness's sets,
# gaps of 2 to 32 bytes all name the atoms in about the same time.
_GAP = bytes(8)
_BYTE_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")
# _BIT_TO_DIGIT[j] maps a byte to b"1" when its bit j is set, else to b"0".
_BIT_TO_DIGIT = tuple(bytes(b"01"[value >> j & 1] for value in range(256)) for j in range(8))


class PredicateOracle:
    """Consistency given by a deterministic predicate instead of sets.

    As a fold, the state is the family itself, `meet` is union and the
    verdict asks the predicate once.  The predicate must be downward closed,
    as consistency is: every subfamily of a consistent family is consistent.
    The checkers rely on it to skip families that cannot change a report.
    """

    top = frozenset()
    meet = staticmethod(or_)

    def __init__(self, indices: Iterable, predicate: Callable[[frozenset], bool]):
        self.indices = frozenset(indices)
        self._predicate = predicate

    def state(self, index) -> frozenset:
        if index not in self.indices:
            raise ArgumentError(f"unknown index {index!r}")
        return frozenset((index,))

    def verdict(self, family: frozenset) -> bool:
        return not family or bool(self._predicate(family))

    def consistent(self, indices: Iterable) -> bool:
        return consistent(self, indices)

    def common_atom(self, indices: Iterable) -> None:
        """A predicate names no atoms."""
        return None

    def reindexed(self, mapping: dict) -> "PredicateOracle":
        """New oracle with b'_new = b_old along new -> old."""
        image = dict(mapping)
        for old_index in image.values():
            if old_index not in self.indices:
                raise ArgumentError(f"image index {encode_index(old_index)} is not in the family")

        def predicate(family):
            return self.verdict(frozenset(image[i] for i in family))

        return PredicateOracle(image, predicate)


def level_depth(ci) -> int:
    """The depth of the single level whose nodes index the family."""
    depths = {node.depth for node in ci.indices if isinstance(node, Node)}
    if len(depths) != 1:
        raise ArgumentError("expected a family indexed by a single level")
    (depth,) = depths
    return depth


def encode_index(index) -> str:
    """Canonical string form of an index: node, grid point, or vertex."""
    if isinstance(index, Node):
        return encode(index)
    if isinstance(index, tuple) and len(index) == 2 and all(isinstance(c, int) for c in index):
        return f"{index[0]},{index[1]}"
    return str(index)


def consistent(ci, indices: Iterable) -> bool:
    """Whether the subfamily has a common solution; empty families are consistent.

    The one consistency fold of both interfaces: `state(index)` is one
    index's state, `meet(s, t)` combines two, `top` is the state of the empty
    family and `verdict(state)` says whether the family is consistent.  The
    checkers use only these four, and rely on the contract of consistency:
    every subfamily of a consistent family is consistent.
    """
    return ci.verdict(reduce(ci.meet, map(ci.state, indices), ci.top))


def _require_k(k) -> None:
    if not isinstance(k, int) or k < 2:
        raise ArgumentError(f"k must be an integer >= 2, got {k!r}")


def _require_side(s: int) -> None:
    if s < 1:
        raise ArgumentError(f"grid side must be positive, got {s}")


def k_inconsistent(ci, indices: Iterable, k: int) -> bool:
    """Every k-element subfamily is inconsistent; vacuous below size k."""
    _require_k(k)
    items = sorted(set(indices), key=encode_index)
    require_within(binom(len(items), k), f"{k}-inconsistency check would test", "subfamilies")
    for sub in combinations(items, k):
        if ci.consistent(sub):
            return False
    return True


class Violation(NamedTuple):
    kind: str  # Consistency | Inconsistency
    indices: tuple
    certificate: object = None
    atom: Optional[str] = None

    def to_json(self) -> dict:
        cert = self.certificate
        if hasattr(cert, "to_json"):
            cert = cert.to_json()
        out = {"kind": self.kind,
               "indices": [encode_index(i) for i in self.indices],
               "certificate": cert}
        if self.atom is not None:
            out["atom"] = self.atom
        return out


class Structure(NamedTuple):
    """A grid or graph violation's certificate: the family's structure
    (antichain, chain, strict-chain, independent or edge) and, for an edge,
    the edge it holds."""

    name: str
    edge: Optional[tuple] = None

    def to_json(self) -> dict:
        if self.edge is None:
            return {"structure": self.name}
        return {"structure": self.name, "edge": list(self.edge)}


class Report(NamedTuple):
    ok: bool
    cap: int
    truncated: bool = False
    violations: Sequence = ()
    violations_truncated: bool = False

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "cap": self.cap,
            "truncated": self.truncated,
            "violations": [v.to_json() for v in self.violations],
            "violations_truncated": self.violations_truncated,
        }


class _ViolationSink:
    """Counts every violation; builds records only for the first `cap`."""

    def __init__(self, cap: int):
        if not isinstance(cap, int) or cap < 0:
            raise ArgumentError(f"max_violations must be a nonnegative integer, got {cap!r}")
        self.cap = cap
        self.items: list[Violation] = []
        self.total = 0

    def add(self, build: Callable[[], Violation]) -> None:
        """Count one violation; call `build` now if the report has room."""
        self.total += 1
        if len(self.items) < self.cap:
            self.items.append(build())

    def report(self, cap: int, truncated: bool) -> Report:
        return Report(
            ok=self.total == 0,
            cap=cap,
            truncated=truncated,
            violations=tuple(self.items),
            violations_truncated=self.total > len(self.items),
        )


def default_cap(k: int, scale: int) -> int:
    return max(k, 2 * scale, 8)


def _checked_cap(cap, default: int) -> int:
    """The caller's size cap, or the default when it gave none."""
    if cap is None:
        return default
    if not isinstance(cap, int) or cap < 1:
        raise ArgumentError(f"cap must be an integer >= 1, got {cap!r}")
    return cap


def _require_indices(ci, expected: Iterable, what: str) -> None:
    expected = set(expected)
    have = set(ci.indices)
    for odd, problem in ((expected - have, "is missing"), (have - expected, "has unexpected")):
        if odd:
            sample = min(odd, key=encode_index)
            raise ArgumentError(f"{what} {problem} index {encode_index(sample)}")


_SKIP, _FOLD, _KEEP = 0, 1, 2


def _fold_plan(table, target) -> bytearray:
    """Per comb, bit flags: _FOLD (it has the target size, or there is no
    target) and _KEEP (it is a part of a folded compound, so its state must
    be kept); _SKIP when neither.

    Folded combs are those of size `target` (all when it is None) plus their
    part ancestry, which is marked from the combs of size `target` down, so
    only the folded combs are visited, each once.
    """
    if target is None:
        plan = bytearray([_FOLD]) * len(table)
    else:
        plan = bytearray(map(eq, table.sizes, repeat(target)))  # True is _FOLD
    a, b = table.a, table.b
    todo = list(compress(range(len(plan)), plan))
    while todo:
        pos = todo.pop()
        if a[pos] >= 0:
            for part in (a[pos], b[pos]):
                if not plan[part]:
                    todo.append(part)
                plan[part] |= _KEEP
    return plan


def _family_consistency(ci, table, level, target=None):
    """Bottom-up consistency evaluation over a comb table.

    The state of a compound comb is the meet of its two parts' states (for a
    set system, the `&` of their masks), so one meet per comb suffices; only
    the states of parts are kept.  When `target` is given, only the combs of
    that size (and the parts they are built from) are folded.  Every folded
    comb gets a verdict, parts included.  Returns a list of verdicts aligned
    with the table (None where none was taken).
    """
    states = [ci.state(node) for node in level]
    meet, verdict = ci.meet, ci.verdict
    masks, a, b = table.masks, table.a, table.b
    parts = {}
    verdicts = [None] * len(table)
    plan = _fold_plan(table, target)
    for pos in compress(range(len(plan)), plan):  # the rows that are not _SKIP
        mask, ia, ib, role = masks[pos], a[pos], b[pos], plan[pos]
        if ia < 0:
            state = states[mask.bit_length() - 1]
        else:
            state = meet(parts[ia], parts[ib])
        if role & _KEEP:
            parts[pos] = state
        verdicts[pos] = verdict(state)
    return verdicts


def check_weave(ci, d: int, k: int, m, n, *, strong: bool = False,
                reading: str = RECURSIVE, cap: Optional[int] = None,
                max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
    """Verify the weave conditions on a fully indexed depth-d family.

    ok iff every up-m-comb family is k-inconsistent and every right-n-comb
    family (wide right-n-comb family when strong) is consistent.  The
    inconsistency clause is checked on combs of size exactly k, which is
    complete because subsets of combs are combs; the consistency clause is
    capped at `cap` (default max(k, 2d, 8)) and the cap is reported.
    """
    _require_k(k)
    sink = _ViolationSink(max_violations)
    level = enumerate_level(d)
    _require_indices(ci, level, "weave family")
    cap = _checked_cap(cap, default_cap(k, d))

    def violation(kind, mask, cls):
        nodes = frozenset(combs_mod.mask_nodes(mask, level))
        atom = ci.common_atom(nodes) if kind == INCONSISTENCY else None
        return Violation(kind, tuple(sorted(nodes)), is_comb(nodes, cls), atom)

    up_cls = CombClass("up", m)
    cons_cls = CombClass("wide-right" if strong else "right", n, reading)
    up_table = comb_entries(d, up_cls, k)
    up_verdicts = _family_consistency(ci, up_table, level, target=k)
    consistent_k = [pos for pos, verdict in enumerate(up_verdicts)
                    if verdict and up_table.sizes[pos] == k]
    for pos in comb_order(up_table, consistent_k):
        sink.add(lambda: violation(INCONSISTENCY, up_table.masks[pos], up_cls))

    cons_table = comb_entries(d, cons_cls, cap)
    # With an unbounded part size, every up-, right-, or recursive-wide comb
    # below min(cap, 2^d) extends inside its class, so the size-min(cap, 2^d)
    # combs cover everything and downward closure settles the rest.  The
    # literal wide class has non-extendable small combs (a deep wide pair
    # admits no third element) and bounded classes cap their lower parts:
    # both are checked in full.
    target = None
    if n is combs_mod.OMEGA and cons_cls.reading == RECURSIVE:
        target = min(cap, 2 ** d)
    cons_verdicts = _family_consistency(ci, cons_table, level, target=target)
    inconsistent = list(compress(range(len(cons_verdicts)),
                                 map(is_, cons_verdicts, repeat(False))))
    for pos in comb_order(cons_table, inconsistent):
        sink.add(lambda: violation(CONSISTENCY, cons_table.masks[pos], cons_cls))
    return sink.report(cap, truncated=cap < 2 ** d)


# --- grids ----------------------------------------------------------------


def product_leq(p: tuple, q: tuple) -> bool:
    return p[0] <= q[0] and p[1] <= q[1]


def strictly_below(p: tuple, q: tuple) -> bool:
    return p[0] < q[0] and p[1] < q[1]


def comparable(p: tuple, q: tuple) -> bool:
    return product_leq(p, q) or product_leq(q, p)


def grid_points(s: int) -> list[tuple]:
    return [(i, j) for i in range(s) for j in range(s)]


def _above(points: list[tuple], related) -> list[list[int]]:
    """For each point position i, the later positions j whose points are
    related to it: the successor lists of a chain walk."""
    return [[j for j in range(i + 1, len(points)) if related(points[i], points[j])]
            for i in range(len(points))]


def _require_chain_count(above, max_size: int, what: str) -> int:
    """The number of chains of at most max_size elements through `above`,
    counted before any chain is made and held to the budget.

    counts[i] is the number of chains of the current length starting at
    position i: 1 for length one, and the sum of the previous counts over
    above[i] for each length after that.
    """
    counts = [1] * len(above)
    total = len(above)
    for _ in range(1, max_size):
        counts = [sum(counts[j] for j in later) for later in above]
        grown = sum(counts)
        if not grown:
            break
        total += grown
        require_within(total, f"{what} would produce at least",
                       f"chains of at most {max_size} points")
    return total


def _walk_chains(above, max_size: int, step, root, starts=None):
    """Depth-first walk over the chains of an order, up to max_size elements.

    above[i] lists the positions after i that may follow it, so a chain is a
    path through `above`, written as the tuple of its positions, that begins
    at one of `starts` (every position when None).  Each chain carries a
    state: step(root, chain) for a single element and step(state of the
    chain without its last element, chain) otherwise, so a fold costs one
    step per chain.  Yields (chain, state), depth first; a state of None
    drops the chain and every extension of it.
    """
    if starts is None:
        starts = range(len(above))
    stack = [(root, (i,)) for i in starts]
    while stack:
        parent, chain = stack.pop()
        state = step(parent, chain)
        if state is None:
            continue
        yield chain, state
        if len(chain) < max_size:
            stack.extend([(state, chain + (j,)) for j in above[chain[-1]]])


def _grow_chains(points: list[tuple], related, max_size: int) -> list[list[tuple]]:
    """The nonempty chains under the given pairwise relation, level by
    level: entry m - 1 lists the chains of m points, for m up to max_size,
    and the list stops early at an empty level.  Points are in lexicographic
    order and a chain lists its points in that order.

    Each chain of one level is extended by each later point related to its
    last one, so every level comes out in lexicographic order without a
    sort.
    """
    above = _above(points, related)
    _require_chain_count(above, max_size, "chain listing")
    after = {pt: [points[j] for j in later] for pt, later in zip(points, above)}
    level = [(pt,) for pt in points]
    levels = [level]
    while level and len(levels) < max_size:
        level = [chain + (q,) for chain in level for q in after[chain[-1]]]
        levels.append(level)
    return levels


def _by_size(chain: tuple) -> tuple:
    """The report order of families: by size, then lexicographically."""
    return len(chain), chain


def strict_chains(s: int, max_size: int) -> list[tuple]:
    """The strict chains of the s x s square with at most max_size points,
    by size and then lexicographically."""
    return [chain for level in _grow_chains(grid_points(s), strictly_below, max_size)
            for chain in level]


def chains(s: int, max_size: int) -> list[tuple]:
    """The chains of the s x s square with at most max_size points, by size
    and then lexicographically."""
    # Later points are distinct, so product_leq is the strict order there.
    return [chain for level in _grow_chains(grid_points(s), product_leq, max_size)
            for chain in level]


def _crossing(p: tuple, q: tuple) -> bool:
    """q lies right of and below p: for p before q in lexicographic order,
    exactly when the two are incomparable."""
    return p[0] < q[0] and p[1] > q[1]


def antichains_of_size(s: int, size: int) -> list[tuple]:
    """The antichains of the s x s square with `size` points, in
    lexicographic order: the chains of the crossing order of that size."""
    levels = _grow_chains(grid_points(s), _crossing, size)
    return levels[-1] if len(levels) == size else []


def check_grid(ci, s: int, k: int, *, strong: bool = False,
               cap: Optional[int] = None,
               max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
    """Verify the grid conditions on a fully indexed s x s family.

    ok iff every antichain family is k-inconsistent and every strict chain
    family (every chain family when strong) is consistent.  Strict chains are
    pairwise strictly increasing in both coordinates; chains are pairwise
    comparable in the product order.  The default cap max(k, 2s, 8) covers
    every chain of the square, so grid checks are exact by default.  Every
    interface is decided on its maximal chains (`_failing_subchains`).
    """
    _require_k(k)
    _require_side(s)
    sink = _ViolationSink(max_violations)
    points = grid_points(s)
    _require_indices(ci, points, "grid family")
    cap = _checked_cap(cap, default_cap(k, s))
    above = _above(points, product_leq if strong else strictly_below)
    levels = _failing_subchains(ci, [ci.state(pt) for pt in points], above, cap)

    for combo in antichains_of_size(s, k):
        if ci.consistent(combo):
            sink.add(lambda: Violation(INCONSISTENCY, combo, Structure("antichain"),
                                       ci.common_atom(combo)))

    structure = "chain" if strong else "strict-chain"
    for level in levels:
        for chain in level:
            sink.add(lambda: Violation(CONSISTENCY, tuple(points[i] for i in chain),
                                       Structure(structure)))
        if sink.total > sink.cap:  # later levels cannot change the report
            break
    return sink.report(cap, truncated=cap < 2 * s - 1)


def _covers(above) -> list[list[int]]:
    """The cover lists of the order whose successor lists are `above`: j
    covers i when j is in above[i] and no other member of above[i] lies
    below j."""
    later_masks = [sum(1 << j for j in later) for later in above]
    out = []
    for later in above:
        beyond = reduce(or_, map(later_masks.__getitem__, later), 0)
        out.append([j for j in later if not beyond >> j & 1])
    return out


def _failing_subchains(ci, states, above, cap: int):
    """The failing chains with at most `cap` points, as position tuples: an
    iterator of lists, one per size, each in lexicographic order.

    Every chain lies in a maximal chain: a path through the cover lists from
    a minimal point (one in no successor list) to a point with no cover.
    Consistency is downward closed, so a failing chain makes every maximal
    chain through it fail, and the failing chains are the failing subchains
    of the failing maximal chains.  Those are folded here along one
    prefix-sharing walk; each size's subchains are then taken from them as
    the iterator is drawn, kept once and asked from their points' states,
    except the failing maximal chains themselves, which the walk has asked.
    The maximal chains, and each size's candidates, are counted before they
    are made and held to the budget.
    """
    covers = _covers(above)
    reached = reduce(or_, (1 << j for later in above for j in later), 0)
    minimal = [i for i in range(len(above)) if not reached >> i & 1]
    # paths[i] is the number of cover paths from i to a point with no cover.
    paths = [0] * len(covers)
    for i in reversed(range(len(covers))):
        paths[i] = sum(map(paths.__getitem__, covers[i])) or 1
    made = sum(map(paths.__getitem__, minimal))
    require_within(made, "grid check would make", "maximal chains")
    meet, verdict, top = ci.meet, ci.verdict, ci.top
    walk = _walk_chains(covers, len(covers),
                        lambda prefix, chain: meet(prefix, states[chain[-1]]), top,
                        starts=minimal)
    failing = [chain for chain, state in walk if not covers[chain[-1]] and not verdict(state)]
    known = set(failing)

    def levels(made: int):
        for size in range(1, min(cap, max(map(len, failing), default=0)) + 1):
            made += sum(binom(len(chain), size) for chain in failing)
            require_within(made, "grid check would make",
                           f"maximal chains and candidate chains of at most {size} points")
            candidates = {sub for chain in failing for sub in combinations(chain, size)}
            yield sorted(sub for sub in candidates if sub in known
                         or not verdict(reduce(meet, map(states.__getitem__, sub), top)))

    return levels(made)


# --- graph patterns -------------------------------------------------------


def check_graph_pattern(ci, graph, *, cap: Optional[int] = None,
                        max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
    """Verify that a vertex-indexed family is consistent exactly on the
    independent sets of the graph, over all vertex subsets up to `cap`."""
    sink = _ViolationSink(max_violations)
    _require_indices(ci, range(graph.n), "graph pattern family")
    cap = min(_checked_cap(cap, graph.n), graph.n)
    require_within(sum(binom(graph.n, size) for size in range(1, cap + 1)),
                   "graph pattern check would scan", "subsets")
    families = _graph_fold(ci, graph.n, graph.adjacency_masks(), cap)
    mismatches = [(combo, edge) for combo, (_, edge, _, consistent) in families
                  if (edge is None) != consistent]
    for combo, edge in sorted(mismatches, key=lambda item: _by_size(item[0])):
        if edge is None:
            sink.add(lambda: Violation(CONSISTENCY, combo, Structure("independent")))
        else:
            sink.add(lambda: Violation(INCONSISTENCY, combo,
                                       Structure("edge", edge),
                                       ci.common_atom(combo)))
    return sink.report(cap, truncated=cap < graph.n)


def _graph_fold(ci, n: int, masks, cap: int):
    """(subset, (vertices seen, first edge, state, verdict)) for the vertex
    subsets up to `cap` that can mismatch: the chains of the vertex order.

    Each entry is one step on its parent's.  The first edge is met at the
    first vertex with an earlier neighbour and pairs it with the latest such
    neighbour.  Once a subset has an edge and is inconsistent, so is every
    extension, since consistency is downward closed, and none of them
    mismatches: the walk skips them.
    """
    states = [ci.state(v) for v in range(n)]
    meet, verdict = ci.meet, ci.verdict

    def step(parent, combo):
        seen, edge, state, _ = parent
        v = combo[-1]
        if edge is None and masks[v] & seen:
            edge = ((masks[v] & seen).bit_length() - 1, v)
        state = meet(state, states[v])
        ok = verdict(state)
        if edge is not None and not ok:
            return None
        return seen | 1 << v, edge, state, ok

    later = [range(v + 1, n) for v in range(n)]
    return _walk_chains(later, cap, step, (0, None, ci.top, True))


# --- templates ------------------------------------------------------------


class _TemplateFields(NamedTuple):
    indices: frozenset
    must_consist: tuple  # of frozensets
    must_k_inconsist: tuple  # of frozensets
    k: int


class Template(_TemplateFields):
    """Abstract requirements: some families must be consistent, others must be
    k-inconsistent."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, indices: frozenset, must_consist: tuple, must_k_inconsist: tuple, k: int):
        _require_k(k)
        for group in must_consist + must_k_inconsist:
            if not group <= indices:
                raise ArgumentError("constraint sets must be subsets of the indices")
        return super().__new__(cls, indices, must_consist, must_k_inconsist, k)

    @classmethod
    def make(cls, indices, must_consist, must_k_inconsist, k) -> "Template":
        return cls(frozenset(indices), tuple(frozenset(s) for s in must_consist),
                   tuple(frozenset(s) for s in must_k_inconsist), k)


def realizable(template: Template) -> Optional[SetSystem]:
    """Decide template realizability and return a canonical witness.

    A template is realizable iff no must-be-inconsistent family shares k
    indices with a must-be-consistent one: those k indices would be forced
    consistent by monotonicity.  When realizable, one atom per must-consist
    set suffices: give index i every atom of the consistent sets containing
    it.  The construction is re-validated before returning, so an unfulfilled
    constraint fails loudly instead of leaking a bad witness.
    """
    if any(len(group & cset) >= template.k
           for group in template.must_k_inconsist for cset in template.must_consist):
        return None
    system = _facet_system(template.indices,
                           [(f"c{i}", cset) for i, cset in enumerate(template.must_consist)])
    for cset in template.must_consist:
        if not system.consistent(cset):
            raise ConstructionError(f"witness fails consistency of {sorted(cset, key=repr)}")
    for group in template.must_k_inconsist:
        if not k_inconsistent(system, group, template.k):
            raise ConstructionError(
                f"witness fails {template.k}-inconsistency of {sorted(group, key=repr)}")
    return system


# --- canonical witnesses --------------------------------------------------


def _facet_system(indices: Iterable, atoms: Sequence[tuple]) -> SetSystem:
    """The system over the `(name, family)` atoms, in the order given, whose
    set at each index holds the atoms whose family holds it.  Each family is
    walked once, setting one byte of its indices' rows."""
    rows = {index: bytearray(len(atoms)) for index in indices}
    for bit, (_, family) in enumerate(atoms):
        for index in family:
            rows[index][bit] = 1
    return SetSystem([name for name, _ in atoms], {})._with_masks(
        {index: _numeral(row) for index, row in rows.items()})


def weave_witness(d: int, k: int, m, n, genuine_k: bool = False) -> SetSystem:
    """A depth-d family passing the strong weave check.

    Universe: all wide right-n-combs, each an atom named by its node set;
    b_sigma collects the combs through sigma.  Wide combs never contain an
    up-pair, so up-comb families are 2-inconsistent, and every wide comb
    family contains itself, so the consistency clause holds.  With genuine_k,
    every node subset of size < k joins the universe as well, which keeps
    k-inconsistency but defeats (k-1)-inconsistency on up-combs.

    The witness is built from the comb masks of `comb_entries` alone.  Each
    mask becomes its name-order key (`combs.name_keys`): `width` bytes with
    node i at bit 7 - i % 8 of byte i // 8.  The keys sorted descending give
    the atoms in name order, with equal keys side by side and kept once.  Atom
    names are read from the keys, and each node's set is the column of that
    node's bit across them.
    """
    _require_k(k)
    nodes = level_size(d)
    masks = comb_entries(d, wide_right(n), max_size=nodes).masks
    if genuine_k:
        sizes = range(1, min(k, nodes + 1))  # no subset has more than `nodes` nodes
        require_within(len(masks) + sum(binom(nodes, size) for size in sizes),
                       "witness universe would have", "atoms")
        masks += [sum(1 << i for i in combo)
                  for size in sizes
                  for combo in combinations(range(nodes), size)]
    width = (nodes + 7) // 8
    # Each mask is replaced by its key in the same list, _NAME_BATCH at a
    # time, so the masks (14 MB at depth 3) and the keys (16 MB) are never
    # all alive at once.
    keys = masks
    del masks
    for start in range(0, len(keys), _NAME_BATCH):
        part = slice(start, start + _NAME_BATCH)
        keys[part] = name_keys(keys[part], width)
    keys.sort(reverse=True)
    # Joined _NAME_BATCH at a time: `b"".join` holds an 80-byte buffer per item.
    raw = bytearray()
    unique = map(itemgetter(0), groupby(keys))
    while batch := b"".join(islice(unique, _NAME_BATCH)):
        raw += batch
    del keys, unique  # the keys die here: 16 MB at depth 3
    # tables[b][value] names the nodes of byte b set in `value`, each
    # followed by a comma; the first byte's names open with "{" and the last
    # byte's close with "\x01".  A batch of keys read through the tables is
    # then one text of "{n1,...,nk,\x01" per atom, cut into names at once.
    level = enumerate_level(d)
    digits = [encode(node) + "," for node in level]
    digits += [""] * (8 * width - nodes)
    tables = [["".join(digits[8 * b + j] for j in range(8) if value >> (7 - j) & 1)
               for value in range(256)]
              for b in range(width)]
    tables[0] = ["{" + entry for entry in tables[0]]
    tables[-1] = [entry + "\x01" for entry in tables[-1]]
    names = []
    step = width * _NAME_BATCH
    for start in range(0, len(raw), step):
        text = "".join(map(list.__getitem__, cycle(tables), raw[start:start + step]))
        names += text.replace(",\x01", "}\x01")[:-1].split("\x01")
    # Node i's set: bit 7 - i % 8 of byte i // 8 across all atoms, read as a
    # binary numeral with atom 0 as its lowest digit.
    family = {node: int(raw[i // 8::width].translate(_BIT_TO_DIGIT[7 - i % 8])[::-1], 2)
              for i, node in enumerate(level)}
    return SetSystem(names, {})._with_masks(family)


def _maximal(families: list[tuple], points: list[tuple], related) -> list[tuple]:
    """The families that no outside point extends, `related` being symmetric.

    Each point's mask holds its own bit and those of the points related to
    it, so the AND of a family's masks holds the family and every point that
    extends it: the family is maximal iff that AND has as many bits as the
    family has points."""
    fits = {pt: sum(1 << j for j, q in enumerate(points) if q == pt or related(pt, q))
            for pt in points}
    return [fam for fam in families
            if reduce(and_, map(fits.__getitem__, fam)).bit_count() == len(fam)]


def grid_witness(s: int, k: int, strong: bool = False) -> SetSystem:
    """An s x s family passing the grid check with k = 2 (hence any k).

    Universe: the maximal strict chains of the square (maximal chains when
    strong); b_(i,j) collects the chains through (i,j).  Incomparable points
    never share a chain, and every (strict) chain extends to a maximal one.
    """
    _require_k(k)
    _require_side(s)
    points = grid_points(s)
    if strong:
        maximal = _maximal(chains(s, 2 * s - 1), points, comparable)
    else:
        maximal = _maximal(strict_chains(s, s), points,
                           lambda p, q: strictly_below(p, q) or strictly_below(q, p))
    names = ("{" + ";".join(f"{i},{j}" for i, j in fam) + "}" for fam in maximal)
    return _facet_system(points, sorted(zip(names, maximal)))


def graph_witness(graph, materialize: bool = False):
    """A vertex-indexed family that is consistent exactly on independent sets.

    By default a predicate oracle; with materialize=True, a set system whose
    atoms are the maximal independent sets.
    """
    masks = graph.adjacency_masks()

    if not materialize:
        def predicate(family):
            seen = 0
            for v in family:
                if masks[v] & seen:
                    return False
                seen |= 1 << v
            return True

        return PredicateOracle(range(graph.n), predicate)

    mis = _maximal_independent_sets(graph.n, masks)
    names = ("{" + ",".join(map(str, group)) + "}" for group in mis)
    return _facet_system(range(graph.n), sorted(zip(names, mis)))


def _maximal_independent_sets(n: int, masks) -> list[tuple]:
    """The maximal independent sets, as sorted vertex tuples in sorted order.

    They are the maximal cliques of the complement, listed by the
    Bron-Kerbosch walk with a pivot over vertex masks, on an explicit stack.
    The complement's vertex pairs are held to the budget before any mask is
    made, and the sets as they are found.
    """
    require_within(n * (n - 1) // 2, f"graph witness on {n} vertices would have", "vertex pairs")
    full = (1 << n) - 1
    others = [full & ~masks[v] & ~(1 << v) for v in range(n)]  # non-neighbours
    out = []
    stack = [(0, full, 0)] if n else []
    while stack:
        chosen, candidates, excluded = stack.pop()
        if not candidates | excluded:
            out.append(mask_indices(chosen))
            require_within(len(out), "graph witness lists at least", "maximal independent sets")
            continue
        # Every maximal set still reachable holds the pivot or one of its
        # neighbours in the graph, so only those open a branch.
        pivot = max(mask_indices(candidates | excluded),
                    key=lambda u: (candidates & others[u]).bit_count())
        for v in mask_indices(candidates & ~others[pivot]):
            stack.append((chosen | 1 << v, candidates & others[v], excluded & others[v]))
            candidates &= ~(1 << v)
            excluded |= 1 << v
    return sorted(out)


def triangle_free_demo(length: int):
    """Finite pair-indexed demo separating two consistency behaviors.

    Index t stands for the endpoint pair (u_t, v_t) in a graph whose only
    edges run from v_i to u_j for i < j.  A family of pairs counts as
    consistent when its endpoints form an independent set (a fresh common
    neighbor could then be attached without creating a triangle).  On the
    p side every 2-subfamily hits an edge; the q side has no edges at all.
    """
    if length < 2:
        raise ArgumentError(f"length must be at least 2, got {length}")
    require_within(binom(length, 2), f"triangle-free demo of length {length} has", "pairs")
    indices = range(length)

    def p_predicate(family):
        # An edge of the family's endpoints runs from some v_i to a u_j with
        # i < j, so only the family's own indices are looked up.
        endpoints = {(side, t) for t in family for side in ("u", "v")}
        return not any(("u", j) in endpoints
                       for side, i in endpoints if side == "v" for j in family if j > i)

    def q_predicate(family):
        return True

    return (PredicateOracle(indices, p_predicate),
            PredicateOracle(indices, q_predicate))


def demo_edges(length: int) -> Iterator[tuple]:
    """The edges of the demo graph, drawn one at a time: endpoints named
    ("u", t) and ("v", t)."""
    return ((("v", i), ("u", j)) for i, j in combinations(range(length), 2))
