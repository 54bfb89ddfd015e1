"""Command-line entry point.

JSON goes to stdout (or --out), a one-line human summary to stderr.  Exit
codes: 0 for ok/true, 1 for checked-and-failed, 2 for usage or contract
errors, 3 for resource bounds.  Outputs are byte-stable for a fixed
invocation and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from itertools import chain, combinations

from . import cographs as cographs_mod
from . import combs as combs_mod
from . import genericity as genericity_mod
from . import patterns as patterns_mod
from . import transforms as transforms_mod
from . import verify as verify_mod
from .combs import CombClass, LITERAL, OMEGA, RECURSIVE
from .errors import (ArgumentError, ComblabError, ParseError, ResourceError,
                     is_json_type, json_fields)
from .index_core import decode, encode, enumerate_level
from .patterns import DEFAULT_SEED, SetSystem

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _bound(value: str):
    if value in ("omega", "w"):
        return OMEGA
    try:
        return int(value)
    except ValueError:
        raise ArgumentError(f"expected an integer or 'omega', got {value!r}")


def _refuse_constant(name: str):
    raise ParseError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"number {text} is out of range")
    return value


def _read_json(path: str, fold=None):
    """The JSON value in `path` ("-" for stdin), strictly: a repeated key
    (json alone keeps the last value), NaN, Infinity or a number too large
    for a float is a ParseError, and input nested deeper than the decoder
    can follow is a ResourceError.  `fold`, when given, is applied to each
    object as it is decoded."""
    def make_object(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise ParseError(f"duplicate key {key!r} in a JSON object")
        return obj if fold is None else fold(obj)

    options = dict(object_pairs_hook=make_object, parse_constant=_refuse_constant,
                   parse_float=_finite_float)
    try:
        if path == "-":
            return json.load(sys.stdin, **options)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, **options)
    except RecursionError:
        raise ResourceError("input is nested too deeply to decode") from None


# The encoder behind `json.dumps(payload, sort_keys=True, separators=(",", ":"))`,
# refusing NaN and the infinities, which are not JSON.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_WRITE_SIZE = 1 << 16
_SLICE_SIZE = 1 << 12


def _pieces(value, depth: int = 4):
    """The text of `_ENCODE(value)` in pieces, an iterator standing for the
    list of its items: a dict, or a list of dicts, is opened `depth` levels
    deep (a dict's keys in sorted order), an iterator is written one item at
    a time as it is drawn, any other list is encoded `_SLICE_SIZE` items at
    a time, and each value below that is encoded whole, so no piece holds
    the whole text."""
    if depth and isinstance(value, list) and value and isinstance(value[0], dict):
        value = iter(value)
    if isinstance(value, Iterator):
        opening = "["
        for item in value:
            yield opening
            yield from _pieces(item, depth - 1)
            opening = ","
        yield "[]" if opening == "[" else "]"
    elif not depth or not value or not isinstance(value, (dict, list)):
        yield _ENCODE(value)
    elif isinstance(value, dict):
        opening = "{"
        for key in sorted(value):
            # json's own spelling of the key (`1` becomes `"1"`), cut out of
            # `{key:null}`
            yield opening + _ENCODE({key: None})[1:-6] + ":"
            yield from _pieces(value[key], depth - 1)
            opening = ","
        yield "}"
    else:
        opening = "["
        for start in range(0, len(value), _SLICE_SIZE):
            yield opening + _items_text(value[start:start + _SLICE_SIZE])
            opening = ","
        yield "]"


# Printable ASCII that json writes as it is: all but `"` and `\`.
_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b'"\\')


def _items_text(items: list) -> str:
    """`_ENCODE(items)` without its brackets.  When the strings joined on
    `","` are ASCII and hold no character outside `_PLAIN` but the
    separators' 2(n - 1) quotes, none needs an escape, and the joined text
    is written between quotes rather than escaped string by string."""
    try:
        text = '","'.join(items)
    except TypeError:  # an item is not a string
        return _ENCODE(items)[1:-1]
    if text.isascii() and len(text.encode("ascii").translate(None, _PLAIN)) == 2 * len(items) - 2:
        return '"' + text + '"'
    return _ENCODE(items)[1:-1]


def _batched(pieces):
    """The pieces joined into runs of at least `_WRITE_SIZE` characters (the
    last run may be shorter): an unbuffered stdout, as under
    PYTHONUNBUFFERED, makes one system call per write."""
    batch, length = [], 0
    for piece in pieces:
        batch.append(piece)
        length += len(piece)
        if length >= _WRITE_SIZE:
            yield "".join(batch)
            batch, length = [], 0
    yield "".join(batch)


def _emit(payload, out_path: str, raw: str = None) -> None:
    """Write `raw`, or the payload's JSON text and a newline, piece by piece.

    A reader that closes stdout early ends the output quietly: the rest is
    dropped and stdout is pointed at the null device, so the flush at exit
    does not fail again.
    """
    pieces = (raw,) if raw is not None else _batched(chain(_pieces(payload), "\n"))
    if out_path != "-":
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _finish(payload, out_path: str, summary: str, code: int = EXIT_OK) -> int:
    """Emit the payload and the summary line; return the exit code."""
    _emit(payload, out_path)
    _summary(summary)
    return code


def _decode_integer(raw) -> int:
    """A vertex or a grid coordinate: a string of decimal digits or a JSON
    integer; a boolean, a float or any other string is refused rather than
    read as a number."""
    if is_json_type(raw, int):
        return raw
    if isinstance(raw, str) and raw.isascii() and raw.isdigit():
        return int(raw)
    raise ParseError(f"expected decimal digits or an integer, got {raw!r}")


def _decode_grid_index(raw) -> tuple:
    parts = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(parts, list) or len(parts) != 2:
        raise ParseError(f"grid index must look like 'i,j', got {raw!r}")
    return (_decode_integer(parts[0]), _decode_integer(parts[1]))


_INDEX_DECODERS = {"node": decode, "grid": _decode_grid_index, "vertex": _decode_integer}


def _load_system(path: str, kind: str) -> SetSystem:
    return SetSystem.from_json(_read_json(path, SetSystem.fold_entry), _INDEX_DECODERS[kind])


def _report_exit(report, out_path: str) -> int:
    return _finish(report.to_json(), out_path,
                   "ok" if report.ok else
                   f"FAILED with {len(report.violations)} reported violation(s)",
                   EXIT_OK if report.ok else EXIT_FAILED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comblab",
        description="checkers, witnesses, and transforms for comb/weave/grid/cograph patterns")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, into=sub, **kwargs):
        p = into.add_parser(name, **kwargs)
        p.add_argument("--out", default="-", help="output path (default stdout)")
        p.set_defaults(handler=handler)
        return p

    p = add("enum-combs", _cmd_enum_combs, help="enumerate combs of a class at a depth")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--kind", choices=("up", "right", "wide-right"), required=True)
    p.add_argument("-n", default="omega", help="size bound for lower parts (or 'omega')")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--literal", action="store_true",
                   help="use the literal wide reading (parts must be narrow)")

    p = add("classify-pair", _cmd_classify_pair,
            help="up/wide dichotomy for two equal-depth nodes")
    p.add_argument("first")
    p.add_argument("second")

    p = add("check-weave", _cmd_check_weave,
            help="check the weave conditions on a node-indexed family")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-m", default="omega")
    p.add_argument("-n", default="omega")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--literal", action="store_true")
    p.add_argument("--in", dest="path", default="-")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--max-violations", type=int, default=10)

    p = add("check-grid", _cmd_check_grid,
            help="check the grid conditions on a square-indexed family")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--strong", action="store_true")
    p.add_argument("--in", dest="path", default="-")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--max-violations", type=int, default=10)

    p = add("check-graph-pattern", _cmd_check_graph_pattern,
            help="check a vertex-indexed family against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--in", dest="path", default="-")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--max-violations", type=int, default=10)

    p = add("realizable", _cmd_realizable,
            help="decide template realizability; emit a witness system")
    p.add_argument("--in", dest="path", default="-")

    # Each mode of `witness` and `bridge` reads only its own flags.
    p = sub.add_parser("witness", help="build a canonical passing family")
    modes = p.add_subparsers(dest="kind", required=True)
    p = add("weave", _cmd_witness, modes)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-m", default="omega")
    p.add_argument("-n", default="omega")
    p.add_argument("--genuine-k", action="store_true")
    p = add("grid", _cmd_witness, modes)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--strong", action="store_true")
    add("graph", _cmd_witness, modes).add_argument("--graph", required=True)

    p = add("strongify", _cmd_strongify,
            help="depth-doubling index map, or pull a family along it")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--depth", type=int)
    source.add_argument("--in", dest="path")

    p = add("pullback", _cmd_pullback, help="reindex a family along a prefix-respecting map")
    p.add_argument("--map", dest="map_path", required=True)
    p.add_argument("--in", dest="path", default="-")

    p = add("grid-embed", _cmd_grid_embed, help="embedding of a level into the square")
    p.add_argument("--depth", type=int, required=True)

    p = add("grid-to-weave", _cmd_grid_to_weave, help="pull a grid family back onto a level")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--in", dest="path", default="-")

    p = add("eps-scale", _cmd_eps_scale,
            help="reindex a grid family by symbolic infinitesimal scaling")
    p.add_argument("--in", dest="path", default="-")

    p = add("cotree", _cmd_cotree,
            help="recognize a cograph; emit its cotree or a four-path certificate")
    p.add_argument("--in", dest="path", default="-")
    p.add_argument("--dot", action="store_true")

    p = add("find-p4", _cmd_find_p4, help="first induced four-path, if any")
    p.add_argument("--in", dest="path", default="-")

    p = add("comb-graph", _cmd_comb_graph, help="the up-pair graph of a level, with its cotree")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--dot", action="store_true")

    p = add("embed-cograph", _cmd_embed_cograph, help="embed a cotree's vertices into a level")
    p.add_argument("--in", dest="path", default="-")

    p = sub.add_parser("bridge", help="move between graph patterns and level families")
    modes = p.add_subparsers(dest="direction", required=True)
    p = add("to-weave", _cmd_bridge, modes)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--in", dest="path", default="-")
    p = add("to-graph", _cmd_bridge, modes)
    p.add_argument("--cotree", required=True)
    p.add_argument("--in", dest="path", default="-")

    p = add("triangle-free-demo", _cmd_triangle_free_demo,
            help="pair-indexed demo: inconsistent pairs vs a free side")
    p.add_argument("--len", dest="length", type=int, required=True)

    p = add("generic-chain", _cmd_generic_chain, help="meet dense requirements through a poset")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="path")
    source.add_argument("--demo", action="store_true",
                        help="run the built-in binary-string length demo")
    p.add_argument("--steps", type=int)
    p.add_argument("--horizon", type=int, default=genericity_mod.DEFAULT_HORIZON)

    p = add("verify-paper", _cmd_verify_paper, help="run the structural self-check battery")
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED)

    return parser


def _cmd_enum_combs(args) -> int:
    cls = CombClass(args.kind, _bound(args.n), LITERAL if args.literal else RECURSIVE)
    combs = list(combs_mod.enumerate_combs(args.depth, cls, args.max_size))
    # Each node's text is made once: `encode` makes a new string per call.
    texts = {node: encode(node) for node in enumerate_level(args.depth)}
    payload = [sorted(map(texts.__getitem__, comb)) for comb in combs]
    return _finish(payload, args.out, f"{len(payload)} comb(s)")


def _cmd_classify_pair(args) -> int:
    verdict = combs_mod.classify_pair(decode(args.first), decode(args.second))
    return _finish({"verdict": verdict}, args.out, verdict)


def _cmd_check_weave(args) -> int:
    ci = _load_system(args.path, "node")
    report = patterns_mod.check_weave(
        ci, args.depth, args.k, _bound(args.m), _bound(args.n),
        strong=args.strong,
        reading=LITERAL if args.literal else RECURSIVE,
        cap=args.cap, max_violations=args.max_violations)
    return _report_exit(report, args.out)


def _cmd_check_grid(args) -> int:
    ci = _load_system(args.path, "grid")
    report = patterns_mod.check_grid(ci, args.size, args.k, strong=args.strong,
                                     cap=args.cap, max_violations=args.max_violations)
    return _report_exit(report, args.out)


def _cmd_check_graph_pattern(args) -> int:
    graph = cographs_mod.Graph.from_json(_read_json(args.graph))
    ci = _load_system(args.path, "vertex")
    report = patterns_mod.check_graph_pattern(ci, graph, cap=args.cap,
                                              max_violations=args.max_violations)
    return _report_exit(report, args.out)


def _names(value, where: str) -> list:
    """A JSON list of scalar names; anything else is a ParseError at `where`."""
    if not isinstance(value, list) or any(isinstance(v, (list, dict)) for v in value):
        raise ParseError(f"{where} must be a list of names, got {value!r}")
    return value


def _distinct_indices(indices: list) -> dict:
    """Each of a template's indices keyed by itself.  Two indices that are
    equal in Python (1, true and 1.0) or print the same through
    `encode_index` ("1" and 1) would be one index, or two written alike, so
    they are refused with their positions."""
    at = {}
    for pos, index in enumerate(indices):
        for key in ((index,), patterns_mod.encode_index(index)):
            earlier = at.setdefault(key, pos)
            if earlier != pos:
                raise ArgumentError(f"indices[{pos}]: index {index!r} is the same as "
                                    f"indices[{earlier}], {indices[earlier]!r}")
    return {index: index for index in indices}


def _group(value, where: str, indices: dict) -> list:
    """A template group whose members each match an index of the same JSON
    type and value; a member that is no index at all is left to
    `Template.make` to refuse."""
    for member in _names(value, where):
        index = indices.get(member, member)
        if type(index) is not type(member):
            raise ArgumentError(f"{where}: {member!r} is not an index, though it equals "
                                f"the index {index!r}")
    return value


def _cmd_realizable(args) -> int:
    indices, consist, inconsist, k = json_fields(
        _read_json(args.path), "template",
        indices=list, must_consist=list, must_k_inconsist=list, k=int)
    indices = _distinct_indices(_names(indices, "indices"))
    template = patterns_mod.Template.make(
        indices,
        [_group(group, f"must_consist[{pos}]", indices) for pos, group in enumerate(consist)],
        [_group(group, f"must_k_inconsist[{pos}]", indices)
         for pos, group in enumerate(inconsist)],
        k)
    system = patterns_mod.realizable(template)
    if system is None:
        return _finish(None, args.out, "not realizable", EXIT_FAILED)
    return _finish(system.to_json(), args.out, f"realizable with {len(system.universe)} atom(s)")


def _cmd_witness(args) -> int:
    if args.kind == "weave":
        system = patterns_mod.weave_witness(args.depth, args.k, _bound(args.m),
                                            _bound(args.n), genuine_k=args.genuine_k)
    elif args.kind == "grid":
        system = patterns_mod.grid_witness(args.size, args.k, strong=args.strong)
    else:
        graph = cographs_mod.Graph.from_json(_read_json(args.graph))
        system = patterns_mod.graph_witness(graph, materialize=True)
    return _finish(system.to_json(), args.out, f"universe of {len(system.universe)} atom(s)")


def _cmd_strongify(args) -> int:
    if args.path is None:
        fmap = transforms_mod.strongify_index(args.depth)
        return _finish(fmap.to_json(), args.out, f"map of {len(fmap.mapping)} node(s)")
    ci = _load_system(args.path, "node")
    pulled = transforms_mod.strongify_weave(ci)
    return _finish(pulled.to_json(), args.out, f"pulled back to {len(pulled.indices)} node(s)")


def _cmd_pullback(args) -> int:
    fmap = transforms_mod.IndexMap.from_json(_read_json(args.map_path))
    ci = _load_system(args.path, "node")
    pulled = transforms_mod.pullback(ci, fmap)
    return _finish(pulled.to_json(), args.out, f"pulled back to {len(pulled.indices)} node(s)")


def _cmd_grid_embed(args) -> int:
    fmap = transforms_mod.grid_embed_index(args.depth)
    return _finish(fmap.to_json(), args.out, f"map of {len(fmap.mapping)} node(s)")


def _cmd_grid_to_weave(args) -> int:
    ci = _load_system(args.path, "grid")
    pulled = transforms_mod.grid_to_weave(ci, args.depth)
    return _finish(pulled.to_json(), args.out, f"pulled back to {len(pulled.indices)} node(s)")


def _encode_eps_index(index) -> str:
    """An `eps-scale` index, a pair of symbolic coordinates, as JSON text."""
    return json.dumps([index[0].to_json(), index[1].to_json()], separators=(",", ":"))


def _cmd_eps_scale(args) -> int:
    ci = _load_system(args.path, "grid")
    scaled = transforms_mod.epsilon_scale(ci)
    return _finish(scaled.to_json(index_encoder=_encode_eps_index), args.out,
                   f"scaled {len(scaled.indices)} point(s)")


def _cmd_cotree(args) -> int:
    graph = cographs_mod.Graph.from_json(_read_json(args.path))
    result = cographs_mod.cotree_of(graph)
    if isinstance(result, cographs_mod.Cotree):
        # The text is built by the fold: json's encoder recurses once per level.
        _emit(None, args.out, raw=result.to_dot() if args.dot else
              result.fold(_leaf_text, _inner_text) + "\n")
        _summary("cograph")
        return EXIT_OK
    return _finish(result.to_json(), args.out, f"induced four-path {list(result)}", EXIT_FAILED)


def _leaf_text(vertex: int) -> str:
    return f'{{"op":"{cographs_mod.LEAF}","v":{vertex}}}'


def _inner_text(op: str, kids: list) -> str:
    return f'{{"children":[{",".join(kids)}],"op":"{op}"}}'


def _cmd_find_p4(args) -> int:
    graph = cographs_mod.Graph.from_json(_read_json(args.path))
    cert = cographs_mod.find_p4(graph)
    if cert is None:
        return _finish(None, args.out, "no induced four-path")
    return _finish(cert.to_json(), args.out, f"induced four-path {list(cert)}", EXIT_FAILED)


def _cmd_comb_graph(args) -> int:
    graph, tree = cographs_mod.comb_graph(args.depth)
    if args.dot:
        _emit(None, args.out, raw=graph.to_dot())
    else:
        _emit({"graph": graph.to_json(), "cotree": tree.to_json()}, args.out)
    _summary(f"{graph.n} vertices, {len(graph.edges)} edge(s)")
    return EXIT_OK


def _cmd_embed_cograph(args) -> int:
    tree = cographs_mod.Cotree.from_json(_read_json(args.path))
    depth, mapping = cographs_mod.embed_cograph(tree)
    payload = {"depth": depth,
               "map": {str(v): encode(node) for v, node in sorted(mapping.items())}}
    return _finish(payload, args.out, f"embedded {len(mapping)} vertex(es) at depth {depth}")


def _cmd_bridge(args) -> int:
    if args.direction == "to-weave":
        pattern = _load_system(args.path, "vertex")
        out = cographs_mod.graph_to_weave_oracle(pattern, args.depth)
        return _finish(out.to_json(), args.out, f"weave family on {len(out.indices)} node(s)")
    tree = cographs_mod.Cotree.from_json(_read_json(args.cotree))
    ci = _load_system(args.path, "node")
    out = cographs_mod.weave_to_graph_oracle(ci, tree)
    return _finish(out.to_json(), args.out, f"pattern on {len(out.indices)} vertex(es)")


def _cmd_triangle_free_demo(args) -> int:
    length = args.length
    p_side, q_side = patterns_mod.triangle_free_demo(length)
    # The pairs and edges, up to the budget's count of each, are written as
    # they are drawn; only the pairs' verdicts are held.
    pair_verdicts = [p_side.consistent(pair) for pair in combinations(range(length), 2)]
    payload = {
        "len": length,
        "edges": ([list(a), list(b)] for a, b in patterns_mod.demo_edges(length)),
        "p_singletons_consistent": all(p_side.consistent((i,)) for i in range(length)),
        "p_pairs_consistent": ([i, j, verdict] for (i, j), verdict
                               in zip(combinations(range(length), 2), pair_verdicts)),
        "q_full_family_consistent": q_side.consistent(range(length)),
    }
    ok = payload["p_singletons_consistent"] and not any(pair_verdicts) and \
        payload["q_full_family_consistent"]
    return _finish(payload, args.out, "demo holds" if ok else "demo violated",
                   EXIT_OK if ok else EXIT_FAILED)


def _cmd_generic_chain(args) -> int:
    if args.demo:
        poset = genericity_mod.binary_string_poset()
        dense = genericity_mod.length_requirements(5)
        start = ""
        steps = args.steps if args.steps is not None else 5
    else:
        payload = _read_json(args.path)
        elements, order, entries, start = json_fields(
            payload, "poset", elements=list, order=list, dense=list, start=object)
        for pos, pair in enumerate(order):
            if len(_names(pair, f"order[{pos}]")) != 2:
                raise ParseError(f"order[{pos}] must be a pair of elements, got {pair!r}")
        poset = genericity_mod.RequirementPoset.from_table(_names(elements, "elements"), order)
        if start not in elements:
            raise ParseError(f"poset start {start!r} is not an element")
        dense = []
        for pos, entry in enumerate(entries):
            name, members = json_fields(entry, f"dense[{pos}]", name=str, members=list)
            members = set(_names(members, f"dense[{pos}].members"))
            dense.append(genericity_mod.DensePredicate(name, members.__contains__))
        steps = payload.get("steps", len(dense)) if args.steps is None else args.steps
        if not is_json_type(steps, int):
            raise ParseError(f"poset 'steps' must be an integer, got {steps!r}")
    try:
        chain = genericity_mod.generic_chain(poset, dense, start, steps,
                                             horizon=args.horizon)
    except genericity_mod.DensityError as err:
        return _finish({"error": "density", "requirement": err.requirement,
                        "stuck_at": err.stuck_at}, args.out,
                       f"requirement {err.requirement!r} stuck at {err.stuck_at!r}", EXIT_FAILED)
    payload = [{"element": step.element, "satisfied": list(step.satisfied)}
               for step in chain]
    return _finish(payload, args.out, f"chain of {len(chain)} element(s)")


def _cmd_verify_paper(args) -> int:
    checks = verify_mod.run_battery(args.max_depth, args.seed)
    for check in checks:
        _summary(f"{'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    ok = all(check.ok for check in checks)
    _emit({"ok": ok, "checks": [check.to_json() for check in checks]}, args.out)
    return EXIT_OK if ok else EXIT_FAILED


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except ResourceError as err:
        _summary(f"resource bound: {err}")
        return EXIT_RESOURCE
    except (ComblabError, OSError) as err:
        _summary(f"error: {err}")
        return EXIT_USAGE
    except (KeyError, ValueError, TypeError, RecursionError) as err:
        _summary(f"malformed input: {err!r}")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
