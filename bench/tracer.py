"""Tracing shim for the benchmark's traced pass, and the aggregation of its spans.

Run as a program, it replaces `python -m comblab.cli` for one invocation:

    python3 bench/tracer.py SPANS_PREFIX SPAWN_NS INVOCATION_ID -- CLI_ARGS...

It imports the library, wraps every public function named in TARGETS at its
definition and at every module-level name it is re-bound to (for example
`patterns.comb_entries`, bound by `from .combs import ...`), then calls
`comblab.cli.run`.  Each wrapped call records a span (name, start, end,
parent span); spans stay in memory and are written out when the child exits,
as SPANS_PREFIX.json (names, counters, invocation id) and SPANS_PREFIX.bin
(the span arrays).  The parent folds them into per-layer metrics with
`aggregate`.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
import types
from array import array

# (span name, module, attribute path).  The span name is the per-layer
# metric prefix; `cli.run` only anchors `cli.startup_s`.
TARGETS = (
    ("cli.run", "comblab.cli", "run"),
    ("cli.json_load", "comblab.cli", "_read_json"),
    ("cli.json_dump", "comblab.cli", "_emit"),
    ("index_core.enumerate_level", "comblab.index_core", "enumerate_level"),
    ("combs.comb_entries", "comblab.combs", "comb_entries"),
    ("combs.is_comb", "comblab.combs", "is_comb"),
    ("combs.classify_pair", "comblab.combs", "classify_pair"),
    ("patterns.SetSystem.init", "comblab.patterns", "SetSystem.__init__"),
    ("patterns.SetSystem.from_json", "comblab.patterns", "SetSystem.from_json"),
    ("patterns.SetSystem.to_json", "comblab.patterns", "SetSystem.to_json"),
    ("patterns.SetSystem.consistent", "comblab.patterns", "SetSystem.consistent"),
    ("patterns.check_weave", "comblab.patterns", "check_weave"),
    ("patterns.weave_witness", "comblab.patterns", "weave_witness"),
    ("patterns.grid_witness", "comblab.patterns", "grid_witness"),
    ("patterns.check_grid", "comblab.patterns", "check_grid"),
    ("patterns.chains", "comblab.patterns", "chains"),
    ("patterns.strict_chains", "comblab.patterns", "strict_chains"),
    ("patterns.antichains_of_size", "comblab.patterns", "antichains_of_size"),
    ("patterns.graph_witness", "comblab.patterns", "graph_witness"),
    ("patterns.check_graph_pattern", "comblab.patterns", "check_graph_pattern"),
    ("cographs.comb_graph", "comblab.cographs", "comb_graph"),
    ("cographs.cotree_of", "comblab.cographs", "cotree_of"),
    ("cographs.find_p4", "comblab.cographs", "find_p4"),
    ("cographs.eval_cotree", "comblab.cographs", "eval_cotree"),
    ("cographs.graph_to_weave_oracle", "comblab.cographs", "graph_to_weave_oracle"),
    ("transforms.strongify_index", "comblab.transforms", "strongify_index"),
    ("transforms.pullback", "comblab.transforms", "pullback"),
    ("transforms.grid_embed_index", "comblab.transforms", "grid_embed_index"),
    ("oracle.build_tree_comb_oracle", "comblab.oracle", "build_tree_comb_oracle"),
    ("oracle.assignment_oracle", "comblab.oracle", "assignment_oracle"),
    ("genericity.generic_chain", "comblab.genericity", "generic_chain"),
    ("verify.run_battery", "comblab.verify", "run_battery"),
)


def _count_entries(counters, result):
    counters["combs.comb_entries.entries"] += len(result)


def _count_atoms(counters, result):
    counters["patterns.weave_witness.atoms"] += len(result.universe)


def _count_violations(counters, result):
    counters["patterns.report.violations"] += len(result.violations)


# Counters taken from a wrapped call's result, keyed by span name.
POST = {
    "combs.comb_entries": _count_entries,
    "patterns.weave_witness": _count_atoms,
    "patterns.check_weave": _count_violations,
    "patterns.check_grid": _count_violations,
    "patterns.check_graph_pattern": _count_violations,
}
COUNTERS = ("combs.comb_entries.entries", "patterns.weave_witness.atoms",
            "patterns.report.violations")


class Tracer:
    """In-memory span store: one array per field, indexed by span id."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.name = array("q")
        self.parent = array("q")
        self.nested = array("b")  # 1 when a span of the same name is open above it
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.open = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, fn, name_id: int, post=None):
        name, parent, nested, start, end = (self.name, self.parent, self.nested,
                                            self.start, self.end)
        stack, open_, counters = self.stack, self.open, self.counters
        clock = time.monotonic_ns

        def traced(*args, **kwargs):
            span = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            nested.append(open_[name_id] > 0)
            end.append(0)
            stack.append(span)
            open_[name_id] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                open_[name_id] -= 1
                stack.pop()
            if post is not None:
                post(counters, result)
            return result

        return traced

    def dump(self, prefix: str, spawn_ns: int, invocation: str) -> None:
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump({"invocation": invocation, "spawn_ns": spawn_ns,
                       "names": self.names, "counters": self.counters,
                       "spans": len(self.start)}, handle)
        with open(prefix + ".bin", "wb") as handle:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)
            self.nested.tofile(handle)


def _library_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if isinstance(m, types.ModuleType) and
            (name == "comblab" or name.startswith("comblab."))]


def install(tracer: Tracer) -> None:
    """Wrap every target at its definition and at every re-binding.

    Afterwards the only reference left to each original function must be its
    wrapper's closure; anything else (a module-level table, a default
    argument, a binding the scan missed) would let calls bypass the trace.
    """
    for _, module, _ in TARGETS:
        importlib.import_module(module)
    modules = _library_modules()
    originals = []
    for name_id, (name, module, path) in enumerate(TARGETS):
        owner = sys.modules[module]
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = tracer.wrap(fn, name_id, POST.get(name))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
        originals.append(fn)
    del raw, fn
    for ref in gc.get_referrers(*originals):
        if ref is originals or isinstance(ref, (types.CellType, types.FrameType)):
            continue
        missed = [TARGETS[i][0] for i in range(len(originals))
                  if any(item is originals[i] for item in gc.get_referents(ref))]
        raise SystemExit(f"tracer: {missed} still reachable untraced "
                         f"through a {type(ref).__name__}")


def main(argv: list[str]) -> int:
    prefix, spawn_ns, invocation, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_PREFIX SPAWN_NS INVOCATION_ID -- CLI_ARGS...")
    tracer = Tracer()
    install(tracer)
    from comblab import cli
    try:
        return cli.run(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(prefix, int(spawn_ns), invocation)


# --- parent side ------------------------------------------------------------


def load(prefix: str) -> dict:
    with open(prefix + ".json", encoding="utf-8") as handle:
        header = json.load(handle)
    n = header["spans"]
    columns = []
    with open(prefix + ".bin", "rb") as handle:
        for code in ("q", "q", "q", "q", "b"):
            column = array(code)
            column.fromfile(handle, n)
            columns.append(column)
    header["name"], header["parent"], header["start"], header["end"], header["nested"] = columns
    return header


def aggregate(header: dict) -> dict:
    """Per-name inclusive time (outermost spans only, so recursion is not
    double counted), self time (duration minus direct child spans) and call
    count for one invocation, plus its counters and `cli.startup_s`."""
    names, name, parent, start, end, nested = (header["names"], header["name"],
                                               header["parent"], header["start"],
                                               header["end"], header["nested"])
    n = len(start)
    child_ns = [0] * n
    for span in range(n):
        p = parent[span]
        if p >= 0:
            child_ns[p] += end[span] - start[span]
    incl = [0] * len(names)
    self_ns = [0] * len(names)
    calls = [0] * len(names)
    for span in range(n):
        k = name[span]
        dur = end[span] - start[span]
        calls[k] += 1
        self_ns[k] += dur - child_ns[span]
        if not nested[span]:
            incl[k] += dur
    out = dict(header["counters"])
    for k, label in enumerate(names):
        out[f"{label}.s"] = incl[k] / 1e9
        out[f"{label}.self_s"] = self_ns[k] / 1e9
        out[f"{label}.calls"] = calls[k]
    run_id = names.index("cli.run")
    runs = [start[span] for span in range(n) if name[span] == run_id]
    out["cli.startup_s"] = (runs[0] - header["spawn_ns"]) / 1e9 if runs else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
