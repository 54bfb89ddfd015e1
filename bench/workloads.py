"""Workload definitions: seeded set-up, the invocation list, and known answers.

A workload is a fixed list of `comblab` CLI invocations.  Its set-up writes
the inputs those invocations read into a work directory, choosing every
seeded input (mutation targets, the random cograph) from the benchmark seed;
the program only ever sees the generated files.  The set-up runs as its own
process, `python3 bench/workloads.py WORKLOAD SCALE SEED WORK_DIR`, because
a child's peak RSS includes its parent's peak at spawn time: the benchmark
process must stay small, and mutating the 61 MB weave witness would not.  Each invocation carries its
known answer: the exit code, a verdict check derived by construction, and,
where the output does not depend on the seed, the SHA-256 of its output
pinned in `answers.json`.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Scale:
    name: str
    weave_depth: int      # depth of the weave witnesses and checks
    bounded_n: int        # the n of the bounded witness, which must fail the n=omega check
    grid_size: int
    battery_depth: int    # verify-paper --max-depth
    comb_graph_depth: int
    cograph_vertices: int
    bridge_depth: int


FULL = Scale("full", weave_depth=3, bounded_n=2, grid_size=6, battery_depth=3,
             comb_graph_depth=4, cograph_vertices=18, bridge_depth=2)
# Seconds-long version of every workload, for the benchmark's self-test.
TOY = Scale("toy", weave_depth=2, bounded_n=1, grid_size=3, battery_depth=1,
            comb_graph_depth=2, cograph_vertices=8, bridge_depth=1)
SCALES = {s.name: s for s in (FULL, TOY)}


@dataclass
class Invocation:
    key: str
    args: list
    exit: int                                # expected exit code
    out: Optional[str] = None                # --out file; stdout is hashed otherwise
    inputs: tuple = ()                       # files read, for cli.bytes_in
    verdict: Optional[Callable] = None       # (output text) -> error or None
    after: Optional[Callable] = None         # glue run after the invocation, untimed


@dataclass
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json and README.md."""
    name: str
    setup: Callable          # (run_cli, work_dir, scale, seed) -> None, in its own process
    invocations: Callable    # (work_dir, scale, seed) -> list[Invocation]
    moves: tuple = field(default=())  # per-layer metrics that must record work here


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def _path(work: str, name: str) -> str:
    return os.path.join(work, name)


# --- verdicts ----------------------------------------------------------------


def _report(text: str) -> dict:
    report = json.loads(text)
    if not isinstance(report, dict) or "ok" not in report:
        raise ValueError("not a report")
    return report


def report_ok(text: str) -> Optional[str]:
    return None if _report(text)["ok"] is True else "report is not ok"


def report_failed(text: str) -> Optional[str]:
    return None if _report(text)["ok"] is False else "report is ok, expected a failure"


def only_violation(nodes: list) -> Callable:
    """The check of a weave family with one maximal comb's atom removed: that
    comb is the one and only violation."""
    def verdict(text: str) -> Optional[str]:
        report = _report(text)
        found = [(v["kind"], sorted(v["indices"])) for v in report["violations"]]
        if report["ok"] or report["violations_truncated"] or \
                found != [("Consistency", sorted(nodes))]:
            return f"expected the mutated comb {sorted(nodes)} as sole violation, got {found}"
        return None
    return verdict


def violations_inside(chain: list, point: str) -> Callable:
    """The check of a grid family with one maximal chain's atom removed at
    `point`: it fails, and every violated family is a chain inside that
    maximal chain through `point`, the only families that lost their last
    common atom."""
    def verdict(text: str) -> Optional[str]:
        report = _report(text)
        if report["ok"] or not report["violations"]:
            return "mutated grid family passed"
        for v in report["violations"]:
            if v["kind"] != "Consistency" or point not in v["indices"] or \
                    not set(v["indices"]) <= set(chain):
                return f"violation {v['indices']} is not inside the mutated chain"
        return None
    return verdict


def battery_ok(text: str) -> Optional[str]:
    payload = json.loads(text)
    failed = [c["name"] for c in payload["checks"] if not c["ok"]]
    if not payload["ok"] or failed or len(payload["checks"]) != 12:
        return f"verify-paper: {len(payload['checks'])} checks, failed {failed}"
    return None


def no_p4(text: str) -> Optional[str]:
    return None if json.loads(text) is None else "found a four-path in a cograph"


# --- inputs made by set-up ----------------------------------------------------


def mutate_weave(source: str, target: str, size: int, rng: random.Random) -> list:
    """Remove the atom of one seeded size-`size` comb from one of its nodes.

    Works on the text: the witness is compact JSON with sorted keys, so each
    node's entry reads {"index":"<node>","set":[...]}.  Returns the comb's nodes.
    """
    with open(source, encoding="utf-8") as handle:
        text = handle.read()
    head = text.rindex('"universe":')
    universe = json.loads(text[head + len('"universe":'):-2])
    wide = [atom for atom in universe if atom.count(",") == size - 1]
    atom = rng.choice(wide)
    nodes = atom[1:-1].split(",")
    node = rng.choice(nodes)
    entry = text.index('{"index":"%s","set":[' % node)
    stop = text.index("]}", entry)
    quoted = json.dumps(atom)
    at = text.index(quoted, entry, stop)
    if text[at + len(quoted)] == ",":
        cut = (at, at + len(quoted) + 1)
    else:
        cut = (at - 1, at + len(quoted))
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text[:cut[0]])
        handle.write(text[cut[1]:])
    return nodes


def mutate_grid(source: str, target: str, rng: random.Random) -> tuple:
    """Remove one seeded maximal chain's atom from one of its points."""
    with open(source, encoding="utf-8") as handle:
        payload = json.load(handle)
    atom = rng.choice(payload["universe"])
    chain = atom[1:-1].split(";")
    point = rng.choice(chain)
    for entry in payload["family"]:
        if entry["index"] == point:
            entry["set"].remove(atom)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return chain, point


def random_cograph(n: int, rng: random.Random) -> dict:
    """A cograph on n vertices: a cotree of fixed random shape (the shape
    drawn with the library's default seed) whose leaves get a seeded random
    labelling.  The shape fixes how many maximal independent sets the
    witness has, and so the work, which varies several-fold between shapes."""
    shape = random.Random(f"{0xC0FFEE}:cotree-shape")
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []

    def build(items: list, join: bool) -> None:
        if len(items) == 1:
            return
        parts = min(len(items), shape.randint(2, 3))
        cuts = sorted(shape.sample(range(1, len(items)), parts - 1))
        groups = [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])]
        if join:
            for i, g in enumerate(groups):
                for h in groups[i + 1:]:
                    edges.extend(sorted((u, v)) for u in g for v in h)
        for g in groups:
            build(g, not join)

    build(labels, shape.random() < 0.5)
    return {"n": n, "edges": sorted(edges)}


def prefix_map(d: int) -> dict:
    """The prefix-respecting map from level d-1 into level d that appends
    the letter (0,0) to every node."""
    level = [""]
    for _ in range(d - 1):
        level = [node + digit for node in level for digit in "0123"]
    return {"depth": d - 1, "codomain": "level",
            "map": [[node or "-", node + "0"] for node in level]}


def _extract_graph(source: str, target: str) -> None:
    with open(source, encoding="utf-8") as handle:
        graph = json.load(handle)["graph"]
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(graph, handle)


# --- weave-build ---------------------------------------------------------------


def _weave_build_setup(run_cli, work, scale, seed):
    pass  # nothing to generate: the program's own import warm-up is the set-up


def _weave_build(work, scale, seed):
    d = str(scale.weave_depth)
    return [
        Invocation("witness-weave-omega", ["witness", "weave", "--depth", d],
                   exit=0, out=_path(work, "built_omega.json")),
        Invocation("witness-weave-bounded",
                   ["witness", "weave", "--depth", d, "-n", str(scale.bounded_n)],
                   exit=0, out=_path(work, "built_bounded.json")),
    ]


# --- weave-check ---------------------------------------------------------------


def _weave_check_setup(run_cli, work, scale, seed):
    d = str(scale.weave_depth)
    run_cli(["witness", "weave", "--depth", d, "--out", _path(work, "omega.json")])
    run_cli(["witness", "weave", "--depth", d, "-n", str(scale.bounded_n),
             "--out", _path(work, "bounded.json")])
    nodes = mutate_weave(_path(work, "omega.json"), _path(work, "omega_mutated.json"),
                         2 ** scale.weave_depth, _rng(seed, "weave"))
    with open(_path(work, "mutated_comb.json"), "w", encoding="utf-8") as handle:
        json.dump(nodes, handle)


def _weave_check(work, scale, seed):
    base = ["check-weave", "--depth", str(scale.weave_depth), "-k", "2", "--strong"]
    omega, bounded = _path(work, "omega.json"), _path(work, "bounded.json")
    mutated = _path(work, "omega_mutated.json")
    with open(_path(work, "mutated_comb.json"), encoding="utf-8") as handle:
        nodes = json.load(handle)
    return [
        Invocation("check-weave-omega", base + ["--in", omega], exit=0,
                   inputs=(omega,), verdict=report_ok),
        Invocation("check-weave-bounded",
                   base + ["-n", str(scale.bounded_n), "--in", bounded], exit=0,
                   inputs=(bounded,), verdict=report_ok),
        Invocation("check-weave-bounded-as-omega", base + ["--in", bounded], exit=1,
                   inputs=(bounded,), verdict=report_failed),
        Invocation("check-weave-mutated", base + ["--in", mutated], exit=1,
                   inputs=(mutated,), verdict=only_violation(nodes)),
    ]


# --- battery-grid-graph ----------------------------------------------------------


def _battery_setup(run_cli, work, scale, seed):
    s = str(scale.grid_size)
    grid = _path(work, "grid_setup.json")
    run_cli(["witness", "grid", "--size", s, "--strong", "--out", grid])
    chain, point = mutate_grid(grid, _path(work, "grid_mutated.json"), _rng(seed, "grid"))
    with open(_path(work, "mutated_chain.json"), "w", encoding="utf-8") as handle:
        json.dump({"chain": chain, "point": point}, handle)
    bridge_graph = _path(work, "bridge_comb_graph.json")
    run_cli(["comb-graph", "--depth", str(scale.bridge_depth), "--out", bridge_graph])
    _extract_graph(bridge_graph, _path(work, "bridge_graph.json"))
    run_cli(["witness", "graph", "--graph", _path(work, "bridge_graph.json"),
             "--out", _path(work, "bridge_pattern.json")])
    with open(_path(work, "prefix_map.json"), "w", encoding="utf-8") as handle:
        json.dump(prefix_map(scale.bridge_depth), handle)
    graph = random_cograph(scale.cograph_vertices, _rng(seed, "cograph"))
    with open(_path(work, "cograph.json"), "w", encoding="utf-8") as handle:
        json.dump(graph, handle)


def _battery(work, scale, seed):
    s = str(scale.grid_size)
    grid, mutated = _path(work, "grid.json"), _path(work, "grid_mutated.json")
    with open(_path(work, "mutated_chain.json"), encoding="utf-8") as handle:
        target = json.load(handle)
    comb_graph = _path(work, "comb_graph.json")
    graph = _path(work, "comb_graph_graph.json")
    cograph, pattern = _path(work, "cograph.json"), _path(work, "cograph_pattern.json")
    bridge_pattern, bridged = _path(work, "bridge_pattern.json"), _path(work, "bridged.json")
    prefix = _path(work, "prefix_map.json")
    check_grid = ["check-grid", "--size", s, "-k", "2", "--strong", "--in"]
    return [
        Invocation("verify-paper",
                   ["verify-paper", "--max-depth", str(scale.battery_depth),
                    "--seed", str(seed)], exit=0, verdict=battery_ok),
        Invocation("witness-grid", ["witness", "grid", "--size", s, "--strong"],
                   exit=0, out=grid),
        Invocation("check-grid", check_grid + [grid], exit=0, inputs=(grid,),
                   verdict=report_ok),
        Invocation("check-grid-mutated", check_grid + [mutated], exit=1,
                   inputs=(mutated,),
                   verdict=violations_inside(target["chain"], target["point"])),
        Invocation("comb-graph", ["comb-graph", "--depth", str(scale.comb_graph_depth)],
                   exit=0, out=comb_graph,
                   after=lambda: _extract_graph(comb_graph, graph)),
        Invocation("cotree", ["cotree", "--in", graph], exit=0, inputs=(graph,)),
        Invocation("find-p4", ["find-p4", "--in", graph], exit=0, inputs=(graph,),
                   verdict=no_p4),
        Invocation("witness-graph", ["witness", "graph", "--graph", cograph],
                   exit=0, out=pattern, inputs=(cograph,)),
        Invocation("check-graph-pattern",
                   ["check-graph-pattern", "--graph", cograph, "--in", pattern],
                   exit=0, inputs=(cograph, pattern), verdict=report_ok),
        Invocation("bridge-to-weave",
                   ["bridge", "to-weave", "--depth", str(scale.bridge_depth),
                    "--in", bridge_pattern], exit=0, out=bridged, inputs=(bridge_pattern,)),
        Invocation("pullback", ["pullback", "--map", prefix, "--in", bridged], exit=0,
                   inputs=(prefix, bridged)),
    ]


_CLI = ("cli.startup_s", "cli.bytes_out")
_WEAVE = ("index_core.enumerate_level.calls", "combs.comb_entries.s",
          "combs.comb_entries.calls", "combs.comb_entries.entries",
          "patterns.SetSystem.init.s")

WORKLOADS = {w.name: w for w in (
    Workload(
        "weave-build",
        _weave_build_setup, _weave_build,
        moves=_CLI + _WEAVE + ("index_core.enumerate_level.s", "cli.json_dump.s",
                               "patterns.SetSystem.to_json.s", "patterns.weave_witness.s",
                               "patterns.weave_witness.self_s",
                               "patterns.weave_witness.atoms")),
    Workload(
        "weave-check",
        _weave_check_setup, _weave_check,
        moves=_CLI + _WEAVE + ("index_core.enumerate_level.s", "cli.json_load.s",
                               "cli.bytes_in", "patterns.SetSystem.from_json.s",
                               "patterns.check_weave.s", "patterns.check_weave.self_s",
                               "combs.is_comb.s", "combs.is_comb.calls",
                               "patterns.report.violations")),
    Workload(
        "battery-grid-graph",
        _battery_setup, _battery,
        moves=_CLI + ("cli.json_load.s", "cli.json_dump.s", "cli.bytes_in",
                      "combs.is_comb.s", "combs.is_comb.calls", "combs.classify_pair.calls",
                      "patterns.grid_witness.s", "patterns.check_grid.s",
                      "patterns.check_grid.self_s", "patterns.chains.s",
                      "patterns.strict_chains.s", "patterns.antichains_of_size.s",
                      "patterns.graph_witness.s", "patterns.check_graph_pattern.s",
                      "patterns.SetSystem.consistent.calls", "patterns.report.violations",
                      "cographs.comb_graph.s", "cographs.cotree_of.s", "cographs.find_p4.s",
                      "cographs.eval_cotree.s", "cographs.graph_to_weave_oracle.s",
                      "transforms.strongify_index.s", "transforms.pullback.s",
                      "transforms.grid_embed_index.s", "oracle.build_tree_comb_oracle.s",
                      "oracle.build_tree_comb_oracle.calls", "oracle.assignment_oracle.s",
                      "genericity.generic_chain.s", "verify.run_battery.s",
                      "verify.run_battery.self_s")),
)}


def main(argv: list) -> int:
    name, scale, seed, work = argv

    def run_cli(args: list) -> None:
        subprocess.run([sys.executable, "-m", "comblab.cli"] + args, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)

    WORKLOADS[name].setup(run_cli, work, SCALES[scale], int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
