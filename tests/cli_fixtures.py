"""Shared CLI invocation table used by the CLI tests and the acceptance
suite's byte-stability criterion."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from comblab import cli

K2_JSON = {"n": 2, "edges": [[0, 1]]}
P4_JSON = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
TEMPLATE_JSON = {"indices": ["a", "b", "c"],
                 "must_consist": [["a", "b"], ["b", "c"]],
                 "must_k_inconsist": [["a", "b", "c"]],
                 "k": 3}
COTREE_JSON = {"op": "union", "children": [
    {"op": "join", "children": [{"op": "leaf", "v": 0}, {"op": "leaf", "v": 1}]},
    {"op": "leaf", "v": 2}]}
POSET_JSON = {"elements": ["a", "b", "c", "d"],
              "order": [["a", "b"], ["b", "c"], ["c", "d"]],
              "dense": [{"name": "past-b", "members": ["c", "d"]},
                        {"name": "reach-d", "members": ["d"]}],
              "start": "a",
              "steps": 2}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def build_workdir(root):
    """Write fixture inputs and chain the CLI-produced files commands load."""
    for name, payload in (("k2.json", K2_JSON), ("p4.json", P4_JSON),
                          ("template.json", TEMPLATE_JSON),
                          ("cotree.json", COTREE_JSON),
                          ("poset.json", POSET_JSON)):
        (root / name).write_text(json.dumps(payload))
    chain_outputs = {
        "weave1.json": ["witness", "weave", "--depth", "1", "-k", "2", "-m", "1", "-n", "omega"],
        "weave2.json": ["witness", "weave", "--depth", "2", "-k", "2", "-m", "1", "-n", "omega"],
        "grid2.json": ["witness", "grid", "--size", "2", "-k", "2"],
        "grid3.json": ["witness", "grid", "--size", "3", "-k", "2"],
        "grid16.json": ["witness", "grid", "--size", "4", "-k", "2"],
        "graphw.json": ["witness", "graph", "--graph", str(root / "k2.json")],
        "combgraph1.json": ["comb-graph", "--depth", "1"],
        "map.json": ["grid-embed", "--depth", "1"],
    }
    for name, argv in chain_outputs.items():
        code, out, _ = run_cli(argv)
        assert code == 0, (name, argv)
        (root / name).write_text(out)
    graph_payload = json.loads((root / "combgraph1.json").read_text())["graph"]
    (root / "combgraph1_graph.json").write_text(json.dumps(graph_payload))
    code, out, _ = run_cli(["witness", "graph", "--graph",
                            str(root / "combgraph1_graph.json")])
    assert code == 0
    (root / "combpattern.json").write_text(out)
    from comblab.index_core import encode, enumerate_level

    pairs = [[encode(node), encode(node) + "0" if node else "0"]
             for node in enumerate_level(1)]
    (root / "prefixmap.json").write_text(json.dumps(
        {"depth": 1, "codomain": "level", "map": pairs}))
    return root


def golden_commands(root):
    return [
        ("classify_pair", ["classify-pair", "00", "01"], 0),
        ("enum_combs_up", ["enum-combs", "--depth", "1", "--kind", "up",
                           "-n", "1", "--max-size", "2"], 0),
        ("enum_combs_wide", ["enum-combs", "--depth", "1", "--kind", "wide-right",
                             "-n", "omega", "--max-size", "4"], 0),
        ("enum_combs_wide_literal", ["enum-combs", "--depth", "2", "--kind", "wide-right",
                                     "-n", "omega", "--max-size", "3", "--literal"], 0),
        ("witness_weave", ["witness", "weave", "--depth", "1", "-k", "2",
                           "-m", "1", "-n", "omega"], 0),
        ("check_weave", ["check-weave", "--depth", "1", "-k", "2", "-m", "1",
                         "-n", "omega", "--strong", "--in", str(root / "weave1.json")], 0),
        ("check_weave_literal", ["check-weave", "--depth", "1", "-k", "2", "-m", "1",
                                 "-n", "omega", "--strong", "--literal",
                                 "--in", str(root / "weave1.json")], 0),
        ("witness_grid", ["witness", "grid", "--size", "3", "-k", "2"], 0),
        ("check_grid", ["check-grid", "--size", "3", "-k", "2",
                        "--in", str(root / "grid3.json")], 0),
        ("witness_graph", ["witness", "graph", "--graph", str(root / "k2.json")], 0),
        ("check_graph_pattern", ["check-graph-pattern", "--graph", str(root / "k2.json"),
                                 "--in", str(root / "graphw.json")], 0),
        ("realizable", ["realizable", "--in", str(root / "template.json")], 0),
        ("strongify_map", ["strongify", "--depth", "1"], 0),
        ("strongify_weave", ["strongify", "--in", str(root / "weave2.json")], 0),
        ("pullback", ["pullback", "--map", str(root / "prefixmap.json"),
                      "--in", str(root / "weave2.json")], 0),
        ("grid_embed", ["grid-embed", "--depth", "1"], 0),
        ("grid_to_weave", ["grid-to-weave", "--depth", "1",
                           "--in", str(root / "grid16.json")], 0),
        ("eps_scale", ["eps-scale", "--in", str(root / "grid2.json")], 0),
        ("cotree_p4", ["cotree", "--in", str(root / "p4.json")], 1),
        ("cotree_k2", ["cotree", "--in", str(root / "k2.json")], 0),
        ("find_p4", ["find-p4", "--in", str(root / "p4.json")], 1),
        ("comb_graph", ["comb-graph", "--depth", "1"], 0),
        ("comb_graph_dot", ["comb-graph", "--depth", "1", "--dot"], 0),
        ("embed_cograph", ["embed-cograph", "--in", str(root / "cotree.json")], 0),
        ("bridge_to_weave", ["bridge", "to-weave", "--depth", "1",
                             "--in", str(root / "combpattern.json")], 0),
        ("bridge_to_graph", ["bridge", "to-graph", "--cotree", str(root / "cotree.json"),
                             "--in", str(root / "weave2.json")], 0),
        ("triangle_demo", ["triangle-free-demo", "--len", "4"], 0),
        ("generic_chain_demo", ["generic-chain", "--demo"], 0),
        ("generic_chain_table", ["generic-chain", "--in", str(root / "poset.json")], 0),
    ]
