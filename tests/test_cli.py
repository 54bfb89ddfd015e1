import io
import json
import os
import random
import subprocess
import sys
import time
from collections.abc import Iterator
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cli_fixtures import build_workdir, golden_commands, run_cli
from comblab import cli, patterns, transforms
from comblab.errors import ComblabError
from comblab.index_core import decode, enumerate_level
from comblab.patterns import SetSystem, encode_index
from helpers import MALFORMED_SET_SYSTEMS, materialized, reference_from_json

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return build_workdir(tmp_path_factory.mktemp("cli"))


def test_golden_commands_stable_and_match(workdir):
    update = os.environ.get("COMBLAB_UPDATE_GOLDEN") == "1"
    for name, argv, expected_code in golden_commands(workdir):
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == expected_code, (name, code1)
        assert out1 == out2, f"{name} not byte-stable across runs"
        golden_path = GOLDEN_DIR / f"{name}.txt"
        if update:
            golden_path.write_text(out1)
        else:
            assert golden_path.exists(), f"missing golden file for {name}"
            assert out1 == golden_path.read_text(), f"{name} deviates from golden file"


def test_bridge_to_graph_depth2_weave(workdir):
    code, out, _ = run_cli(["bridge", "to-graph", "--cotree", str(workdir / "cotree.json"),
                            "--in", str(workdir / "weave2.json")])
    assert code == 0
    payload = json.loads(out)
    assert {entry["index"] for entry in payload["family"]} == {"0", "1", "2"}


def test_exit_code_usage(workdir):
    code, _, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _, _ = run_cli(["check-weave", "--depth", "1", "-k", "1", "-m", "1",
                          "-n", "1", "--in", str(workdir / "weave1.json")])
    assert code == 2


def test_negative_max_violations_rejected(workdir):
    commands = (
        ["check-weave", "--depth", "1", "-k", "2", "-m", "1", "-n", "omega",
         "--strong", "--in", str(workdir / "weave1.json")],
        ["check-grid", "--size", "3", "-k", "2", "--in", str(workdir / "grid3.json")],
        ["check-graph-pattern", "--graph", str(workdir / "k2.json"),
         "--in", str(workdir / "graphw.json")],
    )
    for argv in commands:
        code, out, err = run_cli(argv + ["--max-violations", "-1"])
        assert (code, out) == (2, ""), argv
        assert "max_violations" in err
        code, out, _ = run_cli(argv + ["--max-violations", "0"])
        assert code == 0 and json.loads(out)["ok"]


def test_duplicate_index_rejected(workdir, tmp_path):
    # With the last duplicate winning, the empty set below used to surface as
    # three bogus consistency violations (exit 1).
    payload = json.loads((workdir / "weave1.json").read_text())
    payload["family"].append({"index": payload["family"][0]["index"], "set": []})
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["check-weave", "--depth", "1", "-k", "2", "-m", "1",
                              "-n", "omega", "--strong", "--in", str(path)])
    assert (code, out) == (2, "")
    assert "duplicate index '0'" in err


SET_SYSTEM_ERRORS = MALFORMED_SET_SYSTEMS + [
    ({"universe": ["a", "b"], "family": [{"index": "-", "set": ["a", "zz"]}]},
     r"family\[0\]: atom 'zz' is not in the universe"),
    ({"universe": ["a"], "family": [{"index": "-", "set": ["a"]}, {"index": "-", "set": []}]},
     r"family\[1\]: duplicate index '-'"),
    # [""] is folded to an empty text, which `split` gave back as itself: its
    # repr recursed without end.
    ({"universe": ["a"], "family": [{"index": "-", "set": [""]}]},
     r"family\[0\]: atom '' is not in the universe"),
    ({"universe": [1, 2], "family": [{"index": "-", "set": ["1", "2"]}]},
     r"family\[0\]: atom '1' must have the type of the universe's atoms \(int\)"),
    ({"universe": ["a", {"set": ["a", "b"]}], "family": []},
     r"universe\[1\] must be a JSON scalar, got \{'set': \['a', 'b'\]\}"),
]


def test_malformed_set_system_rejected_with_location(tmp_path, monkeypatch):
    # A top-level list used to surface as a bare TypeError, and a string set
    # was read as its characters, so such a file passed the check.  The CLI
    # folds each set's atoms while it decodes the file; its errors must still
    # be those of from_json, location included, from a file and from stdin.
    path = tmp_path / "system.json"
    for payload, where in SET_SYSTEM_ERRORS:
        text = json.dumps(payload)
        with pytest.raises(ComblabError, match=where) as expected:
            SetSystem.from_json(json.loads(text), decode)
        path.write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        for source in (str(path), "-"):
            argv = ["check-weave", "--depth", "0", "-k", "2", "--strong", "--in", source]
            assert run_cli(argv) == (2, "", f"error: {expected.value}\n"), (payload, source)


@pytest.mark.parametrize("payload", [
    # atoms holding the separator the reader joins sets with
    {"universe": ["a\nb", "a", "b", "\n"],
     "family": [{"index": "-", "set": ["a\nb", "b"]}, {"index": "0", "set": ["a", "b"]},
                {"index": "1", "set": ["\n"]}]},
    {"universe": [3, 1, 2], "family": [{"index": "-", "set": [1, 3]}, {"index": "0", "set": []}]},
    {"universe": ["x"], "family": [{"index": "-", "set": []}, {"index": "0", "set": ["x"]}]},
    {"universe": ["x", "y"], "family": [{"index": "-", "set": ["x", "x", "y"]}]},
    {"universe": ["", "a"], "family": [{"index": "-", "set": ["", ""]}, {"index": "0", "set": [""]}]},
])
def test_set_system_file_reader_matches_from_json(tmp_path, monkeypatch, payload):
    text = json.dumps(payload)
    expected = SetSystem.from_json(json.loads(text), decode)
    path = tmp_path / "system.json"
    path.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    for system in (cli._load_system(str(path), "node"), cli._load_system("-", "node")):
        assert (system.universe, system.family) == (expected.universe, expected.family)
        assert materialized(system.to_json()) == materialized(expected.to_json())


def _packing_payloads(rng):
    """Set-system payloads for the block packer: string universes in and out
    of order, sets sorted and not, repeated, empty and unknown atoms, atoms
    with the separator or none at all, int universes, and structural errors
    before and after an atom error."""
    names = sorted({"".join(rng.choice("ab\n") for _ in range(rng.randrange(4)))
                    for _ in range(12)})
    wide = [f"w{i:05d}" for i in range(9000)]  # crosses the default block's edges

    def entries(universe, strange):
        out = []
        for i in range(rng.randrange(7)):
            atoms = [rng.choice(universe) for _ in range(rng.randrange(8))] if universe else []
            if rng.random() < 0.5:
                atoms = sorted(set(atoms), key=universe.index)
            if rng.random() < 0.2:
                atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(strange))
            out.append({"index": "0" * i or "-", "set": atoms})
        if out and rng.random() < 0.3:
            out.insert(rng.randrange(len(out) + 1), rng.choice([
                {"set": []}, {"index": "0", "set": "a"}, {"index": "x", "set": []},
                {"index": "0" * rng.randrange(len(out)) or "-", "set": []}, "-"]))
        return out

    yield from [
        # an atom error, then a structural one, in either order
        {"universe": ["a", "b"],
         "family": [{"index": "-", "set": ["b", "q", "a"]}, {"index": "x", "set": []}]},
        {"universe": ["a", "b"],
         "family": [{"index": "0", "set": []}, {"index": "-", "set": ["q"]}, {"set": []}]},
        {"universe": ["a", "b"],
         "family": [{"index": "-", "set": ["a"]}, {"index": "-", "set": ["q"]}]},
        # unknown atoms in several entries: the first entry's first one
        {"universe": ["a", "b", "c"],
         "family": [{"index": "-", "set": ["a"]}, {"index": "0", "set": ["c", "r", "a", "q"]},
                    {"index": "1", "set": ["p"]}]},
        {"universe": ["c", "a", "b"],
         "family": [{"index": "-", "set": ["b", "a", "a", ""]}, {"index": "0", "set": ["c"]}]},
        {"universe": [], "family": [{"index": "-", "set": []}, {"index": "0", "set": ["a"]}]},
        {"universe": ["", "\n", "a\nb"],
         "family": [{"index": "-", "set": ["", ""]}, {"index": "0", "set": ["a\nb", ""]},
                    {"index": "1", "set": ["\n", "a"]}]},
    ]
    for _ in range(60):
        universe = rng.sample(names, rng.randrange(len(names) + 1))
        if rng.random() < 0.5:
            universe.sort()
        yield {"universe": universe,
               "family": entries(universe, ["zz", "", "a\nz", 7, ["a"], {"b": 1}])}
    for _ in range(10):
        universe = rng.sample(range(20), 8)
        yield {"universe": universe, "family": entries(universe, [99, "a", 1.5, True])}
    for _ in range(4):
        universe = wide if rng.random() < 0.7 else rng.sample(wide, len(wide))
        family = [{"index": "0" * i or "-",
                   "set": sorted(rng.sample(wide, rng.randrange(1, 3000)))} for i in range(3)]
        for entry in rng.sample(family, rng.randrange(3)):
            entry["set"].insert(rng.randrange(len(entry["set"])), "w0999x")
        yield {"universe": universe, "family": family}


@pytest.mark.parametrize("block", [1, 2, 3, None])
def test_block_packing_matches_the_sequential_reader(tmp_path, monkeypatch, block):
    # from_json packs the folded sets one universe block at a time; masks,
    # or the error raised and its message, must be those of checking and
    # packing the entries one by one, from a folded file or plain lists.
    def outcome(read):
        try:
            system = read()
        except ComblabError as err:
            return type(err), str(err)
        return system.universe, system.family, f"in_order={system._in_order}"

    if block is not None:
        monkeypatch.setattr(patterns, "_PACK_BLOCK", block)
    path = tmp_path / "system.json"
    rng = random.Random(0xC0FFEE + (block or 0))
    kinds = {"is not in the universe", "duplicate index", "bad index", "must be an object",
             "needs a 'set' list", "must have the type", "in_order=True", "in_order=False"}
    seen = set()
    for payload in _packing_payloads(rng):
        text = json.dumps(payload)
        path.write_text(text)
        want = outcome(lambda: reference_from_json(json.loads(text), decode))
        seen.update(kind for kind in kinds if kind in str(want[-1]))
        assert outcome(lambda: SetSystem.from_json(json.loads(text), decode)) == want, text
        folded = lambda: cli._read_json(str(path), SetSystem.fold_entry)  # noqa: E731
        assert outcome(lambda: reference_from_json(folded(), decode)) == want, text
        assert outcome(lambda: SetSystem.from_json(folded(), decode)) == want, text
    assert seen == kinds


def test_block_packing_needs_no_universe_index(monkeypatch):
    # Sets in name order over a universe in name order are packed from the
    # blocks' own dicts alone; the universe-wide index is built only when a
    # name misses its block.
    universe = [f"w{i:05d}" for i in range(9000)]
    family = [{"index": "-", "set": universe[::3]}, {"index": "0", "set": universe[4000:4100]}]
    built = []
    monkeypatch.setattr(SetSystem, "_atom_id", property(
        lambda system: built.append(1) or {name: i for i, name in enumerate(system.universe)}))
    for unsorted in (False, True):
        if unsorted:
            family[1]["set"].reverse()
        payload = {"universe": universe, "family": [SetSystem.fold_entry(dict(entry))
                                                    for entry in family]}
        system = SetSystem.from_json(payload, decode)
        assert system.atom_names(system.set_of(decode("0"))) == universe[4000:4100]
        assert bool(built) == unsorted


def test_fold_entry_joins_string_sets_only():
    fold = SetSystem.fold_entry
    folded = fold({"index": "-", "set": ["a", "b"]})["set"]
    assert folded == "a\nb" and repr(folded) == repr(["a", "b"])
    for atoms in ([], ["a\nb", "c"], ["a", 1], [["a"]]):
        assert fold({"index": "-", "set": list(atoms)})["set"] == atoms
    assert fold({"set": "ab"}) == {"set": "ab"}


@pytest.mark.parametrize("command, text, message", [
    # json used to keep the last value: the edge was dropped, and the
    # cotree command printed a union cotree with exit 0.
    (["cotree", "--in", "{f}"], '{"n":2,"edges":[[0,1]],"edges":[]}',
     "duplicate key 'edges' in a JSON object"),
    (["strongify", "--in", "{f}"],
     '{"universe":["a"],"universe":["b"],"family":[{"index":"-","set":["b"]}]}',
     "duplicate key 'universe' in a JSON object"),
    (["strongify", "--in", "{f}"],
     '{"universe":["a"],"family":[{"index":"-","set":["a"],"set":[]}]}',
     "duplicate key 'set' in a JSON object"),
    # NaN and the infinities were read, and written back out, as non-JSON.
    (["strongify", "--in", "{f}"],
     '{"universe":[NaN,Infinity],"family":[{"index":"-","set":[NaN]}]}',
     "NaN is not a JSON number"),
    (["strongify", "--in", "{f}"], '{"universe":[-Infinity],"family":[]}',
     "-Infinity is not a JSON number"),
    (["find-p4", "--in", "{f}"], '{"n":2,"edges":[[0,1e400]]}',
     "number 1e400 is out of range"),
])
def test_json_input_must_be_strict(tmp_path, command, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [arg.format(f=path) for arg in command]
    assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_output_refuses_non_json_numbers():
    for value in (float("nan"), float("inf"), [float("-inf")]):
        with pytest.raises(ValueError):
            cli._ENCODE(value)


def test_cotree_of_a_deep_cograph(tmp_path):
    # The threshold graph (each odd vertex joined to every earlier one) has a
    # cotree 1,099 inner vertices deep.  json cannot read that text back, so
    # the expected outputs are built here, one level at a time.
    n = 1100
    path = tmp_path / "threshold.json"
    path.write_text(json.dumps({"n": n, "edges": [[u, v] for v in range(1, n, 2)
                                                  for u in range(v)]}))
    text = '{"op":"leaf","v":0}'
    for v in range(1, n):
        op = "join" if v % 2 else "union"
        text = f'{{"children":[{text},{{"op":"leaf","v":{v}}}],"op":"{op}"}}'
    assert run_cli(["cotree", "--in", str(path)]) == (0, text + "\n", "cograph\n")
    # Pre-order numbers: the inner vertex above leaf v is n - 1 - v, and leaf
    # v is n - 1 + v; the edge to a child follows the child's subtree.
    lines = [f'  n{n - 1 - v} [label="{"join" if v % 2 else "union"}"];'
             for v in range(n - 1, 0, -1)]
    lines += ['  n{} [label="v0"];'.format(n - 1), f"  n{n - 2} -> n{n - 1};"]
    for v in range(1, n):
        parent = n - 1 - v
        if v > 1:  # the edge to the inner vertex below, after its subtree
            lines.append(f"  n{parent} -> n{parent + 1};")
        lines += [f'  n{n - 1 + v} [label="v{v}"];', f"  n{parent} -> n{n - 1 + v};"]
    dot = "\n".join(["digraph T {"] + lines + ["}"]) + "\n"
    assert run_cli(["cotree", "--in", str(path), "--dot"]) == (0, dot, "cograph\n")


def test_exit_code_missing_file():
    code, _, _ = run_cli(["find-p4", "--in", "/nonexistent/graph.json"])
    assert code == 2


def test_exit_code_resource():
    code, _, err = run_cli(["enum-combs", "--depth", "9", "--kind", "wide-right",
                            "-n", "omega", "--max-size", "8"])
    assert code == 3
    assert "resource" in err.lower() or "limit" in err.lower()


def test_refusals_exit_3_before_building(monkeypatch):
    # Each guard counts what its command would build, against the one
    # budget, and refuses (exit 3, nothing on stdout) before building it.
    for argv, count in ((["grid-embed", "--depth", "11"], "level 11 would have 4194304 nodes"),
                        (["comb-graph", "--depth", "6"], "8386560 vertex pairs"),
                        (["verify-paper", "--max-depth", "5"], "8386560 grid-embedding pairs"),
                        (["triangle-free-demo", "--len", "100000"], "4999950000 pairs")):
        start = time.perf_counter()
        code, out, err = run_cli(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (3, ""), argv
        assert f"{count}, over the limit 2000000" in err, argv
    # The budget moves every guard, the CLI's included: depth 2 needs 16 nodes.
    argv = ["enum-combs", "--depth", "2", "--kind", "up", "-n", "1", "--max-size", "1"]
    monkeypatch.setattr("comblab.errors.BUDGET", 16)
    assert run_cli(argv)[0] == 0
    monkeypatch.setattr("comblab.errors.BUDGET", 15)
    assert run_cli(argv)[:2] == (3, "")


def test_generic_chain_density_failure(tmp_path):
    payload = {"elements": ["a", "b"], "order": [["a", "b"]],
               "dense": [{"name": "reach-z", "members": []}],
               "start": "a", "steps": 1}
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(["generic-chain", "--in", str(path)])
    assert code == 1
    assert json.loads(out)["requirement"] == "reach-z"


def test_verify_paper_passes():
    code, out, _ = run_cli(["verify-paper", "--max-depth", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and all(c["ok"] for c in payload["checks"])


def test_verify_paper_at_depth_0():
    # The bridges check used to fail with "cotree needs depth 1"; it runs at
    # depth 1 at least and says so.
    code, out, _ = run_cli(["verify-paper", "--max-depth", "0"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 12 and all(c["ok"] for c in checks)
    [bridges] = [c for c in checks if c["name"] == "bridges"]
    assert bridges["detail"].endswith("at d=1")


def test_verify_paper_catches_classifier_mutation(monkeypatch):
    from comblab import combs
    from comblab.combs import UP_ONE, WIDE_RIGHT_ONE

    real = combs.classify_pair

    def broken(a, b):
        verdict = real(a, b)
        if a.startswith("0") and b.startswith("1"):
            return WIDE_RIGHT_ONE if verdict == UP_ONE else UP_ONE
        return verdict

    monkeypatch.setattr("comblab.combs.classify_pair", broken)
    code, _, _ = run_cli(["verify-paper", "--max-depth", "1"])
    assert code == 1


def test_verify_paper_resource_error_exits_3(monkeypatch):
    from comblab.errors import ResourceError

    def refused(max_depth):
        raise ResourceError("pair sweep over the limit")

    monkeypatch.setattr("comblab.verify._pair_dichotomy", refused)
    code, out, err = run_cli(["verify-paper", "--max-depth", "1"])
    assert (code, out) == (3, "")
    assert "pair sweep over the limit" in err


def test_verify_paper_other_errors_fail_the_check(monkeypatch):
    def broken(length):
        raise RuntimeError("broken core")

    monkeypatch.setattr("comblab.verify._triangle_demo", broken)
    code, out, _ = run_cli(["verify-paper", "--max-depth", "1"])
    assert code == 1
    [check] = [c for c in json.loads(out)["checks"] if c["name"] == "triangle-demo"]
    assert not check["ok"] and "broken core" in check["detail"]


def test_verify_paper_catches_base_table_mutation(monkeypatch):
    bad = {"0": (0, 1), "1": (1, 0), "2": (2, 3), "3": (3, 3)}
    monkeypatch.setattr("comblab.transforms.BASE_OFFSETS", bad)
    code, _, _ = run_cli(["verify-paper", "--max-depth", "1"])
    assert code == 1


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "verdict.json"
    code, out, _ = run_cli(["classify-pair", "00", "01", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"verdict": "UpOne"}


def test_outputs_stable_across_hash_seeds(tmp_path):
    # run the whole golden table in two fresh interpreters with different
    # hash seeds; any hidden set-iteration-order dependence would show here
    script = (
        "import sys, json, tempfile\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from pathlib import Path\n"
        "from cli_fixtures import build_workdir, golden_commands, run_cli\n"
        "root = build_workdir(Path(tempfile.mkdtemp()))\n"
        "for name, argv, expected in golden_commands(root):\n"
        "    code, out, _ = run_cli(argv)\n"
        "    assert code == expected, (name, code)\n"
        "    print('===', name)\n"
        "    print(out, end='')\n"
    )
    outputs = []
    for seed in ("1", "271828"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_directory_paths_exit_2(tmp_path):
    # IsADirectoryError used to escape run() as a traceback.
    for argv in (["check-weave", "--depth", "1", "-k", "2", "--in", str(tmp_path)],
                 ["witness", "weave", "--depth", "1", "--out", str(tmp_path)]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert "Is a directory" in err


def test_deeply_nested_json_exits_3(tmp_path):
    # json's decoder recurses once per nesting level: input nested past the
    # interpreter's limit is a resource refusal, and its message carries no
    # Python repr of the decoder's RecursionError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["find-p4", "--in", str(path)])
    assert (code, out) == (3, "")
    assert err == "resource bound: input is nested too deeply to decode\n"


POSET = {"elements": ["a", "b"], "order": [["a", "b"]],
         "dense": [{"name": "reach-b", "members": ["b"]}], "start": "a"}


@pytest.mark.parametrize("command, payload, where", [
    # A top-level list used to print "malformed input: TypeError(...)".
    (["find-p4", "--in", "{f}"], [1, 2], "graph must be a JSON object"),
    (["cotree", "--in", "{f}"], [1, 2], "graph must be a JSON object"),
    (["embed-cograph", "--in", "{f}"], [1, 2], "cotree must be a JSON object"),
    (["realizable", "--in", "{f}"], [1, 2], "template must be a JSON object"),
    (["generic-chain", "--in", "{f}"], [1, 2], "poset must be a JSON object"),
    (["pullback", "--map", "{f}", "--in", "{root}/weave2.json"], [1, 2],
     "index map must be a JSON object"),
    (["check-graph-pattern", "--graph", "{f}", "--in", "{root}/graphw.json"], [1, 2],
     "graph must be a JSON object"),
    (["find-p4", "--in", "{f}"], {"n": 2, "edges": [[0]]}, "edges[0] must be a pair"),
    (["embed-cograph", "--in", "{f}"], {"op": "leaf"}, "cotree needs 'v' as an integer"),
    (["realizable", "--in", "{f}"],
     {"indices": ["a", "b"], "must_consist": [["a"], [["b"]]], "must_k_inconsist": [],
      "k": 2}, "must_consist[1] must be a list of names"),
    (["generic-chain", "--in", "{f}"],
     dict(POSET, dense=[{"name": "reach-b", "members": [["b"]]}]),
     "dense[0].members must be a list of names"),
    (["generic-chain", "--in", "{f}"], dict(POSET, order=[["a"]]),
     "order[0] must be a pair of elements"),
    (["generic-chain", "--in", "{f}"], dict(POSET, start="z"), "start 'z' is not an element"),
    (["generic-chain", "--in", "{f}"], dict(POSET, steps="2"), "'steps' must be an integer"),
    # A list atom used to fail as an unhashable type, and an unknown atom did
    # not name its family entry.
    (["check-weave", "--depth", "0", "-k", "2", "--in", "{f}"],
     {"universe": [["a"]], "family": [{"index": "-", "set": []}]}, "universe[0]"),
    (["check-weave", "--depth", "0", "-k", "2", "--in", "{f}"],
     {"universe": ["a"], "family": [{"index": "-", "set": [["a"]]}]},
     "family[0]: atom ['a'] is not in the universe"),
    (["check-weave", "--depth", "0", "-k", "2", "--in", "{f}"],
     {"universe": ["a"], "family": [{"index": "-", "set": ["zz"]}]},
     "family[0]: atom 'zz' is not in the universe"),
    # A list grid index used to raise IndexError out of run().
    (["check-grid", "--size", "1", "-k", "2", "--in", "{f}"],
     {"universe": ["a"], "family": [{"index": [], "set": ["a"]}]}, "family[0]: bad index []"),
    (["pullback", "--map", "{f}", "--in", "{root}/weave2.json"],
     {"depth": 0, "codomain": "grid", "map": [["-", [0]]]},
     "map[0]: grid target [0] is not an integer pair"),
])
def test_json_readers_reject_bad_shapes_with_location(workdir, tmp_path, command,
                                                      payload, where):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [arg.format(f=path, root=workdir) for arg in command]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, ""), err
    assert where in err and "malformed input" not in err


@pytest.mark.parametrize("command, message", [
    # Each of these used to exit 0 or 1, or fail without naming the value.
    (["check-grid", "--size", "3", "-k", "2", "--cap", "-3", "--in", "{root}/grid3.json"],
     "cap must be an integer >= 1, got -3"),
    (["check-grid", "--size", "3", "-k", "2", "--cap", "0", "--in", "{root}/grid3.json"],
     "cap must be an integer >= 1, got 0"),
    (["check-graph-pattern", "--cap", "0", "--graph", "{root}/k2.json",
      "--in", "{root}/graphw.json"], "cap must be an integer >= 1, got 0"),
    (["verify-paper", "--max-depth", "-1"], "max_depth must be nonnegative, got -1"),
    (["grid-to-weave", "--depth", "-1", "--in", "{root}/grid16.json"],
     "depth must be nonnegative, got -1"),
    (["embed-cograph", "--in", "{root}/duplicate_leaf.json"], "duplicate leaf vertex 0"),
    (["witness", "grid", "--size", "0"], "grid side must be positive, got 0"),
    (["witness", "grid", "--size", "-2"], "grid side must be positive, got -2"),
    (["generic-chain", "--demo", "--horizon", "-5"], "horizon must be at least 1, got -5"),
    (["generic-chain", "--demo", "--horizon", "0"], "horizon must be at least 1, got 0"),
    # The literal reading applies to wide-right combs only; these ignored it.
    (["enum-combs", "--depth", "1", "--kind", "up", "--max-size", "2", "--literal"],
     "the reading switch only applies to wide-right combs"),
    (["check-weave", "--depth", "1", "-k", "2", "--literal", "--in", "{root}/weave1.json"],
     "the reading switch only applies to wide-right combs"),
])
def test_contract_violations_exit_2(workdir, command, message):
    (workdir / "duplicate_leaf.json").write_text(json.dumps(
        {"op": "union", "children": [{"op": "leaf", "v": 0}, {"op": "leaf", "v": 0}]}))
    code, out, err = run_cli([arg.format(root=workdir) for arg in command])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("command, refusal", [
    (["witness", "grid", "--size", "2", "--depth", "5", "--genuine-k", "-n", "3"],
     "unrecognized arguments: --depth 5 --genuine-k -n 3"),
    (["witness", "weave", "--depth", "1", "--strong", "--size", "9"],
     "unrecognized arguments: --strong --size 9"),
    (["witness", "graph", "--graph", "{root}/k2.json", "-k", "3"], "unrecognized arguments: -k 3"),
    (["witness", "weave"], "the following arguments are required: --depth"),
    (["generic-chain", "--demo", "--in", "{root}/poset.json"],
     "argument --in: not allowed with argument --demo"),
    (["generic-chain"], "one of the arguments --in --demo is required"),
    (["strongify", "--depth", "1", "--in", "{root}/weave2.json"],
     "argument --in: not allowed with argument --depth"),
    (["strongify"], "one of the arguments --depth --in is required"),
    (["bridge", "to-weave", "--depth", "1", "--cotree", "{root}/cotree.json",
      "--in", "{root}/combpattern.json"], "unrecognized arguments: --cotree"),
    (["bridge", "to-graph", "--depth", "1", "--cotree", "{root}/cotree.json",
      "--in", "{root}/weave2.json"], "unrecognized arguments: --depth 1"),
    (["bridge", "to-graph", "--in", "{root}/weave2.json"],
     "the following arguments are required: --cotree"),
])
def test_flags_a_mode_does_not_read_are_refused(workdir, command, refusal):
    # Each of these used to run, its extra flags read by no one.
    code, out, err = run_cli([arg.format(root=workdir) for arg in command])
    assert (code, out) == (2, "")
    assert refusal in err


def _run_template(tmp_path, **fields):
    path = tmp_path / "template.json"
    path.write_text(json.dumps(
        {"indices": [], "must_consist": [], "must_k_inconsist": [], "k": 2, **fields}))
    return run_cli(["realizable", "--in", str(path)])


@pytest.mark.parametrize("fields, message", [
    # 1, true and 1.0 used to collapse into one index by Python equality, and
    # "1" and 1 were written alike: this exited 0 with two entries indexed "1".
    ({"indices": ["1", 1, True, 1.0], "must_consist": [["1"], [1]]},
     "indices[1]: index 1 is the same as indices[0], '1'"),
    ({"indices": [1, True]}, "indices[1]: index True is the same as indices[0], 1"),
    ({"indices": [2, 1, 1.0]}, "indices[2]: index 1.0 is the same as indices[1], 1"),
    ({"indices": ["a", "b", "a"]}, "indices[2]: index 'a' is the same as indices[0], 'a'"),
    ({"indices": [None, "None"]}, "indices[1]: index 'None' is the same as indices[0], None"),
    # A member equal to an index of another JSON type used to be read as it.
    ({"indices": [1], "must_consist": [[True]]},
     "must_consist[0]: True is not an index, though it equals the index 1"),
    ({"indices": [1, 2], "must_k_inconsist": [[2, 1.0]]},
     "must_k_inconsist[0]: 1.0 is not an index, though it equals the index 1"),
    ({"indices": [1], "must_consist": [["1"]]}, "constraint sets must be subsets of the indices"),
])
def test_realizable_refuses_colliding_indices(tmp_path, fields, message):
    code, out, err = _run_template(tmp_path, **fields)
    assert (code, out) == (2, ""), err
    assert message in err


def test_realizable_keeps_indices_of_every_json_type(tmp_path):
    code, out, _ = _run_template(tmp_path, indices=[1, "a", 2.5, None],
                                 must_consist=[[1, "a"], [2.5, None]],
                                 must_k_inconsist=[[1, "a", 2.5, None]], k=3)
    assert code == 0
    assert json.loads(out) == {"universe": ["c0", "c1"], "family": [
        {"index": "1", "set": ["c0"]}, {"index": "2.5", "set": ["c1"]},
        {"index": "None", "set": ["c1"]}, {"index": "a", "set": ["c0"]}]}


def test_realizable_decides_large_templates_at_once(tmp_path):
    # The verdict reads each group's overlap with each must-consist set: this
    # scanned C(34, 17) subsets for more than 20 s.  A realizable template's
    # re-check is held to the budget before it tests a subfamily.
    for must_consist, expected, message in (
            ([list(range(17))], 1, "not realizable"),
            ([[0]], 3, "17-inconsistency check would test 2333606220 subfamilies")):
        start = time.perf_counter()
        code, _, err = _run_template(tmp_path, indices=list(range(34)),
                                     must_consist=must_consist,
                                     must_k_inconsist=[list(range(34))], k=17)
        assert time.perf_counter() - start < 1.0, expected
        assert code == expected and message in err, err


@pytest.mark.parametrize("kind, position, index, good", [
    # The vertex decoder was int(), so an index true or 1.5 was read as
    # vertex 1 and the check passed; grid coordinates were read the same way.
    ("vertex", 1, True, 1), ("vertex", 1, 1.5, 1), ("vertex", 1, "1.0", 1),
    ("vertex", 1, " 1", 1), ("vertex", 1, "+1", 1), ("vertex", 1, "\u0661", 1),
    ("grid", 3, [True, 1], [1, 1]), ("grid", 3, [1.5, 1], [1, 1]),
    ("grid", 3, " 1,1", [1, 1]), ("grid", 3, "1,1.0", [1, 1]),
])
def test_index_integers_must_be_integers(workdir, tmp_path, kind, position, index, good):
    if kind == "vertex":
        source = workdir / "graphw.json"
        command = ["check-graph-pattern", "--graph", str(workdir / "k2.json"), "--in"]
    else:
        source = tmp_path / "grid2.json"
        assert run_cli(["witness", "grid", "--size", "2", "--out", str(source)])[0] == 0
        command = ["check-grid", "--size", "2", "-k", "2", "--in"]
    payload = json.loads(source.read_text())
    payload["family"][position]["index"] = index
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(command + [str(path)])
    assert (code, out) == (2, ""), err
    assert f"family[{position}]: bad index" in err
    payload["family"][position]["index"] = good  # JSON integers are still read
    path.write_text(json.dumps(payload))
    assert run_cli(command + [str(path)])[0] == 0


def test_mixed_type_universe_exits_2(workdir, tmp_path):
    # One atom renamed to a number used to fail in a later sort with an
    # unlocated TypeError.
    payload = json.loads((workdir / "weave2.json").read_text())
    old = payload["universe"][3]
    payload["universe"][3] = 7
    for entry in payload["family"]:
        entry["set"] = [7 if atom == old else atom for atom in entry["set"]]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["strongify", "--in", str(path)])
    assert (code, out) == (2, ""), err
    assert "universe[3] must have the type of universe[0]" in err
    assert "TypeError" not in err


def test_grid_chain_count_exits_3(tmp_path):
    # A set system is checked on its maximal chains, not on every chain: the
    # strict 8 x 8 witness under the product order has 3,432 of them against
    # 12,451,583 chains, so it is checked, and fails on its tied chains.  The
    # 13 x 13 square's 2,704,156 maximal chains are refused before the walk.
    path = tmp_path / "grid8.json"
    code, _, err = run_cli(["witness", "grid", "--size", "8", "--out", str(path)])
    assert code == 0, err
    start = time.perf_counter()
    code, out, err = run_cli(["check-grid", "--size", "8", "-k", "9", "--strong",
                              "--in", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 1, err
    report = json.loads(out)
    assert report["violations_truncated"] and len(report["violations"]) == 10
    assert all(v["certificate"] == {"structure": "chain"} for v in report["violations"])
    path = tmp_path / "grid13.json"
    path.write_text(json.dumps({"universe": ["a"], "family": [
        {"index": f"{i},{j}", "set": ["a"]} for i in range(13) for j in range(13)]}))
    start = time.perf_counter()
    code, out, err = run_cli(["check-grid", "--size", "13", "-k", "2", "--strong",
                              "--in", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, ""), err
    assert "2704156 maximal chains, over the limit" in err


def test_find_p4_on_the_empty_graph(tmp_path):
    # The empty graph has no induced four-path, but no cotree either.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    code, out, err = run_cli(["find-p4", "--in", str(path)])
    assert (code, out) == (0, "null\n"), err
    code, out, err = run_cli(["cotree", "--in", str(path)])
    assert (code, out) == (2, ""), err
    assert "nonempty graph" in err


def test_huge_graph_exits_3(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10 ** 9, "edges": []}))
    code, out, err = run_cli(["find-p4", "--in", str(path)])
    assert (code, out) == (3, ""), err
    assert "over the limit" in err


def test_set_atoms_must_have_the_universe_type(workdir, tmp_path):
    # Atoms were looked up by value, so with universe [1, 2] the set [true]
    # was read as atom 1 and [2.0] as atom 2, and this pattern passed.
    payload = {"universe": [1, 2], "family": [{"index": 0, "set": [True]},
                                              {"index": 1, "set": [2.0]}]}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(payload))
    argv = ["check-graph-pattern", "--graph", str(workdir / "k2.json"), "--in", str(path)]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, ""), err
    assert "family[0]: atom True must have the type of the universe's atoms (int)" in err
    payload["family"][0]["set"], payload["family"][1]["set"] = [1], [2]
    path.write_text(json.dumps(payload))
    assert run_cli(argv)[0] == 0


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("payload", [
    {}, [], None, "", 0, [[]], [{}], {"a": {}}, {"a": []},
    [[1, [2, [3, []]]], [], {"b": [{}], "a": None}],
    {"a\"b": ["a\"b", {"\u00e9": "\u00e9"}], "\u00e9": {"": [None, 1.5, True]}},
    {10: "ten", 2: ["two"], -1: {}},  # sorted as integers, written as strings
    {False: 0, True: 1}, {1.5: "x", 0.25: "y"},
    {"x": {"b": {"d": 1, "c": [2]}, "a": [{"z": 1, "y": 2}]}},
])
def test_emit_writes_the_text_of_json_dumps(tmp_path, payload):
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(payload, "-")
    target = tmp_path / "out.json"
    cli._emit(payload, str(target))
    assert out.getvalue() == target.read_text(encoding="utf-8") == _dumps(payload)


class _Name(str):
    pass


_SLICE = cli._SLICE_SIZE
_ESCAPED = ['a"b', "back\\slash", "tab\there", "\x00\x1f", "\x7f", "\u00e9", "\u2028",
            "\u65e5\u672c", "\ud800", '","', "", ","]


@pytest.mark.parametrize("items", [
    [], _ESCAPED, [_Name("x"), "y", _Name('"'), _Name("")],
    ["\x7f"], ["\x1f"], ["a\x7fb"], ["x", "a\x1fb"], ['"'], ["\\"], ["x", '"', "y"],
    ['a","b'], ['","'], ["x", "y", "z\\"], ["x"] * (_SLICE - 1) + ['a"b'],
    list(range(-3, 4)), [0.1, 1e300, -0.0, 2.5, 10 ** 30], [True, False, None],
    [[1, 2], [3, "4"], []], ["a", 1, None, [2, "\n"], {"b": "c"}, 1.5, True, _Name("z")],
    [{"b": 1, "a": ["x", 2]}, "x", [1]],
    [f"atom{i}" for i in range(_SLICE)], [f"atom{i}" for i in range(_SLICE + 1)],
    ["x"] * _SLICE + ['"'], ['"'] + ["x"] * _SLICE, _ESCAPED * (_SLICE // 6),
    list(range(_SLICE + 1)), ["x"] * _SLICE + [1], [1] * _SLICE + ["x"],
])
def test_pieces_encode_lists_as_json_dumps(items):
    # A list that is not of dicts is encoded a slice at a time, and a slice
    # of strings needing no escape is joined rather than encoded: the text
    # must still be json's, string by string, at the slice edges too.
    for value in (items, {"universe": items, "family": [{"index": "0", "set": items}]}):
        assert "".join(cli._pieces(value)) + "\n" == _dumps(value)


def test_pieces_draw_dicts_alone_and_other_items_in_batches():
    # A dict item is drawn only when the one before it is written, so a
    # set system's family names one set at a time; other items are drawn
    # and encoded a batch at a time, not through a generator each.
    drawn = []

    def counted(items):
        for item in items:
            drawn.append(item)
            yield item

    entries = [{"index": str(i), "set": [str(i)]} for i in range(5)]
    text = ""
    for piece in cli._pieces(counted(entries)):
        text += piece
        assert len(drawn) <= text.count('"index"') + 1, text
    assert text + "\n" == _dumps(entries)
    drawn.clear()
    rows = [[i, str(i)] for i in range(2 * _SLICE + 1)]
    text, seen = "", []
    for piece in cli._pieces(counted(rows)):
        text += piece
        seen.append(len(drawn))
    assert seen == [_SLICE, 2 * _SLICE, 2 * _SLICE + 1, 2 * _SLICE + 1]
    assert text + "\n" == _dumps(rows)


def test_plain_names_are_joined_without_the_encoder(monkeypatch):
    # A slice of names needing no escape is written between quotes: a fast
    # path that always fell back to the encoder would still write json's text.
    calls = []
    real = cli._ENCODE
    monkeypatch.setattr(cli, "_ENCODE", lambda value: calls.append(value) or real(value))
    names = [f"{i:05d} ,[]{{}}'~" for i in range(10_000)]
    assert "".join(cli._pieces(names)) + "\n" == _dumps(names)
    assert calls == []


_NAME_PARTS = ["a", "b", "z", " ", ",", '"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
               '","', '""']


def _random_systems(rng):
    """(system, index encoder) pairs: string universes in and out of name
    order with names that need every kind of escape, int universes, an empty
    family, empty sets, and a grid family scaled by `eps-scale`."""
    level = enumerate_level(2)
    for trial in range(60):
        if trial % 5 == 4:
            universe = rng.sample(range(-50, 50), rng.randrange(1, 12))
        else:
            universe = sorted({"".join(rng.choice(_NAME_PARTS) for _ in range(rng.randrange(4)))
                               for _ in range(rng.randrange(1, 25))})
            if trial % 2:
                rng.shuffle(universe)
        family = {node: [atom for atom in universe if rng.random() < 0.5]
                  for node in rng.sample(level, rng.randrange(len(level) + 1))}
        yield SetSystem(universe, family), encode_index
    wide = [f"w{i:05d}" for i in range(9000)]  # crosses the default slice's edges
    wide[rng.randrange(9000)] = 'w"'
    yield SetSystem(wide, {node: [atom for atom in wide if rng.random() < 0.5]
                           for node in level[:3]}), encode_index
    yield SetSystem(["a"], {}), encode_index
    points = [(i, j) for i in range(3) for j in range(3)]
    grid = SetSystem(["p", 'q"', "r"], {pt: rng.sample(["p", 'q"', "r"], rng.randrange(4))
                                        for pt in points})
    yield transforms.epsilon_scale(grid), cli._encode_eps_index


@pytest.mark.parametrize("slice_size", [1, 2, 3, cli._SLICE_SIZE])
def test_lazy_set_system_writes_the_text_of_json_dumps(tmp_path, monkeypatch, slice_size):
    # `to_json` names each set only when the writer reaches it; the text must
    # be json's for the same data, read from `universe` and `atom_names`.
    monkeypatch.setattr(cli, "_SLICE_SIZE", slice_size)
    target = tmp_path / "system.json"
    for system, enc in _random_systems(random.Random(slice_size)):
        value = {"universe": sorted(system.universe),
                 "family": [{"index": enc(index), "set": system.atom_names(system.set_of(index))}
                            for index in sorted(system.indices, key=enc)]}
        payload = system.to_json(enc)
        assert isinstance(payload["family"], Iterator)
        cli._emit(payload, str(target))
        assert target.read_text(encoding="utf-8") == _dumps(value)


def test_emit_makes_few_writes():
    # Under PYTHONUNBUFFERED every write to stdout is a system call, so one
    # write per list item took twice as long as json.dumps on a 61 MB witness.
    class CountingStdout(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    payload = {"universe": [f"atom{i}" for i in range(100_000)], "family": []}
    out = CountingStdout()
    with redirect_stdout(out):
        cli._emit(payload, "-")
    assert out.getvalue() == _dumps(payload)
    assert out.writes <= len(out.getvalue()) // cli._WRITE_SIZE + 1
    # The depth-3 weave witness's shape: 64 sets of about 29,000 names each,
    # written one set at a time as `to_json` names them.
    rng = random.Random(64)
    universe = [f"{i:05d}" for i in range(58_000)]
    system = SetSystem(universe, {})._with_masks(
        {node: rng.getrandbits(len(universe)) for node in enumerate_level(3)})
    out = CountingStdout()
    with redirect_stdout(out):
        cli._emit(system.to_json(), "-")
    assert out.getvalue() == _dumps(materialized(system.to_json()))
    assert out.writes <= len(out.getvalue()) // cli._WRITE_SIZE + 1


def test_emit_matches_json_dumps_on_every_golden_payload(workdir, tmp_path, monkeypatch):
    emitted = []
    real = cli._emit

    def recording(payload, out_path, raw=None):
        payload = materialized(payload)
        emitted.append((payload, raw))
        real(payload, out_path, raw)

    monkeypatch.setattr(cli, "_emit", recording)
    for name, argv, expected_code in golden_commands(workdir):
        emitted.clear()
        code, out, _ = run_cli(argv)
        [(payload, raw)] = emitted
        assert code == expected_code
        text = raw if raw is not None else _dumps(payload)
        assert out == text, name
        target = tmp_path / f"{name}.out"
        assert run_cli(argv + ["--out", str(target)])[:2] == (expected_code, "")
        assert target.read_text(encoding="utf-8") == text, name


@pytest.mark.parametrize("argv, code, summary", [
    (["classify-pair", "00", "01"], 0, "UpOne\n"),
    (["witness", "weave", "--depth", "2"], 0, "universe of 288 atom(s)\n"),
    (["find-p4", "--in", "{root}/p4.json"], 1, "induced four-path [0, 1, 2, 3]\n"),
])
def test_closed_stdout_ends_the_output_quietly(workdir, argv, code, summary):
    # The reader is gone before anything is written.  This used to exit 2
    # with "error: [Errno 32] Broken pipe"; now the output stops, the exit
    # code and the summary stay, and nothing is printed at shutdown.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "comblab.cli"] + [a.format(root=workdir) for a in argv],
            stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, summary)


# Runs the CLI from a small interpreter and prints its exit code and peak RSS:
# a child's ru_maxrss also counts the process it was forked from, so the CLI
# is not started from this one.
PEAK_LAUNCHER = (
    "import os, sys\n"
    "argv = [sys.executable, '-m', 'comblab.cli', *sys.argv[1:]]\n"
    "_, status, usage = os.wait4(os.spawnv(os.P_NOWAIT, sys.executable, argv), 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def peak_of(argv):
    """The exit code and the peak RSS in KB of one CLI invocation, which
    must write its output with --out."""
    proc = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, *argv],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    return code, peak_kb


@pytest.fixture(scope="module")
def weave3(tmp_path_factory):
    """The depth-3 omega weave witness (332,928 atoms, 61 MB), written by
    the CLI, with the exit code and peak RSS of the command that wrote it."""
    path = tmp_path_factory.mktemp("weave3") / "weave3.json"
    code, peak_kb = peak_of(["witness", "weave", "--depth", "3", "--out", str(path)])
    return path, code, peak_kb


def test_triangle_demo_is_held_to_its_pair_count(monkeypatch, tmp_path):
    # Each pair was checked against every edge, so --len 160 took 4.3 s and
    # --len 100000 ran on unrefused.  The first refused length is refused
    # before anything is built, at about the peak of a command refused at once.
    path = str(tmp_path / "demo.json")
    noop_code, noop_kb = peak_of(["triangle-free-demo", "--len", "1", "--out", path])
    code, peak_kb = peak_of(["triangle-free-demo", "--len", "2001", "--out", path])
    assert (noop_code, code) == (2, 3) and peak_kb < noop_kb + 2048, (peak_kb, noop_kb)
    monkeypatch.setattr("comblab.errors.BUDGET", 6)  # C(4, 2)
    assert run_cli(["triangle-free-demo", "--len", "4"])[0] == 0
    code, out, err = run_cli(["triangle-free-demo", "--len", "5"])
    assert (code, out) == (3, "")
    assert "triangle-free demo of length 5 has 10 pairs, over the limit 6" in err


def test_enum_combs_writes_each_comb_as_it_is_reached(tmp_path):
    # Every comb was made as a frozenset, and then as a sorted list of
    # texts, before the first was written: depth 3's wide-right combs up to
    # size 8 peaked at 317 MB.  Each row is now made when the writer
    # reaches its table position.
    code, peak_kb = peak_of(["enum-combs", "--depth", "3", "--kind", "wide-right",
                             "--max-size", "8", "--out", str(tmp_path / "combs.json")])
    assert code == 0
    assert peak_kb < 160 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


def test_weave_witness_depth_3_peak_memory(weave3):
    # The whole JSON text (61 MB) used to be built, and then joined, after
    # the witness: the command peaked at 242 MB.  Written piece by piece,
    # with the witness's intermediates freed early, it peaked at 117 MB, and
    # near 85 MB once the comb table died with the witness's own reference.
    # With the atoms made in name order from the masks, instead of sorted by
    # name, and no atom index built to tell them distinct, it peaked at 71 MB;
    # with the atoms named in batches and string lists written by slices
    # rather than one name at a time, it peaked near 66 MB.  With each set
    # named only when the writer reaches it, and the comb masks replaced by
    # their keys in place, it peaks near 52 MB.
    _, code, peak_kb = weave3
    assert code == 0
    assert peak_kb < 56 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


def test_check_weave_depth_3_peak_memory(weave3, tmp_path):
    # json.load held every atom name of every set at once: the check peaked
    # at 262 MB.  With each set's atoms folded into one string while the file
    # is decoded, it peaks near 150 MB, while the file's text is decoded; the
    # masks are packed after that, one universe block at a time, and their
    # state (a byte per atom per set, 21 MB) must stay below that peak.
    path, _, _ = weave3
    code, peak_kb = peak_of(["check-weave", "--depth", "3", "-k", "2", "--strong",
                             "--in", str(path), "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert json.loads((tmp_path / "report.json").read_text())["ok"]
    assert peak_kb < 160 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"
