"""The benchmark's tracer wraps library functions by name, so each name it
lists must resolve in the library: a rename or a deletion fails here, not
only in a traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _tracer()
    names = [name for name, _, _ in tracer.TARGETS]
    assert names and len(set(names)) == len(names)
    assert set(tracer.POST) <= set(names)
    for name, module, path in tracer.TARGETS:
        # The lookup `install` makes: the attribute path from the module,
        # then the last name in the owner's own namespace.
        owner = importlib.import_module(module)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), name
        raw = vars(owner)[attr]
        assert callable(getattr(raw, "__func__", raw)), name


def test_traced_witness_records_the_write_layers(tmp_path):
    # The traced weave-build run reads the witness's write side from these
    # spans: a write path that went round `to_json` or `_emit` would leave
    # them at zero.  `to_json` returns its family lazily, so the sets are
    # named inside `_emit`'s span; the file must not change under the tracer.
    prefix, out = str(tmp_path / "spans"), tmp_path / "weave1.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["witness", "weave", "--depth", "1", "--out"]
    proc = subprocess.run(
        [sys.executable, str(TRACER), prefix, str(time.monotonic_ns()), "weave1", "--",
         *argv, str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    plain = tmp_path / "untraced.json"
    subprocess.run([sys.executable, "-m", "comblab.cli", *argv, str(plain)], env=env,
                   check=True, capture_output=True, timeout=120)
    assert out.read_bytes() == plain.read_bytes()
    tracer = _tracer()
    spans = tracer.aggregate(tracer.load(prefix))
    for name in ("patterns.weave_witness", "patterns.SetSystem.to_json", "cli.json_dump"):
        assert spans[f"{name}.calls"] == 1 and spans[f"{name}.s"] > 0, name
    universe = json.loads(out.read_text(encoding="utf-8"))["universe"]
    assert spans["patterns.weave_witness.atoms"] == len(universe) == 8


def test_traced_check_records_the_read_layers(tmp_path):
    # The traced weave-check run reads the witness's read side from these
    # spans: a read path that went round `_read_json` or `from_json`, with
    # the packing moved into a helper of its own, would leave them at zero.
    path, prefix = tmp_path / "weave1.json", str(tmp_path / "spans")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "comblab.cli", "witness", "weave", "--depth", "1",
                    "--out", str(path)], env=env, check=True, capture_output=True, timeout=120)
    proc = subprocess.run(
        [sys.executable, str(TRACER), prefix, str(time.monotonic_ns()), "check1", "--",
         "check-weave", "--depth", "1", "-k", "2", "--strong", "--in", str(path),
         "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    tracer = _tracer()
    spans = tracer.aggregate(tracer.load(prefix))
    for name in ("cli.json_load", "patterns.SetSystem.from_json", "patterns.check_weave"):
        assert spans[f"{name}.calls"] == 1 and spans[f"{name}.s"] > 0, name
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["ok"]
