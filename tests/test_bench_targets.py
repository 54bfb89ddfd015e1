"""The benchmark's tracer wraps library functions by name, so each name it
lists must resolve in the library: a rename or a deletion fails here, not
only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
