"""Self-test of the benchmark at toy scale (weave depth 2, grid size 3).

    python3 bench/selftest.py

For every workload, untraced and traced, it checks that every metric named
in BENCHMARK.json is emitted with its unit and that every known answer
holds; then it corrupts one pinned answer and checks that the run reports a
failure (error_rate above 0).  Finishes in well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from run import ROOT, Bench, report
from workloads import WORKLOADS


# Toy children are smaller than the benchmark process itself, so the guard
# against its peak RSS hiding theirs fires; that is expected at toy scale.
RSS_FLOOR = "benchmark process peaked at"


def run_toy(workload: str, trace: bool, answers=None) -> tuple:
    bench = Bench(workload, seed=7, scale="toy", answers=answers)
    with contextlib.redirect_stdout(io.StringIO()):
        result = report(bench, bench.measure(0, trace), trace)
    return result, [e for e in bench.errors if not e.startswith(RSS_FLOOR)]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS:
        for trace in (False, True):
            result, errors = run_toy(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if got != expected[trace]:
                problems.append(f"{label}: metrics/units {got} != {expected[trace]}")
            problems.extend(f"{label}: {error}" for error in errors)
            print(f"{label}: {len(got)} metrics, {result['attempted']} invocations")
    bench = Bench("battery-grid-graph", seed=7, scale="toy")
    wrong = dict(bench.answers, **{"toy/check-grid": "0" * 64})
    result, _ = run_toy("battery-grid-graph", False, answers=wrong)
    if result["failed"] == 0:
        problems.append("a wrong pinned answer was not reported as an error")
    print(f"wrong answer: error_rate {result['failed']}/{result['attempted']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
