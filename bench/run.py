"""comblab benchmark: time whole CLI invocations, or trace them per layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The workload's set-up writes its seeded inputs into `.bench_work/NAME-full/`
(three times, reporting the median as `setup_s`).  Then the workload's
invocation list runs as fresh child processes, one at a time (a closed loop
with one client), in passes until S seconds have been spent in children.
Every output is checked against its known answer.

With `--trace 0` each child is plain `python -m comblab.cli`, and the
end-to-end metrics come from the children's own `os.wait4` rusage.
With `--trace 1` one untraced pass is followed by traced passes, whose
children run under `tracer.py`; the per-layer metrics come from their spans,
and `trace.overhead_s` is the difference in pass wall time.

Human-readable lines go to stdout; the last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  Exit code 0 when every
output matched its known answer, 1 when one did not, 2 when the program or
its set-up could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
from workloads import SCALES, WORKLOADS, Invocation  # noqa: E402

DEFAULT_SEED = 0xC0FFEE  # the library's DEFAULT_SEED
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    "cli.startup_s", "cli.json_load.s", "cli.json_dump.s", "cli.bytes_in", "cli.bytes_out",
    "index_core.enumerate_level.s", "index_core.enumerate_level.calls",
    "combs.comb_entries.s", "combs.comb_entries.calls", "combs.comb_entries.entries",
    "combs.is_comb.s", "combs.is_comb.calls", "combs.classify_pair.calls",
    "patterns.SetSystem.init.s", "patterns.SetSystem.from_json.s",
    "patterns.SetSystem.to_json.s", "patterns.check_weave.s", "patterns.check_weave.self_s",
    "patterns.weave_witness.s", "patterns.weave_witness.self_s",
    "patterns.weave_witness.atoms",
    "patterns.grid_witness.s", "patterns.check_grid.s", "patterns.check_grid.self_s",
    "patterns.chains.s", "patterns.strict_chains.s", "patterns.antichains_of_size.s",
    "patterns.graph_witness.s", "patterns.check_graph_pattern.s",
    "patterns.SetSystem.consistent.calls", "patterns.report.violations",
    "cographs.comb_graph.s", "cographs.cotree_of.s", "cographs.find_p4.s",
    "cographs.eval_cotree.s", "cographs.graph_to_weave_oracle.s",
    "transforms.strongify_index.s", "transforms.pullback.s",
    "transforms.grid_embed_index.s",
    "oracle.build_tree_comb_oracle.s", "oracle.build_tree_comb_oracle.calls",
    "oracle.assignment_oracle.s", "genericity.generic_chain.s",
    "verify.run_battery.s", "verify.run_battery.self_s",
    "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.startswith("cli.bytes") else "count"


SPAWN_NS = object()


class SetupError(Exception):
    pass


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def child_env() -> dict:
    """Fixed environment: hash seed pinned, depth override unset, src importable."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONHASHSEED": "0",
            "PYTHONPATH": SRC, "LC_ALL": "C.UTF-8"}


def spawn(argv: list, stdout_path: str) -> Child:
    """Run one child to completion; its CPU time and peak RSS come from its
    own rusage (wait4), never from RUSAGE_CHILDREN, which keeps the maximum
    over every child reaped so far.  An argument equal to SPAWN_NS is replaced
    by the spawn time on the monotonic clock."""
    killed = threading.Event()
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        spawn_ns = time.monotonic_ns()
        start = time.perf_counter()
        argv = [str(spawn_ns) if arg is SPAWN_NS else arg for arg in argv]
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, killed.is_set())


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "comblab.cli"] + args


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, scale: str = "full", answers=None):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.scale = SCALES[scale]
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{scale}")
        if answers is None:
            with open(os.path.join(BENCH, "answers.json"), encoding="utf-8") as handle:
                answers = json.load(handle)
        self.answers = answers
        self.attempted = 0
        self.failed = 0  # invocations that missed their known answer
        self.errors: list[str] = []  # their messages, and those of trace checks
        self.hashes: dict[str, str] = {}

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        start = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        warm = spawn([sys.executable, "-c", "import comblab.cli"],
                     os.path.join(self.work, "warm.stdout"))
        if warm.code != 0:
            raise SetupError("cannot import comblab from src/")
        log = os.path.join(self.work, "setup.stdout")
        made = spawn([sys.executable, os.path.join(BENCH, "workloads.py"), self.workload.name,
                      self.scale.name, str(self.seed), self.work], log)
        if made.code != 0:
            with open(log + ".err", encoding="utf-8", errors="replace") as handle:
                raise SetupError(handle.read()[-2000:])
        return time.perf_counter() - start

    # -- one invocation ----------------------------------------------------

    def check(self, inv: Invocation, child: Child, stdout_path: str) -> None:
        self.attempted += 1
        problem = None
        if child.timed_out:
            problem = f"timed out after {CHILD_TIMEOUT_S} s"
        elif child.code != inv.exit:
            problem = f"exit {child.code}, expected {inv.exit}"
        else:
            output = inv.out or stdout_path
            try:
                digest = sha256_of(output)
                self.hashes[inv.key] = digest
                pinned = self.answers.get(f"{self.scale.name}/{inv.key}")
                if pinned is not None and digest != pinned:
                    problem = f"output sha256 {digest[:16]}... differs from the pinned answer"
                elif inv.verdict is not None:
                    with open(output, encoding="utf-8") as handle:
                        problem = inv.verdict(handle.read())
                if problem is None and inv.after is not None:
                    inv.after()
            except (OSError, ValueError, KeyError, TypeError) as err:
                problem = f"unreadable output: {err!r}"
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{inv.key} (comblab {' '.join(inv.args)}): {problem}")

    def run_pass(self, invocations: list, traced: bool) -> tuple:
        """One pass over the invocation list: (children, per-layer sums)."""
        children, layers = [], dict.fromkeys(PER_LAYER, 0)
        for number, inv in enumerate(invocations):
            args = inv.args + (["--out", inv.out] if inv.out else [])
            stdout_path = os.path.join(self.work, f"{number:02d}-{inv.key}.stdout")
            if not traced:
                child = spawn(cli_argv(args), stdout_path)
                self.check(inv, child, stdout_path)
                children.append(child)
                continue
            prefix = os.path.join(self.work, f"{number:02d}-{inv.key}.spans")
            layers["cli.bytes_in"] += sum(os.path.getsize(p) for p in inv.inputs
                                          if os.path.exists(p))
            child = spawn([sys.executable, os.path.join(BENCH, "tracer.py"), prefix,
                           SPAWN_NS, inv.key, "--"] + args, stdout_path)
            self.check(inv, child, stdout_path)
            children.append(child)
            output = inv.out or stdout_path
            layers["cli.bytes_out"] += os.path.getsize(output) if os.path.exists(output) else 0
            try:
                spans = tracer.aggregate(tracer.load(prefix))
            except (OSError, ValueError, KeyError) as err:
                self.errors.append(f"{inv.key}: no spans written ({err!r})")
                continue
            for name in PER_LAYER:
                layers[name] += spans.get(name, 0)
        return children, layers

    def measure(self, seconds: float, trace: bool) -> dict:
        """Set up, then run passes until `seconds` have been spent in children
        (at least one).  A traced measurement starts with one untraced pass,
        the base of `trace.overhead_s`."""
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        invocations = self.workload.invocations(self.work, self.scale, self.seed)
        base = self.run_pass(invocations, traced=False)[0] if trace else None
        passes, spent = [], 0.0
        while not passes or spent < seconds:
            children, layers = self.run_pass(invocations, traced=trace)
            passes.append((children, layers))
            spent += sum(c.wall_s for c in children)
        walls = [sum(c.wall_s for c in children) for children, _ in passes]
        if not trace:
            # A child's peak RSS is at least this process's peak at spawn time.
            own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if any(own_mb >= max(c.rss_mb for c in children) for children, _ in passes):
                self.errors.append(f"benchmark process peaked at {own_mb:.0f} MB, "
                                   "which hides the children's peak RSS")
            return {"wall_s": statistics.median(walls),
                    "cpu_s": statistics.median(sum(c.cpu_s for c in children)
                                               for children, _ in passes),
                    "peak_rss_mb": statistics.median(max(c.rss_mb for c in children)
                                                     for children, _ in passes),
                    "setup_s": statistics.median(setups),
                    "passes": len(passes), "pass_walls": walls}
        metrics = {name: statistics.median(layers[name] for _, layers in passes)
                   for name in PER_LAYER}
        metrics["trace.overhead_s"] = statistics.median(walls) - sum(c.wall_s for c in base)
        for name in self.workload.moves:
            if not metrics[name]:
                self.errors.append(f"traced run: {name} recorded nothing on "
                                   f"{self.workload.name}, which it should move")
        metrics["passes"] = len(passes)
        return metrics


def tail_percentile(values: list):
    """Highest of p90/p99 with at least ten samples beyond it, else None."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def report(bench: Bench, metrics: dict, trace: bool) -> dict:
    passes = metrics["passes"]
    print(f"workload {bench.workload.name} (scale {bench.scale.name}), seed {bench.seed}, "
          f"{passes} {'traced ' if trace else ''}pass(es), "
          f"{SETUP_REPEATS} set-ups, {bench.attempted} invocation(s)")
    if trace:
        names = [(name, layer_unit(name)) for name in PER_LAYER]
    else:
        names = list(END_TO_END)
    out = {}
    for name, unit in names:
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    if not trace:
        tail = tail_percentile(metrics["pass_walls"])
        if tail is not None:
            print(f"  wall_s p{tail[0]} = {tail[1]:.6g} s")
    failed = bench.failed
    print(f"  error_rate = {failed / max(bench.attempted, 1):.6g} ratio "
          f"({failed} of {bench.attempted})")
    for error in bench.errors:
        print(f"  ERROR {error}")
    return {"correct": not bench.errors, "attempted": bench.attempted,
            "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped on the way out (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "comblab", "cli.py")):
        print(f"bench: no comblab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        bench = Bench(name, args.seed)
        try:
            metrics = bench.measure(args.seconds, bool(args.trace))
        except SetupError as err:
            print(f"bench: set-up failed: {err}", file=sys.stderr)
            return 2
        result = report(bench, metrics, bool(args.trace))
        print(json.dumps(result))
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
