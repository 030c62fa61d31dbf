"""Benchmark of the cellbal CLI on the stock scenario.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs the real CLI (``cellbal.cli.main``) in a fresh
interpreter, one at a time, as a closed loop: the next operation starts
when the previous one has exited and its outputs are checked.  Workloads:

  ampc_stock    ``simulate`` with the adaptive policy
  greedy_stock  ``simulate`` with ``run.policy=greedy``
  replay_stock  ``identify`` then ``export-plots`` over a stock ampc trace,
                which is made once per invocation and not timed

The seed reaches the program as ``run.seed``; the stock scenario has no
measurement noise, so the outputs do not depend on it.

With ``--trace 0`` the run repeats operations for ``--seconds`` seconds,
finishing the one under way, and reports medians over them.  Before each
operation it also launches an interpreter that only imports the CLI and
builds the scenario (``setup_s``), and adds more launches after the last
operation until there are SETUP_LAUNCHES.

With ``--trace 1`` it runs a plain, a traced and another plain operation,
and reports per-layer counts and self times from the spans the traced one
recorded (see spans.py), and the traced wall time over the plain ones.

The last line of stdout is the result object; the line before it records
the machine and every sample.  All files go under ``.perfbench_work/`` in
the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
from spans import LAYER_NAMES, aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "stock.json"
WORK = ROOT / ".perfbench_work"

SETUP_LAUNCHES = 7
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Runner:
    """Launches child interpreters and runs checked operations."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        # absolute, so the children import this checkout's cellbal from any cwd
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.launches = 0
        self.ops = 0
        self.first_digest: str | None = None

    def child(self, args: list[str], cwd: Path) -> tuple[dict, float]:
        """Run child.py with ``args`` (its report path is inserted); returns
        the report and the monotonic time just before the launch."""
        report = self.work / f"report{self.launches}.json"
        self.launches += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        cmd = [sys.executable, str(HERE / "child.py"), args[0], str(report), *args[1:]]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {cmd}") from None
        if proc.returncode != 0 or not report.is_file():
            raise BenchError(f"child failed ({proc.returncode}): {cmd}\n{proc.stderr[-2000:]}")
        result = json.loads(report.read_text())
        report.unlink()
        return result, t0

    def setup_time(self) -> float:
        report, t0 = self.child(["setup", str(CONFIG)], self.work)
        return report["ready"] - t0

    def run_op(self, workload, traced: bool) -> dict:
        """One operation: its commands in turn, then the output checks."""
        op_dir = self.work / f"op{self.ops}"
        self.ops += 1
        op_dir.mkdir()
        op = {"wall_s": 0.0, "rss_mb": 0.0, "problems": []}
        span_files, counts = [], Counter()
        for k, argv in enumerate(workload.commands(op_dir)):
            spans = op_dir / f"spans{k}.npz"
            report, _ = self.child(
                ["cli", str(spans) if traced else "-", "--", *map(str, argv)], op_dir
            )
            op["wall_s"] += report["wall_s"]
            op["rss_mb"] = max(op["rss_mb"], report["rss_mb"])
            if report["rc"] != 0:
                op["problems"].append(f"{argv[0]} exited with {report['rc']}")
                break
            if traced:
                span_files.append(spans)
                counts.update(report["counts"])
        if not op["problems"]:
            try:
                op["problems"] += workload.check(op_dir)
                outputs = check.digest(workload.outputs(op_dir))
            except (OSError, ValueError) as e:
                op["problems"].append(f"unreadable output: {e}")
            else:
                if self.first_digest is None:
                    self.first_digest = outputs
                elif outputs != self.first_digest:
                    op["problems"].append("outputs differ from the first repeat")
        if traced:
            op["calls"], op["self_s"] = aggregate(span_files)
            op["counts"] = dict(counts)
        shutil.rmtree(op_dir)
        return op


class Simulate:
    """``cellbal simulate`` on the stock config, checked against a golden."""

    def __init__(self, seed: int, golden: dict, *sets: str):
        self.sets = [f"run.seed={seed}", *sets]
        self.golden = golden
        self.units = golden["rows"]

    def prepare(self, runner: Runner) -> None:
        pass

    def commands(self, op_dir: Path) -> list[list]:
        argv = ["simulate", "--config", CONFIG, "--out", op_dir / "sim"]
        for s in self.sets:
            argv += ["--set", s]
        return [argv]

    def check(self, op_dir: Path) -> list[str]:
        return check.check_simulation(op_dir / "sim", self.golden)

    def outputs(self, op_dir: Path) -> list[Path]:
        return [op_dir / "sim" / "trace.csv", op_dir / "sim" / "summary.json"]


class Replay:
    """``identify`` then ``export-plots`` over a stock ampc trace."""

    def __init__(self, seed: int):
        self.seed = seed
        self.source = Simulate(seed, check.AMPC_GOLDEN)
        self.trace: Path | None = None

    def prepare(self, runner: Runner) -> None:
        """Make the input trace with this checkout's ``simulate``."""
        source_dir = runner.work / "source"
        source_dir.mkdir()
        (argv,) = self.source.commands(source_dir)
        report, _ = runner.child(["cli", "-", "--", *map(str, argv)], source_dir)
        problems = [f"exit code {report['rc']}"] if report["rc"] else self.source.check(source_dir)
        if problems:
            raise BenchError(f"input trace is wrong: {problems}")
        self.trace = source_dir / "sim" / "trace.csv"
        self.units = self.source.units
        self.n_cells = check.trace_cells(self.trace)

    def commands(self, op_dir: Path) -> list[list]:
        return [
            ["identify", "--config", CONFIG, "--set", f"run.seed={self.seed}",
             "--trace", self.trace, "--out", op_dir / "ident"],
            ["export-plots", "--trace", self.trace, "--out", op_dir / "plots"],
        ]

    def check(self, op_dir: Path) -> list[str]:
        return check.check_replay(op_dir / "ident", op_dir / "plots", self.units, self.n_cells)

    def outputs(self, op_dir: Path) -> list[Path]:
        return [op_dir / "ident" / "identification.csv"] + [
            op_dir / "plots" / name for name in check.PLOT_FILES
        ]


WORKLOADS = {
    "ampc_stock": lambda seed: Simulate(seed, check.AMPC_GOLDEN),
    "greedy_stock": lambda seed: Simulate(seed, check.GREEDY_GOLDEN, "run.policy=greedy"),
    "replay_stock": Replay,
}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(runner: Runner, workload, seconds: float) -> tuple[dict, dict]:
    runner.setup_time()  # warm-up: the first launch in a checkout compiles bytecode
    setups, ops = [], []
    start = time.monotonic()
    # one set-up launch before each operation spreads them over the run
    while not ops or time.monotonic() - start < seconds:
        setups.append(runner.setup_time())
        ops.append(runner.run_op(workload, traced=False))
    while len(setups) < SETUP_LAUNCHES:
        setups.append(runner.setup_time())
    good = [op for op in ops if not op["problems"]] or ops
    wall = statistics.median(op["wall_s"] for op in good)
    metrics = {
        "wall_s": metric(wall, "s"),
        "us_per_step": metric(1e6 * wall / workload.units, "us"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(op["rss_mb"] for op in good), "MB"),
    }
    return metrics, {"ops": ops, "setup_s": setups}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(runner: Runner, workload) -> tuple[dict, dict]:
    # plain operations on both sides of the traced one, so host drift
    # during the run shifts both sides of the overhead ratio alike
    ops = [runner.run_op(workload, traced=flag) for flag in (False, True, False)]
    traced = ops[1]
    plain_wall = statistics.mean((ops[0]["wall_s"], ops[2]["wall_s"]))
    calls, self_s = traced["calls"], traced["self_s"]
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
        metrics[f"{name}.self_s"] = metric(self_s[name], "s")
        metrics[f"{name}.self_us_per_call"] = metric(1e6 * _ratio(self_s[name], calls[name]), "us")
    counts = Counter(traced["counts"])
    metrics.update({
        "controller.distinct_score_ratio":
            metric(_ratio(counts["distinct_scores"], counts["scored"]), "ratio"),
        "harness.active_step_ratio": metric(_ratio(counts["active_steps"], counts["steps"]), "ratio"),
        "harness.Simulation.trace_rows":
            metric(_ratio(counts["trace_rows"], calls["harness.run_scenario"]), "count"),
        "cli.TraceTable.rows": metric(_ratio(counts["table_rows"], calls["cli.read_trace"]), "count"),
        "cli.write_trace.mb": metric(counts["write_trace_bytes"] / 1e6, "MB"),
        "tracing_overhead_ratio": metric(_ratio(traced["wall_s"], plain_wall), "ratio"),
        "error_rate": metric(sum(bool(op["problems"]) for op in ops) / len(ops), "ratio"),
    })
    return metrics, {"ops": ops}


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in (SRC / "cellbal" / "cli.py", CONFIG) if not p.is_file()]
    if missing:
        print(f"error: not a cellbal checkout, missing {missing}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, deadline)
        workload = WORKLOADS[args.workload](args.seed)
        workload.prepare(runner)
        if args.trace:
            metrics, samples = traced_run(runner, workload)
        else:
            metrics, samples = timed_run(runner, workload, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(bool(op["problems"]) for op in samples["ops"])
    info = {"workload": args.workload, "seed": args.seed, "machine": machine(), **samples}
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples["ops"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
