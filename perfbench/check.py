"""Output checks for the benchmark's operations.

Each check returns a list of problems; an empty list means the operation's
outputs are correct; a missing or unparseable file raises OSError or
ValueError, which the caller also counts as a failed operation.

Simulation outputs are held to the stock goldens of
``tests/test_acceptance.py`` at a relative tolerance of 1e-9.  Replay
outputs are checked for shape and finiteness only, not for their values:
the estimator replay is expected to change when it is fixed.  Byte identity
across repeats is checked by the caller through `digest`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9

# Copied from tests/test_acceptance.py (AMPC_GOLDEN, GREEDY_GOLDEN).
AMPC_GOLDEN = dict(
    rows=17458,
    end_time=3325.239786449296,
    completion_time=3310.239786449296,
    final_voltage_spread=0.019969371176492334,
    final_soc_spread=0.029614802892993897,
    time_avg_voltage_std=0.007849798007506579,
    gap_uniformity=0.004734185836634524,
    converter_coulombs=415.4912754451697,
)
GREEDY_GOLDEN = dict(
    rows=24722,
    end_time=3324.496653208329,
    completion_time=3317.496653208329,
    final_voltage_spread=0.01999304591245643,
    final_soc_spread=0.02964999688672254,
    time_avg_voltage_std=0.009696814875319018,
    gap_uniformity=0.00971520303081778,
    converter_coulombs=563.3256755103839,
)
SUMMARY_KEYS = (
    "completion_time",
    "final_voltage_spread",
    "final_soc_spread",
    "time_avg_voltage_std",
    "gap_uniformity",
    "converter_coulombs",
)

IDENT_HEADER = "time_s,cell,theta1,theta2,theta3,prediction_error_v"
PLOT_FILES = ("soc_vs_time.csv", "balancing_current_vs_time.csv", "extreme_voltages_vs_time.csv")


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _close(value, golden: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - golden) <= REL_TOL * abs(golden)


def data_lines(path: Path) -> list[bytes]:
    """Lines of a CSV file after its header."""
    return path.read_bytes().splitlines()[1:]


def trace_cells(trace: Path) -> int:
    with open(trace) as fh:
        return sum(1 for col in fh.readline().split(",") if col.startswith("soc_"))


def check_simulation(out: Path, golden: dict) -> list[str]:
    """trace.csv and summary.json of one ``simulate`` against a golden."""
    problems = []
    rows = data_lines(out / "trace.csv")
    if len(rows) != golden["rows"]:
        problems.append(f"trace has {len(rows)} rows, golden {golden['rows']}")
    else:
        end_time = float(rows[-1].split(b",", 1)[0])
        if not _close(end_time, golden["end_time"]):
            problems.append(f"trace ends at {end_time!r}, golden {golden['end_time']!r}")
    summary = json.loads((out / "summary.json").read_text())
    for key in SUMMARY_KEYS:
        if not _close(summary.get(key), golden[key]):
            problems.append(f"summary {key} = {summary.get(key)!r}, golden {golden[key]!r}")
    return problems


def check_replay(ident: Path, plots: Path, trace_rows: int, n_cells: int) -> list[str]:
    """identification.csv and the three plot files of one replay."""
    problems = []
    lines = (ident / "identification.csv").read_bytes().splitlines()
    if not lines or lines[0].decode() != IDENT_HEADER:
        problems.append("identification.csv header is wrong")
    if len(lines) - 1 != n_cells * trace_rows:
        problems.append(
            f"identification.csv has {len(lines) - 1} rows, expected {n_cells * trace_rows}"
        )
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(b",")
        if len(fields) != 6 or not all(math.isfinite(float(v)) for v in fields):
            problems.append(f"identification.csv line {line_no} is not 6 finite values")
            break
    # one row per cell per trace row; the extreme-voltage file has two cells
    for name, per_row in zip(PLOT_FILES, (n_cells, n_cells, 2)):
        expected = per_row * trace_rows
        got = len(data_lines(plots / name))
        if got != expected:
            problems.append(f"{name} has {got} rows, expected {expected}")
    return problems
