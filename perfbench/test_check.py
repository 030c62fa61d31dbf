"""Self-test of the benchmark's output checks: wrong outputs must fail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import check
import run
import spans

GOLDEN = check.AMPC_GOLDEN
N_CELLS = 4
TRACE_ROWS = 5


def write_simulation(out: Path, rows: int = GOLDEN["rows"], **summary_changes) -> Path:
    out.mkdir(exist_ok=True)
    times = [0.0] * (rows - 1) + [GOLDEN["end_time"]]
    (out / "trace.csv").write_text("time_s,cycle\n" + "".join(f"{t!r},0\n" for t in times))
    summary = {key: GOLDEN[key] for key in check.SUMMARY_KEYS}
    summary.update(summary_changes)
    (out / "summary.json").write_text(json.dumps(summary))
    return out


def write_replay(root: Path, ident_rows: int = N_CELLS * TRACE_ROWS, value: str = "0.5"):
    ident, plots = root / "ident", root / "plots"
    ident.mkdir()
    plots.mkdir()
    row = ",".join(["1.0", "1", value, "0.1", "3.7", "0.0"]) + "\n"
    (ident / "identification.csv").write_text(check.IDENT_HEADER + "\n" + row * ident_rows)
    for name, per_row in zip(check.PLOT_FILES, (N_CELLS, N_CELLS, 2)):
        (plots / name).write_text("time_s,cell,value\n" + "1.0,1,0.5\n" * (per_row * TRACE_ROWS))
    return ident, plots


def test_golden_simulation_passes(tmp_path):
    assert check.check_simulation(write_simulation(tmp_path), GOLDEN) == []


@pytest.mark.parametrize("key", check.SUMMARY_KEYS)
def test_summary_off_by_1e_6_relative_fails(tmp_path, key):
    out = write_simulation(tmp_path, **{key: GOLDEN[key] * (1 + 1e-6)})
    assert check.check_simulation(out, GOLDEN)


def test_missing_completion_fails(tmp_path):
    assert check.check_simulation(write_simulation(tmp_path, completion_time=None), GOLDEN)


def test_truncated_trace_fails(tmp_path):
    out = write_simulation(tmp_path, rows=GOLDEN["rows"] - 1)
    assert check.check_simulation(out, GOLDEN)


def test_good_replay_passes(tmp_path):
    assert check.check_replay(*write_replay(tmp_path), TRACE_ROWS, N_CELLS) == []


def test_short_identification_fails(tmp_path):
    ident, plots = write_replay(tmp_path, ident_rows=N_CELLS * TRACE_ROWS - 1)
    assert check.check_replay(ident, plots, TRACE_ROWS, N_CELLS)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_identification_fails(tmp_path, value):
    ident, plots = write_replay(tmp_path, value=value)
    assert check.check_replay(ident, plots, TRACE_ROWS, N_CELLS)


def test_truncated_plot_fails(tmp_path):
    ident, plots = write_replay(tmp_path)
    path = plots / "soc_vs_time.csv"
    path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
    assert check.check_replay(ident, plots, TRACE_ROWS, N_CELLS)


class ShortSimulate(run.Simulate):
    """A real ``simulate`` whose output is wrong for the stock golden."""

    def __init__(self):
        super().__init__(0, GOLDEN, "run.max_time=2")


def test_wrong_output_counts_as_failed_operation(tmp_path):
    runner = run.Runner(tmp_path, deadline=time.monotonic() + 60)
    op = runner.run_op(ShortSimulate(), traced=False)
    assert op["problems"] and op["wall_s"] > 0.0


def test_changed_bytes_count_as_failed_operation(tmp_path):
    runner = run.Runner(tmp_path, deadline=time.monotonic() + 60)
    runner.first_digest = "0" * 64
    op = runner.run_op(ShortSimulate(), traced=False)
    assert "outputs differ from the first repeat" in op["problems"]


def test_traced_outputs_match_untraced(tmp_path):
    runner = run.Runner(tmp_path, deadline=time.monotonic() + 60)
    plain = runner.run_op(ShortSimulate(), traced=False)
    traced = runner.run_op(ShortSimulate(), traced=True)
    assert "outputs differ from the first repeat" not in traced["problems"]
    assert plain["problems"] == traced["problems"]
    assert traced["calls"]["harness.step"] == traced["counts"]["steps"] + 1
    assert traced["calls"]["cli.write_trace"] == 1


def test_self_time_excludes_children(tmp_path):
    import numpy as np

    path = tmp_path / "spans.npz"
    # span 0 (layer 0) spans [0, 10]; its children cover [1, 3] and [4, 8]
    np.savez(
        path,
        layer=np.array([0, 1, 1], dtype=np.intc),
        parent=np.array([-1, 0, 0], dtype=np.intc),
        start=np.array([0.0, 1.0, 4.0]),
        end=np.array([10.0, 3.0, 8.0]),
    )
    calls, self_s = spans.aggregate([path, path])
    first, second = spans.LAYER_NAMES[:2]
    assert calls[first] == 2 and calls[second] == 4
    assert self_s[first] == 8.0 and self_s[second] == 12.0
