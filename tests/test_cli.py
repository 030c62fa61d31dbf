"""Command-line frontend: config plumbing, trace files, and the four
subcommands driven end to end as subprocesses."""

from __future__ import annotations

import csv
import dataclasses
import faulthandler
import io
import json
import multiprocessing
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellbal import (
    CellParams,
    CellState,
    ChargerConfig,
    ControllerConfig,
    ConverterParams,
    ScenarioConfig,
    Simulation,
    TraceRecord,
    harness,
    representative_cell_params,
    run_scenario,
    std,
    summarize,
)
from cellbal import cli as cli_module
from cellbal.cli import (
    ConfigError,
    TraceFormatError,
    apply_overrides,
    build_scenario,
    effective_config,
    iter_trace,
    load_config,
    main,
    read_trace,
    replay_identification,
    strip_json_comments,
    trace_header,
    write_trace,
)
from conftest import make_stock_scenario, run_cli as cli

REPO = Path(__file__).resolve().parent.parent
STOCK_CONFIG = REPO / "configs" / "stock.json"

HEADER_4 = [
    "time_s", "cycle",
    "soc_1", "v_1", "i_1", "theta1_1", "theta2_1", "theta3_1",
    "soc_2", "v_2", "i_2", "theta1_2", "theta2_2", "theta3_2",
    "soc_3", "v_3", "i_3", "theta1_3", "theta2_3", "theta3_3",
    "soc_4", "v_4", "i_4", "theta1_4", "theta2_4", "theta3_4",
    "candidate_bits", "std_v", "charger_a",
]


def synthetic_linear_trace(rows: int = 80, dt: float = 60.0, seed: int = 17):
    """Trace whose voltages follow v = 0.1*i - 0.5*q/2880 + 3.7 exactly, with
    each row's voltage paired as the online estimator pairs it: with the
    previous row's current (the charger current on the first row) and the
    charge those currents moved up to the row."""
    rng = np.random.default_rng(seed)
    currents = rng.uniform(-2.0, 2.0, size=(rows, 4))
    records = []
    i_prev = np.zeros(4)  # the charger current, 0.0 below
    q = np.zeros(4)
    for k in range(rows):
        if k:
            q = q + i_prev * dt
        v_row = 0.1 * i_prev - 0.5 * q / 2880.0 + 3.7
        i_prev = currents[k]
        records.append(
            TraceRecord(
                time=dt * k,
                cycle=k,
                soc=(0.5,) * 4,
                voltage=tuple(float(v) for v in v_row),
                current=tuple(float(i) for i in currents[k]),
                theta=((0.0, 0.0, 0.0),) * 4,
                candidate_bits="----",
                voltage_std=std(tuple(float(v) for v in v_row)),
                charger_current=0.0,
            )
        )
    return records


def wrong_type_cases():
    """(key as errors name it, raw config with a wrong JSON type at that key)
    for every key of every section."""
    cases = []
    for section, body in effective_config({}).items():
        for key, default in (body[0] if section == "cells" else body).items():
            wrong = 1 if isinstance(default, str) else "text"
            if section == "cells":
                cases.append((f"cells[0].{key}", {"cells": [{key: wrong}]}))
            else:
                cases.append((f"{section}.{key}", {section: {key: wrong}}))
    return cases


WRONG_TYPE_CASES = wrong_type_cases()


class TestStripComments:
    def test_drops_line_comments(self):
        text = '{\n  "a": 1, // trailing\n  // whole line\n  "b": 2\n}\n'
        assert json.loads(strip_json_comments(text)) == {"a": 1, "b": 2}

    def test_preserves_slashes_inside_strings(self):
        text = '{"url": "http://example//x", "n": 1} // real comment'
        assert json.loads(strip_json_comments(text)) == {
            "url": "http://example//x", "n": 1,
        }

    def test_escaped_quote_does_not_end_string(self):
        text = '{"s": "a\\"//b"}'
        assert json.loads(strip_json_comments(text)) == {"s": 'a"//b'}

    def test_escaped_backslash_ends_before_the_quote(self):
        text = '{"s": "a\\\\"} // c'
        assert json.loads(strip_json_comments(text)) == {"s": "a\\"}
        text = '{"s": "a\\\\", "t": "//x"} // c'
        assert json.loads(strip_json_comments(text)) == {"s": "a\\", "t": "//x"}

    def test_unterminated_string_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"s": "abc // c\n}\n')
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestApplyOverrides:
    def test_dotted_path(self):
        out = apply_overrides({}, ["run.max_time=100"])
        assert out == {"run": {"max_time": 100}}

    def test_bare_key_targets_run(self):
        out = apply_overrides({}, ["policy=greedy"])
        assert out == {"run": {"policy": "greedy"}}

    def test_unquoted_string_survives(self):
        out = apply_overrides({}, ["charger.mode=idle"])
        assert out["charger"]["mode"] == "idle"

    def test_list_index_path(self):
        base = {"cells": [{"soc": 0.6}, {"soc": 0.5}]}
        out = apply_overrides(base, ["cells.1.soc=0.55"])
        assert out["cells"][1]["soc"] == 0.55
        assert base["cells"][1]["soc"] == 0.5  # input untouched

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["run.max_time"])

    def test_bad_list_index(self):
        with pytest.raises(ConfigError, match="out of range"):
            apply_overrides({"cells": [{}]}, ["cells.5=3"])

    @pytest.mark.parametrize("index", ["-1", "+0", "-0", " 0", "0_0", "\u0660", "x", ""])
    @pytest.mark.parametrize("where", ["middle", "leaf"])
    def test_index_must_be_a_non_negative_decimal(self, where, index):
        path = f"cells.{index}.soc=0.7" if where == "middle" else f"run.policies.{index}=greedy"
        with pytest.raises(ConfigError, match=re.escape(f"bad list index {index!r}")):
            apply_overrides({"cells": [{}, {}], "run": {"policies": ["ampc", "none"]}}, [path])

    @pytest.mark.parametrize("path", ["cells.-1.soc=0.7", "run.policies.-1=greedy",
                                      "cells.+1.soc=0.7", "run.policies.+1=greedy"])
    def test_signed_index_exits_2(self, tmp_path, capsys, path):
        assert main(["simulate", "--set", path, "--out", str(tmp_path / "run")]) == 2
        assert "bad list index" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestEffectiveConfig:
    def test_empty_config_is_the_stock_scenario(self):
        eff = effective_config({})
        assert [c["soc"] for c in eff["cells"]] == [0.60, 0.50, 0.45, 0.40]
        assert eff["run"]["policy"] == "ampc"
        assert eff["run"]["max_time"] == 4000.0
        assert eff["converter"]["magnetizing_inductance"] == 0.01
        assert eff["charger"]["cc_current"] == -0.4
        assert eff["controller"]["gap_threshold"] == 0.02

    def test_idempotent(self):
        eff = effective_config({})
        assert effective_config(eff) == eff

    def test_json_round_trip(self):
        eff = effective_config({})
        assert json.loads(json.dumps(eff)) == eff

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            effective_config({"thermals": {}})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key run.cadence"):
            effective_config({"run": {"cadence": 2}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="must be a number"):
            effective_config({"run": {"max_time": "fast"}})
        with pytest.raises(ConfigError, match="must be an integer"):
            effective_config({"run": {"seed": 1.5}})
        with pytest.raises(ConfigError, match="list of 5"):
            effective_config({"cells": [{"ocv_coeffs": [1, 2, 3]}]})

    def test_sections_are_the_dataclass_fields(self):
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        eff = effective_config({})
        assert list(eff) == ["cells", "converter", "charger", "controller", "run"]
        for cell in eff["cells"]:
            assert list(cell) == names(CellState) + names(CellParams)
        assert list(eff["converter"]) == names(ConverterParams)
        assert list(eff["charger"]) == names(ChargerConfig)
        assert list(eff["controller"]) == names(ControllerConfig)
        nested = ("cells", "converter", "charger", "controller")
        run = [n for n in names(ScenarioConfig) if n not in nested]
        run.insert(run.index("policy") + 1, "policies")
        assert list(eff["run"]) == run

    @pytest.mark.parametrize("where, raw", WRONG_TYPE_CASES, ids=[w for w, _ in WRONG_TYPE_CASES])
    def test_wrong_type_names_the_key(self, where, raw):
        with pytest.raises(ConfigError, match=re.escape(where)):
            effective_config(raw)

    def test_shipped_example_matches_builtin_defaults(self):
        # the example file annotates every default; it must not drift
        assert effective_config(load_config(STOCK_CONFIG)) == effective_config({})

    def test_build_scenario_surfaces_domain_errors(self):
        eff = effective_config({"cells": [{"series_resistance": -1.0}] * 4})
        with pytest.raises(ConfigError):
            build_scenario(eff)

    def test_build_scenario_policy_override(self):
        cfg = build_scenario(effective_config({}), policy="greedy")
        assert cfg.policy == "greedy"
        assert len(cfg.cells) == 4


class TestTraceIo:
    def test_header_layout(self):
        assert trace_header(4) == HEADER_4

    def test_round_trip_is_exact(self, tmp_path):
        for noise_std in (0.0, 0.005):
            scenario = make_stock_scenario(max_time=5.0, noise_std=noise_std, seed=3)
            trace, summary = run_scenario(scenario)
            path = tmp_path / "trace.csv"
            write_trace(path, trace, 4)
            assert read_trace(path) == trace
            assert summarize(read_trace(path), scenario.controller.gap_threshold) == summary

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="not found"):
            read_trace(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="line 1: missing header"):
            read_trace(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            read_trace(path)

    def test_short_row_names_its_line(self, tmp_path):
        trace, _ = run_scenario(make_stock_scenario(max_time=3.0))
        path = tmp_path / "t.csv"
        write_trace(path, trace, 4)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]  # drop last field of line 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 3: expected 29 fields"):
            read_trace(path)

    def test_non_numeric_field_names_its_line(self, tmp_path):
        trace, _ = run_scenario(make_stock_scenario(max_time=3.0))
        path = tmp_path / "t.csv"
        write_trace(path, trace, 4)
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[0] = "soon"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 4"):
            read_trace(path)

    @pytest.mark.parametrize("command", ["identify", "export-plots"])
    @pytest.mark.parametrize("column, text", [(0, "nan"), (3, "inf"), (7, "-inf"), (28, "NaN")])
    def test_non_finite_value_exits_2(self, tmp_path, command, column, text):
        trace, _ = run_scenario(make_stock_scenario(max_time=3.0))
        path = tmp_path / "t.csv"
        write_trace(path, trace, 4)
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[column] = text
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        r = cli(command, "--trace", str(path), "--out", str(tmp_path / "out"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"line 3: {HEADER_4[column]} is {text!r}, not finite" in r.stderr

    def test_bad_candidate_bits_name_their_line(self, tmp_path):
        trace, _ = run_scenario(make_stock_scenario(max_time=3.0))
        path = tmp_path / "t.csv"
        write_trace(path, trace, 4)
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[-3] = "01a0"
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        r = cli("identify", "--trace", str(path), "--out", str(tmp_path / "id"), cwd=tmp_path)
        assert r.returncode == 2
        assert "line 3" in r.stderr and "'01a0'" in r.stderr


def csv_writer_reference(path, trace, n_cells) -> None:
    """The trace file as ``csv.writer`` writes it: repr floats, excel dialect."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(trace_header(n_cells))
        for r in trace:
            row = [repr(float(r.time)), str(r.cycle)]
            for k in range(n_cells):
                values = (r.soc[k], r.voltage[k], r.current[k], *r.theta[k])
                row += [repr(float(v)) for v in values]
            row += [r.candidate_bits, repr(float(r.voltage_std)), repr(float(r.charger_current))]
            w.writerow(row)


class TestTraceBytes:
    """write_trace's bytes are csv.writer's, and read back to the same records."""

    ODD = (-0.0, 0.0, 5e-324, -2.2e-310, 1e300, -1e-300, 3.0, -7.0, 1e16, 2.0**60, 0.1)

    def odd_trace(self):
        rng = np.random.default_rng(5)
        bits = ["----", "0000", "0101", "1111", "----", "1010"]
        trace = []
        for row, candidate_bits in enumerate(bits):
            pick = [self.ODD[int(k)] for k in rng.integers(0, len(self.ODD), size=23)]
            trace.append(TraceRecord(
                time=float(row) if row % 2 else row * 0.1,
                cycle=row,
                soc=tuple(pick[0:4]),
                voltage=tuple(pick[4:8]),
                current=tuple(pick[8:12]),
                theta=tuple(zip(pick[12:16], pick[16:20], (-0.0, 1e-300, 4.0, 1e300))),
                candidate_bits=candidate_bits,
                voltage_std=pick[20],
                charger_current=pick[21],
            ))
        return trace

    def test_odd_magnitudes_match_csv_writer(self, tmp_path):
        trace = self.odd_trace()
        write_trace(tmp_path / "t.csv", trace, 4)
        csv_writer_reference(tmp_path / "ref.csv", trace, 4)
        data = (tmp_path / "t.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        assert data.count(b"\r\n") == len(trace) + 1 and b'"' not in data
        back = read_trace(tmp_path / "t.csv")
        assert back == trace
        flat = [x for r in back for x in (*r.soc, *r.voltage, *r.current)]
        assert [x.hex() for x in flat] == [
            x.hex() for r in trace for x in (*r.soc, *r.voltage, *r.current)
        ]

    def test_numpy_and_int_values_are_written_as_floats(self, tmp_path):
        # each float field is written as float(value), as read_trace reads it back
        trace = self.odd_trace()
        loose = [dataclasses.replace(
            r,
            time=np.float64(r.time),
            cycle=np.int64(r.cycle),
            soc=tuple(np.array(r.soc)),
            voltage=tuple(np.array(r.voltage)),
            current=tuple(np.array(r.current)),
            theta=tuple(map(tuple, np.array(r.theta))),
            voltage_std=np.float64(r.voltage_std),
            charger_current=-2,
        ) for r in trace]
        expected = [dataclasses.replace(r, charger_current=-2.0) for r in trace]
        write_trace(tmp_path / "loose.csv", loose, 4)
        write_trace(tmp_path / "t.csv", expected, 4)
        assert (tmp_path / "loose.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
        assert read_trace(tmp_path / "loose.csv") == expected

    def test_run_matches_csv_writer(self, tmp_path):
        trace, _ = run_scenario(make_stock_scenario(max_time=5.0, noise_std=0.005, seed=3))
        write_trace(tmp_path / "t.csv", trace, 4)
        csv_writer_reference(tmp_path / "ref.csv", trace, 4)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert read_trace(tmp_path / "t.csv") == trace


class TestSimulateCommand:
    def test_writes_trace_and_summary(self, tmp_path):
        r = cli(
            "simulate", "--config", str(STOCK_CONFIG),
            "--set", "run.max_time=30", "--out", str(tmp_path / "run"),
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        table = read_trace(tmp_path / "run" / "trace.csv")
        assert len(table) > 100
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert set(summary) == {
            "completion_time", "initial_voltage_spread", "final_voltage_spread",
            "initial_soc_spread", "final_soc_spread", "time_avg_voltage_std",
            "gap_uniformity", "converter_coulombs",
        }
        assert summary["initial_voltage_spread"] > 0.02

    def test_missing_config_exits_2(self, tmp_path):
        r = cli("simulate", "--config", "absent.json", cwd=tmp_path)
        assert r.returncode == 2
        assert "not found" in r.stderr

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        r = cli("simulate", "--config", str(bad), cwd=tmp_path)
        assert r.returncode == 2
        assert "not valid JSON" in r.stderr

    def test_bad_override_exits_2(self, tmp_path):
        r = cli("simulate", "--set", "run.max_time=-5", "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2

    def test_readme_quick_start_override_runs(self, tmp_path):
        # the README line as written: no --config, so cells.0 must index
        # into the built-in cell list
        r = cli(
            "simulate", "--set", "run.noise_std=0.005", "--set", "cells.0.soc=0.7", cwd=tmp_path
        )
        assert r.returncode == 0, r.stderr
        (run,) = (tmp_path / "runs").iterdir()
        assert read_trace(run / "trace.csv")[0].soc[0] == 0.7

    def test_out_of_range_cell_override_exits_2(self, tmp_path):
        r = cli("simulate", "--set", "cells.4.soc=0.7", cwd=tmp_path)
        assert r.returncode == 2
        assert "bad list index '4'" in r.stderr

    def test_negative_measured_voltage_runs_through(self, tmp_path):
        r = cli(
            "simulate", "--config", str(STOCK_CONFIG), "--set", "run.noise_std=4.0",
            "--out", str(tmp_path / "run"), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        trace = read_trace(tmp_path / "run" / "trace.csv")
        assert min(min(rec.voltage) for rec in trace) <= 0.0

    def test_huge_inductance_exits_2(self, tmp_path):
        r = cli(
            "simulate", "--set", "converter.magnetizing_inductance=1e300",
            "--out", str(tmp_path / "run"), cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "exceeds max_time" in r.stderr

    def test_non_positive_v_min_exits_2(self, tmp_path):
        # v_min bounds the nominal converter cycle, which must fit max_time
        r = cli(
            "simulate", "--set", "cells.0.v_min=0",
            "--set", "converter.magnetizing_inductance=1e300",
            "--set", "run.max_time=10", cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "v_min must be positive" in r.stderr

    @pytest.mark.parametrize(
        "assignment, field",
        [
            ("run.seed=-1", "seed"),
            ("cells.0.self_discharge_resistance=Infinity", "self_discharge_resistance"),
            ("run.noise_std=NaN", "noise_std"),
            ("run.noise_std=1e154", "noise_std"),
        ],
    )
    def test_out_of_domain_value_exits_2(self, tmp_path, assignment, field):
        r = cli("simulate", "--set", assignment, "--out", str(tmp_path / "run"), cwd=tmp_path)
        assert r.returncode == 2
        assert field in r.stderr

    def test_underflowing_time_constant_exits_2(self, tmp_path):
        r = cli(
            "simulate", "--set", "run.max_time=20",
            "--set", "cells.0.rc1_resistance=1e-200", "--set", "cells.0.rc1_capacitance=1e-200",
            "--out", str(tmp_path / "run"), cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "rc1 time constant" in r.stderr

    @pytest.mark.parametrize("v1", ["1e200", "-1e200"])
    def test_starting_cell_voltage_out_of_range_exits_2(self, tmp_path, v1):
        r = cli(
            "simulate", "--set", f"cells.0.v1={v1}", "--set", "run.max_time=50",
            "--out", str(tmp_path / "run"), cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "cell 0 starts at" in r.stderr

    def test_nan_cell_voltage_limit_exits_2(self, tmp_path):
        r = cli(
            "simulate", "--set", "charger.cell_voltage_limit=NaN", "--set", "run.max_time=20",
            "--out", str(tmp_path / "run"), cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "cell_voltage_limit must be positive and finite" in r.stderr

    @pytest.mark.parametrize(
        "assignment, key",
        [
            ("cells.0.series_resistance=1e300", "cell 0 series_resistance"),
            ("cells.0.capacity_coulombs=1e-300", "cell 0 capacity_coulombs"),
        ],
    )
    def test_overflowing_cell_magnitude_exits_2(self, tmp_path, assignment, key):
        # the warm start and the regressor would overflow the estimator and scorer
        r = cli(
            "simulate", "--set", "run.max_time=20", "--set", assignment,
            "--out", str(tmp_path / "run"), cwd=tmp_path,
        )
        assert r.returncode == 2, r.stderr
        assert key in r.stderr and "overflow" not in r.stderr

    @pytest.mark.parametrize(
        "sets",
        [
            ["converter.magnetizing_inductance=1e-9"],
            ["run.policy=none", "run.idle_dt=1e-12", "run.max_time=1"],
        ],
    )
    def test_run_without_practical_end_exits_2(self, tmp_path, sets):
        # 1.2e12 converter cycles, or 1e12 idle steps: refused before any step
        args = [arg for s in sets for arg in ("--set", s)]
        r = cli("simulate", *args, "--out", str(tmp_path / "run"), cwd=tmp_path, timeout=60)
        assert r.returncode == 2
        assert "over the limit of 1e+07" in r.stderr
        assert not (tmp_path / "run").exists()

    def test_zero_length_run_writes_header_only(self, tmp_path):
        r = cli(
            "simulate", "--set", "run.max_time=0", "--out", str(tmp_path / "run"),
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        assert lines == [",".join(HEADER_4)]
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["converter_coulombs"] == 0.0

    def test_dump_config_round_trips(self, tmp_path):
        r = cli(
            "simulate", "--set", "run.max_time=0", "--dump-config",
            "--out", str(tmp_path / "run"), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        dumped = json.loads((tmp_path / "run" / "effective_config.json").read_text())
        assert dumped == effective_config({"run": {"max_time": 0}})


class TestStreamedSimulate:
    """simulate writes trace.csv as the run proceeds, one block of rows at a
    time, with the bytes of the whole-trace write."""

    CASES = {
        "long": ["charger.mode=idle", "run.max_time=60"],
        "thinned": ["charger.mode=idle", "run.max_time=300", "run.record_every=7"],
        "noisy": ["run.max_time=60", "run.noise_std=0.005", "run.seed=3"],
        "empty": ["run.max_time=0"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_whole_trace_write(self, tmp_path, monkeypatch, case):
        sets = self.CASES[case]
        held = []
        step = Simulation.step

        def spy(sim):
            rec = step(sim)
            held.append(len(sim.trace))
            return rec

        monkeypatch.setattr(Simulation, "step", spy)
        args = [a for s in sets for a in ("--set", s)]
        assert main(["simulate", *args, "--out", str(tmp_path / "run")]) == 0
        monkeypatch.undo()
        assert max(held) <= harness._TRACE_BLOCK

        scenario = build_scenario(effective_config(apply_overrides(effective_config({}), sets)))
        trace, summary = run_scenario(scenario)
        write_trace(tmp_path / "ref.csv", trace, 4)
        assert (tmp_path / "run" / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        summary_text = json.dumps(dataclasses.asdict(summary), indent=2) + "\n"
        assert (tmp_path / "run" / "summary.json").read_text() == summary_text
        if case == "empty":
            assert trace == []
        else:
            assert len(trace) > 2 * harness._TRACE_BLOCK
        if case == "long":
            assert max(held) == harness._TRACE_BLOCK
        if case == "thinned":
            assert trace[-1].cycle % 7 != 0  # the final row, off the thinning grid

    def test_failed_run_leaves_no_file(self, tmp_path, monkeypatch):
        calls = 0
        real = harness.step_exact

        def failing(*args):
            nonlocal calls
            calls += 1
            if calls > 4 * (2 * harness._TRACE_BLOCK + 10):  # two blocks written already
                raise RuntimeError("injected plant fault")
            return real(*args)

        monkeypatch.setattr(harness, "step_exact", failing)
        out = tmp_path / "run"
        code = main(["simulate", "--set", "charger.mode=idle", "--set", "run.max_time=60",
                     "--out", str(out)])
        assert code == 3
        assert calls > 4 * (2 * harness._TRACE_BLOCK + 10)
        assert list(out.iterdir()) == []


GENERATED_CONFIGS = st.fixed_dictionaries({
    "cells": st.lists(
        st.fixed_dictionaries({"soc": st.floats(0.05, 0.95)}), min_size=4, max_size=8
    ),
    "converter": st.fixed_dictionaries({
        "magnetizing_inductance": st.floats(1e-3, 0.5),
        "turns_primary": st.integers(1, 3),
        "turns_secondary": st.integers(1, 8),
        "peak_current": st.floats(5.0, 10.0) | st.just(0.0),
    }),
    "run": st.fixed_dictionaries({
        "policy": st.sampled_from(["ampc", "greedy", "none"]),
        "max_time": st.sampled_from([1.0, 0.0]),
    }),
})


class TestGeneratedConfigs:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(GENERATED_CONFIGS)
    def test_simulate_exits_0_or_2(self, config):
        # L * I >= 5e-3 keeps a 1 s run under ~1000 converter cycles; a zero
        # peak current idles in 1 s steps
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            code = main(["simulate", "--config", str(path), "--out", str(Path(tmp) / "run")])
        assert code in (0, 2)


class TestSweepCommand:
    def test_default_policy_pair(self, tmp_path):
        r = cli(
            "sweep", "--set", "run.max_time=30", "--out", str(tmp_path / "sw"),
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "sw" / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "policy"
        assert [row[0] for row in rows[1:]] == ["ampc", "greedy"]
        for policy in ("ampc", "greedy"):
            assert (tmp_path / "sw" / policy / "trace.csv").is_file()
            assert (tmp_path / "sw" / policy / "summary.json").is_file()

    def test_parallel_matches_serial(self, tmp_path):
        base = ["sweep", "--set", "run.max_time=20"]
        r1 = cli(*base, "--out", str(tmp_path / "s1"), cwd=tmp_path)
        r2 = cli(*base, "--jobs", "2", "--out", str(tmp_path / "s2"), cwd=tmp_path)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        for name in ("comparison.csv", *(f"{p}/{f}" for p in ("ampc", "greedy")
                                         for f in ("trace.csv", "summary.json"))):
            a = (tmp_path / "s1" / name).read_bytes()
            b = (tmp_path / "s2" / name).read_bytes()
            assert a == b, name

    @pytest.mark.parametrize("command", ["simulate", "identify", "export-plots"])
    def test_jobs_is_a_sweep_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_empty_policy_list_exits_2(self, tmp_path):
        r = cli("sweep", "--set", "run.policies=[]", cwd=tmp_path)
        assert r.returncode == 2
        assert "non-empty" in r.stderr

    def test_duplicate_policies_exit_2(self, tmp_path):
        r = cli("sweep", "--set", 'run.policies=["ampc","ampc"]', cwd=tmp_path)
        assert r.returncode == 2
        assert "duplicate" in r.stderr

    def test_unknown_policy_exits_2_before_any_run(self, tmp_path):
        r = cli(
            "sweep", "--set", 'run.policies=["ampc","bogus"]', "--out", str(tmp_path / "sw"),
            cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "'bogus'" in r.stderr
        assert not (tmp_path / "sw").exists()


class TestIdentifyCommand:
    def test_replay_recovers_linear_cell(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        write_trace(trace_path, synthetic_linear_trace(), 4)
        r = cli(
            "identify", "--trace", str(trace_path), "--out", str(tmp_path / "id"),
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "id" / "identification.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_s", "cell", "theta1", "theta2", "theta3", "prediction_error_v"]
        assert len(rows) - 1 == 80 * 4
        for row in rows[-4:]:
            assert abs(float(row[5])) < 1e-6
        # in-process replay must agree with the subprocess byte-for-byte
        expected = list(replay_identification(
            read_trace(trace_path), build_scenario(effective_config({}))
        ))
        got_last = [tuple(float(v) for v in row[2:5]) for row in rows[-4:]]
        want_last = [tuple(r[2:5]) for r in expected[-4:]]
        assert got_last == want_last

    def test_requires_trace_argument(self, tmp_path):
        r = cli("identify", cwd=tmp_path)
        assert r.returncode == 2
        assert "--trace" in r.stderr

    def test_header_only_trace_exits_2(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, [], 4)
        r = cli("identify", "--trace", str(path), cwd=tmp_path)
        assert r.returncode == 2
        assert "no data rows" in r.stderr

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, synthetic_linear_trace(rows=3), 4)
        lines = path.read_text().splitlines()
        lines[2] += ",0.0"
        path.write_text("\n".join(lines) + "\n")
        r = cli("identify", "--trace", str(path), cwd=tmp_path)
        assert r.returncode == 2
        assert "line 3" in r.stderr

    def test_single_row_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, synthetic_linear_trace(rows=1), 4)
        r = cli("identify", "--trace", str(path), "--out", str(tmp_path / "id"), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "id" / "identification.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 4

    def test_capacity_count_mismatch(self):
        one_row = synthetic_linear_trace(rows=1)
        five = build_scenario(effective_config({"cells": [{}] * 5}))
        with pytest.raises(ConfigError, match="4 cells"):
            list(replay_identification(one_row, five))

    def test_decimated_trace_exits_2(self, tmp_path):
        # every tenth cycle carries too little to replay the estimator
        r = cli(
            "simulate", "--set", "run.record_every=10", "--set", "run.max_time=20",
            "--out", str(tmp_path / "run"), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        r = cli(
            "identify", "--trace", str(tmp_path / "run" / "trace.csv"),
            "--out", str(tmp_path / "id"), cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "from cycle 0 to 10" in r.stderr
        assert "record_every" in r.stderr


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plots")
    r = cli(
        "simulate", "--set", "run.max_time=20", "--out", str(tmp / "run"),
        cwd=tmp,
    )
    assert r.returncode == 0, r.stderr
    r = cli(
        "export-plots", "--trace", str(tmp / "run" / "trace.csv"),
        "--out", str(tmp / "plots"), cwd=tmp,
    )
    assert r.returncode == 0, r.stderr
    return tmp


class TestExportPlotsCommand:
    def _rows(self, run_dir, name):
        with open(run_dir / "plots" / name, newline="") as fh:
            return list(csv.reader(fh))

    def test_row_counts(self, run_dir):
        n = len(read_trace(run_dir / "run" / "trace.csv"))
        assert len(self._rows(run_dir, "soc_vs_time.csv")) - 1 == n * 4
        assert len(self._rows(run_dir, "balancing_current_vs_time.csv")) - 1 == n * 4
        assert len(self._rows(run_dir, "extreme_voltages_vs_time.csv")) - 1 == n * 2

    def test_extreme_cells_are_initial_outliers(self, run_dir):
        rows = self._rows(run_dir, "extreme_voltages_vs_time.csv")[1:]
        # the stock stack starts with cell 1 highest and cell 4 lowest
        assert set(row[1] for row in rows) == {"1", "4"}
        assert [row[1] for row in rows[:2]] == ["1", "4"]

    def test_balancing_current_subtracts_charger(self, run_dir):
        trace = read_trace(run_dir / "run" / "trace.csv")
        rows = self._rows(run_dir, "balancing_current_vs_time.csv")[1:]
        for k in (0, len(trace) // 2, len(trace) - 1):
            for j in range(4):
                row = rows[k * 4 + j]
                expect = trace[k].current[j] - trace[k].charger_current
                assert float(row[2]) == expect

    def test_missing_trace_exits_2(self, tmp_path):
        r = cli("export-plots", cwd=tmp_path)
        assert r.returncode == 2


PLOT_FILES = ("soc_vs_time.csv", "balancing_current_vs_time.csv", "extreme_voltages_vs_time.csv")


def whole_list_outputs(trace_path, scenario) -> dict[str, bytes]:
    """identification.csv and the plot files as a whole-list pass writes them:
    the trace read in full, each file made from that list by ``csv.writer``."""
    trace = read_trace(trace_path)

    def render(header, rows) -> bytes:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()

    ident = list(replay_identification(trace, scenario))
    first = trace[0].voltage
    cells = range(len(first))
    extremes = (max(cells, key=lambda j: (first[j], -j)), min(cells, key=lambda j: (first[j], j)))
    return {
        "identification.csv": render(
            ["time_s", "cell", "theta1", "theta2", "theta3", "prediction_error_v"],
            ([repr(t), str(cell), *map(repr, values)] for t, cell, *values in ident),
        ),
        "soc_vs_time.csv": render(
            ["time_s", "cell", "soc"],
            ([repr(r.time), str(j + 1), repr(r.soc[j])] for r in trace for j in cells),
        ),
        "balancing_current_vs_time.csv": render(
            ["time_s", "cell", "current_a"],
            ([repr(r.time), str(j + 1), repr(r.current[j] - r.charger_current)]
             for r in trace for j in cells),
        ),
        "extreme_voltages_vs_time.csv": render(
            ["time_s", "cell", "voltage_v"],
            ([repr(r.time), str(j + 1), repr(r.voltage[j])] for r in trace for j in extremes),
        ),
    }


def six_cell_config() -> dict:
    return {"cells": [{"soc": 0.6 - 0.04 * j} for j in range(6)]}


class TestStreamedReplay:
    """identify and export-plots read the trace once, row by row, and write
    the bytes of a pass over the whole list."""

    CASES = {
        "single_row": (None, lambda: synthetic_linear_trace(rows=1)),
        "six_cells": (six_cell_config(), lambda: run_scenario(build_scenario(
            effective_config({**six_cell_config(), "run": {"max_time": 10.0}})))[0]),
        "noisy_greedy": (None, lambda: run_scenario(make_stock_scenario(
            "greedy", noise_std=0.005, seed=5, max_time=10.0))[0]),
        "three_blocks": (None, lambda: run_scenario(make_stock_scenario(max_time=40.0))[0]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_whole_list_reference(self, tmp_path, case):
        config, make_trace = self.CASES[case]
        trace = make_trace()
        n_cells = len(trace[0].voltage)
        if case == "three_blocks":
            assert len(trace) > 2 * harness._TRACE_BLOCK
        trace_path = tmp_path / "trace.csv"
        write_trace(trace_path, trace, n_cells)
        config_args = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            config_args = ["--config", str(tmp_path / "config.json")]
        assert main(["identify", *config_args, "--trace", str(trace_path),
                     "--out", str(tmp_path / "id")]) == 0
        assert main(["export-plots", "--trace", str(trace_path), "--out", str(tmp_path / "pl")]) == 0

        expected = whole_list_outputs(trace_path, build_scenario(effective_config(config or {})))
        assert (tmp_path / "id" / "identification.csv").read_bytes() == expected[
            "identification.csv"]
        for name in PLOT_FILES:
            assert (tmp_path / "pl" / name).read_bytes() == expected[name], name
        assert sorted(p.name for p in (tmp_path / "pl").iterdir()) == sorted(PLOT_FILES)

    @pytest.mark.parametrize("command", ["identify", "export-plots"])
    def test_traced_peak_does_not_grow_with_the_trace(self, tmp_path, command):
        def peak(rows: int) -> int:
            trace_path = tmp_path / f"trace{rows}.csv"
            write_trace(trace_path, synthetic_linear_trace(rows=rows, dt=1.0), 4)
            argv = [command, "--trace", str(trace_path), "--out", str(tmp_path / f"out{rows}")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # warm-up: first-call caches are not the command's
        assert peak(4000) - peak(1000) < 2 * 2**20

    @pytest.mark.parametrize("command", ["identify", "export-plots"])
    @pytest.mark.parametrize("fault", ["nan", "short_row", "not_a_number"])
    def test_bad_line_past_row_600_leaves_no_file(self, tmp_path, capsys, command, fault):
        path = tmp_path / "t.csv"
        write_trace(path, synthetic_linear_trace(rows=800, dt=1.0), 4)
        lines = path.read_text().splitlines()
        parts = lines[700].split(",")  # line 701, data row 700
        if fault == "short_row":
            parts.pop()
        else:
            parts[3] = "nan" if fault == "nan" else "soon"
        lines[700] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main([command, "--trace", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 701: " in err
        if fault == "nan":
            assert "v_1 is 'nan', not finite" in err
        assert list(out.iterdir()) == []


GENERATED_RUNS = st.fixed_dictionaries({
    "policy": st.sampled_from(["ampc", "greedy"]),
    "noise_std": st.sampled_from([0.0, 0.002, 0.005]),
    "seed": st.integers(0, 2**16),
    "warm_start": st.booleans(),
    "socs": st.lists(st.floats(0.3, 0.7), min_size=4, max_size=8),
    "max_time": st.floats(0.5, 6.0),
})


class TestGeneratedRuns:
    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(GENERATED_RUNS)
    def test_trace_round_trip_and_replay_match_the_run(self, run):
        cells = [(representative_cell_params(), CellState(soc=s)) for s in run["socs"]]
        scenario = make_stock_scenario(
            run["policy"], cells=cells, noise_std=run["noise_std"], seed=run["seed"],
            warm_start=run["warm_start"], max_time=run["max_time"],
        )
        trace, _ = run_scenario(scenario)
        n = len(cells)
        assert 0 < len(trace) <= 320
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            assert write_trace(path, trace, n) == len(trace)
            assert read_trace(path) == trace
            replayed = [tuple(r[2:5]) for r in replay_identification(iter_trace(path), scenario)]
        assert len(replayed) == n * len(trace)
        recorded = [theta for rec in trace for theta in rec.theta]
        assert replayed[:-n] == recorded[:-n]


_STOCK = effective_config({})


def _indexes_badly(path: str) -> bool:
    """Whether a --set path indexes a list of the stock config with anything
    but a decimal index within range."""
    node = _STOCK
    parts = path.split(".")
    for part in parts if len(parts) > 1 else ["run", path]:
        if isinstance(node, list):
            if not (part.isascii() and part.isdigit() and int(part) < len(node)):
                return True
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return False
    return False


SET_SECTIONS = st.sampled_from([*_STOCK, "bogus"])
SET_FIELDS = st.sampled_from(sorted(
    {key for body in _STOCK.values() for key in (body[0] if isinstance(body, list) else body)}
) + ["bogus"])
SET_INDEXES = st.sampled_from(["0", "1", "3", "4", "-1", "-4", "+1", "-0", "01", " 1", "1_0", ""])
SET_VALUES = st.sampled_from([
    "0", "1", "-1", "0.5", "2", "1e300", "-1e300", "NaN", "-Infinity", "true", "null",
    '"ampc"', "greedy", "idle", "[]", "{}", "[0.5, 0.5]", '["greedy"]', "[1, 2, 3, 4, 5]",
])
SET_PATHS = st.one_of(
    SET_FIELDS,
    st.builds(lambda head, tail: ".".join([head, *tail]),
              SET_SECTIONS, st.lists(st.one_of(SET_INDEXES, SET_FIELDS), min_size=1, max_size=3)),
)


@st.composite
def set_assignments(draw):
    """(path, JSON value) for --set: a cell field, a policy, a section field,
    each with any index and often the stock value, or a free path."""
    kind = draw(st.sampled_from(["cell", "policy", "section", "free"]))
    if kind == "cell":
        field = draw(st.sampled_from(sorted(_STOCK["cells"][0])))
        path, stock = f"cells.{draw(SET_INDEXES)}.{field}", _STOCK["cells"][0][field]
    elif kind == "policy":
        path, stock = f"run.policies.{draw(SET_INDEXES)}", "greedy"
    elif kind == "section":
        section = draw(st.sampled_from([name for name in _STOCK if name != "cells"]))
        field = draw(st.sampled_from(sorted(_STOCK[section])))
        path, stock = f"{section}.{field}", _STOCK[section][field]
    else:
        path, stock = draw(SET_PATHS), None
    return path, draw(st.just(json.dumps(stock)) | SET_VALUES)


class TestGeneratedOverrides:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(set_assignments())
    def test_simulate_exits_0_or_2(self, assignment):
        path, value = assignment
        with tempfile.TemporaryDirectory() as tmp:
            code = main(["simulate", "--set", f"{path}={value}", "--set", "run.max_time=1",
                         "--out", str(Path(tmp) / "run")])
        assert code in (0, 2)
        if _indexes_badly(path):
            assert code == 2


def _writer_that_exits(*args):
    # a CSV writer that dies at once; module-level, so spawn can pickle it too
    os._exit(7)


def _write_trace_error(path):
    # the message write_trace raises in a multiprocessing.Pool worker
    try:
        write_trace(path, synthetic_linear_trace(rows=3), 4)
    except AssertionError as e:
        return str(e)


class TestWriterProcess:
    """Every CSV is formatted and written by a writer process beside the
    command: its errors reach the command, no failure hangs or leaves a file
    behind, and no process outlives the command."""

    IDLE_RUN = ["simulate", "--set", "charger.mode=idle", "--set", "run.max_time=300"]

    @pytest.fixture(autouse=True)
    def no_hang_and_no_process_left(self):
        # a deadlock ends the test run within minutes instead of hanging it
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()
        assert multiprocessing.active_children() == []

    @staticmethod
    def command_argv(command, tmp_path):
        if command == "simulate":
            return TestWriterProcess.IDLE_RUN
        path = tmp_path / "trace.csv"
        write_trace(path, synthetic_linear_trace(rows=3000, dt=1.0), 4)
        return [command, "--trace", str(path)]

    @pytest.mark.parametrize("command, name", [
        ("simulate", "trace.csv"),
        ("identify", "identification.csv"),
        ("export-plots", "balancing_current_vs_time.csv"),
    ])
    def test_unwritable_output_exits_2_with_the_writers_error(
        self, tmp_path, capsys, command, name
    ):
        out = tmp_path / "out"
        (out / f"{name}.partial").mkdir(parents=True)
        assert main([*self.command_argv(command, tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"Is a directory: '{out / name}.partial'" in err
        assert "BrokenPipe" not in err
        assert [p.name for p in out.iterdir()] == [f"{name}.partial"]

    @pytest.mark.parametrize("command", ["simulate", "identify", "export-plots"])
    def test_producer_failure_mid_stream_leaves_no_file(self, tmp_path, monkeypatch, command):
        argv = self.command_argv(command, tmp_path)
        # past 1500 steps or records, several blocks have gone to the writer
        produced = 0
        if command == "simulate":
            real_step = harness.step_exact

            def failing_step(*args):
                nonlocal produced
                produced += 1
                if produced > 4 * 1500:  # one call per cell and step
                    raise RuntimeError("injected plant fault")
                return real_step(*args)

            monkeypatch.setattr(harness, "step_exact", failing_step)
        else:
            real_iter = iter_trace

            def failing_iter(path):
                nonlocal produced
                for produced, rec in enumerate(real_iter(path)):
                    if produced == 1500:
                        raise RuntimeError("injected reader fault")
                    yield rec

            monkeypatch.setattr(cli_module, "iter_trace", failing_iter)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 3
        assert produced >= 1500
        assert list(out.iterdir()) == []

    def test_writer_that_dies_fails_the_command(self, tmp_path, capsys, monkeypatch):
        # the writer's pipe end must be the writer's alone, or the command
        # blocks for ever on a full pipe that nobody reads
        monkeypatch.setattr(cli_module, "_csv_writer", _writer_that_exits)
        out = tmp_path / "out"
        assert main([*self.IDLE_RUN, "--out", str(out)]) == 2
        assert "CSV writer exited with code 7" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_a_daemonic_process_cannot_start_the_writer(self, tmp_path):
        # multiprocessing.Pool workers are daemonic, and multiprocessing lets a
        # daemonic process start no child, so no writer either
        with multiprocessing.get_context("fork").Pool(1) as pool:
            error = pool.apply(_write_trace_error, (tmp_path / "t.csv",))
        assert error == "daemonic processes are not allowed to have children"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_and_its_pool_workers_leave_no_process(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--jobs", "2", "--set", "run.max_time=5", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.rglob("*.csv")) == [
            "comparison.csv", "trace.csv", "trace.csv"]
