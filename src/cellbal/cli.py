"""Command-line frontend: config files, scenario runs, policy sweeps and
CSV export for plotting.

The config file is JSON with ``//`` line comments allowed, split into the
sections ``cells`` (a list of CellState + CellParams entries),
``converter`` (ConverterParams; the number of cells sets the stack size),
``charger`` (ChargerConfig), ``controller`` (ControllerConfig) and ``run``
(the scalar fields of ScenarioConfig plus the sweep's ``policies``).  Any
omitted key falls back to the dataclass default; an empty file (or no
``--config`` at all) therefore runs the stock four-cell scenario.
``--set section.key=value`` overrides individual entries after the file is
read; a key without a dot is taken from the ``run`` section.

Exit codes: 0 success, 2 user/config error, 3 internal fault.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import copy
import csv
import dataclasses
import itertools
import json
import math
import operator
import os
import re
import reprlib
import sys
import typing
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .controller import ControllerConfig
from .ecm import CellParams, CellState
from .flyback import ConverterParams
from .harness import STOCK_SOCS, ChargerConfig, ScenarioConfig, Simulation, Summary, TraceRecord
from . import rls


class ConfigError(Exception):
    """User-facing configuration problem; maps to exit code 2."""


class TraceFormatError(Exception):
    """Malformed trace file; the message names the offending line."""


# -- config handling ---------------------------------------------------------
#
# The dataclasses are the config schema.  Each section's keys, their order,
# their types and their defaults come from the fields of the dataclasses behind
# it, and the domain checks stay in the dataclasses' __post_init__.

DEFAULT_POLICIES = ["ampc", "greedy"]  # run.policies, the sweep-only key


def _fields(*classes: type) -> dict[str, tuple[Any, Any]]:
    """Field name -> (resolved annotation, default), in field order, class after class."""
    out: dict[str, tuple[Any, Any]] = {}
    for cls in classes:
        hints = typing.get_type_hints(cls)
        out.update((f.name, (hints[f.name], f.default)) for f in dataclasses.fields(cls))
    return out


def _run_fields() -> dict[str, tuple[Any, Any]]:
    # the scalar fields of ScenarioConfig, with policies right after policy
    out: dict[str, tuple[Any, Any]] = {}
    for name, (hint, default) in _fields(ScenarioConfig).items():
        if hint in (float, int, bool, str):
            out[name] = (hint, default)
            if name == "policy":
                out["policies"] = (list[str], DEFAULT_POLICIES)
    return out


_STATE_KEYS = tuple(_fields(CellState))
# section -> {key: (annotation, default)}; the cells schema applies to each list entry
_SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "cells": _fields(CellState, CellParams),
    "converter": _fields(ConverterParams),
    "charger": _fields(ChargerConfig),
    "controller": _fields(ControllerConfig),
    "run": _run_fields(),
}


# a string literal, kept, or a // comment to the end of its line, dropped
_STRING_OR_COMMENT = re.compile(r'("(?:[^"\\]|\\.)*")|//[^\n]*', re.DOTALL)


def strip_json_comments(text: str) -> str:
    """Drop ``//`` comments outside string literals; JSON otherwise."""
    return _STRING_OR_COMMENT.sub(lambda m: m.group(1) or "", text)


def load_config(path: str | Path | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(strip_json_comments(p.read_text()))
    except ValueError as e:  # a JSONDecodeError, or an integer over Python's digit limit
        raise ConfigError(f"config {p} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {p} must contain a JSON object at top level")
    return data


def apply_overrides(raw: dict, assignments: Sequence[str]) -> dict:
    """Apply ``--set key=value`` pairs onto the raw config structure.

    Dotted keys walk sections and list indices (``cells.0.soc=0.5``); a bare
    key is shorthand for the ``run`` section.  Values are parsed as JSON and
    fall back to a literal string, so ``policy=greedy`` works unquoted.
    """
    cfg = copy.deepcopy(raw)
    for item in assignments:
        key, sep, value_text = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set needs key=value, got {reprlib.repr(item)}")
        try:
            value = json.loads(value_text)
        except ValueError:  # not JSON, or an integer over Python's digit limit
            value = value_text
        parts = key.split(".")
        if len(parts) == 1:
            parts = ["run", parts[0]]
        node: Any = cfg
        for depth, part in enumerate(parts[:-1]):
            if isinstance(node, dict):
                node = node.setdefault(part, [] if parts[depth + 1].isdigit() else {})
            elif isinstance(node, list):
                node = node[_list_index(node, part, key)]
            else:
                raise ConfigError(
                    f"--set {_clip(key)}: {_clip('.'.join(parts[:depth]))} is not a container")
        leaf = parts[-1]
        if isinstance(node, dict):
            node[leaf] = value
        elif isinstance(node, list):
            node[_list_index(node, leaf, key)] = value
        else:
            raise ConfigError(f"--set {_clip(key)}: target is not a container")
    return cfg


def _list_index(node: list, part: str, key: str) -> int:
    # one rule wherever a path meets a list: a non-negative decimal within range
    if part.isascii() and part.isdigit() and int(part) < len(node):
        return int(part)
    raise ConfigError(f"--set {_clip(key)}: bad list index {reprlib.repr(part)}, "
                      f"out of range for {len(node)} items")


def _clip(text: str) -> str:
    # a key echoed unquoted in a message, cut to its ends as reprlib cuts a long value
    return reprlib.repr(text)[1:-1]


def _coerce(hint: Any, value: Any, where: str) -> Any:
    """Check a parsed JSON value against a field annotation; numbers become
    floats and fixed-length tuples become lists, so the result is JSON."""
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {reprlib.repr(value)}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"{where} is an integer outside the float range")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {reprlib.repr(value)}")
        return int(value)
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {reprlib.repr(value)}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {reprlib.repr(value)}")
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and args == (float, type(None)):
        return None if value is None else _coerce(float, value, where)
    if origin is tuple and set(args) == {float}:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigError(f"{where} must be a list of {len(args)} numbers")
        return [_coerce(float, v, where) for v in value]
    if hint == list[str]:
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{where} must be a list of strings")
        return list(value)
    raise AssertionError(f"no config coercion for {where}: {hint!r}")


def _merge_section(name: str, schema: dict, given: Any) -> dict:
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"section {name!r} must be an object")
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown key {name}.{_clip(key)}")
    return {
        key: _coerce(hint, given.get(key, default), f"{name}.{key}")
        for key, (hint, default) in schema.items()
    }


def effective_config(raw: dict) -> dict:
    """Fill every default in, coercing types; the result round-trips through
    JSON to an identical structure."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config section {reprlib.repr(key)}")

    cells_raw = raw.get("cells")
    if cells_raw is None:
        cells_raw = [{"soc": s} for s in STOCK_SOCS]
    if not isinstance(cells_raw, list):
        raise ConfigError("section 'cells' must be a list")
    eff: dict[str, Any] = {}
    for name, schema in _SCHEMA.items():
        if name == "cells":
            eff[name] = [
                _merge_section(f"cells[{i}]", schema, entry) for i, entry in enumerate(cells_raw)
            ]
        else:
            eff[name] = _merge_section(name, schema, raw.get(name))
    return eff


def build_scenario(effective: dict, policy: str | None = None) -> ScenarioConfig:
    """Turn an effective config into a validated ScenarioConfig.

    ``policy`` overrides run.policy (used by sweep).  Domain validation
    lives in the dataclasses; violations surface as ConfigError.
    """
    try:
        cells = []
        for entry in effective["cells"]:
            params = CellParams(**{k: v for k, v in entry.items() if k not in _STATE_KEYS})
            state = CellState(**{k: entry[k] for k in _STATE_KEYS})
            cells.append((params, state))
        run = {k: v for k, v in effective["run"].items() if k != "policies"}
        if policy is not None:
            run["policy"] = policy
        return ScenarioConfig(
            cells=cells,
            converter=ConverterParams(**effective["converter"]),
            charger=ChargerConfig(**effective["charger"]),
            controller=ControllerConfig(**effective["controller"]),
            **run,
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None


# -- trace CSV ---------------------------------------------------------------

def trace_header(n_cells: int) -> list[str]:
    cols = ["time_s", "cycle"]
    for k in range(1, n_cells + 1):
        cols += [f"soc_{k}", f"v_{k}", f"i_{k}", f"theta1_{k}", f"theta2_{k}", f"theta3_{k}"]
    cols += ["candidate_bits", "std_v", "charger_a"]
    return cols


def _write_csv(
    outputs: Sequence[tuple[str | Path, Sequence[str], Sequence[Any] | None]],
    items: Iterable[tuple[int, tuple]],
) -> int:
    """Write the CSV files ``outputs``, each a (path, header, converters or None),
    in one pass over ``items``, each (index into ``outputs``, values); a field is
    the str of its converter's result, or of itself.  A writer process beside the
    caller formats and writes them, taking blocks over a pipe that holds the
    caller while full, so memory stays flat; returns the row count.  The files go
    to ``.partial`` siblings that replace their paths after the last row; a
    failure leaves none."""
    import multiprocessing  # here, so importing this module does not pay for it

    # fork on Linux: a spawned writer imports this module in a fresh interpreter,
    # 0.18 s against 7 ms forked (2-core x86 VM), and it only formats and writes
    ctx = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    files = [(f"{path}.partial", header, convert) for path, header, convert in outputs]
    blocks_in, blocks_out = ctx.Pipe(duplex=False)
    reply_in, reply_out = ctx.Pipe(duplex=False)
    writer = ctx.Process(target=_csv_writer, daemon=True,
                         args=(blocks_in, reply_out, files, (blocks_out, reply_in)))
    try:
        with blocks_out, reply_in:
            with blocks_in, reply_out:
                writer.start()  # the writer's ends are its own from here
            try:
                items = iter(items)
                blocks = iter(lambda: list(itertools.islice(items, 512)), [])
                for block in itertools.chain(blocks, [None]):
                    try:
                        blocks_out.send(block)
                    except BrokenPipeError:
                        break  # the writer stopped early, and its reply says why
                try:
                    reply = reply_in.recv()
                except EOFError:
                    writer.join()
                    reply = ChildProcessError(f"CSV writer exited with code {writer.exitcode}")
            except BaseException:
                writer.kill()
                raise
            finally:
                writer.join()
        if isinstance(reply, BaseException):
            raise reply
    except BaseException:
        for partial in (name for name, _, _ in files if os.path.isfile(name)):
            os.unlink(partial)
        raise
    for (partial, _, _), (path, _, _) in zip(files, outputs):
        os.replace(partial, path)
    return reply


def _csv_writer(blocks, reply, files, parent_ends) -> None:
    # _write_csv's writer process: replies the row count once its files are closed, or its error
    for end in parent_ends:
        end.close()  # so a caller that dies ends the recv below
    call = getattr(operator, "call", lambda f, x: f(x))  # operator.call is new in 3.11
    result = 0
    try:
        with contextlib.ExitStack() as stack:
            rows = []
            for partial, header, convert in files:
                fh = stack.enter_context(open(partial, "w", newline=""))
                fh.write(",".join(header) + "\r\n")  # csv.writer's bytes: nothing needs quoting
                rows.append((fh.write, convert, ",".join(["%s"] * len(header)) + "\r\n"))
            while (block := blocks.recv()) is not None:
                for k, values in block:
                    write, convert, fmt = rows[k]
                    write(fmt % (tuple(map(call, convert, values)) if convert else values))
                result += len(block)
    except EOFError:
        return  # the caller is gone
    except BaseException as e:
        blocks.close()  # a caller blocked on a full pipe gets BrokenPipeError
        result = e
    reply.send(result)


def write_trace(path: str | Path, rows: Iterable[TraceRecord], n_cells: int) -> int:
    """Write the rows of any iterable, such as :meth:`Simulation.stream`, as
    they come; returns the row count."""
    # rows may come from library code with numpy scalars or ints: write float() of each
    convert = (float, str, *(float,) * 6 * n_cells, str, float, float)
    return _write_csv([(path, trace_header(n_cells), convert)], (
        (0, (r.time, r.cycle, *itertools.chain(*zip(r.soc, r.voltage, r.current, *zip(*r.theta))),
             r.candidate_bits, r.voltage_std, r.charger_current)) for r in rows
    ))


def read_trace(path: str | Path) -> list[TraceRecord]:
    """The rows of a trace.csv, as the TraceRecords that were written."""
    return list(iter_trace(path))


def iter_trace(path: str | Path) -> Iterator[TraceRecord]:
    """The rows of a trace.csv, as the TraceRecords that were written, one at
    a time while the file is read; every number must be finite.  A malformed
    line raises TraceFormatError, naming it, when the reader reaches it."""
    p = Path(path)
    if not p.is_file():
        raise TraceFormatError(f"trace file not found: {p}")
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{p}: line 1: missing header") from None
        extra = len(header) - 5
        if extra < 6 or extra % 6 != 0:
            raise TraceFormatError(f"{p}: line 1: unrecognized column count {len(header)}")
        if header != trace_header(extra // 6):
            raise TraceFormatError(f"{p}: line 1: header does not match the trace schema")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TraceFormatError(
                    f"{p}: line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                # per cell: soc, v, i, theta1, theta2, theta3
                cells = list(map(float, row[2:-3]))
                rec = TraceRecord(
                    time=float(row[0]),
                    cycle=int(row[1]),
                    soc=tuple(cells[0::6]),
                    voltage=tuple(cells[1::6]),
                    current=tuple(cells[2::6]),
                    theta=tuple(zip(cells[3::6], cells[4::6], cells[5::6])),
                    candidate_bits=row[-3],
                    voltage_std=float(row[-2]),
                    charger_current=float(row[-1]),
                )
            except ValueError as e:  # a field that is no number, or bad candidate bits
                fault = _bad_field(header, row) or e
                raise TraceFormatError(f"{p}: line {line_no}: {fault}") from None
            numbers = (rec.time, rec.voltage_std, rec.charger_current, *cells)
            if not all(map(math.isfinite, numbers)):
                raise TraceFormatError(f"{p}: line {line_no}: {_bad_field(header, row)}")
            yield rec


def _bad_field(header: Sequence[str], row: Sequence[str]) -> str | None:
    """The first numeric field of a trace row that is not a finite number, named and
    with its text shortened, or None if there is none."""
    for name, text in zip(header, row):
        if name == "candidate_bits":
            continue
        try:
            value = int(text) if name == "cycle" else float(text)
        except ValueError:
            return f"{name} is {reprlib.repr(text)}, not a number"
        if not math.isfinite(value):
            return f"{name} is {reprlib.repr(text)}, not finite"
    return None


def _write_json(path: Path, data: Any) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


# -- commands ----------------------------------------------------------------

def _resolve_out(given: str | None, command: str) -> Path:
    if given is not None:
        out = Path(given)
    else:
        from datetime import datetime, timezone  # here, as only an unnamed --out needs it

        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
        out = Path("runs") / f"{command}-{stamp}"
        suffix = 0
        while out.exists():
            suffix += 1
            out = Path("runs") / f"{command}-{stamp}-{suffix}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_effective(args: argparse.Namespace) -> dict:
    # overrides walk the resolved config, so cells.0.soc finds the default cells
    raw = apply_overrides(effective_config(load_config(args.config)), args.set)
    return effective_config(raw)


def _run(scenario: ScenarioConfig, out: Path) -> tuple[int, Summary]:
    """Run a scenario, streaming ``out/trace.csv``, then write ``out/summary.json``;
    returns the row count and the Summary, all a sweep worker sends back."""
    out.mkdir(exist_ok=True)
    sim = Simulation(scenario)
    rows = write_trace(out / "trace.csv", sim.stream(), len(scenario.cells))
    summary = sim.totals.summary()
    _write_json(out / "summary.json", dataclasses.asdict(summary))
    return rows, summary


def cmd_simulate(args: argparse.Namespace) -> int:
    eff = _load_effective(args)
    scenario = build_scenario(eff)
    out = _resolve_out(args.out, "simulate")
    rows, _ = _run(scenario, out)
    if args.dump_config:
        _write_json(out / "effective_config.json", eff)
    print(f"wrote {out / 'trace.csv'} ({rows} rows) and {out / 'summary.json'}")
    return 0


_COMPARISON_COLUMNS = ["policy"] + [f.name for f in dataclasses.fields(Summary)]


def cmd_sweep(args: argparse.Namespace) -> int:
    eff = _load_effective(args)
    policies = eff["run"]["policies"]
    if not policies:
        raise ConfigError("sweep needs a non-empty run.policies list")
    if len(set(policies)) != len(policies):
        raise ConfigError(f"duplicate policy names in run.policies: {reprlib.repr(policies)}")
    # fail fast on a bad policy name or cell/converter config before any run
    scenarios = {p: build_scenario(eff, policy=p) for p in policies}
    out = _resolve_out(args.out, "sweep")

    import concurrent.futures  # here, as only a sweep needs it

    with concurrent.futures.ProcessPoolExecutor(min(max(1, args.jobs), len(policies))) as pool:
        futures = {p: pool.submit(_run, s, out / p) for p, s in scenarios.items()}
        summaries = {p: fut.result()[1] for p, fut in futures.items()}

    _write_csv([(out / "comparison.csv", _COMPARISON_COLUMNS, None)], (
        (0, (p, *("" if v is None else float(v) for v in dataclasses.astuple(summaries[p]))))
        for p in policies
    ))
    if args.dump_config:
        _write_json(out / "effective_config.json", eff)
    print(f"wrote {out / 'comparison.csv'} ({len(policies)} policies)")
    return 0


_IDENT_COLUMNS = ["time_s", "cell", "theta1", "theta2", "theta3", "prediction_error_v"]


def replay_identification(
    records: Iterable[TraceRecord], scenario: ScenarioConfig
) -> Iterator[tuple[float, int, float, float, float, float]]:
    """Feed the scenario's online identification a recorded trace, as the run fed
    it, yielding each record's (time, cell, thetas, innovation) per cell as the
    records arrive.  The same :class:`rls.Identification` steps make both, so
    the thetas equal the recorded ones bit for bit on every row but the last,
    which the run records without an update.
    """
    cells = [params for params, _ in scenario.cells]
    ident = rls.Identification(
        cells, scenario.warm_start, scenario.initial_covariance, scenario.forgetting_factor
    )
    prev = None
    for rec in records:
        if prev is None:
            if len(rec.voltage) != len(cells):
                raise ConfigError(
                    f"trace has {len(rec.voltage)} cells but the config defines {len(cells)}"
                )
        elif rec.cycle != prev.cycle + 1:
            raise ConfigError(
                f"trace skips from cycle {prev.cycle} to {rec.cycle}; "
                "identify needs run.record_every=1"
            )
        else:
            ident.advance(prev.current, rec.time - prev.time, prev.soc, rec.soc)
        ident.measure(rec.voltage, rec.charger_current)
        est = ident.estimator
        for j, (theta, e) in enumerate(zip(est.theta, est.innovation)):
            yield (rec.time, j + 1, *theta, e)
        prev = rec


def _peek(items: Iterator) -> tuple[Any, Iterator]:
    """The first item, and an iterator over all of them; the first item is
    produced (and every check on it run) before this returns."""
    first = next(items)
    return first, itertools.chain([first], items)


def _trace_records(
    args: argparse.Namespace, command: str
) -> tuple[TraceRecord, Iterator[TraceRecord]]:
    # the file, its header and its first row are checked before any output exists
    if args.trace is None:
        raise ConfigError(f"{command} requires --trace pointing at a trace.csv")
    try:
        return _peek(iter_trace(args.trace))
    except StopIteration:
        raise ConfigError(f"{args.trace}: trace has no data rows") from None


def cmd_identify(args: argparse.Namespace) -> int:
    _, records = _trace_records(args, "identify")
    scenario = build_scenario(_load_effective(args))
    # the first record's cell count is checked before the directory is made
    _, rows = _peek(replay_identification(records, scenario))
    out = _resolve_out(args.out, "identify")
    last_errors = collections.deque(maxlen=len(scenario.cells))

    def values():
        for row in rows:
            last_errors.append(abs(row[-1]))
            yield 0, row

    _write_csv([(out / "identification.csv", _IDENT_COLUMNS, None)], values())
    print(f"wrote {out / 'identification.csv'}; final |prediction error| {max(last_errors):.3e} V")
    return 0


def cmd_export_plots(args: argparse.Namespace) -> int:
    first, records = _trace_records(args, "export-plots")
    out = _resolve_out(args.out, "export-plots")
    cells = range(len(first.voltage))
    hi = max(cells, key=lambda j: (first.voltage[j], -j))
    lo = min(cells, key=lambda j: (first.voltage[j], j))
    # (file, value column, cells, value); the balancing current leaves out the
    # charger's common-mode part
    plots = (
        ("soc_vs_time.csv", "soc", cells, lambda r, j: r.soc[j]),
        ("balancing_current_vs_time.csv", "current_a", cells,
         lambda r, j: r.current[j] - r.charger_current),
        ("extreme_voltages_vs_time.csv", "voltage_v", (hi, lo), lambda r, j: r.voltage[j]),
    )

    def values():
        # one pass over the trace feeds all three files
        for r in records:
            for k, (_, _, plot_cells, value) in enumerate(plots):
                for j in plot_cells:
                    yield k, (r.time, j + 1, value(r, j))

    files = [(out / name, ["time_s", "cell", column], None) for name, column, _, _ in plots]
    _write_csv(files, values())
    print(f"wrote {len(plots)} plot files to {out}")
    return 0


# -- entry point -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellbal",
        description="Closed-loop cell balancing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, trace: bool, dump: bool, config: bool = True) -> None:
        p.add_argument("--out", help="output directory (default: timestamped under runs/)")
        if config:
            p.add_argument("--config", help="JSON config file (// comments allowed)")
            p.add_argument(
                "--set",
                action="append",
                default=[],
                metavar="KEY=VALUE",
                help="override a config entry, e.g. run.max_time=100 or cells.0.soc=0.5",
            )
        if trace:
            p.add_argument("--trace", help="input trace.csv to process")
        if dump:
            p.add_argument(
                "--dump-config",
                action="store_true",
                help="also write effective_config.json with every default filled in",
            )

    p_sim = sub.add_parser("simulate", help="run one scenario, write trace and summary")
    common(p_sim, trace=False, dump=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run each policy in run.policies, compare")
    common(p_sweep, trace=False, dump=True)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ident = sub.add_parser("identify", help="replay the estimator over a trace")
    common(p_ident, trace=True, dump=False)
    p_ident.set_defaults(func=cmd_identify)

    p_plots = sub.add_parser("export-plots", help="emit tidy CSVs for plotting")
    common(p_plots, trace=True, dump=False, config=False)
    p_plots.set_defaults(func=cmd_export_plots)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the contract pins exit code 3
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
