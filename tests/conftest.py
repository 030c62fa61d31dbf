"""Shared builders for the stock four-cell scenario used across the suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

from cellbal import (
    CellParams,
    CellState,
    ConverterParams,
    ScenarioConfig,
    rls,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, cwd, timeout=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child interpreter, raising
    ``subprocess.TimeoutExpired`` if it runs longer than ``timeout`` seconds.

    The child inherits the environment with the absolute ``src`` directory
    prepended to ``PYTHONPATH``, so it imports the package under test even
    when ``cwd`` is elsewhere and the parent's ``PYTHONPATH`` is relative."""
    env = dict(os.environ)
    paths = [str(SRC_DIR), *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_cli(*args, cwd, timeout=None) -> subprocess.CompletedProcess:
    """Run ``python -m cellbal.cli *args`` through :func:`run_python`."""
    return run_python("-m", "cellbal.cli", *args, cwd=cwd, timeout=timeout)


def make_stock_scenario(policy: str = "ampc", **overrides) -> ScenarioConfig:
    """The stock four-cell scenario, ``ScenarioConfig()``, under ``policy`` and with
    any other field overridden."""
    return ScenarioConfig(policy=policy, **overrides)


# Converters from 0.1 mH to 100 mH and any turns, an idle one (zero peak) included.
CONVERTERS = st.builds(
    ConverterParams,
    magnetizing_inductance=st.floats(1e-4, 0.1),
    turns_primary=st.integers(1, 3),
    turns_secondary=st.integers(1, 8),
    peak_current=st.floats(0.5, 10.0) | st.just(0.0),
)


@st.composite
def leaky_cells(draw, n):
    """n true cells, each with or without self-discharge and some small enough that one
    converter cycle or a second of charge moves them past a reservoir limit, at SOCs
    that include both limits and with charged RC branches."""
    def cell():
        params = CellParams(
            capacity_coulombs=draw(st.just(2.0) | st.floats(2.0, 3000.0)),
            self_discharge_resistance=draw(st.none() | st.floats(10.0, 1e6)),
            v_max=6.0,
        )
        soc = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        v1, v2 = draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.05, 0.05))
        return params, CellState(soc=soc, v1=v1, v2=v2)

    return [cell() for _ in range(n)]


@st.composite
def scoring_states(draw, sizes=st.integers(4, 8)):
    """A scorer's inputs on a stack of 4 to 8 cells, or of a size drawn from ``sizes``: a
    converter, measured voltages, a stacked estimator scattered around the warm start,
    charge accumulators, capacities, the charger current and a plant of representative
    cells at their own SOCs, as the lists (params, soc, v1, v2)."""
    n = draw(sizes)

    def cells(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    warm = rls.warm_start_theta(CellParams())
    theta = cells(st.tuples(*(st.floats(t - 1.0, t + 1.0) for t in warm)))
    params = CellParams()
    return dict(
        conv=draw(CONVERTERS),
        voltages=cells(st.floats(2.8, 4.4)),
        estimator=rls.init(theta, 1e6, 0.995),
        accumulators=cells(st.floats(-5000.0, 5000.0)),
        capacities=cells(st.floats(100.0, 10000.0)),
        i_ext=draw(st.sampled_from([0.0, -0.4]) | st.floats(-2.0, 0.0)),
        plant=([params] * n, cells(st.floats(0.05, 0.95)), [0.0] * n, [0.0] * n),
    )
