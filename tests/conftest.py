"""Shared builders for the stock four-cell scenario used across the suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from cellbal import (
    CellState,
    ConverterParams,
    ScenarioConfig,
    representative_cell_params,
)

STOCK_SOCS = (0.60, 0.50, 0.45, 0.40)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, cwd, timeout=None) -> subprocess.CompletedProcess:
    """Run ``python -m cellbal.cli *args`` in a child interpreter, raising
    ``subprocess.TimeoutExpired`` if it runs longer than ``timeout`` seconds.

    The child inherits the environment with the absolute ``src`` directory
    prepended to ``PYTHONPATH``, so it imports the package under test even
    when ``cwd`` is elsewhere and the parent's ``PYTHONPATH`` is relative."""
    env = dict(os.environ)
    paths = [str(SRC_DIR), *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run(
        [sys.executable, "-m", "cellbal.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def make_stock_scenario(policy: str = "ampc", **overrides) -> ScenarioConfig:
    """The default four-cell scenario: identical cells on the stock SOC ladder,
    10 mH converter, CC-CV charger, everything else at package defaults."""
    cells = [(representative_cell_params(), CellState(soc=s)) for s in STOCK_SOCS]
    kwargs = dict(
        cells=cells,
        converter=ConverterParams(magnetizing_inductance=0.01),
        policy=policy,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)
