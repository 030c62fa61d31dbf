"""Adaptive predictive selection of flyback switch schedules.

When the cell voltages spread past a threshold, the controller ranks the
cells, maps each of the 16 possible auxiliary switch schedules onto the top
three, predicts every cell's voltage at the end of the resulting cycle, and
picks the schedule whose predicted voltages have the smallest population
standard deviation.  Predictions come either from the per-cell identified
linear models, through ``rls.predict``, or, for verification against ground
truth, from the true cell models themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rls
from .ecm import CellParams, CellState, step_exact, terminal_voltage
from .flyback import ConverterParams, SwitchPlan, charge_table


@dataclass(frozen=True)
class ControllerConfig:
    gap_threshold: float = 0.02          # volts, strict max-min trigger
    prediction_source: str = "rls"       # "rls" | "plant"

    def __post_init__(self) -> None:
        if not (self.gap_threshold > 0.0 and math.isfinite(self.gap_threshold)):
            raise ValueError("gap_threshold must be positive and finite")
        if self.prediction_source not in ("rls", "plant"):
            raise ValueError(
                f"prediction_source must be 'rls' or 'plant', got {self.prediction_source!r}"
            )


@dataclass(frozen=True)
class Decision:
    """Outcome of one control step; balancing is active when ``plan`` is set."""

    plan: Optional[SwitchPlan]
    predicted_std: tuple[float, ...]   # 16 values in schedule order; empty when inactive
    ranking: tuple[int, ...]


def rank_cells(voltages: Sequence[float]) -> tuple[int, ...]:
    """Cell indices by descending voltage, ties broken by ascending index."""
    if len(voltages) < 4:
        raise ValueError(f"need at least 4 cells to rank, got {len(voltages)}")
    return tuple(sorted(range(len(voltages)), key=lambda j: (-voltages[j], j)))


def should_balance(voltages: Sequence[float], cfg: ControllerConfig) -> bool:
    """Strict trigger: spread must exceed the threshold, not merely reach it."""
    if not voltages:
        raise ValueError("need at least one voltage")
    return max(voltages) - min(voltages) > cfg.gap_threshold


def std(values: Sequence[float]) -> float:
    """Population standard deviation (divide by n)."""
    n = len(values)
    if n == 0:
        raise ValueError("std of an empty sequence")
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def row_stds(values: np.ndarray) -> np.ndarray:
    """``values.std(axis=1)`` bit for bit: numpy's own ufunc steps, without its wrappers."""
    dev = values - np.add.reduce(values, axis=1, keepdims=True) / values.shape[1]
    return np.sqrt(np.add.reduce(np.square(dev), axis=1) / values.shape[1])


def first_min(scores: np.ndarray) -> int:
    """``np.nanargmin(scores)`` for scores that are not all NaN, without its wrappers."""
    return int(np.where(np.isnan(scores), np.inf, scores).argmin())


def _cycle_currents(
    ranking: Sequence[int],
    conv: ConverterParams,
    voltages: Sequence[float],
    external_current: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell average currents (16, n) over every schedule's cycle, and
    the cycle lengths (16,), in schedule order.

    The converter moves charge_delta[j] coulombs into cell j over the cycle;
    spread over the duration and added to the external (charger) current that
    flows regardless.  A zero-length cycle leaves the external current alone.
    """
    deltas, duration = charge_table(conv, voltages, ranking[:3])
    spread = np.where(duration > 0.0, duration, np.inf)
    return external_current - deltas / spread[:, None], duration


def predict_stds(
    ranking: Sequence[int],
    estimator: rls.RlsEstimator,
    charge_accumulators: Sequence[float],
    capacities: Sequence[float],
    external_current: float,
    conv: ConverterParams,
    voltages: Sequence[float],
) -> np.ndarray:
    """Predicted end-of-cycle voltage spread of every candidate, using the
    identified models of the stacked estimator.

    Each cell's regressor takes its cycle-average current and its charge
    accumulator advanced by that current over the cycle.
    """
    currents, duration = _cycle_currents(ranking, conv, voltages, external_current)
    q_next = np.asarray(charge_accumulators, dtype=float) + currents * duration[:, None]
    predicted = rls.predict(estimator, rls.build_regressor(currents, q_next, capacities))
    return row_stds(predicted)


def predict_stds_plant(
    ranking: Sequence[int],
    plant: Sequence[tuple[CellParams, CellState]],
    external_current: float,
    conv: ConverterParams,
    voltages: Sequence[float],
) -> np.ndarray:
    """Predicted end-of-cycle voltage spread of every candidate, using the
    true cell models.

    Steps every true state by its cycle-average current, then reads the
    terminal voltage at the external current alone: all converter currents
    are exactly zero at the end of a cycle.
    """
    currents, duration = _cycle_currents(ranking, conv, voltages, external_current)
    predicted = np.empty(currents.shape)
    for j, (params, state) in enumerate(plant):
        for k, (current, dt) in enumerate(zip(currents[:, j].tolist(), duration.tolist())):
            end = step_exact(params, state, current, dt)[0] if dt > 0.0 else state
            predicted[k, j] = terminal_voltage(params, end, external_current)
    return row_stds(predicted)


def select_plan(
    voltages: Sequence[float],
    estimator: Optional[rls.RlsEstimator],
    charge_accumulators: Optional[Sequence[float]],
    external_current: float,
    conv: ConverterParams,
    cfg: ControllerConfig,
    *,
    capacities: Optional[Sequence[float]] = None,
    plant: Optional[Sequence[tuple[CellParams, CellState]]] = None,
) -> Decision:
    """Evaluate the trigger and, when active, pick the argmin schedule.

    Ties go to the lowest schedule index, so equal predictions select the
    all-off schedule 0.
    """
    ranking = rank_cells(voltages)
    if not should_balance(voltages, cfg):
        return Decision(None, (), ranking)

    if cfg.prediction_source == "plant":
        if plant is None:
            raise ValueError("prediction_source 'plant' requires the plant models")
        stds = predict_stds_plant(ranking, plant, external_current, conv, voltages)
    else:
        if estimator is None or charge_accumulators is None or capacities is None:
            raise ValueError(
                "prediction_source 'rls' requires estimators, accumulators and capacities"
            )
        stds = predict_stds(
            ranking, estimator, charge_accumulators, capacities, external_current, conv, voltages
        )

    # A strict `<` scan from the all-off schedule: a NaN never wins, and a
    # NaN first score keeps the all-off schedule.
    best = 0 if math.isnan(stds[0]) else first_min(stds)
    return Decision(SwitchPlan(*ranking[:3], best), tuple(stds.tolist()), ranking)
