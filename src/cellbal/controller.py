"""Adaptive predictive selection of flyback switch schedules.

When the cell voltages spread past a threshold, the controller ranks the
cells, maps each of the 16 possible auxiliary switch schedules onto the top
three, predicts every cell's voltage at the end of the resulting cycle, and
picks the schedule whose predicted voltages have the smallest population
standard deviation.  The 16 schedules run only 9 distinct cycles
(``flyback.DISTINCT``), so each scorer predicts those 9 in plain floats and
gives every schedule its cycle's score.  Predictions come either from the
per-cell identified linear models, each folded by ``rls.fold`` into an affine
function of the cell's cycle current, or, for verification against ground
truth, from the true cell models themselves.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from . import rls
from .ecm import CellParams, hold_factors, hold_step, terminal_voltage
from .flyback import CYCLE_OF, ConverterParams, SwitchPlan, distinct_cycles

# The 9 distinct cycles' scores as the 16 schedules' scores, in schedule order.
_BY_SCHEDULE = itemgetter(*CYCLE_OF)

# The true cell models as the lists (params, soc, v1, v2), one entry per cell.
Plant = tuple[Sequence[CellParams], Sequence[float], Sequence[float], Sequence[float]]

# "ampc" scores the 9 distinct cycles of the 16 schedules; "greedy" runs
# schedule 0 on the top three cells unscored; "none" never balances.
POLICIES = ("ampc", "greedy", "none")


@dataclass(frozen=True)
class ControllerConfig:
    gap_threshold: float = 0.02          # volts, strict max-min trigger
    prediction_source: str = "rls"       # "rls" | "plant"

    def __post_init__(self) -> None:
        if not (self.gap_threshold > 0.0 and math.isfinite(self.gap_threshold)):
            raise ValueError("gap_threshold must be positive and finite")
        if self.prediction_source not in ("rls", "plant"):
            raise ValueError("prediction_source must be 'rls' or 'plant', "
                             f"got {reprlib.repr(self.prediction_source)}")


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
    squares = 0.0
    for v in values:
        squares += (v - mean) ** 2
    return math.sqrt(squares / n)


def predict_stds(
    ranking: Sequence[int],
    estimator: rls.RlsEstimator,
    charge_accumulators: Sequence[float],
    capacities: Sequence[float],
    external_current: float,
    conv: ConverterParams,
    voltages: Sequence[float],
) -> tuple[float, ...]:
    """Predicted end-of-cycle voltage spread of every schedule, in schedule order, from
    the stacked estimator's identified models, each folded over the cycle from its charge
    accumulator and about the measured mean.  A cell's current is the external (charger)
    one plus its charge delta spread over the cycle (none for a zero-length cycle), so the
    unswitched cells of a cycle share one current."""
    cells = ranking[:3]
    secondary, drains, duration = distinct_cycles(conv, voltages, cells)
    spread = duration if duration > 0.0 else math.inf
    models = rls.fold(estimator, duration, charge_accumulators, capacities,
                      sum(voltages) / len(voltages))
    switched = [(j, *models[j], cell_drains) for j, cell_drains in zip(cells, drains)]
    scores = []
    for k, s in enumerate(secondary):
        i = external_current - s / spread
        predicted = [a * i + b for a, b in models]
        for j, a, b, cell_drains in switched:
            predicted[j] = a * (external_current - (s - cell_drains[k]) / spread) + b
        scores.append(std(predicted))
    return _BY_SCHEDULE(scores)


def predict_stds_plant(
    ranking: Sequence[int],
    plant: Plant,
    external_current: float,
    conv: ConverterParams,
    voltages: Sequence[float],
) -> tuple[float, ...]:
    """Predicted end-of-cycle voltage spread of every schedule, in schedule order, from
    the true cell models, given as the lists (params, soc, v1, v2) of the cells' parameters
    and flat states: each state stepped by the cell's average current, as
    :func:`predict_stds` forms it, and read at the external current alone, since all
    converter currents are exactly zero at the end of a cycle.  The cycles share one
    length, so each cell's hold factors serve all 9."""
    secondary, drains, duration = distinct_cycles(conv, voltages, ranking[:3])
    deltas = [secondary] * len(voltages)
    for j, cell_drains in zip(ranking[:3], drains):
        deltas[j] = [s - d for s, d in zip(secondary, cell_drains)]
    predicted = []
    for params, soc, v1, v2, cell in zip(*plant, deltas):
        factors = hold_factors(params, duration) if duration > 0.0 else None
        ends = [hold_step(params, factors, soc, v1, v2, external_current - d / duration,
                          duration) if factors else (soc, v1, v2, False) for d in cell]
        predicted.append([terminal_voltage(params, soc, v1, v2, external_current)
                          for soc, v1, v2, _ in ends])
    scores = [std(cycle) for cycle in zip(*predicted)]
    return _BY_SCHEDULE(scores)


def select_plan(
    voltages: Sequence[float],
    estimator: Optional[rls.RlsEstimator],
    charge_accumulators: Optional[Sequence[float]],
    external_current: float,
    conv: ConverterParams,
    cfg: ControllerConfig,
    *,
    capacities: Optional[Sequence[float]] = None,
    plant: Optional[Plant] = None,
    policy: str = "ampc",
) -> Decision:
    """Evaluate the trigger and, when active, pick the policy's schedule.

    Only ``ampc`` scores the candidates, and its ties go to the lowest
    schedule index, so equal predictions select the all-off schedule 0.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {', '.join(POLICIES)}, got {reprlib.repr(policy)}")
    ranking = rank_cells(voltages)
    if policy == "none" or not should_balance(voltages, cfg):
        return Decision(None, (), ranking)
    if policy == "greedy":
        return Decision(SwitchPlan(*ranking[:3]), (), ranking)

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
    best = 0
    for k, score in enumerate(stds):
        if score < stds[best]:
            best = k
    return Decision(SwitchPlan(*ranking[:3], best), tuple(stds), ranking)
