"""Equivalent-circuit Li-ion cell model with exact zero-order-hold stepping.

One cell is a series chain of an SOC-dependent open-circuit voltage source,
an ohmic resistance and two RC relaxation branches, plus an optional
self-discharge path across the charge reservoir.  Because the branch ODEs are
linear and first order, a constant-current step of any length has a closed
form, so the simulator never accumulates integration error no matter how
coarse the step.

Sign convention used through the whole package: positive current discharges
the cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

# Grid used for the construction-time monotonicity check of the OCV curve.
OCV_GRID_POINTS = 1000


@dataclass(frozen=True)
class CellParams:
    """Electrical parameters of one cell; the defaults are a representative 0.8 Ah
    cell, plausible for a small cylindrical cell but not a fit to any specific part.

    Units: coulombs, ohms, farads, volts.  ``ocv_coeffs`` are the five
    coefficients (a0, a1, a2, a3, a4) of the open-circuit voltage curve
    a0 + a1*s + a2*s^2 + a3*s^3 + a4*e^(-b*s), and ``ocv_exponent`` is its decay
    rate b.
    ``self_discharge_resistance`` is the optional leak across the reservoir
    (None disables self-discharge entirely).
    """

    capacity_coulombs: float = 2880.0
    series_resistance: float = 0.07
    rc1_resistance: float = 0.04
    rc1_capacitance: float = 1000.0
    rc2_resistance: float = 0.03
    rc2_capacitance: float = 4000.0
    ocv_coeffs: tuple[float, float, float, float, float] = (3.2, 0.8, -0.2, 0.1, -0.15)
    ocv_exponent: float = 20.0
    v_min: float = 3.0
    v_max: float = 4.2
    self_discharge_resistance: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ocv_coeffs", tuple(float(c) for c in self.ocv_coeffs))
        if len(self.ocv_coeffs) != 5:
            raise ValueError("ocv_coeffs must have exactly 5 entries")
        positives = [
            ("capacity_coulombs", self.capacity_coulombs),
            ("series_resistance", self.series_resistance),
            ("rc1_resistance", self.rc1_resistance),
            ("rc1_capacitance", self.rc1_capacitance),
            ("rc2_resistance", self.rc2_resistance),
            ("rc2_capacitance", self.rc2_capacitance),
        ]
        if self.self_discharge_resistance is not None:
            positives.append(("self_discharge_resistance", self.self_discharge_resistance))
        for name, value in positives:
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # hold_factors divides by each time constant, so none may underflow to 0
        taus = [
            ("rc1", self.rc1_resistance * self.rc1_capacitance),
            ("rc2", self.rc2_resistance * self.rc2_capacitance),
        ]
        if self.self_discharge_resistance is not None:
            tau_sd = self.self_discharge_resistance * self.capacity_coulombs
            taus.append(("self-discharge", tau_sd))
        for name, tau in taus:
            if not tau > 0.0:
                raise ValueError(f"{name} time constant R*C must be positive, got {tau!r} s")
        if not (math.isfinite(self.ocv_exponent) and self.ocv_exponent > 0.0):
            raise ValueError("ocv_exponent must be positive and finite")
        # the converter's nominal cycle divides by the lowest v_min
        if not self.v_min > 0.0:
            raise ValueError(f"v_min must be positive, got {self.v_min!r}")
        if not self.v_min < self.v_max:
            raise ValueError(f"require v_min < v_max, got {self.v_min} >= {self.v_max}")
        # The whole controller stack assumes a monotone SOC -> OCV map
        # (rankings, the gap trigger, the summary metrics), so a curve that
        # dips anywhere is rejected up front rather than failing silently.
        # A NaN step fails `>` too.
        last = OCV_GRID_POINTS - 1
        grid = [terminal_voltage(self, k / last, 0.0, 0.0, 0.0) for k in range(last + 1)]
        for k in range(1, last + 1):
            if not grid[k] > grid[k - 1]:
                raise ValueError(
                    f"OCV curve must be strictly increasing on [0, 1]; "
                    f"violated near soc={k / last:.4f}"
                )


@dataclass(frozen=True)
class CellState:
    """Dynamic state of one cell: SOC fraction and the two RC branch voltages."""

    soc: float = 0.5
    v1: float = 0.0
    v2: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.soc <= 1.0:
            raise ValueError(f"soc must lie in [0, 1], got {self.soc!r}")
        if not (math.isfinite(self.v1) and math.isfinite(self.v2)):
            raise ValueError("RC branch voltages must be finite")


def ocv(params: CellParams, soc: float) -> float:
    """Open-circuit voltage at the given SOC fraction."""
    if not 0.0 <= soc <= 1.0:
        raise ValueError(f"soc must lie in [0, 1], got {soc!r}")
    return terminal_voltage(params, soc, 0.0, 0.0, 0.0)  # x - 0.0 is x


def terminal_voltage(params: CellParams, soc: float, v1: float, v2: float, current: float) -> float:
    """Terminal voltage of a cell at (soc, v1, v2) under the given instantaneous current:
    the open-circuit voltage less both RC branches and the ohmic drop.  The SOC is not
    range-checked here; :func:`ocv` checks it, and a stepped SOC is clamped to [0, 1]."""
    a0, a1, a2, a3, a4 = params.ocv_coeffs
    return (a0 + soc * (a1 + soc * (a2 + soc * a3)) + a4 * math.exp(-params.ocv_exponent * soc)
            - v1 - v2 - params.series_resistance * current)


def hold_factors(params: CellParams, dt: float) -> tuple:
    """The factors of :func:`hold_step` for a ``dt``-second step of one cell."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    # expm1 keeps the (1 - e^-x) factors fully accurate for small x; the
    # self-discharge time constant can reach 1e8 s, where plain 1-exp loses
    # six digits and breaks the semigroup property.
    x1 = dt / (params.rc1_resistance * params.rc1_capacitance)
    x2 = dt / (params.rc2_resistance * params.rc2_capacitance)
    branches = (math.exp(-x1), params.rc1_resistance * math.expm1(-x1),
                math.exp(-x2), params.rc2_resistance * math.expm1(-x2))
    if params.self_discharge_resistance is None:
        return (*branches, None, None)
    xs = dt / (params.self_discharge_resistance * params.capacity_coulombs)
    return (*branches, math.exp(-xs), math.expm1(-xs))


def hold_step(params: CellParams, factors: tuple, soc: float, v1: float, v2: float,
              current: float, dt: float) -> tuple[float, float, float, bool]:
    """(soc, v1, v2) after ``dt`` seconds of constant current by the exact zero-order hold
    of ``factors = hold_factors(params, dt)``, and whether the SOC was clamped to [0, 1]."""
    if not math.isfinite(current):
        raise ValueError("current must be finite")
    e1, g1, e2, g2, es, gs = factors
    v1 = v1 * e1 - g1 * current
    v2 = v2 * e2 - g2 * current
    if es is None:
        soc = soc - current * dt / params.capacity_coulombs
    else:
        # d(soc)/dt = -soc/tau - I/C with tau = R_sd * C; exact solution below.
        soc = soc * es + current * params.self_discharge_resistance * gs
    saturated = soc < 0.0 or soc > 1.0
    if saturated:
        soc = min(1.0, max(0.0, soc))
    return soc, v1, v2, saturated


def step_exact(params: CellParams, state: CellState, current: float,
               dt: float) -> tuple[CellState, bool]:
    """:func:`hold_step` on a state: the state ``dt`` seconds of constant current
    later, and whether its SOC had to be clamped."""
    *end, saturated = hold_step(params, hold_factors(params, dt), state.soc, state.v1,
                                state.v2, current, dt)
    return CellState(*end), saturated
