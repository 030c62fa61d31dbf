"""Recursive least-squares identification of a per-cell voltage model.

Each cell's terminal voltage is fitted online to a three-term linear model

    v ~ theta1 * i  +  theta2 * (q / C)  +  theta3

where ``i`` is the cell current (positive = discharge), ``q`` the cumulative
transferred charge since the run started and ``C`` the nominal capacity.
theta1 absorbs the lumped resistive drop, theta2 the local OCV slope versus
discharged fraction, theta3 the operating-point offset.  The estimator is
exponentially-weighted RLS whose forgetting never lifts trace(P) above its
initial value: without excitation the 1/lambda inflation would otherwise
grow P without bound (covariance windup).  The covariance is re-symmetrized
after every update to stop round-off drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecm import CellParams, ocv


@dataclass
class RlsEstimator:
    theta: np.ndarray        # shape (3,)
    covariance: np.ndarray   # shape (3, 3), symmetric positive definite
    forgetting_factor: float
    trace_limit: float       # trace of the initial covariance; forgetting stays below it
    sample_count: int = 0
    innovation: float = 0.0  # y - x . theta before the update that made this estimator


def init(theta0, p0_scale: float, forgetting_factor: float = 0.995) -> RlsEstimator:
    """Fresh estimator with covariance p0_scale * I."""
    if not p0_scale > 0.0:
        raise ValueError(f"p0_scale must be positive, got {p0_scale!r}")
    if not 0.0 < forgetting_factor <= 1.0:
        raise ValueError(
            f"forgetting_factor must lie in (0, 1], got {forgetting_factor!r}"
        )
    theta = np.array(theta0, dtype=float).reshape(3).copy()
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta0 must be finite")
    return RlsEstimator(
        theta=theta,
        covariance=p0_scale * np.eye(3),
        forgetting_factor=forgetting_factor,
        trace_limit=3.0 * p0_scale,
    )


def warm_start_theta(params: CellParams) -> np.ndarray:
    """Heuristic initial weights from nominal cell parameters.

    Mean OCV slope over the full SOC range for the charge term, the ohmic
    resistance (negated: discharge lowers the terminal voltage) for the
    current term, and the mid-range OCV for the offset.
    """
    slope = ocv(params, 1.0) - ocv(params, 0.0)
    return np.array([-params.series_resistance, -slope, ocv(params, 0.5)])


def initial_estimators(cells, warm_start, p0_scale, forgetting_factor) -> list[RlsEstimator]:
    """One fresh estimator per cell, warm from its nominal model or cold at zero."""
    theta0 = [warm_start_theta(p) if warm_start else np.zeros(3) for p in cells]
    return [init(t, p0_scale, forgetting_factor) for t in theta0]


def build_regressor(current: float, cumulative_charge: float, capacity: float) -> np.ndarray:
    """Regressor [i, q/C, 1] for one sample.  The trailing 1 is structural."""
    if not capacity > 0.0:
        raise ValueError(f"capacity must be positive, got {capacity!r}")
    return np.array([current, cumulative_charge / capacity, 1.0])


def update(est: RlsEstimator, x, y: float) -> RlsEstimator:
    """One RLS step with measurement pair (x, y); returns a new estimator."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,) or not np.all(np.isfinite(x)):
        raise ValueError("regressor must be a finite 3-vector")
    if not np.isfinite(y):
        raise ValueError("measurement must be finite")
    lam = est.forgetting_factor
    px = est.covariance @ x
    gain = px / (lam + float(x @ px))
    innovation = y - float(x @ est.theta)
    theta = est.theta + gain * innovation
    # x' P == (P x)' because P is kept symmetric.
    cov = est.covariance - np.outer(gain, px)
    # forget only while trace(P / lambda) stays within the limit: no windup
    if cov[0, 0] + cov[1, 1] + cov[2, 2] <= lam * est.trace_limit:
        cov = cov / lam
    cov = 0.5 * (cov + cov.T)
    return RlsEstimator(
        theta=theta,
        covariance=cov,
        forgetting_factor=lam,
        trace_limit=est.trace_limit,
        sample_count=est.sample_count + 1,
        innovation=innovation,
    )


def identification_step(estimators, voltages, currents, charges, capacities) -> list[RlsEstimator]:
    """Update each cell's estimator with its measured voltage, paired with the
    current that flowed up to the measurement and the charge moved before it."""
    return [
        update(est, build_regressor(i, q, c), v)
        for est, v, i, q, c in zip(estimators, voltages, currents, charges, capacities)
    ]


def predict(est: RlsEstimator, x) -> float:
    """Model output theta . x for a candidate regressor."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("regressor must be a 3-vector")
    return float(x @ est.theta)
