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
after every update to stop round-off drift.  An estimator may stack cells on
a leading axis; each row carries the bits a lone estimator fed its samples has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecm import CellParams, ocv


@dataclass
class RlsEstimator:
    theta: np.ndarray        # shape (..., 3)
    covariance: np.ndarray   # shape (..., 3, 3), each symmetric positive definite
    forgetting_factor: float
    trace_limit: float       # trace of the initial covariance; forgetting stays below it
    innovation: np.ndarray = 0.0  # shape (...): y - x . theta before the last update


def init(theta0, p0_scale: float, forgetting_factor: float) -> RlsEstimator:
    """Fresh estimator with covariance p0_scale * I; theta0 is (3,) or (n, 3)."""
    if not p0_scale > 0.0:
        raise ValueError(f"p0_scale must be positive, got {p0_scale!r}")
    if not 0.0 < forgetting_factor <= 1.0:
        raise ValueError(
            f"forgetting_factor must lie in (0, 1], got {forgetting_factor!r}"
        )
    theta = np.array(theta0, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != 3 or not np.isfinite(theta).all():
        raise ValueError(f"theta0 must be finite with shape (3,) or (n, 3), got {theta0!r}")
    return RlsEstimator(
        theta=theta,
        covariance=np.broadcast_to(p0_scale * np.eye(3), theta.shape + (3,)).copy(),
        forgetting_factor=forgetting_factor,
        trace_limit=3.0 * p0_scale,
        innovation=np.zeros(theta.shape[:-1]),
    )


def warm_start_theta(params: CellParams) -> np.ndarray:
    """Heuristic initial weights from nominal cell parameters.

    Mean OCV slope over the full SOC range for the charge term, the ohmic
    resistance (negated: discharge lowers the terminal voltage) for the
    current term, and the mid-range OCV for the offset.
    """
    slope = ocv(params, 1.0) - ocv(params, 0.0)
    return np.array([-params.series_resistance, -slope, ocv(params, 0.5)])


def initial_estimators(cells, warm_start, p0_scale, forgetting_factor) -> RlsEstimator:
    """One stacked estimator, each cell warm from its nominal model or cold at zero."""
    theta0 = [warm_start_theta(p) if warm_start else np.zeros(3) for p in cells]
    return init(theta0, p0_scale, forgetting_factor)


def build_regressor(current, cumulative_charge, capacity) -> np.ndarray:
    """Regressors [i, q/C, 1] of shape (..., 3).  The trailing 1 is structural."""
    capacity = np.asarray(capacity, dtype=float)
    if not (capacity > 0.0).all():
        raise ValueError(f"capacity must be positive, got {capacity.tolist()!r}")
    current, ratio = np.asarray(current, dtype=float), np.divide(cumulative_charge, capacity)
    x = np.empty(np.broadcast(current, ratio).shape + (3,))
    x[..., 0], x[..., 1], x[..., 2] = current, ratio, 1.0
    return x


def _dot(a: np.ndarray, b: np.ndarray):
    """Row-wise a . b over the last axis."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def update(est: RlsEstimator, x, y) -> RlsEstimator:
    """One RLS step with measurement pairs (x, y), x shaped like theta and y
    like its leading axes; returns a new estimator."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != est.theta.shape:
        raise ValueError(f"regressor must have shape {est.theta.shape}")
    if y.shape != est.theta.shape[:-1]:
        raise ValueError(f"measurement must have shape {est.theta.shape[:-1]}")
    innovation = y - _dot(x, est.theta)
    # theta is finite, so a non-finite x or y always leaves a non-finite innovation
    if not np.isfinite(innovation).all():
        raise ValueError("regressor and measurement must be finite")
    lam = est.forgetting_factor
    px = (est.covariance @ x[..., None])[..., 0]
    gain = px / (lam + _dot(x, px))[..., None]
    theta = est.theta + gain * innovation[..., None]
    # x' P == (P x)' because P is kept symmetric.
    cov = est.covariance - gain[..., :, None] * px[..., None, :]
    # forget only while trace(P / lambda) stays within the limit: no windup
    forget = cov[..., 0, 0] + cov[..., 1, 1] + cov[..., 2, 2] <= lam * est.trace_limit
    cov = np.where(forget[..., None, None], cov / lam, cov)
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    return RlsEstimator(
        theta=theta,
        covariance=cov,
        forgetting_factor=lam,
        trace_limit=est.trace_limit,
        innovation=innovation,
    )


def predict(est: RlsEstimator, x):
    """Model outputs theta . x for regressors of shape (..., 3), broadcast over theta."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError("regressor must end in a 3-vector")
    return _dot(x, est.theta)
