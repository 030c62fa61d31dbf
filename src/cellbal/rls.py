"""Recursive least-squares identification of a per-cell voltage model.

Each cell's terminal voltage is fitted online to a three-term linear model

    v ~ theta1 * i  +  theta2 * (q / C)  +  theta3

where ``i`` is the cell current (positive = discharge), ``q`` the cumulative
transferred charge since the run started and ``C`` the nominal capacity.
theta1 absorbs the lumped resistive drop, theta2 the local OCV slope versus
discharged fraction, theta3 the operating-point offset.  The estimator is
exponentially-weighted RLS (Ljung & Soderstrom, *Theory and Practice of
Recursive Identification*, 1983) whose forgetting never lifts trace(P) above
its initial value: without excitation the 1/lambda inflation would otherwise
grow P without bound (covariance windup).  The covariance is re-symmetrized
after every update to stop round-off drift.

An estimator is a stack of cells (a lone one is a 1-cell stack), and ``update``,
``predict`` and ``fold`` step each cell in plain floats: for a few cells numpy's
per-call overhead on 3-vectors costs more than the arithmetic.  Their dots
round each product and sum in turn where numpy's 3-term dot is a fused
multiply-add chain, so results differ in the last bits from numpy's.

``Identification`` alone pairs measurements with regressors: a run and
``cli.replay_identification`` make the same calls, so a replay gives the run's thetas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ecm import CellParams, ocv


@dataclass
class RlsEstimator:
    theta: tuple            # n per-cell (theta1, theta2, theta3) floats
    covariance: tuple       # n per-cell row-major 3x3 P, each symmetric positive definite
    forgetting_factor: float
    trace_limit: float      # trace of the initial covariance; forgetting stays below it
    innovation: tuple = ()  # n per-cell y - x . theta before the last update


def max_p0_scale(x_max: float, forgetting_factor: float) -> float:
    """Largest p0 keeping P positive definite in floats for regressor entries up to
    ``x_max`` >= 1: each step divides by lambda + x . P x, whose rounding error is up to
    162 eps p0 x_max**2 (|P_ij| <= 3 p0); 2**-42 = 1024 eps keeps it under lambda / 6."""
    return forgetting_factor * 2.0**42 / (x_max * x_max)


def init(theta0, p0_scale: float, forgetting_factor: float) -> RlsEstimator:
    """Fresh estimator with covariance p0_scale * I for each of theta0's n rows of 3 numbers.
    p0_scale is bounded for regressor entries of size 1, the structural one."""
    if not 0.0 < forgetting_factor <= 1.0:
        raise ValueError(f"forgetting_factor must lie in (0, 1], got {forgetting_factor!r}")
    p0_max = max_p0_scale(1.0, forgetting_factor)
    if not 0.0 < p0_scale <= p0_max:
        raise ValueError(f"p0_scale must lie in (0, {p0_max:.4g}], got {p0_scale!r}")
    try:
        theta = tuple((float(a), float(b), float(c)) for a, b, c in theta0)
    except (TypeError, ValueError):
        theta = ()
    if not theta or not all(map(math.isfinite, (t for row in theta for t in row))):
        raise ValueError(f"theta0 must be finite with shape (n, 3), got {theta0!r}")
    p, n = float(p0_scale), len(theta)
    covariance = ((p, 0.0, 0.0, 0.0, p, 0.0, 0.0, 0.0, p),) * n
    return RlsEstimator(theta, covariance, forgetting_factor, 3.0 * p, (0.0,) * n)


def warm_start_theta(params: CellParams) -> tuple[float, float, float]:
    """Heuristic initial weights from nominal cell parameters.

    Mean OCV slope over the full SOC range for the charge term, the ohmic
    resistance (negated: discharge lowers the terminal voltage) for the
    current term, and the mid-range OCV for the offset.
    """
    slope = ocv(params, 1.0) - ocv(params, 0.0)
    return (-float(params.series_resistance), -slope, ocv(params, 0.5))


def regressor_rows(currents, charges, capacities) -> list[tuple[float, float, float]]:
    """Per-cell regressors (i, q/C, 1.0) in plain floats, as ``update`` takes them."""
    return [(i, q / c, 1.0) for i, q, c in zip(currents, charges, capacities)]


def update(est: RlsEstimator, x, y) -> RlsEstimator:
    """One RLS step per cell with regressor row x[j] and measurement y[j]; returns a
    new estimator.  A bad number raises ValueError."""
    lam = est.forgetting_factor
    bound, isfinite = lam * est.trace_limit, math.isfinite
    thetas, covs, errs = [], [], []
    cells = zip(est.theta, est.covariance, x, y, strict=True)
    for (t0, t1, t2), (p00, p01, p02, _, p11, p12, _, _, p22), (x0, x1, x2), v in cells:
        e = v - (x0 * t0 + x1 * t1 + x2 * t2)
        # theta is finite, so a non-finite x or y always leaves a non-finite innovation
        if not isfinite(e):
            raise ValueError("regressor and measurement must be finite")
        g0 = p00 * x0 + p01 * x1 + p02 * x2
        g1 = p01 * x0 + p11 * x1 + p12 * x2
        g2 = p02 * x0 + p12 * x1 + p22 * x2
        d = lam + (x0 * g0 + x1 * g1 + x2 * g2)
        # at least lam while P is positive definite; past max_p0_scale rounding breaks it
        if not d > 0.0:
            raise ValueError("covariance lost positive definiteness; regressor too large")
        k0, k1, k2 = g0 / d, g1 / d, g2 / d
        thetas.append((t0 + k0 * e, t1 + k1 * e, t2 + k2 * e))
        # P - k (P x)', with x' P == (P x)' because P is kept symmetric
        c00, c11, c22 = p00 - k0 * g0, p11 - k1 * g1, p22 - k2 * g2
        c01 = 0.5 * ((p01 - k0 * g1) + (p01 - k1 * g0))
        c02 = 0.5 * ((p02 - k0 * g2) + (p02 - k2 * g0))
        c12 = 0.5 * ((p12 - k1 * g2) + (p12 - k2 * g1))
        # forget only while trace(P / lambda) stays within the limit: no windup
        if c00 + c11 + c22 <= bound:
            c00, c11, c22 = c00 / lam, c11 / lam, c22 / lam
            c01, c02, c12 = c01 / lam, c02 / lam, c12 / lam
        covs.append((c00, c01, c02, c01, c11, c12, c02, c12, c22))
        errs.append(e)
    return RlsEstimator(tuple(thetas), tuple(covs), lam, est.trace_limit, tuple(errs))


def predict(est: RlsEstimator, currents, charges, capacities) -> list[list[float]]:
    """Each cell's model outputs theta_j . (i, q/C, 1.0) for the currents i in currents[j]
    and the charges q in charges[j], in plain floats: the dot ``update`` takes its
    innovation against, over the regressors ``regressor_rows`` would build (1.0 * t2 is
    t2 in every bit)."""
    cells = zip(est.theta, currents, charges, capacities, strict=True)
    return [[i * t0 + q / c * t1 + t2 for i, q in zip(ii, qq, strict=True)]
            for (t0, t1, t2), ii, qq, c in cells]


def fold(est: RlsEstimator, duration, charges, capacities, offset) -> list[tuple[float, float]]:
    """Each cell's model over a cycle of length T = ``duration`` from its charge q, less
    ``offset``, as the pair (a, b) of an affine function of the cycle's current i:
    theta_j . (i, (q + i*T)/C, 1.0) - offset = a*i + b, with a = theta1 + T*theta2/C and
    b = q*theta2/C + theta3 - offset.  Equal to :func:`predict` up to rounding."""
    cells = zip(est.theta, charges, capacities, strict=True)
    return [(t0 + duration * t1 / c, q * t1 / c + t2 - offset) for (t0, t1, t2), q, c in cells]


class Identification:
    """A stack's online identification, fed one step at a time by a run or by a replay of
    its trace: :meth:`measure` pairs each step's voltages with the currents that flowed up
    to them (the external current before any step) and with the charge those moved, and
    :meth:`advance` moves that charge.  Each cell starts warm from its nominal model or
    cold at zero."""

    def __init__(self, cells, warm_start: bool, p0_scale: float, forgetting_factor: float):
        theta0 = [warm_start_theta(p) if warm_start else (0.0, 0.0, 0.0) for p in cells]
        self.estimator = init(theta0, p0_scale, forgetting_factor)
        self.capacities = [p.capacity_coulombs for p in cells]
        self.charges = [0.0] * len(cells)  # each cell's q since the start
        self.currents = None               # the last step's, once a step has run

    def measure(self, voltages, external_current: float) -> None:
        """One ``update`` of every cell with its measured voltage."""
        currents = self.currents or [external_current] * len(self.charges)
        self.estimator = update(self.estimator, regressor_rows(
            currents, self.charges, self.capacities), voltages)

    def advance(self, currents, dt: float, socs, socs_next) -> None:
        """Count a step of each cell's current over dt, or only its SOC's change when the
        step ends at a reservoir limit, so q leaves out the charge the clamp refuses."""
        self.charges = [q + ((s - s_next) * c if s_next == 0.0 or s_next == 1.0 else i * dt)
                        for q, i, s, s_next, c in zip(
                            self.charges, currents, socs, socs_next, self.capacities)]
        self.currents = currents
