"""Independent numerical oracles the tests check the closed forms against.

Everything here integrates the piecewise dynamics on a dense grid instead of
using the production area formulas, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import math

import numpy as np

from cellbal import CellParams, CellState, ConverterParams, SwitchPlan, std
from cellbal.ecm import step_exact, terminal_voltage
from cellbal.flyback import (
    _OFF_AT,
    _WINDOWS,
    CYCLE_OF,
    SCHEDULES,
    _cycle_constants,
    distinct_cycles,
    _winding,
    simulate_cycle,
)

# np.trapezoid is new in numpy 2.0, which deprecates np.trapz; pyproject.toml
# allows numpy 1.24, so fall back to trapz there.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def ocv_curve(coeffs, exponent: float, soc: float) -> float:
    """The raw open-circuit voltage curve a0 + a1*s + a2*s^2 + a3*s^3 + a4*e^(-b*s) of any
    coefficients, monotone or not, with no SOC range check: ``ecm.ocv`` must give its bits."""
    a0, a1, a2, a3, a4 = coeffs
    return a0 + soc * (a1 + soc * (a2 + soc * a3)) + a4 * math.exp(-exponent * soc)


def _stage_grid(duration: float, step: float) -> np.ndarray:
    if duration <= 0.0:
        return np.array([0.0])
    n = max(2, int(np.ceil(duration / step)) + 1)
    return np.linspace(0.0, duration, n)


def fine_cycle_deltas(
    conv: ConverterParams, voltages, plan: SwitchPlan, substeps: int = 10_000
):
    """Per-cell charge deltas by dense trapezoid integration, step ~ t_on/substeps.

    Winding trajectories are built from the stage dynamics directly: a
    conducting winding ramps at v/L, a released one decays at the reflected
    stack slope and clamps at zero.
    """
    v = np.asarray(voltages, dtype=float)
    n = v.size
    L = conv.magnetizing_inductance
    ratio = conv.turns_primary / conv.turns_secondary
    fw = ratio * v.sum() / L
    t_on = L * conv.peak_current / v[plan.target_cell]
    if t_on == 0.0:
        return np.zeros(n)
    half = t_on / 2.0
    h = t_on / substeps

    c11, c21, c12, c22 = SCHEDULES[plan.schedule]
    cond1 = np.zeros(n, dtype=bool)
    cond1[plan.target_cell] = True
    cond1[plan.second_cell] = c11
    cond1[plan.third_cell] = c21
    cond2 = np.zeros(n, dtype=bool)
    cond2[plan.target_cell] = True
    cond2[plan.second_cell] = c12
    cond2[plan.third_cell] = c22

    deltas = np.zeros(n)

    # stage I: only conducting windings carry current, secondary is blocked
    t = _stage_grid(half, h)
    m = cond1 * (v / L) * t[:, None]
    deltas += _trapezoid(-np.where(cond1, m, 0.0), t, axis=0)
    m1 = cond1 * (v / L) * half

    # stage II: released windings freewheel into the stack
    m = np.where(cond2, m1 + (v / L) * t[:, None], np.maximum(0.0, m1 - fw * t[:, None]))
    i_t = ratio * np.sum(np.where(cond2, 0.0, m), axis=1)
    deltas += _trapezoid(i_t[:, None] - np.where(cond2, m, 0.0), t, axis=0)
    m2 = np.where(cond2, m1 + (v / L) * half, np.maximum(0.0, m1 - fw * half))

    # stage III: everything freewheels until empty
    t_fw = float(m2.max()) / fw
    t = _stage_grid(t_fw, h)
    m = np.maximum(0.0, m2 - fw * t[:, None])
    i_t = ratio * np.sum(m, axis=1)
    deltas += _trapezoid(i_t, t)
    return deltas


def integrate_pwl_between(times, amps, a: float, b: float) -> float:
    """Exact integral of a piecewise-linear series over [a, b]."""
    times = np.asarray(times, dtype=float)
    amps = np.asarray(amps, dtype=float)
    a = max(a, float(times[0]))
    b = min(b, float(times[-1]))
    if b <= a:
        return 0.0
    inner = (times > a) & (times < b)
    ts = np.concatenate(([a], times[inner], [b]))
    vs = np.concatenate(([np.interp(a, times, amps)], amps[inner], [np.interp(b, times, amps)]))
    return float(_trapezoid(vs, ts))


def euler_step(params: CellParams, state: CellState, current: float, dt: float, substeps: int):
    """Forward-Euler integration of the cell ODEs; first-order reference."""
    h = dt / substeps
    soc, v1, v2 = state.soc, state.v1, state.v2
    tau1 = params.rc1_resistance * params.rc1_capacitance
    tau2 = params.rc2_resistance * params.rc2_capacitance
    for _ in range(substeps):
        dsoc = -current / params.capacity_coulombs
        if params.self_discharge_resistance is not None:
            dsoc -= soc / (params.self_discharge_resistance * params.capacity_coulombs)
        v1 += h * (params.rc1_resistance * current - v1) / tau1
        v2 += h * (params.rc2_resistance * current - v2) / tau2
        soc += h * dsoc
    return soc, v1, v2


def fine_cycle_stds(
    conv: ConverterParams,
    voltages,
    cells,
    external_current: float,
    ranking,
    points_per_stage: int = 256,
):
    """Predicted end-of-cycle voltage std for all 16 candidates, by dense
    simulation of the converter waveforms and convolution-quadrature of the
    RC branches.  Returns a (16,) array ordered like SCHEDULES.

    Each candidate is evaluated at its own cycle end; the shared grid trick
    works because every balancing current is identically zero past its own
    cycle, and the external-current response has a closed form.
    """
    v = np.asarray(voltages, dtype=float)
    n = v.size
    L = conv.magnetizing_inductance
    ratio = conv.turns_primary / conv.turns_secondary
    fw = ratio * v.sum() / L
    target, second, third = ranking[0], ranking[1], ranking[2]
    t_on = L * conv.peak_current / v[target]
    if t_on <= 0.0:
        raise ValueError("degenerate cycle has no candidate ranking to check")
    half = t_on / 2.0

    bits = np.array(SCHEDULES, dtype=bool)
    cond1 = np.zeros((16, n), dtype=bool)
    cond1[:, target] = True
    cond1[:, second] = bits[:, 0]
    cond1[:, third] = bits[:, 1]
    cond2 = np.zeros((16, n), dtype=bool)
    cond2[:, target] = True
    cond2[:, second] = bits[:, 2]
    cond2[:, third] = bits[:, 3]

    slope = v / L  # per-winding on-ramp slope

    g = np.linspace(0.0, half, points_per_stage + 1)
    m1 = cond1 * slope[None] * half
    bal_a = -(cond1[None] * slope[None, None]) * g[:, None, None]

    m_b = np.where(
        cond2[None],
        m1[None] + slope[None, None] * g[:, None, None],
        np.maximum(0.0, m1[None] - fw * g[:, None, None]),
    )
    free_b = np.where(cond2[None], 0.0, m_b)
    bal_b = ratio * free_b.sum(axis=2, keepdims=True) - (m_b - free_b)
    m2 = np.where(cond2, m1 + slope[None] * half, np.maximum(0.0, m1 - fw * half))

    t_fw = m2.max(axis=1) / fw              # per-candidate freewheel length
    t_end = t_on + t_fw                     # per-candidate cycle end
    g3 = np.linspace(0.0, float(t_fw.max()), points_per_stage + 1)
    m_c = np.maximum(0.0, m2[None] - fw * g3[:, None, None])
    bal_c = np.broadcast_to(
        ratio * m_c.sum(axis=2, keepdims=True), m_c.shape
    )

    soc0 = np.array([s.soc for _, s in cells])
    v1_0 = np.array([s.v1 for _, s in cells])
    v2_0 = np.array([s.v2 for _, s in cells])
    cap = np.array([p.capacity_coulombs for p, _ in cells])
    r0 = np.array([p.series_resistance for p, _ in cells])
    tau1 = np.array([p.rc1_resistance * p.rc1_capacitance for p, _ in cells])
    tau2 = np.array([p.rc2_resistance * p.rc2_capacitance for p, _ in cells])
    c1 = np.array([p.rc1_capacitance for p, _ in cells])
    c2 = np.array([p.rc2_capacitance for p, _ in cells])

    def _weights(t: np.ndarray) -> np.ndarray:
        w = np.full(t.size, t[1] - t[0] if t.size > 1 else 0.0)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    q_bal = np.zeros((16, n))
    w1 = np.zeros((16, n))
    w2 = np.zeros((16, n))
    for b, t in ((bal_a, g), (bal_b, half + g), (bal_c, t_on + g3)):
        wgt = _weights(t)
        q_bal += np.einsum("g,gkn->kn", wgt, b)
        w1 += np.einsum("gn,gkn->kn", wgt[:, None] * np.exp(t[:, None] / tau1[None, :]), b)
        w2 += np.einsum("gn,gkn->kn", wgt[:, None] * np.exp(t[:, None] / tau2[None, :]), b)

    decay1 = np.exp(-t_end[:, None] / tau1[None, :])
    decay2 = np.exp(-t_end[:, None] / tau2[None, :])
    i_ext = external_current
    v1_end = decay1 * v1_0[None] + (
        i_ext * tau1[None] * (1.0 - decay1) - decay1 * w1
    ) / c1[None]
    v2_end = decay2 * v2_0[None] + (
        i_ext * tau2[None] * (1.0 - decay2) - decay2 * w2
    ) / c2[None]
    soc_end = soc0[None] - (i_ext * t_end[:, None] - q_bal) / cap[None]

    term = np.empty((16, n))
    for j, (p, _) in enumerate(cells):
        a0, a1, a2, a3, a4 = p.ocv_coeffs
        s = soc_end[:, j]
        rest = a0 + s * (a1 + s * (a2 + s * a3)) + a4 * np.exp(-p.ocv_exponent * s)
        term[:, j] = rest - v1_end[:, j] - v2_end[:, j] - r0[j] * i_ext
    return term.std(axis=1)


def reference_stds(
    conv: ConverterParams,
    voltages,
    estimator,
    accumulators,
    capacities,
    external_current: float,
    ranking,
) -> list[float]:
    """Predicted end-of-cycle spread of each candidate, one candidate at a
    time: the full waveform cycle, then one ``numpy_predict`` over the cells'
    (n, 3) regressors."""
    out = []
    for k in range(len(SCHEDULES)):
        res = simulate_cycle(conv, voltages, SwitchPlan(*ranking[:3], k))
        duration = res.timing.t3
        currents = np.full(len(res.charge_delta), float(external_current))
        if duration > 0.0:
            currents = external_current - np.array(res.charge_delta) / duration
        q_next = np.asarray(accumulators, dtype=float) + currents * duration
        x = build_regressor(currents, q_next, capacities)
        out.append(std(numpy_predict(estimator, x).tolist()))
    return out


def reference_pick(stds, rel: float = 0.0) -> int:
    """Index a strict ``<`` scan from the first candidate settles on; with
    ``rel`` > 0 a later score must beat the best so far by that fraction."""
    best = 0
    for k in range(1, len(stds)):
        if stds[k] < stds[best] * (1.0 - rel):
            best = k
    return best


def numpy_rls_update(theta, covariance, forgetting_factor, trace_limit, x, y):
    """The stacked RLS step written with numpy over (n, 3) thetas, (n, 3, 3)
    covariances, (n, 3) regressors and (n,) measurements, every 3-vector
    reduction a row-wise ``@``: the independent reference ``rls.update``'s
    plain-float kernel is checked against.  Returns (theta, covariance,
    innovation)."""
    theta, cov, x, y = (np.asarray(a, dtype=float) for a in (theta, covariance, x, y))
    lam = forgetting_factor

    def dot(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]

    innovation = y - dot(x, theta)
    px = (cov @ x[..., None])[..., 0]
    gain = px / (lam + dot(x, px))[..., None]
    theta = theta + gain * innovation[..., None]
    cov = cov - gain[..., :, None] * px[..., None, :]
    # forget only while trace(P / lambda) stays within the limit
    forget = cov[..., 0, 0] + cov[..., 1, 1] + cov[..., 2, 2] <= lam * trace_limit
    cov = np.where(forget[..., None, None], cov / lam, cov)
    return theta, 0.5 * (cov + cov.swapaxes(-1, -2)), innovation


# An array scorer: every schedule's cycle in one numpy pass over the (16, 3)
# switched windings, one ``numpy_predict`` over the (16, n, 3) regressors and
# numpy's row-wise std.  It is the reference the plain-float scorers, which
# score only the 9 distinct cycles, are checked against, and ``charge_table``
# that of the converter's conservation tests.

_WINDOW_TABLE, _OFF_AT_TABLE = np.array(_WINDOWS), np.array(_OFF_AT)


def charge_table(conv: ConverterParams, cell_voltages, cells):
    """Charge deltas and lengths of the cycles of all 16 schedules at once.

    ``cells`` are the target, second and third cell, the columns of one
    ``_winding`` pass.  Row k of the (16, n) deltas and (16,) lengths is
    ``simulate_cycle``'s coulomb bookkeeping for ``SCHEDULES[k]``.
    """
    n, l_m = len(cell_voltages), conv.magnetizing_inductance
    half, ratio, fw_slope = _cycle_constants(conv, cell_voltages, cells)
    v_switched = np.array([cell_voltages[c] for c in cells])
    fw, drain, end = _winding(v_switched, _WINDOW_TABLE, _OFF_AT_TABLE, half, l_m, fw_slope)
    deltas = np.repeat(ratio * (fw[:, 0] + fw[:, 1] + fw[:, 2])[:, None], n, axis=1)
    deltas[:, list(cells)] -= drain
    return deltas, end.max(axis=1)


def build_regressor(current, cumulative_charge, capacity) -> np.ndarray:
    """Regressors [i, q/C, 1] of shape (..., 3) over arrays, as ``numpy_predict`` takes them."""
    current, ratio = np.asarray(current, dtype=float), np.divide(cumulative_charge, capacity)
    x = np.empty(np.broadcast(current, ratio).shape + (3,))
    x[..., 0], x[..., 1], x[..., 2] = current, ratio, 1.0
    return x


def numpy_predict(est, x):
    """Model outputs theta . x for regressors of shape (..., 3), broadcast over theta."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError("regressor must end in a 3-vector")
    return (x[..., None, :] @ np.asarray(est.theta)[..., :, None])[..., 0, 0]


def row_stds(values: np.ndarray) -> np.ndarray:
    """``values.std(axis=1)`` bit for bit: numpy's own ufunc steps, without its wrappers."""
    dev = values - np.add.reduce(values, axis=1, keepdims=True) / values.shape[1]
    return np.sqrt(np.add.reduce(np.square(dev), axis=1) / values.shape[1])


def first_min(scores: np.ndarray) -> int:
    """``np.nanargmin(scores)`` for scores that are not all NaN, without its wrappers."""
    return int(np.where(np.isnan(scores), np.inf, scores).argmin())


def _cycle_currents(ranking, conv, voltages, external_current):
    """Per-cell average currents (16, n) over every schedule's cycle, and the
    cycle lengths (16,); a zero-length cycle leaves the external current alone."""
    deltas, duration = charge_table(conv, voltages, ranking[:3])
    spread = np.where(duration > 0.0, duration, np.inf)
    return external_current - deltas / spread[:, None], duration


def numpy_predict_stds(
    ranking, estimator, charge_accumulators, capacities, external_current, conv, voltages
) -> np.ndarray:
    """All 16 predicted spreads from the identified models, in one array pass."""
    currents, duration = _cycle_currents(ranking, conv, voltages, external_current)
    q_next = np.asarray(charge_accumulators, dtype=float) + currents * duration[:, None]
    predicted = numpy_predict(estimator, build_regressor(currents, q_next, capacities))
    return row_stds(predicted)


def flat_plant(cells):
    """(params, CellState) pairs as the lists (params, soc, v1, v2) the plant scorer takes."""
    params, states = zip(*cells)
    return list(params), [s.soc for s in states], [s.v1 for s in states], [s.v2 for s in states]


def plant_pairs(plant):
    """The plant scorer's lists (params, soc, v1, v2) as (params, CellState) pairs."""
    params, soc, v1, v2 = plant
    return zip(params, map(CellState, soc, v1, v2))


def numpy_predict_stds_plant(ranking, plant, external_current, conv, voltages) -> np.ndarray:
    """All 16 predicted spreads from the true models, 16 x n ``step_exact`` calls."""
    currents, duration = _cycle_currents(ranking, conv, voltages, external_current)
    predicted = np.empty(currents.shape)
    for j, (params, state) in enumerate(plant_pairs(plant)):
        for k, (current, dt) in enumerate(zip(currents[:, j].tolist(), duration.tolist())):
            end = step_exact(params, state, current, dt)[0] if dt > 0.0 else state
            predicted[k, j] = terminal_voltage(params, end.soc, end.v1, end.v2, external_current)
    return row_stds(predicted)


def step_exact_predict_stds_plant(ranking, plant, external_current, conv, voltages):
    """The 16 predicted spreads from the true models over the 9 distinct cycles, one
    ``step_exact`` call per cell and cycle, each computing its own hold factors: the
    production scorer shares them per cell and must give these bits."""
    deltas, _, duration = distinct_cycles(conv, voltages, ranking[:3])
    spread = duration if duration > 0.0 else np.inf
    predicted = []
    for (params, state), cell in zip(plant_pairs(plant), deltas):
        ends = [step_exact(params, state, external_current - d / spread, duration)[0]
                if duration > 0.0 else state for d in cell]
        predicted.append([terminal_voltage(params, end.soc, end.v1, end.v2, external_current)
                          for end in ends])
    scores = [std(cycle) for cycle in zip(*predicted)]
    return tuple(scores[c] for c in CYCLE_OF)


def numpy_pick(stds: np.ndarray) -> int:
    """The array scorer's pick: a NaN first score keeps schedule 0, and otherwise
    the first smallest score wins and a NaN never does."""
    return 0 if np.isnan(stds[0]) else first_min(stds)
