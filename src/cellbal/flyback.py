"""Closed-form model of one balancing cycle of a multi-winding flyback stage.

Every cell in the series stack owns one primary winding plus a low-side
switch; a single secondary winding spans the whole stack behind a diode.  The
windings are treated as independent two-winding flybacks that happen to share
the secondary rail, and cell voltages are frozen at their pre-cycle values
for the duration of one cycle.  Under those two assumptions every winding
current is piecewise linear and every charge transfer has a closed form, so
the cycle is simulated exactly, with no step size anywhere.

A cycle addressing the three highest-ranked cells runs in three stages:

  stage I   [t0, t1): the target's switch is closed, plus optionally the
            second/third cells' switches; closed windings ramp up at v/L.
  stage II  [t1, t2): a second window of the same length with its own switch
            selection; windings opened at t1 freewheel into the stack
            through the secondary (current falls linearly, clamped at zero).
  stage III [t2, t3]: all switches open; every remaining winding current
            freewheels to exactly zero, which defines t3.

The two on-time windows have equal length t_on/2, with t_on sized so the
target winding peaks at the configured current limit.

While a winding conducts, its coulombs are drawn from its own cell.  While it
freewheels, its current (scaled by the turns ratio) flows through the
secondary and charges every cell of the stack equally.  Cells whose switches
never close only ever receive that secondary charge; a switched cell's net
charge is that less its drain, a rule written only in :func:`distinct_cycles`
(the table the controller scores) and :func:`cycle_charge_deltas` (one cycle).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Sequence

# The 16 auxiliary schedules as (c11, c21, c12, c22), off before on, so
# schedule k's flags are k's bits MSB first.  A plan names its schedule by
# that index k.  Each switched cell of a schedule (target, second, third)
# conducts for a number of half on-times and switches off after one (stage I
# only) or two.
SCHEDULES: tuple[tuple[bool, ...], ...] = tuple(product((False, True), repeat=4))
_WINDOWS = tuple((2, c11 + c12, c21 + c22) for c11, c21, c12, c22 in SCHEDULES)
_OFF_AT = tuple((2.0, 2.0 - (c11 > c12), 2.0 - (c21 > c22)) for c11, c21, c12, c22 in SCHEDULES)
# Schedules with equal _WINDOWS move the same coulombs, and on cells ranked by voltage the
# target ends each of their cycles.  DISTINCT holds the first schedule of each such group;
# schedule k runs cycle DISTINCT[CYCLE_OF[k]].
DISTINCT = tuple(k for k, w in enumerate(_WINDOWS) if _WINDOWS.index(w) == k)
CYCLE_OF = tuple(DISTINCT.index(_WINDOWS.index(w)) for w in _WINDOWS)
_HELPER_WINDOWS = tuple(_WINDOWS[k][1:] for k in DISTINCT)  # the other two cells, per cycle

# distinct_cycles' table: each cell's net charge delta in each cycle, the target's drain
# (the same in every cycle) and the common length.
DistinctCycles = tuple[list[list[float]], float, float]
# One cycle as the plant runs it: each cell's net charge delta (C) and the length (s).
CycleDeltas = tuple[tuple[float, ...], float]


@dataclass(frozen=True)
class ConverterParams:
    """Shared electrical parameters of the balancing stage.

    ``magnetizing_inductance`` is per primary winding (henries, 10 mH stock);
    windings are identical.  ``peak_current`` is the target-winding peak the
    on-time is sized for (amperes); zero is allowed and yields a degenerate
    no-op cycle.  The stack is as long as the cell voltages a cycle is given.
    """

    magnetizing_inductance: float = 0.01
    turns_primary: int = 1
    turns_secondary: int = 4
    peak_current: float = 5.0

    def __post_init__(self) -> None:
        if not (self.magnetizing_inductance > 0.0 and math.isfinite(self.magnetizing_inductance)):
            raise ValueError("magnetizing_inductance must be positive and finite")
        for name in ("turns_primary", "turns_secondary"):
            if not 1 <= getattr(self, name) <= sys.float_info.max:  # the ratios are floats
                raise ValueError(f"{name} must be >= 1 and within the float range")
        if self.peak_current < 0.0 or not math.isfinite(self.peak_current):
            raise ValueError("peak_current must be >= 0 and finite")


@dataclass(frozen=True)
class SwitchPlan:
    """One cycle's switch schedule.

    ``target_cell`` conducts through both on-time windows.  ``second_cell``
    and ``third_cell`` conduct in window I/II as ``SCHEDULES[schedule]``
    says: c11/c21 gate the second/third cell in stage I, c12/c22 in stage II.
    """

    target_cell: int
    second_cell: int
    third_cell: int
    schedule: int = 0

    def __post_init__(self) -> None:
        cells = (self.target_cell, self.second_cell, self.third_cell)
        if len(set(cells)) != 3:
            raise ValueError(f"plan cells must be distinct, got {cells}")
        if min(cells) < 0:
            raise ValueError(f"plan cells must be non-negative, got {cells}")
        if not 0 <= self.schedule < len(SCHEDULES):
            raise ValueError(f"schedule must index SCHEDULES (0..15), got {self.schedule!r}")


@dataclass(frozen=True)
class CycleTiming:
    """Stage boundaries of one cycle.  t1 - t0 == t2 - t1 == t_on/2."""

    t_on: float
    t0: float
    t1: float
    t2: float
    t3: float

    def __post_init__(self) -> None:
        if not (self.t0 <= self.t1 <= self.t2 <= self.t3):
            raise ValueError("cycle boundaries must be ordered t0 <= t1 <= t2 <= t3")
        if not math.isclose(self.t1 - self.t0, self.t2 - self.t1, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError("the two on-time windows must have equal length")


@dataclass(frozen=True)
class PiecewiseLinear:
    """A piecewise-linear waveform as breakpoint times and values.

    Times are non-decreasing; a repeated time encodes a jump (the first
    occurrence is the left limit, the last the right limit).
    """

    times: tuple[float, ...]
    amps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.amps) or not self.times:
            raise ValueError("times and amps must be equal-length and non-empty")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("breakpoint times must be non-decreasing")

    def value(self, t: float, side: str = "right") -> float:
        """Waveform value at time t; ``side`` picks the limit at a jump."""
        times, amps = self.times, self.amps
        if t <= times[0]:
            return amps[0]
        if t >= times[-1]:
            return amps[-1]
        if side == "right":
            idx = bisect_right(times, t) - 1
        elif side == "left":
            idx = bisect_left(times, t)
            if times[idx] == t:
                return amps[idx]
            idx -= 1
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        t0, t1 = times[idx], times[idx + 1]
        if t1 == t0:
            return amps[idx + 1]
        frac = (t - t0) / (t1 - t0)
        return amps[idx] + (amps[idx + 1] - amps[idx]) * frac

    def charge(self) -> float:
        """Integral over the full span (trapezoid rule, exact for PWL)."""
        total = 0.0
        for k in range(len(self.times) - 1):
            total += 0.5 * (self.amps[k] + self.amps[k + 1]) * (self.times[k + 1] - self.times[k])
        return total


@dataclass(frozen=True)
class CycleResult:
    """Everything one simulated cycle produced.

    ``charge_delta`` is the net coulombs added to each cell (negative while a
    cell is being drained), ``conducted_charge`` the coulombs each cell
    sourced through its own switch, ``secondary_charge`` the coulombs the
    secondary delivered to every cell of the stack.  Winding currents are
    primary-referred magnetizing currents.
    """

    charge_delta: tuple[float, ...]
    conducted_charge: tuple[float, ...]
    secondary_charge: float
    winding_currents: tuple[PiecewiseLinear, ...]
    secondary: PiecewiseLinear
    timing: CycleTiming


def _activity_pieces(v_over_l: float, on1: bool, on2: bool, half: float, fw_slope: float):
    """Linear pieces (ta, tb, ia, ib, conducting) for one switched winding."""
    t_on = 2.0 * half
    pieces = []
    if on1 and on2:
        peak = v_over_l * t_on
        pieces.append((0.0, half, 0.0, v_over_l * half, True))
        pieces.append((half, t_on, v_over_l * half, peak, True))
        pieces.append((t_on, t_on + peak / fw_slope, peak, 0.0, False))
    elif on1:
        i1 = v_over_l * half
        pieces.append((0.0, half, 0.0, i1, True))
        # Same reflected stack voltage before and after t2, so one linear
        # decay piece regardless of whether it outlives stage II.
        pieces.append((half, half + i1 / fw_slope, i1, 0.0, False))
    elif on2:
        i1 = v_over_l * half
        pieces.append((half, t_on, 0.0, i1, True))
        pieces.append((t_on, t_on + i1 / fw_slope, i1, 0.0, False))
    return pieces


def _series_from_pieces(pieces, t3: float) -> PiecewiseLinear:
    """Chain contiguous pieces into a waveform padded with zeros to [0, t3]."""
    ts = [0.0]
    amps = [0.0]
    for ta, tb, ia, ib, _on in pieces:
        if ta > ts[-1]:
            ts.append(ta)
            amps.append(0.0)
        ts.append(tb)
        amps.append(ib)
    if ts[-1] < t3:
        ts.append(t3)
        amps.append(0.0)
    return PiecewiseLinear(tuple(ts), tuple(amps))


def simulate_cycle(
    conv: ConverterParams, cell_voltages: Sequence[float], plan: SwitchPlan
) -> CycleResult:
    """Run one full balancing cycle and account every coulomb.

    ``cell_voltages`` are the frozen per-cell terminal voltages for this
    cycle; the stack voltage seen by freewheeling windings is their sum.
    The simulation applies :func:`cycle_charge_deltas`; this waveform view
    is the reference that its closed form is tested against.
    """
    n, l_m = len(cell_voltages), conv.magnetizing_inductance
    cells = (plan.target_cell, plan.second_cell, plan.third_cell)
    half, ratio, fw_slope = _cycle_constants(conv, cell_voltages, cells)
    t_on = 2.0 * half

    if t_on == 0.0:
        zero = PiecewiseLinear((0.0,), (0.0,))
        return CycleResult(
            charge_delta=(0.0,) * n,
            conducted_charge=(0.0,) * n,
            secondary_charge=0.0,
            winding_currents=(zero,) * n,
            secondary=zero,
            timing=CycleTiming(0.0, 0.0, 0.0, 0.0, 0.0),
        )

    c11, c21, c12, c22 = SCHEDULES[plan.schedule]
    switched = ((cells[0], True, True), (cells[1], c11, c12), (cells[2], c21, c22))
    active = [
        (cell, _activity_pieces(cell_voltages[cell] / l_m, on1, on2, half, fw_slope))
        for cell, on1, on2 in switched
    ]

    t3 = t_on
    for _cell, pieces in active:
        for piece in pieces:
            t3 = max(t3, piece[1])

    conducted = [0.0] * n
    freewheel_charge = 0.0  # primary-referred coulombs across all windings
    for cell, pieces in active:
        for ta, tb, ia, ib, on in pieces:
            area = 0.5 * (ia + ib) * (tb - ta)
            if on:
                conducted[cell] += area
            else:
                freewheel_charge += area
    secondary_charge = ratio * freewheel_charge

    charge_delta = tuple(secondary_charge - conducted[j] for j in range(n))

    # Waveforms: per-winding magnetizing currents, then the secondary as the
    # turns-scaled sum of freewheeling currents on the merged breakpoints.
    flat = PiecewiseLinear((0.0, t3), (0.0, 0.0))
    windings = [flat] * n
    for cell, pieces in active:
        windings[cell] = _series_from_pieces(pieces, t3)

    breaks = {0.0, half, t_on, t3}
    for _cell, pieces in active:
        for ta, tb, _ia, _ib, _on in pieces:
            breaks.add(ta)
            breaks.add(tb)
    breaks = sorted(b for b in breaks if b <= t3)

    def fw_sum(t: float, lo: float, hi: float) -> float:
        # Sum of freewheeling currents at t, restricted to pieces covering
        # the open interval (lo, hi); exact float matches on the shared
        # breakpoints make the membership test unambiguous.
        total = 0.0
        for _cell, pieces in active:
            for ta, tb, ia, ib, on in pieces:
                if on or ta > lo or tb < hi:
                    continue
                total += ia + (ib - ia) * (t - ta) / (tb - ta)
        return total

    sec_ts = [0.0]
    sec_amps = [ratio * fw_sum(0.0, 0.0, breaks[1] if len(breaks) > 1 else 0.0)]
    for ga, gb in zip(breaks, breaks[1:]):
        if gb == ga:
            continue
        va = ratio * fw_sum(ga, ga, gb)
        vb = ratio * fw_sum(gb, ga, gb)
        if va != sec_amps[-1]:
            sec_ts.append(ga)   # jump: switch-off instant
            sec_amps.append(va)
        sec_ts.append(gb)
        sec_amps.append(vb)
    secondary = PiecewiseLinear(tuple(sec_ts), tuple(sec_amps))

    return CycleResult(
        charge_delta=charge_delta,
        conducted_charge=tuple(conducted),
        secondary_charge=secondary_charge,
        winding_currents=tuple(windings),
        secondary=secondary,
        timing=CycleTiming(t_on, 0.0, half, t_on, t3),
    )


def _cycle_constants(conv: ConverterParams, cell_voltages: Sequence[float], cells):
    """Half on-time, turns ratio and freewheel slope (A/s) of a cycle targeting ``cells[0]``;
    the on-time L*I/v ramps the target winding to the peak current."""
    n, stack = len(cell_voltages), 0.0
    for v in cell_voltages:
        if not v > 0.0:
            raise ValueError(f"cell voltages must all be positive, got {v!r}")
        stack += v  # a left fold: sum() compensates float sums from Python 3.12 on
    for idx in cells:
        if idx >= n:
            raise ValueError(f"plan cell {idx} out of range for {n} cells")
    ratio = conv.turns_primary / conv.turns_secondary
    fw_slope = ratio * stack / conv.magnetizing_inductance
    if not fw_slope > 0.0:  # a winding would never shed its current
        raise ValueError("turns ratio times stack voltage over inductance underflows to 0")
    half = 0.5 * (conv.magnetizing_inductance * conv.peak_current / cell_voltages[cells[0]])
    return half, ratio, fw_slope


def _winding(v_cell, window, off_at, half, l_m, fw_slope):
    """A switched winding's freewheel charge (primary-referred), drain on its own cell
    and zero-current instant, elementwise over floats or arrays.  On for ``window`` half
    on-times, it peaks at v/L*ramp, drains half that times ``ramp`` and, off after
    ``off_at``, sheds the peak into the stack at ``fw_slope``."""
    ramp = half * window
    peak = v_cell / l_m * ramp
    return 0.5 * peak * peak / fw_slope, 0.5 * peak * ramp, half * off_at + peak / fw_slope


def distinct_cycles(
    conv: ConverterParams, cell_voltages: Sequence[float], cells: Sequence[int]
) -> DistinctCycles:
    """The cycles of :data:`DISTINCT` in plain floats: each cell's net charge delta in each
    cycle, the secondary charge less the cell's drain, with every unswitched cell sharing
    the one secondary-charge list; the target's drain; and the common length.  ``cells``
    are ranked by descending voltage, so the target, on through both windows, ends every
    cycle.  The target winds once and the others at 0, 1 and 2 half on-times, each through
    :func:`_winding`."""
    l_m = conv.magnetizing_inductance
    half, ratio, fw_slope = _cycle_constants(conv, cell_voltages, cells)
    fw0, drain, length = _winding(cell_voltages[cells[0]], 2, 2, half, l_m, fw_slope)
    v_second, v_third = cell_voltages[cells[1]], cell_voltages[cells[2]]
    second = [_winding(v_second, w, 2, half, l_m, fw_slope) for w in (0, 1, 2)]
    third = [_winding(v_third, w, 2, half, l_m, fw_slope) for w in (0, 1, 2)]
    secondary = [ratio * (fw0 + second[w1][0] + third[w2][0]) for w1, w2 in _HELPER_WINDOWS]
    deltas = [secondary] * len(cell_voltages)
    deltas[cells[0]] = [s - drain for s in secondary]
    deltas[cells[1]] = [s - second[w][1] for s, (w, _) in zip(secondary, _HELPER_WINDOWS)]
    deltas[cells[2]] = [s - third[w][1] for s, (_, w) in zip(secondary, _HELPER_WINDOWS)]
    return deltas, drain, length


def cycle_charge_deltas(
    conv: ConverterParams, cell_voltages: Sequence[float], plan: SwitchPlan
) -> CycleDeltas:
    """Per-cell charge deltas and duration of the cycle the simulation applies, in plain
    floats: :func:`distinct_cycles`' windings, but it ends with its last winding, as the
    true voltages need not rank the plan's cells."""
    cells = (plan.target_cell, plan.second_cell, plan.third_cell)
    k, l_m = plan.schedule, conv.magnetizing_inductance
    half, ratio, fw_slope = _cycle_constants(conv, cell_voltages, cells)
    (f0, d0, e0), (f1, d1, e1), (f2, d2, e2) = [
        _winding(cell_voltages[c], w, o, half, l_m, fw_slope)
        for c, w, o in zip(cells, _WINDOWS[k], _OFF_AT[k])
    ]
    deltas = [ratio * (f0 + f1 + f2)] * len(cell_voltages)
    for cell, drain in zip(cells, (d0, d1, d2)):
        deltas[cell] -= drain
    return tuple(deltas), max(e0, e1, e2)
