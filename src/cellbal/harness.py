"""Closed-loop balancing scenarios: charger, converter, controller, cells.

One simulated step is one balancing cycle when the controller is active,
or one fixed idle interval when it is not.  Each step measures the cell
voltages (optionally with seeded Gaussian noise), feeds every cell's online
estimator, lets the controller decide, applies the chosen schedule's row of
the converter's charge table at the frozen true voltages, then advances the
true cell models by the resulting average currents, over exactly the time
the clock moves, with the exact-hold integrator.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rls
from .controller import (
    ControllerConfig,
    Decision,
    rank_cells,
    select_plan,
    should_balance,
    std,
)
from .ecm import CellParams, CellState, step_exact, terminal_voltage
from .flyback import ConverterParams, SwitchPlan, cycle_charge_deltas

INACTIVE_BITS = "----"
_TRACE_BITS = {INACTIVE_BITS, *(format(k, "04b") for k in range(16))}
# A run needing more steps than this, at its nominal cycle or at idle_dt, has no practical end.
MAX_NOMINAL_STEPS = 1e7


@dataclass(frozen=True)
class ChargerConfig:
    """Stack-level CC-CV source.  Currents follow the discharge-positive
    convention, so a charging current is negative."""

    mode: str = "cc_cv"              # "cc_cv" | "idle"
    cc_current: float = -0.4         # amperes, stack level
    cv_voltage: float = 15.2         # volts, stack level
    cutoff_current: float = 0.05     # amperes magnitude ending the CV taper
    cell_voltage_limit: float = 4.2  # per-cell guard, volts

    def __post_init__(self) -> None:
        if self.mode not in ("cc_cv", "idle"):
            raise ValueError(f"charger mode must be 'cc_cv' or 'idle', got {self.mode!r}")
        if self.mode == "cc_cv":
            if not self.cc_current < 0.0:
                raise ValueError("cc_current must be negative (charging)")
            if self.cutoff_current < 0.0:
                raise ValueError("cutoff_current must be >= 0")
            if not abs(self.cc_current) > self.cutoff_current:
                raise ValueError("|cc_current| must exceed cutoff_current")
            if not self.cv_voltage > 0.0:
                raise ValueError("cv_voltage must be positive")
            limit = self.cell_voltage_limit
            if not (limit > 0.0 and math.isfinite(limit)):
                raise ValueError(f"cell_voltage_limit must be positive and finite, got {limit!r}")


@dataclass
class ChargerState:
    """Mutable phase memory of the CC-CV source.  Both the taper cutoff and
    the per-cell guard latch the phase to 'done'."""

    phase: str = "cc"                # "cc" | "cv" | "done"
    guard_tripped: bool = False


def cc_cv_current(
    charger: ChargerConfig,
    stack_voltage: float,
    stack_resistance: float,
    cell_voltages: Sequence[float],
    state: ChargerState,
) -> float:
    """Charger current for this instant, advancing the phase state.

    ``stack_voltage`` is the stack's zero-current (rest) voltage;
    regulation works against the aggregate ohmic model
    stack_terminal = stack_voltage - stack_resistance * i.
    """
    if charger.mode == "idle":
        return 0.0
    if not stack_resistance > 0.0:
        raise ValueError("stack_resistance must be positive")
    for v in cell_voltages:
        if v > charger.cell_voltage_limit:
            state.phase = "done"
            state.guard_tripped = True
            return 0.0
    if state.phase == "done":
        return 0.0
    if state.phase == "cc":
        v_at_cc = stack_voltage - stack_resistance * charger.cc_current
        if v_at_cc < charger.cv_voltage:
            return charger.cc_current
        state.phase = "cv"
    i = (stack_voltage - charger.cv_voltage) / stack_resistance
    i = max(charger.cc_current, min(0.0, i))
    if abs(i) < charger.cutoff_current:
        state.phase = "done"
        return 0.0
    return i


def greedy_baseline_plan(voltages: Sequence[float], ranking=None) -> SwitchPlan:
    """Reference policy: only the highest cell (``ranking[0]`` if given), no auxiliary windows."""
    return SwitchPlan(*(ranking or rank_cells(voltages))[:3])


@dataclass
class ScenarioConfig:
    """One fully specified closed-loop run."""

    cells: list[tuple[CellParams, CellState]]
    converter: ConverterParams
    charger: ChargerConfig = ChargerConfig()
    policy: str = "ampc"                 # "ampc" | "greedy" | "none"
    controller: ControllerConfig = ControllerConfig()
    forgetting_factor: float = 0.995
    initial_covariance: float = 1e6
    warm_start: bool = True
    noise_std: float = 0.0               # volts, measurement noise
    seed: int = 0
    max_time: float = 4000.0             # seconds of simulated time
    record_every: int = 1                # cycles per stored trace row
    idle_dt: float = 1.0                 # seconds per step while inactive

    def __post_init__(self) -> None:
        if len(self.cells) < 4:
            raise ValueError(f"need at least 4 cells, got {len(self.cells)}")
        if len(self.cells) != self.converter.n_cells:
            raise ValueError(
                f"converter is sized for {self.converter.n_cells} cells "
                f"but {len(self.cells)} were configured"
            )
        for j, (p, s) in enumerate(self.cells):
            v = terminal_voltage(p, s, 0.0)  # at rest
            if not 0.0 < v <= 2.0 * p.v_max:
                raise ValueError(f"cell {j} starts at {v:.4g} V, outside (0, {2 * p.v_max:.4g}] V")
        if self.policy not in ("ampc", "greedy", "none"):
            raise ValueError(f"policy must be ampc, greedy or none, got {self.policy!r}")
        if self.max_time < 0.0 or not math.isfinite(self.max_time):
            raise ValueError("max_time must be >= 0 and finite")
        if not self.max_time + self.idle_dt > self.max_time:  # every idle step moves the clock
            raise ValueError(
                f"idle_dt must be positive and move the clock at max_time, got {self.idle_dt!r}"
            )
        if not (isinstance(self.record_every, int) and self.record_every >= 1):
            raise ValueError("record_every must be an integer >= 1")
        v_top = min(p.v_max for p, _ in self.cells)
        if not 0.0 <= self.noise_std < v_top:
            raise ValueError(
                f"noise_std must be >= 0 and below the lowest v_max {v_top!r} V, "
                f"got {self.noise_std!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ValueError("forgetting_factor must lie in (0, 1]")
        if not self.initial_covariance > 0.0:
            raise ValueError("initial_covariance must be positive")
        # nominal cycle: on-time at the lowest allowed voltage plus the freewheel tail
        c, v_floor = self.converter, min(p.v_min for p, _ in self.cells)
        tail = 1.0 + c.turns_secondary / (c.turns_primary * len(self.cells))
        cycle = c.magnetizing_inductance * c.peak_current * tail / v_floor
        if not math.isfinite(cycle) or 0.0 < self.max_time < cycle:
            raise ValueError(f"converter cycle {cycle:.3g} s exceeds max_time {self.max_time} s")
        for name, dt in (("converter cycle", cycle), ("idle_dt", self.idle_dt)):
            if dt > 0.0 and self.max_time / dt > MAX_NOMINAL_STEPS:
                raise ValueError(
                    f"max_time {self.max_time} s takes {self.max_time / dt:.3g} steps of "
                    f"{name} {dt:.3g} s, over the limit of {MAX_NOMINAL_STEPS:.0e}"
                )
        # magnitudes that would overflow the estimator and scorer; a run that never steps
        # runs no cycle.  Drop at peak current below v_min, capacity above one cycle's drain.
        drained = 0.5 * c.peak_current * (c.magnetizing_inductance * c.peak_current / v_floor)
        for j, (p, _) in enumerate(self.cells if self.max_time > 0.0 else ()):
            if not p.series_resistance * c.peak_current < p.v_min:
                raise ValueError(
                    f"cell {j} series_resistance {p.series_resistance!r} ohm must drop less than "
                    f"its v_min {p.v_min!r} V at the converter's peak_current {c.peak_current!r} A"
                )
            if not p.capacity_coulombs > drained:
                raise ValueError(
                    f"cell {j} capacity_coulombs {p.capacity_coulombs!r} C does not exceed "
                    f"the {drained:.3g} C one nominal converter cycle drains"
                )


@dataclass(frozen=True)
class TraceRecord:
    """One recorded instant, captured at the start of a step before the
    plant moves.  ``current`` is each cell's net average current over the
    step that follows; ``candidate_bits`` is the chosen schedule's index in
    binary, or '----'."""

    time: float
    cycle: int
    soc: tuple[float, ...]
    voltage: tuple[float, ...]
    current: tuple[float, ...]
    theta: tuple[tuple[float, float, float], ...]
    candidate_bits: str
    voltage_std: float
    charger_current: float

    def __post_init__(self) -> None:
        n = len(self.soc)
        if not (len(self.voltage) == len(self.current) == len(self.theta) == n):
            raise ValueError("per-cell tuples must have equal length")
        if self.candidate_bits not in _TRACE_BITS:
            raise ValueError(f"bad candidate bits {self.candidate_bits!r}")


@dataclass(frozen=True)
class Summary:
    completion_time: Optional[float]     # first instant the gap closes for good
    initial_voltage_spread: float
    final_voltage_spread: float
    initial_soc_spread: float
    final_soc_spread: float
    time_avg_voltage_std: float
    gap_uniformity: float                # time-averaged std of sorted-voltage gaps
    converter_coulombs: float            # charge drawn through the converter


def _sorted_gap_std(voltages: Sequence[float]) -> float:
    ordered = sorted(voltages, reverse=True)
    gaps = [a - b for a, b in zip(ordered, ordered[1:])]
    return std(gaps)


class _Totals:
    """Running figures of merit, folded one record at a time.  Each record's
    std, gap spread and converter draw are weighted by the time to the next
    record; a lone record stands for itself."""

    def __init__(self, gap_threshold: float):
        self.gap_threshold = gap_threshold
        self.rows = 0
        self.first: Optional[TraceRecord] = None
        self.last: Optional[TraceRecord] = None
        self.completion: Optional[float] = None
        self.w_std = self.w_unif = self.coulombs = 0.0

    def add(self, rec: TraceRecord) -> None:
        prev = self.last
        self.rows += 1
        if prev is None:
            self.first = rec
        else:
            dt = rec.time - prev.time
            self.w_std += prev.voltage_std * dt
            self.w_unif += _sorted_gap_std(prev.voltage) * dt
            for i_cell in prev.current:
                drawn = i_cell - prev.charger_current
                if drawn > 0.0:
                    self.coulombs += drawn * dt
        self.last = rec
        # the gap closes for good at the first closed record after the last open one
        if max(rec.voltage) - min(rec.voltage) > self.gap_threshold:
            self.completion = None
        elif self.completion is None:
            self.completion = rec.time

    def summary(self) -> Summary:
        first, last = self.first, self.last
        if not self.rows:
            raise ValueError("cannot summarize an empty trace")
        if self.rows == 1:
            avg_std, uniformity = first.voltage_std, _sorted_gap_std(first.voltage)
        else:
            total = last.time - first.time
            avg_std, uniformity = self.w_std / total, self.w_unif / total
        return Summary(
            completion_time=self.completion,
            initial_voltage_spread=max(first.voltage) - min(first.voltage),
            final_voltage_spread=max(last.voltage) - min(last.voltage),
            initial_soc_spread=max(first.soc) - min(first.soc),
            final_soc_spread=max(last.soc) - min(last.soc),
            time_avg_voltage_std=avg_std,
            gap_uniformity=uniformity,
            converter_coulombs=self.coulombs,
        )


def summarize(trace: Sequence[TraceRecord], gap_threshold: float = 0.02) -> Summary:
    """Condense a trace into the run-level figures of merit."""
    totals = _Totals(gap_threshold)
    for rec in trace:
        totals.add(rec)
    return totals.summary()


class Simulation:
    """Stepwise closed-loop run; drive with :meth:`step` or :meth:`run`."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.params = [p for p, _ in cfg.cells]
        self.states = [s for _, s in cfg.cells]
        self.capacities = [p.capacity_coulombs for p in self.params]
        self._r_stack = sum(p.series_resistance for p in self.params)
        self.accumulators = [0.0] * len(self.params)
        self.estimator = rls.initial_estimators(
            self.params, cfg.warm_start, cfg.initial_covariance, cfg.forgetting_factor
        )
        self.charger_state = ChargerState()
        self.noise_rng = np.random.Generator(np.random.PCG64(cfg.seed))
        self.time = 0.0
        self.cycle = 0
        self.trace: list[TraceRecord] = []
        self.totals = _Totals(cfg.controller.gap_threshold)  # sees every step
        self.events: list[tuple[float, str, str]] = []
        self._last_currents: Optional[list[float]] = None
        self._in_band_violation: set[int] = set()
        self._done = False

    # -- helpers ---------------------------------------------------------

    def _charger_current(self, rest: list[float]) -> float:
        if self.cfg.charger.mode == "idle":
            return 0.0
        was_tripped = self.charger_state.guard_tripped
        i = cc_cv_current(self.cfg.charger, sum(rest), self._r_stack, rest, self.charger_state)
        if self.charger_state.guard_tripped and not was_tripped:
            self.events.append(
                (self.time, "charger_guard", "cell over limit, charger latched off")
            )
        return i

    def _measure(self) -> tuple[list[float], list[float], float]:
        """True and measured voltages at the charger's current, and that current.

        A cell outside its safety band forces the external current to zero
        for this step and is recorded as an event on entry.
        """
        rest = [terminal_voltage(p, s, 0.0) for p, s in zip(self.params, self.states)]
        i_ext = self._charger_current(rest)
        v_true = [v - p.series_resistance * i_ext for v, p in zip(rest, self.params)]
        violated = [
            j for j, v in enumerate(v_true)
            if v < self.params[j].v_min or v > self.params[j].v_max
        ]
        for j in violated:
            if j not in self._in_band_violation:
                self.events.append(
                    (self.time, "safety_band", f"cell {j} at {v_true[j]:.4f} V")
                )
        self._in_band_violation = set(violated)
        if violated and i_ext != 0.0:
            i_ext = 0.0
            v_true = rest
        if self.cfg.noise_std > 0.0:
            noise = self.noise_rng.normal(0.0, self.cfg.noise_std, size=len(v_true))
            v_meas = [v + float(e) for v, e in zip(v_true, noise)]
        else:
            v_meas = list(v_true)
        return v_true, v_meas, i_ext

    def _decide(self, v_meas: Sequence[float], i_ext: float) -> Decision:
        cfg = self.cfg
        if cfg.policy == "none":
            return Decision(None, (), rank_cells(v_meas))
        faulty = [j for j, v in enumerate(v_meas) if not v > 0.0]
        if faulty:  # a sensor fault, not a cell state: nothing is scored or run on it
            self.events += [
                (self.time, "measurement_fault", f"cell {j} read {v_meas[j]:.4f} V") for j in faulty
            ]
            return Decision(None, (), rank_cells(v_meas))
        if cfg.policy == "greedy":
            ranking = rank_cells(v_meas)
            active = should_balance(v_meas, cfg.controller)
            return Decision(greedy_baseline_plan(v_meas, ranking) if active else None, (), ranking)
        plant = None
        if cfg.controller.prediction_source == "plant":
            plant = list(zip(self.params, self.states))
        return select_plan(
            v_meas,
            self.estimator,
            self.accumulators,
            i_ext,
            cfg.converter,
            cfg.controller,
            capacities=self.capacities,
            plant=plant,
        )

    def _record(self, rec: TraceRecord) -> None:
        self.totals.add(rec)
        if rec.cycle % self.cfg.record_every == 0:
            self.trace.append(rec)

    def _snapshot(self, v_meas, currents, bits, i_ext) -> TraceRecord:
        return TraceRecord(
            time=self.time,
            cycle=self.cycle,
            soc=tuple(s.soc for s in self.states),
            voltage=tuple(v_meas),
            current=tuple(currents),
            theta=tuple(map(tuple, self.estimator.theta.tolist())),
            candidate_bits=bits,
            voltage_std=std(v_meas),
            charger_current=i_ext,
        )

    def _finish(self) -> None:
        _v_true, v_meas, i_ext = self._measure()
        rec = self._snapshot(v_meas, [i_ext] * len(self.params), INACTIVE_BITS, i_ext)
        self.totals.add(rec)
        if self.cycle > 0:  # a run that never stepped leaves an empty trace on purpose
            self.trace.append(rec)
        self._done = True

    # -- main loop -------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._done

    def step(self) -> Optional[TraceRecord]:
        """Advance one cycle or idle interval.

        Returns the record captured at the step's start, or None once the
        run is over (the final state row is appended to the trace then).
        """
        if self._done:
            return None
        cfg = self.cfg
        if self.time >= cfg.max_time:
            self._finish()
            return None

        v_true, v_meas, i_ext = self._measure()

        # the current that flowed up to this measurement (the charger's at first)
        reg_currents = self._last_currents or [i_ext] * len(self.params)
        x = rls.build_regressor(reg_currents, self.accumulators, self.capacities)
        self.estimator = rls.update(self.estimator, x, v_meas)

        decision = self._decide(v_meas, i_ext)

        charger_finished = (
            cfg.charger.mode == "cc_cv" and self.charger_state.phase == "done"
        )
        plan = decision.plan
        if plan is None and charger_finished:
            self._finish()
            return None

        # dt is the amount the clock moves, so time[k+1] - time[k] == dt exactly
        end = self.time
        if plan is not None:
            deltas, t3 = cycle_charge_deltas(cfg.converter, v_true, plan)
            end = self.time + t3
        dt = end - self.time
        if dt > 0.0:
            currents = [i_ext - d / dt for d in deltas]
            bits = format(plan.schedule, "04b")
        else:
            # Idle interval, or a cycle too short to move the clock.
            end = self.time + min(cfg.idle_dt, cfg.max_time - self.time)
            dt = end - self.time
            currents = [i_ext] * len(self.params)
            bits = INACTIVE_BITS

        rec = self._snapshot(v_meas, currents, bits, i_ext)
        self._record(rec)

        for j, (p, s) in enumerate(zip(self.params, self.states)):
            new_state, saturated = step_exact(p, s, currents[j], dt)
            self.states[j] = new_state
            if saturated:
                self.events.append(
                    (self.time, "saturation", f"cell {j} hit a reservoir limit")
                )
            self.accumulators[j] += currents[j] * dt
        self._last_currents = currents
        self.time = end
        self.cycle += 1
        return rec

    def run(self) -> None:
        while self.step() is not None:
            pass


def run_scenario(cfg: ScenarioConfig) -> tuple[list[TraceRecord], Summary]:
    """Run a scenario to completion and summarize it."""
    sim = Simulation(cfg)
    sim.run()
    return sim.trace, sim.totals.summary()
