"""Closed-loop balancing scenarios: charger, converter, controller, cells.

One simulated step is one balancing cycle when the controller is active,
or one fixed idle interval when it is not.  Each step measures the cell
voltages (optionally with seeded Gaussian noise), feeds them to the stack's
``rls.Identification``, lets the controller decide, applies the chosen
schedule's cycle at the frozen true voltages, then advances the true cell
models by the resulting average currents, over exactly the time the clock
moves, with the exact-hold integrator, and the identification's charges by
the same currents.  A noiseless measurement is the true voltages themselves,
so the cycle the controller scored is the one applied; on noisy readings, and
for ``greedy``, which scores nothing, the cycle is computed at the true
voltages.  Everything is deterministic for a fixed seed, down to the bits on
every Python version: each float sum is a left fold.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import reprlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from . import rls
from .controller import POLICIES, ControllerConfig, select_plan, std
from .ecm import CellParams, CellState, hold_factors, hold_step, terminal_voltage
from .flyback import (ConverterParams, CycleDeltas, SwitchPlan, cycle_charge_deltas,
                      distinct_cycles)

INACTIVE_BITS = "----"
_TRACE_BITS = {INACTIVE_BITS, *(format(k, "04b") for k in range(16))}
# A run needing more steps than this, at its nominal cycle or at idle_dt, has no practical end.
MAX_NOMINAL_STEPS = 1e7
# Steps Simulation.stream runs before handing their rows to write_trace's per-row flattening.
# Handing over one row at a time cost the command 5.1 % more CPU on stock greedy, 2.0 % on ampc
# (16 alternating pairs); 512 rows hold under 1 MB and ran as fast as 4096 on the stock runs.
_TRACE_BLOCK = 512


@dataclass(frozen=True)
class ChargerConfig:
    """Stack-level CC-CV source.  Currents follow the discharge-positive
    convention, so a charging current is negative."""

    mode: str = "cc_cv"              # "cc_cv" | "idle"
    cc_current: float = -0.4         # amperes, stack level
    cv_cell_voltage: float = 3.8     # volts per cell; the stack setpoint is n times this
    cutoff_current: float = 0.05     # amperes magnitude ending the CV taper
    cell_voltage_limit: float = 4.2  # per-cell guard, volts

    def __post_init__(self) -> None:
        if self.mode not in ("cc_cv", "idle"):
            raise ValueError(
                f"charger mode must be 'cc_cv' or 'idle', got {reprlib.repr(self.mode)}")
        if self.mode == "cc_cv":
            if not self.cc_current < 0.0:
                raise ValueError("cc_current must be negative (charging)")
            if self.cutoff_current < 0.0:
                raise ValueError("cutoff_current must be >= 0")
            if not abs(self.cc_current) > self.cutoff_current:
                raise ValueError("|cc_current| must exceed cutoff_current")
            if not self.cv_cell_voltage > 0.0:
                raise ValueError("cv_cell_voltage must be positive")
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
    """Charger current for this instant, advancing the phase state; idle
    mode returns 0.0 and never touches the state.

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
    cv_voltage = len(cell_voltages) * charger.cv_cell_voltage
    if state.phase == "cc":
        v_at_cc = stack_voltage - stack_resistance * charger.cc_current
        if v_at_cc < cv_voltage:
            return charger.cc_current
        state.phase = "cv"
    i = (stack_voltage - cv_voltage) / stack_resistance
    i = max(charger.cc_current, min(0.0, i))
    if abs(i) < charger.cutoff_current:
        state.phase = "done"
        return 0.0
    return i


STOCK_SOCS = (0.60, 0.50, 0.45, 0.40)  # the stock stack: four default cells at these SOCs


@dataclass
class ScenarioConfig:
    """One fully specified closed-loop run; ``ScenarioConfig()`` is the stock scenario."""

    cells: list[tuple[CellParams, CellState]] = field(
        default_factory=lambda: [(CellParams(), CellState(soc)) for soc in STOCK_SOCS])
    converter: ConverterParams = ConverterParams()
    charger: ChargerConfig = ChargerConfig()
    policy: str = "ampc"                 # one of controller.POLICIES
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
        for j, (p, s) in enumerate(self.cells):
            v = terminal_voltage(p, s.soc, s.v1, s.v2, 0.0)  # at rest
            if not 0.0 < v <= 2.0 * p.v_max:
                raise ValueError(f"cell {j} starts at {v:.4g} V, outside (0, {2 * p.v_max:.4g}] V")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {', '.join(POLICIES)}, "
                             f"got {reprlib.repr(self.policy)}")
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
            raise ValueError(f"seed must be >= 0, got {reprlib.repr(self.seed)}")
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ValueError("forgetting_factor must lie in (0, 1]")
        # the longest nominal cycle runs with every cell at the lowest allowed voltage
        c, v_floor = self.converter, min(p.v_min for p, _ in self.cells)
        # cycle 0 is schedule 0's, the target alone: its length and the target's drain
        _, drains, cycle = distinct_cycles(c, [v_floor] * len(self.cells), (0, 1, 2))
        drained = drains[0][0]
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
        # The largest regressor entry.  A current stays under the charger's plus a winding's
        # drain and freewheel, each under the peak current scaled by the widest voltage
        # ratio, 2 v_max / v_min.  q counts only charge that moves the SOC (Identification),
        # so |q/C| <= 1, but a leak moves it uncounted: the run's charge bounds that q/C.
        ratio = 2.0 * max(p.v_max for p, _ in self.cells) / v_floor
        i_max = abs(self.charger.cc_current) + c.peak_current * ratio * (
            1.0 + 2.0 * c.turns_primary / c.turns_secondary)
        leaky = [p.capacity_coulombs for p, _ in self.cells if p.self_discharge_resistance]
        q_max = i_max * self.max_time / min(leaky) if leaky else 1.0
        x_max = max(1.0, i_max, q_max)
        p0_max = rls.max_p0_scale(x_max, self.forgetting_factor)
        if not p0_max > 0.0:  # x_max squared overflows: no covariance keeps P definite
            leak = ", run.max_time and the leaky cells' capacity_coulombs" if leaky else ""
            raise ValueError(
                f"regressor bound {x_max:.4g} overflows the estimator; it grows with the cells' "
                "v_max / v_min, charger.cc_current, converter.peak_current and "
                f"converter.turns_primary / converter.turns_secondary{leak}")
        if not 0.0 < self.initial_covariance <= p0_max:
            raise ValueError(
                f"initial_covariance must lie in (0, {p0_max:.4g}] for this scenario's "
                f"regressors and forgetting_factor, got {self.initial_covariance!r}"
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
            raise ValueError(f"bad candidate bits {reprlib.repr(self.candidate_bits)}")


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


def _left_sum(values) -> float:
    """A left fold from 0.0: builtin sum() compensates float sums from Python 3.12 on, which
    would move the last bits between versions, and before 3.12 gives these bits."""
    return functools.reduce(operator.add, values, 0.0)


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


def summarize(
    trace: Sequence[TraceRecord], gap_threshold: float = ControllerConfig.gap_threshold
) -> Summary:
    """Condense a trace into the run-level figures of merit."""
    totals = _Totals(gap_threshold)
    for rec in trace:
        totals.add(rec)
    return totals.summary()


class Simulation:
    """Stepwise closed-loop run.  :meth:`stream` runs it and hands over the rows it
    records; :meth:`step` advances it one step and records nothing."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.params = [p for p, _ in cfg.cells]
        self.soc, self.v1, self.v2 = map(list, zip(*((s.soc, s.v1, s.v2) for _, s in cfg.cells)))
        # cells with equal parameters share one set of hold factors per step
        self._kinds = list(dict.fromkeys(self.params))
        self._kind = [self._kinds.index(p) for p in self.params]
        self._r_stack = _left_sum(p.series_resistance for p in self.params)
        self.identification = rls.Identification(
            self.params, cfg.warm_start, cfg.initial_covariance, cfg.forgetting_factor
        )
        self.charger_state = ChargerState()
        self._charged = False  # the charger has drawn current at least once
        self.noise_rng = random.Random(cfg.seed)
        self.time = 0.0
        self.cycle = 0
        self.totals = _Totals(cfg.controller.gap_threshold)  # sees every step
        self.final: Optional[TraceRecord] = None  # the state the run ended in
        self.events: list[tuple[float, str, str]] = []
        self._held: dict[str, set] = {}  # event kind -> the keys it held at its last check

    # -- helpers ---------------------------------------------------------

    def _enter(self, kind: str, keys: Sequence, detail: Callable[[Any], str]) -> None:
        """Record ``(time, kind, detail(key))`` for each of ``keys`` that did not hold
        at the kind's last check: a condition is recorded once, when it starts."""
        held = self._held.get(kind, ())
        if not keys and not held:
            return
        self.events += [(self.time, kind, detail(k)) for k in keys if k not in held]
        self._held[kind] = set(keys)

    def _charger_current(self, rest: list[float]) -> float:
        state = self.charger_state
        i = cc_cv_current(self.cfg.charger, _left_sum(rest), self._r_stack, rest, state)
        if state.phase == "done":  # the latch both charger events need
            tripped = state.guard_tripped
            self._enter("charger_guard", [0] if tripped else [],
                        lambda _: "cell over limit, charger latched off")
            self._enter("charger", [] if tripped or self._charged else [0],
                        lambda _: "stack at its CV setpoint before any charge, latched off")
        self._charged = self._charged or i != 0.0
        return i

    def _measure(self) -> tuple[list[float], list[float], float]:
        """True and measured voltages at the charger's current, and that current.
        Without noise the measurement is the true-voltage list itself.

        A cell outside its safety band forces the external current to zero
        for this step and is recorded as an event on entry.
        """
        rest = [terminal_voltage(p, s, a, b, 0.0)
                for p, s, a, b in zip(self.params, self.soc, self.v1, self.v2)]
        i_ext = self._charger_current(rest)
        v_true = [v - p.series_resistance * i_ext for v, p in zip(rest, self.params)]
        violated = [
            j for j, v in enumerate(v_true)
            if v < self.params[j].v_min or v > self.params[j].v_max
        ]
        self._enter("safety_band", violated, lambda j: f"cell {j} at {v_true[j]:.4f} V")
        if violated and i_ext != 0.0:
            i_ext = 0.0
            v_true = rest
        if self.cfg.noise_std > 0.0:
            v_meas = [v + self.noise_rng.gauss(0.0, self.cfg.noise_std) for v in v_true]
        else:
            v_meas = v_true
        return v_true, v_meas, i_ext

    def _decide(self, v_meas: Sequence[float],
                i_ext: float) -> tuple[Optional[SwitchPlan], Optional[CycleDeltas]]:
        """The controller's plan and the cycle it scored for the plan (see
        :attr:`controller.Decision.cycle`), or (None, None) on a faulty reading."""
        cfg = self.cfg
        # a sensor fault, not a cell state: nothing is scored or run on it, and it is
        # recorded on entry (a policy that never balances has nothing to refuse)
        faulty = [] if cfg.policy == "none" else [j for j, v in enumerate(v_meas) if not v > 0.0]
        self._enter("measurement_fault", faulty, lambda j: f"cell {j} read {v_meas[j]:.4f} V")
        if faulty:
            return None, None
        ident = self.identification
        plant = ((self.params, self.soc, self.v1, self.v2)
                 if cfg.controller.prediction_source == "plant" else None)
        decision = select_plan(v_meas, ident.estimator, ident.charges, i_ext, cfg.converter,
                               cfg.controller, capacities=ident.capacities, plant=plant,
                               policy=cfg.policy)
        return decision.plan, decision.cycle

    def _snapshot(self, v_meas, currents, bits, i_ext) -> TraceRecord:
        return TraceRecord(
            time=self.time,
            cycle=self.cycle,
            soc=tuple(self.soc),
            voltage=tuple(v_meas),
            current=tuple(currents),
            theta=self.identification.estimator.theta,
            candidate_bits=bits,
            voltage_std=std(v_meas),
            charger_current=i_ext,
        )

    def _finish(self) -> None:
        _v_true, v_meas, i_ext = self._measure()
        self.final = self._snapshot(v_meas, [i_ext] * len(self.params), INACTIVE_BITS, i_ext)
        self.totals.add(self.final)

    # -- main loop -------------------------------------------------------

    def step(self) -> Optional[TraceRecord]:
        """Advance one cycle or idle interval.

        Returns the record captured at the step's start, or None once the
        run is over, when :attr:`final` holds the state it ended in.  It
        keeps no row: :meth:`stream` decides which records a run keeps.
        """
        if self.final is not None:
            return None
        cfg = self.cfg
        if self.time >= cfg.max_time:
            self._finish()
            return None

        v_true, v_meas, i_ext = self._measure()
        self.identification.measure(v_meas, i_ext)

        plan, cycle = self._decide(v_meas, i_ext)
        if plan is None and self.charger_state.phase == "done":
            self._finish()
            return None

        # dt is the amount the clock moves, so time[k+1] - time[k] == dt exactly
        end = self.time
        if plan is not None:
            # the scored cycle is the true one only when it was scored on the true voltages
            if cycle is None or v_meas is not v_true:
                cycle = cycle_charge_deltas(cfg.converter, v_true, plan)
            deltas, t3 = cycle
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
        self.totals.add(rec)

        shared = [hold_factors(p, dt) for p in self._kinds]
        stepped = [hold_step(p, shared[k], s, a, b, i, dt) for p, k, s, a, b, i in zip(
            self.params, self._kind, self.soc, self.v1, self.v2, currents)]
        self.soc, self.v1, self.v2, clamped = map(list, zip(*stepped))
        # a cell held at a reservoir limit is recorded once, when the clamp first takes it
        self._enter("saturation", [j for j, hit in enumerate(clamped) if hit],
                    lambda j: f"cell {j} hit a reservoir limit")
        self.identification.advance(currents, dt, rec.soc, self.soc)
        self.time = end
        self.cycle += 1
        return rec

    def stream(self) -> Iterator[TraceRecord]:
        """Run to completion, handing over the recorded rows in order: every
        ``record_every``-th step's record, then :attr:`final`; a run that never
        stepped records nothing.  Steps run in blocks of ``_TRACE_BLOCK``, so a
        run of any length holds at most one block of rows."""
        every, steps = self.cfg.record_every, iter(self.step, None)
        for block in iter(lambda: list(itertools.islice(steps, _TRACE_BLOCK)), []):
            yield from (rec for rec in block if rec.cycle % every == 0)
        if self.cycle > 0:
            yield self.final


def run_scenario(cfg: ScenarioConfig) -> tuple[list[TraceRecord], Summary]:
    """Run a scenario to completion and summarize it."""
    sim = Simulation(cfg)
    return list(sim.stream()), sim.totals.summary()
