"""Closed-loop scenario machinery: charger phases, safety events, trace
bookkeeping and summary arithmetic."""

from __future__ import annotations

import dataclasses
import math
import random
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from cellbal import (
    CellParams,
    CellState,
    ChargerConfig,
    ChargerState,
    ControllerConfig,
    ConverterParams,
    ScenarioConfig,
    Simulation,
    SwitchPlan,
    TraceRecord,
    cc_cv_current,
    cycle_charge_deltas,
    rank_cells,
    rls,
    run_scenario,
    select_plan,
    should_balance,
    std,
    step_exact,
    summarize,
)
import cellbal.harness as harness
from cellbal.cli import read_trace, write_trace
from cellbal.controller import POLICIES
from cellbal.flyback import distinct_cycles
from cellbal.harness import INACTIVE_BITS
from conftest import leaky_cells, make_stock_scenario

R_TOT = 4 * 0.07  # ohms, stock four-cell stack


def make_record(time, voltage, *, current=(0.0,) * 4, std_val=None, charger=0.0, cycle=0):
    v = tuple(voltage)
    return TraceRecord(
        time=time,
        cycle=cycle,
        soc=(0.5,) * len(v),
        voltage=v,
        current=tuple(current),
        theta=((0.0, 0.0, 0.0),) * len(v),
        candidate_bits=INACTIVE_BITS,
        voltage_std=std(v) if std_val is None else std_val,
        charger_current=charger,
    )


class TestChargerConfig:
    def test_cc_must_charge(self):
        with pytest.raises(ValueError, match="negative"):
            ChargerConfig(cc_current=0.4)

    def test_cc_must_exceed_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            ChargerConfig(cc_current=-0.04, cutoff_current=0.05)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ChargerConfig(mode="trickle")

    @pytest.mark.parametrize("limit", [math.nan, math.inf, 0.0, -4.2])
    def test_cell_voltage_limit_must_be_positive_and_finite(self, limit):
        with pytest.raises(ValueError, match="cell_voltage_limit"):
            ChargerConfig(cell_voltage_limit=limit)

    def test_idle_skips_current_checks(self):
        cfg = ChargerConfig(mode="idle", cc_current=5.0)
        assert cfg.mode == "idle"


class TestCcCvCurrent:
    CFG = ChargerConfig()

    def test_cc_phase(self):
        state = ChargerState()
        i = cc_cv_current(self.CFG, 14.0, R_TOT, (3.5,) * 4, state)
        assert i == -0.4
        assert state.phase == "cc"

    def test_cc_to_cv_handoff(self):
        # at rest 15.1 the CC terminal voltage 15.212 overshoots the 15.2 V
        # setpoint, so regulation switches to CV within the same call
        state = ChargerState()
        i = cc_cv_current(self.CFG, 15.1, R_TOT, (3.78,) * 4, state)
        assert state.phase == "cv"
        assert i == pytest.approx((15.1 - 15.2) / R_TOT, rel=1e-15)

    def test_cv_clamps_to_cc_limit(self):
        state = ChargerState(phase="cv")
        i = cc_cv_current(self.CFG, 15.06, R_TOT, (3.77,) * 4, state)
        assert i == -0.4  # raw demand -0.5 A exceeds the CC limit

    def test_cv_taper_cutoff_latches_done(self):
        state = ChargerState(phase="cv")
        i = cc_cv_current(self.CFG, 15.19, R_TOT, (3.8,) * 4, state)
        assert i == 0.0
        assert state.phase == "done"
        assert not state.guard_tripped

    def test_done_latches(self):
        state = ChargerState(phase="done")
        assert cc_cv_current(self.CFG, 10.0, R_TOT, (2.5,) * 4, state) == 0.0

    def test_overshoot_above_setpoint_finishes(self):
        # rest already above the CV setpoint: demand would discharge, gets
        # clamped to zero and trips the cutoff
        state = ChargerState(phase="cv")
        i = cc_cv_current(self.CFG, 15.3, R_TOT, (3.83,) * 4, state)
        assert i == 0.0
        assert state.phase == "done"

    def test_setpoint_follows_the_cell_count(self):
        # six cells resting at 3.6 V sit 1.2 V under their 22.8 V setpoint
        state = ChargerState()
        assert cc_cv_current(self.CFG, 21.6, 6 * 0.07, (3.6,) * 6, state) == -0.4
        assert state.phase == "cc"

    def test_cell_guard_trips(self):
        state = ChargerState()
        i = cc_cv_current(self.CFG, 14.0, R_TOT, (3.5, 4.201, 3.5, 3.5), state)
        assert i == 0.0
        assert state.guard_tripped
        assert state.phase == "done"

    def test_idle_returns_zero(self):
        state = ChargerState()
        assert cc_cv_current(ChargerConfig(mode="idle"), 14.0, R_TOT, (3.5,) * 4, state) == 0.0

    def test_resistance_domain(self):
        with pytest.raises(ValueError, match="resistance"):
            cc_cv_current(self.CFG, 14.0, 0.0, (3.5,) * 4, ChargerState())


class TestGreedyBaseline:
    def test_targets_highest_cell(self):
        plan = select_plan(
            (3.9, 4.1, 4.0, 4.05), None, None, 0.0, ConverterParams(), ControllerConfig(),
            policy="greedy",
        ).plan
        assert plan.target_cell == 1
        assert (plan.second_cell, plan.third_cell) == (3, 2)
        assert plan.schedule == 0


class TestScenarioConfig:
    def test_too_few_cells(self):
        cells = [(CellParams(), CellState(soc=0.5))] * 3
        with pytest.raises(ValueError, match="at least 4"):
            ScenarioConfig(cells=cells, converter=ConverterParams(magnetizing_inductance=0.01))

    @pytest.mark.parametrize("n", [5, 6])
    def test_cell_list_sets_the_stack_size(self, n, tmp_path):
        # the default converter runs any stack; its trace rows hold every cell
        cells = [(CellParams(), CellState(soc=0.6 - 0.04 * j)) for j in range(n)]
        trace, _ = run_scenario(
            ScenarioConfig(cells=cells, converter=ConverterParams(), max_time=2.0)
        )
        assert any(r.candidate_bits != INACTIVE_BITS for r in trace)
        write_trace(tmp_path / "trace.csv", trace, n)
        assert {len(r.voltage) for r in read_trace(tmp_path / "trace.csv")} == {n}

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(policy="pid"),
            dict(max_time=-1.0),
            dict(max_time=math.inf),
            dict(idle_dt=0.0),
            dict(idle_dt=1e-14),  # 4000.0 + 1e-14 == 4000.0
            dict(record_every=0),
            dict(noise_std=-0.001),
            dict(forgetting_factor=0.0),
            dict(forgetting_factor=1.2),
            dict(initial_covariance=0.0),
            dict(noise_std=4.2),  # the stock cells' v_max
            dict(noise_std=1e154),
        ],
    )
    def test_scalar_domains(self, overrides):
        with pytest.raises(ValueError):
            make_stock_scenario(**overrides)

    def test_initial_covariance_bound_follows_the_regressor_size(self):
        # stock regressor entries stay under 0.4 A + 5 A * (2 * 4.2 V / 3 V) * (1 + 2 / 4)
        p0_max = rls.max_p0_scale(0.4 + 5.0 * (2.0 * 4.2 / 3.0) * (1.0 + 2.0 * 1 / 4), 0.995)
        make_stock_scenario(initial_covariance=p0_max)
        for overrides in (
            dict(initial_covariance=math.nextafter(p0_max, math.inf)),
            dict(initial_covariance=9e307),
            dict(initial_covariance=p0_max, forgetting_factor=0.9),
            dict(initial_covariance=p0_max, converter=ConverterParams(peak_current=10.0)),
        ):
            with pytest.raises(ValueError, match="initial_covariance must lie in"):
                make_stock_scenario(**overrides)

    @pytest.mark.parametrize("v1", [1e200, -1e200, 3.7, -4.8])
    def test_starting_rest_voltage_must_lie_in_band(self, v1):
        # stock cells rest at 3.63 V at soc 0.6 and allow up to 2 * 4.2 V
        cells = [(CellParams(), CellState(soc=0.6, v1=v1))]
        cells += [(CellParams(), CellState(soc=0.6)) for _ in range(3)]
        with pytest.raises(ValueError, match="cell 0 starts at"):
            make_stock_scenario(cells=cells)

    @pytest.mark.parametrize("inductance", [1e300, 1e308, 1e4])
    def test_converter_cycle_must_fit_the_run(self, inductance):
        conv = ConverterParams(magnetizing_inductance=inductance)
        with pytest.raises(ValueError, match="exceeds max_time"):
            make_stock_scenario(converter=conv)
        # a run that never steps never runs a cycle, whatever its length
        if inductance < 1e308:
            make_stock_scenario(converter=conv, max_time=0.0)

    @pytest.mark.parametrize("peak", [5.0, 0.0])
    def test_converter_whose_windings_never_shed_is_refused(self, peak):
        # 1 / 1e307 turns * 12 V / 1e20 H underflows to a zero freewheel slope: the cycle
        # never ends, even an idle one (zero peak) that would move no charge
        conv = ConverterParams(magnetizing_inductance=1e20, turns_secondary=10**307,
                               peak_current=peak)
        with pytest.raises(ValueError, match="underflows to 0"):
            make_stock_scenario(converter=conv, max_time=10.0)

    def test_refusal_boundaries_follow_the_winding_closed_form(self):
        # the nominal cycle is distinct_cycles' cycle 0 on a uniform stack at the lowest
        # v_min: a run fits exactly its length, and a cell must hold more than its drain
        rng = random.Random(25)
        for _ in range(20):
            n = rng.randint(4, 8)
            conv = ConverterParams(
                magnetizing_inductance=10 ** rng.uniform(-3.0, 1.0),
                turns_primary=rng.randint(1, 9),
                turns_secondary=rng.randint(1, 9),
                peak_current=rng.uniform(0.5, 10.0),
            )
            _, drains, length = distinct_cycles(conv, [CellParams().v_min] * n, (0, 1, 2))
            drain = drains[0][0]
            stack = [(CellParams(), CellState())] * n

            def build(cells=stack, max_time=length):
                return ScenarioConfig(cells=cells, converter=conv, max_time=max_time)

            build()
            with pytest.raises(ValueError, match="exceeds max_time"):
                build(max_time=math.nextafter(length, 0.0))
            small = stack[1:] + [(CellParams(capacity_coulombs=drain), CellState())]
            with pytest.raises(ValueError, match=f"cell {n - 1} capacity_coulombs"):
                build(cells=small)
            capacity = math.nextafter(drain, math.inf)
            build(cells=stack[1:] + [(CellParams(capacity_coulombs=capacity), CellState())])

    def test_nominal_cycle_bound(self):
        # stock cells (v_min 3 V), 1:4 turns: L * 5 A / 3 V * (1 + 4/4) = 400 s
        # at L = 120 H, which fits a 400 s run and not a 399 s one
        conv = ConverterParams(magnetizing_inductance=120.0)
        make_stock_scenario(converter=conv, max_time=400.0)
        with pytest.raises(ValueError, match="exceeds max_time"):
            make_stock_scenario(converter=conv, max_time=399.0)

    def test_nominal_step_limit(self):
        # L = 120 H gives a 400 s cycle, so only idle_dt can reach the limit:
        # 5e6 s of 0.5 s idle steps is exactly 1e7 steps
        slow = ConverterParams(magnetizing_inductance=120.0)
        make_stock_scenario(converter=slow, max_time=5e6, idle_dt=0.5)
        with pytest.raises(ValueError, match="steps of idle_dt 0.5 s"):
            make_stock_scenario(converter=slow, max_time=5e6 + 0.5, idle_dt=0.5)
        # a 4000 s run has 1200 / L nominal cycles (L * 5 A / 3 V * 2 each)
        make_stock_scenario(converter=ConverterParams(magnetizing_inductance=2e-4))
        with pytest.raises(ValueError, match="steps of converter cycle"):
            make_stock_scenario(converter=ConverterParams(magnetizing_inductance=1e-4))

    def test_cell_magnitudes_must_fit_the_converter(self):
        # drop at 5 A below v_min 3 V; capacity above the drain 0.5 * I * (L * I / v_min)
        conv = ConverterParams(magnetizing_inductance=0.01)
        drained = 0.5 * 5.0 * (0.01 * 5.0 / 3.0)
        for field, ok, bad in (
            ("series_resistance", 0.5999, 0.6),
            ("capacity_coulombs", drained * 1.001, drained),
        ):
            ok_cell = CellParams(**{field: ok})
            ScenarioConfig(cells=[(ok_cell, CellState(soc=0.5))] * 4, converter=conv)
            bad_cell = CellParams(**{field: bad})
            cells = [(CellParams(), CellState(soc=0.5))] * 3
            with pytest.raises(ValueError, match=f"cell 3 {field}"):
                ScenarioConfig(cells=cells + [(bad_cell, CellState(soc=0.5))], converter=conv)


class TestTraceRecord:
    def test_bits_must_be_binary_or_inactive(self):
        rec = make_record(0.0, (4.0,) * 4)
        with pytest.raises(ValueError, match="bits"):
            TraceRecord(**{**rec.__dict__, "candidate_bits": "01a0"})

    def test_bits_length(self):
        rec = make_record(0.0, (4.0,) * 4)
        with pytest.raises(ValueError, match="bits"):
            TraceRecord(**{**rec.__dict__, "candidate_bits": "01"})

    def test_per_cell_lengths_must_agree(self):
        rec = make_record(0.0, (4.0,) * 4)
        with pytest.raises(ValueError, match="equal length"):
            TraceRecord(**{**rec.__dict__, "current": (0.0, 0.0)})


class TestRunScenario:
    def test_idle_scenario_holds_state(self):
        cfg = make_stock_scenario(
            "none", charger=ChargerConfig(mode="idle"), max_time=10.0
        )
        trace, summary = run_scenario(cfg)
        assert len(trace) == 11  # ten idle steps plus the final snapshot
        first = trace[0]
        for rec in trace:
            assert rec.soc == first.soc
            assert rec.voltage == first.voltage
            assert rec.current == (0.0,) * 4
        assert summary.converter_coulombs == 0.0
        assert summary.final_soc_spread == summary.initial_soc_spread

    def test_zero_length_run_summarizes_initial_state(self):
        trace, summary = run_scenario(make_stock_scenario(max_time=0.0))
        assert trace == []
        assert summary.completion_time is None  # starts with the gap open
        assert summary.initial_voltage_spread == summary.final_voltage_spread > 0.02
        assert summary.converter_coulombs == 0.0

    def test_deterministic_for_fixed_seed(self):
        a = run_scenario(make_stock_scenario(noise_std=0.005, seed=7, max_time=30.0))
        b = run_scenario(make_stock_scenario(noise_std=0.005, seed=7, max_time=30.0))
        c = run_scenario(make_stock_scenario(noise_std=0.005, seed=8, max_time=30.0))
        assert a[0] == b[0]
        assert a[0] != c[0]

    def test_noise_is_the_seeded_gaussian_stream(self):
        # no balancing and an idle charger hold the plant still, so each recorded
        # voltage minus its noise-free twin's is one draw, cell by cell, row by row
        sigma, seed = 0.005, 0
        run = dict(charger=ChargerConfig(mode="idle"), max_time=600.0, seed=seed)
        noisy, _ = run_scenario(make_stock_scenario("none", noise_std=sigma, **run))
        clean, _ = run_scenario(make_stock_scenario("none", **run))
        assert len(noisy) == len(clean) > 600
        assert all(rec.soc == clean[0].soc and rec.voltage == clean[0].voltage for rec in clean)
        draws = [v - v0 for a, b in zip(noisy, clean) for v, v0 in zip(a.voltage, b.voltage)]
        rng = random.Random(seed)
        # 1e-15 V covers the rounding of (v + g) - v at about 3.7 V
        assert draws == pytest.approx([rng.gauss(0.0, sigma) for _ in draws], rel=0, abs=1e-15)
        mean = statistics.fmean(draws)
        assert abs(mean) < 4.0 * sigma / math.sqrt(len(draws))
        assert statistics.pstdev(draws) == pytest.approx(sigma, rel=0.1)

    def test_trace_coulomb_bookkeeping(self):
        # each row's currents integrate exactly into the next row's soc
        trace, _ = run_scenario(make_stock_scenario(max_time=40.0))
        assert len(trace) > 100
        for prev, cur in zip(trace, trace[1:]):
            dt = cur.time - prev.time
            for j in range(4):
                expect = prev.soc[j] - prev.current[j] * dt / 2880.0
                assert cur.soc[j] == pytest.approx(expect, rel=1e-9, abs=1e-15)

    def test_saturation_event(self):
        cells = [
            (CellParams(), CellState(soc=0.999)) for _ in range(4)
        ]
        cfg = make_stock_scenario(
            "none",
            cells=cells,
            charger=ChargerConfig(cv_cell_voltage=4.1),
            max_time=12.0,
        )
        sim = Simulation(cfg)
        list(sim.stream())
        kinds = {ev[1] for ev in sim.events}
        assert "saturation" in kinds
        assert all(s <= 1.0 for s in sim.soc)

    def test_saturation_is_recorded_once_per_entry(self):
        # four full 10 C cells charged for 20 000 s sit at the clamp from the first step
        # to the last: one entry each, not one event per step
        cells = [(CellParams(capacity_coulombs=10.0, v_max=6.0), CellState(1.0))]
        charger = ChargerConfig(cv_cell_voltage=5.9, cell_voltage_limit=6.0)
        sim = Simulation(make_stock_scenario("none", cells=cells * 4, charger=charger,
                                             max_time=20000.0))
        assert all(rec.soc == (1.0,) * 4 and rec.current[0] < 0.0 for rec in sim.stream())
        assert sim.cycle >= 20000
        assert sim.events == [(0.0, "saturation", f"cell {j} hit a reservoir limit")
                              for j in range(4)]

    def test_safety_band_event_cuts_external_current(self):
        cells = [(CellParams(v_max=3.58), CellState(soc=0.6))]
        cells += [(CellParams(), CellState(soc=0.6)) for _ in range(3)]
        cfg = make_stock_scenario("none", cells=cells, max_time=5.0)
        sim = Simulation(cfg)
        trace = list(sim.stream())
        band = [ev for ev in sim.events if ev[1] == "safety_band"]
        assert len(band) == 1  # entry only, no re-report while it persists
        assert "cell 0" in band[0][2]
        assert all(rec.charger_current == 0.0 for rec in trace)

    def test_safety_band_is_recorded_again_on_re_entry(self):
        # an idle charger and no balancing hold the stack still, so only the RC offset set
        # before each step moves cell 0 (at rest near 3.7 V) over its 4.2 V limit and back
        sim = Simulation(make_stock_scenario("none", charger=ChargerConfig(mode="idle")))
        for offset in (0.0, -1.0, -1.0, 0.0, -1.0, 0.0):
            sim.v1[0] = offset
            sim.step()
        band = [(t, detail.partition(" at ")[0]) for t, kind, detail in sim.events
                if kind == "safety_band"]
        assert band == [(1.0, "cell 0"), (4.0, "cell 0")]

    def test_saturation_is_recorded_again_on_re_entry(self):
        # a charging cell set full before a step hits the clamp; set back to half, it leaves
        cells = [(CellParams(v_max=6.0), CellState(0.5))] * 4
        charger = ChargerConfig(cv_cell_voltage=5.9, cell_voltage_limit=6.0)
        sim = Simulation(make_stock_scenario("none", cells=cells, charger=charger))
        times = []
        for soc in (0.5, 1.0, 1.0, 0.5, 1.0):
            sim.soc[1] = soc
            times.append(sim.time)
            assert sim.step().charger_current < 0.0
        assert sim.events == [(times[k], "saturation", "cell 1 hit a reservoir limit")
                              for k in (1, 4)]

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.floats(2.5, 4.2), st.floats(3.4, 4.3), st.lists(st.floats(0.05, 0.95),
                                                             min_size=4, max_size=6))
    @example(cv_cell_voltage=3.0, limit=3.6, socs=[0.6] * 4)  # both latch at the first step
    def test_guard_and_early_stop_are_never_recorded_for_one_step(self, cv_cell_voltage,
                                                                   limit, socs):
        cells = [(CellParams(), CellState(soc=s)) for s in socs]
        charger = ChargerConfig(cv_cell_voltage=cv_cell_voltage, cell_voltage_limit=limit)
        sim = Simulation(make_stock_scenario("none", cells=cells, charger=charger,
                                             max_time=5.0))
        list(sim.stream())
        guard = {t for t, kind, _ in sim.events if kind == "charger_guard"}
        stop = {t for t, kind, _ in sim.events if kind == "charger"}
        assert not guard & stop

    def test_charger_guard_ends_run_immediately(self):
        cfg = make_stock_scenario(
            "none",
            cells=[(CellParams(), CellState(soc=0.6)) for _ in range(4)],
            charger=ChargerConfig(cell_voltage_limit=3.6),
            max_time=100.0,
        )
        sim = Simulation(cfg)
        trace = list(sim.stream())
        assert trace == []
        assert sim.events and sim.events[0][1] == "charger_guard"
        assert sim.time == 0.0

    def test_six_cell_stack_draws_charger_current(self):
        cells = [(CellParams(), CellState(soc=0.6 - 0.04 * j)) for j in range(6)]
        sim = Simulation(make_stock_scenario(cells=cells, max_time=20.0))
        trace = list(sim.stream())
        assert trace and all(rec.charger_current == -0.4 for rec in trace)
        assert sim.events == []

    def test_charger_done_before_charging_is_an_event(self):
        # the stock stack rests near 14.4 V, above a 4 x 3.0 V setpoint
        sim = Simulation(make_stock_scenario("none", charger=ChargerConfig(cv_cell_voltage=3.0)))
        trace = list(sim.stream())
        assert trace == []
        assert [ev[:2] for ev in sim.events] == [(0.0, "charger")]

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.lists(st.floats(0.05, 0.75), min_size=4, max_size=12))
    def test_generated_stacks_below_the_setpoint_draw_cc_current(self, socs):
        # each cell rests under 3.77 V, so it sits under 3.8 V at the CC current
        cells = [(CellParams(), CellState(soc=s)) for s in socs]
        rec = Simulation(make_stock_scenario(cells=cells, max_time=1.0)).step()
        assert rec.charger_current == ChargerConfig().cc_current

    def test_negative_measurement_is_a_fault_not_a_decision(self):
        # 4 V of noise on ~3.7 V cells reads negative within a few steps
        sim = Simulation(make_stock_scenario(noise_std=4.0, seed=3, max_time=60.0))
        while not any(ev[1] == "measurement_fault" for ev in sim.events):
            rec = sim.step()
            assert rec is not None, "no non-positive reading in the run"
        assert rec.candidate_bits == INACTIVE_BITS
        assert min(rec.voltage) <= 0.0
        list(sim.stream())

    def test_measurement_fault_is_recorded_once_per_entry(self):
        # readings stay non-positive for runs of steps: one event when each run begins
        sim = Simulation(make_stock_scenario(noise_std=4.0, seed=3, max_time=600.0))
        trace = list(sim.stream())
        entries, held, faulty_readings = [], set(), 0
        for rec in trace[:-1]:  # the final row is measured, never decided on
            now = {j for j, v in enumerate(rec.voltage) if not v > 0.0}
            entries += [(rec.time, j) for j in sorted(now - held)]
            held, faulty_readings = now, faulty_readings + len(now)
        assert faulty_readings > len(entries) > 0
        faults = [ev for ev in sim.events if ev[1] == "measurement_fault"]
        assert [(t, int(detail.split()[1])) for t, _, detail in faults] == entries

    def test_active_step_applies_the_charge_table_row(self):
        # noiseless, so the recorded voltages are the true ones the cycle ran at
        sim = Simulation(make_stock_scenario(max_time=20.0))
        while True:  # a step late enough that t + t3 rounds
            before = list(sim.identification.charges)
            rec = sim.step()
            if rec.time > 1.0 and rec.candidate_bits != INACTIVE_BITS:
                break
        ranking = sorted(range(4), key=lambda j: (-rec.voltage[j], j))
        plan = SwitchPlan(*ranking[:3], int(rec.candidate_bits, 2))
        deltas, t3 = cycle_charge_deltas(sim.cfg.converter, rec.voltage, plan)
        dt = (rec.time + t3) - rec.time
        assert rec.current == tuple(rec.charger_current - d / dt for d in deltas)
        assert sim.time - rec.time == dt
        assert sim.identification.charges == [q + i * dt for q, i in zip(before, rec.current)]

    @pytest.mark.parametrize("policy,noise_std,computed", [
        ("ampc", 0.0, False), ("ampc", 0.005, True), ("greedy", 0.0, True)])
    def test_applied_cycle_is_computed_only_where_none_was_scored_on_true_voltages(
            self, monkeypatch, policy, noise_std, computed):
        # a noiseless ampc step runs the cycle its decision scored; a noisy one scored it on
        # the readings, and greedy scores nothing, so each active step computes it anew
        real_cycle, real_measure = harness.cycle_charge_deltas, Simulation._measure
        calls, true_voltages = [], []
        monkeypatch.setattr(harness, "cycle_charge_deltas",
                            lambda conv, v, plan: calls.append(v) or real_cycle(conv, v, plan))

        def measure(self):
            measured = real_measure(self)
            true_voltages.append(measured[0])
            return measured

        monkeypatch.setattr(Simulation, "_measure", measure)
        sim = Simulation(make_stock_scenario(policy, noise_std=noise_std, seed=3, max_time=60.0))
        records = list(iter(sim.step, None))
        active = [v for rec, v in zip(records, true_voltages) if rec.candidate_bits != INACTIVE_BITS]
        assert len(active) > 100
        if computed:
            assert len(calls) == len(active)
            assert all(got is v for got, v in zip(calls, active))
        else:
            assert calls == []

    def test_greedy_ranks_once_per_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "cellbal.controller.rank_cells", lambda v: calls.append(1) or rank_cells(v)
        )
        sim = Simulation(make_stock_scenario("greedy", max_time=5.0))
        steps = 0
        while sim.step() is not None:
            steps += 1
        assert steps > 0 and len(calls) == steps

    def test_record_every_decimates(self):
        full, _ = run_scenario(make_stock_scenario(max_time=20.0))
        thin, _ = run_scenario(make_stock_scenario(max_time=20.0, record_every=5))
        kept = [r for r in full if r.cycle % 5 == 0]
        assert [r.cycle for r in thin[:-1]] == [r.cycle for r in kept[: len(thin) - 1]]
        assert thin[-1].time == full[-1].time  # final snapshot always lands

    def test_summary_does_not_depend_on_record_every(self):
        # the figures of merit fold every step, not only the recorded rows
        summaries = [
            run_scenario(make_stock_scenario(max_time=60.0, record_every=n))[1]
            for n in (1, 10, 100)
        ]
        assert summaries[0] == summaries[1] == summaries[2]


class TestWholeRuns:
    """Invariants of whole generated runs on noiseless 4- to 8-cell stacks with no leak,
    whose SOCs stay away from the reservoir limits."""

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(st.integers(4, 8).flatmap(lambda n: st.lists(st.tuples(
        st.floats(0.2, 0.75), st.floats(1500.0, 4000.0), st.floats(0.05, 0.1)),
        min_size=n, max_size=n)), st.sampled_from(POLICIES))
    def test_identified_charge_is_the_soc_change(self, cells, policy):
        stack = [(CellParams(capacity_coulombs=c, series_resistance=r),
                  CellState(soc=s)) for s, c, r in cells]
        sim = Simulation(make_stock_scenario(policy, cells=stack, max_time=10.0))
        list(sim.stream())
        assert sim.cycle > 0 and not any(kind == "saturation" for _, kind, _ in sim.events)
        # each step rounds the SOC and the charge by under 2**-50 of the capacity
        for (s0, c, _), q, s in zip(cells, sim.identification.charges, sim.soc):
            assert abs(q - c * (s0 - s)) <= sim.cycle * c * 2.0**-50

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(st.integers(4, 8), st.floats(0.2, 0.75), st.floats(1500.0, 4000.0),
           st.sampled_from(POLICIES), st.sampled_from(["cc_cv", "idle"]))
    def test_identical_cells_at_one_soc_never_balance(self, n, soc, capacity, policy, mode):
        cell = (CellParams(capacity_coulombs=capacity), CellState(soc=soc))
        sim = Simulation(make_stock_scenario(policy, cells=[cell] * n, max_time=30.0,
                                             charger=ChargerConfig(mode=mode)))
        trace = list(sim.stream())
        assert trace and all(rec.candidate_bits == INACTIVE_BITS for rec in trace)
        assert all(i == rec.charger_current for rec in trace for i in rec.current)
        assert sim.totals.summary().converter_coulombs == 0.0

    @settings(derandomize=True, max_examples=16, deadline=None, database=None)
    @given(st.integers(4, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(30, 69), min_size=n, max_size=n, unique=True),
        st.lists(st.sampled_from([2600.0, 2880.0, 3100.0]), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.06, 0.07, 0.08]), min_size=n, max_size=n),
        st.permutations(range(n)))), st.sampled_from(["ampc", "greedy"]))
    def test_listing_the_cells_in_another_order_permutes_the_run(self, stack, policy):
        # Equivariant by construction only without noise, whose draws are taken in cell
        # order, and at distinct SOCs: rank_cells breaks an exact voltage tie by index.
        # Sums taken in another order round differently.  Voltages and SOCs then agree
        # to a few ulps (8.9e-16 V seen), step times to 3e-14 s and currents to 8e-13 A;
        # the estimator carries that rounding forward, most under greedy, so θ agree to
        # 2.3e-10 in 30 s runs and drift to 7.5e-6 by 120 s (seen).
        socs, capacities, resistances, order = stack
        cells = [(CellParams(capacity_coulombs=c, series_resistance=r),
                  CellState(soc=k / 100)) for k, c, r in zip(socs, capacities, resistances)]
        (trace, summary), (permuted, permuted_summary) = (
            run_scenario(make_stock_scenario(policy, cells=listed, max_time=20.0))
            for listed in (cells, [cells[j] for j in order]))

        def columns(rec, listed):  # (soc, voltage, current, *theta) of each cell listed
            return [(rec.soc[j], rec.voltage[j], rec.current[j], *rec.theta[j]) for j in listed]

        # (rel, abs) tolerance of each column
        tolerances = [(0.0, 1e-14), (0.0, 1e-14), (0.0, 1e-11)] + [(1e-6, 1e-6)] * 3
        assert len(permuted) == len(trace) > 1
        for rec, per in zip(trace, permuted):
            assert per.candidate_bits == rec.candidate_bits
            assert abs(per.time - rec.time) <= 1e-12
            for got, want in zip(columns(per, range(len(order))), columns(rec, order)):
                assert all(math.isclose(g, w, rel_tol=r, abs_tol=a)
                           for g, w, (r, a) in zip(got, want, tolerances)), (rec.time, got, want)
        assert dataclasses.astuple(permuted_summary) == pytest.approx(
            dataclasses.astuple(summary), rel=1e-12, abs=1e-12)


class TestSummarize:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_single_row(self):
        rec = make_record(3.0, (4.0, 3.99, 3.995, 3.992))
        s = summarize([rec])
        assert s.completion_time == 3.0  # gap 8 mV, closed from the start
        assert s.time_avg_voltage_std == rec.voltage_std
        assert s.converter_coulombs == 0.0

    def test_completion_at_first_closed_row(self):
        rows = [
            make_record(0.0, (4.0, 3.97, 3.98, 3.99)),    # gap 30 mV
            make_record(10.0, (4.0, 3.99, 3.995, 3.992)),  # gap 10 mV
            make_record(20.0, (4.0, 3.99, 3.995, 3.992)),
        ]
        assert summarize(rows).completion_time == 10.0

    def test_reopened_gap_never_completes(self):
        rows = [
            make_record(0.0, (4.0, 3.97, 3.98, 3.99)),
            make_record(10.0, (4.0, 3.99, 3.995, 3.992)),
            make_record(20.0, (4.0, 3.97, 3.98, 3.99)),
        ]
        assert summarize(rows).completion_time is None

    def test_always_closed_completes_at_start(self):
        rows = [
            make_record(5.0, (4.0, 3.99, 3.995, 3.992)),
            make_record(15.0, (4.0, 3.99, 3.995, 3.992)),
        ]
        assert summarize(rows).completion_time == 5.0

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.lists(st.floats(3.0, 4.2), min_size=4, max_size=8, unique=True))
    def test_gap_equal_to_the_threshold_is_closed(self, voltages):
        """The trigger and completion_time read one rule: a gap that equals the threshold
        exactly is closed for both, and one just above it is open for both."""
        gap = max(voltages) - min(voltages)
        zeros = (0.0,) * len(voltages)
        rows = [make_record(t, voltages, current=zeros) for t in (0.0, 1.0)]
        assert not should_balance(voltages, ControllerConfig(gap))
        assert summarize(rows, gap).completion_time == 0.0
        below = math.nextafter(gap, 0.0)
        assert should_balance(voltages, ControllerConfig(below))
        assert summarize(rows, below).completion_time is None

    @pytest.mark.parametrize("threshold", [0.0, -0.02, math.inf, math.nan])
    def test_threshold_is_refused_as_the_controller_refuses_it(self, threshold):
        rows = [make_record(0.0, (4.0, 3.99, 3.995, 3.992))]
        with pytest.raises(ValueError, match="gap_threshold"):
            ControllerConfig(threshold)
        with pytest.raises(ValueError, match="gap_threshold"):
            summarize(rows, threshold)

    @pytest.mark.parametrize("policy", ["ampc", "greedy"])
    def test_run_completes_after_its_last_balancing_step(self, policy):
        """In a noiseless run a record's gap is open exactly when its step balanced, so the
        gap closes for good at the first record after the last balancing one."""
        socs = (0.52, 0.50, 0.49, 0.48)
        cfg = ScenarioConfig(cells=[(CellParams(), CellState(s)) for s in socs],
                             policy=policy, max_time=600.0)
        trace, summary = run_scenario(cfg)
        last = max(k for k, rec in enumerate(trace) if rec.candidate_bits != INACTIVE_BITS)
        assert last + 1 < len(trace)
        assert summary.completion_time == trace[last + 1].time

    def test_time_weighted_average_std(self):
        rows = [
            make_record(0.0, (4.0,) * 4, std_val=2.0),
            make_record(1.0, (4.0,) * 4, std_val=1.0),
            make_record(3.0, (4.0,) * 4, std_val=9.9),  # last row weightless
        ]
        assert summarize(rows).time_avg_voltage_std == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_gap_uniformity_hand_value(self):
        v = (4.0, 3.9, 3.85, 3.8)
        rows = [make_record(0.0, v), make_record(2.0, v)]
        m = 0.2 / 3.0
        expect = math.sqrt(((0.1 - m) ** 2 + 2.0 * (0.05 - m) ** 2) / 3.0)
        assert summarize(rows).gap_uniformity == pytest.approx(expect, rel=1e-14)

    def test_converter_coulombs_counts_positive_drain_only(self):
        rows = [
            make_record(
                0.0, (4.0,) * 4, current=(0.5, -0.1, -0.4, -0.4), charger=-0.4
            ),
            make_record(1.0, (4.0,) * 4),
        ]
        # drawn = current - charger = (0.9, 0.3, 0.0, 0.0); only positives count
        assert summarize(rows).converter_coulombs == pytest.approx(1.2, rel=1e-15)


def _bits(state: CellState) -> tuple[str, str, str]:
    return state.soc.hex(), state.v1.hex(), state.v2.hex()


class TestPlantStep:
    """The harness holds the plant in flat floats; every step advances each cell by
    exactly the bits ``step_exact`` gives from the state before it, with the record's
    current over the time the clock moved."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(4, 6).flatmap(leaky_cells), st.sampled_from(POLICIES),
           st.sampled_from(["rls", "plant"]), st.sampled_from(["cc_cv", "idle"]))
    def test_every_step_is_the_exact_hold_of_its_record(self, cells, policy, source, mode):
        charger = ChargerConfig(mode=mode, cc_current=-1.0, cv_cell_voltage=5.9,
                                cell_voltage_limit=6.0)
        sim = Simulation(make_stock_scenario(
            policy, cells=cells, charger=charger, initial_covariance=100.0, max_time=3.0,
            controller=ControllerConfig(prediction_source=source)))
        before = tuple(map(CellState, sim.soc, sim.v1, sim.v2))
        while (rec := sim.step()) is not None:
            after, dt = tuple(map(CellState, sim.soc, sim.v1, sim.v2)), sim.time - rec.time
            assert rec.soc == tuple(s.soc for s in before)
            for p, s, i, got in zip(sim.params, before, rec.current, after):
                assert _bits(got) == _bits(step_exact(p, s, i, dt)[0])
            before = after
