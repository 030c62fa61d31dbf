"""Closed-loop scenario machinery: charger phases, safety events, trace
bookkeeping and summary arithmetic."""

from __future__ import annotations

import math

import pytest

from cellbal import (
    CellState,
    ChargerConfig,
    ChargerState,
    ConverterParams,
    ScenarioConfig,
    Simulation,
    SwitchPlan,
    TraceRecord,
    cc_cv_current,
    cycle_charge_deltas,
    greedy_baseline_plan,
    rank_cells,
    representative_cell_params,
    run_scenario,
    std,
    summarize,
)
from cellbal.harness import INACTIVE_BITS
from conftest import make_stock_scenario

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
        plan = greedy_baseline_plan((3.9, 4.1, 4.0, 4.05))
        assert plan.target_cell == 1
        assert (plan.second_cell, plan.third_cell) == (3, 2)
        assert plan.schedule == 0


class TestScenarioConfig:
    def test_too_few_cells(self):
        cells = [(representative_cell_params(), CellState(soc=0.5))] * 3
        with pytest.raises(ValueError, match="at least 4"):
            ScenarioConfig(cells=cells, converter=ConverterParams(magnetizing_inductance=0.01))

    def test_converter_size_mismatch(self):
        cells = [(representative_cell_params(), CellState(soc=0.5))] * 5
        with pytest.raises(ValueError, match="sized for"):
            ScenarioConfig(cells=cells, converter=ConverterParams(magnetizing_inductance=0.01))

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

    @pytest.mark.parametrize("v1", [1e200, -1e200, 3.7, -4.8])
    def test_starting_rest_voltage_must_lie_in_band(self, v1):
        # stock cells rest at 3.63 V at soc 0.6 and allow up to 2 * 4.2 V
        cells = [(representative_cell_params(), CellState(soc=0.6, v1=v1))]
        cells += [(representative_cell_params(), CellState(soc=0.6)) for _ in range(3)]
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
            ok_cell = representative_cell_params(**{field: ok})
            ScenarioConfig(cells=[(ok_cell, CellState(soc=0.5))] * 4, converter=conv)
            bad_cell = representative_cell_params(**{field: bad})
            cells = [(representative_cell_params(), CellState(soc=0.5))] * 3
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
            (representative_cell_params(), CellState(soc=0.999)) for _ in range(4)
        ]
        cfg = make_stock_scenario(
            "none",
            cells=cells,
            charger=ChargerConfig(cv_voltage=16.4),
            max_time=12.0,
        )
        sim = Simulation(cfg)
        sim.run()
        kinds = {ev[1] for ev in sim.events}
        assert "saturation" in kinds
        assert all(s.soc <= 1.0 for s in sim.states)

    def test_safety_band_event_cuts_external_current(self):
        cells = [(representative_cell_params(v_max=3.58), CellState(soc=0.6))]
        cells += [(representative_cell_params(), CellState(soc=0.6)) for _ in range(3)]
        cfg = make_stock_scenario("none", cells=cells, max_time=5.0)
        sim = Simulation(cfg)
        sim.run()
        band = [ev for ev in sim.events if ev[1] == "safety_band"]
        assert len(band) == 1  # entry only, no re-report while it persists
        assert "cell 0" in band[0][2]
        assert all(rec.charger_current == 0.0 for rec in sim.trace)

    def test_charger_guard_ends_run_immediately(self):
        cfg = make_stock_scenario(
            "none",
            cells=[(representative_cell_params(), CellState(soc=0.6)) for _ in range(4)],
            charger=ChargerConfig(cell_voltage_limit=3.6),
            max_time=100.0,
        )
        sim = Simulation(cfg)
        sim.run()
        assert sim.trace == []
        assert sim.events and sim.events[0][1] == "charger_guard"
        assert sim.time == 0.0

    def test_negative_measurement_is_a_fault_not_a_decision(self):
        # 4 V of noise on ~3.7 V cells reads negative within a few steps
        sim = Simulation(make_stock_scenario(noise_std=4.0, seed=3, max_time=60.0))
        while not any(ev[1] == "measurement_fault" for ev in sim.events):
            rec = sim.step()
            assert rec is not None, "no non-positive reading in the run"
        assert rec.candidate_bits == INACTIVE_BITS
        assert min(rec.voltage) <= 0.0
        sim.run()

    def test_active_step_applies_the_charge_table_row(self):
        # noiseless, so the recorded voltages are the true ones the cycle ran at
        sim = Simulation(make_stock_scenario(max_time=20.0))
        while True:  # a step late enough that t + t3 rounds
            before = list(sim.accumulators)
            rec = sim.step()
            if rec.time > 1.0 and rec.candidate_bits != INACTIVE_BITS:
                break
        ranking = sorted(range(4), key=lambda j: (-rec.voltage[j], j))
        plan = SwitchPlan(*ranking[:3], int(rec.candidate_bits, 2))
        deltas, t3 = cycle_charge_deltas(sim.cfg.converter, rec.voltage, plan)
        dt = (rec.time + t3) - rec.time
        assert rec.current == tuple(rec.charger_current - d / dt for d in deltas)
        assert sim.time - rec.time == dt
        assert sim.accumulators == [q + i * dt for q, i in zip(before, rec.current)]

    def test_greedy_ranks_once_per_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "cellbal.harness.rank_cells", lambda v: calls.append(1) or rank_cells(v)
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
