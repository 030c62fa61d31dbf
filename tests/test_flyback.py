"""Flyback cycle model: hand examples, closed forms vs dense integration,
and the physics invariants every random cycle has to satisfy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cellbal import ConverterParams, SwitchPlan, compute_t_on, cycle_charge_deltas
from cellbal.flyback import (
    SCHEDULES,
    CycleTiming,
    PiecewiseLinear,
    charge_table,
    simulate_cycle,
)
from oracles import fine_cycle_deltas, integrate_pwl_between

SMALL = ConverterParams(magnetizing_inductance=1e-4, peak_current=2.0)


def random_cycles(count: int, seed: int):
    """Random (voltages, plan) pairs over the full switch-flag lattice."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        voltages = tuple(rng.uniform(3.0, 4.2, size=4))
        cells = rng.permutation(4)[:3]
        # c11 c21 c12 c22 = bits 0..3 of k, i.e. schedule k % 16 bit-reversed
        schedule = int(format(k % 16, "04b")[::-1], 2)
        plan = SwitchPlan(int(cells[0]), int(cells[1]), int(cells[2]), schedule)
        out.append((voltages, plan))
    return out


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(magnetizing_inductance=0.0),
            dict(magnetizing_inductance=-1e-4),
            dict(magnetizing_inductance=math.inf),
            dict(magnetizing_inductance=1e-4, turns_primary=0),
            dict(magnetizing_inductance=1e-4, turns_secondary=0),
            dict(magnetizing_inductance=1e-4, peak_current=-1.0),
            dict(magnetizing_inductance=1e-4, n_cells=1),
        ],
    )
    def test_converter_params_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ConverterParams(**kwargs)

    def test_zero_peak_is_legal(self):
        assert ConverterParams(magnetizing_inductance=1e-4, peak_current=0.0).peak_current == 0.0

    def test_plan_cells_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            SwitchPlan(0, 0, 2)

    def test_plan_cells_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            SwitchPlan(0, -1, 2)

    @pytest.mark.parametrize("schedule", [-1, 16])
    def test_plan_schedule_must_index_schedules(self, schedule):
        with pytest.raises(ValueError, match="schedule"):
            SwitchPlan(0, 1, 2, schedule)

    def test_timing_ordering(self):
        with pytest.raises(ValueError, match="ordered"):
            CycleTiming(1.0, 0.0, 0.6, 0.5, 2.0)

    def test_timing_equal_windows(self):
        with pytest.raises(ValueError, match="equal"):
            CycleTiming(1.0, 0.0, 0.4, 1.0, 2.0)

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 1.0), (0.0,))
        with pytest.raises(ValueError):
            PiecewiseLinear((), ())
        with pytest.raises(ValueError):
            PiecewiseLinear((1.0, 0.5), (0.0, 0.0))


class TestPiecewiseLinear:
    WAVE = PiecewiseLinear((0.0, 1.0, 1.0, 3.0), (0.0, 2.0, 1.0, 0.0))

    def test_interpolation(self):
        assert self.WAVE.value(0.5) == 1.0
        assert self.WAVE.value(2.0) == 0.5

    def test_jump_sides(self):
        assert self.WAVE.value(1.0, side="left") == 2.0
        assert self.WAVE.value(1.0, side="right") == 1.0
        assert self.WAVE.value(1.0) == 1.0

    def test_clamps_outside_span(self):
        assert self.WAVE.value(-5.0) == 0.0
        assert self.WAVE.value(9.0) == 0.0

    def test_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            self.WAVE.value(1.0, side="up")

    def test_charge(self):
        # triangle of area 1 plus triangle of area 1
        assert self.WAVE.charge() == pytest.approx(2.0, rel=1e-15)


class TestPointwiseHelpers:
    def test_t_on_hand_value(self):
        assert compute_t_on(SMALL, 4.0) == pytest.approx(5e-5, rel=1e-15)

    def test_t_on_zero_peak(self):
        conv = ConverterParams(magnetizing_inductance=1e-4, peak_current=0.0)
        assert compute_t_on(conv, 3.7) == 0.0

    def test_t_on_rejects_zero_voltage(self):
        with pytest.raises(ValueError, match="positive"):
            compute_t_on(SMALL, 0.0)


class TestSimulateCycle:
    def test_target_only_hand_cycle(self):
        # all cells at 4 V, stack 16 V: t_on = 50 us, peak 2 A, the winding
        # freewheels for another 50 us, 12.5 uC land on every cell
        res = simulate_cycle(SMALL, (4.0, 4.0, 4.0, 4.0), SwitchPlan(0, 1, 2))
        assert res.timing.t_on == pytest.approx(5e-5, rel=1e-15)
        assert res.timing.t1 == pytest.approx(2.5e-5, rel=1e-15)
        assert res.timing.t2 == pytest.approx(5e-5, rel=1e-15)
        assert res.timing.t3 == pytest.approx(1e-4, rel=1e-15)
        assert res.winding_currents[0].value(5e-5, side="left") == pytest.approx(2.0, rel=1e-12)
        assert res.secondary_charge == pytest.approx(1.25e-5, rel=1e-12)
        assert res.conducted_charge[0] == pytest.approx(5e-5, rel=1e-12)
        assert res.charge_delta[0] == pytest.approx(-3.75e-5, rel=1e-12)
        for j in (1, 2, 3):
            assert res.conducted_charge[j] == 0.0
            assert res.charge_delta[j] == pytest.approx(1.25e-5, rel=1e-12)

    def test_zero_peak_degenerate_cycle(self):
        conv = ConverterParams(magnetizing_inductance=1e-4, peak_current=0.0)
        res = simulate_cycle(conv, (4.0, 4.0, 4.0, 4.0), SwitchPlan(0, 1, 2))
        assert res.charge_delta == (0.0,) * 4
        assert res.secondary_charge == 0.0
        assert res.timing.t3 == 0.0

    def test_symmetry_between_equal_helpers(self):
        # equal voltages and mirrored flags: helpers share one waveform shape
        res = simulate_cycle(SMALL, (3.9, 3.7, 3.7, 3.6), SwitchPlan(0, 1, 2, 0b1100))
        assert res.charge_delta[1] == pytest.approx(res.charge_delta[2], rel=1e-12)
        assert res.conducted_charge[1] == pytest.approx(res.conducted_charge[2], rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="expected 4"):
            simulate_cycle(SMALL, (4.0, 4.0, 4.0), SwitchPlan(0, 1, 2))
        with pytest.raises(ValueError, match="positive"):
            simulate_cycle(SMALL, (4.0, 0.0, 4.0, 4.0), SwitchPlan(0, 1, 2))
        with pytest.raises(ValueError, match="out of range"):
            simulate_cycle(SMALL, (4.0, 4.0, 4.0, 4.0), SwitchPlan(0, 1, 5))

    def test_secondary_blocked_during_stage_one(self):
        res = simulate_cycle(SMALL, (4.1, 3.9, 3.8, 3.7), SwitchPlan(0, 1, 2, 0b1000))
        assert res.secondary.value(1e-5) == 0.0
        # helper released at t1 feeds the stack immediately after
        assert res.secondary.value(res.timing.t1, side="right") > 0.0


class TestCycleInvariants:
    CYCLES = random_cycles(160, seed=20260822)

    @staticmethod
    def _conducting_sets(plan: SwitchPlan):
        c11, c21, c12, c22 = SCHEDULES[plan.schedule]
        cond1 = {plan.target_cell}
        cond2 = {plan.target_cell}
        if c11:
            cond1.add(plan.second_cell)
        if c21:
            cond1.add(plan.third_cell)
        if c12:
            cond2.add(plan.second_cell)
        if c22:
            cond2.add(plan.third_cell)
        return cond1, cond2

    def test_flux_linkage_continuous_at_switchovers(self):
        # physical ampere-turns N1*(conducting primaries) + N2*secondary
        # cannot jump; a freewheeling winding's magnetizing current lives in
        # the secondary, so only closed switches count on the primary side
        conv = SMALL
        n1, n2 = conv.turns_primary, conv.turns_secondary
        scale = n1 * conv.peak_current
        for voltages, plan in self.CYCLES:
            res = simulate_cycle(conv, voltages, plan)
            w, sec, tm = res.winding_currents, res.secondary, res.timing
            cond1, cond2 = self._conducting_sets(plan)
            for t, on_before, on_after in ((tm.t1, cond1, cond2), (tm.t2, cond2, set())):
                before = n2 * sec.value(t, side="left") + n1 * sum(
                    w[j].value(t, side="left") for j in on_before
                )
                after = n2 * sec.value(t, side="right") + n1 * sum(
                    w[j].value(t, side="right") for j in on_after
                )
                assert abs(after - before) <= 1e-9 * scale, (plan, t)

    def test_all_currents_end_at_zero(self):
        for voltages, plan in self.CYCLES:
            res = simulate_cycle(SMALL, voltages, plan)
            t3 = res.timing.t3
            assert res.secondary.value(t3) == 0.0
            for wj in res.winding_currents:
                assert wj.value(t3) == 0.0

    def test_secondary_charge_matches_windings(self):
        # every primary coulomb not drawn through a switch leaves via the
        # secondary, scaled by the turns ratio
        ratio = SMALL.turns_primary / SMALL.turns_secondary
        for voltages, plan in self.CYCLES:
            res = simulate_cycle(SMALL, voltages, plan)
            total = sum(w.charge() for w in res.winding_currents)
            expect = ratio * (total - sum(res.conducted_charge))
            assert res.secondary.charge() == pytest.approx(expect, rel=1e-12)
            assert res.secondary_charge == pytest.approx(res.secondary.charge(), rel=1e-12)

    def test_stage_three_energy_balance(self):
        # magnetizing energy at t2 is delivered to the stack afterwards
        for voltages, plan in self.CYCLES:
            res = simulate_cycle(SMALL, voltages, plan)
            t2, t3 = res.timing.t2, res.timing.t3
            stored = sum(
                0.5 * SMALL.magnetizing_inductance * w.value(t2, side="right") ** 2
                for w in res.winding_currents
            )
            delivered = sum(voltages) * integrate_pwl_between(
                res.secondary.times, res.secondary.amps, t2, t3
            )
            assert delivered == pytest.approx(stored, rel=1e-9)

    def test_stack_charge_bookkeeping(self):
        for voltages, plan in self.CYCLES:
            res = simulate_cycle(SMALL, voltages, plan)
            total = sum(res.charge_delta)
            expect = SMALL.n_cells * res.secondary_charge - sum(res.conducted_charge)
            assert total == pytest.approx(expect, rel=1e-12, abs=1e-22)

    def test_deltas_match_dense_integration(self):
        for voltages, plan in self.CYCLES[:60]:
            res = simulate_cycle(SMALL, voltages, plan)
            fine = fine_cycle_deltas(SMALL, voltages, plan)
            scale = max(abs(d) for d in res.charge_delta)
            assert np.max(np.abs(np.array(res.charge_delta) - fine)) <= 1e-6 * scale, plan

    def test_fast_path_twin_agrees(self):
        # cycle_charge_deltas re-derives the same closed forms without the
        # waveforms; results may differ by last-bit rounding only
        for voltages, plan in self.CYCLES:
            res = simulate_cycle(SMALL, voltages, plan)
            deltas, t3 = cycle_charge_deltas(SMALL, voltages, plan)
            assert t3 == res.timing.t3
            for a, b in zip(deltas, res.charge_delta):
                assert a == pytest.approx(b, rel=1e-12)

    def test_charge_table_rows_match_full_cycles(self):
        # row k of the table is schedule k's cycle; random voltages, cell
        # rankings and converters.  The wide voltage range puts helpers far
        # above the target, so their switch-off instants also set t3.
        # Tolerance is relative to the row's largest delta, since a cell's
        # net delta can nearly cancel.
        rng = np.random.default_rng(20261018)
        for trial in range(120):
            n = int(rng.integers(4, 7))
            conv = ConverterParams(
                magnetizing_inductance=float(10 ** rng.uniform(-5, -1)),
                turns_secondary=int(rng.integers(1, 6)),
                peak_current=float(rng.uniform(0.5, 6.0)),
                n_cells=n,
            )
            voltages = tuple(rng.uniform(0.5, 4.2, size=n))
            cells = tuple(int(c) for c in rng.permutation(n)[:3])
            deltas, t3 = charge_table(conv, voltages, cells)
            assert deltas.shape == (16, n) and t3.shape == (16,)
            for k in range(len(SCHEDULES)):
                res = simulate_cycle(conv, voltages, SwitchPlan(*cells, k))
                assert t3[k] == res.timing.t3, (trial, k)
                ref = np.array(res.charge_delta)
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(deltas[k] - ref)) <= 1e-12 * scale, (trial, k)

    def test_applied_row_is_the_table_row_bit_for_bit(self):
        # random converters (zero peak current included), voltages over six
        # decades, rankings and all 16 schedules: the row the simulation
        # applies is the table's row k, deltas and t3, with no tolerance
        rng = np.random.default_rng(20261019)
        for trial in range(400):
            n = int(rng.integers(4, 7))
            conv = ConverterParams(
                magnetizing_inductance=float(10 ** rng.uniform(-6, 0)),
                turns_primary=int(rng.integers(1, 4)),
                turns_secondary=int(rng.integers(1, 6)),
                peak_current=0.0 if trial % 20 == 0 else float(rng.uniform(0.1, 8.0)),
                n_cells=n,
            )
            voltages = (10 ** rng.uniform(-3, 3, size=n)).tolist()
            cells = tuple(int(c) for c in rng.permutation(n)[:3])
            table, t3 = charge_table(conv, voltages, cells)
            for k in range(len(SCHEDULES)):
                deltas, length = cycle_charge_deltas(conv, voltages, SwitchPlan(*cells, k))
                assert type(length) is float and all(type(d) is float for d in deltas)
                got = [x.hex() for x in (*deltas, length)]
                assert got == [x.hex() for x in (*table[k].tolist(), float(t3[k]))], (trial, k)

    def test_charge_table_degenerate_and_invalid(self):
        conv = ConverterParams(magnetizing_inductance=1e-4, peak_current=0.0)
        deltas, t3 = charge_table(conv, (4.0, 3.9, 3.8, 3.7), (0, 1, 2))
        assert not deltas.any() and not t3.any()
        with pytest.raises(ValueError, match="positive"):
            charge_table(SMALL, (4.0, -3.9, 3.8, 3.7), (0, 1, 2))
        with pytest.raises(ValueError, match="out of range"):
            charge_table(SMALL, (4.0, 3.9, 3.8, 3.7), (0, 1, 4))

    def test_conduction_only_where_switched(self):
        for voltages, plan in self.CYCLES:
            res = simulate_cycle(SMALL, voltages, plan)
            cond1, cond2 = self._conducting_sets(plan)
            for j in range(4):
                if j in cond1 | cond2:
                    assert res.conducted_charge[j] > 0.0
                else:
                    assert res.conducted_charge[j] == 0.0
