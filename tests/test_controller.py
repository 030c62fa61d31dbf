"""Schedule selection: the schedule index, ranking, trigger, predictions,
and a frozen regression vector for the first closed-loop decision."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

import cellbal.controller as controller
import cellbal.harness as harness
from cellbal import (
    CellParams,
    CellState,
    ControllerConfig,
    ConverterParams,
    cycle_charge_deltas,
    ocv,
    predict_stds,
    predict_stds_plant,
    rank_cells,
    rls,
    select_plan,
    should_balance,
    std,
)
from cellbal.flyback import SCHEDULES, SwitchPlan, distinct_cycles
from conftest import leaky_cells, make_stock_scenario, scoring_states
from oracles import (
    first_min,
    flat_plant,
    numpy_pick,
    numpy_predict_stds,
    numpy_predict_stds_plant,
    reference_pick,
    reference_stds,
    row_stds,
    step_exact_predict_stds_plant,
)

CONV = ConverterParams(magnetizing_inductance=0.01)
CFG = ControllerConfig()

# First active decision of the stock four-cell run, all 16 predicted spreads
# in schedule order.  Regenerate only for an intentional physics change.
FIRST_DECISION_STDS = (
    0.026749185799739793,
    0.028332892531455992,
    0.020523443950716702,
    0.021647999217792868,
    0.028332892531455992,
    0.04294574840794894,
    0.021647999217792868,
    0.03729331251188788,
    0.020523443950716702,
    0.021647999217792868,
    0.023362980310372462,
    0.021767492928083276,
    0.021647999217792868,
    0.03729331251188788,
    0.021767492928083276,
    0.03221321745677947,
)


def constant_estimators(values):
    return rls.init([(0.0, 0.0, float(v)) for v in values], 1e6, 1.0)


def random_scoring_states(count: int, seed: int):
    """Random active decision inputs: cell voltages, RLS models scattered
    around the warm start, charge accumulators, capacities, charger current."""
    rng = np.random.default_rng(seed)
    theta0 = rls.warm_start_theta(CellParams())
    states = []
    while len(states) < count:
        voltages = tuple(float(v) for v in rng.uniform(3.4, 4.15, size=4))
        if not should_balance(voltages, CFG):
            continue
        ests = rls.init(
            [theta0 + rng.normal(0.0, (0.05, 0.2, 0.05)) for _ in range(4)], 1e6, 0.995
        )
        accumulators = rng.uniform(-500.0, 500.0, size=4).tolist()
        capacities = rng.uniform(2000.0, 4000.0, size=4).tolist()
        i_ext = float(rng.choice([0.0, -0.4, rng.uniform(-1.0, 0.0)]))
        states.append((voltages, ests, accumulators, capacities, i_ext))
    return states


# window-swapped candidate groups: the same coulombs on the same timeline
WINDOW_SWAP_GROUPS = ((2, 8), (1, 4), (7, 13), (11, 14), (3, 6, 9, 12))


class TestEnumerate:
    def test_sixteen_candidates_lexicographic(self):
        assert len(SCHEDULES) == 16
        assert SCHEDULES[0] == (False, False, False, False)
        assert SCHEDULES[-1] == (True, True, True, True)
        assert list(SCHEDULES) == sorted(SCHEDULES)

    def test_bits_format(self, monkeypatch):
        # a run records the picked schedule's index as format(k, "04b")
        recorded = {}
        for k in range(16):
            scores = np.ones(16)
            scores[k] = 0.0
            monkeypatch.setattr(controller, "predict_stds", lambda *args: scores)
            rec = harness.Simulation(make_stock_scenario("ampc")).step()
            recorded[k] = rec.candidate_bits
        assert recorded[0] == "0000"
        assert recorded[15] == "1111"
        assert recorded[0b1010] == "1010"
        assert recorded == {k: format(k, "04b") for k in range(16)}

    def test_index_encoding(self):
        # schedule k's flags are k's bits MSB first: c11 c21 c12 c22
        for k, flags in enumerate(SCHEDULES):
            assert flags == tuple(b == "1" for b in format(k, "04b"))


class TestRankCells:
    def test_descending_voltage(self):
        assert rank_cells((3.9, 4.1, 4.0, 4.05)) == (1, 3, 2, 0)

    def test_ties_break_by_index(self):
        assert rank_cells((4.0, 4.0, 3.9, 3.9)) == (0, 1, 2, 3)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 3.7, 4.1])
                    | st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=12))
    def test_is_the_negated_voltage_then_index_order(self, voltages):
        # equal voltages, +0.0 and -0.0 among them, keep ascending index
        assert rank_cells(voltages) == tuple(
            sorted(range(len(voltages)), key=lambda j: (-voltages[j], j)))

    def test_too_few_cells(self):
        with pytest.raises(ValueError, match="at least 4"):
            rank_cells((4.0, 3.9, 3.8))


class TestShouldBalance:
    def test_strictly_above_threshold(self):
        assert should_balance((4.0, 4.03, 3.98, 4.0), CFG)
        assert not should_balance((4.0, 4.01, 3.995, 4.0), CFG)

    def test_exact_threshold_stays_off(self):
        assert not should_balance((4.0, 4.02, 4.0, 4.0), CFG)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            should_balance((), CFG)


class TestStd:
    def test_uniform_is_zero(self):
        assert std((4.0, 4.0, 4.0, 4.0)) == 0.0

    def test_two_point(self):
        assert std((3.9, 4.1)) == pytest.approx(0.1, rel=1e-15)

    def test_permutation_invariant(self):
        vals = (3.8, 4.1, 3.95, 4.02)
        assert std(vals) == std(tuple(reversed(vals)))

    def test_matches_population_convention(self):
        vals = (3.81, 4.07, 3.96, 4.0, 3.9)
        assert std(vals) == pytest.approx(float(np.std(vals)), rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            std(())


class TestLeftSum:
    """``left_sum`` is the plain left fold from 0.0, the bits builtin sum() gave before
    Python 3.12 compensated it, on every version."""

    def test_cancellation_is_not_compensated(self):
        values = [1e16, 1.0, -1e16]
        assert controller.left_sum(values) == 0.0
        assert math.fsum(values) == 1.0

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), max_size=40))
    def test_is_the_for_loop_bit_for_bit(self, values):
        total = 0.0
        for v in values:
            total += v
        assert controller.left_sum(values).hex() == total.hex()
        assert controller.left_sum(iter(values)).hex() == total.hex()


class TestScoreReductions:
    """The array oracle's written-out reductions are numpy's own steps."""

    @staticmethod
    def tables(seed: int):
        rng = np.random.default_rng(seed)
        for trial in range(300):
            table = rng.normal(3.7, 10.0 ** rng.uniform(-9, 3), size=(16, int(rng.integers(2, 9))))
            for value in (np.nan, np.inf, -np.inf)[: trial % 4]:
                table[rng.integers(16), rng.integers(table.shape[1])] = value
            yield table

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_row_stds_is_numpy_std_bit_for_bit(self):
        for table in self.tables(11):
            assert row_stds(table).tobytes() == table.std(axis=1).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_first_min_is_nanargmin(self):
        rng = np.random.default_rng(12)
        for table in self.tables(13):
            scores = np.round(table.std(axis=1), int(rng.integers(0, 4)))  # ties
            for k in rng.integers(0, 16, size=int(rng.integers(0, 4))):
                scores[k] = np.nan  # first and later positions
            if not np.isnan(scores).all():
                assert first_min(scores) == np.nanargmin(scores)
        for scores in ([np.nan, 2.0, 1.0, 1.0], [np.inf, np.nan, np.inf], [-np.inf, 0.0, -np.inf]):
            scores = np.array(scores)
            assert first_min(scores) == np.nanargmin(scores)


class TestControllerConfig:
    @pytest.mark.parametrize("threshold", [0.0, -0.1, float("inf")])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError):
            ControllerConfig(gap_threshold=threshold)

    def test_bad_source(self):
        with pytest.raises(ValueError, match="prediction_source"):
            ControllerConfig(prediction_source="oracle")


class TestPlanFromCandidate:
    def test_binds_top_three(self, monkeypatch):
        # the picked schedule binds ranks 0/1/2 as target/second/third cell
        voltages = (3.95, 3.8, 4.0, 3.85)
        scores = np.ones(16)
        scores[0b1001] = 0.0
        monkeypatch.setattr(controller, "predict_stds", lambda *args: scores)
        d = select_plan(
            voltages, constant_estimators([3.9] * 4), [0.0] * 4, 0.0, CONV, CFG,
            capacities=[2880.0] * 4,
        )
        assert d.ranking == (2, 0, 3, 1)
        assert d.plan == SwitchPlan(2, 0, 3, 0b1001)
        assert SCHEDULES[d.plan.schedule] == (True, False, False, True)


class TestPredictions:
    VOLTAGES = (4.0, 3.9, 3.85, 3.8)
    RANKING = (0, 1, 2, 3)
    CYCLES = distinct_cycles(CONV, VOLTAGES, RANKING[:3])

    def test_constant_models_ignore_the_cycle(self):
        # theta = (0, 0, c) predicts c regardless of current, so every
        # candidate's predicted spread is the spread of the constants
        consts = (3.95, 3.88, 3.86, 3.83)
        ests = constant_estimators(consts)
        expect = std(consts)
        got = predict_stds(ests, [0.0] * 4, [2880.0] * 4, 0.0, self.CYCLES, self.VOLTAGES)
        assert list(got) == [expect] * len(SCHEDULES)

    def test_equal_constants_predict_zero(self):
        ests = constant_estimators([3.9] * 4)
        got = predict_stds(ests, [0.0] * 4, [2880.0] * 4, -0.4, self.CYCLES, self.VOLTAGES)
        assert list(got) == [0.0] * len(SCHEDULES)

    def test_plant_predictions_never_worsen_single_outlier(self):
        # one cell 50 mV above three equal ones: every schedule drains the
        # outlier and charges the stack evenly, so no prediction can exceed
        # the do-nothing spread
        p = CellParams()
        v_base = ocv(p, 0.5)
        soc_hi = brentq(lambda s: ocv(p, s) - (v_base + 0.05), 0.5, 0.9, xtol=1e-15)
        plant = flat_plant([
            (p, CellState(soc=float(soc_hi))),
            (p, CellState(soc=0.5)),
            (p, CellState(soc=0.5)),
            (p, CellState(soc=0.5)),
        ])
        voltages = [v_base + 0.05, v_base, v_base, v_base]
        baseline = std(voltages)
        ranking = rank_cells(voltages)
        got = predict_stds_plant(plant, 0.0, distinct_cycles(CONV, voltages, ranking[:3]))
        for k, value in enumerate(got):
            assert value <= baseline, k


class TestSelectPlan:
    def test_below_threshold_is_inactive(self):
        voltages = (4.0, 4.005, 3.995, 4.0)
        d = select_plan(
            voltages, constant_estimators([4.0] * 4), [0.0] * 4, 0.0, CONV, CFG,
            capacities=[2880.0] * 4,
        )
        assert d.plan is None
        assert d.predicted_std == ()
        assert d.ranking == rank_cells(voltages)

    def test_all_tie_picks_all_off(self):
        d = select_plan(
            (4.0, 3.9, 3.85, 3.8), constant_estimators([3.9] * 4), [0.0] * 4,
            0.0, CONV, CFG, capacities=[2880.0] * 4,
        )
        assert d.plan.schedule == 0
        assert d.predicted_std == (0.0,) * 16

    def test_chosen_plan_attains_the_minimum(self):
        sim = harness.Simulation(make_stock_scenario("ampc"))
        sim.step()
        d = select_plan(
            [4.0, 3.92, 3.89, 3.86], sim.identification.estimator, sim.identification.charges,
            -0.4, sim.cfg.converter, sim.cfg.controller, capacities=sim.identification.capacities,
        )
        assert d.predicted_std[d.plan.schedule] == min(d.predicted_std)

    def test_none_never_balances(self):
        voltages = (4.0, 3.9, 3.85, 3.8)
        assert should_balance(voltages, CFG)
        d = select_plan(voltages, None, None, 0.0, CONV, CFG, policy="none")
        assert d == controller.Decision(None, (), rank_cells(voltages))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="'pid'"):
            select_plan((4.0, 4.0, 4.0, 4.0), None, None, 0.0, CONV, CFG, policy="pid")

    def test_missing_inputs_rejected(self):
        with pytest.raises(ValueError, match="plant"):
            select_plan(
                (4.0, 3.9, 3.85, 3.8), None, None, 0.0, CONV,
                ControllerConfig(prediction_source="plant"),
            )
        with pytest.raises(ValueError, match="estimators"):
            select_plan((4.0, 3.9, 3.85, 3.8), None, None, 0.0, CONV, CFG)

    def test_deterministic(self):
        ests = constant_estimators((3.95, 3.88, 3.86, 3.83))
        args = ((4.0, 3.9, 3.85, 3.8), ests, [1.0, -2.0, 0.5, 0.0], -0.4, CONV, CFG)
        d1 = select_plan(*args, capacities=[2880.0] * 4)
        d2 = select_plan(*args, capacities=[2880.0] * 4)
        assert d1 == d2

    def test_shift_invariance_of_trigger_and_ranking(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            v = rng.uniform(3.2, 4.0, size=4)
            for delta in (-0.1, 0.05, 0.2):
                shifted = tuple(v + delta)
                assert rank_cells(shifted) == rank_cells(tuple(v))
                assert should_balance(shifted, CFG) == should_balance(tuple(v), CFG)


class TestScoredCycle:
    """``Decision.cycle`` is the chosen plan's cycle as the plant runs it, so a noiseless
    run applies it without computing the cycle again."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(scoring_states(), st.data())
    def test_is_the_applied_cycle_bit_for_bit(self, state, data):
        # equal voltages and the idle converter (peak_current 0) included
        n = len(state["voltages"])
        voltages = data.draw(st.lists(st.sampled_from([3.6, 3.6, 4.1]) | st.floats(2.8, 4.4),
                                      min_size=n, max_size=n))
        source = data.draw(st.sampled_from(["rls", "plant"]))
        cfg = ControllerConfig(gap_threshold=1e-6, prediction_source=source)
        assume(should_balance(voltages, cfg))
        d = select_plan(voltages, state["estimator"], state["accumulators"], state["i_ext"],
                        state["conv"], cfg, capacities=state["capacities"], plant=state["plant"])
        deltas, length = cycle_charge_deltas(state["conv"], voltages, d.plan)
        assert [v.hex() for v in d.cycle[0]] == [v.hex() for v in deltas]
        assert d.cycle[1].hex() == length.hex()

    def test_is_none_unless_ampc_chose_the_plan(self):
        voltages = (4.0, 3.9, 3.85, 3.8)
        ests = constant_estimators([3.9] * 4)
        for policy in ("greedy", "none"):
            d = select_plan(voltages, ests, [0.0] * 4, 0.0, CONV, CFG, capacities=[2880.0] * 4,
                            policy=policy)
            assert d.cycle is None
        d = select_plan((4.0, 4.005, 3.995, 4.0), ests, [0.0] * 4, 0.0, CONV, CFG,
                        capacities=[2880.0] * 4)
        assert d.plan is None and d.cycle is None


class TestFirstDecisionGolden:
    def capture_first_active(self, monkeypatch, **overrides):
        captured = []
        real = harness.select_plan

        def spy(voltages, estimators, accumulators, external_current, conv, cfg, **kw):
            d = real(voltages, estimators, accumulators, external_current, conv, cfg, **kw)
            if d.plan is not None and not captured:
                captured.append(d)
            return d

        monkeypatch.setattr(harness, "select_plan", spy)
        sim = harness.Simulation(make_stock_scenario("ampc", **overrides))
        while not captured and sim.step() is not None:
            pass
        assert captured, "run never produced an active decision"
        return captured[0]

    def test_first_decision_vector(self, monkeypatch):
        d = self.capture_first_active(monkeypatch)
        assert d.ranking == (0, 1, 2, 3)
        assert d.plan.schedule == 0b0010
        np.testing.assert_allclose(d.predicted_std, FIRST_DECISION_STDS, rtol=1e-9)

    def test_window_swap_ties_are_exact(self, monkeypatch):
        # a helper conducting its single window in stage I instead of stage
        # II moves the same coulombs on the same timeline, so those
        # candidate pairs predict byte-identical spreads
        s = self.capture_first_active(monkeypatch).predicted_std
        assert s[2] == s[8]      # second cell: 0010 vs 1000
        assert s[1] == s[4]      # third cell: 0001 vs 0100
        assert s[7] == s[13]     # 0111 vs 1101
        assert s[11] == s[14]    # 1011 vs 1110
        assert s[3] == s[6] == s[9] == s[12]  # both helpers, one window each


class TestVectorizedScoring:
    """The 16 scores ``select_plan`` keeps agree with scoring each candidate
    on its own through the full waveform cycle and numpy's dot."""

    STATES = random_scoring_states(150, seed=20261018)

    def test_matches_per_candidate_reference(self):
        for voltages, ests, accumulators, capacities, i_ext in self.STATES:
            d = select_plan(voltages, ests, accumulators, i_ext, CONV, CFG, capacities=capacities)
            ref = reference_stds(CONV, voltages, ests, accumulators, capacities, i_ext, d.ranking)
            np.testing.assert_allclose(d.predicted_std, ref, rtol=1e-12, atol=0.0)
            k = d.plan.schedule
            assert k == reference_pick(d.predicted_std)
            # window-swapped twins tie exactly in the scorer but only to
            # rounding in the waveform cycle, so the reference scan needs a
            # margin to treat them as the tie they are
            assert k == reference_pick(ref, rel=1e-12)

    def test_window_swap_ties_are_exact_for_both_sources(self):
        p = CellParams()
        rng = np.random.default_rng(7)
        for voltages, ests, accumulators, capacities, i_ext in self.STATES[:40]:
            ranking = rank_cells(voltages)
            cycles = distinct_cycles(CONV, voltages, ranking[:3])
            plant = flat_plant(
                [(p, CellState(soc=float(s))) for s in rng.uniform(0.2, 0.9, size=4)])
            for stds in (
                predict_stds(ests, accumulators, capacities, i_ext, cycles, voltages),
                predict_stds_plant(plant, i_ext, cycles),
            ):
                for group in WINDOW_SWAP_GROUPS:
                    assert len({float(stds[k]) for k in group}) == 1, group

    def test_nan_theta_keeps_the_scan_pick(self):
        voltages, ests, accumulators, capacities, i_ext = self.STATES[0]
        theta = [list(row) for row in ests.theta]
        theta[1][0] = np.nan
        ests = dataclasses.replace(rls.init(ests.theta, 1e6, 0.995), theta=theta)
        d = select_plan(voltages, ests, accumulators, i_ext, CONV, CFG, capacities=capacities)
        ref = reference_stds(CONV, voltages, ests, accumulators, capacities, i_ext, d.ranking)
        assert np.isnan(d.predicted_std).all() and np.isnan(ref).all()
        assert d.plan.schedule == reference_pick(ref) == 0

    @pytest.mark.parametrize(
        "scores",
        [
            [np.nan, 0.2, 0.1] + [0.3] * 13,
            [0.3, np.nan, 0.1, np.nan, 0.1] + [0.2] * 11,
            [0.3] + [np.nan] * 15,
            [np.inf, np.nan, np.inf] + [np.nan] * 13,
            [0.4, 0.2, np.inf, np.nan] + [0.2] * 12,
        ],
    )
    def test_pick_is_the_strict_scan(self, monkeypatch, scores):
        monkeypatch.setattr(controller, "predict_stds", lambda *args: np.array(scores))
        d = select_plan(
            (4.0, 3.9, 3.85, 3.8), constant_estimators([3.9] * 4), [0.0] * 4, 0.0, CONV, CFG,
            capacities=[2880.0] * 4,
        )
        assert d.plan.schedule == reference_pick(scores)


class TestDistinctScoring:
    """Both scorers score the 9 distinct cycles in plain floats and agree with
    the array oracle, which scores all 16 in numpy: every score to rounding,
    each window-swapped group's tie exactly, and the pick."""

    @staticmethod
    def check(got, ref):
        assert len(got) == len(SCHEDULES) and all(type(v) is float for v in got)
        # a spread of equal predictions can round to 0 in one sum order and to an
        # ulp of the voltages in the other, so 1e-14 V is the floor of the tolerance
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        for group in WINDOW_SWAP_GROUPS:
            assert len({got[k] for k in group}) == 1, group
        assert reference_pick(got) == numpy_pick(ref)

    @staticmethod
    def table(ranking, args):
        """``args`` with the converter and voltages replaced by ``distinct_cycles``' table,
        as the production scorers take it; the oracles take the converter and voltages."""
        *head, conv, voltages = args
        return (*head, distinct_cycles(conv, voltages, ranking[:3]))

    def check_identified(self, state):
        args = (state["estimator"], state["accumulators"], state["capacities"], state["i_ext"],
                state["conv"], state["voltages"])
        ranking = rank_cells(state["voltages"])
        self.check(predict_stds(*self.table(ranking, args), state["voltages"]),
                   numpy_predict_stds(ranking, *args))

    def check_true(self, state):
        args = (state["plant"], state["i_ext"], state["conv"], state["voltages"])
        ranking = rank_cells(state["voltages"])
        self.check(predict_stds_plant(*self.table(ranking, args)),
                   numpy_predict_stds_plant(ranking, *args))

    def check_true_bits(self, state, cells):
        args = (flat_plant(cells), state["i_ext"], state["conv"], state["voltages"])
        ranking = rank_cells(state["voltages"])
        got = predict_stds_plant(*self.table(ranking, args))
        assert [v.hex() for v in got] == [
            v.hex() for v in step_exact_predict_stds_plant(ranking, *args)]

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(scoring_states())
    def test_identified_models(self, state):
        self.check_identified(state)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(scoring_states(st.sampled_from([16, 96]) | st.integers(16, 96)))
    def test_identified_models_at_stack_scale(self, state):
        self.check_identified(state)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(scoring_states())
    def test_true_models(self, state):
        self.check_true(state)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(scoring_states(st.sampled_from([16, 96]) | st.integers(16, 96)), st.data())
    def test_true_models_at_stack_scale(self, state, data):
        # most cells are unswitched and share the table's one secondary-charge row
        self.check_true(state)
        self.check_true_bits(state, data.draw(leaky_cells(len(state["voltages"]))))

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(scoring_states(), st.data())
    def test_true_models_are_the_per_cycle_step_exact_bit_for_bit(self, state, data):
        # self-discharging cells, and cells that a cycle drives into a reservoir limit
        self.check_true_bits(state, data.draw(leaky_cells(len(state["voltages"]))))
