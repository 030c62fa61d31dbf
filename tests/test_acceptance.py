"""Acceptance gate: end-to-end behavior of the stock four-cell scenario,
physics conservation at scale, estimator guarantees, schedule optimality
against a dense oracle, integrator exactness, and byte-level determinism."""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from cellbal import (
    CellParams,
    CellState,
    ControllerConfig,
    ConverterParams,
    SwitchPlan,
    rls,
    run_scenario,
    step_exact,
)
import cellbal.harness as harness
from cellbal.flyback import SCHEDULES, simulate_cycle
from cellbal.cli import read_trace, replay_identification, write_trace
from conftest import make_stock_scenario, run_cli, run_python
from oracles import (
    euler_step,
    fine_cycle_deltas,
    fine_cycle_stds,
    integrate_pwl_between,
    plant_pairs,
)

GAP_THRESHOLD = 0.02
STICK = 1e-12  # slack for <= comparisons settled by exact arithmetic
STOCK_CONV = ConverterParams(magnetizing_inductance=0.01)

# Frozen figures of merit for the stock scenario under both policies.
# Regenerate only for an intentional physics or policy change.
AMPC_GOLDEN = dict(
    rows=17458,
    end_time=3325.239786449296,
    completion_time=3310.239786449296,
    final_voltage_spread=0.019969371176492334,
    final_soc_spread=0.029614802892993897,
    time_avg_voltage_std=0.007849798007506579,
    gap_uniformity=0.004734185836634524,
    converter_coulombs=415.4912754451697,
)
GREEDY_GOLDEN = dict(
    rows=24722,
    end_time=3324.496653208329,
    completion_time=3317.496653208329,
    final_voltage_spread=0.01999304591245643,
    final_soc_spread=0.02964999688672254,
    time_avg_voltage_std=0.009696814875319018,
    gap_uniformity=0.00971520303081778,
    converter_coulombs=563.3256755103839,
)


@pytest.fixture(scope="module")
def ampc_result():
    t0 = time.perf_counter()
    trace, summary = run_scenario(make_stock_scenario("ampc"))
    return trace, summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def greedy_result():
    trace, summary = run_scenario(make_stock_scenario("greedy"))
    return trace, summary


@pytest.fixture(scope="module")
def plant_capture():
    """Stock run with true-model predictions, every active decision captured
    together with the plant state it saw."""
    captured = []
    real = harness.select_plan

    def spy(voltages, estimators, accumulators, external_current, conv, cfg, **kw):
        d = real(voltages, estimators, accumulators, external_current, conv, cfg, **kw)
        if d.plan is not None:
            plant = tuple(plant_pairs(kw["plant"]))
            captured.append((tuple(voltages), plant, external_current, d))
        return d

    harness.select_plan = spy
    try:
        cfg = make_stock_scenario(
            "ampc", controller=ControllerConfig(prediction_source="plant")
        )
        trace, summary = run_scenario(cfg)
    finally:
        harness.select_plan = real
    return captured, trace, summary


class TestStockScenarioConverges:
    """Criterion 1: the staggered stack balances to spec inside the budget."""

    def test_terminates_early_and_fast(self, ampc_result):
        trace, _, wall = ampc_result
        assert wall < 60.0
        assert trace[-1].time < 4000.0  # finished on its own, not on max_time

    def test_final_voltage_gap_closed(self, ampc_result):
        _, summary, _ = ampc_result
        assert summary.final_voltage_spread <= GAP_THRESHOLD + STICK
        assert summary.completion_time is not None

    def test_soc_spread_reduced_to_a_fifth(self, ampc_result):
        _, summary, _ = ampc_result
        assert summary.final_soc_spread <= 0.2 * summary.initial_soc_spread + STICK

    def test_voltage_std_non_increasing_after_first_cycle(self, ampc_result):
        trace, _, _ = ampc_result
        rows = [r for r in trace if r.cycle >= 1]
        for prev, cur in zip(rows, rows[1:]):
            assert cur.voltage_std <= prev.voltage_std + 1e-3, cur.cycle

    def test_soc_spread_never_widens(self, ampc_result):
        trace, _, _ = ampc_result
        spreads = [max(r.soc) - min(r.soc) for r in trace]
        for prev, cur in zip(spreads, spreads[1:]):
            assert cur <= prev + STICK


class TestPolicyComparison:
    """Criterion 2: the adaptive policy spreads its work more evenly than the
    greedy baseline, and both runs reproduce their frozen figures."""

    def test_adaptive_is_no_worse_on_gap_uniformity(self, ampc_result, greedy_result):
        assert ampc_result[1].gap_uniformity <= greedy_result[1].gap_uniformity

    @staticmethod
    def _check_golden(trace, summary, golden):
        assert len(trace) == golden["rows"]
        assert trace[-1].time == pytest.approx(golden["end_time"], rel=1e-9)
        assert summary.completion_time == pytest.approx(golden["completion_time"], rel=1e-9)
        assert summary.final_voltage_spread == pytest.approx(
            golden["final_voltage_spread"], rel=1e-9
        )
        assert summary.final_soc_spread == pytest.approx(golden["final_soc_spread"], rel=1e-9)
        assert summary.time_avg_voltage_std == pytest.approx(
            golden["time_avg_voltage_std"], rel=1e-9
        )
        assert summary.gap_uniformity == pytest.approx(golden["gap_uniformity"], rel=1e-9)
        assert summary.converter_coulombs == pytest.approx(
            golden["converter_coulombs"], rel=1e-9
        )

    def test_adaptive_matches_golden(self, ampc_result):
        trace, summary, _ = ampc_result
        self._check_golden(trace, summary, AMPC_GOLDEN)

    def test_greedy_matches_golden(self, greedy_result):
        trace, summary = greedy_result
        self._check_golden(trace, summary, GREEDY_GOLDEN)

    def test_readme_library_example_runs_the_stock_scenario(self, capsys):
        # the README's "Library use" block as written: ScenarioConfig() is the stock run
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(block, namespace)
        summary = namespace["summary"]
        self._check_golden(namespace["trace"], summary, AMPC_GOLDEN)
        printed = f"{summary.completion_time} {summary.final_voltage_spread}\n"
        assert capsys.readouterr().out == printed


@pytest.fixture(scope="module")
def cycles():
    rng = np.random.default_rng(123)
    out = []
    for k in range(1000):
        voltages = tuple(rng.uniform(3.0, 4.2, size=4))
        cells = rng.permutation(4)[:3]
        plan = SwitchPlan(int(cells[0]), int(cells[1]), int(cells[2]), k % 16)
        out.append((voltages, plan, simulate_cycle(STOCK_CONV, voltages, plan)))
    return out


class TestConverterConservation:
    """Criterion 3: 1000 randomized cycles keep flux, energy and charge."""

    CONV = STOCK_CONV

    @staticmethod
    def _conducting_sets(plan):
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

    def test_flux_linkage_continuity(self, cycles):
        n1, n2 = self.CONV.turns_primary, self.CONV.turns_secondary
        scale = n1 * self.CONV.peak_current
        for voltages, plan, res in cycles:
            w, sec, tm = res.winding_currents, res.secondary, res.timing
            cond1, cond2 = self._conducting_sets(plan)
            for t, before_on, after_on in ((tm.t1, cond1, cond2), (tm.t2, cond2, set())):
                before = n2 * sec.value(t, side="left") + n1 * sum(
                    w[j].value(t, side="left") for j in before_on
                )
                after = n2 * sec.value(t, side="right") + n1 * sum(
                    w[j].value(t, side="right") for j in after_on
                )
                assert abs(after - before) <= 1e-9 * scale, (plan, t)

    def test_switch_off_energy_reaches_the_stack(self, cycles):
        L = self.CONV.magnetizing_inductance
        for voltages, plan, res in cycles:
            t2, t3 = res.timing.t2, res.timing.t3
            stored = sum(
                0.5 * L * w.value(t2, side="right") ** 2 for w in res.winding_currents
            )
            delivered = sum(voltages) * integrate_pwl_between(
                res.secondary.times, res.secondary.amps, t2, t3
            )
            assert delivered == pytest.approx(stored, rel=1e-9), plan

    def test_charge_deltas_match_dense_integration(self, cycles):
        for voltages, plan, res in cycles:
            fine = fine_cycle_deltas(self.CONV, voltages, plan)
            scale = max(abs(d) for d in res.charge_delta)
            err = np.max(np.abs(np.array(res.charge_delta) - fine))
            assert err <= 1e-6 * scale, plan


class TestEstimatorGuarantees:
    """Criterion 4: exact recovery on clean data, covariance stays SPD."""

    def test_noiseless_recovery_within_fifty_samples(self):
        theta_star = np.array([0.1, -0.5, 3.7])
        rng = np.random.default_rng(31)
        est = rls.init([np.zeros(3)], 1e9, 1.0)
        for _ in range(50):
            x = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), 1.0])
            est = rls.update(est, [tuple(x.tolist())], [float(x @ theta_star)])
        assert np.max(np.abs(np.array(est.theta[0]) - theta_star)) < 1e-6

    @pytest.mark.parametrize("lam", [0.95, 0.99, 1.0])
    def test_covariance_spd_over_long_random_stream(self, lam):
        # one third of the 1e5-update budget per forgetting factor
        est = rls.init([np.zeros(3)], 1e3, lam)
        rng = np.random.default_rng(int(lam * 1000))
        for k in range(33334):
            est = rls.update(est, [tuple(rng.normal(size=3).tolist())], [float(rng.normal())])
            p = np.array(est.covariance[0]).reshape(3, 3)
            assert np.array_equal(p, p.T)
            assert np.linalg.eigvalsh(p)[0] > 0.0, (lam, k)


class TestReplayMatchesOnline:
    """`identify` replays the run's own estimator: on a trace of every cycle
    its thetas equal the recorded ones bit for bit.  The final row is left
    out; the run records it without an update."""

    @staticmethod
    def _mismatches(trace, scenario, tmp_path) -> int:
        path = tmp_path / "trace.csv"
        write_trace(path, trace, 4)
        rows = list(replay_identification(read_trace(path), scenario))
        replayed = [tuple(r[2:5]) for r in rows[:-4]]
        recorded = [theta for rec in trace[:-1] for theta in rec.theta]
        assert len(replayed) == len(recorded) > 1000
        return sum(a != b for a, b in zip(replayed, recorded))

    def test_stock_trace_with_stock_config(self, ampc_result, tmp_path):
        assert self._mismatches(ampc_result[0], make_stock_scenario("ampc"), tmp_path) == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(warm_start=False, max_time=300.0),
            dict(policy="greedy", noise_std=0.005, seed=5, max_time=60.0),
        ],
    )
    def test_short_runs(self, overrides, tmp_path):
        scenario = make_stock_scenario(**overrides)
        trace, _ = run_scenario(scenario)
        assert self._mismatches(trace, scenario, tmp_path) == 0


class TestScheduleOptimality:
    """Criterion 5: with true-model predictions, every chosen schedule
    attains the dense-simulation minimum over all 16 candidates.

    Window-swapped schedules produce identical cycles, so the oracle has
    exact ties; the check is therefore a value band around the minimum,
    sized an order below the smallest genuine separation (~1e-11 V) and an
    order above the oracle's own quadrature floor (~2e-12 V).
    """

    CONV = STOCK_CONV

    def test_every_decision_attains_oracle_minimum(self, plant_capture):
        captured, _, _ = plant_capture
        assert len(captured) >= 1000
        worst = 0.0
        for voltages, plant, i_ext, d in captured:
            stds_o = fine_cycle_stds(self.CONV, voltages, plant, i_ext, d.ranking)
            idx = d.plan.schedule
            worst = max(worst, float(stds_o[idx] - stds_o.min()))
            assert d.predicted_std[idx] == min(d.predicted_std)
        assert worst <= 1e-11

    def test_plant_run_also_balances(self, plant_capture):
        _, trace, summary = plant_capture
        assert summary.final_voltage_spread <= GAP_THRESHOLD + STICK
        assert trace[-1].time < 4000.0


class TestIntegratorExactness:
    """Criterion 6: the exact-hold step is semigroup-exact, first-order
    consistent against a dense Euler reference, and coulomb-conserving."""

    def _random_setups(self, count, seed):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            r_sd = float(rng.uniform(2e4, 2e5)) if rng.random() < 0.5 else None
            p = CellParams(self_discharge_resistance=r_sd)
            s = CellState(
                soc=float(rng.uniform(0.2, 0.8)),
                v1=float(rng.uniform(-0.05, 0.05)),
                v2=float(rng.uniform(-0.05, 0.05)),
            )
            out.append((p, s, float(rng.uniform(-1.5, 1.5))))
        return out

    def test_semigroup_property(self):
        for p, s, i in self._random_setups(200, seed=41):
            dt_a, dt_b = 7.3, 12.9
            once, _ = step_exact(p, s, i, dt_a + dt_b)
            mid, _ = step_exact(p, s, i, dt_a)
            twice, _ = step_exact(p, mid, i, dt_b)
            for a, b in (
                (once.soc, twice.soc), (once.v1, twice.v1), (once.v2, twice.v2),
            ):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (p.self_discharge_resistance, i)

    @pytest.mark.parametrize("dt", [2.0, 12.0, 20.0])
    def test_euler_reference_convergence(self, dt):
        for p, s, i in self._random_setups(20, seed=43):
            exact, _ = step_exact(p, s, i, dt)
            soc_e, v1_e, v2_e = euler_step(p, s, i, dt, substeps=10_000)
            assert abs(exact.v1 - v1_e) < 1e-6
            assert abs(exact.v2 - v2_e) < 1e-6
            assert abs(exact.soc - soc_e) < 1e-6

    def test_coulomb_bookkeeping(self):
        rng = np.random.default_rng(47)
        p = CellParams()
        for _ in range(20):
            s = CellState(soc=0.5)
            expected = 0.5
            gross = 0.0
            for _ in range(50):
                i = float(rng.uniform(-1.0, 1.0))
                dt = float(rng.uniform(0.1, 30.0))
                s, saturated = step_exact(p, s, i, dt)
                assert not saturated
                expected -= i * dt / p.capacity_coulombs
                gross += abs(i) * dt / p.capacity_coulombs
            assert abs(s.soc - expected) <= 1e-12 * gross


class TestDeterminism:
    """Criterion 7: a seeded noisy run is byte-reproducible."""

    def test_repeated_runs_write_identical_traces(self, tmp_path):
        argv = [
            "simulate",
            "--set", "run.noise_std=0.005",
            "--set", "run.seed=42",
            "--set", "run.max_time=120",
        ]
        for name in ("a", "b"):
            r = run_cli(*argv, "--out", str(tmp_path / name), cwd=tmp_path)
            assert r.returncode == 0, r.stderr
        first = (tmp_path / "a" / "trace.csv").read_bytes()
        second = (tmp_path / "b" / "trace.csv").read_bytes()
        assert len(first) > 10_000
        assert first == second

    def test_short_runs_write_the_committed_bytes(self, tmp_path):
        # tests/run_hashes.json holds the sha256 of a stock ampc run, a noisy ampc run (its
        # applied cycle is recomputed at the true voltages) and a noisy greedy run; CI's
        # console job checks the same hashes on the oldest and newest supported Python
        script = Path(__file__).resolve().parent.parent / ".github" / "check_hashes.py"
        r = run_python(str(script), cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
