"""Cell model: OCV curve, terminal voltage, exact stepping, validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cellbal import (
    CellParams,
    CellState,
    ocv,
    ocv_curve,
    step_exact,
    terminal_voltage,
)
from oracles import euler_step


class TestOcvCurve:
    def test_linear_collapse(self):
        # only the a1 term survives with a4 = 0
        assert ocv_curve((3.0, 1.0, 0.0, 0.0, 0.0), 5.0, 0.5) == pytest.approx(3.5, rel=1e-15)

    def test_exponential_at_zero_soc(self):
        # e^0 = 1, so the value is a0 + a4
        assert ocv_curve((3.2, 0.0, 0.0, 0.0, 0.2), 5.0, 0.0) == pytest.approx(3.4, rel=1e-15)

    def test_full_evaluation(self):
        got = ocv_curve((3.2, 0.8, -0.2, 0.1, 0.15), 20.0, 1.0)
        assert got == pytest.approx(3.9 + 0.15 * math.exp(-20.0), rel=1e-15)

    def test_ocv_delegates_to_curve(self):
        p = CellParams()
        for s in (0.0, 0.3, 0.77, 1.0):
            assert ocv(p, s) == ocv_curve(p.ocv_coeffs, p.ocv_exponent, s)

    @pytest.mark.parametrize("soc", [-0.01, 1.01, 2.0])
    def test_ocv_domain(self, soc):
        with pytest.raises(ValueError):
            ocv(CellParams(), soc)


class TestCellParams:
    def test_defaults_accepted_and_monotone(self):
        p = CellParams()
        grid = [ocv(p, k / 999) for k in range(1000)]
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("capacity_coulombs", 0.0),
            ("capacity_coulombs", -1.0),
            ("series_resistance", -0.07),
            ("rc1_resistance", 0.0),
            ("rc1_capacitance", -1000.0),
            ("rc2_resistance", 0.0),
            ("rc2_capacitance", 0.0),
            ("ocv_exponent", 0.0),
            ("ocv_exponent", -3.0),
            ("ocv_exponent", math.inf),
            ("self_discharge_resistance", 0.0),
            ("self_discharge_resistance", -1e4),
            ("self_discharge_resistance", math.inf),
            ("v_min", 0.0),
            ("v_min", -1.0),
        ],
    )
    def test_positivity_rejections(self, field, value):
        with pytest.raises(ValueError):
            CellParams(**{field: value})

    @pytest.mark.parametrize(
        "fields,name",
        [
            ({"rc1_resistance": 1e-200, "rc1_capacitance": 1e-200}, "rc1"),
            ({"rc2_resistance": 1e-160, "rc2_capacitance": 1e-170}, "rc2"),
            (
                {"self_discharge_resistance": 1e-300, "capacity_coulombs": 1e-300},
                "self-discharge",
            ),
        ],
    )
    def test_underflowing_time_constant_rejected(self, fields, name):
        # each factor is positive, but their product rounds to 0 and step_exact
        # would divide by it
        with pytest.raises(ValueError, match=f"{name} time constant R\\*C must be positive"):
            CellParams(**fields)

    def test_voltage_band_ordering(self):
        with pytest.raises(ValueError, match="v_min"):
            CellParams(v_min=4.2, v_max=4.2)

    @pytest.mark.parametrize(
        "coeffs,soc",
        [
            # flipping the exponential coefficient sign makes the curve dip near 0
            ((3.2, 0.8, -0.2, 0.1, 0.15), "0.0010"),
            # a NaN curve is not increasing anywhere
            ((3.2, 0.8, float("nan"), 0.1, -0.15), "0.0010"),
            # the cubic falls between its turning points near 0.17 and 0.63
            ((3.2, 0.8, -3.0, 2.5, -0.15), "0.1902"),
        ],
        ids=["exponential_sign_flip", "nan_coefficient", "interior_dip"],
    )
    def test_non_monotone_curve_rejected(self, coeffs, soc):
        with pytest.raises(ValueError, match=f"increasing on .*; violated near soc={soc}$"):
            CellParams(ocv_coeffs=coeffs)

    def test_monotonicity_check_matches_the_pointwise_loop(self):
        # the array check accepts and rejects exactly the curves a scalar scan
        # of the same 1000-point grid does, and names the same first fall
        rng = np.random.default_rng(17)
        rejected = 0
        for _ in range(300):
            a1, a2, a3 = rng.uniform((-0.5, -2.0, -1.0), (1.5, 1.0, 1.5))
            coeffs = (3.2, a1, a2, a3, rng.uniform(-0.3, 0.1))
            grid = [ocv_curve(coeffs, 20.0, k / 999) for k in range(1000)]
            fall = next((k for k in range(1, 1000) if not grid[k] > grid[k - 1]), None)
            if fall is None:
                CellParams(ocv_coeffs=coeffs)
            else:
                rejected += 1
                with pytest.raises(ValueError, match=f"soc={fall / 999:.4f}$"):
                    CellParams(ocv_coeffs=coeffs)
        assert 30 <= rejected <= 270

    def test_coefficient_count(self):
        with pytest.raises(ValueError, match="5"):
            CellParams(ocv_coeffs=(3.2, 0.8, -0.2, 0.1))

    def test_optional_self_discharge(self):
        p = CellParams(self_discharge_resistance=5e4)
        assert p.self_discharge_resistance == 5e4
        assert CellParams().self_discharge_resistance is None


class TestStateAndMeasurement:
    def test_state_defaults(self):
        s = CellState(soc=0.5)
        assert (s.v1, s.v2) == (0.0, 0.0)

    @pytest.mark.parametrize("soc", [-0.001, 1.001])
    def test_state_soc_domain(self, soc):
        with pytest.raises(ValueError):
            CellState(soc=soc)

    def test_state_branch_voltages_finite(self):
        with pytest.raises(ValueError):
            CellState(soc=0.5, v1=math.nan)
        with pytest.raises(ValueError):
            CellState(soc=0.5, v2=math.inf)


class TestTerminalVoltage:
    def test_rest_equals_ocv(self):
        p = CellParams()
        s = CellState(soc=0.6)
        assert terminal_voltage(p, s.soc, s.v1, s.v2, 0.0) == ocv(p, 0.6)

    def test_ohmic_drop(self):
        p = CellParams()
        s = CellState(soc=0.6)
        got = terminal_voltage(p, s.soc, s.v1, s.v2, 1.0)
        assert got == pytest.approx(ocv(p, 0.6) - 0.07, rel=1e-15)

    def test_superposition_of_drops(self):
        p = CellParams(series_resistance=0.05)
        s = CellState(soc=0.6, v1=0.01, v2=0.02)
        got = terminal_voltage(p, s.soc, s.v1, s.v2, 2.0)
        assert got == pytest.approx(ocv(p, 0.6) - 0.13, rel=1e-14)


class TestStepExact:
    def test_zero_current_at_rest_is_identity(self):
        p = CellParams()
        s = CellState(soc=0.5)
        for dt in (1.0, 400.0, 1e6):
            out, saturated = step_exact(p, s, 0.0, dt)
            assert out == s and not saturated

    def test_coulomb_counting_delta(self):
        p = CellParams()  # 2880 C
        out, _ = step_exact(p, CellState(soc=0.5), 0.8, 36.0)
        assert out.soc == pytest.approx(0.49, abs=1e-15)

    def test_rc_step_response(self):
        p = CellParams()
        out, _ = step_exact(p, CellState(soc=0.5), 1.0, 400.0)
        assert out.v1 == pytest.approx(0.04 * (1.0 - math.exp(-10.0)), rel=1e-15)
        assert out.v2 == pytest.approx(0.03 * (1.0 - math.exp(-400.0 / 120.0)), rel=1e-15)

    @pytest.mark.parametrize("dt", [0.0, -5.0, math.inf, math.nan])
    def test_bad_dt(self, dt):
        with pytest.raises(ValueError):
            step_exact(CellParams(), CellState(soc=0.5), 1.0, dt)

    def test_bad_current(self):
        with pytest.raises(ValueError):
            step_exact(CellParams(), CellState(soc=0.5), math.nan, 1.0)

    def test_saturation_high(self):
        out, saturated = step_exact(CellParams(), CellState(soc=0.999), -0.4, 36.0)
        assert saturated and out.soc == 1.0

    def test_saturation_low(self):
        out, saturated = step_exact(CellParams(), CellState(soc=0.001), 0.4, 36.0)
        assert saturated and out.soc == 0.0

    def test_self_discharge_decay(self):
        p = CellParams(self_discharge_resistance=1e4)
        tau = 1e4 * p.capacity_coulombs
        out, _ = step_exact(p, CellState(soc=0.8), 0.0, 1e6)
        assert out.soc == pytest.approx(0.8 * math.exp(-1e6 / tau), rel=1e-14)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-15)


class TestStepProperties:
    def test_semigroup(self):
        rng = np.random.default_rng(42)
        for k in range(200):
            r_sd = 5e4 if k % 2 else None
            p = CellParams(self_discharge_resistance=r_sd)
            s = CellState(
                soc=rng.uniform(0.2, 0.8),
                v1=rng.uniform(-0.05, 0.05),
                v2=rng.uniform(-0.05, 0.05),
            )
            current = rng.uniform(-2.0, 2.0)
            dt = rng.uniform(0.1, 500.0)
            full, _ = step_exact(p, s, current, dt)
            mid, _ = step_exact(p, s, current, dt / 2.0)
            two, _ = step_exact(p, mid, current, dt / 2.0)
            for a, b in ((full.soc, two.soc), (full.v1, two.v1), (full.v2, two.v2)):
                assert _rel(a, b) < 1e-12, f"semigroup broke at case {k}: {a} vs {b}"

    @pytest.mark.parametrize("dt", [2.0, 12.0, 20.0])
    @pytest.mark.parametrize("r_sd", [None, 5e4])
    def test_euler_oracle_convergence(self, dt, r_sd):
        # first-order reference at h = dt/1e4 must land within 1e-6 V
        p = CellParams(self_discharge_resistance=r_sd)
        s = CellState(soc=0.6, v1=0.01, v2=-0.005)
        for current in (-1.5, 0.8):
            exact, _ = step_exact(p, s, current, dt)
            soc_e, v1_e, v2_e = euler_step(p, s, current, dt, 10_000)
            assert abs(exact.v1 - v1_e) < 1e-6
            assert abs(exact.v2 - v2_e) < 1e-6
            assert abs(exact.soc - soc_e) < 1e-9

    def test_coulomb_bookkeeping(self):
        # error is measured against the gross turnover: the net sum can
        # cancel to arbitrarily few coulombs and has no stable scale
        p = CellParams()
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = CellState(soc=0.5)
            drawn = gross = 0.0
            for _ in range(50):
                current = rng.uniform(-0.5, 0.5)
                dt = rng.uniform(1.0, 30.0)
                s, saturated = step_exact(p, s, current, dt)
                assert not saturated
                drawn += current * dt
                gross += abs(current * dt)
            err = abs(p.capacity_coulombs * (0.5 - s.soc) - drawn)
            assert err / gross < 1e-12
