"""Recursive least squares: constructor contracts, update law, convergence."""

from __future__ import annotations

import numpy as np
import pytest

from cellbal import build_regressor, ocv, representative_cell_params, rls, warm_start_theta

THETA_STAR = np.array([0.1, -0.5, 3.7])


def exciting_regressor(rng) -> np.ndarray:
    # iid excitation in every component the estimator has to pin down
    return np.array([rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), 1.0])


class TestInit:
    def test_constructor_contract(self):
        est = rls.init((0.0, 0.0, 0.0), 1e6, 1.0)
        assert np.array_equal(est.covariance, 1e6 * np.eye(3))
        assert np.array_equal(est.theta, np.zeros(3))
        assert est.forgetting_factor == 1.0

    def test_theta_is_copied(self):
        theta0 = np.array([1.0, 2.0, 3.0])
        est = rls.init(theta0, 1.0, 0.99)
        theta0[0] = 99.0
        assert est.theta[0] == 1.0

    @pytest.mark.parametrize("lam", [0.0, 1.5, -0.1])
    def test_forgetting_factor_domain(self, lam):
        with pytest.raises(ValueError):
            rls.init(np.zeros(3), 1e6, lam)

    @pytest.mark.parametrize("p0", [0.0, -1.0])
    def test_p0_domain(self, p0):
        with pytest.raises(ValueError):
            rls.init(np.zeros(3), p0, 1.0)

    def test_bad_theta_shape(self):
        with pytest.raises(ValueError):
            rls.init(np.zeros(4), 1e6, 1.0)

    def test_warm_start_values(self):
        p = representative_cell_params()
        theta = warm_start_theta(p)
        expected = [-p.series_resistance, -(ocv(p, 1.0) - ocv(p, 0.0)), ocv(p, 0.5)]
        assert theta == pytest.approx(expected, rel=1e-15)


class TestBuildRegressor:
    def test_direct_construction(self):
        assert build_regressor(2.0, 288.0, 2880.0) == pytest.approx([2.0, 0.1, 1.0], rel=1e-15)

    def test_zero_case(self):
        x = build_regressor(0.0, 0.0, 2880.0)
        assert np.array_equal(x, [0.0, 0.0, 1.0])

    def test_charging_sign_passthrough(self):
        x = build_regressor(-1.5, -144.0, 2880.0)
        assert x == pytest.approx([-1.5, -0.05, 1.0], rel=1e-15)

    def test_trailing_one_is_structural(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = build_regressor(rng.normal(), rng.normal() * 100, 2880.0)
            assert x[2] == 1.0

    @pytest.mark.parametrize("capacity", [0.0, -2880.0])
    def test_capacity_domain(self, capacity):
        with pytest.raises(ValueError):
            build_regressor(1.0, 0.0, capacity)


class TestUpdate:
    def test_zero_innovation_leaves_theta(self):
        est = rls.init(THETA_STAR, 1e3, 1.0)
        x = np.array([2.0, 0.1, 1.0])
        y = rls.predict(est, x)
        out = rls.update(est, x, y)
        assert np.array_equal(out.theta, est.theta)
        # covariance still shrinks along the regressor direction
        assert float(x @ out.covariance @ x) < float(x @ est.covariance @ x)

    def test_single_step_hand_value(self):
        est = rls.update(rls.init(np.zeros(3), 1e6, 1.0), np.array([1.0, 0.0, 0.0]), 4.0)
        assert est.innovation == 4.0  # y - x . theta of the zero prior
        assert est.theta[0] == pytest.approx(4e6 / (1e6 + 1.0), rel=1e-15)
        assert est.theta[1] == 0.0 and est.theta[2] == 0.0
        # P'[0,0] subtracts two ~1e6 terms, so ~p0*eps of the exact value survives
        assert est.covariance[0, 0] == pytest.approx(1e6 / (1e6 + 1.0), rel=1e-8)
        assert est.covariance[1, 1] == 1e6

    def test_three_samples_recover_truth(self):
        # with a huge prior the three-sample estimate matches the 3x3 solve
        xs = np.array([[2.0, 0.1, 1.0], [-1.0, 0.3, 1.0], [0.5, -0.2, 1.0]])
        ys = xs @ THETA_STAR
        est = rls.init(np.zeros(3), 1e9, 1.0)
        for x, y in zip(xs, ys):
            est = rls.update(est, x, float(y))
        solved = np.linalg.solve(xs, ys)
        assert np.max(np.abs(est.theta - THETA_STAR)) < 1e-6
        assert np.max(np.abs(est.theta - solved)) < 1e-6

    def test_covariance_symmetrized(self):
        est = rls.init(np.zeros(3), 1e6, 0.98)
        rng = np.random.default_rng(2)
        for _ in range(100):
            est = rls.update(est, rng.normal(size=3), float(rng.normal()))
        assert np.array_equal(est.covariance, est.covariance.T)

    def test_non_finite_rejected(self):
        est = rls.init(np.zeros(3), 1e6, 1.0)
        with pytest.raises(ValueError):
            rls.update(est, np.array([1.0, np.nan, 0.0]), 1.0)
        with pytest.raises(ValueError):
            rls.update(est, np.ones(3), np.inf)
        with pytest.raises(ValueError):
            rls.update(est, np.ones(4), 1.0)

    def test_infinite_regressor_against_zero_theta_rejected(self):
        # inf * 0 is nan in x . theta, so the innovation still flags it (numpy warns first)
        est = rls.init(np.array([0.0, 1.0, 2.0]), 1e6, 1.0)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            rls.update(est, np.array([np.inf, 0.0, 1.0]), 1.0)


class TestPredict:
    def test_constant_model(self):
        est = rls.init((0.0, 0.0, 3.7), 1.0, 1.0)
        for x in ([0.0, 0.0, 1.0], [5.0, -3.0, 1.0]):
            assert rls.predict(est, np.array(x)) == 3.7

    def test_dot_product(self):
        est = rls.init(THETA_STAR, 1.0, 1.0)
        assert rls.predict(est, np.array([2.0, 0.1, 1.0])) == pytest.approx(3.85, rel=1e-15)

    def test_zero_model(self):
        est = rls.init(np.zeros(3), 1.0, 1.0)
        assert rls.predict(est, np.array([4.0, 1.0, 1.0])) == 0.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            rls.predict(rls.init(np.zeros(3), 1.0, 1.0), np.ones(2))


class TestConvergence:
    def test_noiseless_consistency(self):
        rng = np.random.default_rng(3)
        est = rls.init(np.zeros(3), 1e6, 1.0)
        for _ in range(80):
            x = exciting_regressor(rng)
            est = rls.update(est, x, float(x @ THETA_STAR))
        assert np.max(np.abs(est.theta - THETA_STAR)) < 1e-6

    def test_prediction_error_decay(self):
        # after the third sample the estimate is pinned and the a-priori
        # error stays at rounding level, so no visible uptick remains
        rng = np.random.default_rng(5)
        est = rls.init(np.zeros(3), 1e12, 1.0)
        errs = []
        for _ in range(40):
            x = exciting_regressor(rng)
            y = float(x @ THETA_STAR)
            errs.append(abs(y - rls.predict(est, x)))
            est = rls.update(est, x, y)
        for k in range(3, len(errs) - 1):
            assert errs[k + 1] <= errs[k] + 1e-9, f"error rose at sample {k + 1}"

    def test_p0_scale_does_not_move_the_limit(self):
        rng = np.random.default_rng(9)
        data = [(exciting_regressor(rng),) for _ in range(100)]
        finals = []
        for p0 in (1e6, 1e7):
            est = rls.init(np.zeros(3), p0, 1.0)
            for (x,) in data:
                est = rls.update(est, x, float(x @ THETA_STAR))
            finals.append(est.theta.copy())
        # residual ridge bias scales with 1/p0; both live far below 1e-6
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-6
        assert np.max(np.abs(finals[0] - THETA_STAR)) < 1e-6

    def test_no_covariance_windup_without_excitation(self):
        # a constant regressor excites one direction only; unbounded 1/lambda
        # forgetting would inflate P along the other two past 1e49
        p0 = 1e6
        est = rls.init(np.zeros(3), p0, 0.995)
        x = np.array([0.0, 0.1, 1.0])
        for _ in range(20_000):
            est = rls.update(est, x, 3.7)
        assert np.trace(est.covariance) <= 3.0 * p0
        assert np.linalg.eigvalsh(est.covariance)[0] > 0.0

    @pytest.mark.parametrize("lam", [0.95, 0.99, 1.0])
    def test_covariance_stays_spd(self, lam):
        # light version of the long-haul check in the acceptance suite
        est = rls.init(np.zeros(3), 1e3, lam)
        rng = np.random.default_rng(int(lam * 100))
        for k in range(2000):
            est = rls.update(est, rng.normal(size=3), float(rng.normal()))
            if k % 50 == 0:
                assert np.array_equal(est.covariance, est.covariance.T)
                assert np.linalg.eigvalsh(est.covariance)[0] > 0.0, f"lost PD at {k}"
        assert np.linalg.eigvalsh(est.covariance)[0] > 0.0


class TestStacked:
    def test_stack_matches_single_estimators_bit_for_bit(self):
        # a (4, 3) estimator fed a random stream carries, in each row, the
        # bits of a single estimator fed that row's column of the stream;
        # cells 1 and 2 see no current, so their covariance reaches the trace
        # bound and stops forgetting while cells 3 and 4 keep forgetting
        rng = np.random.default_rng(31)
        theta0 = rng.normal(size=(4, 3))
        stacked = rls.init(theta0, 1e3, 0.98)
        singles = [rls.init(t, 1e3, 0.98) for t in theta0]
        for _ in range(400):
            currents = rng.normal(size=4) * [0.0, 0.0, 1.0, 1.0]
            x = build_regressor(currents, rng.normal(0.0, 300.0, 4), rng.uniform(2e3, 4e3, 4))
            y = rng.normal(3.7, 0.2, size=4)
            stacked = rls.update(stacked, x, y)
            singles = [rls.update(e, x[j], y[j]) for j, e in enumerate(singles)]
            assert np.array_equal(stacked.theta, [e.theta for e in singles])
            assert np.array_equal(stacked.covariance, [e.covariance for e in singles])
            assert np.array_equal(stacked.innovation, [e.innovation for e in singles])
            candidates = rng.normal(size=(16, 4, 3))
            expected = [[rls.predict(e, c[j]) for j, e in enumerate(singles)] for c in candidates]
            assert np.array_equal(rls.predict(stacked, candidates), expected)
