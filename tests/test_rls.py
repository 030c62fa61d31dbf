"""Recursive least squares: constructor contracts, update law, convergence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cellbal import CellParams, ConverterParams, ocv, rls, warm_start_theta
from cellbal.flyback import distinct_cycles
from conftest import CONVERTERS
from oracles import build_regressor, numpy_predict, numpy_rls_update

THETA_STAR = np.array([0.1, -0.5, 3.7])


def exciting_regressor(rng) -> np.ndarray:
    # iid excitation in every component the estimator has to pin down
    return np.array([rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), 1.0])


def lone(theta0, p0_scale, forgetting_factor) -> rls.RlsEstimator:
    """A lone estimator: a 1-cell stack."""
    return rls.init([theta0], p0_scale, forgetting_factor)


def step(est, x, y) -> rls.RlsEstimator:
    """One update of a lone estimator with the 3-vector x and the scalar y."""
    return rls.update(est, [tuple(np.asarray(x, dtype=float).tolist())], [float(y)])


def theta(est, j=0) -> np.ndarray:
    return np.array(est.theta[j])


def cov(est, j=0) -> np.ndarray:
    return np.array(est.covariance[j]).reshape(3, 3)


class TestInit:
    def test_constructor_contract(self):
        est = lone((0.0, 0.0, 0.0), 1e6, 1.0)
        assert np.array_equal(cov(est), 1e6 * np.eye(3))
        assert np.array_equal(theta(est), np.zeros(3))
        assert est.forgetting_factor == 1.0

    def test_theta_is_copied(self):
        theta0 = np.array([1.0, 2.0, 3.0])
        est = lone(theta0, 1.0, 0.99)
        theta0[0] = 99.0
        assert est.theta[0][0] == 1.0

    @pytest.mark.parametrize("lam", [0.0, 1.5, -0.1])
    def test_forgetting_factor_domain(self, lam):
        with pytest.raises(ValueError):
            lone(np.zeros(3), 1e6, lam)

    @pytest.mark.parametrize("p0", [0.0, -1.0, math.nan, math.inf, 9e307, 1e308])
    def test_p0_domain(self, p0):
        with pytest.raises(ValueError):
            lone(np.zeros(3), p0, 1.0)

    def test_p0_bound_follows_the_forgetting_factor(self):
        assert rls.max_p0_scale(1.0, 1.0) == 2.0**42
        lone(np.zeros(3), 2.0**42, 1.0)
        with pytest.raises(ValueError, match="p0_scale"):
            lone(np.zeros(3), 2.0**42, 0.5)

    def test_bad_theta_shape(self):
        for theta0 in (np.zeros(4), np.zeros(3), np.zeros((2, 4))):
            with pytest.raises(ValueError):
                rls.init(theta0, 1e6, 1.0)

    def test_warm_start_values(self):
        p = CellParams()
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

    def test_float_rows_equal_the_array_form(self):
        rng = np.random.default_rng(1)
        currents, charges = rng.normal(size=6).tolist(), rng.normal(0.0, 300.0, 6).tolist()
        capacities = rng.uniform(2e3, 4e3, 6).tolist()
        rows = rls.regressor_rows(currents, charges, capacities)
        assert all(type(v) is float for row in rows for v in row)
        assert np.array_equal(rows, build_regressor(currents, charges, capacities))

    @pytest.mark.parametrize("capacity", [0.0, -2880.0])
    def test_capacity_domain(self, capacity):
        # capacities enter through CellParams, which refuses a non-positive one
        with pytest.raises(ValueError, match="capacity_coulombs"):
            CellParams(capacity_coulombs=capacity)


class TestUpdate:
    def test_zero_innovation_leaves_theta(self):
        est = lone(THETA_STAR, 1e3, 1.0)
        x = np.array([2.0, 0.1, 1.0])
        y = 2.0 * THETA_STAR[0] + 0.1 * THETA_STAR[1] + 1.0 * THETA_STAR[2]  # the kernel's dot
        out = step(est, x, y)
        assert np.array_equal(theta(out), theta(est))
        # covariance still shrinks along the regressor direction
        assert float(x @ cov(out) @ x) < float(x @ cov(est) @ x)

    def test_single_step_hand_value(self):
        est = step(lone(np.zeros(3), 1e6, 1.0), np.array([1.0, 0.0, 0.0]), 4.0)
        assert est.innovation == (4.0,)  # y - x . theta of the zero prior
        assert est.theta[0][0] == pytest.approx(4e6 / (1e6 + 1.0), rel=1e-15)
        assert est.theta[0][1] == 0.0 and est.theta[0][2] == 0.0
        # P'[0,0] subtracts two ~1e6 terms, so ~p0*eps of the exact value survives
        assert cov(est)[0, 0] == pytest.approx(1e6 / (1e6 + 1.0), rel=1e-8)
        assert cov(est)[1, 1] == 1e6

    def test_three_samples_recover_truth(self):
        # with a huge prior the three-sample estimate matches the 3x3 solve
        xs = np.array([[2.0, 0.1, 1.0], [-1.0, 0.3, 1.0], [0.5, -0.2, 1.0]])
        ys = xs @ THETA_STAR
        est = lone(np.zeros(3), 1e9, 1.0)
        for x, y in zip(xs, ys):
            est = step(est, x, y)
        solved = np.linalg.solve(xs, ys)
        assert np.max(np.abs(theta(est) - THETA_STAR)) < 1e-6
        assert np.max(np.abs(theta(est) - solved)) < 1e-6

    def test_covariance_symmetrized(self):
        est = lone(np.zeros(3), 1e6, 0.98)
        rng = np.random.default_rng(2)
        for _ in range(100):
            est = step(est, rng.normal(size=3), rng.normal())
        assert np.array_equal(cov(est), cov(est).T)

    def test_non_finite_rejected(self):
        est = lone(np.zeros(3), 1e6, 1.0)
        with pytest.raises(ValueError):
            step(est, np.array([1.0, np.nan, 0.0]), 1.0)
        with pytest.raises(ValueError):
            step(est, np.ones(3), np.inf)
        with pytest.raises(ValueError):
            step(est, np.ones(4), 1.0)
        with pytest.raises(ValueError):  # one measurement short of the stack
            rls.update(est, [(1.0, 1.0, 1.0)], [])

    def test_infinite_regressor_against_zero_theta_rejected(self):
        # inf * 0 is nan in x . theta, so the innovation still flags it
        est = lone(np.array([0.0, 1.0, 2.0]), 1e6, 1.0)
        with pytest.raises(ValueError):
            step(est, np.array([np.inf, 0.0, 1.0]), 1.0)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e6),
        lam=st.floats(0.9, 1.0),
        forget=st.booleans(),
    )
    def test_matches_the_numpy_reference(self, n, seed, scale, lam, forget):
        # well-conditioned inputs: P = scale * (A A' + I) with |A_ij| <= 1, moderate
        # x, y and theta; the trace limit puts every cell firmly on one side of the
        # forgetting test.  The float kernel rounds each product and sum where numpy's
        # dots fuse them, so the two agree to rel 1e-12 of each cell's magnitudes.
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(n, 3, 3))
        p = scale * (a @ a.swapaxes(1, 2) + np.eye(3))
        p = 0.5 * (p + p.swapaxes(1, 2))
        theta0 = rng.uniform(-10.0, 10.0, size=(n, 3))
        x = rng.uniform(-10.0, 10.0, size=(n, 3))
        y = rng.uniform(-10.0, 10.0, size=n)
        limit = 4.0 * float(np.trace(p, axis1=1, axis2=2).max()) / lam if forget else 1e-300
        est = rls.RlsEstimator(
            tuple(map(tuple, theta0.tolist())),
            tuple(tuple(c) for c in p.reshape(n, 9).tolist()),
            lam,
            limit,
            (0.0,) * n,
        )
        out = rls.update(est, [tuple(r) for r in x.tolist()], y.tolist())
        ref_theta, ref_cov, ref_e = numpy_rls_update(theta0, p, lam, limit, x, y)
        got_cov = np.array(out.covariance).reshape(n, 3, 3)
        for j in range(n):
            e_scale = abs(y[j]) + np.abs(x[j] * theta0[j]).sum()
            assert abs(out.innovation[j] - ref_e[j]) <= 1e-12 * e_scale
            t_scale = max(np.abs(theta0[j]).max(), np.abs(ref_theta[j] - theta0[j]).max())
            assert np.abs(np.array(out.theta[j]) - ref_theta[j]).max() <= 1e-12 * t_scale
            p_scale = max(np.abs(p[j]).max(), np.abs(ref_cov[j]).max())
            assert np.abs(got_cov[j] - ref_cov[j]).max() <= 1e-12 * p_scale
            assert np.array_equal(got_cov[j], got_cov[j].T)

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(
        theta0=st.tuples(*[st.floats(-1e300, 1e300)] * 3),
        p0=st.floats(1e-300, 1.0) | st.floats(1.0, 2.0**42),
        lam=st.floats(1e-300, 1.0, exclude_min=True),
        samples=st.lists(
            st.tuples(st.tuples(*[st.floats()] * 3), st.floats()), min_size=1, max_size=5
        ),
    )
    @example(theta0=(0.0, 0.0, 0.0), p0=2.0**42, lam=1.0,
             samples=[((1e300, 1e300, 1.0), 0.0), ((1e300, -1e300, 1.0), 0.0)])
    @example(theta0=(0.0, 0.0, 0.0), p0=1.0, lam=1.0, samples=[((1e200, 0.0, 1.0), 1e300)])
    def test_raises_only_value_error(self, theta0, p0, lam, samples):
        # any numbers, finite or not and of any size: an update returns or raises
        # ValueError, never ZeroDivisionError, OverflowError or anything else
        try:
            est = lone(theta0, p0, lam)
        except ValueError:
            return
        for x, y in samples:
            try:
                est = rls.update(est, [x], [y])
            except ValueError:
                return


class TestPredict:
    def test_constant_model(self):
        est = lone((0.0, 0.0, 3.7), 1.0, 1.0)
        for current, charge in ((0.0, 0.0), (5.0, -3.0)):
            assert rls.predict(est, [[current]], [[charge]], [1.0]) == [[3.7]]

    def test_dot_product(self):
        est = lone(THETA_STAR, 1.0, 1.0)
        predicted = rls.predict(est, [[2.0]], [[288.0]], [2880.0])[0][0]
        assert predicted == pytest.approx(3.85, rel=1e-15)

    def test_zero_model(self):
        est = lone(np.zeros(3), 1.0, 1.0)
        assert rls.predict(est, [[4.0]], [[1.0]], [1.0]) == [[0.0]]

    def test_shape_check(self):
        # one list of currents and one of charges per cell of the stack, of equal lengths
        with pytest.raises(ValueError):
            rls.predict(lone(np.zeros(3), 1.0, 1.0), [[1.0, 2.0]], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            rls.predict(lone(np.zeros(3), 1.0, 1.0), [[1.0]] * 2, [[1.0]] * 2, [1.0] * 2)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 8), st.integers(1, 16), st.integers(0, 2**32 - 1))
    def test_matches_the_numpy_dot(self, n, rows, seed):
        # regressors and models of a cell's size: currents to 10 A, q/C to 2,
        # theta about the warm start, so no prediction cancels to near zero
        rng = np.random.default_rng(seed)
        warm = warm_start_theta(CellParams())
        est = rls.init(warm + rng.uniform(-1.0, 1.0, size=(n, 3)), 1.0, 1.0)
        currents, capacities = rng.uniform(-10.0, 10.0, (n, rows)), rng.uniform(2e3, 4e3, n)
        charges = rng.uniform(-2.0, 2.0, (n, rows)) * capacities[:, None]
        got = rls.predict(est, currents.tolist(), charges.tolist(), capacities.tolist())
        ref = numpy_predict(est, build_regressor(currents.T, charges.T, capacities))
        np.testing.assert_allclose(np.transpose(got), ref, rtol=1e-12, atol=0.0)

    def test_is_the_dot_of_the_innovation(self):
        rng = np.random.default_rng(41)
        est = rls.init(rng.normal(size=(4, 3)), 1e3, 0.98)
        for _ in range(200):
            currents, charges = rng.normal(size=4).tolist(), rng.normal(0.0, 300.0, 4).tolist()
            capacities = rng.uniform(2e3, 4e3, 4).tolist()
            y = rng.normal(3.7, 0.2, size=4).tolist()
            predicted = rls.predict(est, [[i] for i in currents], [[q] for q in charges],
                                    capacities)
            est = rls.update(est, rls.regressor_rows(currents, charges, capacities), y)
            assert est.innovation == tuple(v - p for v, (p,) in zip(y, predicted))


class TestFold:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 8), st.integers(1, 16), st.integers(0, 2**32 - 1), CONVERTERS)
    @example(4, 9, 0, ConverterParams(peak_current=0.0))
    def test_is_the_prediction_less_the_offset(self, n, rows, seed, conv):
        # cell-sized models, currents and charges as TestPredict draws them, over the
        # length of a real cycle: an idle converter's (zero peak) lasts 0 s
        rng = np.random.default_rng(seed)
        warm = warm_start_theta(CellParams())
        est = rls.init(warm + rng.uniform(-1.0, 1.0, size=(n, 3)), 1.0, 1.0)
        currents, capacities = rng.uniform(-10.0, 10.0, (n, rows)), rng.uniform(2e3, 4e3, n)
        charges = rng.uniform(-2.0, 2.0, n) * capacities
        voltages = sorted(rng.uniform(2.8, 4.4, 4).tolist(), reverse=True)
        duration = distinct_cycles(conv, voltages, (0, 1, 2))[2]
        offset = float(rng.uniform(2.8, 4.4))
        folded = rls.fold(est, duration, charges.tolist(), capacities.tolist(), offset)
        advanced = charges[:, None] + currents * duration
        want = rls.predict(est, currents.tolist(), advanced.tolist(), capacities.tolist())
        got = [[a * i + b + offset for i in ii] for (a, b), ii in zip(folded, currents.tolist())]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        if duration == 0.0:
            assert [a for a, _ in folded] == [t[0] for t in est.theta]


class TestConvergence:
    def test_noiseless_consistency(self):
        rng = np.random.default_rng(3)
        est = lone(np.zeros(3), 1e6, 1.0)
        for _ in range(80):
            x = exciting_regressor(rng)
            est = step(est, x, x @ THETA_STAR)
        assert np.max(np.abs(theta(est) - THETA_STAR)) < 1e-6

    def test_prediction_error_decay(self):
        # after the third sample the estimate is pinned and the a-priori
        # error stays at rounding level, so no visible uptick remains
        rng = np.random.default_rng(5)
        est = lone(np.zeros(3), 1e12, 1.0)
        errs = []
        for _ in range(40):
            x = exciting_regressor(rng)
            y = float(x @ THETA_STAR)
            errs.append(abs(y - rls.predict(est, [[x[0]]], [[x[1]]], [1.0])[0][0]))
            est = step(est, x, y)
        for k in range(3, len(errs) - 1):
            assert errs[k + 1] <= errs[k] + 1e-9, f"error rose at sample {k + 1}"

    def test_p0_scale_does_not_move_the_limit(self):
        rng = np.random.default_rng(9)
        data = [(exciting_regressor(rng),) for _ in range(100)]
        finals = []
        for p0 in (1e6, 1e7):
            est = lone(np.zeros(3), p0, 1.0)
            for (x,) in data:
                est = step(est, x, x @ THETA_STAR)
            finals.append(theta(est))
        # residual ridge bias scales with 1/p0; both live far below 1e-6
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-6
        assert np.max(np.abs(finals[0] - THETA_STAR)) < 1e-6

    def test_no_covariance_windup_without_excitation(self):
        # a constant regressor excites one direction only; unbounded 1/lambda
        # forgetting would inflate P along the other two past 1e49
        p0 = 1e6
        est = lone(np.zeros(3), p0, 0.995)
        x = np.array([0.0, 0.1, 1.0])
        for _ in range(20_000):
            est = step(est, x, 3.7)
        assert np.trace(cov(est)) <= 3.0 * p0
        assert np.linalg.eigvalsh(cov(est))[0] > 0.0

    @pytest.mark.parametrize("lam", [0.95, 0.99, 1.0])
    def test_covariance_stays_spd(self, lam):
        # light version of the long-haul check in the acceptance suite
        est = lone(np.zeros(3), 1e3, lam)
        rng = np.random.default_rng(int(lam * 100))
        for k in range(2000):
            est = step(est, rng.normal(size=3), rng.normal())
            if k % 50 == 0:
                assert np.array_equal(cov(est), cov(est).T)
                assert np.linalg.eigvalsh(cov(est))[0] > 0.0, f"lost PD at {k}"
        assert np.linalg.eigvalsh(cov(est))[0] > 0.0


class TestIdleStreams:
    """Long unexciting regressor streams (ROADMAP D4, F5): thousands of identical
    or zero-current rows excite one or two directions of P, so forgetting would
    wind the others up.  P stays finite, symmetric and positive definite, and its
    trace never exceeds the limit, for any covariance scale ``init`` accepts for
    the stream's regressor size."""

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(
        lam=st.floats(0.9, 1.0) | st.just(1.0) | st.floats(1e-6, 0.9),
        current=st.just(0.0) | st.floats(-50.0, 50.0),
        ratio=st.floats(-3.0, 3.0),
        zero_every=st.integers(0, 4),
        p0_fraction=st.floats(1e-300, 1.0),
        steps=st.integers(2000, 4000),
    )
    @example(lam=0.999, current=0.0, ratio=-1.1, zero_every=0, p0_fraction=1.0, steps=3000)
    def test_covariance_stays_finite_bounded_and_spd(
        self, lam, current, ratio, zero_every, p0_fraction, steps
    ):
        p0 = p0_fraction * rls.max_p0_scale(max(1.0, abs(current), abs(ratio)), lam)
        est = rls.init([THETA_STAR, THETA_STAR], p0, lam)
        rows = [(current, ratio, 1.0), (0.0, ratio, 1.0)]  # cell 2 never sees current
        for k in range(steps):
            x = (0.0 if zero_every and k % zero_every == 0 else current, ratio, 1.0)
            est = rls.update(est, [x, rows[1]], [3.7, 3.7])
            for p in est.covariance:
                assert all(map(math.isfinite, p)), k
                assert p[1] == p[3] and p[2] == p[6] and p[5] == p[7], k
                assert p[0] + p[4] + p[8] <= est.trace_limit, k
            if k % 500 == 0 or k == steps - 1:
                for j in range(2):
                    assert np.linalg.eigvalsh(cov(est, j))[0] > 0.0, (j, k)
        assert all(map(math.isfinite, (t for row in est.theta for t in row)))


class TestCovarianceIgnoresTheMeasurement:
    """The covariance update reads only the regressors (ROADMAP D15): two cells fed the
    same regressor rows end every ``update`` with bit-identical covariances, whatever
    their voltages and starting thetas."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(
        lam=st.floats(0.9, 1.0) | st.just(1.0),
        p0_fraction=st.floats(1e-6, 1.0),
        theta0=st.lists(st.tuples(*[st.floats(-10.0, 10.0)] * 3), min_size=2, max_size=2),
        samples=st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.floats(-2.0, 2.0), st.integers(1, 50),
                      st.floats(2.5, 4.5), st.floats(2.5, 4.5)),
            min_size=1, max_size=20,
        ),
    )
    def test_two_cells_with_one_regressor_history_share_their_covariance(
        self, lam, p0_fraction, theta0, samples
    ):
        # each sample's row repeats, so long unexciting runs reach the trace bound
        est = rls.init(theta0, p0_fraction * rls.max_p0_scale(10.0, lam), lam)
        for current, ratio, repeats, v_a, v_b in samples:
            for _ in range(repeats):
                est = rls.update(est, [(current, ratio, 1.0)] * 2, [v_a, v_b])
                assert est.covariance[0] == est.covariance[1]


class TestStacked:
    def test_stack_matches_single_estimators_bit_for_bit(self):
        # a 4-cell estimator fed a random stream carries, in each row, the
        # bits of a 1-cell estimator fed that row's column of the stream;
        # cells 1 and 2 see no current, so their covariance reaches the trace
        # bound and stops forgetting while cells 3 and 4 keep forgetting
        rng = np.random.default_rng(31)
        theta0 = rng.normal(size=(4, 3))
        stacked = rls.init(theta0, 1e3, 0.98)
        singles = [lone(t, 1e3, 0.98) for t in theta0]
        for _ in range(400):
            currents = (rng.normal(size=4) * [0.0, 0.0, 1.0, 1.0]).tolist()
            x = rls.regressor_rows(
                currents, rng.normal(0.0, 300.0, 4).tolist(), rng.uniform(2e3, 4e3, 4).tolist()
            )
            y = rng.normal(3.7, 0.2, size=4).tolist()
            stacked = rls.update(stacked, x, y)
            singles = [rls.update(e, [x[j]], [y[j]]) for j, e in enumerate(singles)]
            assert stacked.theta == tuple(e.theta[0] for e in singles)
            assert stacked.covariance == tuple(e.covariance[0] for e in singles)
            assert stacked.innovation == tuple(e.innovation[0] for e in singles)
            # 16 candidate currents and charges per cell
            cands = rng.normal(size=(2, 4, 16)).tolist() + [rng.uniform(2e3, 4e3, 4).tolist()]
            expected = [
                rls.predict(e, [cands[0][j]], [cands[1][j]], [cands[2][j]])[0]
                for j, e in enumerate(singles)
            ]
            assert rls.predict(stacked, *cands) == expected

