import math

import numpy as np
import pytest

from fptkit import BoundaryCurve, estimate_holder


class TestEval:
    def test_linear(self):
        curve = BoundaryCurve.linear(1.0, 2.0)
        assert curve.value(0.5) == 2.0

    def test_power_at_origin(self):
        curve = BoundaryCurve.power(1.0, 1.0, 0.75)
        assert curve.value(0.0) == 1.0

    def test_constant(self):
        assert BoundaryCurve.constant(1.0).value(3.7) == 1.0

    def test_vectorized(self):
        curve = BoundaryCurve.linear(0.0, 1.0)
        ts = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(curve.value(ts), ts)

    def test_linear_and_constant_through_the_power_formula(self):
        # a + b t^1 is a + b t to the last bit, and its slope b t^0 is b
        ts = np.random.default_rng(3).uniform(0.0, 10.0, 10_000)
        curve = BoundaryCurve.linear(-0.3, 1.7)
        assert np.array_equal(curve.value(ts), -0.3 + 1.7 * ts)
        assert np.array_equal(curve.slope(ts[ts > 0.0]), np.full(np.sum(ts > 0.0), 1.7))
        assert np.array_equal(BoundaryCurve.constant(2.5).value(ts), np.full(len(ts), 2.5))

    def test_domain_errors(self):
        curve = BoundaryCurve.sampled([0.0, 1.0, 2.0], [1.0, 1.5, 1.2])
        with pytest.raises(ValueError):
            curve.value(2.5)
        with pytest.raises(ValueError):
            curve.value(-0.1)

    def test_sampled_reproduces_knots(self):
        t = [0.0, 0.3, 1.1, 2.0]
        x = [1.0, 1.4, 0.9, 1.7]
        curve = BoundaryCurve.sampled(t, x)
        for ti, xi in zip(t, x):
            assert curve.value(ti) == xi


class TestSlope:
    def test_closed_form_families(self):
        ts = np.array([0.25, 1.0, 3.0])
        assert np.array_equal(BoundaryCurve.constant(1.0).slope(ts), np.zeros(3))
        assert np.array_equal(BoundaryCurve.linear(1.0, -0.5).slope(ts), np.full(3, -0.5))
        power = BoundaryCurve.power(1.0, 0.5, 0.6)
        assert np.allclose(power.slope(ts), 0.5 * 0.6 * ts ** -0.4, rtol=1e-15, atol=0.0)
        assert power.slope(1.0) == pytest.approx(0.3, rel=1e-15)

    def test_power_matches_difference_quotient(self):
        curve = BoundaryCurve.power(1.0, 0.5, 0.75)
        for t in (0.01, 0.5, 2.0):
            h = 1e-6 * t
            quotient = (curve.value(t) - curve.value(t - h)) / h
            assert curve.slope(t) == pytest.approx(quotient, rel=1e-6)

    def test_sampled_takes_the_piece_ending_at_t(self):
        curve = BoundaryCurve.sampled([0.0, 1.0, 2.5, 4.0], [1.0, 1.4, 1.2, 1.6])
        left = [0.4, 0.4, -0.2 / 1.5, -0.2 / 1.5, 0.4 / 1.5]
        got = curve.slope([0.5, 1.0, 1.0 + 1e-12, 2.5, 4.0])
        assert np.allclose(got, left, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("t", [0.0, -0.5, 2.5])
    def test_domain(self, t):
        with pytest.raises(ValueError, match="slope"):
            BoundaryCurve.sampled([0.0, 1.0, 2.0], [1.0, 1.5, 1.2]).slope(t)


class TestConstruction:
    def test_gamma_must_exceed_half(self):
        # gamma is no parameter: only power's theta sets it, checked in (1/2, 1]
        with pytest.raises(ValueError, match=r"\(1/2, 1\]"):
            BoundaryCurve.power(1.0, 1.0, theta=0.5)
        with pytest.raises(ValueError, match=r"\(1/2, 1\]"):
            BoundaryCurve.power(1.0, 1.0, theta=1.2)
        with pytest.raises(TypeError):
            BoundaryCurve.linear(1.0, 0.0, gamma=0.5)

    def test_power_theta_must_exceed_half(self):
        with pytest.raises(ValueError):
            BoundaryCurve.power(1.0, 1.0, theta=0.5)
        with pytest.raises(ValueError):
            BoundaryCurve.power(1.0, 1.0, theta=0.3)

    def test_power_default_gamma_is_theta(self):
        assert BoundaryCurve.power(1.0, 1.0, 0.8).gamma == 0.8
        assert BoundaryCurve.power(1.0, -0.5, 1.0).gamma == 1.0

    def test_gamma_is_derived(self):
        # the Hölder exponent is 1 for the Lipschitz families and read-only
        for curve in (BoundaryCurve.constant(1.0), BoundaryCurve.linear(1.0, 0.5),
                      BoundaryCurve.sampled([0.0, 1.0], [1.0, 1.5])):
            assert curve.gamma == 1.0
        with pytest.raises(AttributeError):
            BoundaryCurve.linear(1.0, 0.5).gamma = 0.75

    @pytest.mark.parametrize("kind", ["constant", "linear", "sampled"])
    def test_lipschitz_families_take_theta_one(self, kind):
        # constant and linear evaluate as the power curve a + b t^theta
        knots = {"knots_t": np.array([0.0, 1.0]), "knots_x": np.array([1.0, 1.5])}
        with pytest.raises(ValueError, match="theta 1"):
            BoundaryCurve(kind=kind, a=1.0, b=0.5 * (kind != "constant"),
                          theta=0.75, **(knots if kind == "sampled" else {}))
        if kind == "constant":
            with pytest.raises(ValueError, match="b 0"):
                BoundaryCurve(kind=kind, a=1.0, b=0.5)

    def test_sampled_knot_validation(self):
        with pytest.raises(ValueError, match="start at t = 0"):
            BoundaryCurve.sampled([0.5, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            BoundaryCurve.sampled([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("make", [
        lambda: BoundaryCurve.constant(math.inf),
        lambda: BoundaryCurve.linear(math.inf, 0.5),
        lambda: BoundaryCurve.linear(1.0, math.nan),
        lambda: BoundaryCurve.linear(1.0, -math.inf),
        lambda: BoundaryCurve.power(math.nan, 0.5, 0.75),
        lambda: BoundaryCurve.power(1.0, 0.5, math.nan),
    ], ids=["constant_a_inf", "linear_a_inf", "linear_b_nan", "linear_b_-inf",
            "power_a_nan", "power_theta_nan"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_arbitrary_start_height(self):
        # X_0 need not be 0; only r0 < X_0 matters to the solvers
        assert BoundaryCurve.linear(-3.0, 1.0).x0 == -3.0


class TestCsv(object):
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("t,x\n0.0,1.0\n0.5,1.2\n1.0,1.1\n")
        curve = BoundaryCurve.from_csv(path)
        assert curve.value(0.5) == 1.2
        assert curve.horizon == 1.0
        assert curve.gamma == 1.0

    def test_header_required(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("0.0,1.0\n1.0,1.1\n")
        with pytest.raises(ValueError, match="header"):
            BoundaryCurve.from_csv(path)

    def test_times_must_increase_from_zero(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("t,x\n0.0,1.0\n0.5,1.2\n0.4,1.1\n")
        with pytest.raises(ValueError):
            BoundaryCurve.from_csv(path)

    @pytest.mark.parametrize("row", ["1", "1,1.1,2"], ids=["one_field", "three_fields"])
    def test_row_needs_two_fields(self, tmp_path, row):
        path = tmp_path / "curve.csv"
        path.write_text(f"t,x\n0,1\n{row}\n")
        with pytest.raises(ValueError, match="line 3: expected 2 fields"):
            BoundaryCurve.from_csv(path)


class TestHolderEstimate:
    def test_constant_curve(self):
        est = estimate_holder(BoundaryCurve.constant(1.0), (0.0, 1.0), levels=8)
        assert est.m == 0.0

    def test_linear_exact(self):
        # Lipschitz constant 2 times the 1.25 safety factor
        est = estimate_holder(BoundaryCurve.linear(0.0, 2.0), (0.0, 1.0), levels=8)
        assert est.m == pytest.approx(2.5, abs=1e-9)

    def test_linear_safety_consistency(self):
        for b in (0.5, -1.5, 3.0):
            est = estimate_holder(BoundaryCurve.linear(1.0, b), (0.0, 2.0), levels=6)
            assert est.m == pytest.approx(1.25 * abs(b), abs=1e-9)

    def test_power_three_quarters(self):
        # the exact Hölder-0.75 constant of t^0.75 on [0, 1] is 1
        est = estimate_holder(BoundaryCurve.power(0.0, 1.0, 0.75), (0.0, 1.0), levels=10)
        assert 1.25 <= est.m <= 1.35

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            estimate_holder(BoundaryCurve.constant(1.0), (1.0, 1.0))

    @pytest.mark.parametrize(
        "curve",
        [
            BoundaryCurve.constant(1.0),
            BoundaryCurve.linear(1.0, 0.5),
            BoundaryCurve.linear(0.0, -2.0),
            BoundaryCurve.power(1.0, 0.5, 0.75),
            BoundaryCurve.power(0.0, 1.0, 0.6),
        ],
    )
    def test_estimate_dominates_random_pairs(self, curve):
        # |X_t2 - X_t1| <= m |t2 - t1|^gamma over 1e4 random pairs
        est = estimate_holder(curve, (0.0, 2.0), levels=12)
        rng = np.random.default_rng(42)
        t1 = rng.uniform(0.0, 2.0, 10_000)
        t2 = rng.uniform(0.0, 2.0, 10_000)
        keep = t1 != t2
        t1, t2 = t1[keep], t2[keep]
        lhs = np.abs(np.asarray(curve.value(t2)) - np.asarray(curve.value(t1)))
        rhs = est.m * np.abs(t2 - t1) ** curve.gamma
        assert np.all(lhs <= rhs + 1e-12)
