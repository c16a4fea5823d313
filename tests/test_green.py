import math
import tracemalloc

import numpy as np
import pytest

from fptkit import (
    BoundaryCurve,
    GreenField,
    SourceSpec,
    TimeGrid,
    boundary_flux,
    gaussian,
    green_eval,
    psi,
    solve_marching,
    survival,
)
from fptkit.green import EMISSION_BLOCK_BYTES

POINT = SourceSpec.point(0.0)


@pytest.fixture(scope="module")
def const_field():
    curve = BoundaryCurve.constant(1.0)
    grid = TimeGrid(T=4.0, N=2048, q=2.0)
    est = solve_marching(POINT, curve, grid)
    return GreenField(curve=curve, src=POINT, density=est)


@pytest.fixture(scope="module")
def linear_field():
    curve = BoundaryCurve.linear(1.0, 0.5)
    grid = TimeGrid(T=4.0, N=2048, q=2.0)
    est = solve_marching(POINT, curve, grid)
    return GreenField(curve=curve, src=POINT, density=est)


def images(x, t, a=1.0, r0=0.0):
    """Method-of-images Green function for the constant boundary."""
    return gaussian(x, t, r0) - gaussian(x, t, 2.0 * a - r0)


class TestGreenEval:
    def test_images_at_origin(self, const_field):
        # G(0,1;0,0) - G(0,1;2,0) = (1 - e^-2)/sqrt(2 pi)
        assert green_eval(const_field, 0.0, 1.0) == pytest.approx(0.3449513138882446, abs=1e-5)

    def test_images_probe_grid(self, const_field):
        # uniform agreement on a 20 x 20 lattice
        xs = np.linspace(-3.0, 0.999, 20)
        worst = 0.0
        for t in np.linspace(0.2, 4.0, 20):
            vals = green_eval(const_field, xs, float(t))
            worst = max(worst, float(np.max(np.abs(vals - images(xs, t)))))
        assert worst <= 5e-4

    def test_vanishes_on_boundary(self, linear_field):
        xt = float(linear_field.curve.value(1.0))
        assert abs(green_eval(linear_field, xt, 1.0)) <= 2e-3

    def test_vanishes_outside(self, linear_field):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = float(rng.uniform(0.2, 4.0))
            x = float(linear_field.curve.value(t)) + float(rng.uniform(0.0, 3.0))
            assert abs(green_eval(linear_field, x, t)) <= 2e-3

    @pytest.mark.parametrize("t", [0.37, 1.0, 4.0])
    def test_array_call_equals_scalar_calls(self, linear_field, t):
        # a 2-D lattice that includes the boundary point itself and the exterior
        xt = float(linear_field.curve.value(t))
        xs = np.append(np.linspace(-3.0, xt + 1.0, 34), xt).reshape(5, 7)
        vals = green_eval(linear_field, xs, t)
        assert vals.shape == xs.shape
        scalars = [green_eval(linear_field, float(x), t) for x in xs.ravel()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(vals.ravel(), np.array(scalars))

    def test_array_call_equals_scalar_calls_across_blocks(self, linear_field):
        # enough x-points for three row blocks of the emission sum
        t = 1.0
        rows = EMISSION_BLOCK_BYTES // (8 * len(linear_field.density.history(t, -0.5)[0]))
        xs = np.linspace(-3.0, float(linear_field.curve.value(t)), 2 * rows + 3)
        vals = green_eval(linear_field, xs, t)
        assert np.array_equal(vals, np.array([green_eval(linear_field, float(x), t) for x in xs]))

    def test_peak_memory_is_one_emission_block(self):
        # 2048 x-points against ~4300 history nodes are 67 MiB in one array
        curve = BoundaryCurve.linear(1.0, 0.5)
        est = solve_marching(POINT, curve, TimeGrid(T=4.0, N=4096, q=2.0))
        fld = GreenField(curve=curve, src=POINT, density=est)
        xs = np.linspace(-3.0, float(curve.value(4.0)), 2048)
        tracemalloc.start()
        try:
            green_eval(fld, xs, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("t", [1e-300, 1e-310, 5e-324])
    def test_tiny_times_stay_finite(self, linear_field, t):
        # the exponents overflow to -inf, factors of exactly 0, with no
        # RuntimeWarning: G^X is the free kernel at x = r0 and 0 elsewhere
        vals = green_eval(linear_field, np.array([0.0, 0.5, 1.0]), t)
        assert np.all(np.isfinite(vals)) and vals[0] > 0.0 and np.all(vals[1:] == 0.0)

    def test_domain_error(self, const_field):
        with pytest.raises(ValueError):
            green_eval(const_field, 0.0, 0.0)
        with pytest.raises(ValueError):
            green_eval(const_field, 0.0, 5.0)

    def test_fingerprint_mismatch_rejected(self, const_field):
        other_curve = BoundaryCurve.constant(1.5)
        with pytest.raises(ValueError, match="fingerprint"):
            GreenField(curve=other_curve, src=POINT, density=const_field.density)


class TestSurvival:
    def test_constant_boundary_reflection(self, const_field):
        assert survival(const_field, 1.0) == pytest.approx(1.0 - 2.0 * psi(1.0), abs=5e-4)

    def test_short_time_no_absorption(self, linear_field):
        assert survival(linear_field, 1e-4) >= 1.0 - 1e-6

    def test_long_time_total_crossing_bound(self):
        # P(ever hit 1 + t) = e^-2, so S(50) >= 1 - e^-2 - tolerance
        curve = BoundaryCurve.linear(1.0, 1.0)
        est = solve_marching(POINT, curve, TimeGrid(T=50.0, N=2048, q=2.0))
        fld = GreenField(curve=curve, src=POINT, density=est)
        assert survival(fld, 50.0) >= 1.0 - math.exp(-2.0) - 1e-3

    def test_mass_conservation_families(self):
        # S(t) + F(t) = 1 at quarter points for every builtin family
        grid = TimeGrid(T=4.0, N=2048, q=2.0)
        for curve in (
            BoundaryCurve.constant(1.0),
            BoundaryCurve.linear(1.0, 0.5),
            BoundaryCurve.power(1.0, 0.5, 0.75),
        ):
            est = solve_marching(POINT, curve, grid)
            fld = GreenField(curve=curve, src=POINT, density=est)
            for t in (1.0, 2.0, 4.0):
                assert survival(fld, t) + est.cdf(t) == pytest.approx(1.0, abs=2e-3)

    def test_peak_memory_is_a_few_history_rows(self):
        # the closed form takes one row of Psi against the ~4300 history
        # nodes.  A first call imports numpy.ma (through np.union1d), so the
        # traced call is the second
        curve = BoundaryCurve.linear(1.0, 0.5)
        est = solve_marching(POINT, curve, TimeGrid(T=4.0, N=4096, q=2.0))
        fld = GreenField(curve=curve, src=POINT, density=est)
        survival(fld, 4.0)
        tracemalloc.start()
        try:
            survival(fld, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < EMISSION_BLOCK_BYTES / 2


class TestBoundaryFlux:
    def test_constant_boundary_matches_closed_form(self, const_field):
        assert boundary_flux(const_field, 1.0) == pytest.approx(0.24197072451914337, rel=1e-2)

    def test_linear_matches_density(self, linear_field):
        p2 = linear_field.density.density_at(2.0)
        assert boundary_flux(linear_field, 2.0) == pytest.approx(p2, rel=1e-2)

    def test_flux_identity_interior_times(self, linear_field):
        for t in (0.5, 1.0, 2.0):
            flux = boundary_flux(linear_field, t)
            p = linear_field.density.density_at(t)
            assert abs(flux - p) / max(p, 1e-3) <= 2e-2

    def test_early_time_flux_negligible(self, const_field):
        # closed-form density at t = 0.01 for gap 1 is ~1e-2172
        assert abs(boundary_flux(const_field, 0.01)) <= 1e-10


@pytest.fixture(scope="module")
def smeared_field():
    curve = BoundaryCurve.linear(1.0, 0.5)
    h = SourceSpec.uniform_bump(0.0, 0.25)
    est = solve_marching(h, curve, TimeGrid(T=2.0, N=512, q=2.0))
    return GreenField(curve=curve, src=h, density=est)


class TestSmearedSolution:
    """u(x, t) for a smeared initial datum h is the Green function of h's field."""

    def test_initial_datum(self, smeared_field):
        # at t -> 0 the solution approaches h = 1/width pointwise inside the support
        h0 = 1.0 / smeared_field.src.width
        assert green_eval(smeared_field, 0.0, 1e-5) == pytest.approx(h0, abs=1e-2)

    def test_boundary_condition(self, smeared_field):
        xt = float(smeared_field.curve.value(1.0))
        assert abs(green_eval(smeared_field, xt, 1.0)) <= 2e-3

    def test_decay_at_minus_infinity(self, smeared_field):
        x = float(smeared_field.curve.value(1.0)) - 50.0
        assert abs(green_eval(smeared_field, x, 1.0)) <= 1e-12

    def test_fingerprint_guard(self, smeared_field):
        other = SourceSpec.uniform_bump(0.0, 0.5)
        with pytest.raises(ValueError, match="fingerprint"):
            GreenField(curve=smeared_field.curve, src=other, density=smeared_field.density)
