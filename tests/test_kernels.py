import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fptkit import (
    gaussian,
    gaussian_dx,
    psi,
    segment_weight,
)
from fptkit.kernels import smeared_gaussian, smeared_gaussian_dx, smeared_psi

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestGaussian:
    def test_peak_value(self):
        assert gaussian(0.0, 1.0, 0.0, 0.0) == pytest.approx(0.3989422804014327, rel=1e-15)

    def test_shift_invariance(self):
        # translation in space and time leaves the kernel unchanged
        assert gaussian(1.0, 2.0, 1.0, 1.0) == pytest.approx(0.3989422804014327, rel=1e-15)

    def test_two_sigma(self):
        # 1/sqrt(2 pi) e^{-2}
        assert gaussian(2.0, 1.0, 0.0, 0.0) == pytest.approx(0.05399096651318806, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gaussian(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian(0.0, 1.0, 0.0, 2.0)

    def test_underflow_is_exact_zero(self):
        assert gaussian(100.0, 1e-3, 0.0, 0.0) == 0.0

    def test_positive(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, 100)
        assert np.all(gaussian(x, 2.0, 0.0, 0.0) > 0.0)

    def test_normalization_trapezoid(self):
        # integral over +-10 standard deviations is 1 to 1e-9
        for dt in (1e-3, 0.7, 4.0):
            s = math.sqrt(dt)
            xs = np.linspace(-10 * s, 10 * s, 4001)
            total = np.trapezoid(gaussian(xs, dt, 0.0, 0.0), xs)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestGaussianDx:
    def test_vanishes_at_center(self):
        assert gaussian_dx(0.0, 1.0, 0.0, 0.0) == 0.0

    def test_one_sigma(self):
        assert gaussian_dx(1.0, 1.0, 0.0, 0.0) == pytest.approx(-0.24197072451914337, rel=1e-14)

    def test_odd_symmetry(self):
        assert gaussian_dx(-1.0, 1.0, 0.0, 0.0) == pytest.approx(0.24197072451914337, rel=1e-14)
        rng = np.random.default_rng(1)
        for _ in range(50):
            dx, dt = rng.uniform(0.1, 3.0), rng.uniform(0.01, 5.0)
            assert gaussian_dx(dx, dt) == pytest.approx(-gaussian_dx(-dx, dt), rel=1e-15)

    def test_matches_finite_difference(self):
        # central difference in x, relative 1e-7, away from the zero at x = r
        rng = np.random.default_rng(2)
        for _ in range(200):
            dt = rng.uniform(1e-3, 10.0)
            q = rng.uniform(0.01, 6.0) * rng.choice([-1.0, 1.0])
            x = q * math.sqrt(dt)
            h = 1e-5 * math.sqrt(dt)
            fd = (gaussian(x + h, dt) - gaussian(x - h, dt)) / (2.0 * h)
            assert gaussian_dx(x, dt) == pytest.approx(fd, rel=1e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gaussian_dx(0.0, 1.0, 0.0, 1.0)


class TestPsi:
    def test_half_at_zero(self):
        assert psi(0.0) == 0.5

    def test_deep_tail(self):
        assert psi(40.0) < 1e-300

    def test_one(self):
        assert psi(1.0) == pytest.approx(0.15865525393145705, rel=1e-12)

    def test_strictly_decreasing(self):
        # below z ~ -8, 1 - psi(z) is smaller than one ulp of 1.0, so
        # strictness is only meaningful where the value is representable
        z = np.linspace(-7.5, 8.0, 311)
        assert np.all(np.diff(psi(z)) < 0.0)

    @given(st.floats(min_value=-37.0, max_value=37.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_reflection(self, z):
        assert psi(z) + psi(-z) == pytest.approx(1.0, abs=1e-14)

    def test_tail_branch_continuity(self):
        # Psi is one erfc formula over the whole line: across z = 6, deep in
        # the tail, two points 2e-12 apart differ by the derivative step
        # phi(6) dz and no more (approx's default abs of 1e-12 alone would
        # pass any two values this small)
        lo, hi = 6.0 - 1e-12, 6.0 + 1e-12
        assert psi(lo) == pytest.approx(psi(hi), rel=1e-12)
        step = (hi - lo) * INV_SQRT_2PI * math.exp(-18.0)
        assert psi(lo) - psi(hi) == pytest.approx(step, rel=1e-3)

    def test_accuracy_vs_erfc_band(self):
        # relative error <= 1e-12 against mpmath-grade values for |z| <= 8
        from scipy import special

        z = np.linspace(-8.0, 8.0, 161)
        ref = 0.5 * special.erfc(z / math.sqrt(2.0))
        assert np.max(np.abs(psi(z) / ref - 1.0)) < 1e-12


class TestSegmentWeight:
    def test_unit_weight(self):
        assert segment_weight(0.0, 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_full_singular_segment(self):
        assert segment_weight(-0.5, 1.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_half_segment(self):
        assert segment_weight(-0.5, 1.0, 0.0, 0.5) == pytest.approx(0.5857864376269049, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            segment_weight(-1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            segment_weight(0.0, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            segment_weight(0.0, 1.0, 0.5, 1.5)

    @given(
        st.floats(min_value=-0.95, max_value=2.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_additivity(self, beta, u, v):
        # split [a, c] at any interior b: weights add up (relative 1e-12)
        t = 1.0
        a = 0.0
        c = min(u + v, 0.999)
        b = u * c / (u + v)
        if not a < b < c:
            return
        whole = segment_weight(beta, t, a, c)
        split = segment_weight(beta, t, a, b) + segment_weight(beta, t, b, c)
        assert split == pytest.approx(whole, rel=1e-12)

    def test_vectorized(self):
        a = np.array([0.0, 0.25, 0.5])
        b = np.array([0.25, 0.5, 1.0])
        vals = segment_weight(-0.5, 1.0, a, b)
        assert vals.shape == (3,)
        assert np.sum(vals) == pytest.approx(2.0, rel=1e-14)


#: uniform bumps (centre, width), narrow to wide
BUMPS = st.tuples(st.floats(min_value=-2.0, max_value=1.0),
                  st.floats(min_value=0.05, max_value=3.0))


class TestSmearedClosedForms:
    @staticmethod
    def _quad(f, r0, width, x):
        """int h(xi) f(xi) dxi over the bump h = 1/width, piece by piece, split at x
        where it falls inside."""
        lo, hi = r0 - width / 2.0, r0 + width / 2.0
        cuts = [lo, x, hi] if lo < x < hi else [lo, hi]
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            val, _ = integrate.quad(lambda xi: f(xi) / width, a, b,
                                    epsabs=1e-12, epsrel=1e-12, limit=200)
            total += val
        return total

    @given(
        BUMPS,
        st.floats(min_value=1e-3, max_value=4.0),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_quadrature(self, bump, t, x):
        free = self._quad(lambda xi: gaussian(x, t, xi, 0.0), *bump, x)
        dx = self._quad(lambda xi: gaussian_dx(x, t, xi, 0.0), *bump, x)
        lhs = self._quad(lambda xi: psi((x - xi) / math.sqrt(t)), *bump, x)
        assert smeared_gaussian(x, t, *bump) == pytest.approx(free, abs=1e-10)
        assert smeared_gaussian_dx(x, t, *bump) == pytest.approx(dx, abs=1e-10)
        assert smeared_psi(x, t, *bump) == pytest.approx(lhs, abs=1e-10)

    @given(st.floats(min_value=-2.0, max_value=1.0), st.floats(min_value=1e-3, max_value=4.0),
           st.floats(min_value=-4.0, max_value=4.0))
    @settings(max_examples=50, deadline=None)
    def test_width_zero_is_the_point_mass(self, r0, t, x):
        assert smeared_gaussian(x, t, r0, 0.0) == gaussian(x, t, r0, 0.0)
        assert smeared_gaussian_dx(x, t, r0, 0.0) == gaussian_dx(x, t, r0, 0.0)
        assert smeared_psi(x, t, r0, 0.0) == psi((x - r0) / math.sqrt(t))

    def test_vectorized(self):
        xs = np.linspace(-2.0, 2.0, 7)
        ts = np.full(7, 0.5)
        for fn in (smeared_gaussian, smeared_gaussian_dx, smeared_psi):
            for bump in ((-0.25, 1.5), (-0.25, 0.0)):
                vals = fn(xs, ts, *bump)
                assert vals.shape == (7,)
                assert np.array_equal(vals, [fn(x, 0.5, *bump) for x in xs])

    def test_domain_error(self):
        for width in (1.0, 0.0):
            for fn in (smeared_gaussian, smeared_gaussian_dx, smeared_psi):
                with pytest.raises(ValueError):
                    fn(0.0, 0.0, 0.5, width)


#: the unit bump on [-0.5, 0.5], as (centre, width)
BUMP = (0.0, 1.0)
#: every Gaussian factor at a subnormal time, or far out in Psi's tail: the
#: exponent overflows to -inf, a factor of exactly 0
TINY_T = {
    "gaussian": lambda: gaussian(1.0, 1e-310),
    "gaussian_dx": lambda: gaussian_dx(1.0, 1e-310),
    "smeared_gaussian": lambda: smeared_gaussian(1.0, 1e-310, *BUMP),
    "smeared_gaussian_dx": lambda: smeared_gaussian_dx(1.0, 1e-310, *BUMP),
    "smeared_psi": lambda: smeared_psi(1.0, 1e-310, *BUMP),
    "psi": lambda: psi(1e200),
}


@pytest.mark.parametrize("call", TINY_T.values(), ids=TINY_T.keys())
def test_overflowing_exponent_is_a_silent_zero(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call() == 0.0


@pytest.mark.parametrize("z, limit", [(-1.0, 1.0), (0.0, 0.5), (0.25, 0.25), (1.0, 0.0)])
def test_smeared_psi_at_a_subnormal_time_is_its_limit(z, limit):
    # as t -> 0, Psi((z - xi)/sqrt(t)) tends to the indicator of xi > z, so
    # the integral is the mass of h above z, reached with no inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert smeared_psi(z, 1e-310, *BUMP) == limit


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate pulls in scipy.optimize, a large share of the import time
    import fptkit

    src = str(Path(fptkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fptkit; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
