"""Gaussian heat kernel, normal survival function, and singular-weight moments.

Everything in this module is a pure function of its arguments, usable on
scalars or numpy arrays.  The kernel follows the standard Brownian
convention Var(B_t - B_s) = t - s:

    G(x, t; r, s) = exp(-(x - r)^2 / (2 (t - s))) / sqrt(2 pi (t - s))

together with its spatial derivative G_x and the upper-tail normal
probability

    Psi(z) = int_z^inf exp(-u^2 / 2) / sqrt(2 pi) du.

The `smeared_*` functions integrate G, G_x and Psi exactly against a
piecewise-linear initial density h: on each linear piece the integrals
reduce to normal-integral identities (Owen, "A table of normal
integrals", 1980), so no adaptive quadrature is needed.

The moment integral at the bottom, `segment_weight`, integrates a weakly
singular weight (t - tau)^beta exactly over one subinterval, the building
block of product integration against piecewise-linear co-factors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# exp() underflows to subnormals below roughly -745; treat anything past it
# as an exact zero so far-field kernel tails drop out of quadratures cleanly.
_EXP_UNDERFLOW = -745.0

# switch point between plain erfc and the scaled-erfcx evaluation of Psi
_PSI_TAIL_Z = 6.0


def _elapsed(t, s):
    """Validated t - s, positive elementwise."""
    dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("heat kernel requires t > s")
    return dt


def exp_clipped(arg):
    """exp() that maps deep-underflow arguments to exact 0.0."""
    arg = np.asarray(arg, dtype=float)
    out = np.exp(np.maximum(arg, _EXP_UNDERFLOW))
    out = np.where(arg < _EXP_UNDERFLOW, 0.0, out)
    return out


def gaussian(x, t, r=0.0, s=0.0):
    """Heat kernel G(x, t; r, s) of standard Brownian motion.

    Strictly positive (or exactly 0.0 on deep underflow); raises
    ValueError when t <= s.
    """
    dt = _elapsed(t, s)
    dx = np.asarray(x, dtype=float) - np.asarray(r, dtype=float)
    val = exp_clipped(-dx * dx / (2.0 * dt)) / np.sqrt(2.0 * math.pi * dt)
    return val if val.ndim else float(val)


def gaussian_dx(x, t, r=0.0, s=0.0):
    """Spatial derivative G_x(x, t; r, s) = -((x - r)/(t - s)) G."""
    dt = _elapsed(t, s)
    dx = np.asarray(x, dtype=float) - np.asarray(r, dtype=float)
    val = -(dx / dt) * exp_clipped(-dx * dx / (2.0 * dt)) / np.sqrt(2.0 * math.pi * dt)
    return val if val.ndim else float(val)


def psi(z):
    """Upper-tail standard normal probability Psi(z) = P(Z >= z).

    Evaluated as erfc(z / sqrt(2)) / 2 for moderate z and via the scaled
    complementary error function for z > 6, which keeps the result
    accurate in relative terms deep into the tail (until exp(-z^2/2)
    itself underflows).
    """
    z = np.asarray(z, dtype=float)
    arg = z / math.sqrt(2.0)
    with np.errstate(under="ignore"):
        head = 0.5 * special.erfc(arg)
        # clamp keeps the (discarded) erfcx branch finite where z <= 6
        tail = 0.5 * special.erfcx(np.maximum(arg, 0.0)) * exp_clipped(-z * z / 2.0)
    val = np.where(z > _PSI_TAIL_Z, tail, head)
    return val if val.ndim else float(val)


def _phi(u):
    """Standard normal density, exactly 0.0 on deep underflow."""
    return exp_clipped(-u * u / 2.0) / SQRT_TWO_PI


def _standardised(x, t, knots_x, knots_y):
    """Broadcast x and t, and standardise the knots against them.

    Returns (sqrt(t), u, slope, h_x): u = (knot - x) / sqrt(t) with the
    knot axis last, the slope of each linear piece of h, and each piece's
    linear extension evaluated at x.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), _elapsed(t, 0.0))
    kx = np.asarray(knots_x, dtype=float)
    ky = np.asarray(knots_y, dtype=float)
    rt = np.sqrt(t)
    u = (kx - x[..., None]) / rt[..., None]
    slope = np.diff(ky) / np.diff(kx)
    h_x = ky[:-1] + slope * (x[..., None] - kx[:-1])
    return rt, u, slope, h_x


def smeared_gaussian(x, t, knots_x, knots_y):
    """Free evolution int h(xi) G(x, t; xi, 0) dxi of a piecewise-linear h.

    h interpolates (knots_x, knots_y) linearly, knots strictly increasing,
    and vanishes outside [knots_x[0], knots_x[-1]].  With
    u = (xi - x) / sqrt(t), the piece alpha + beta xi on [a, b] contributes

        (alpha + beta x) [Psi(u_a) - Psi(u_b)] + beta sqrt(t) [phi(u_a) - phi(u_b)].

    Vectorised over broadcast x and t > 0.
    """
    rt, u, slope, h_x = _standardised(x, t, knots_x, knots_y)
    mass = -np.diff(psi(u), axis=-1)
    dens = -np.diff(_phi(u), axis=-1)
    val = np.sum(h_x * mass + slope * rt[..., None] * dens, axis=-1)
    return val if val.ndim else float(val)


def smeared_gaussian_dx(x, t, knots_x, knots_y):
    """int h(xi) G_x(x, t; xi, 0) dxi of a piecewise-linear h.

    Integrating by parts with G_x = -G_xi, the piece alpha + beta xi on
    [a, b] contributes h(a) G(x; a) - h(b) G(x; b) + beta [Psi(u_a) - Psi(u_b)];
    h is continuous at interior knots, so only the end knots' G terms
    survive the sum.  Vectorised over broadcast x and t > 0.
    """
    rt, u, slope, _ = _standardised(x, t, knots_x, knots_y)
    ky = np.asarray(knots_y, dtype=float)
    mass = -np.diff(psi(u), axis=-1)
    ends = (ky[0] * _phi(u[..., 0]) - ky[-1] * _phi(u[..., -1])) / rt
    val = ends + np.sum(slope * mass, axis=-1)
    return val if val.ndim else float(val)


def smeared_psi(z, t, knots_x, knots_y):
    """int h(xi) Psi((z - xi) / sqrt(t)) dxi of a piecewise-linear h.

    With v = (z - xi) / sqrt(t) the piece alpha + beta xi on [a, b]
    contributes sqrt(t) [(alpha + beta z) dI0 - beta sqrt(t) dI1], where
    dI = I(v_a) - I(v_b) for the antiderivatives

        I0(v) = v Psi(v) - phi(v),   I1(v) = ((v^2 - 1) Psi(v) - v phi(v)) / 2

    of Psi(v) and v Psi(v).  Vectorised over broadcast z and t > 0.
    """
    rt, u, slope, h_z = _standardised(z, t, knots_x, knots_y)
    v = -u
    ps, ph = psi(v), _phi(v)
    d0 = -np.diff(v * ps - ph, axis=-1)
    d1 = -np.diff(((v * v - 1.0) * ps - v * ph) / 2.0, axis=-1)
    rt = rt[..., None]
    val = np.sum(rt * (h_z * d0 - slope * rt * d1), axis=-1)
    return val if val.ndim else float(val)


def segment_weight(beta, t, a, b):
    """Exact subinterval moment int_a^b (t - tau)^beta dtau.

    Evaluates ((t-a)^(beta+1) - (t-b)^(beta+1)) / (beta + 1); the b = t
    endpoint is the plain limit (t-a)^(beta+1)/(beta+1).  Requires
    beta > -1 and a < b <= t, elementwise when a, b are arrays.
    """
    if beta <= -1.0:
        raise ValueError("segment_weight requires beta > -1")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a >= b) or np.any(b > t):
        raise ValueError("segment_weight requires a < b <= t")
    bp1 = beta + 1.0
    val = ((t - a) ** bp1 - (t - b) ** bp1) / bp1
    return val if val.ndim else float(val)
