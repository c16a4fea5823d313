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

Every Gaussian factor is a plain `np.exp` of -(square) / (2 variance),
exactly 0.0 from an argument of about -745.13 down.  At a tiny (say
subnormal) time that argument overflows to -inf, a factor of exactly 0,
so each evaluation runs under `np.errstate(over="ignore")`, as the
solver's assembler and `green.green_eval` do.

The moment integral at the bottom, `segment_weight`, integrates a weakly
singular weight (t - tau)^beta exactly over one subinterval, the building
block of product integration against piecewise-linear co-factors.
"""

from __future__ import annotations

import math
import sys

import numpy as np

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: the C library's erfc, applied to each element of an array
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _elapsed(t, s):
    """Validated t - s, positive elementwise."""
    dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("heat kernel requires t > s")
    return dt


def gaussian(x, t, r=0.0, s=0.0):
    """Heat kernel G(x, t; r, s) of standard Brownian motion.

    Strictly positive (or exactly 0.0 on deep underflow); raises
    ValueError when t <= s.
    """
    dt = _elapsed(t, s)
    dx = np.asarray(x, dtype=float) - np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        val = np.exp(-dx * dx / (2.0 * dt)) / np.sqrt(2.0 * math.pi * dt)
    return val if val.ndim else float(val)


def gaussian_dx(x, t, r=0.0, s=0.0):
    """Spatial derivative G_x(x, t; r, s) = -((x - r)/(t - s)) G."""
    dt = _elapsed(t, s)
    dx = np.asarray(x, dtype=float) - np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        # a quotient past the float range meets a factor of exactly 0;
        # clipped, it keeps the product a signed 0 instead of inf * 0
        quotient = np.clip(dx / dt, -sys.float_info.max, sys.float_info.max)
        val = -quotient * np.exp(-dx * dx / (2.0 * dt)) / np.sqrt(2.0 * math.pi * dt)
    return val if val.ndim else float(val)


def psi(z):
    """Upper-tail standard normal probability Psi(z) = P(Z >= z).

    Evaluated as erfc(z / sqrt(2)) / 2 by `math.erfc`, one element at a
    time; the C library's erfc keeps its relative accuracy deep into the
    tail, until the result itself underflows.
    """
    z = np.asarray(z, dtype=float)
    val = np.empty_like(z)
    _erfc(z / math.sqrt(2.0), out=val, casting="unsafe")
    val *= 0.5
    return val if val.ndim else float(val)


def _phi(u):
    """Standard normal density, exactly 0.0 on deep underflow."""
    with np.errstate(over="ignore"):
        return np.exp(-u * u / 2.0) / SQRT_TWO_PI


def _offsets(x, t, knots_x, knots_y):
    """Broadcast x and t, and measure the knots from x.

    Returns (sqrt(t), d, slope, h_x): d = knot - x with the knot axis last,
    the slope of each linear piece of h, and each piece's linear extension
    evaluated at x.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), _elapsed(t, 0.0))
    kx = np.asarray(knots_x, dtype=float)
    ky = np.asarray(knots_y, dtype=float)
    slope = np.diff(ky) / np.diff(kx)
    h_x = ky[:-1] + slope * (x[..., None] - kx[:-1])
    return np.sqrt(t), kx - x[..., None], slope, h_x


def smeared_gaussian(x, t, knots_x, knots_y):
    """Free evolution int h(xi) G(x, t; xi, 0) dxi of a piecewise-linear h.

    h interpolates (knots_x, knots_y) linearly, knots strictly increasing,
    and vanishes outside [knots_x[0], knots_x[-1]].  With
    u = (xi - x) / sqrt(t), the piece alpha + beta xi on [a, b] contributes

        (alpha + beta x) [Psi(u_a) - Psi(u_b)] + beta sqrt(t) [phi(u_a) - phi(u_b)].

    Vectorised over broadcast x and t > 0.
    """
    rt, d, slope, h_x = _offsets(x, t, knots_x, knots_y)
    u = d / rt[..., None]
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
    rt, d, slope, _ = _offsets(x, t, knots_x, knots_y)
    u = d / rt[..., None]
    ky = np.asarray(knots_y, dtype=float)
    mass = -np.diff(psi(u), axis=-1)
    ends = (ky[0] * _phi(u[..., 0]) - ky[-1] * _phi(u[..., -1])) / rt
    val = ends + np.sum(slope * mass, axis=-1)
    return val if val.ndim else float(val)


def smeared_psi(z, t, knots_x, knots_y):
    """int h(xi) Psi((z - xi) / sqrt(t)) dxi of a piecewise-linear h.

    With s = z - xi and v = s / sqrt(t) the piece alpha + beta xi on [a, b]
    contributes (alpha + beta z) dA0 - beta dA1, where

        A0 = s Psi(v) - sqrt(t) phi(v),   A1 = ((s^2 - t) Psi(v) - sqrt(t) s phi(v)) / 2

    and dA = A(a) - A(b) is the integral over [a, b] of Psi(v) for A0 and of
    s Psi(v) for A1.  Written in s rather than v, no term grows like
    1/sqrt(t), so a subnormal t gives the t -> 0 limit, the integral of h
    above z.  Vectorised over broadcast z and t > 0.
    """
    rt, d, slope, h_z = _offsets(z, t, knots_x, knots_y)
    rt = rt[..., None]
    s = -d
    v = s / rt
    ps = psi(v)
    a0 = s * ps - rt * _phi(v)
    a1 = (s * a0 - rt * rt * ps) / 2.0
    val = np.sum(h_z * -np.diff(a0, axis=-1) - slope * -np.diff(a1, axis=-1), axis=-1)
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
