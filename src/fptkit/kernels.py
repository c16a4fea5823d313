"""Gaussian heat kernel, normal survival function, and singular-weight moments.

Everything in this module is a pure function of its arguments, usable on
scalars or numpy arrays.  The kernel follows the standard Brownian
convention Var(B_t - B_s) = t - s:

    G(x, t; r, s) = exp(-(x - r)^2 / (2 (t - s))) / sqrt(2 pi (t - s))

together with its spatial derivative G_x and the upper-tail normal
probability

    Psi(z) = int_z^inf exp(-u^2 / 2) / sqrt(2 pi) du.

The `smeared_*` functions integrate G, G_x and Psi against the density h
of a source (r0, width): the point mass at r0 for width 0, which gives G,
G_x and Psi themselves, else the unit-mass uniform bump of that width
centred at r0, for which each integral is a difference of a closed-form
antiderivative at the bump's two ends, so no adaptive quadrature is
needed.

Every Gaussian factor is a plain `np.exp` of -(square) / (2 variance),
exactly 0.0 from an argument of about -745.13 down.  At a tiny (say
subnormal) time that argument overflows to -inf, a factor of exactly 0,
so each evaluation runs under `np.errstate(over="ignore")`, as the
solver's assembler and `green.green_eval` do.

The moment integral at the bottom, `segment_weight`, integrates the
weight (t - tau)^beta exactly over one subinterval.  No module under
`src/` calls it (`solver._nodal_weights` builds its own moments); it
stays as the tests' reference and for the benchmark.
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
    val = np.asarray(np.asarray(z, dtype=float) / math.sqrt(2.0))
    _erfc(val, out=val, casting="unsafe")
    val *= 0.5
    return val if val.ndim else float(val)


def _phi(u):
    """Standard normal density, exactly 0.0 on deep underflow."""
    with np.errstate(over="ignore"):
        return np.exp(-u * u / 2.0) / SQRT_TWO_PI


def _bump_ends(x, t, r0, width):
    """Broadcast x and t > 0, and measure the bump's ends from x.

    Returns (sqrt(t), 1/width, r0 - width/2 - x, r0 + width/2 - x).
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), _elapsed(t, 0.0))
    return np.sqrt(t), 1.0 / width, r0 - width / 2.0 - x, r0 + width / 2.0 - x


def smeared_gaussian(x, t, r0, width):
    """Free evolution int h(xi) G(x, t; xi, 0) dxi of a source (r0, width).

    Width 0 is the point mass at r0, G(x, t; r0, 0).  Otherwise h is the
    uniform bump 1/width on [a, b] = [r0 - width/2, r0 + width/2], and with
    u = (xi - x) / sqrt(t) the integral is [Psi(u_a) - Psi(u_b)] / width.
    Vectorised over broadcast x and t > 0.
    """
    if width == 0.0:
        return gaussian(x, t, r0)
    rt, height, lo, hi = _bump_ends(x, t, r0, width)
    val = height * (psi(lo / rt) - psi(hi / rt))
    return val if np.ndim(val) else float(val)


def smeared_gaussian_dx(x, t, r0, width):
    """int h(xi) G_x(x, t; xi, 0) dxi of a source (r0, width).

    Width 0 is G_x(x, t; r0, 0).  For the bump h = 1/width on [a, b],
    G_x = -G_xi integrates to [G(x; a) - G(x; b)] / width.  Vectorised over
    broadcast x and t > 0.
    """
    if width == 0.0:
        return gaussian_dx(x, t, r0)
    rt, height, lo, hi = _bump_ends(x, t, r0, width)
    val = (height * _phi(lo / rt) - height * _phi(hi / rt)) / rt
    return val if np.ndim(val) else float(val)


def smeared_psi(z, t, r0, width):
    """int h(xi) Psi((z - xi) / sqrt(t)) dxi of a source (r0, width).

    Width 0 is Psi((z - r0) / sqrt(t)).  For the bump h = 1/width on
    [a, b], with s = z - xi and v = s / sqrt(t), the integral is
    [A(a) - A(b)] / width for the antiderivative in xi

        A = s Psi(v) - sqrt(t) phi(v).

    Written in s rather than v, no term grows like 1/sqrt(t), so a
    subnormal t gives the t -> 0 limit, the mass of h above z.  Vectorised
    over broadcast z and t > 0.
    """
    if width == 0.0:
        return psi((z - r0) / np.sqrt(_elapsed(t, 0.0)))
    rt, height, lo, hi = _bump_ends(z, t, r0, width)

    def antiderivative(s):
        v = s / rt
        return s * psi(v) - rt * _phi(v)

    val = height * (antiderivative(-lo) - antiderivative(-hi))
    return val if np.ndim(val) else float(val)


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
