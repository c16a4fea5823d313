"""Dirichlet Green function of the heat equation on the moving domain.

Once the first-passage density p is known, the killed transition density
(the Green function with absorbing condition on the boundary) is the
free kernel minus the mass re-emitted from the boundary:

    G^X(r0, x, t) = G(x, t; r0, 0) - int_0^t G(x, t; X_tau, tau) p(tau) dtau

Everything else here derives from that representation.  The boundary
flux -1/2 d/dx G^X|_{X_t^-} must reproduce p itself.  The survival
S(t) = int_{-inf}^{X_t} G^X dx is closed-form in x, as each free kernel
G(., t; y, s) integrates to 1 - Psi((X_t - y)/sqrt(t - s)) below X_t, a
bracket that tends to 1/2 at s = t.  `hitting_integral` takes that Psi
row against p for `survival` and `validation.master_residual` alike, so
S + F = 1 is the hitting identity at z = X_t.

Time integrals against p use `DensityEstimate.history`, whose partition
adds one geometric sequence toward tau = t to the grid nodes, resolving
the exponential factor's boundary layer at every scale.

The emission sum of `green_eval`, n_x points against the n_tau partition
nodes, is the package's one O(N^2) loop (the solver's kernel sum
interpolates its far bands and assembles O(N log N) pairs); it is built
in row blocks of at most `EMISSION_BLOCK_BYTES` (2 MB; a block holds at
least one row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCurve
from .kernels import SQRT_TWO_PI, psi, smeared_gaussian, smeared_psi
from .solver import DensityEstimate, SourceSpec, problem_fingerprint

#: working set of one block of the emission sum in `green_eval` (rows of x
#: against the n_tau partition nodes), whose largest caller is the `fpt
#: green` lattice; 0.5 to 4 MB ran equally fast
EMISSION_BLOCK_BYTES = 2 * 2**20

#: `boundary_flux`'s stencil step at time t: max(FLUX_MIN_STEP, FLUX_STEP sqrt(t))
FLUX_STEP = 1e-3
FLUX_MIN_STEP = 1e-4


@dataclass(frozen=True, eq=False)
class GreenField:
    """Green-function evaluator bound to one (curve, source, density) triple."""

    curve: BoundaryCurve
    src: SourceSpec
    density: DensityEstimate

    def __post_init__(self):
        expected = problem_fingerprint(self.src, self.curve, self.density.grid)
        if self.density.fingerprint != expected:
            raise ValueError(
                "density fingerprint does not match this (curve, source) pair"
            )

    @property
    def horizon(self) -> float:
        return self.density.grid.T


def green_eval(field: GreenField, x, t: float):
    """Green function G^X(x, t) at one time t (diagnostic values >= X_t are ~0).

    An array `x` gives an array of the same shape, a scalar a float.  Each
    value depends only on its own x: an array call equals the scalar calls
    bit for bit.
    """
    if not 0.0 < t <= field.horizon:
        raise ValueError(f"Green function defined for 0 < t <= {field.horizon}")
    x = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x).ravel()
    curve = field.curve

    # at tiny t - tau an exponent -(x - y)^2 / (2 (t - tau)) may overflow to
    # -inf, which is a factor of exactly 0
    with np.errstate(over="ignore"):
        # exp(-(x - X_tau)^2 / (2 (t - tau))) against the p-weighted rule,
        # built in place over blocks of x rows that fill
        # `EMISSION_BLOCK_BYTES`; the tau = t limit of the factor is 1 on the
        # boundary and 0 off it.  einsum sums each row in the same order
        # whatever the row count (a BLAS matrix-vector product does not),
        # which keeps array and scalar calls equal.
        tau, w, w_t = field.density.history(t, -0.5)
        x_tau = np.asarray(curve.value(tau))
        den = -2.0 * (t - tau)
        rows = max(1, EMISSION_BLOCK_BYTES // (8 * len(tau)))
        buf = np.empty((min(rows, len(xs)), len(tau)))
        emitted = np.where(xs == float(curve.value(t)), w_t, 0.0)
        for lo in range(0, len(xs), rows):
            hi = min(lo + rows, len(xs))
            expo = buf[: hi - lo]
            np.subtract(xs[lo:hi, None], x_tau, out=expo)
            expo *= expo
            expo /= den
            np.exp(expo, out=expo)
            emitted[lo:hi] += np.einsum("ij,j->i", expo, w)
    val = smeared_gaussian(xs, t, field.src.r0, field.src.width) - emitted / SQRT_TWO_PI
    return val.reshape(x.shape) if x.ndim else float(val[0])


def hitting_integral(density: DensityEstimate, curve: BoundaryCurve, t: float, z):
    """(int_0^t Psi((z - X_tau)/sqrt(t - tau)) p(tau) dtau, int_0^t p) by `history(t, 0)`.

    The first is the hitting identity's right-hand side at levels z >= X_t
    (scalar or array), its integrand taken at the tau -> t limit, p(t)/2
    for z = X_t and 0 above.
    """
    tau, w, w_t = density.history(t, 0.0)
    z = np.asarray(z, dtype=float)
    arg = (z[..., None] - np.asarray(curve.value(tau))) / np.sqrt(t - tau)
    hit = np.asarray(psi(arg)) @ w + np.where(z == float(curve.value(t)), 0.5 * w_t, 0.0)
    return hit, float(np.sum(w)) + w_t


def survival(field: GreenField, t: float) -> float:
    """Survival probability P(tau > t) = int_{-inf}^{X_t} G^X(x, t) dx, in closed form in x:

        S(t) = 1 - Psi_h(X_t, t) - int_0^t [1 - Psi((X_t - X_tau)/sqrt(t - tau))] p(tau) dtau

    clamped to [0, 1], with Psi_h = `kernels.smeared_psi` of the source and
    the bracket 1/2 at tau = t; the history rule rejects t outside (0, T].
    """
    xt = float(field.curve.value(t))
    hit, mass = hitting_integral(field.density, field.curve, t, xt)
    total = 1.0 - smeared_psi(xt, t, field.src.r0, field.src.width) - (mass - float(hit))
    return min(max(total, 0.0), 1.0)


def boundary_flux(field: GreenField, t: float) -> float:
    """Density recovered from the boundary: -1/2 d/dx G^X at x = X_t^-.

    One-sided second-order difference using offsets {0, eps, 2 eps}
    strictly inside the domain (the field is identically zero outside, so
    a centered stencil would straddle the kink).
    """
    if not 0.0 < t <= field.horizon:
        raise ValueError(f"flux defined for 0 < t <= {field.horizon}")
    eps = max(FLUX_MIN_STEP, math.sqrt(t) * FLUX_STEP)
    xt = float(field.curve.value(t))
    f = green_eval(field, np.array([xt, xt - eps, xt - 2.0 * eps]), t)
    deriv = (3.0 * f[0] - 4.0 * f[1] + f[2]) / (2.0 * eps)
    return -0.5 * deriv

