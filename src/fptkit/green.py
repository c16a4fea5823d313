"""Dirichlet Green function of the heat equation on the moving domain.

Once the first-passage density p is known, the killed transition density
(the Green function with absorbing condition on the boundary) is the
free kernel minus a single-layer heat potential of p on the boundary:

    G^X(r0, x, t) = G(x, t; r0, 0) - int_0^t G(x, t; X_tau, tau) p(tau) dtau

Everything here is that one layer, `_layer`: the `history(t, beta)` rule
against a kernel of u = (x - X_tau)/sqrt(t - tau), its tau = t node the
limit kernel(0) at x = X_t and kernel(+-inf) off it.  `green_eval` takes
the Gaussian exp(-u^2/2) at beta = -1/2 (its boundary flux
-1/2 d/dx G^X|_{X_t^-} must reproduce p).  `hitting_integral` takes
Psi(u), the hitting identity's right-hand side at z >= X_t for
`validation.master_residual`.  `survival` takes Psi(-u), the mass below
X_t of each re-emitted kernel, so S(t) = int_{-inf}^{X_t} G^X dx is
closed-form in x and S + F = 1 is the hitting identity at z = X_t.

`DensityEstimate.history` adds one geometric sequence toward tau = t to
the grid nodes, resolving the kernel's boundary layer at every scale.
The layer sum, n_x points against its n_tau nodes, is the package's one
O(N^2) loop (the solver's kernel sum interpolates its far bands and
assembles O(N log N) pairs); it is built in row blocks of at most
`EMISSION_BLOCK_BYTES` (2 MB; a block holds at least one row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCurve
from .kernels import SQRT_TWO_PI, psi, smeared_gaussian, smeared_psi
from .solver import DensityEstimate, SourceSpec, problem_fingerprint

#: working set of one block of the layer sum (rows of x against the n_tau
#: partition nodes), whose largest caller is the `fpt green` lattice; 0.5
#: to 4 MB ran equally fast
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


def _gaussian(u):
    """exp(-u^2/2), built in u."""
    u *= u
    u *= -0.5
    return np.exp(u, out=u)


def _layer(density: DensityEstimate, curve: BoundaryCurve, t: float, beta: float, x, kernel):
    """int_0^t (t - tau)^beta kernel((x - X_tau)/sqrt(t - tau)) p(tau) dtau, an array shaped like x.

    `kernel` may overwrite its argument, a block of rows of x that fills
    `EMISSION_BLOCK_BYTES`.  einsum sums each row in the same order whatever
    the row count (a BLAS matrix-vector product does not), so each value
    depends only on its own x: an array call equals the scalar calls bit for
    bit.  At tiny t - tau a quotient or its square may overflow to +-inf,
    where the kernel takes its limit.
    """
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    tau, w, w_t = density.history(t, beta)
    x_tau, rt, xt = np.asarray(curve.value(tau)), np.sqrt(t - tau), float(curve.value(t))
    rows = max(1, EMISSION_BLOCK_BYTES // (8 * len(tau)))
    buf = np.empty((min(rows, len(xs)), len(tau)))
    with np.errstate(over="ignore"):
        out = w_t * kernel(np.where(xs == xt, 0.0, np.copysign(np.inf, xs - xt)))
        for lo in range(0, len(xs), rows):
            u = buf[: min(rows, len(xs) - lo)]
            np.subtract(xs[lo:lo + len(u), None], x_tau, out=u)
            u /= rt
            out[lo:lo + len(u)] += np.einsum("ij,j->i", kernel(u), w)
    return out.reshape(x.shape)


def green_eval(field: GreenField, x, t: float):
    """Green function G^X(x, t) at one time t (diagnostic values >= X_t are ~0).

    An array `x` gives an array of the same shape, a scalar a float, each
    value depending only on its own x.
    """
    x = np.asarray(x, dtype=float)
    emitted = _layer(field.density, field.curve, t, -0.5, x, _gaussian)
    val = smeared_gaussian(x, t, field.src.r0, field.src.width) - emitted / SQRT_TWO_PI
    return val if val.ndim else float(val)


def hitting_integral(density: DensityEstimate, curve: BoundaryCurve, t: float, z):
    """int_0^t Psi((z - X_tau)/sqrt(t - tau)) p(tau) dtau, an array shaped like z.

    The hitting identity's right-hand side at levels z >= X_t; its integrand
    at tau = t is the limit, 1/2 at z = X_t and 0 above.
    """
    return _layer(density, curve, t, 0.0, z, psi)


def survival(field: GreenField, t: float) -> float:
    """Survival probability P(tau > t) = int_{-inf}^{X_t} G^X(x, t) dx, in closed form in x:

        S(t) = 1 - Psi_h(X_t, t) - int_0^t Psi((X_tau - X_t)/sqrt(t - tau)) p(tau) dtau

    clamped to [0, 1], with Psi_h = `kernels.smeared_psi` of the source and
    the integrand 1/2 at tau = t; the history rule rejects t outside (0, T].
    """
    xt = float(field.curve.value(t))
    below = _layer(field.density, field.curve, t, 0.0, xt, lambda u: psi(np.negative(u, out=u)))
    total = 1.0 - smeared_psi(xt, t, field.src.r0, field.src.width) - float(below)
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

