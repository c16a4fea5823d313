"""Dirichlet Green function of the heat equation on the moving domain.

Once the first-passage density p is known, the killed transition density
(the Green function with absorbing condition on the boundary) is the
free kernel minus the mass re-emitted from the boundary:

    G^X(r0, x, t) = G(x, t; r0, 0) - int_0^t G(x, t; X_tau, tau) p(tau) dtau

Everything else here derives from that representation: the survival
probability S(t) = int_{-inf}^{X_t} G^X dx and the boundary flux
-1/2 d/dx G^X|_{X_t^-}, which must reproduce p itself.

The time integral has a (t - tau)^(-1/2) endpoint weight from the Gaussian
prefactor; it is product-integrated by `DensityEstimate.history`, the one
rule for time integrals against p, whose partition refines the last
segment geometrically toward tau = t so the boundary layer of the
exponential factor is always resolved.

This emission sum, n_x points against the n_tau partition nodes, is one of
the package's two O(N^2) loops (the other is the solver's kernel sum).
`green_eval` builds it in row blocks of at most `EMISSION_BLOCK_BYTES`
(2 MB; a block holds at least one row), so `survival`, with 2048
x-points, peaks near 2 MB at N = 4096.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCurve
from .kernels import SQRT_TWO_PI, gaussian, psi, smeared_gaussian
from .solver import DensityEstimate, SourceSpec, problem_fingerprint

#: composite Gauss-Legendre panel count for the survival integral
SURVIVAL_PANELS = 256
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

#: working set of one block of the emission sum in `green_eval` (rows of x
#: against the n_tau partition nodes); 0.5 to 4 MB ran equally fast
EMISSION_BLOCK_BYTES = 2 * 2**20


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

    # exp(-(x - X_tau)^2 / (2 (t - tau))) against the p-weighted rule, built
    # in place over blocks of x rows that fill `EMISSION_BLOCK_BYTES`; the
    # tau = t limit of the factor is 1 on the boundary and 0 off it.  einsum
    # sums each row in the same order whatever the row count (a BLAS
    # matrix-vector product does not), which keeps array and scalar calls
    # equal.
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

    src = field.src
    if src.kind == "point":
        free = np.asarray(gaussian(xs, t, src.r0, 0.0))
    else:
        # free evolution of h in closed form over its linear pieces
        free = smeared_gaussian(xs, t, src.knots_x, src.knots_y)
    val = free - emitted / SQRT_TWO_PI
    return val.reshape(x.shape) if x.ndim else float(val[0])


def survival(field: GreenField, t: float) -> float:
    """Survival probability P(tau > t) = int_{-inf}^{X_t} G^X(x, t) dx.

    Composite 8-point Gauss-Legendre panels over a 12-standard-deviation
    window below the boundary, cosine-clustered toward X_t where the
    integrand vanishes linearly; the analytic tail of the free kernel
    below the window (at most Psi(12) ~ 2e-33) is added back.
    """
    if not 0.0 < t <= field.horizon:
        raise ValueError(f"survival defined for 0 < t <= {field.horizon}")
    curve = field.curve
    xt = float(curve.value(t))
    x_lo = xt - 12.0 * math.sqrt(t) - abs(field.src.support_lower - curve.x0)

    j = np.arange(SURVIVAL_PANELS + 1)
    bounds = x_lo + (xt - x_lo) * np.sin(0.5 * math.pi * j / SURVIVAL_PANELS)
    mid = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    xs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    total = float(green_eval(field, xs, t) @ ws)
    total += psi((field.src.support_lower - x_lo) / math.sqrt(t))
    return min(max(total, 0.0), 1.0)


def boundary_flux(field: GreenField, t: float, eps: float | None = None) -> float:
    """Density recovered from the boundary: -1/2 d/dx G^X at x = X_t^-.

    One-sided second-order difference using offsets {0, eps, 2 eps}
    strictly inside the domain (the field is identically zero outside, so
    a centered stencil would straddle the kink).
    """
    if not 0.0 < t <= field.horizon:
        raise ValueError(f"flux defined for 0 < t <= {field.horizon}")
    if eps is None:
        eps = max(1e-4, math.sqrt(t) * 1e-3)
    xt = float(field.curve.value(t))
    f = green_eval(field, np.array([xt, xt - eps, xt - 2.0 * eps]), t)
    deriv = (3.0 * f[0] - 4.0 * f[1] + f[2]) / (2.0 * eps)
    return -0.5 * deriv

