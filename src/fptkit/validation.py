"""Residual and identity checks tying computed objects back to the theory.

Each check returns a `ResidualReport`; a report passes exactly when its
sup-residual is within tolerance.  The checks are deliberately routed
through quantities the solvers do *not* use directly:

* `master_residual` - the hitting distribution must satisfy
  Psi((z - r0)/sqrt(t)) = int_0^t Psi((z - X_s)/sqrt(t - s)) p(s) ds
  for every level z >= X_t (for a smeared source h the left-hand side
  is int h(xi) Psi((z - xi)/sqrt(t)) dxi), the right-hand side by the
  one rule for time integrals against p, `DensityEstimate.history`;
* `dirichlet_residual` - the Green function must vanish on the boundary;
* `heat_residual` - finite-difference heat-equation residual of any
  space-time field (no suite runs it: G^X solves the heat equation off
  the boundary for every p);
* `mass_conservation` - survival probability and hitting CDF must sum
  to one: the hitting identity at z = X_t, with the CDF for int p;
* `jump_check` - the boundary flux of the Green function must reproduce
  the density;
* `delta_convergence` - densities for shrinking smeared sources must
  approach the point-source density in the weighted sup norm
  sup_t t^(1-eta) |p_n(t) - p(t)|.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .boundary import BoundaryCurve
from .green import GreenField, boundary_flux, green_eval, hitting_integral, survival
from .kernels import smeared_gaussian, smeared_psi
from .solver import DensityEstimate, SourceSpec, TimeGrid, solve_many


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one validation check (pass iff sup_residual <= tolerance)."""

    name: str
    points: tuple
    residuals: tuple
    sup_residual: float
    tolerance: float
    passed: bool = field(init=False)
    details: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.sup_residual <= self.tolerance))

    def to_dict(self) -> dict:
        return asdict(self)


def _sup_report(name: str, points: list, residuals: list, tolerance: float) -> ResidualReport:
    """The report of `residuals` at `points`, judged by their supremum (0 when empty)."""
    return ResidualReport(name=name, points=tuple(points), residuals=tuple(residuals),
                          sup_residual=max(residuals, default=0.0), tolerance=tolerance)


def master_residual(
    est: DensityEstimate,
    curve: BoundaryCurve,
    src: SourceSpec,
    z_offsets,
    times,
    tolerance: float = 2e-3,
) -> ResidualReport:
    """Residual of the hitting-distribution integral identity.

    For z = X_t + offset (offset >= 0) the true density satisfies

        P(B_t >= z) = int_0^t Psi((z - X_s)/sqrt(t - s)) p(s) ds,

    where the left-hand side is int h(xi) Psi((z - xi)/sqrt(t)) dxi for
    the source's density h, Psi((z - r0)/sqrt(t)) for a point source, in
    closed form (`kernels.smeared_psi`).  The right-hand side is
    `green.hitting_integral`, whose history rule rejects t outside (0, T].
    """
    offsets = np.array([float(o) for o in z_offsets])
    if np.any(offsets < 0.0):
        raise ValueError("offsets must be >= 0 (identity holds for z >= X_t)")
    pts, res = [], []
    for t in map(float, times):
        z = float(curve.value(t)) + offsets
        integral = hitting_integral(est, curve, t, z)
        pts += [(t, float(o)) for o in offsets]
        res += [float(r) for r in np.abs(smeared_psi(z, t, src.r0, src.width) - integral)]
    return _sup_report("master_equation", pts, res, tolerance)


def heat_residual(
    fn,
    points,
    dx: float,
    dt_fd: float,
    tolerance: float = 1e-6,
    name: str = "heat_equation",
) -> ResidualReport:
    """Central-difference residual v_t - v_xx / 2 of a field (x, t) -> v.

    The caller guarantees the 5-point stencil stays inside the field's
    domain; any domain error raised by `fn` propagates.
    """
    pts = []
    res = []
    for x, t in points:
        v_t = (fn(x, t + dt_fd) - fn(x, t - dt_fd)) / (2.0 * dt_fd)
        v_xx = (fn(x + dx, t) - 2.0 * fn(x, t) + fn(x - dx, t)) / (dx * dx)
        pts.append((float(x), float(t)))
        res.append(abs(v_t - 0.5 * v_xx))
    return _sup_report(name, pts, res, tolerance)


def dirichlet_residual(fld: GreenField, times, tolerance: float = 2e-3) -> ResidualReport:
    """The Dirichlet condition: |G^X(X_t, t)| relative to max(G_h(X_t, t), 1e-3).

    G_h is the source's free evolution (`kernels.smeared_gaussian`), so
    p = 0 reads 1 wherever G_h >= 1e-3; `green_eval` at x = X_t includes
    the history rule's tau = t term.
    """
    pts = [float(t) for t in times]
    res = []
    for t in pts:
        xt = float(fld.curve.value(t))
        free = smeared_gaussian(xt, t, fld.src.r0, fld.src.width)
        res.append(abs(green_eval(fld, xt, t)) / max(free, 1e-3))
    return _sup_report("dirichlet_condition", pts, res, tolerance)


def mass_conservation(
    fld: GreenField,
    times,
    tolerance: float = 2e-3,
) -> ResidualReport:
    """Residual of S(t) + F(t) = 1 (no probability mass is lost)."""
    pts = [float(t) for t in times]
    res = [abs(survival(fld, t) + fld.density.cdf(t) - 1.0) for t in pts]
    return _sup_report("mass_conservation", pts, res, tolerance)


def jump_check(
    fld: GreenField,
    times,
    tolerance: float = 2e-2,
) -> ResidualReport:
    """Boundary flux versus density, relative to max(p(t), 1e-3).

    The one-sided derivative of the Green function at the boundary jumps
    by the layer density; the flux -1/2 G^X_x(X_t^-) must therefore equal
    p(t).
    """
    pts = [float(t) for t in times]
    res = []
    for t in pts:
        p = fld.density.density_at(t)
        res.append(abs(boundary_flux(fld, t) - p) / max(p, 1e-3))
    return _sup_report("jump_relation", pts, res, tolerance)


def delta_convergence(
    curve: BoundaryCurve,
    r0: float,
    widths,
    eta: float,
    grid: TimeGrid,
    ratio_tolerance: float = 0.5,
) -> ResidualReport:
    """Smeared-to-point convergence study in the weighted sup norm.

    For each bump width w, solves by marching with a unit-mass uniform
    bump of width w centered at r0 and computes

        ||p_w - p||_eta = sup_i t_i^(1-eta) |p_w(t_i) - p(t_i)|.

    The point source and every nonzero width are solved in one
    `solve_many` call, so the quadrature matrix on (curve, grid) is
    assembled once for all of them; each p is bit-identical to its own
    `solve_marching`.  Passes when the norm sequence is strictly
    decreasing along shrinking widths and the last/first ratio is within
    `ratio_tolerance` (< 1), or when every norm is 0: each bump's density
    is then the point density.  Any other sequence fails with residual
    max(last/first, 1).  A width of exactly 0 short-circuits to the point
    solve (norm 0); a bump reaching X_0 fails that call's `check_problem`
    before anything is assembled.
    """
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    if not ratio_tolerance < 1.0:
        raise ValueError("ratio_tolerance must be < 1")
    if any(w < 0.0 for w in widths):
        raise ValueError("bump widths must be >= 0")
    sources = [SourceSpec.point(r0)]
    sources += [SourceSpec.uniform_bump(r0, float(w)) for w in widths if w > 0.0]
    ests = iter(solve_many(curve, grid, [(s, "marching") for s in sources]))
    point_est = next(ests)
    ts = grid.nodes[1:]
    weight = ts ** (1.0 - eta)
    norms = []
    for w in widths:
        if w == 0.0:
            norms.append(0.0)
            continue
        est = next(ests)
        norms.append(float(np.max(weight * np.abs(est.p[1:] - point_est.p[1:]))))
    decreasing = all(b < a for a, b in zip(norms, norms[1:]))
    ratio = (norms[-1] / norms[0]) if norms and norms[0] > 0.0 else 0.0
    sup = ratio if decreasing or not any(norms) else max(ratio, 1.0)
    return ResidualReport(
        name="delta_convergence",
        points=tuple(float(w) for w in widths),
        residuals=tuple(norms),
        sup_residual=sup,
        tolerance=ratio_tolerance,
        details={"monotone_decreasing": decreasing, "eta": eta,
                 "ratio_last_to_first": ratio},
    )


def closed_form_linear(a: float, b: float, r: float, t):
    """Exact first-passage density through X_t = a + b t from r < a:

        f(t) = (a - r) / sqrt(2 pi t^3) exp(-(a + b t - r)^2 / (2 t)).
    """
    if r >= a:
        raise ValueError("closed form requires r < a")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("closed form requires t > 0")
    val = (a - r) / np.sqrt(2.0 * math.pi * t ** 3) * np.exp(-((a + b * t - r) ** 2) / (2.0 * t))
    return val if val.ndim else float(val)
