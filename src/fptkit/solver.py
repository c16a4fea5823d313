"""Volterra solvers for the first-passage density through a moving boundary.

For a standard Brownian motion started at r0 below a Hölder-gamma boundary
X_t (gamma > 1/2), the first-passage density p solves the second-kind
Volterra equation

    p(t) = -G_x(X_t, t; r0, 0) + int_0^t G_x(X_t, t; X_tau, tau) p(tau) dtau

whose kernel is weakly singular.  Both solvers below factor it, for every
curve, with the fixed weight of the Gaussian prefactor:

    G_x(X_t, t; X_tau, tau) = kappa(t, tau) (t - tau)^(-1/2)

where kappa is the boundary's difference quotient times a bounded
exponential.  gamma > 1/2 is the existence hypothesis, not the kernel's
singularity: every curve we ship is piecewise C^1, so kappa is piecewise
smooth and tends to -X'(t) / sqrt(2 pi) on the diagonal, and the graded
grid absorbs the rough t = 0 end of `power` curves.  The weight is
integrated exactly against a piecewise-linear interpolant of kappa * p
(product integration) on the graded grid.  That yields one
lower-triangular system (I - A) p = g, and both solvers take the rows of
A from one block assembler, `_quadrature_rows`, so neither holds the
dense (N+1)^2 matrix:

* `solve_marching` is blocked forward substitution, solving each node in
  closed form (the diagonal weight multiplies the unknown); its memory
  is O(BLOCK_ROWS N);
* `solve_picard` fixed-point iterates the same system on successive time
  windows sized from gamma so the integral operator is a certified
  contraction, freezing history integrals as windows complete; it holds
  one window's rows of A, O(window N) memory.

Both return the same discrete solution (the marching recurrence is the
exact fixed point of the Picard sweeps), which makes their nodewise
agreement a useful internal consistency check.

The assembler's kernel sum is one of the package's two O(N^2) loops (the
other is the Green function's emission sum).  A block of `BLOCK_ROWS`
rows is built in place: t_i - tau once, turned into kappa with one
`np.exp`, and multiplied into the product weights, so at most four
BLOCK_ROWS x (N + 1) buffers are live (2 MB at N = 4096).

Downstream time integrals against the solved p (the Green function's
boundary emission, the hitting identity) all use one product-integration
rule, `DensityEstimate.history`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryCurve, estimate_holder
from .kernels import SQRT_TWO_PI, gaussian_dx, smeared_gaussian_dx

#: density values may dip this far below zero before we call it an error
TOL_NEG = 1e-8

#: marching fails when the implicit diagonal coefficient drops below this
MIN_DIAGONAL = 0.1

#: rows of the quadrature matrix assembled at a time
BLOCK_ROWS = 16

#: geometric ratio of the tail refinement in `DensityEstimate.history`;
#: four nodes per octave keeps the piecewise-linear error of
#: exp(-c/(t-tau)) layers below ~1e-3 relative
_TAIL_RATIO = 2.0 ** 0.25


class SolverError(RuntimeError):
    """A solve could not be completed (grid too coarse, no convergence, no density)."""


# ---------------------------------------------------------------------------
# grid and sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Graded partition t_i = T (i/N)^q of [0, T].

    q = 1 is uniform; q > 1 clusters nodes near t = 0 where the source
    term varies fastest.
    """

    T: float
    N: int
    q: float = 2.0
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"grid horizon T must be finite and positive, got {self.T!r}")
        if self.N < 8:
            raise ValueError("grid needs N >= 8 intervals")
        if not (math.isfinite(self.q) and self.q >= 1.0):
            raise ValueError(f"grading power q must be finite and >= 1, got {self.q!r}")
        nodes = self.T * (np.arange(self.N + 1) / self.N) ** self.q
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes are not strictly increasing (q too large for N)")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """Initial condition: a point mass at r0 or a piecewise-linear density h.

    Smeared sources are non-negative piecewise-linear densities on a
    compact support [knots_x[0], knots_x[-1]] with unit mass; the support
    must lie strictly below the boundary start X_0 (checked at solve
    time, when the curve is known).
    """

    kind: str
    r0: float | None = None
    knots_x: np.ndarray | None = field(default=None, repr=False)
    knots_y: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "point":
            if self.r0 is None or not math.isfinite(self.r0):
                raise ValueError("point source needs a finite r0")
        elif self.kind == "smeared":
            x, y = self.knots_x, self.knots_y
            if x is None or y is None or len(x) != len(y) or len(x) < 2:
                raise ValueError("smeared source needs matching knot arrays, length >= 2")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise ValueError("smeared source knots must be finite")
            if np.any(np.diff(x) <= 0.0):
                raise ValueError("smeared source knots must be strictly increasing")
            if np.any(y < 0.0):
                raise ValueError("smeared source density must be non-negative")
            mass = float(np.trapezoid(y, x))
            if abs(mass - 1.0) > 1e-10:
                raise ValueError(f"smeared source mass is {mass!r}, must be 1 within 1e-10")
        else:
            raise ValueError(f"unknown source kind {self.kind!r}")

    @classmethod
    def point(cls, r0: float) -> "SourceSpec":
        return cls(kind="point", r0=float(r0))

    @classmethod
    def smeared(cls, knots_x, knots_y) -> "SourceSpec":
        x = np.ascontiguousarray(knots_x, dtype=float)
        y = np.ascontiguousarray(knots_y, dtype=float)
        x.flags.writeable = False
        y.flags.writeable = False
        return cls(kind="smeared", knots_x=x, knots_y=y)

    @classmethod
    def uniform_bump(cls, center: float, width: float) -> "SourceSpec":
        """Uniform density of total mass 1 on [center - width/2, center + width/2]."""
        if width <= 0.0:
            raise ValueError("bump width must be positive")
        h = 1.0 / width
        return cls.smeared([center - width / 2.0, center + width / 2.0], [h, h])

    @property
    def support_upper(self) -> float:
        """Highest point carrying source mass."""
        return self.r0 if self.kind == "point" else float(self.knots_x[-1])

    @property
    def support_lower(self) -> float:
        return self.r0 if self.kind == "point" else float(self.knots_x[0])

    def density(self, xi):
        """Evaluate the smeared density h (zero outside its support)."""
        if self.kind != "smeared":
            raise ValueError("density() is only defined for smeared sources")
        xi = np.asarray(xi, dtype=float)
        val = np.interp(xi, self.knots_x, self.knots_y)
        val = np.where((xi < self.knots_x[0]) | (xi > self.knots_x[-1]), 0.0, val)
        return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# density estimates
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DensityEstimate:
    """Grid-indexed first-passage density with its accumulated CDF."""

    grid: TimeGrid
    p: np.ndarray
    F: np.ndarray
    method: str
    gamma: float
    fingerprint: str = ""
    residual_summary: dict | None = None

    def __post_init__(self):
        n = len(self.grid.nodes)
        if len(self.p) != n or len(self.F) != n:
            raise ValueError("p and F must have one value per grid node")
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.F))):
            raise ValueError("density estimate has non-finite p or F values")
        if self.p[0] != 0.0:
            raise ValueError("density must vanish at t = 0")
        if float(np.min(self.p)) < -TOL_NEG:
            raise ValueError("density has negative values beyond quadrature noise")
        if np.any(np.diff(self.F) < -1e-12):
            raise ValueError("CDF must be non-decreasing")
        if float(self.F[-1]) > 1.0 + 1e-6:
            raise ValueError("CDF exceeds 1 beyond tolerance")

    def density_at(self, t):
        """Piecewise-linear interpolation of p on the grid."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.grid.T):
            raise ValueError("density evaluated outside [0, T]")
        val = np.interp(t, self.grid.nodes, self.p)
        return val if val.ndim else float(val)

    def cdf(self, t):
        """Piecewise-linear interpolation of F, clamped to [0, 1]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.grid.T):
            raise ValueError("CDF evaluated outside [0, T]")
        val = np.clip(np.interp(t, self.grid.nodes, self.F), 0.0, 1.0)
        return val if val.ndim else float(val)

    def history(self, t: float, beta: float):
        """Product-integration rule for int_0^t (t - tau)^beta f(tau) p(tau) dtau, beta > -1.

        Returns (tau, w, w_t) such that sum(w * f(tau)) + w_t * f(t)
        approximates the integral for a bounded f, exactly when f p is
        piecewise linear on the partition.  The partition is the grid
        nodes below t plus a geometric tail that shrinks the distance to
        t by `_TAIL_RATIO` per node down to ~1e-14 relative, so an
        exp(-c / (t - tau)) boundary layer in f is resolved at every
        scale; p is interpolated onto it and multiplied into the weights.
        """
        if not 0.0 < t <= self.grid.T:
            raise ValueError(f"history defined for 0 < t <= {self.grid.T}")
        nodes = self.grid.nodes
        base = nodes[nodes < t]
        gap = t - base[-1]
        floor = 1e-14 * max(t, 1.0)
        tail = []
        while gap / _TAIL_RATIO > floor:
            gap /= _TAIL_RATIO
            tail.append(t - gap)
        part = np.concatenate([base, tail, [t]])
        w = _nodal_weights(beta, t - part, np.diff(part)) * np.interp(part, nodes, self.p)
        return part[:-1], w[:-1], float(w[-1])

    # -- serialization --------------------------------------------------

    def to_csv(self, path) -> None:
        """Write `t,p,F` rows at 17 significant digits (double round-trip)."""
        with open(path, "w") as fh:
            fh.write("t,p,F\n")
            for t, p, f in zip(self.grid.nodes, self.p, self.F):
                fh.write(f"{t:.17g},{p:.17g},{f:.17g}\n")

    def content_sha256(self) -> str:
        """SHA-256 of the p and F values as little-endian doubles."""
        h = hashlib.sha256()
        for col in (self.p, self.F):
            h.update(np.ascontiguousarray(col, dtype="<f8").tobytes())
        return h.hexdigest()

    def metadata(self) -> dict:
        return {
            "grid": {"T": self.grid.T, "N": self.grid.N, "q": self.grid.q},
            "method": self.method,
            "gamma": self.gamma,
            "fingerprint": self.fingerprint,
            "content_sha256": self.content_sha256(),
            "residual_summary": self.residual_summary,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_files(cls, csv_path, json_path) -> "DensityEstimate":
        """Rehydrate an estimate from its CSV + JSON pair, checking `content_sha256`."""
        with open(json_path) as fh:
            meta = json.load(fh)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        grid = TimeGrid(T=meta["grid"]["T"], N=int(meta["grid"]["N"]), q=meta["grid"]["q"])
        if not np.allclose(data[:, 0], grid.nodes, rtol=0.0, atol=1e-12):
            raise ValueError("density CSV nodes do not match the grid metadata")
        est = cls(grid=grid, p=data[:, 1], F=data[:, 2], method=meta["method"],
                  gamma=meta["gamma"], fingerprint=meta.get("fingerprint", ""),
                  residual_summary=meta.get("residual_summary"))
        if meta.get("content_sha256") != est.content_sha256():
            raise ValueError("density CSV values do not match the content_sha256 in the metadata")
        return est


def problem_fingerprint(src: SourceSpec, curve: BoundaryCurve, grid: TimeGrid) -> str:
    """Content hash tying a density estimate to its (source, curve, grid)."""
    h = hashlib.sha256()
    parts = [curve.kind, repr(curve.gamma), repr(curve.a), repr(curve.b), repr(curve.theta)]
    if curve.kind == "sampled":
        parts += [curve.knots_t.tobytes().hex(), curve.knots_x.tobytes().hex()]
    parts.append(src.kind)
    if src.kind == "point":
        parts.append(repr(src.r0))
    else:
        parts += [src.knots_x.tobytes().hex(), src.knots_y.tobytes().hex()]
    parts += [repr(grid.T), repr(grid.N), repr(grid.q)]
    h.update("|".join(parts).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# equation ingredients
# ---------------------------------------------------------------------------


def source_term(src: SourceSpec, curve: BoundaryCurve, t):
    """Forcing term of the Volterra equation at time(s) t > 0.

    Point source: -G_x(X_t, t; r0, 0).  Smeared source:
    -int h(xi) G_x(X_t, t; xi, 0) dxi, in closed form over the linear
    pieces of h (`kernels.smeared_gaussian_dx`).  Vectorised over t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("source term requires t > 0")
    xt = curve.value(t)
    if src.kind == "point":
        return -gaussian_dx(xt, t, src.r0, 0.0)
    return -smeared_gaussian_dx(xt, t, src.knots_x, src.knots_y)


def _kappa_row(dt, dx):
    """Kernel co-factor kappa(t, tau) from dt = t - tau > 0 and dx = X_t - X_tau.

    The Volterra kernel G_x(X_t, t; X_tau, tau) equals
    kappa(t, tau) (t - tau)^(-1/2) with

        kappa = -((X_t - X_tau) / (t - tau))
                * exp(-(X_t - X_tau)^2 / (2 (t - tau))) / sqrt(2 pi)

    The weight is fixed, not (t - tau)^(gamma - 3/2): on a piecewise-C^1
    curve the difference quotient is piecewise smooth in tau, whereas
    dividing by (t - tau)^gamma with gamma < 1 would leave a
    (t - tau)^(1 - gamma) cusp that piecewise-linear interpolation cannot
    follow.

    kappa is built in place in `dt`, which is returned; `dx` is
    overwritten.  One plain `np.exp` serves: it returns exactly 0.0 below
    about -745.13 and differs from `kernels.exp_clipped` only on
    (-745.13, -745), where it gives a subnormal (at most ~5e-324) instead
    of 0.0.
    """
    quotient = np.divide(dx, dt)
    dx *= dx
    dx /= dt
    dx *= -0.5
    np.exp(dx, out=dx)
    np.multiply(quotient, dx, out=dt)
    dt /= -SQRT_TWO_PI
    return dt


def _diagonal_kappa(ts, xs):
    """Diagonal limit -X'(t) / sqrt(2 pi) of kappa at each node i >= 1.

    Uses the difference quotient of the boundary over the last
    subinterval in place of X'(t_i), which a `sampled` curve lacks at its
    knots; the exponential factor tends to 1.  Under the fixed
    (t - tau)^(-1/2) weight this limit is finite on every piecewise-C^1
    curve, whatever its declared gamma.
    """
    out = np.zeros(len(ts))
    out[1:] = -(np.diff(xs) / np.diff(ts)) / SQRT_TWO_PI
    return out


def _nodal_weights(beta, r, dt):
    """Product-integration coefficients for int_0^t_end (t_end - tau)^beta f(tau) dtau.

    f is piecewise linear on an increasing partition ts with steps
    dt = diff(ts); r = t_end - ts >= 0 holds the distances to t_end (a row
    per t_end for a block), with nodes past t_end clamped to r = 0 so
    they get zero weight.  Segment j has moments m0_j and m1_j of
    (t_end - tau)^beta and (t_end - tau)^(beta+1), exact from one power
    r^(beta+1) per node, and gives weight (m1_j - r_{j+1} m0_j) / dt_j to
    its left node and (r_j m0_j - m1_j) / dt_j to its right one.  `r` is
    read, not written.
    """
    c = r ** (beta + 1.0)
    m0 = c[..., :-1] - c[..., 1:]
    m0 /= beta + 1.0
    c *= r
    m1 = c[..., :-1] - c[..., 1:]
    m1 /= beta + 2.0
    left = c[..., :-1]
    np.multiply(r[..., 1:], m0, out=left)
    np.subtract(m1, left, out=left)
    left /= dt
    c[..., -1] = 0.0
    m0 *= r[..., :-1]
    m0 -= m1
    m0 /= dt
    c[..., 1:] += m0
    return c


def _quadrature_rows(lo, hi, ts, xs, kdiag):
    """Rows lo..hi-1, columns 0..hi-1, of A, assembled `BLOCK_ROWS` rows at a time.

    Row i approximates int_0^{t_i} G_x(X_{t_i}, t_i; X_tau, tau) p(tau) dtau:
    weights times kappa before t_i, the diagonal weight times `kdiag[i]`.
    Each block takes t_i - tau once: clamped at 0 it gives the product
    weights, then kappa is built in its place and multiplied into them.
    A request of one block returns that block.
    """
    dts = np.diff(ts[:hi])
    A = None
    for b in range(lo, hi, BLOCK_ROWS):
        e = min(b + BLOCK_ROWS, hi)
        k = np.arange(e - b)
        r = ts[b:e, None] - ts[:e]
        # tau >= t_i only occurs in the last e - b columns
        tail = r[:, b:]
        np.maximum(tail, 0.0, out=tail)
        blk = _nodal_weights(-0.5, r, dts[: e - 1])
        diag = blk[k, b + k] * kdiag[b:e]
        # kappa needs t_i - tau > 0: a unit value on and past the diagonal
        # keeps it finite there, where the weights are 0 (the diagonal is
        # set from kdiag below)
        tail[k[:, None] <= k] = 1.0
        blk *= _kappa_row(r, xs[b:e, None] - xs[:e])
        blk[k, b + k] = diag
        if e - b == hi - lo:
            return blk
        if A is None:
            A = np.zeros((hi - lo, hi))
        A[b - lo : e - lo, :e] = blk
    return A


def _discrete_system(src, curve, grid):
    """Nodes, boundary values, source vector g and diagonal kappa of (I - A) p = g."""
    if curve.gamma <= 0.5:
        raise ValueError("solver requires Hölder exponent gamma > 1/2")
    if grid.T > curve.horizon:
        raise ValueError("grid horizon exceeds the boundary's domain")
    x0 = curve.x0
    if src.kind == "point":
        if not src.r0 < x0:
            raise ValueError(f"source r0={src.r0} must lie strictly below X_0={x0}")
    else:
        if not src.support_upper < x0:
            raise ValueError("smeared source support must lie strictly below X_0")
    ts = grid.nodes
    xs = np.asarray(curve.value(ts))
    g = np.zeros(len(ts))
    g[1:] = source_term(src, curve, ts[1:])
    return ts, xs, g, _diagonal_kappa(ts, xs)


def _estimate(src, curve, grid, p, method, summary):
    """Wrap a solved p with its trapezoid-rule CDF; a p that is no density is a SolverError."""
    F = np.zeros(len(p))
    F[1:] = np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(grid.nodes))
    try:
        return DensityEstimate(grid=grid, p=p, F=F, method=method, gamma=curve.gamma,
                               fingerprint=problem_fingerprint(src, curve, grid),
                               residual_summary=summary)
    except ValueError as exc:
        raise SolverError(f"{method} solution fails the density checks ({exc}); refine the grid") from exc


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def solve_marching(src: SourceSpec, curve: BoundaryCurve, grid: TimeGrid) -> DensityEstimate:
    """Time-marching product-integration solve of the density equation.

    Blocked forward substitution on (I - A) p = g: each block of
    `BLOCK_ROWS` rows takes its history in one matrix-vector product,
    then solves node by node in closed form, the final (singular)
    subinterval coupling the unknown p(t_i) through the diagonal kappa
    limit.  Fails if the diagonal coefficient 1 - A_ii drops below 0.1
    (grid too coarse for the boundary).
    """
    ts, xs, g, kdiag = _discrete_system(src, curve, grid)
    n = len(ts)
    p = np.zeros(n)
    min_diag = math.inf
    for lo in range(1, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        A = _quadrature_rows(lo, hi, ts, xs, kdiag)
        rhs = g[lo:hi] + A[:, :lo] @ p[:lo]
        for k, i in enumerate(range(lo, hi)):
            diag = 1.0 - A[k, i]
            min_diag = min(min_diag, diag)
            if diag < MIN_DIAGONAL:
                raise SolverError(
                    f"diagonal coefficient {diag:.3g} below {MIN_DIAGONAL} at node {i}"
                    " (t={:.6g}); refine the grid".format(ts[i])
                )
            p[i] = (rhs[k] + A[k, lo:i] @ p[lo:i]) / diag
    return _estimate(src, curve, grid, p, "marching", {"min_diagonal": min_diag})


def solve_picard(
    src: SourceSpec,
    curve: BoundaryCurve,
    grid: TimeGrid,
    safety: float = 0.5,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> DensityEstimate:
    """Windowed Picard iteration for the density equation.

    [0, T] is split into windows of length L such that the a-priori
    contraction estimate C1 L^(gamma - 1/2) <= safety, where
    C1 = m / (sqrt(2 pi) (gamma - 1/2)) and m is the scanned local
    Hölder constant (the exponential kernel factor is bounded by 1).
    Within a window the discrete system is fixed-point iterated until
    successive sup-norm differences fall below `tol`; history integrals
    over completed windows are frozen.  Only the current window's rows
    of A are held, so memory is O(window N).
    """
    ts, xs, g, kdiag = _discrete_system(src, curve, grid)
    gamma = curve.gamma
    n = len(ts)
    m = estimate_holder(curve, (0.0, grid.T)).m
    if m == 0.0:
        window_len = math.inf
    else:
        c1 = m / (SQRT_TWO_PI * (gamma - 0.5))
        window_len = (safety / c1) ** (1.0 / (gamma - 0.5))

    p = np.zeros(n)
    windows = []
    lo = 0
    while lo < n - 1:
        hi = int(np.searchsorted(ts, ts[lo] + window_len, side="right")) - 1
        hi = min(max(hi, lo + 1), n - 1)
        sl = slice(lo + 1, hi + 1)
        A = _quadrature_rows(lo + 1, hi + 1, ts, xs, kdiag)
        rhs = g[sl] + A[:, : lo + 1] @ p[: lo + 1]
        M = A[:, sl]
        q = rhs.copy()
        prev_diff = None
        max_ratio = 0.0
        for iterations in range(1, max_iter + 1):
            q_next = rhs + M @ q
            diff = float(np.max(np.abs(q_next - q)))
            if prev_diff is not None and prev_diff > 10.0 * tol:
                max_ratio = max(max_ratio, diff / prev_diff)
            q = q_next
            if diff <= tol:
                break
            prev_diff = diff
        else:
            raise SolverError(
                f"Picard window {len(windows)} ([{ts[lo]:.6g}, {ts[hi]:.6g}]) did not"
                f" converge in {max_iter} iterations (last contraction ratio {max_ratio:.3g})"
            )
        p[sl] = q
        windows.append({
            "t_start": float(ts[lo]), "t_end": float(ts[hi]),
            "iterations": iterations, "max_ratio": max_ratio,
        })
        lo = hi

    return _estimate(src, curve, grid, p, "picard", {
        # None encodes an unbounded window (kernel vanishes identically)
        "window_length": window_len if math.isfinite(window_len) else None,
        "holder_m": m,
        "contraction_target": safety,
        "windows": windows,
        "max_ratio": max((w["max_ratio"] for w in windows), default=0.0),
    })
