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
smooth and tends to -X'(t) / sqrt(2 pi) on the diagonal, which takes the
curve's exact left derivative `BoundaryCurve.slope`; the graded grid
absorbs the rough t = 0 end of `power` curves.  The weight is
integrated exactly against a piecewise-linear interpolant of kappa * p
(product integration) on the graded grid.  That yields one
lower-triangular system (I - A) p = g, in which A depends only on the
curve and the grid and the source enters only g.  Every solve runs one
block sweep, `_block_sweep`: rows of A come from one assembler,
`_quadrature_rows`, `BLOCK_ROWS` rows at a time in time order, and each
piece is assembled once for every job on that (curve, grid) -
`solve_many` runs several sources and methods in one sweep,
`solve_marching` and `solve_picard` are its one-job calls.  Each job takes
its block's history over its solved nodes in matrix-vector products, and
only the per-block step differs, so no solve holds the dense (N+1)^2
matrix and a sweep needs O(BLOCK_ROWS N) memory plus two length-N
vectors (g, p) per job:

* `solve_marching` solves each node of the block in closed form (the
  diagonal weight multiplies the unknown);
* `solve_picard` fixed-point iterates the block.  The block is lower
  triangular, so the iteration converges whenever every |A_ii| < 1, with
  no window certificate: A_ii is O(sqrt(t_i - t_{i-1})), and the
  nilpotent strictly lower part delays convergence by at most
  `BLOCK_ROWS` sweeps.

Both return the same discrete solution (the marching recurrence is the
exact fixed point of the Picard sweeps), which makes their nodewise
agreement a useful internal consistency check.  A job's arithmetic does
not depend on the other jobs of its sweep, so its p is bit-identical to
a solve of that job alone.

The sweep assembles O(N log N) kernel pairs, not all N(N+1)/2 of A.
Away from the diagonal a row of A is analytic in t (the fast Volterra
convolution of Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput.
6 (1985), rests on the same smoothness), so a dyadic panel of blocks
spanning [a, b] takes its far band, tau <= a - `FAR_MARGIN` (b - a),
from rows assembled at `CHEBYSHEV_TIMES` Chebyshev times and
interpolated to its own rows.  That keeps the discretization: p moves
from that of the dense sweep only by roundoff (at most 2e-15 on the
linear, power, kinked and bump problems at N = 4096, and not at all on a
constant boundary).  A breakpoint of X near a panel (t = 0, or a knot of
a `sampled` curve) ends the analyticity, so such a panel hands its band
down to its children, and the rows of a 2-block panel near one assemble
it exactly: a curve with a knot in every panel assembles as many pairs
as the dense sweep.  Each sweep reports the pairs it assembled as
`residual_summary["kernel_pairs"]`: 0.80M of the 8.4M at N = 4096 on a
linear boundary.  A block of rows is built in place: t_i - tau once,
turned into kappa with one `np.exp`, and multiplied into the product
weights, so at most four BLOCK_ROWS x (N + 1) buffers are live (2 MB at
N = 4096).  The sweep runs in the calling process: with a forked helper
assembling every other piece of A it was no faster at N = 4096 or 16384.

Downstream time integrals against the solved p (the Green function's
boundary emission, the hitting identity) all use one product-integration
rule, `DensityEstimate.history`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryCurve
from .kernels import SQRT_TWO_PI, smeared_gaussian_dx

#: density values may dip this far below zero before we call it an error
TOL_NEG = 1e-8

#: marching fails when the implicit diagonal coefficient drops below this
MIN_DIAGONAL = 0.1

#: rows of the quadrature matrix assembled at a time
BLOCK_ROWS = 16

#: a panel of blocks whose rows span [a, b] interpolates its far band,
#: tau <= a - FAR_MARGIN (b - a), unless a breakpoint of X lies within
#: FAR_MARGIN (b - a) of [a, b]; inf assembles every pair (the dense sweep)
FAR_MARGIN = 1.0

#: Chebyshev times at which a panel assembles its far columns
CHEBYSHEV_TIMES = 16

#: ratio of the geometric sequence toward t in `DensityEstimate.history`'s
#: partition; four nodes per octave of t - tau keeps the piecewise-linear
#: error of exp(-c/(t-tau)) layers below ~1e-3 relative
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
    """Initial condition: a point mass at r0 (width 0) or the unit-mass
    uniform bump of the given width centred at r0.

    The bump is the delta-sequence of the heat equation's smeared initial
    data; its support [r0 - width/2, r0 + width/2] must lie strictly below
    the boundary start X_0 (`check_problem`, run by every solve once the
    curve is known).
    """

    r0: float
    width: float = 0.0

    def __post_init__(self):
        if self.width == 0.0:
            if not math.isfinite(self.r0):
                raise ValueError("point source needs a finite r0")
            return
        lo, hi, height = self.support_lower, self.support_upper, 1.0 / self.width
        if not all(math.isfinite(v) for v in (lo, hi, height)):
            raise ValueError("bump ends and height must be finite")
        if not lo < hi:
            raise ValueError("bump ends must be strictly increasing")
        mass = (hi - lo) * height
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"smeared source mass is {mass!r}, must be 1 within 1e-10")

    @classmethod
    def point(cls, r0: float) -> "SourceSpec":
        return cls(r0=float(r0))

    @classmethod
    def uniform_bump(cls, center: float, width: float) -> "SourceSpec":
        """Uniform density of total mass 1 on [center - width/2, center + width/2]."""
        if width <= 0.0:
            raise ValueError("bump width must be positive")
        return cls(r0=float(center), width=float(width))

    @property
    def kind(self) -> str:
        """The source kind: "point" at width 0, "smeared" for a bump."""
        return "point" if self.width == 0.0 else "smeared"

    @property
    def support_upper(self) -> float:
        """Highest point carrying source mass."""
        return self.r0 + self.width / 2.0

    @property
    def support_lower(self) -> float:
        return self.r0 - self.width / 2.0


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
        piecewise linear on the partition.  The partition is the union of
        the grid nodes below t and one geometric sequence t - t r^-k,
        k = 0, 1, ..., with r = `_TAIL_RATIO`, from 0 up to ~1e-14 t below
        t, so an exp(-c / (t - tau)) boundary layer in f is resolved at
        every scale c, however many grid segments it spans; p is
        interpolated onto it and multiplied into the weights.
        """
        if not 0.0 < t <= self.grid.T:
            raise ValueError(f"history defined for 0 < t <= {self.grid.T}")
        nodes = self.grid.nodes
        tail = t - t * _TAIL_RATIO ** -np.arange(math.ceil(math.log(1e14, _TAIL_RATIO)))
        part = sorted_union(nodes[nodes < t], np.append(tail, t))
        w = _nodal_weights(beta, t - part, np.diff(part)) * np.interp(part, nodes, self.p)
        return part[:-1], w[:-1], float(w[-1])

    # -- serialization --------------------------------------------------

    def to_csv(self, path) -> None:
        """Write `t,p,F` rows at 17 significant digits (double round-trip)."""
        rows = np.column_stack((self.grid.nodes, self.p, self.F))
        with open(path, "w") as fh:
            fh.write("t,p,F\n" + "%.17g,%.17g,%.17g\n" * len(rows) % tuple(rows.ravel().tolist()))

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
        g = meta.get("grid") if isinstance(meta, dict) else None
        if not (isinstance(g, dict) and type(g.get("N")) is int and all(
                type(g.get(k)) in (int, float) and abs(g[k]) <= sys.float_info.max
                for k in ("T", "q"))):
            raise ValueError("metadata needs a JSON object with finite numeric grid.T and"
                             " grid.q and an integer grid.N")
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        if len(data) != g["N"] + 1:
            raise ValueError(f"density CSV has {len(data)} rows, grid.N needs {g['N'] + 1}")
        grid = TimeGrid(T=g["T"], N=g["N"], q=g["q"])
        if not np.allclose(data[:, 0], grid.nodes, rtol=0.0, atol=1e-12):
            raise ValueError("density CSV nodes do not match the grid metadata")
        est = cls(grid=grid, p=data[:, 1], F=data[:, 2], method=meta["method"],
                  fingerprint=meta.get("fingerprint", ""),
                  residual_summary=meta.get("residual_summary"))
        if meta.get("content_sha256") != est.content_sha256():
            raise ValueError("density CSV values do not match the content_sha256 in the metadata")
        return est


def sorted_union(a, b) -> np.ndarray:
    """The sorted distinct values of a and b, bit for bit those of `np.union1d`.

    Concatenate, sort, drop adjacent repeats: `np.union1d` does the same
    through `np.unique`, whose first call imports `numpy.ma` (17-32 ms).
    """
    u = np.sort(np.concatenate((a, b), axis=None))
    keep = np.empty(len(u), dtype=bool)
    keep[:1] = True
    np.not_equal(u[1:], u[:-1], out=keep[1:])
    return u[keep]


def problem_fingerprint(src: SourceSpec, curve: BoundaryCurve, grid: TimeGrid) -> str:
    """Content hash tying a density estimate to its (source, curve, grid).

    Numbers hash as floats and N as an int, whatever type built them."""
    h = hashlib.sha256()
    parts = [curve.kind, *(repr(float(v)) for v in (curve.gamma, curve.a, curve.b, curve.theta))]
    if curve.kind == "sampled":
        parts += [curve.knots_t.tobytes().hex(), curve.knots_x.tobytes().hex()]
    parts.append(src.kind)
    if src.width == 0.0:
        parts.append(repr(float(src.r0)))
    else:
        # a bump hashes as the knots (ends) and heights of its density
        ends = np.array([src.support_lower, src.support_upper])
        parts += [ends.tobytes().hex(), np.full(2, 1.0 / src.width).tobytes().hex()]
    parts += [repr(float(grid.T)), repr(int(grid.N)), repr(float(grid.q))]
    h.update("|".join(parts).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# equation ingredients
# ---------------------------------------------------------------------------


def source_term(src: SourceSpec, curve: BoundaryCurve, t):
    """Forcing term of the Volterra equation at time(s) t > 0.

    -int h(xi) G_x(X_t, t; xi, 0) dxi for the source's density h, which
    is -G_x(X_t, t; r0, 0) for a point source; `kernels.smeared_gaussian_dx`
    gives both in closed form.  Vectorised over t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("source term requires t > 0")
    return -smeared_gaussian_dx(curve.value(t), t, src.r0, src.width)


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
    overwritten.
    """
    quotient = np.divide(dx, dt)
    dx *= dx
    dx /= dt
    dx *= -0.5
    np.exp(dx, out=dx)
    np.multiply(quotient, dx, out=dt)
    dt /= -SQRT_TWO_PI
    return dt


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


def _quadrature_rows(t, x, c0, c1, ts, xs, kdiag=None):
    """The rows of A at times t, where the boundary is at x, over the nodes c0..c1-1.

    Row i approximates int_{tau_c0}^{tau_c1-1} G_x(X_{t_i}, t_i; X_tau,
    tau) p(tau) dtau: product weights on the segments between those nodes
    times kappa(t_i, tau).  A node at or past t_i has weight 0, except the
    diagonal (tau = t_i), whose weight multiplies `kdiag[i]`; `kdiag` may
    be left out when every node lies before every row.  The rows take
    t_i - tau once: clamped at 0 it gives the product weights, then kappa
    is built in its place and multiplied into them.
    """
    r = t[:, None] - ts[c0:c1]
    np.maximum(r, 0.0, out=r)
    A = _nodal_weights(-0.5, r, np.diff(ts[c0:c1]))
    dx = x[:, None] - xs[c0:c1]
    if kdiag is None:
        A *= _kappa_row(r, dx)
        return A
    # kappa needs t_i - tau > 0: a unit value on and past the diagonal
    # keeps it finite there, where kdiag replaces it
    on = r == 0.0
    r[on] = 1.0
    A *= np.where(on, kdiag[:, None], _kappa_row(r, dx))
    return A


def _interpolation_matrix(t, nodes, theta):
    """Barycentric interpolation from the Chebyshev nodes at angles `theta` to times t.

    Row i holds the Lagrange basis at t_i; a time on a node takes that
    node's value.
    """
    w = np.sin(theta)
    w[1::2] *= -1.0
    with np.errstate(divide="ignore"):
        L = w / (t[:, None] - nodes)
    hit = np.isinf(L)
    on_node = hit.any(axis=1)
    L[on_node] = hit[on_node]
    L /= L.sum(axis=1, keepdims=True)
    return L


def check_problem(src: SourceSpec, curve: BoundaryCurve, T: float) -> None:
    """Raise ValueError unless the source is strictly below X_0 and [0, T] in the curve's domain."""
    if not src.support_upper < curve.x0:
        raise ValueError(f"source (highest point {src.support_upper}) must lie strictly"
                         f" below X_0={curve.x0}")
    if T > curve.horizon:
        raise ValueError(f"horizon T={T} exceeds the boundary's domain [0, {curve.horizon}]")


def _discrete_system(curve, grid):
    """Nodes, boundary values and diagonal kappa of A in (I - A) p = g, shared by every source.

    The diagonal is the limit -X'(t_i) / sqrt(2 pi) from the curve's exact
    left derivative; a difference quotient would cost every row O(h^(3/2)).
    """
    ts = grid.nodes
    kdiag = np.zeros(len(ts))
    kdiag[1:] = -curve.slope(ts[1:]) / SQRT_TWO_PI
    return ts, np.asarray(curve.value(ts)), kdiag


def _source_vector(src, curve, ts):
    """Right-hand side g of (I - A) p = g for one source."""
    check_problem(src, curve, ts[-1])
    g = np.zeros(len(ts))
    g[1:] = source_term(src, curve, ts[1:])
    return g


def _estimate(src, curve, grid, p, method, summary):
    """Wrap a solved p with its trapezoid-rule CDF; a p that is no density is a SolverError."""
    F = np.zeros(len(p))
    F[1:] = np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(grid.nodes))
    try:
        return DensityEstimate(grid=grid, p=p, F=F, method=method,
                               fingerprint=problem_fingerprint(src, curve, grid),
                               residual_summary=summary)
    except ValueError as exc:
        raise SolverError(f"{method} solution fails the density checks ({exc}); refine the grid") from exc


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _block_sweep(curve, grid, jobs):
    """Solve (I - A) p = g for every job, `BLOCK_ROWS` rows at a time, in time order.

    A depends only on (curve, grid), so each piece of it is assembled once
    and shared by every job `(src, solve_block)`.  Blocks group into
    dyadic panels of 2, 4, 8, ... blocks.  A panel whose rows span [a, b]
    owns the far band of segments up to the last node tau <= a -
    `FAR_MARGIN` (b - a) that no ancestor owns.  Its children take the band
    instead when the panel is the incomplete last one of its level, or
    when a breakpoint of X (t = 0 or an interior knot of a `sampled` curve)
    lies within `FAR_MARGIN` (b - a) of [a, b], where the rows of A are not
    analytic in t.  When a panel starts, its band's p is solved: the band
    is assembled at `CHEBYSHEV_TIMES` Chebyshev times in [a, b], and each
    job adds its product with p, interpolated to the panel's rows, into
    its g.  Each block then assembles its own rows exactly on the segments
    from where its level-1 panel's band ends up to the diagonal; each job
    takes that history in one matrix-vector product, and
    `solve_block(ts, lo, M, rhs)` returns its p[lo:hi] from
    (I - M) p[lo:hi] = rhs, with M = A[lo:hi, lo:hi] lower triangular and
    read only.

    Bands meet at a node and split the rows by segment, so that node's
    weight has a part on each side.  Split by node instead, the roundoff
    of a weight's two segments would fall on different row times and no
    longer cancel against its neighbours': that moved p by 7e-14 at
    N = 4096, where this split moves it by 2e-15.

    Returns one p per job, each bit-identical to a sweep of that job
    alone, and the number of kernel pairs assembled.
    """
    gs = [_source_vector(src, curve, grid.nodes) for src, _ in jobs]
    ts, xs, kdiag = _discrete_system(curve, grid)
    n = len(ts)
    ps = [np.zeros(n) for _ in jobs]
    breaks = [0.0, *(curve.knots_t[1:-1].tolist() if curve.kind == "sampled" else ())]
    theta = (np.arange(CHEBYSHEV_TIMES) + 0.5) * (math.pi / CHEBYSHEV_TIMES)
    levels = ((n - 2) // BLOCK_ROWS).bit_length()  # the top panel holds every block
    # limit[l]: where the bands of the current level-l panel and its ancestors end
    limit = [0] * (levels + 2)
    pairs = 0
    for b, lo in enumerate(range(1, n, BLOCK_ROWS)):
        for level in range(levels, 0, -1):
            if b % (1 << level):
                continue
            limit[level] = c0 = limit[level + 1]
            end = lo + (BLOCK_ROWS << level)
            if end > n:
                continue
            a, z = ts[lo], ts[end - 1]
            reach = FAR_MARGIN * (z - a)
            if bisect.bisect_left(breaks, a - reach) < bisect.bisect_right(breaks, z + reach):
                continue
            c1 = int(np.searchsorted(ts, a - reach, side="right")) - 1
            if c1 <= c0:
                continue
            limit[level] = c1
            tc = 0.5 * (a + z) + 0.5 * (z - a) * np.cos(theta)
            B = _quadrature_rows(tc, curve.value(tc), c0, c1 + 1, ts, xs)
            L = _interpolation_matrix(ts[lo:end], tc, theta)
            pairs += B.size
            for g, p in zip(gs, ps):
                g[lo:end] += L @ (B @ p[c0:c1 + 1])
        hi, c = min(lo + BLOCK_ROWS, n), limit[1]
        A = _quadrature_rows(ts[lo:hi], xs[lo:hi], c, hi, ts, xs, kdiag[lo:hi])
        pairs += A.size
        for (_, solve_block), g, p in zip(jobs, gs, ps):
            p[lo:hi] = solve_block(ts, lo, A[:, lo - c:], g[lo:hi] + A[:, :lo - c] @ p[c:lo])
    return ps, pairs


def _marching_step():
    """Block step of `solve_marching` and a function returning its residual summary."""
    min_diag = math.inf

    def substitute(ts, lo, M, rhs):
        nonlocal min_diag
        q = np.empty(len(rhs))
        for k in range(len(rhs)):
            diag = 1.0 - M[k, k]
            min_diag = min(min_diag, diag)
            if diag < MIN_DIAGONAL:
                raise SolverError(
                    f"diagonal coefficient {diag:.3g} below {MIN_DIAGONAL} at node {lo + k}"
                    " (t={:.6g}); refine the grid".format(ts[lo + k])
                )
            q[k] = (rhs[k] + M[k, :k] @ q[:k]) / diag
        return q

    return substitute, lambda: {"min_diagonal": min_diag}


def _picard_step(max_iter, tol):
    """Block step of `solve_picard` and a function returning its residual summary."""
    windows = []

    def iterate(ts, lo, M, rhs):
        t_start, t_end = float(ts[lo - 1]), float(ts[lo + len(rhs) - 1])
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
                f"Picard window {len(windows)} ([{t_start:.6g}, {t_end:.6g}]) did not"
                f" converge in {max_iter} iterations (last contraction ratio {max_ratio:.3g})"
            )
        windows.append({
            "t_start": t_start, "t_end": t_end,
            "iterations": iterations, "max_ratio": max_ratio,
        })
        return q

    return iterate, lambda: {
        "windows": windows,
        "max_ratio": max((w["max_ratio"] for w in windows), default=0.0),
    }


def solve_many(
    curve: BoundaryCurve,
    grid: TimeGrid,
    requests: list[tuple[SourceSpec, str]],
    max_iter: int = 200,
    tol: float = 1e-10,
) -> list[DensityEstimate]:
    """Solve several requests `(src, method)` on one (curve, grid) in one block sweep.

    `method` is "marching" or "picard" (`max_iter` and `tol` are Picard's,
    as in `solve_picard`).  Every block of the quadrature matrix is
    assembled once for all requests, and each returned estimate, one per
    request and in order, is bit-identical to the separate `solve_*` call.
    A failure in any request raises for the whole call.
    """
    jobs, summaries = [], []
    for src, method in requests:
        if method == "marching":
            step, summary = _marching_step()
        elif method == "picard":
            step, summary = _picard_step(max_iter, tol)
        else:
            raise ValueError(f"unknown solve method {method!r}")
        jobs.append((src, step))
        summaries.append(summary)
    with np.errstate(over="ignore"):  # a boundary step past ~1e154 squares to inf: kappa = 0
        ps, pairs = _block_sweep(curve, grid, jobs)
    return [_estimate(src, curve, grid, p, method, summary() | {"kernel_pairs": pairs})
            for (src, method), p, summary in zip(requests, ps, summaries)]


def solve_marching(src: SourceSpec, curve: BoundaryCurve, grid: TimeGrid) -> DensityEstimate:
    """Time-marching product-integration solve of the density equation.

    Blocked forward substitution on (I - A) p = g: each block is solved
    node by node in closed form, the final (singular) subinterval
    coupling the unknown p(t_i) through the diagonal kappa limit.  Fails
    if the diagonal coefficient 1 - A_ii drops below 0.1 (grid too
    coarse for the boundary).
    """
    return solve_many(curve, grid, [(src, "marching")])[0]


def solve_picard(
    src: SourceSpec,
    curve: BoundaryCurve,
    grid: TimeGrid,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> DensityEstimate:
    """Picard iteration for the density equation, one window per block of rows.

    Each block of `BLOCK_ROWS` rows is fixed-point iterated,
    q <- rhs + M q, with the history over earlier blocks frozen, until
    successive sup-norm differences fall below `tol`.  M is lower
    triangular, so this converges whenever every |A_ii| < 1 (see the
    module docstring); memory is O(BLOCK_ROWS N), as for marching.
    """
    return solve_many(curve, grid, [(src, "picard")], max_iter=max_iter, tol=tol)[0]
