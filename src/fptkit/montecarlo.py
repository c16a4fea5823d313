"""Monte Carlo oracle for first-passage-time distributions.

The estimator ("fine scheme") monitors each Brownian path on the fine grid
t_k = min(k dt, T), k = 0..n, and declares the first crossing in substep
(t_k, t_{k+1}] when either B_{t_{k+1}} >= X_{t_{k+1}} or
u_k < exp(-2 d_k d_{k+1} / (t_{k+1} - t_k)), where d_k = X_{t_k} - B_{t_k}
and u_k is uniform.  That probability is exact for a Brownian bridge
against the boundary linearized over the substep, so the scheme counts the
crossings between fine nodes that monitoring B at the nodes alone misses.
Hit times are recorded at substep right endpoints and censored at the
horizon.

The fine path is never built in full.  It is generated by dyadic Brownian-
bridge refinement:

* Coarse grid: every 2^k-th fine node plus the last, with
  k = max(0, floor(log2 n) - 6), so K = 64-128 coarse intervals (fewer for
  short runs).  Coarse node values are r0 + cumsum(sqrt(Δt_j) Z_j).
* An interval [i0, i1] of fine indices is straight when it is one step
  long or X is affine on it, so that the interpolant of X at its fine
  nodes is one line.  That is read from the curve's family
  (`BoundaryCurve.affine_on`): every interval of a constant or linear
  curve, or of a power curve with θ = 1 or b = 0; on a sampled curve, one
  with no knot strictly inside; on any other power curve, none longer than
  one step.
* An interval is busy while a bound on the fine scheme's crossing
  probability inside it exceeds 2^-53.  The fine scheme crosses iff a
  Brownian bridge crosses the piecewise-linear interpolant of X at the fine
  nodes, which lies above chord - δ, δ = max over the interval's fine nodes
  of (chord - X)+ (0 on a straight interval).  Hence P(cross) <=
  exp(-2 (d_0 - δ)(d_1 - δ)/Δ), or 1 when d_0 <= δ or d_1 <= δ: exact on a
  straight interval and conservative on any other.  δ does not depend on
  the path; it is tabulated once per call, by midpoint, for the intervals
  that are not straight (`_Plan`).
* A busy interval that is not straight is split at m = (i0 + i1) // 2 by
  the Lévy midpoint  B_m = B_0 + w (B_1 - B_0) + s Z_m,  with
  w = (t_m - t_0)/Δ and s = sqrt((t_m - t_0)(t_1 - t_m)/Δ), Δ = t_1 - t_0,
  at the real node times (the last fine step may be short).
* A straight interval, busy or one step long, is not split.  It takes the
  fine scheme's substep test over its whole span, which is exact against a
  line at any length: it crosses iff B_1 >= X_1 or u < exp(-2 d_0 d_1/Δ).
  A one-step interval is the fine scheme's substep, and a crossed one hits
  at its end.  A longer one hits at the end of the fine substep that holds
  the bridge's first-passage time τ = t_0 + Δ r/(1 + r), r inverse
  Gaussian with mean d_0/|d_1| and shape d_0²/Δ given the crossing (Lévy
  when d_1 = 0; `_passage_fraction`).  τ is drawn only for the earliest
  interval that crosses among a path's intervals at one level, the only
  one that can hold its first crossing.
* Intervals that start at or after a path's earliest known crossing are
  dropped (by `_triage`, and by the coarse walk): they cannot hold it.

An interval that is not busy is neither split nor tested, which changes
the result with probability at most 2^-53.  So where no interval longer
than one step is straight (other power curves, a sampled curve with a knot
at every fine node, and any run with T/dt < 128, whose coarse grid is the
fine one), the hits equal those of the full fine path built by Lévy
construction at every node from the same words.  Elsewhere they follow the
fine scheme's law, since the test and τ are exact against a line, but not
its paths sample for sample: the nodes inside a straight interval are never
drawn.  Hits stay on the fine grid either way, so dt keeps its meaning.  A
path far from the boundary costs about K draws instead of 2n.

Schedule.  Each worker takes one contiguous range of paths, the calling
process the first and a `_forked` helper, which inherits the plan by fork
(it is never pickled), each other one.  Paths are independent, so a helper
only marks its range done; the calling process runs any range left unmarked
(every one without `os.fork`).  Within a range one loop refines a frontier:
every step splits or tests each pending interval of every admitted path,
with one Philox call for all of them (and one more for the first-passage
times of the paths that crossed).  Paths are walked on the
coarse grid `BLOCK_PATHS` at a time, which bounds the walk's working set,
and walked blocks join the frontier until it holds `FRONTIER_INTERVALS`
pending intervals.  That keeps each Philox call a few thousand words long,
where numpy's per-call cost no longer dominates.  Admission stops at that
bound, but nothing caps the frontier: the last block admitted and splitting
grow it past the bound (to 23,570 intervals for 8192 paths started 0.1
below X = 1 + 0.5 t^0.75, dt = 1e-4, seed 5).  A path's pending intervals
always share one tree level, its drop rule reads only its own earliest
crossing, and paths never interact, so the schedule cannot change the hits
or `n_draws`.

Memory.  Each refinement level frees a few MB of arrays, which glibc by
default returns to the kernel for the next level to fault in again.  So
`simulate` sets one allocator policy per process before it builds the plan
and forks (`_keep_freed_heap`, through mallopt(3)): from the first call on,
arrays under 32 MiB come from the heap, and up to 64 MiB of freed heap is
kept.  The policy is process-wide, the helpers inherit it, and no result
changes; where the C library has no `mallopt` nothing is set.

Reproducibility is a hard contract.  Path i draws from two streams, both
functions of (seed, i) alone.  Its K coarse increments Z_j are row
i % 256 of its block's

    RandomState(PCG64(SeedSequence([seed, i // 256]))).standard_normal((rows, K)),

256 being `BLOCK_PATHS` and rows the block's paths (fewer in a partial
last block), drawn by the block's coarse walk.  That is NumPy's legacy
sampler (a polar Box-Muller in C, no trigonometry) on the PCG64 stream.
NEP 19 freezes both, so the rows are the same across NumPy releases.  The
draw fills rows in order, so row r does not depend on how many rows are
drawn, and a partial last block holds the rows a full one would.

Every refinement number is a fixed 64-bit word of a counter-addressed
stream (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11): word j is half h = j % 2 of Philox block j // 2 of
Philox4x32-10, keyed by the seed's 32-bit halves (lo, hi) at counter
(block lo, block hi, i lo, i hi), and reads (lane 2h+1 << 32) | lane 2h.
Each Philox block is computed on its own, so words are drawn in any
order:

* word m: the midpoint normal of fine node m;
* word n + 1 + k: the bridge uniform u of the straight interval that starts
  at node k (for a one-step one, u_k of substep k);
* words 2n + 2 + 4k and 2n + 4 + 4k, the even words of blocks n + 1 + 2k
  and n + 2 + 2k: the normal and the uniform that draw the first-passage
  time of the crossed straight interval that starts at node k.

A path tests at most one straight interval per start node, so no word is
read twice.  Word 2n + 1 is left unused.

A uniform is (w >> 11) 2^-53.  A normal is the Box-Muller transform (Box
and Muller, Ann. Math. Statist. 29, 1958) of its block's two words
w_even, w_odd:

    R = sqrt(-2 ln(((w_even >> 11) + 1/2) 2^-53)),   θ = 2π (w_odd >> 11) 2^-53,

and word j's normal is R cos(θ - (j % 2) π/2), R sin θ up to rounding
for an odd j.  It reads its partner word too, whatever draws it, so its
bits do not depend on the other words of the call.  A path is a pure
function of (seed, i), whatever the refinement order, frontier size or
worker count.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import operator
import os
import signal
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .boundary import BoundaryCurve
from .solver import DensityEstimate, SourceSpec, check_problem, sorted_union, write_csv, write_json

#: paths per block: one stream block of the coarse increments, one coarse
#: walk (which bounds its working set) and the step in which paths join the
#: refinement frontier; part of the stream's definition (module docstring)
BLOCK_PATHS = 256

#: pending intervals at which the refinement frontier stops admitting walked
#: blocks, so that each step's Philox call is long enough to amortize numpy's
#: per-call cost; splitting can grow the frontier past it (results do not
#: depend on it)
FRONTIER_INTERVALS = 4096

#: an interval is refined while exp(-2 e0 e1 / Δ) > 2^-53, i.e. while
#: e0 e1 < _HALF_LOG_INV_EPS * Δ
_HALF_LOG_INV_EPS = 0.5 * 53.0 * math.log(2.0)

_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_PHILOX_M = (_U64(0xD2511F53), _U64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
#: 2π 2^-53: the Box-Muller angle of one unit of a 53-bit word
_ANGLE_ULP = 2.0 * math.pi * 2.0 ** -53


@dataclass(frozen=True)
class McConfig:
    """Simulation parameters; everything downstream is deterministic in these."""

    n_paths: int
    dt: float
    T: float
    seed: int

    def __post_init__(self):
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
                raise TypeError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError("dt must be positive and finite")
        if not math.isfinite(self.T) or self.T <= 0.0:
            raise ValueError("horizon T must be positive and finite")
        if self.dt > self.T / 10.0:
            raise ValueError("dt must be <= T/10")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True, eq=False)
class McRun:
    """Sorted hit-time samples plus the implied empirical CDF.

    Frozen, with hit_times a read-only float64 copy, so `ecdf` and
    `n_censored` stay those of the sample.  `n_draws` counts the variates
    the simulation drew: K coarse increments per path and one per
    refinement word, so two per first-passage time drawn inside a straight
    interval.  Like the hits it is a function of the config alone.
    """

    config: McConfig
    hit_times: np.ndarray
    n_draws: int

    def __post_init__(self):
        hits = np.array(self.hit_times, dtype=float)
        hits.flags.writeable = False
        object.__setattr__(self, "hit_times", hits)
        if len(hits) > self.config.n_paths:
            raise ValueError("a run has at most one hit per path")
        if len(hits) and not (np.all(hits > 0.0) and np.all(hits <= self.config.T)):
            raise ValueError("hit times must lie in (0, T]")
        if np.any(np.diff(hits) < 0.0):
            raise ValueError("hit times must be sorted")

    @property
    def n_censored(self) -> int:
        """Paths that did not hit by T."""
        return self.config.n_paths - len(self.hit_times)

    def ecdf(self, t):
        """Fraction of paths absorbed by time t (right-continuous step function)."""
        t = np.asarray(t, dtype=float)
        val = np.searchsorted(self.hit_times, t, side="right") / self.config.n_paths
        return val if val.ndim else float(val)

    def summary(self) -> dict:
        qs = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        quantiles = (
            {str(q): float(np.quantile(self.hit_times, q)) for q in qs}
            if len(self.hit_times)
            else {}
        )
        return {
            **asdict(self.config),
            "n_hits": int(len(self.hit_times)),
            "n_censored": self.n_censored,
            "n_draws": int(self.n_draws),
            "ecdf_at_horizon": float(self.ecdf(self.config.T)),
            "hit_time_quantiles": quantiles,
        }

    def to_json(self, path) -> None:
        write_json(path, self.summary())

    def hits_to_csv(self, path) -> None:
        write_csv(path, "t", self.hit_times)


def _time_axis(cfg: McConfig) -> np.ndarray:
    steps = cfg.T / cfg.dt - 1e-9
    if not steps < np.iinfo(np.intp).max // 8:  # inf at a subnormal dt; beyond any float64 array
        raise MemoryError(f"T/dt = {cfg.T / cfg.dt:.3g} time steps")
    n_steps = int(math.ceil(steps))
    return np.minimum(np.arange(n_steps + 1) * cfg.dt, cfg.T)


# ---------------------------------------------------------------------------
# counter-addressed random words
# ---------------------------------------------------------------------------


def _philox(seed: int, path, block) -> list:
    """The 4 lanes of Philox4x32-10, each a uint64 array holding 32 bits.

    The key is the seed's 32-bit halves (lo, hi) and the counter is
    (block lo, block hi, path lo, path hi), `path` and `block` broadcast
    together.  Each 32 x 32-bit product is exact in one uint64 multiply.
    """
    block, path = np.broadcast_arrays(np.asarray(block, dtype=_U64), np.asarray(path, dtype=_U64))
    c = [block & _LO32, block >> _U64(32), path & _LO32, path >> _U64(32)]
    t = np.empty_like(c[0])
    k0, k1 = seed & 0xFFFFFFFF, seed >> 32
    for _ in range(10):
        # lanes (c0, c1, c2, c3) become (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1,
        # lo(M0 c0)), in the buffers (t, c2, c1, c0); c3's buffer is the next t
        c0, c1, c2, c3 = c
        c0 *= _PHILOX_M[0]
        c2 *= _PHILOX_M[1]
        np.right_shift(c2, _U64(32), out=t)
        t ^= c1
        t ^= _U64(k0)
        np.right_shift(c0, _U64(32), out=c1)
        c1 ^= c3
        c1 ^= _U64(k1)
        c2 &= _LO32
        c0 &= _LO32
        c, t = [t, c2, c1, c0], c3
        k0, k1 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF, (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return c


def _join(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 64-bit words (hi << 32) | lo of two lanes, in hi's buffer."""
    hi <<= _U64(32)
    hi |= lo
    return hi


def _variates(seed: int, path: np.ndarray, word: np.ndarray, n_uniform: int) -> np.ndarray:
    """Word `word` of path `path`'s stream as a uniform or a normal.

    The first `n_uniform` words become uniforms and the rest normals, each
    word whatever the others.  Word j is half j % 2 of block j // 2 and
    pairs with the block's other half, all in one Philox call; the results
    are float64 views of the words' buffers.
    """
    word = word.astype(_U64)
    l0, l1, l2, l3 = _philox(seed, path, word >> _U64(1))
    even, odd = _join(l0, l1), _join(l2, l3)
    even >>= _U64(11)
    odd >>= _U64(11)
    x = even.view(np.float64)
    head = slice(0, n_uniform)
    x[head] = np.where((word[head] & _U64(1)).astype(bool), odd[head], even[head]) * 2.0 ** -53
    # Box-Muller: R from the even word, θ less (j % 2) π/2 from the odd one
    r = x[n_uniform:]
    np.add(even[n_uniform:], 0.5, out=r)
    r *= 2.0 ** -53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = odd.view(np.float64)[n_uniform:]
    np.multiply(odd[n_uniform:], _ANGLE_ULP, out=theta)
    theta -= (word[n_uniform:] & _U64(1)) * (0.5 * math.pi)
    np.cos(theta, out=theta)
    r *= theta
    return x


# ---------------------------------------------------------------------------
# refinement tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """Path-independent tables of one `simulate` call.

    An interval of the refinement tree is straight when it is one step
    long or X is affine on it (`BoundaryCurve.affine_on`).  Only the others
    are split, and every interior fine node is the Lévy midpoint of at most
    one of them: `sag[m]` is δ of the interval split at m, and NaN at every
    other node.  A curve affine on [0, T] has no table (`sag` is None).
    """

    tgrid: np.ndarray
    xgrid: np.ndarray
    coarse: np.ndarray  # fine indices of the coarse nodes
    sag: np.ndarray | None

    @property
    def n_steps(self) -> int:
        return len(self.tgrid) - 1

    @classmethod
    def build(cls, tgrid: np.ndarray, curve: BoundaryCurve) -> "_Plan":
        xgrid = np.asarray(curve.value(tgrid), dtype=float)
        n = len(tgrid) - 1
        stride = 1 << max(0, n.bit_length() - 7)  # 2^k, k = max(0, floor(log2 n) - 6)
        coarse = np.append(np.arange(0, n, stride), n)
        sag = None
        if not curve.affine_on(0.0, tgrid[-1]):
            sag = np.full(n + 1, np.nan)
            lo, hi = coarse[:-1], coarse[1:]
            while True:
                split = hi - lo > 1
                split[split] = ~curve.affine_on(tgrid[lo[split]], tgrid[hi[split]])
                lo, hi = lo[split], hi[split]
                if not len(lo):
                    break
                mid = (lo + hi) // 2
                sag[mid] = _sag(tgrid, xgrid, lo, hi)
                lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
        return cls(tgrid=tgrid, xgrid=xgrid, coarse=coarse, sag=sag)

    def sag_at(self, lo: np.ndarray, hi: np.ndarray):
        """Whether each interval [lo, hi] is straight, and its δ (0 where it is)."""
        if self.sag is None:
            return np.ones(len(lo), dtype=bool), np.zeros(len(lo))
        sag = self.sag[(lo + hi) // 2]
        straight = np.isnan(sag)
        straight |= hi - lo == 1
        sag[straight] = 0.0
        return straight, sag


def _sag(tgrid, xgrid, lo, hi) -> np.ndarray:
    """max over fine nodes i in [lo, hi] of (chord - X_i)+, per interval.

    The intervals must be sorted and disjoint, each at least one step
    long.  Their nodes lo..hi-1 are laid out as consecutive runs, so each
    interval's end values are repeated along its run instead of gathered
    per node, and a run's maximum is one `reduceat` segment; node lo
    contributes chord - X = 0, so no sag is negative.
    """
    size = hi - lo
    start = np.cumsum(size) - size
    node = np.arange(start[-1] + size[-1]) + np.repeat(lo - start, size)
    t0, x0 = tgrid[lo], xgrid[lo]
    chord = tgrid[node]
    chord -= np.repeat(t0, size)
    chord /= np.repeat(tgrid[hi] - t0, size)
    chord *= np.repeat(xgrid[hi] - x0, size)
    chord += np.repeat(x0, size)
    chord -= xgrid[node]
    return np.maximum.reduceat(chord, start)


def _must_split(e0, e1, span):
    """Whether the bound exp(-2 e0 e1/Δ) on a fine crossing inside exceeds 2^-53.

    e0 = d0 - δ and e1 = d1 - δ are the end gaps less the sag; e0 is
    overwritten.
    """
    split = e0 <= 0.0
    split |= e1 <= 0.0
    e0 *= e1
    split |= e0 < _HALF_LOG_INV_EPS * span
    return split


def _coarse_level(plan: _Plan, seed: int, block: int, rows: int, r0: float):
    """First crossed coarse node of the `rows` paths of block `block` (n + 1
    if none), and their busy intervals.

    The block's coarse increments are one legacy `standard_normal` draw
    (module docstring).  Busy intervals are those that may hold the first
    crossing, returned as (path row, fine nodes lo < hi, B at both ends).
    The walk works in the buffers it allocates: the normals become the
    scaled increments, and the gap to the boundary becomes e1 of
    `_must_split`.
    """
    tg, xg, coarse = plan.tgrid, plan.xgrid, plan.coarse
    rng = np.random.RandomState(np.random.PCG64(np.random.SeedSequence([seed, block])))
    z = rng.standard_normal((rows, len(coarse) - 1))
    z *= np.sqrt(np.diff(tg[coarse]))
    b = np.empty((rows, len(coarse)))
    b[:, 0] = r0
    np.cumsum(z, axis=1, out=b[:, 1:])
    b[:, 1:] += r0
    del z
    gap = np.subtract(xg[coarse], b)
    crossed = gap <= 0.0
    first = np.where(crossed.any(axis=1), coarse[np.argmax(crossed, axis=1)],
                     plan.n_steps + 1)
    lo, hi = coarse[:-1], coarse[1:]
    sag = plan.sag_at(lo, hi)[1]
    e0 = gap[:, :-1] - sag
    gap[:, 1:] -= sag
    busy = _must_split(e0, gap[:, 1:], tg[hi] - tg[lo])
    del e0, gap
    busy |= hi - lo == 1
    busy &= lo < first[:, None]
    p, c = np.nonzero(busy)
    return first, (p, lo[c], hi[c], b[p, c], b[p, c + 1])


def _simulate_range(plan: _Plan, seed: int, i0: int, i1: int, r0: float):
    """First fine crossing index (n + 1 if none) of paths i0..i1-1, and variates drawn.

    i0 starts a block.  Paths join the frontier `BLOCK_PATHS` at a time,
    after their block's coarse walk, until it holds `FRONTIER_INTERVALS`
    intervals (see the module docstring); each step refines the whole
    frontier one level.
    """
    n_coarse = len(plan.coarse) - 1
    first = np.empty(i1 - i0, dtype=np.intp)
    front = [np.empty(0, dtype=np.intp)] * 3 + [np.empty(0)] * 2  # p, lo, hi, blo, bhi
    row, n_draws = 0, 0
    while True:
        while row < len(first) and len(front[0]) < FRONTIER_INTERVALS:
            end = min(row + BLOCK_PATHS, len(first))
            first[row:end], (p, *ends) = _coarse_level(
                plan, seed, (i0 + row) // BLOCK_PATHS, end - row, r0)
            front = [np.concatenate(pair) for pair in zip(front, (p + row, *ends))]
            n_draws += (end - row) * n_coarse
            row = end
        if len(front[0]):
            n_draws += _refine_level(plan, seed, i0, first, front)
        elif row == len(first):
            return first, n_draws


def _refine_level(plan: _Plan, seed: int, i0: int, first: np.ndarray, front: list) -> int:
    """Split or test every interval of `front` once, lowering `first` at each hit.

    Replaces the list `front` in place by the halves that still need
    refining, and returns the number of words drawn.  The old intervals are
    freed before the words are drawn.
    """
    tg, xg, n = plan.tgrid, plan.xgrid, plan.n_steps
    split, test = _triage(plan, first, front)
    rows = np.flatnonzero(split)  # five gathers by the mask itself cost ~10% of a far run
    p, lo, hi, blo, bhi = (a[rows] for a in front)
    rows = np.flatnonzero(test)
    tp, tlo, thi = (a[rows] for a in front[:3])
    d0, d1 = xg[tlo] - front[3][rows], xg[thi] - front[4][rows]
    front.clear()
    m = (lo + hi) // 2
    draw = d1 > 0.0  # an interval whose end crossed crosses
    k = np.count_nonzero(draw)
    x = _variates(seed, i0 + np.concatenate((tp[draw], p)),
                  np.concatenate((n + 1 + tlo[draw], m)), k)
    n_draws = len(x)

    # straight intervals: the fine scheme's substep test over the whole span
    crossed = ~draw
    crossed[draw] = x[:k] < np.exp(-2.0 * d0[draw] * d1[draw] / (tg[thi[draw]] - tg[tlo[draw]]))
    tp, tlo, thi, d0, d1 = (a[crossed] for a in (tp, tlo, thi, d0, d1))
    np.minimum.at(first, tp, thi)
    # the earliest crossed interval of a path ends at its `first`: if it is
    # longer than one step, its first-passage time places the hit
    long = np.flatnonzero((first[tp] == thi) & (thi - tlo > 1))
    if len(long):
        first[tp[long]] = _passage_node(plan, seed, i0 + tp[long], tlo[long], thi[long],
                                        d0[long], d1[long])
        n_draws += 2 * len(long)

    # split intervals: Lévy midpoints
    t0, t1, tm = tg[lo], tg[hi], tg[m]
    span = t1 - t0
    bm = (blo + (tm - t0) / span * (bhi - blo)
          + np.sqrt((tm - t0) * (t1 - tm) / span) * x[k:])
    hit = xg[m] - bm <= 0.0
    np.minimum.at(first, p[hit], m[hit])
    front += (np.concatenate((p, p)), np.concatenate((lo, m)), np.concatenate((m, hi)),
              np.concatenate((blo, bm)), np.concatenate((bm, bhi)))
    return n_draws


def _triage(plan: _Plan, first: np.ndarray, front):
    """Which intervals of `front` to split, and which straight ones to test.

    Drops every interval that starts at or after its path's `first`.  Of
    the rest, a busy interval (`_must_split`) is tested if it is straight
    and split if not, and a one-step interval is always tested.
    """
    tg, xg = plan.tgrid, plan.xgrid
    p, lo, hi, blo, bhi = front
    straight, sag = plan.sag_at(lo, hi)
    e0, e1 = xg[lo] - blo, xg[hi] - bhi
    e0 -= sag
    e1 -= sag
    busy = _must_split(e0, e1, tg[hi] - tg[lo])
    busy |= hi - lo == 1
    busy &= lo < first[p]
    return busy & ~straight, busy & straight


def _passage_node(plan: _Plan, seed: int, path, lo, hi, d0, d1) -> np.ndarray:
    """The fine node ending the substep that holds the first-passage time
    of each crossed straight interval [lo, hi] of path `path`.

    d0 > 0 and d1 are the gaps to the boundary at its ends.  The time is
    drawn from word 2n + 2 + 4 lo, a normal, and word 2n + 4 + 4 lo, a
    uniform (module docstring).
    """
    tg = plan.tgrid
    word = 2 * plan.n_steps + 2 + 4 * lo
    x = _variates(seed, np.concatenate((path, path)), np.concatenate((word + 2, word)), len(lo))
    t0 = tg[lo]
    span = tg[hi] - t0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tau = t0 + span * _passage_fraction(np.abs(d1) / d0, span / (d0 * d0),
                                            x[len(lo):], x[:len(lo)])
    return np.clip(np.searchsorted(tg, tau), lo + 1, hi)


def _passage_fraction(m, a, z, v):
    """Where in its span a crossed Brownian bridge first meets a line.

    The bridge spans Δ and ends at gaps d0 > 0 and d1 below the line;
    m = |d1|/d0 and a = Δ/d0².  Given that it crosses, the crossing time is
    t_lo + Δ r/(1 + r), r inverse Gaussian with mean d0/|d1| and shape
    d0²/Δ (Lévy with scale d0²/Δ when d1 = 0), whatever the sign of d1.  r
    is drawn by Michael, Schucany and Haas (Am. Statist. 30, 1976) from the
    normal z and the uniform v; returns r/(1 + r).
    """
    # with b = a z², MSH's smaller root is r = 1/s, s = m + (b + sqrt(b (b + 4m)))/2,
    # kept when v (s + m) <= s and replaced by mean²/r = s/m² otherwise; in
    # this form no gap, however large or small, makes a NaN
    b = z * z
    b *= a
    s = b + 4.0 * m
    s *= b
    np.sqrt(s, out=s)
    s += b
    s *= 0.5
    s += m
    return np.where(v * m <= s * (1.0 - v), 1.0 / (1.0 + s), 1.0 / (1.0 + m * (m / s)))


def _keep_freed_heap() -> None:
    """Keep the arrays a refinement level frees in this process's heap.

    By default glibc returns them to the kernel (heap-top trim, or munmap
    of a mapped block), and the next level faults them in again page by
    page.  Arrays under 32 MiB now come from the heap, and up to 64 MiB of
    freed heap is kept: the ceilings of glibc's own dynamic thresholds on
    64-bit builds.  Both are set, because setting either freezes the other
    where it stands (the mmap threshold starts at 128 KiB, where a 1 MiB
    array costs 257 faults each time).  Process-wide and idempotent; does
    nothing where the C library has no `mallopt`.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no dlopen(NULL)
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def cpu_workers() -> int:
    """Processes a parallel stage may use: at most 4, at most the CPUs in this
    process's affinity mask, and at most the FPT_THREADS environment variable.

    The one CPU policy of the package: it sizes `fpt simulate`'s path
    ranges, and changes no result.
    """
    cap = os.environ.get("FPT_THREADS")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    default = min(4, cpus or 1)
    if cap is None:
        return default
    try:
        return max(1, min(default, int(cap)))
    except ValueError:
        return default


def _bytes(n: int) -> str:
    """A byte count in at most 15 digits, and as "1.23e+301 bytes" past that;
    integer arithmetic, so no count is too large to print."""
    if n < 10 ** 15:
        return f"{n} bytes"
    e = int(math.log10(n))
    e += (10 ** (e + 1) <= n) - (10 ** e > n)  # log10 of a large n may round either way
    lead = n // 10 ** (e - 2)  # the 3 leading digits
    return f"{lead // 100}.{lead % 100:02d}e+{e} bytes"


@contextlib.contextmanager
def _forked(helpers, nbytes, work):
    """Up to `helpers` forked processes sharing `nbytes` of anonymous memory.

    Helper k = 1..helpers runs `work(k, shared)`, then sets its done byte.
    Yields (shared, finished): `finished(k)` reaps helper k and tells
    whether it set its byte, so a helper that died or was never started
    (none is without `os.fork`) reads False.  Every helper not yet reaped is
    killed and reaped when the block ends, however it ends.  Memory that
    cannot be mapped, or whose size passes ssize_t, raises MemoryError.
    """
    try:
        region = mmap.mmap(-1, nbytes + helpers + 1)  # then a done byte per k = 0..helpers
    except (OSError, OverflowError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise MemoryError(f"cannot map {_bytes(nbytes)} of shared memory ({reason})") from None
    shared = memoryview(region)[:nbytes]
    pids = {}

    def finished(k):
        if k in pids:
            # already gone where SIGCHLD is ignored; waitpid(pid) waits for no other child
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pids[k], 0)
            del pids[k]
        return region[nbytes + k] == 1

    try:
        for k in range(1, helpers + 1 if hasattr(os, "fork") else 1):
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork while threads (OpenBLAS's) run;
                    # the helpers take no lock they hold: numpy ufuncs, then os._exit
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    work(k, shared)
                    region[nbytes + k] = 1
                finally:
                    os._exit(0)
            pids[k] = pid
        yield shared, finished
    finally:
        for pid in pids.values():
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def simulate(
    src: SourceSpec,
    curve: BoundaryCurve,
    cfg: McConfig,
    workers: int = 1,
) -> McRun:
    """Simulate first-passage times of Brownian paths started at the point source.

    Deterministic given (seed, n_paths, dt): path i is a pure function of
    (seed, i), and the merged hit times are sorted, so the output is
    byte-identical for any `workers`.  Each worker refines one contiguous
    range of whole `BLOCK_PATHS` blocks: this process the first, and a
    `_forked` helper each other one, unless it dies or cannot be forked.

    The first call sets this process's allocator policy (module docstring):
    from then on arrays under 32 MiB come from the heap and up to 64 MiB of
    freed heap is kept, in this process and in the helpers it forks.
    """
    if src.kind != "point":
        raise ValueError("Monte Carlo oracle simulates point sources only")
    check_problem(src, curve, cfg.T)

    _keep_freed_heap()
    tgrid = _time_axis(cfg)
    plan = _Plan.build(tgrid, curve)
    n_blocks = -(-cfg.n_paths // BLOCK_PATHS)
    n_ranges = max(1, min(workers, n_blocks))
    cuts = [min(cfg.n_paths, BLOCK_PATHS * (n_blocks * k // n_ranges))
            for k in range(n_ranges + 1)]
    # the coarse walk's sampler: loaded once here, not by each helper after
    # the fork, and not by `import fptkit`
    import numpy.random  # noqa: F401

    def run_range(k, shared):
        # each path's first crossing, then each range's variates drawn
        out = np.frombuffer(shared, dtype=np.int64)
        with np.errstate(over="ignore"):  # gaps past ~1e154 multiply to inf: no split, no hit
            out[cuts[k]:cuts[k + 1]], out[cfg.n_paths + k] = _simulate_range(
                plan, cfg.seed, cuts[k], cuts[k + 1], src.r0)

    with _forked(n_ranges - 1, 8 * (cfg.n_paths + n_ranges), run_range) as (shared, finished):
        for k in range(n_ranges):
            # range 0, and the range of any helper that did not finish
            if not finished(k):
                run_range(k, shared)
    first, draws = np.split(np.frombuffer(shared, dtype=np.int64), [cfg.n_paths])
    hits = np.sort(tgrid[first[first <= plan.n_steps]])
    return McRun(config=cfg, hit_times=hits, n_draws=int(draws.sum()))


def ks_distance(run: McRun, est: DensityEstimate) -> float:
    """Kolmogorov-Smirnov distance between the empirical and estimated CDFs.

    The supremum is taken over the hit-time sample points and the
    estimate's grid nodes.
    """
    if est.grid.T != run.config.T:
        raise ValueError(f"horizon mismatch: run T={run.config.T}, estimate T={est.grid.T}")
    ts = sorted_union(run.hit_times, est.grid.nodes)
    return float(np.max(np.abs(run.ecdf(ts) - est.cdf(ts))))
