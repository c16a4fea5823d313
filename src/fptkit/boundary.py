"""Moving boundaries X_t and estimation of their local Hölder constants.

A boundary is a deterministic curve t -> X_t that the Brownian path must
stay below.  The existence theory requires Hölder regularity with
exponent gamma > 1/2.  Every family fixes its own exponent, so `gamma` is
derived, not declared: it is theta, checked to lie in (1/2, 1] for
`power` and fixed at 1 for the Lipschitz `constant`, `linear` and
piecewise-linear `sampled` curves.  `constant` and `linear` are the
power curve a + b t^theta with theta = 1 (and b = 0 for `constant`).  The
exponent enters no computed number.
`estimate_holder` is a diagnostic, used by no solver: a conservative
local constant m with

    |X_t2 - X_t1| <= m |t2 - t1|^gamma

on a stated interval.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

#: multiplier applied to the scanned difference-quotient supremum; the
#: dyadic scan can undershoot the true constant, inflation keeps the
#: estimate conservative.
HOLDER_SAFETY = 1.25


@dataclass(frozen=True)
class HolderEstimate:
    """Estimated local Hölder constant of a curve on an interval."""

    gamma: float
    m: float
    interval: tuple[float, float]


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Evaluable moving boundary, Hölder continuous with exponent `gamma` > 1/2.

    Construct through the classmethods: `constant`, `linear`, `power`,
    `sampled`, or `from_csv`.  Instances are immutable and safe to share
    across threads.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    theta: float = 1.0
    knots_t: np.ndarray | None = field(default=None, repr=False)
    knots_x: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "power", "sampled"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.a, self.b, self.theta)):
            raise ValueError(
                f"boundary parameters must be finite; got a={self.a}, b={self.b}, theta={self.theta}"
            )
        if self.kind == "power" and not 0.5 < self.theta <= 1.0:
            raise ValueError(
                f"power boundary exponent theta must lie in (1/2, 1]; got {self.theta}"
            )
        if self.kind != "power" and self.theta != 1.0:
            raise ValueError(f"{self.kind} boundary has theta 1; got {self.theta}")
        if self.kind == "constant" and self.b != 0.0:
            raise ValueError(f"constant boundary has b 0; got {self.b}")
        if self.kind == "sampled":
            t = self.knots_t
            x = self.knots_x
            if t is None or x is None or len(t) != len(x) or len(t) < 2:
                raise ValueError("sampled boundary needs matching t/x knot arrays, length >= 2")
            if t[0] != 0.0:
                raise ValueError("sampled boundary knots must start at t = 0")
            if np.any(np.diff(t) <= 0.0):
                raise ValueError("sampled boundary knot times must be strictly increasing")
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
                raise ValueError("sampled boundary knots must be finite")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, a: float) -> "BoundaryCurve":
        """X_t = a."""
        return cls(kind="constant", a=a)

    @classmethod
    def linear(cls, a: float, b: float) -> "BoundaryCurve":
        """X_t = a + b t."""
        return cls(kind="linear", a=a, b=b)

    @classmethod
    def power(cls, a: float, b: float, theta: float) -> "BoundaryCurve":
        """X_t = a + b t^theta with theta in (1/2, 1], Hölder-theta on [0, inf)."""
        return cls(kind="power", a=a, b=b, theta=theta)

    @classmethod
    def sampled(cls, times, values) -> "BoundaryCurve":
        """Piecewise-linear interpolant of (times, values) knots."""
        t = np.ascontiguousarray(times, dtype=float)
        x = np.ascontiguousarray(values, dtype=float)
        t.flags.writeable = False
        x.flags.writeable = False
        return cls(kind="sampled", knots_t=t, knots_x=x)

    @classmethod
    def from_csv(cls, path) -> "BoundaryCurve":
        """Load a sampled boundary from a two-column CSV file.

        The file must have a header row `t,x` followed by rows of
        strictly increasing times starting at 0.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header] != ["t", "x"]:
                raise ValueError(f"{path}: expected header row 't,x'")
            rows = []
            for r in filter(None, reader):
                if len(r) != 2:
                    raise ValueError(f"{path}: line {reader.line_num}: expected 2 fields, got {len(r)}")
                rows.append((float(r[0]), float(r[1])))
        if len(rows) < 2:
            raise ValueError(f"{path}: need at least two knot rows")
        t, x = zip(*rows)
        return cls.sampled(t, x)

    # -- evaluation ----------------------------------------------------

    @property
    def gamma(self) -> float:
        """Hölder exponent of the curve: theta, which is 1 for the Lipschitz families."""
        return self.theta

    @property
    def horizon(self) -> float:
        """End of the curve's domain [0, horizon]: a `sampled` curve's last knot, else inf."""
        return float(self.knots_t[-1]) if self.kind == "sampled" else math.inf

    @property
    def x0(self) -> float:
        """Boundary position at t = 0."""
        return self.value(0.0)

    def value(self, t):
        """Evaluate X_t; accepts scalars or arrays, t in [0, horizon]."""
        ts = np.asarray(t, dtype=float)
        if np.any(ts < 0.0) or np.any(ts > self.horizon):
            raise ValueError(f"boundary evaluated outside [0, {self.horizon}]")
        if self.kind == "sampled":
            out = np.interp(ts, self.knots_t, self.knots_x)
        else:
            out = self.a + self.b * ts ** self.theta
        return out if out.ndim else float(out)

    def slope(self, t):
        """Left derivative of X at t in (0, horizon]; scalars or arrays.

        A `sampled` curve takes the slope of the piece that ends at t, so
        at a knot it is the slope of the piece to its left.
        """
        ts = np.asarray(t, dtype=float)
        if np.any(ts <= 0.0) or np.any(ts > self.horizon):
            raise ValueError(f"boundary slope taken outside (0, {self.horizon}]")
        if self.kind == "sampled":
            pieces = np.diff(self.knots_x) / np.diff(self.knots_t)
            out = pieces[np.searchsorted(self.knots_t, ts) - 1]
        else:
            out = self.b * self.theta * ts ** (self.theta - 1.0)
        return out if out.ndim else float(out)

    def affine_on(self, t0, t1):
        """Whether X is affine on each [t0, t1], t0 < t1; scalars or arrays.

        Read from the family, not from values: always for `constant` and
        `linear` curves and for `power` curves with theta = 1 or b = 0, on
        a `sampled` curve where no knot lies strictly inside (t0, t1), and
        never on any other `power` curve.
        """
        t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
        if self.kind == "sampled":
            knots = self.knots_t
            out = np.searchsorted(knots, t1, "left") <= np.searchsorted(knots, t0, "right")
        else:
            out = np.full(t0.shape, self.theta == 1.0 or self.b == 0.0)
        return out if out.ndim else bool(out)


def estimate_holder(curve: BoundaryCurve, interval, levels: int = 12) -> HolderEstimate:
    """Conservative scan of the Hölder-gamma difference quotient, a diagnostic.

    Evaluates |X_{t+dt} - X_t| / dt^gamma over all aligned pairs at the
    dyadic spacings dt = |interval| / 2^k, k = 0..levels, and returns the
    maximum inflated by `HOLDER_SAFETY`.  No solver uses it: Picard
    iterates lower-triangular blocks, which need no window sized from m.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= curve.horizon):
        raise ValueError("estimate interval must be non-empty and within the horizon")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    gamma = curve.gamma
    length = hi - lo
    worst = 0.0
    for k in range(levels + 1):
        n = 2 ** k
        ts = lo + length * np.arange(n + 1) / n
        xs = np.asarray(curve.value(ts))
        dt = length / n
        q = np.abs(np.diff(xs)) / dt ** gamma
        if q.size:
            worst = max(worst, float(np.max(q)))
    return HolderEstimate(gamma=gamma, m=HOLDER_SAFETY * worst, interval=(lo, hi))
