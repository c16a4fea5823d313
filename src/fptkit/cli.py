"""`fpt` command line: solve / simulate / validate / green pipelines.

Configuration comes from an optional JSON file (--config) with flags
taking precedence; every run is validated against the library's
preconditions before any computation starts and is fully deterministic
given its resolved config (Monte Carlo included, via the seed).

Exit codes are a fixed external contract:

    0  success
    2  configuration invalid
    3  solver failure (diagonal dominance lost / no convergence / the
       solution fails the density checks), from any solve of the run
    4  horizon mismatch between artifacts
    5  validation suite failed
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .boundary import BoundaryCurve
from .green import GreenField, green_eval
from .kernels import gaussian, gaussian_dx
from .montecarlo import McConfig, ks_distance, simulate
from .solver import (
    DensityEstimate,
    SolverError,
    SourceSpec,
    TimeGrid,
    solve_marching,
    solve_picard,
)
from . import validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MISMATCH = 4
EXIT_VALIDATION = 5

SUITES = ("master", "heat", "mass", "jump", "delta", "all")


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


_DEFAULTS = {
    "boundary": {"kind": "linear", "a": 1.0, "b": 0.5, "theta": 0.75, "gamma": None,
                 "csv_path": None},
    "source": {"kind": "point", "r0": 0.0, "center": None, "width": None},
    "grid": {"T": 4.0, "N": 2048, "q": 2.0},
    "method": "marching",
    "mc": {"n_paths": 10000, "dt": 1e-3, "seed": 42, "bridge_correction": True},
    "output": {"directory": "."},
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- command-line flags."""
    cfg = _deep_merge(_DEFAULTS, {})
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = _deep_merge(cfg, json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc

    flag_map = {
        "boundary": ("boundary", "kind"),
        "a": ("boundary", "a"),
        "b": ("boundary", "b"),
        "theta": ("boundary", "theta"),
        "gamma": ("boundary", "gamma"),
        "boundary_csv": ("boundary", "csv_path"),
        "r0": ("source", "r0"),
        "bump_center": ("source", "center"),
        "bump_width": ("source", "width"),
        "T": ("grid", "T"),
        "N": ("grid", "N"),
        "q": ("grid", "q"),
        "method": ("method",),
        "n_paths": ("mc", "n_paths"),
        "dt": ("mc", "dt"),
        "seed": ("mc", "seed"),
        "out": ("output", "directory"),
    }
    for flag, path in flag_map.items():
        val = getattr(args, flag, None)
        if val is None:
            continue
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = val
    if getattr(args, "no_bridge", False):
        cfg["mc"]["bridge_correction"] = False
    if getattr(args, "bump_center", None) is not None or getattr(args, "bump_width", None) is not None:
        cfg["source"]["kind"] = "smeared"
    return cfg


def build_problem(cfg: dict):
    """Construct (curve, source, grid) from a resolved config, or raise ConfigError."""
    b = cfg["boundary"]
    try:
        kind = b["kind"]
        if kind == "constant":
            curve = BoundaryCurve.constant(b["a"], gamma=b["gamma"] if b["gamma"] is not None else 1.0)
        elif kind == "linear":
            curve = BoundaryCurve.linear(b["a"], b["b"], gamma=b["gamma"] if b["gamma"] is not None else 1.0)
        elif kind == "power":
            curve = BoundaryCurve.power(b["a"], b["b"], b["theta"], gamma=b["gamma"])
        elif kind == "sampled":
            if not b.get("csv_path"):
                raise ConfigError("sampled boundary requires csv_path")
            if b["gamma"] is None:
                raise ConfigError("sampled boundary requires a declared gamma")
            curve = BoundaryCurve.from_csv(b["csv_path"], gamma=b["gamma"])
        else:
            raise ConfigError(f"unknown boundary kind {kind!r}")

        s = cfg["source"]
        if s["kind"] == "point":
            src = SourceSpec.point(s["r0"])
        elif s["kind"] == "smeared":
            if s.get("center") is None or s.get("width") is None:
                raise ConfigError("smeared source requires center and width")
            src = SourceSpec.uniform_bump(s["center"], s["width"])
        else:
            raise ConfigError(f"unknown source kind {s['kind']!r}")

        g = cfg["grid"]
        grid = TimeGrid(T=float(g["T"]), N=int(g["N"]), q=float(g["q"]))

        # cross-object preconditions, checked before any computation
        if grid.T > curve.horizon:
            raise ConfigError(f"grid horizon T={grid.T} exceeds boundary horizon {curve.horizon}")
        if src.kind == "point" and not src.r0 < curve.x0:
            raise ConfigError(f"r0={src.r0} must lie strictly below X_0={curve.x0}")
        if src.kind == "smeared" and not src.support_upper < curve.x0:
            raise ConfigError("smeared source support must lie strictly below X_0")
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return curve, src, grid


def _mc_config(cfg: dict) -> McConfig:
    m = cfg["mc"]
    try:
        return McConfig(
            n_paths=int(m["n_paths"]), dt=float(m["dt"]), T=float(cfg["grid"]["T"]),
            seed=int(m["seed"]), bridge_correction=bool(m["bridge_correction"]),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _workers() -> int:
    cap = os.environ.get("FPT_THREADS")
    default = min(4, os.cpu_count() or 1)
    if cap is None:
        return default
    try:
        return max(1, min(default, int(cap)))
    except ValueError:
        return default


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["output"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_json(path: Path, cfg: dict, est: DensityEstimate) -> None:
    doc = {"config": cfg, **est.metadata()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _read_density(density_csv: Path, run_json: Path) -> DensityEstimate | None:
    """The density artifact pair, or None (after a one-line reason) if it fails its checks."""
    try:
        return DensityEstimate.from_files(density_csv, run_json)
    except (ValueError, KeyError, IndexError) as exc:
        reason = " ".join(str(exc).split())
        print(f"artifact mismatch: {density_csv.name} fails its checks: {reason}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict) -> int:
    curve, src, grid = build_problem(cfg)
    out = _outdir(cfg)
    method = cfg["method"]
    if method not in ("marching", "picard", "both"):
        raise ConfigError(f"unknown method {method!r}")
    if method in ("marching", "both"):
        primary = solve_marching(src, curve, grid)
    if method in ("picard", "both"):
        picard = solve_picard(src, curve, grid)
    if method == "picard":
        primary = picard
    primary.to_csv(out / "density.csv")
    _write_run_json(out / "run.json", cfg, primary)
    if method == "both":
        diff = float(np.max(np.abs(primary.p - picard.p)))
        with open(out / "method_diff.json", "w") as fh:
            json.dump({"sup_nodewise_diff": diff,
                       "picard_summary": picard.residual_summary}, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    curve, src, grid = build_problem(cfg)
    if src.kind != "point":
        raise ConfigError("simulate requires a point source")
    mc_cfg = _mc_config(cfg)
    out = _outdir(cfg)
    run = simulate(src, curve, mc_cfg, workers=_workers())
    run.hits_to_csv(out / "hits.csv")
    run.to_json(out / "mc.json")

    density_csv = out / "density.csv"
    run_json = out / "run.json"
    if density_csv.exists() and run_json.exists():
        est = _read_density(density_csv, run_json)
        if est is None:
            return EXIT_MISMATCH
        if est.grid.T != mc_cfg.T:
            print(
                f"horizon mismatch: existing density has T={est.grid.T},"
                f" simulation has T={mc_cfg.T}", file=sys.stderr,
            )
            return EXIT_MISMATCH
        d = ks_distance(run, est)
        with open(out / "ks.json", "w") as fh:
            json.dump({"ks_distance": d, "n_paths": mc_cfg.n_paths,
                       "solver_method": est.method}, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def run_validation_suite(suite: str, curve, src, grid, est: DensityEstimate,
                         fld: GreenField) -> list:
    """Run one named suite against a solved case; returns ResidualReports.

    `all` runs every suite that applies to the source, so it omits `delta`
    (a point-source study) for smeared sources.
    """
    T = grid.T
    reports = []
    if suite in ("master", "all"):
        reports.append(validation.master_residual(
            est, curve, src, z_offsets=(0.0, 0.5, 1.0),
            times=(T / 8.0, T / 4.0, T / 2.0, T), tolerance=2e-3,
        ))
    if suite in ("heat", "all"):
        rng = np.random.default_rng(7)
        kernel_pts = [(float(x), float(t)) for x, t in
                      zip(rng.uniform(-2.0, 2.0, 10), rng.uniform(0.5, 2.0, 10))]
        reports.append(validation.heat_residual(
            lambda x, t: gaussian(x, t, 0.0, 0.0), kernel_pts,
            dx=1e-3, dt_fd=1e-3, tolerance=1e-6, name="heat_kernel",
        ))
        reports.append(validation.heat_residual(
            lambda x, t: gaussian_dx(x, t, 0.0, 0.0), [(-1.0, 1.0)],
            dx=1e-3, dt_fd=1e-3, tolerance=1e-6, name="heat_dipole_fixture",
        ))
        probe_t = rng.uniform(0.3 * T, T, 20)
        probes = []
        for t in probe_t:
            xt = float(curve.value(t))
            probes.append((xt - (0.5 + rng.uniform(0.0, 2.0)) * np.sqrt(t), float(t)))
        reports.append(validation.heat_residual(
            lambda x, t: green_eval(fld, x, t),
            probes, dx=float(np.sqrt(T) / 40.0), dt_fd=float(T / 200.0),
            tolerance=1e-2, name="green_interior",
        ))
    if suite in ("mass", "all"):
        reports.append(validation.mass_conservation(
            fld, times=(T / 4.0, T / 2.0, T), tolerance=2e-3,
        ))
    if suite in ("jump", "all"):
        reports.append(validation.jump_check(
            fld, times=(T / 8.0, T / 4.0, T / 2.0), tolerance=2e-2,
        ))
    if suite == "delta" or (suite == "all" and src.kind == "point"):
        delta_grid = TimeGrid(T=T, N=min(grid.N, 1024), q=grid.q)
        reports.append(validation.delta_convergence(
            curve, src.r0, widths=(0.25, 0.125, 0.0625, 0.03125),
            eta=0.25, grid=delta_grid, ratio_tolerance=0.5,
        ))
    return reports


def cmd_validate(cfg: dict, suite: str) -> int:
    if suite not in SUITES:
        raise ConfigError(f"unknown validation suite {suite!r}; choose from {SUITES}")
    curve, src, grid = build_problem(cfg)
    if suite == "delta" and src.kind != "point":
        raise ConfigError("delta suite requires a point source")
    out = _outdir(cfg)
    density_csv = out / "density.csv"
    run_json = out / "run.json"
    if density_csv.exists() and run_json.exists():
        # validate the artifact already in the output directory
        est = _read_density(density_csv, run_json)
        if est is None:
            return EXIT_MISMATCH
    else:
        est = solve_marching(src, curve, grid)
    try:
        fld = GreenField(curve=curve, src=src, density=est)
    except ValueError as exc:
        print(f"artifact mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    reports = run_validation_suite(suite, curve, src, est.grid, est, fld)
    doc = {
        "suite": suite,
        "all_passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    with open(out / "validate.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not doc["all_passed"]:
        failing = [r.name for r in reports if not r.passed]
        print(f"validation failed: {', '.join(failing)} (see validate.json)",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_green(cfg: dict, x_range, t_range, resolution) -> int:
    curve, src, grid = build_problem(cfg)
    x_lo, x_hi = x_range
    t_lo, t_hi = t_range
    nx, nt = resolution
    if not (t_lo > 0.0 and t_lo <= t_hi and t_hi <= grid.T):
        raise ConfigError(
            f"green lattice times must satisfy 0 < t_min <= t_max <= T={grid.T}"
        )
    if not (x_lo <= x_hi and nx >= 1 and nt >= 1):
        raise ConfigError("green lattice needs x_min <= x_max and nx, nt >= 1")
    out = _outdir(cfg)
    est = solve_marching(src, curve, grid)
    fld = GreenField(curve=curve, src=src, density=est)
    xs = np.linspace(x_lo, x_hi, nx)
    ts = np.linspace(t_lo, t_hi, nt)
    with open(out / "green.csv", "w") as fh:
        fh.write("x,t,G\n")
        for t in ts:
            vals = green_eval(fld, xs, float(t))
            for x, v in zip(xs, vals):
                fh.write(f"{x:.17g},{t:.17g},{v:.17g}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--boundary", choices=["constant", "linear", "power", "sampled"],
                   dest="boundary")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--boundary-csv", dest="boundary_csv")
    p.add_argument("--r0", type=float)
    p.add_argument("--bump-center", type=float, dest="bump_center")
    p.add_argument("--bump-width", type=float, dest="bump_width")
    p.add_argument("--T", type=float, dest="T")
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--q", type=float, dest="q")
    p.add_argument("--out", help="output directory")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpt",
        description="First-passage densities of Brownian motion through moving boundaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the density equation")
    _add_common(p_solve)
    p_solve.add_argument("--method", choices=["marching", "picard", "both"])

    p_sim = sub.add_parser("simulate", help="Monte Carlo first-passage sampling")
    _add_common(p_sim)
    p_sim.add_argument("--n-paths", type=int, dest="n_paths")
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--no-bridge", action="store_true", dest="no_bridge",
                       help="disable the Brownian-bridge crossing correction")

    p_val = sub.add_parser("validate", help="run a validation suite")
    _add_common(p_val)
    p_val.add_argument("--suite", default="all",
                       help=f"one of {', '.join(SUITES)}")

    p_green = sub.add_parser("green", help="emit the Green function on a lattice")
    _add_common(p_green)
    p_green.add_argument("--x-min", type=float, required=True)
    p_green.add_argument("--x-max", type=float, required=True)
    p_green.add_argument("--t-min", type=float, required=True)
    p_green.add_argument("--t-max", type=float, required=True)
    p_green.add_argument("--nx", type=int, default=50)
    p_green.add_argument("--nt", type=int, default=50)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "validate":
            return cmd_validate(cfg, args.suite)
        if args.command == "green":
            return cmd_green(cfg, (args.x_min, args.x_max), (args.t_min, args.t_max),
                             (args.nx, args.nt))
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
