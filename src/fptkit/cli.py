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
    4  a density artifact that fails its checks or belongs to another problem
    5  validation suite failed

Every command reports a failure by raising, and `main` alone turns the
exception into its exit code and one stderr line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .boundary import BoundaryCurve
from .green import GreenField, green_eval
from .montecarlo import McConfig, cpu_workers, ks_distance, simulate
from .solver import (
    DensityEstimate,
    SolverError,
    SourceSpec,
    TimeGrid,
    check_problem,
    problem_fingerprint,
    solve_many,
    solve_marching,
)
from . import validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MISMATCH = 4
EXIT_VALIDATION = 5

SUITES = ("master", "heat", "mass", "jump", "delta", "all")
#: bump widths of the `delta` suite; the widest must fit below the boundary start
DELTA_WIDTHS = (0.25, 0.125, 0.0625, 0.03125)


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


class ArtifactMismatch(ValueError):
    """A density artifact that fails its checks or belongs to another problem; exit code 4."""


class ValidationFailed(RuntimeError):
    """A validation suite with a failing check; maps to exit code 5."""


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


#: Every config key: its path in the config document, its type, its default
#: and the flag that overrides it (None: file only).  A bool key's flag sets
#: the opposite of its default.
CONFIG = {
    ("boundary", "kind"): (str, "linear", "--boundary"),
    ("boundary", "a"): (float, 1.0, "--a"),
    ("boundary", "b"): (float, 0.5, "--b"),
    ("boundary", "theta"): (float, 0.75, "--theta"),
    ("boundary", "csv_path"): (str, None, "--boundary-csv"),
    ("source", "r0"): (float, 0.0, "--r0"),
    ("source", "center"): (float, None, "--bump-center"),
    ("source", "width"): (float, None, "--bump-width"),
    ("grid", "T"): (float, 4.0, "--T"),
    ("grid", "N"): (int, 2048, "--N"),
    ("grid", "q"): (float, 2.0, "--q"),
    ("method",): (str, "marching", "--method"),
    ("mc", "n_paths"): (int, 10000, "--n-paths"),
    ("mc", "dt"): (float, 1e-3, "--dt"),
    ("mc", "seed"): (int, 42, "--seed"),
    ("mc", "bridge_correction"): (bool, True, "--no-bridge"),
    ("output", "directory"): (str, ".", "--out"),
}
_SECTIONS = {path[0] for path in CONFIG if len(path) == 2}
_COMMANDS = {
    "solve": "solve the density equation",
    "simulate": "Monte Carlo first-passage sampling",
    "validate": "run a validation suite",
    "green": "emit the Green function on a lattice",
}
#: the subcommands that carry the flags of a config section; other sections' flags go to all
_FLAG_COMMANDS = {"method": ("solve",), "mc": ("simulate",)}


def _checked(path: tuple, value):
    """A config-file value as its key's type: integral numbers pass for either
    numeric type, null only where the default is null; nothing else is coerced."""
    kind, default, _ = CONFIG[path]
    if value is None and default is None:
        return value
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is int and (type(value) is int or type(value) is float and value.is_integer()):
        return int(value)
    if type(value) is kind:
        return value
    raise ConfigError(f"{'.'.join(path)} must be a JSON {kind.__name__}, got {value!r}")


def _read_config(filename: str) -> dict:
    """The checked values of a JSON config file, by key path."""
    try:
        with open(filename) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    values = {}
    for name, entry in doc.items():
        if name in _SECTIONS and not isinstance(entry, dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
        keys = {(name, k): v for k, v in entry.items()} if name in _SECTIONS else {(name,): entry}
        for path, value in keys.items():
            if path not in CONFIG:
                raise ConfigError(f"unknown config key {'.'.join(path)!r}")
            values[path] = _checked(path, value)
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- command-line flags."""
    values = _read_config(args.config) if args.config else {}
    cfg = {}
    for path, (_, default, _) in CONFIG.items():
        value = getattr(args, ".".join(path), None)
        if value is None:
            value = values.get(path, default)
        *section, key = path
        (cfg.setdefault(section[0], {}) if section else cfg)[key] = value
    return cfg


def build_problem(cfg: dict):
    """Construct (curve, source, grid) from a resolved config, or raise ConfigError."""
    b = cfg["boundary"]
    try:
        kind = b["kind"]
        if kind == "constant":
            curve = BoundaryCurve.constant(b["a"])
        elif kind == "linear":
            curve = BoundaryCurve.linear(b["a"], b["b"])
        elif kind == "power":
            curve = BoundaryCurve.power(b["a"], b["b"], b["theta"])
        elif kind == "sampled":
            if not b.get("csv_path"):
                raise ConfigError("sampled boundary requires csv_path")
            curve = BoundaryCurve.from_csv(b["csv_path"])
        else:
            raise ConfigError(f"unknown boundary kind {kind!r}")

        # a bump center or width, from the file or a flag, smears the source
        s = cfg["source"]
        if s["center"] is None and s["width"] is None:
            src = SourceSpec.point(s["r0"])
        elif s["center"] is None or s["width"] is None:
            raise ConfigError("smeared source requires center and width")
        else:
            src = SourceSpec.uniform_bump(s["center"], s["width"])

        grid = TimeGrid(**cfg["grid"])
        check_problem(src, curve, grid.T)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return curve, src, grid


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["output"]["directory"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return out


def _write_run_json(path: Path, cfg: dict, est: DensityEstimate) -> None:
    doc = {"config": cfg, **est.metadata()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _solved_density(out: Path, curve, src, T: float) -> DensityEstimate | None:
    """The density artifact pair in `out`, or None if it holds none; raises ArtifactMismatch
    if the pair fails its checks or belongs to another problem or horizon T (N is free)."""
    density_csv, run_json = out / "density.csv", out / "run.json"
    if not (density_csv.exists() and run_json.exists()):
        return None
    try:
        est = DensityEstimate.from_files(density_csv, run_json)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise ArtifactMismatch(f"{density_csv.name} fails its checks: {exc}") from exc
    if est.fingerprint != problem_fingerprint(src, curve, est.grid):
        raise ArtifactMismatch(f"{density_csv.name} was solved for another (curve, source) pair")
    if est.grid.T != T:
        raise ArtifactMismatch(f"{density_csv.name} has horizon T={est.grid.T}, this run T={T}")
    return est


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict) -> None:
    curve, src, grid = build_problem(cfg)
    method = cfg["method"]
    if method not in ("marching", "picard", "both"):
        raise ConfigError(f"unknown method {method!r}")
    out = _outdir(cfg)
    methods = ("marching", "picard") if method == "both" else (method,)
    ests = solve_many(curve, grid, [(src, m) for m in methods])
    primary = ests[0]
    primary.to_csv(out / "density.csv")
    _write_run_json(out / "run.json", cfg, primary)
    if method == "both":
        picard = ests[1]
        diff = float(np.max(np.abs(primary.p - picard.p)))
        with open(out / "method_diff.json", "w") as fh:
            json.dump({"sup_nodewise_diff": diff,
                       "picard_summary": picard.residual_summary}, fh, indent=2)
            fh.write("\n")


def cmd_simulate(cfg: dict) -> None:
    curve, src, grid = build_problem(cfg)
    if src.kind != "point":
        raise ConfigError("simulate requires a point source")
    try:
        mc_cfg = McConfig(T=grid.T, **cfg["mc"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(cfg)
    est = _solved_density(out, curve, src, grid.T)
    run = simulate(src, curve, mc_cfg, workers=cpu_workers())
    run.hits_to_csv(out / "hits.csv")
    run.to_json(out / "mc.json")
    if est is not None:
        d = ks_distance(run, est)
        with open(out / "ks.json", "w") as fh:
            json.dump({"ks_distance": d, "n_paths": mc_cfg.n_paths,
                       "solver_method": est.method}, fh, indent=2)
            fh.write("\n")


def run_validation_suite(suite: str, fld: GreenField) -> list:
    """Run one named suite against a solved case; returns ResidualReports.

    `all` runs every suite that applies to the source, so it omits `delta`
    (a point-source study) for smeared sources and for point sources whose
    widest bump would reach the boundary start or whose bumps cannot be built.
    """
    curve, src, grid = fld.curve, fld.src, fld.density.grid
    T = grid.T
    reports = []
    if suite in ("master", "all"):
        reports.append(validation.master_residual(
            fld.density, curve, src, z_offsets=(0.0, 0.5, 1.0),
            times=(T / 8.0, T / 4.0, T / 2.0, T), tolerance=2e-3,
        ))
    if suite in ("heat", "all"):
        reports.append(validation.dirichlet_residual(
            fld, times=(T / 8.0, T / 4.0, T / 2.0, T), tolerance=2e-3,
        ))
    if suite in ("mass", "all"):
        reports.append(validation.mass_conservation(
            fld, times=(T / 4.0, T / 2.0, T), tolerance=2e-3,
        ))
    if suite in ("jump", "all"):
        reports.append(validation.jump_check(
            fld, times=(T / 8.0, T / 4.0, T / 2.0), tolerance=2e-2,
        ))
    if suite == "delta" or (suite == "all" and _delta_applies(curve, src)):
        delta_grid = TimeGrid(T=T, N=min(grid.N, 1024), q=grid.q)
        reports.append(validation.delta_convergence(
            curve, src.r0, widths=DELTA_WIDTHS,
            eta=0.25, grid=delta_grid, ratio_tolerance=0.5,
        ))
    return reports


def _delta_applies(curve, src) -> bool:
    """Whether the `delta` study fits: a point source whose bumps can be built below X_0."""
    try:
        bumps = [SourceSpec.uniform_bump(src.r0, w) for w in DELTA_WIDTHS]
    except ValueError:
        return False
    return src.kind == "point" and all(b.support_upper < curve.x0 for b in bumps)


def cmd_validate(cfg: dict, suite: str) -> None:
    if suite not in SUITES:
        raise ConfigError(f"unknown validation suite {suite!r}; choose from {SUITES}")
    curve, src, grid = build_problem(cfg)
    if suite == "delta" and not _delta_applies(curve, src):
        raise ConfigError(f"delta suite requires a point source at least {max(DELTA_WIDTHS) / 2}"
                          f" below the boundary start X_0, whose bumps have distinct ends")
    out = _outdir(cfg)
    # validate the artifact already in the output directory, if any
    est = _solved_density(out, curve, src, grid.T)
    if est is None:
        est = solve_marching(src, curve, grid)
    reports = run_validation_suite(suite, GreenField(curve=curve, src=src, density=est))
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
        raise ValidationFailed(f"{', '.join(failing)} (see validate.json)")


def cmd_green(cfg: dict, x_range, t_range, resolution) -> None:
    curve, src, grid = build_problem(cfg)
    x_lo, x_hi = x_range
    t_lo, t_hi = t_range
    nx, nt = resolution
    if not (t_lo > 0.0 and t_lo <= t_hi and t_hi <= grid.T):
        raise ConfigError(
            f"green lattice times must satisfy 0 < t_min <= t_max <= T={grid.T}"
        )
    if not (-np.inf < x_lo <= x_hi < np.inf and nx >= 1 and nt >= 1):
        raise ConfigError("green lattice needs finite x_min <= x_max and nx, nt >= 1")
    out = _outdir(cfg)
    est = solve_marching(src, curve, grid)
    fld = GreenField(curve=curve, src=src, density=est)
    xs = np.linspace(x_lo, x_hi, nx)
    ts = np.linspace(t_lo, t_hi, nt)
    vals = np.concatenate([green_eval(fld, xs, float(t)) for t in ts])
    rows = np.column_stack((np.tile(xs, nt), np.repeat(ts, nx), vals))
    with open(out / "green.csv", "w") as fh:
        fh.write("x,t,G\n" + "%.17g,%.17g,%.17g\n" * len(rows) % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other invalid configuration."""

    def error(self, message):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fpt",
        description="First-passage densities of Brownian motion through moving boundaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for path, (kind, default, flag) in CONFIG.items():
            if flag is None or command not in _FLAG_COMMANDS.get(path[0], _COMMANDS):
                continue
            name = ".".join(path)
            if kind is bool:
                p.add_argument(flag, dest=name, action="store_const", const=not default,
                               help=f"set {name} to {json.dumps(not default)}")
            else:
                p.add_argument(flag, dest=name, type=kind,
                               help=f"{kind.__name__}, default {json.dumps(default)}")
    sub.choices["validate"].add_argument("--suite", default="all",
                                         help=f"one of {', '.join(SUITES)}")
    green = sub.choices["green"]
    for bound in ("--x-min", "--x-max", "--t-min", "--t-max"):
        green.add_argument(bound, type=float, required=True)
    green.add_argument("--nx", type=int, default=50)
    green.add_argument("--nt", type=int, default=50)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        cfg = resolve_config(args)
        if args.command == "solve":
            cmd_solve(cfg)
        elif args.command == "simulate":
            cmd_simulate(cfg)
        elif args.command == "validate":
            cmd_validate(cfg, args.suite)
        else:
            cmd_green(cfg, (args.x_min, args.x_max), (args.t_min, args.t_max),
                      (args.nx, args.nt))
        return EXIT_OK
    except ConfigError as exc:
        reason, code = f"invalid configuration: {exc}", EXIT_CONFIG
    except MemoryError as exc:
        reason, code = f"invalid configuration: the run does not fit in memory: {exc}", EXIT_CONFIG
    except SolverError as exc:
        reason, code = f"solver failure: {exc}", EXIT_SOLVER
    except ArtifactMismatch as exc:
        reason, code = f"artifact mismatch: {exc}", EXIT_MISMATCH
    except ValidationFailed as exc:
        reason, code = f"validation failed: {exc}", EXIT_VALIDATION
    print(" ".join(reason.split()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
