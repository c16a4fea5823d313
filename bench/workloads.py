"""The three benchmark workloads, their correctness gates and layer probes.

Each workload is a fixed list of operations run as a closed loop by one
caller: the next operation starts only when the previous one returned.
The only parallelism is the library's own (Monte Carlo worker processes
and OpenBLAS threads, both capped at nproc by bench/run.py).

Why these workloads (see bench/README.md for the metric predictions):

* `solve`: marching and Picard on a linear and a power boundary at
  N = 4096.  Nearly all time is O(N^2) quadrature assembly, and Picard
  builds a dense (N+1)^2 matrix; green, Monte Carlo and cli do no work
  in the pass.
* `pipeline`: the four `fpt` subcommands through `fptkit.cli.main`, the
  only workload that runs cli artifact I/O, green, validation, the smeared
  `quad` loops and the near-boundary Monte Carlo regime (most paths hit
  early, so per-substep draw cost matters less than in `mc`).
* `mc`: the far-boundary Monte Carlo oracle with 1 and nproc workers;
  about 91% of the simulated substeps precede a hit, so per-substep
  draw cost dominates.  Solver, green and cli do no work in the pass.

Gate thresholds are those of tests/test_acceptance.py, plus the 99.9%
Kolmogorov bound for the Monte Carlo KS distance.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import fptkit.cli
from fptkit import (
    BoundaryCurve,
    DensityEstimate,
    GreenField,
    McConfig,
    SourceSpec,
    TimeGrid,
    boundary_flux,
    closed_form_linear,
    delta_convergence,
    estimate_holder,
    gaussian,
    gaussian_dx,
    green_eval,
    heat_residual,
    jump_check,
    ks_distance,
    mass_conservation,
    master_residual,
    psi,
    segment_weight,
    simulate,
    solve_marching,
    solve_picard,
    source_term,
    survival,
)
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))

SOLVE_ERR_MAX = 5e-4    # criterion 1: sup |p - closed form| for t >= 0.1
SCHEME_DIFF_MAX = 1e-3  # criterion 2: sup |p_marching - p_picard|
RATIO_MAX = 0.6         # criterion 2: every Picard window's contraction ratio
MASS_ERR_MAX = 2e-3     # criterion 4: max |S(t) + F(t) - 1|
FLUX_ERR_MAX = 2e-2     # criterion 6: relative flux-versus-density residual
KS_COEF = 1.95          # KS <= 1.95 / sqrt(n): the 99.9% Kolmogorov quantile

MC_PATHS = 8192         # two BLOCK_PATHS blocks, so two workers stay balanced
MC_DT = 1e-4


def environment() -> dict:
    """Versions and the OpenBLAS thread count in effect in this process."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Threads of every OpenBLAS numpy or scipy loaded, by library file name."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        so = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def mc_seed(seed: int) -> int:
    """Monte Carlo seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1, dtype=np.uint64)[0])


def _finite_csv(path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)
    if data.size == 0 or not np.all(np.isfinite(data)):
        raise ValueError(f"{Path(path).name} is empty or has non-finite values")
    return data


def _median_call(fn, reps):
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (MC workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _substep_stats(run, n_steps):
    """(hit fraction, substeps up to the first hit / substeps simulated)."""
    n = run.config.n_paths
    to_hit = np.rint(run.hit_times / run.config.dt).sum() + run.n_censored * n_steps
    return len(run.hit_times) / n, float(to_hit) / (n * n_steps)


class Ledger:
    """Operations attempted, and the reason each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}

    def call(self, name, fn, *args, tracer=None, **kw):
        """Run one operation; returns (value or None if it raised, seconds, op id)."""
        self.attempted += 1
        op = self.attempted
        t0 = time.perf_counter()
        try:
            if tracer is None:
                val = fn(*args, **kw)
            else:
                with tracer.span(name):
                    val = fn(*args, **kw)
        except Exception as exc:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            self.failed[op] = f"{name}: {type(exc).__name__}: {exc}"
            val = None
        return val, time.perf_counter() - t0, op

    def check(self, op, ok, reason):
        if not ok and op not in self.failed:
            self.failed[op] = reason


class Workload:
    name = ""

    def __init__(self, seed):
        self.passes = 0
        self.self_times = {}
        self.ledger = Ledger()
        self.rng = np.random.default_rng(seed)

    def run_pass(self, tracer=None) -> dict:
        """One pass over the operation list; returns seconds per operation."""
        raise NotImplementedError

    def timed(self, seconds) -> dict:
        """Closed loop of passes for at least `seconds`, then the checks.

        wall_s is the median over passes of the seconds a pass spends in
        its operations.
        """
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            walls.append(sum(self.run_pass().values()))
        self.passes = len(walls)
        metrics = {"wall_s": statistics.median(walls), **self.verify()}
        metrics["peak_rss_mb"] = _peak_rss_mb()
        metrics["ok_frac"] = 1.0 - len(self.ledger.failed) / self.ledger.attempted
        return metrics

    def trace(self) -> dict:
        tracer = Tracer()
        plain = sum(self.run_pass().values())
        traced = sum(self.run_pass(tracer).values())
        metrics = self.layers(tracer)
        metrics[f"trace.overhead_frac.{self.name}"] = traced / plain - 1.0
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{self.name}.json")
        self.self_times = tracer.self_times()
        return metrics

    def verify(self) -> dict:
        """Accuracy metrics of the pass outputs, checked once after the loop."""
        raise NotImplementedError

    def layers(self, tracer) -> dict:
        raise NotImplementedError

    def computed(self) -> dict:
        """Work sizes derived from the inputs, not measured."""
        raise NotImplementedError

    def close(self):
        pass

    def _mass_check(self, curve, src, est, times):
        """max |S(t) + F(t) - 1| of one solved density, gated (criterion 4)."""
        rep, _, op = self.ledger.call(
            "validation.mass_conservation", lambda: mass_conservation(
                GreenField(curve=curve, src=src, density=est), times, tolerance=MASS_ERR_MAX))
        err = rep.sup_residual if rep is not None else math.inf
        self.ledger.check(op, err <= MASS_ERR_MAX, f"mass_err {err:.3g} > {MASS_ERR_MAX}")
        return err

    def _flux_check(self, curve, src, est, times):
        """Worst relative flux-versus-density residual, gated (criterion 6)."""
        rep, _, op = self.ledger.call(
            "validation.jump_check", lambda: jump_check(
                GreenField(curve=curve, src=src, density=est), times, tolerance=FLUX_ERR_MAX))
        err = rep.sup_residual if rep is not None else math.inf
        self.ledger.check(op, err <= FLUX_ERR_MAX, f"flux_err {err:.3g} > {FLUX_ERR_MAX}")
        return err

    def _scheme_check(self, op, march, picard):
        """sup |p_marching - p_picard|, gated with every window's ratio (criterion 2)."""
        if march is None or picard is None:
            return math.inf
        diff = float(np.max(np.abs(march.p - picard.p)))
        ratio = max(w["max_ratio"] for w in picard.residual_summary["windows"])
        finite = bool(np.all(np.isfinite(march.p)) and np.all(np.isfinite(picard.p)))
        self.ledger.check(op, finite and diff <= SCHEME_DIFF_MAX and ratio <= RATIO_MAX,
                          f"scheme_diff {diff:.3g} (max {SCHEME_DIFF_MAX}),"
                          f" max_ratio {ratio:.3g} (max {RATIO_MAX}), finite {finite}")
        return diff

    def _solve_err_check(self, op, nodes, p, a, b, r0):
        """sup |p - closed form| over nodes t >= 0.1, gated (criterion 1)."""
        sel = nodes >= 0.1
        err = float(np.max(np.abs(p[sel] - closed_form_linear(a, b, r0, nodes[sel]))))
        self.ledger.check(op, err <= SOLVE_ERR_MAX, f"solve_err {err:.3g} > {SOLVE_ERR_MAX}")
        return err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


class SolveWorkload(Workload):
    """Marching then Picard on a linear and a power boundary, point source r0 = 0."""

    name = "solve"

    def __init__(self, seed):
        super().__init__(seed)
        self.src = SourceSpec.point(0.0)
        self.grid = TimeGrid(T=4.0, N=4096, q=2.0)
        self.curves = {
            "linear": BoundaryCurve.linear(1.0, 0.5),      # has a closed form
            "power": BoundaryCurve.power(1.0, 0.5, 0.75),  # none; more pow calls per pair
        }
        self.out = {}

    def run_pass(self, tracer=None):
        secs = {}
        ops = {}
        for kind, curve in self.curves.items():
            for method, solve in (("marching", solve_marching), ("picard", solve_picard)):
                est, secs[kind, method], ops[kind, method] = self.ledger.call(
                    f"solver.solve_{method}.{kind}", solve, self.src, curve, self.grid,
                    tracer=tracer)
                self.out[kind, method] = est
        lin = self.out["linear", "marching"]
        self.solve_err = (self._solve_err_check(ops["linear", "marching"], self.grid.nodes,
                                                lin.p, 1.0, 0.5, 0.0)
                          if lin is not None else math.inf)
        self.scheme_diff = max(
            self._scheme_check(ops[k, "picard"], self.out[k, "marching"], self.out[k, "picard"])
            for k in self.curves
        )
        return secs

    def verify(self):
        # mass on the power boundary, which has no closed form (criterion 4);
        # flux on the linear one (criterion 6)
        return {
            "solve_err": self.solve_err,
            "scheme_diff": self.scheme_diff,
            "mass_err": self._mass_check(self.curves["power"], self.src,
                                         self.out["power", "marching"], (1.0, 2.0, 4.0)),
            "flux_err": self._flux_check(self.curves["linear"], self.src,
                                         self.out["linear", "marching"], (0.5, 1.0, 2.0)),
        }

    def layers(self, tracer):
        n = self.grid.N
        m = {}
        for kind in self.curves:
            for method in ("marching", "picard"):
                m[f"solver.solve_{method}_s.{kind}"] = tracer.duration(
                    f"solver.solve_{method}.{kind}")
            march, picard = self.out[kind, "marching"], self.out[kind, "picard"]
            windows = picard.residual_summary["windows"]
            m[f"solver.picard.windows.{kind}"] = len(windows)
            m[f"solver.picard.iterations.{kind}"] = sum(w["iterations"] for w in windows)
            m[f"solver.picard.max_ratio.{kind}"] = picard.residual_summary["max_ratio"]
            m[f"solver.min_diagonal.{kind}"] = march.residual_summary["min_diagonal"]
        m["solver.marching.ns_per_pair"] = (
            m["solver.solve_marching_s.linear"] / (n * (n + 1) / 2) * 1e9)
        for method, solve in (("marching", solve_marching), ("picard", solve_picard)):
            tracemalloc.start()
            try:
                solve(self.src, self.curves["linear"], self.grid)
                m[f"solver.{method}.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        m.update(self._kernel_probes(tracer))
        return m

    def _kernel_probes(self, tracer):
        """Kernel and boundary costs on arrays the size of one N = 4096 row."""
        ts = self.grid.nodes
        power = self.curves["power"]
        xs = np.asarray(power.value(ts))
        row = len(ts) - 1
        t_end, x_end = float(ts[-1]), float(xs[-1])
        z = self.rng.uniform(-1.0, 8.0, row)  # both branches of psi
        probes = {
            "kernels.segment_weight": lambda: segment_weight(-0.5, t_end, ts[:-1], ts[1:]),
            "kernels.gaussian_dx": lambda: gaussian_dx(x_end, t_end, xs[:-1], ts[:-1]),
            "kernels.gaussian": lambda: gaussian(x_end, t_end, xs[:-1], ts[:-1]),
            "kernels.psi": lambda: psi(z),
            "boundary.value": lambda: power.value(ts),
        }
        m = {}
        for name, fn in probes.items():
            with tracer.span(name):
                sec = _median_call(fn, 101)
            suffix = ".power" if name == "boundary.value" else ""
            m[f"{name}.ns_per_elem{suffix}"] = sec / row * 1e9
        with tracer.span("boundary.estimate_holder"):
            m["boundary.estimate_holder_s"] = _median_call(
                lambda: estimate_holder(power, (0.0, self.grid.T)), 5)
        return m

    def computed(self):
        n = self.grid.N
        return {"kernel_pairs_per_assembly": n * (n + 1) // 2,
                "assemblies_per_pass": 2 * len(self.curves)}


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


class McWorkload(Workload):
    """Far-boundary Monte Carlo: X = 1 + 0.5 t, r0 = 0, T = 1, 1 and nproc workers.

    A linear rather than a constant boundary, because on a constant one the
    Volterra kernel vanishes and the checks of the KS reference density
    (scheme_diff, solve_err) degenerate to exact zeros.
    """

    name = "mc"

    def __init__(self, seed):
        super().__init__(seed)
        self.src = SourceSpec.point(0.0)
        self.curve = BoundaryCurve.linear(1.0, 0.5)
        self.cfg = McConfig(n_paths=MC_PATHS, dt=MC_DT, T=1.0, seed=mc_seed(seed))
        self.n_steps = math.ceil(self.cfg.T / self.cfg.dt - 1e-9)
        self.first = None
        self.ref_grid = TimeGrid(T=1.0, N=2048, q=2.0)

    def run_pass(self, tracer=None):
        runs = {}
        secs = {}
        for tag, workers in (("w1", 1), ("wN", NPROC)):
            runs[tag], secs[tag], op = self.ledger.call(
                f"montecarlo.simulate.{tag}", simulate, self.src, self.curve, self.cfg,
                workers=workers, tracer=tracer)
        if self.first is None:
            self.first = runs["w1"]
        same = all(
            r is not None and self.first is not None
            and np.array_equal(r.hit_times, self.first.hit_times)
            and r.n_censored == self.first.n_censored
            for r in runs.values()
        )
        self.ledger.check(op, same, "hit times differ across worker counts or passes")
        return secs

    def _reference(self):
        """Solved density of the same problem, the KS reference."""
        est, _, _ = self.ledger.call("solver.solve_marching.reference", solve_marching,
                                     self.src, self.curve, self.ref_grid)
        return est

    def verify(self):
        ref = self._reference()
        ks, _, op = self.ledger.call("montecarlo.ks_distance", ks_distance, self.first, ref)
        bound = KS_COEF / math.sqrt(self.cfg.n_paths)
        self.ledger.check(op, ks is not None and ks <= bound, f"KS {ks} > {bound:.4g}")
        picard, _, op = self.ledger.call("solver.solve_picard.reference", solve_picard,
                                         self.src, self.curve, self.ref_grid)
        if ref is None or picard is None:
            return dict.fromkeys(("solve_err", "scheme_diff", "mass_err", "flux_err"), math.inf)
        T = self.cfg.T
        return {
            "solve_err": self._solve_err_check(op, self.ref_grid.nodes, ref.p, 1.0, 0.5, 0.0),
            "scheme_diff": self._scheme_check(op, ref, picard),
            "mass_err": self._mass_check(self.curve, self.src, ref, (T / 4, T / 2, T)),
            "flux_err": self._flux_check(self.curve, self.src, ref, (T / 8, T / 4, T / 2)),
        }

    def layers(self, tracer):
        substeps = self.cfg.n_paths * self.n_steps
        t1 = tracer.duration("montecarlo.simulate.w1")
        tn = tracer.duration("montecarlo.simulate.wN")
        hit_frac, useful = _substep_stats(self.first, self.n_steps)
        ref = self._reference()
        with tracer.span("montecarlo.ks_distance"):
            ks_s = _median_call(lambda: ks_distance(self.first, ref), 5)
        return {
            "montecarlo.ns_per_substep.w1.far": t1 / substeps * 1e9,
            "montecarlo.ns_per_substep.wN.far": tn / substeps * 1e9,
            "montecarlo.scaling_eff": t1 / (NPROC * tn),
            "montecarlo.paths_per_s.far": self.cfg.n_paths / tn,
            "montecarlo.hit_frac.far": hit_frac,
            "montecarlo.useful_substep_frac.far": useful,
            "montecarlo.ks.far": ks_distance(self.first, ref),
            "montecarlo.ks_distance_s": ks_s,
        }

    def computed(self):
        substeps = self.cfg.n_paths * self.n_steps
        return {"mc_substeps_per_simulate": substeps,
                "mc_draws_per_simulate": 2 * substeps,
                "simulate_calls_per_pass": 2}


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _cli(argv):
    """`fpt` in-process; returns the exit code."""
    try:
        return fptkit.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code


_LINEAR = ["--boundary", "linear", "--a", "1", "--b", "0.5", "--T", "4", "--q", "2"]
_NEAR = ["--boundary", "constant", "--a", "1", "--r0", "0.9", "--T", "1", "--q", "2",
         "--N", "2048"]
_LINEAR_T = 4.0

#: cli steps whose library calls the trace replays one-for-one; the green
#: lattice goes through a private batch evaluator with no public equivalent
_REPLAYED = ("solve", "validate_point", "validate_smeared", "solve_near", "simulate")


class PipelineWorkload(Workload):
    """The four `fpt` subcommands, in fresh directories, as a user runs them."""

    name = "pipeline"

    def __init__(self, seed):
        super().__init__(seed)
        self.mc_seed = mc_seed(seed)
        point = [*_LINEAR, "--r0", "0"]
        self.steps = [
            ("solve", "d1", ["solve", *point, "--N", "4096", "--method", "both"]),
            ("validate_point", "d1", ["validate", *point, "--N", "4096", "--suite", "all"]),
            ("green", "d3", ["green", *point, "--N", "1024", "--x-min", "-3", "--x-max", "3",
                             "--t-min", "0.1", "--t-max", "4", "--nx", "50", "--nt", "50"]),
            ("validate_smeared", "d4", ["validate", *_LINEAR, "--N", "1024", "--suite", "mass",
                                        "--bump-center", "0", "--bump-width", "0.25"]),
            ("solve_near", "d5", ["solve", *_NEAR, "--method", "marching"]),
            ("simulate", "d5", ["simulate", *_NEAR, "--n-paths", str(MC_PATHS),
                                "--dt", repr(MC_DT), "--seed", str(self.mc_seed)]),
        ]
        self.base = WORK / f"pipeline-{os.getpid()}"
        self.n_pass = 0
        self.acc = {}
        self.replayed = {}

    def run_pass(self, tracer=None):
        self.n_pass += 1
        pass_dir = self.base / f"pass{self.n_pass}"
        secs = {}
        ops = {}
        replay = self._replay(tracer, self.replayed) if tracer is not None else None
        for step, sub, argv in self.steps:
            rc, secs[step], ops[step] = self.ledger.call(
                f"cli.{step}", _cli, [*argv, "--out", str(pass_dir / sub)], tracer=tracer)
            self.ledger.check(ops[step], rc == 0, f"cli.{step}: exit code {rc}")
            if replay is not None and step in _REPLAYED:
                next(replay)  # right after the cli call, so both meet the same host load
        if replay is not None:
            replay.close()
        try:
            for step, sub, _ in self.steps:
                try:
                    getattr(self, f"_gate_{step}")(pass_dir / sub)
                except (OSError, ValueError, KeyError) as exc:
                    self.ledger.check(ops[step], False, f"cli.{step}: {exc}")
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return secs

    # -- per-step output checks (raise ValueError on a failed gate) ----------

    def _gate_solve(self, d):
        data = _finite_csv(d / "density.csv")
        nodes, p = data[:, 0], data[:, 1]
        sel = nodes >= 0.1
        err = float(np.max(np.abs(p[sel] - closed_form_linear(1.0, 0.5, 0.0, nodes[sel]))))
        with open(d / "method_diff.json") as fh:
            diff_doc = json.load(fh)
        diff = diff_doc["sup_nodewise_diff"]
        ratio = max(w["max_ratio"] for w in diff_doc["picard_summary"]["windows"])
        self.acc["solve_err"], self.acc["scheme_diff"] = err, diff
        self.artifact_bytes = (d / "density.csv").stat().st_size + (d / "run.json").stat().st_size
        if not (err <= SOLVE_ERR_MAX and diff <= SCHEME_DIFF_MAX and ratio <= RATIO_MAX):
            raise ValueError(f"solve_err {err:.3g}, scheme_diff {diff:.3g}, max_ratio {ratio:.3g}")

    def _validate_doc(self, d):
        with open(d / "validate.json") as fh:
            doc = json.load(fh)
        if not doc["all_passed"]:
            raise ValueError("validate.json: all_passed is false")
        return {r["name"]: r["sup_residual"] for r in doc["reports"]}

    def _gate_validate_point(self, d):
        res = self._validate_doc(d)
        self.acc["mass_point"] = res["mass_conservation"]
        self.acc["flux_err"] = res["jump_relation"]

    def _gate_green(self, d):
        data = _finite_csv(d / "green.csv")
        if data.shape != (50 * 50, 3):
            raise ValueError(f"green.csv has shape {data.shape}, expected (2500, 3)")

    def _gate_validate_smeared(self, d):
        self.acc["mass_smeared"] = self._validate_doc(d)["mass_conservation"]

    def _gate_solve_near(self, d):
        _finite_csv(d / "density.csv")

    def _gate_simulate(self, d):
        _finite_csv(d / "hits.csv")
        with open(d / "ks.json") as fh:
            ks = json.load(fh)["ks_distance"]
        bound = KS_COEF / math.sqrt(MC_PATHS)
        if not ks <= bound:
            raise ValueError(f"KS {ks} > {bound:.4g}")

    def verify(self):
        acc = {**dict.fromkeys(("solve_err", "scheme_diff", "mass_point", "mass_smeared",
                                "flux_err"), math.inf), **self.acc}
        return {
            "solve_err": acc["solve_err"],
            "scheme_diff": acc["scheme_diff"],
            "mass_err": max(acc["mass_point"], acc["mass_smeared"]),
            "flux_err": acc["flux_err"],
        }

    # -- trace ---------------------------------------------------------------

    def layers(self, tracer):
        m = {f"cli.{step}_s": tracer.duration(f"cli.{step}") for step, _, _ in self.steps}
        m["solver.artifact_bytes"] = self.artifact_bytes
        r = self.replayed
        m["cli.self_s"] = sum(m[f"cli.{s}_s"] - tracer.duration(f"replay.{s}")
                              for s in _REPLAYED)
        for name in ("master_residual", "heat_residual", "mass_conservation",
                     "jump_check", "delta_convergence"):
            m[f"validation.{name}_s"] = tracer.duration(f"validation.{name}")
        for name in ("to_csv", "from_files"):
            m[f"solver.{name}_s"] = tracer.duration(f"solver.{name}")
        m["solver.solve_marching_s.smeared"] = tracer.duration("solver.solve_marching.smeared")

        sim_s = tracer.duration("montecarlo.simulate.near")
        n_steps = math.ceil(1.0 / MC_DT - 1e-9)
        hit_frac, useful = _substep_stats(r["run"], n_steps)
        m["montecarlo.ns_per_substep.wN.near"] = sim_s / (MC_PATHS * n_steps) * 1e9
        m["montecarlo.paths_per_s.near"] = MC_PATHS / sim_s
        m["montecarlo.hit_frac.near"] = hit_frac
        m["montecarlo.useful_substep_frac.near"] = useful
        m["montecarlo.ks.near"] = r["ks"]
        m.update(self._green_probes(tracer, r))
        return m

    def _replay(self, tracer, out):
        """The cli steps again, as the public library calls they make.

        A generator that replays one step per `next()`; the objects the
        probes need are stored in `out` after the last step.
        """
        def call(name, fn, *args, **kw):
            return self.ledger.call(name, fn, *args, tracer=tracer, **kw)[0]

        d = self.base / "replay"
        d.mkdir(parents=True)
        try:
            yield from self._replay_steps(call, tracer, d, out)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _replay_steps(self, call, tracer, d, out):
        T = _LINEAR_T
        lin = BoundaryCurve.linear(1.0, 0.5)
        pt = SourceSpec.point(0.0)
        g4096 = TimeGrid(T=T, N=4096, q=2.0)
        g1024 = TimeGrid(T=T, N=1024, q=2.0)

        with tracer.span("replay.solve"):
            est = call("solver.solve_marching.linear", solve_marching, pt, lin, g4096)
            call("solver.solve_picard.linear", solve_picard, pt, lin, g4096)
            call("solver.to_csv", est.to_csv, d / "density.csv")
            call("solver.to_json", est.to_json, d / "run.json")
        yield

        with tracer.span("replay.validate_point"):
            est = call("solver.from_files", DensityEstimate.from_files,
                       d / "density.csv", d / "run.json")
            fld = GreenField(curve=lin, src=pt, density=est)
            call("validation.master_residual", master_residual, est, lin, pt,
                 z_offsets=(0.0, 0.5, 1.0), times=(T / 8, T / 4, T / 2, T), tolerance=2e-3)
            with tracer.span("validation.heat_residual"):
                self._heat_suite(lin, fld, T)
            call("validation.mass_conservation", mass_conservation, fld,
                 times=(T / 4, T / 2, T), tolerance=2e-3)
            call("validation.jump_check", jump_check, fld,
                 times=(T / 8, T / 4, T / 2), tolerance=2e-2)
            call("validation.delta_convergence", delta_convergence, lin, 0.0,
                 widths=(0.25, 0.125, 0.0625, 0.03125), eta=0.25, grid=g1024,
                 ratio_tolerance=0.5)
        yield

        bump = SourceSpec.uniform_bump(0.0, 0.25)
        with tracer.span("replay.validate_smeared"):
            est_s = call("solver.solve_marching.smeared", solve_marching, bump, lin, g1024)
            fld_s = GreenField(curve=lin, src=bump, density=est_s)
            call("validation.mass_conservation.smeared", mass_conservation, fld_s,
                 times=(T / 4, T / 2, T), tolerance=2e-3)
        yield

        near_curve = BoundaryCurve.constant(1.0)
        near_src = SourceSpec.point(0.9)
        with tracer.span("replay.solve_near"):
            est_n = call("solver.solve_marching.near", solve_marching, near_src, near_curve,
                         TimeGrid(T=1.0, N=2048, q=2.0))
            call("solver.to_csv.near", est_n.to_csv, d / "near.csv")
            call("solver.to_json.near", est_n.to_json, d / "near.json")
        yield

        with tracer.span("replay.simulate"):
            cfg = McConfig(n_paths=MC_PATHS, dt=MC_DT, T=1.0, seed=self.mc_seed)
            run = call("montecarlo.simulate.near", simulate, near_src, near_curve, cfg,
                       workers=NPROC)
            call("montecarlo.hits_to_csv", run.hits_to_csv, d / "hits.csv")
            call("montecarlo.to_json", run.to_json, d / "mc.json")
            est_n = call("solver.from_files.near", DensityEstimate.from_files,
                         d / "near.csv", d / "near.json")
            ks = call("montecarlo.ks_distance.near", ks_distance, run, est_n)
        out.update(fld=fld, fld_s=fld_s, bump=bump, lin=lin, g1024=g1024, run=run, ks=ks)
        yield

    @staticmethod
    def _heat_suite(curve, fld, T):
        """The three heat_residual calls of `fpt validate --suite heat`, same points."""
        rng = np.random.default_rng(7)
        kernel_pts = [(float(x), float(t)) for x, t in
                      zip(rng.uniform(-2.0, 2.0, 10), rng.uniform(0.5, 2.0, 10))]
        heat_residual(lambda x, t: gaussian(x, t, 0.0, 0.0), kernel_pts,
                      dx=1e-3, dt_fd=1e-3, tolerance=1e-6, name="heat_kernel")
        heat_residual(lambda x, t: gaussian_dx(x, t, 0.0, 0.0), [(-1.0, 1.0)],
                      dx=1e-3, dt_fd=1e-3, tolerance=1e-6, name="heat_dipole_fixture")
        probes = []
        for t in rng.uniform(0.3 * T, T, 20):
            xt = float(curve.value(t))
            probes.append((xt - (0.5 + rng.uniform(0.0, 2.0)) * np.sqrt(t), float(t)))
        heat_residual(lambda x, t: green_eval(fld, x, t), probes,
                      dx=float(np.sqrt(T) / 40.0), dt_fd=float(T / 200.0),
                      tolerance=1e-2, name="green_interior")

    def _green_probes(self, tracer, r):
        """Per-call green and smeared source costs, outside the replay."""
        T = _LINEAR_T
        lin, bump, g1024 = r["lin"], r["bump"], r["g1024"]
        m = {}
        with tracer.span("solver.source_term.smeared"):
            t0 = time.perf_counter()
            for t in g1024.nodes[1:]:
                source_term(bump, lin, float(t))
            m["solver.source_term_s.smeared"] = time.perf_counter() - t0
        with tracer.span("green.survival.point"):
            m["green.survival_s.point"] = _median_call(lambda: survival(r["fld"], T / 2), 3)
        with tracer.span("green.survival.smeared"):
            m["green.survival_s.smeared"] = _median_call(lambda: survival(r["fld_s"], T / 2), 1)
        with tracer.span("green.boundary_flux"):
            m["green.boundary_flux_s"] = _median_call(lambda: boundary_flux(r["fld"], 1.0), 5)
        # random lattice points of the `fpt green` window, below the boundary
        est = solve_marching(SourceSpec.point(0.0), lin, g1024)
        fld = GreenField(curve=lin, src=SourceSpec.point(0.0), density=est)
        pts = [(float(self.rng.uniform(-3.0, 1.0)), float(self.rng.uniform(0.1, T)))
               for _ in range(50)]
        with tracer.span("green.green_eval"):
            per = [_median_call(lambda: green_eval(fld, x, t), 3) for x, t in pts]
        m["green.green_eval_us"] = statistics.median(per) * 1e6
        return m

    def computed(self):
        pairs = {n: n * (n + 1) // 2 for n in (1024, 2048, 4096)}
        substeps = MC_PATHS * math.ceil(1.0 / MC_DT - 1e-9)
        return {
            "kernel_pairs_per_assembly.N4096": pairs[4096],
            "kernel_pairs_per_assembly.N2048": pairs[2048],
            "kernel_pairs_per_assembly.N1024": pairs[1024],
            "assemblies_in_solve_both": 2,  # solve_marching and solve_picard each assemble
            "mc_substeps_near": substeps,
            "mc_draws_near": 2 * substeps,
        }

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


WORKLOADS = {"solve": SolveWorkload, "pipeline": PipelineWorkload, "mc": McWorkload}
