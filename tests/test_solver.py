import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptkit import (
    BoundaryCurve,
    DensityEstimate,
    GreenField,
    SolverError,
    SourceSpec,
    TimeGrid,
    closed_form_linear,
    gaussian_dx,
    master_residual,
    mass_conservation,
    problem_fingerprint,
    psi,
    segment_weight,
    solve_many,
    solve_marching,
    solve_picard,
    source_term,
)
import fptkit.solver
from fptkit.solver import BLOCK_ROWS, sorted_union

SQRT_2PI = math.sqrt(2.0 * math.pi)

POINT = SourceSpec.point(0.0)


class TestTimeGrid:
    def test_nodes_graded(self):
        grid = TimeGrid(T=4.0, N=8, q=2.0)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 4.0
        assert np.all(np.diff(grid.nodes) > 0.0)
        assert grid.nodes[1] == 4.0 * (1 / 8) ** 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(T=4.0, N=4, q=2.0)
        with pytest.raises(ValueError):
            TimeGrid(T=4.0, N=64, q=0.5)
        with pytest.raises(ValueError):
            TimeGrid(T=-1.0, N=64, q=2.0)
        for T, q in ((math.nan, 2.0), (math.inf, 2.0), (4.0, math.nan), (4.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(T=T, N=64, q=q)


class TestSourceSpec:
    def test_point(self):
        assert POINT.support_upper == 0.0
        assert (POINT.kind, POINT.width) == ("point", 0.0)

    def test_uniform_bump_mass(self):
        bump = SourceSpec.uniform_bump(0.0, 0.25)
        assert bump.kind == "smeared"
        assert bump.support_lower < 0.0 < bump.support_upper < 0.2
        assert (bump.support_upper - bump.support_lower) / bump.width == pytest.approx(1.0)

    def test_mass_must_be_one(self):
        # far from 0 the ends round away from a width of 1e-9
        with pytest.raises(ValueError, match="mass is 0.93"):
            SourceSpec.uniform_bump(1e6, 1e-9)

    def test_ends_must_be_distinct(self):
        # a width below the centre's spacing collapses both ends onto it
        with pytest.raises(ValueError, match="strictly increasing"):
            SourceSpec.uniform_bump(1e6, 1e-12)

    def test_negative_density_rejected(self):
        # a bump's density is 1/width, so its width must be positive
        for width in (0.0, -0.0, -0.5):
            with pytest.raises(ValueError, match="bump width must be positive"):
                SourceSpec.uniform_bump(0.0, width)
        with pytest.raises(ValueError, match="strictly increasing"):
            SourceSpec(r0=0.0, width=-0.5)

    @pytest.mark.parametrize("make", [
        lambda: SourceSpec.uniform_bump(-math.inf, 0.5),
        lambda: SourceSpec.uniform_bump(0.0, math.nan),
        lambda: SourceSpec.uniform_bump(0.0, math.inf),
        lambda: SourceSpec.uniform_bump(math.nan, 0.5),
        lambda: SourceSpec(r0=0.0, width=math.nan),
        lambda: SourceSpec.uniform_bump(0.0, 1e-320),
    ], ids=["center_-inf", "width_nan", "width_inf", "x_nan", "y_nan", "y_inf"])
    def test_non_finite_knots_rejected(self, make):
        # the knots are the bump's ends (x) and its height 1/width (y); nan
        # slips past the order and mass checks, so finiteness is explicit
        with pytest.raises(ValueError, match="finite"):
            make()


class TestSourceTerm:
    def test_point_constant_boundary(self):
        curve = BoundaryCurve.constant(1.0)
        assert source_term(POINT, curve, 1.0) == pytest.approx(0.24197072451914337, rel=1e-13)

    def test_collapses_near_zero(self):
        curve = BoundaryCurve.constant(1.0)
        assert source_term(POINT, curve, 1e-6) < 1e-100

    def test_domain_error(self):
        with pytest.raises(ValueError):
            source_term(POINT, BoundaryCurve.constant(1.0), 0.0)

    def test_smeared_converges_to_point(self):
        # uniform bump of width 2 eps around r0, eps = 1e-3
        curve = BoundaryCurve.constant(1.0)
        bump = SourceSpec.uniform_bump(0.0, 2e-3)
        smeared = source_term(bump, curve, 1.0)
        point = source_term(POINT, curve, 1.0)
        assert smeared == pytest.approx(point, rel=1e-5)


def dense_reference(src, curve, grid):
    """p from (I - A) p = g, with A built entry by entry from public kernels.

    Independent of the solver's block assembler.  Row i writes
    G_x(X_{t_i}, t_i; X_tau, tau) as kappa (t_i - tau)^(-1/2) and
    integrates that weight exactly against the linear interpolant of
    kappa p on each segment [t_j, t_{j+1}]: the moments come from
    `segment_weight`, kappa at tau < t_i from `gaussian_dx`, and kappa at
    tau = t_i is its limit -X'(t_i) / sqrt(2 pi), with X' the curve's left
    derivative `slope`.
    """
    ts = grid.nodes
    xs = curve.value(ts)
    n = len(ts)
    A = np.zeros((n, n))
    for i in range(1, n):
        t = ts[i]
        kappa = [gaussian_dx(xs[i], t, xs[j], ts[j]) * math.sqrt(t - ts[j]) for j in range(i)]
        kappa.append(-curve.slope(t) / SQRT_2PI)
        for j in range(i):
            a, b = ts[j], ts[j + 1]
            m0 = segment_weight(-0.5, t, a, b)
            m1 = segment_weight(0.5, t, a, b)
            # the right node's hat function is (tau - a) / (b - a), and
            # tau - a = (t - a) - (t - tau)
            right = ((t - a) * m0 - m1) / (b - a)
            A[i, j] += (m0 - right) * kappa[j]
            A[i, j + 1] += right * kappa[j + 1]
    g = np.zeros(n)
    g[1:] = source_term(src, curve, ts[1:])
    return np.linalg.solve(np.eye(n) - A, g)


REFERENCE_CURVES = {
    "linear": BoundaryCurve.linear(1.0, 0.5),
    "power": BoundaryCurve.power(1.0, 0.5, 0.6),
    "sampled": BoundaryCurve.sampled([0.0, 0.5, 1.3, 2.0], [1.0, 1.2, 0.9, 1.4]),
}
REFERENCE_SOURCES = {"point": POINT, "bump": SourceSpec.uniform_bump(0.0, 0.25)}


class TestKernel:
    def test_constant_boundary_kernel_vanishes(self):
        # kappa = 0 on a constant boundary, so both solvers return g itself
        curve = BoundaryCurve.constant(2.5)
        grid = TimeGrid(T=2.0, N=64, q=2.0)
        g = source_term(POINT, curve, grid.nodes[1:])
        for solve in (solve_marching, solve_picard):
            assert np.array_equal(solve(POINT, curve, grid).p[1:], g)

    def test_linear_diagonal_limit(self):
        # A_ii = (4/3) sqrt(dt_i) kappa_ii with the limit kappa_ii = -X' / sqrt(2 pi);
        # on a falling boundary 1 - A_ii is smallest on the widest cell
        grid = TimeGrid(T=2.0, N=64, q=2.0)
        est = solve_marching(POINT, BoundaryCurve.linear(1.0, -0.5), grid)
        widest = grid.nodes[-1] - grid.nodes[-2]
        expected = 1.0 - (4.0 / 3.0) * math.sqrt(widest) * 0.5 / SQRT_2PI
        assert est.residual_summary["min_diagonal"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("N", [16, 32])
    @pytest.mark.parametrize("src_name", REFERENCE_SOURCES)
    @pytest.mark.parametrize("curve_name", REFERENCE_CURVES)
    def test_matches_double_loop_reference(self, curve_name, src_name, N):
        src, curve = REFERENCE_SOURCES[src_name], REFERENCE_CURVES[curve_name]
        grid = TimeGrid(T=2.0, N=N, q=2.0)
        ref = dense_reference(src, curve, grid)
        assert np.max(np.abs(solve_marching(src, curve, grid).p - ref)) <= 1e-12
        # Picard stops within its iteration tolerance of the same solution
        assert np.max(np.abs(solve_picard(src, curve, grid, tol=1e-14).p - ref)) <= 1e-12


class TestMarching:
    @pytest.mark.parametrize(
        "curve",
        [
            BoundaryCurve.linear(1.0, 0.5),
            BoundaryCurve.power(1.0, 0.5, 0.75),
            BoundaryCurve.sampled([0.0, 0.5, 1.3, 2.0], [1.0, 1.2, 0.9, 1.4]),
        ],
    )
    def test_matches_dense_reference(self, curve):
        # N = 40 spans three assembler blocks, the last one ragged
        grid = TimeGrid(T=2.0, N=40, q=2.0)
        # Picard stops within its iteration tolerance of the same solution
        for src in (POINT, SourceSpec.uniform_bump(0.0, 0.25)):
            ref = dense_reference(src, curve, grid)
            for solve, tol in ((solve_marching, 1e-12), (solve_picard, 1e-9)):
                assert np.max(np.abs(solve(src, curve, grid).p - ref)) <= tol

    def test_constant_boundary_density(self):
        grid = TimeGrid(T=4.0, N=2048, q=2.0)
        est = solve_marching(POINT, BoundaryCurve.constant(1.0), grid)
        assert est.density_at(1.0) == pytest.approx(0.24197072451914337, abs=5e-4)

    def test_linear_boundary_density(self):
        grid = TimeGrid(T=4.0, N=2048, q=2.0)
        est = solve_marching(POINT, BoundaryCurve.linear(1.0, 0.5), grid)
        assert est.density_at(1.0) == pytest.approx(0.12951759566589174, abs=5e-4)

    def test_density_vanishes_at_origin(self):
        grid = TimeGrid(T=2.0, N=64, q=2.0)
        for curve in (BoundaryCurve.constant(1.0), BoundaryCurve.power(1.0, 0.5, 0.75)):
            est = solve_marching(POINT, curve, grid)
            assert est.p[0] == 0.0

    def test_rejects_bad_source_position(self):
        grid = TimeGrid(T=1.0, N=64, q=2.0)
        with pytest.raises(ValueError, match="below"):
            solve_marching(SourceSpec.point(2.0), BoundaryCurve.constant(1.0), grid)
        with pytest.raises(ValueError):
            solve_marching(SourceSpec.point(1.0), BoundaryCurve.constant(1.0), grid)

    def test_rejects_horizon_overrun(self):
        curve = BoundaryCurve.sampled([0.0, 1.0], [1.0, 1.5])
        with pytest.raises(ValueError, match="horizon"):
            solve_marching(POINT, curve, TimeGrid(T=2.0, N=64, q=2.0))

    def test_diagonal_dominance_failure(self):
        # steep falling boundary on a very coarse grid destabilizes the
        # implicit diagonal solve; must fail loudly, not return noise
        curve = BoundaryCurve.linear(1.0, -50.0)
        with pytest.raises(SolverError, match="diagonal"):
            solve_marching(POINT, curve, TimeGrid(T=4.0, N=8, q=1.0))

    @pytest.mark.parametrize("solver", [solve_marching, solve_picard])
    def test_density_check_failure_is_solver_error(self, solver):
        # with r0 0.1 below the boundary p peaks at t = 0.1^2/3 inside the
        # first grid cell, and the coarse trapezoid CDF overshoots F(T) = 1
        grid = TimeGrid(T=4.0, N=32, q=2.0)
        with pytest.raises(SolverError, match="CDF exceeds 1"):
            solver(SourceSpec.point(0.9), BoundaryCurve.constant(1.0), grid)

    @pytest.mark.parametrize("theta", [0.6, 0.75])
    def test_power_boundary_residuals(self, theta):
        # with the curve's gamma = theta as quadrature exponent these read
        # 2.9e-3 (theta = 0.6) and 7.0e-4 (theta = 0.75)
        curve = BoundaryCurve.power(1.0, 0.5, theta)
        est = solve_marching(POINT, curve, TimeGrid(T=4.0, N=4096, q=2.0))
        fld = GreenField(curve=curve, src=POINT, density=est)
        assert mass_conservation(fld, (1.0, 2.0, 4.0)).sup_residual <= 1e-5
        rep = master_residual(est, curve, POINT, z_offsets=(0.0, 0.5, 1.0),
                              times=(0.5, 1.0, 2.0, 4.0))
        assert rep.sup_residual <= 1e-5

    @pytest.mark.parametrize("theta", [0.6, 0.75])
    def test_second_order_on_power_boundaries(self, theta):
        # the diagonal takes the curve's exact slope; its difference quotient
        # over the last cell left an O(h^(3/2)) error per row, order ~1.45
        curve = BoundaryCurve.power(1.0, 0.5, theta)
        ref = solve_marching(POINT, curve, TimeGrid(T=4.0, N=16384, q=2.0)).p
        errs = []
        for N in (256, 512, 1024):
            p = solve_marching(POINT, curve, TimeGrid(T=4.0, N=N, q=2.0)).p
            # node i of the N grid is node (16384 / N) i of the reference
            errs.append(np.max(np.abs(p - ref[::16384 // N])))
        assert np.all(np.log2(np.divide(errs[:-1], errs[1:])) >= 1.9)

    def test_translation_invariance(self):
        # shifting curve and source together changes nothing (only
        # differences enter the equation); FP noise below 1e-12
        grid = TimeGrid(T=2.0, N=512, q=2.0)
        base = solve_marching(POINT, BoundaryCurve.linear(1.0, 0.5), grid)
        shifted = solve_marching(
            SourceSpec.point(7.0), BoundaryCurve.linear(8.0, 0.5), grid
        )
        assert np.max(np.abs(base.p - shifted.p)) < 1e-12

    def test_brownian_scaling(self):
        # lambda = 2: solving the rescaled problem reproduces the base
        # density via p_tilde(lambda^2 t) = p(t) / lambda^2
        lam = 2.0
        base = solve_marching(
            POINT, BoundaryCurve.linear(1.0, 0.5), TimeGrid(T=1.0, N=2048, q=2.0)
        )
        scaled = solve_marching(
            POINT,
            BoundaryCurve.linear(lam * 1.0, 0.5 / lam),
            TimeGrid(T=lam ** 2 * 1.0, N=2048, q=2.0),
        )
        for t in (0.25, 0.5, 0.75, 1.0):
            expect = base.density_at(t) / lam ** 2
            assert scaled.density_at(lam ** 2 * t) == pytest.approx(expect, rel=2e-3)

    def test_grid_refinement_converges(self):
        errs = []
        for n in (256, 512, 1024):
            grid = TimeGrid(T=4.0, N=n, q=2.0)
            est = solve_marching(POINT, BoundaryCurve.linear(1.0, 0.5), grid)
            sel = grid.nodes >= 0.1
            exact = closed_form_linear(1.0, 0.5, 0.0, grid.nodes[sel])
            errs.append(float(np.max(np.abs(est.p[sel] - exact))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] >= 1.5 and errs[1] / errs[2] >= 1.5


class TestPicard:
    def test_agrees_with_marching_constant(self):
        grid = TimeGrid(T=2.0, N=1024, q=2.0)
        curve = BoundaryCurve.constant(1.0)
        m = solve_marching(POINT, curve, grid)
        p = solve_picard(POINT, curve, grid)
        assert np.max(np.abs(m.p - p.p)) <= 1e-3

    @pytest.mark.parametrize(
        "curve",
        [
            BoundaryCurve.constant(1.0),
            BoundaryCurve.linear(1.0, 0.5),
            BoundaryCurve.power(1.0, 0.5, 0.75),
        ],
    )
    def test_scheme_agreement_across_families(self, curve):
        grid = TimeGrid(T=4.0, N=1024, q=2.0)
        m = solve_marching(POINT, curve, grid)
        p = solve_picard(POINT, curve, grid)
        assert np.max(np.abs(m.p - p.p)) <= 1e-3

    def test_window_accounting_linear(self):
        est = solve_picard(
            POINT, BoundaryCurve.linear(1.0, 0.5), TimeGrid(T=4.0, N=512, q=2.0)
        )
        info = est.residual_summary
        assert len(info["windows"]) >= 1
        assert all(w["max_ratio"] <= 0.5 + 0.1 for w in info["windows"])

    def test_vanishing_kernel_one_sweep_per_block(self):
        # a constant boundary has A = 0: every block converges in one sweep
        N = 256
        est = solve_picard(
            POINT, BoundaryCurve.constant(1.0), TimeGrid(T=2.0, N=N, q=2.0)
        )
        info = est.residual_summary
        assert len(info["windows"]) == math.ceil(N / BLOCK_ROWS)
        assert all(w["iterations"] == 1 for w in info["windows"])
        assert info["max_ratio"] == 0.0

    # Outside this box the solvers stop agreeing for another reason:
    # steeper falling boundaries on N = 32 overshoot F(T) <= 1 in both
    # solvers.
    @given(
        kind=st.sampled_from(["constant", "linear", "power"]),
        b=st.floats(min_value=-0.25, max_value=1.0),
        theta=st.floats(min_value=0.51, max_value=1.0),
        gap=st.floats(min_value=0.5, max_value=2.0),
        T=st.floats(min_value=0.5, max_value=4.0),
        N=st.integers(min_value=32, max_value=256),
        q=st.floats(min_value=1.0, max_value=2.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_discrete_system(self, kind, b, theta, gap, T, N, q):
        # marching is the exact fixed point of the Picard sweeps
        curve = {
            "constant": BoundaryCurve.constant(1.0),
            "linear": BoundaryCurve.linear(1.0, b),
            "power": BoundaryCurve.power(1.0, b, theta),
        }[kind]
        src = SourceSpec.point(1.0 - gap)
        grid = TimeGrid(T=T, N=N, q=q)
        m = solve_marching(src, curve, grid)
        p = solve_picard(src, curve, grid)
        assert np.max(np.abs(m.p - p.p)) <= 1e-9

    @pytest.mark.parametrize(
        "curve",
        [BoundaryCurve.power(1.0, 0.5, 0.75), BoundaryCurve.linear(1.0, 0.5)],
        ids=["power", "linear"],
    )
    def test_memory_is_per_window(self, curve):
        # Picard holds one block of rows at a time: no dense (N+1)^2 matrix
        N = 2048
        tracemalloc.start()
        try:
            est = solve_picard(POINT, curve, TimeGrid(T=4.0, N=N, q=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(est.residual_summary["windows"]) > 1
        assert peak < (N + 1) ** 2 * 8 / 4

    def test_nonconvergence_reports_window(self):
        with pytest.raises(SolverError, match="window 0"):
            solve_picard(
                POINT, BoundaryCurve.linear(1.0, 0.5), TimeGrid(T=4.0, N=64, q=2.0),
                max_iter=1,
            )


class TestSolveMany:
    @pytest.mark.parametrize(
        "curve",
        [
            BoundaryCurve.linear(1.0, 0.5),
            BoundaryCurve.power(1.0, 0.5, 0.6),
            BoundaryCurve.sampled([0.0, 0.5, 1.3, 2.0], [1.0, 1.2, 0.9, 1.4]),
        ],
        ids=["linear", "power", "sampled"],
    )
    def test_one_sweep_is_bit_identical_to_separate_solves(self, curve):
        # N = 200 ends on a ragged block; one sweep serves two sources and
        # both methods, and no job's arithmetic sees another job
        grid = TimeGrid(T=2.0, N=200, q=2.0)
        bump = SourceSpec.uniform_bump(-0.25, 0.5)
        requests = [(POINT, "marching"), (bump, "picard"), (POINT, "picard"),
                    (bump, "marching")]
        solve = {"marching": solve_marching, "picard": solve_picard}
        for (src, method), est in zip(requests, solve_many(curve, grid, requests)):
            alone = solve[method](src, curve, grid)
            assert est.method == method
            assert np.array_equal(est.p, alone.p) and np.array_equal(est.F, alone.F)
            assert est.residual_summary == alone.residual_summary
            assert est.fingerprint == alone.fingerprint

    def test_picard_settings_reach_every_picard_job(self):
        grid = TimeGrid(T=4.0, N=64, q=2.0)
        with pytest.raises(SolverError, match="window 0"):
            solve_many(BoundaryCurve.linear(1.0, 0.5), grid,
                       [(POINT, "marching"), (POINT, "picard")], max_iter=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown solve method"):
            solve_many(BoundaryCurve.constant(1.0), TimeGrid(T=1.0, N=16),
                       [(POINT, "newton")])


class TestParallelSweep:
    """The block sweep runs in the calling process for any `FPT_THREADS`:
    only `simulate` forks (`tests/test_montecarlo.py::TestHelpers`).
    """

    N = 1536
    REQUESTS = [(POINT, "marching"), (POINT, "picard"),
                (SourceSpec.uniform_bump(0.0, 0.25), "marching"),
                (SourceSpec.uniform_bump(0.0, 0.25), "picard")]

    def solve(self, monkeypatch, threads, N=N):
        monkeypatch.setenv("FPT_THREADS", str(threads))
        grid = TimeGrid(T=4.0, N=N, q=2.0)
        return solve_many(BoundaryCurve.linear(1.0, 0.5), grid, self.REQUESTS)

    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, forks):
        serial = self.solve(monkeypatch, 1)
        for threads in (2, 4):
            ests = self.solve(monkeypatch, threads)
            for est, ref in zip(ests, serial):
                assert np.array_equal(est.p, ref.p) and np.array_equal(est.F, ref.F)
                assert est.residual_summary == ref.residual_summary
                assert est.fingerprint == ref.fingerprint
                assert est.content_sha256() == ref.content_sha256()
        assert forks == []

    def test_small_sweeps_fork_nothing(self, monkeypatch, forks):
        self.solve(monkeypatch, 4, N=1024)
        assert forks == []


class TestFarField:
    """The sweep's far bands against the dense sweep, which `FAR_MARGIN` = inf gives.

    Interpolating a panel's far band keeps the discretization, so p moves
    only by roundoff; a panel near a breakpoint of X hands its band down.
    """

    KINKED = BoundaryCurve.sampled([0.0, 0.5, 1.3, 2.0, 4.0], [1.0, 1.2, 1.1, 1.5, 1.6])
    PROBLEMS = {
        "linear": (POINT, BoundaryCurve.linear(1.0, 0.5)),
        "power": (POINT, BoundaryCurve.power(1.0, 0.5, 0.75)),
        "kinked": (POINT, KINKED),
        "bump": (SourceSpec.uniform_bump(0.0, 0.25), BoundaryCurve.linear(1.0, 0.5)),
        "constant": (POINT, BoundaryCurve.constant(1.0)),
    }

    def sweeps(self, monkeypatch, problem, N, curve=None):
        """The marching solve of a problem, then that of the dense sweep."""
        src, default = self.PROBLEMS[problem]
        grid = TimeGrid(T=4.0, N=N, q=2.0)
        fast = solve_marching(src, curve or default, grid)
        monkeypatch.setattr(fptkit.solver, "FAR_MARGIN", math.inf)
        return fast, solve_marching(src, curve or default, grid)

    @pytest.mark.parametrize("problem, N", [("linear", 4096), ("power", 4096), ("kinked", 4096),
                                            ("bump", 4096), ("linear", 4000)])
    def test_p_moves_only_by_roundoff(self, monkeypatch, problem, N):
        # N = 4000 leaves the last panel of every level but the first incomplete
        fast, dense = self.sweeps(monkeypatch, problem, N)
        assert np.max(np.abs(fast.p - dense.p)) <= 1e-14
        assert fast.residual_summary["kernel_pairs"] < dense.residual_summary["kernel_pairs"]

    def test_constant_boundary_is_bit_identical(self, monkeypatch):
        # kappa vanishes off the diagonal, so every far product is an exact zero
        fast, dense = self.sweeps(monkeypatch, "constant", 4096)
        assert np.array_equal(fast.p, dense.p) and np.array_equal(fast.F, dense.F)

    def test_a_knot_in_every_panel_assembles_every_pair(self, monkeypatch):
        nodes = TimeGrid(T=4.0, N=1024, q=2.0).nodes
        curve = BoundaryCurve.sampled(nodes, 1.0 + 0.5 * nodes + 0.1 * np.sin(3.0 * nodes))
        fast, dense = self.sweeps(monkeypatch, "linear", 1024, curve)
        assert fast.residual_summary["kernel_pairs"] == dense.residual_summary["kernel_pairs"]
        assert np.array_equal(fast.p, dense.p)

    @pytest.mark.parametrize("N, most", [(4096, 10 ** 6), (16384, 5 * 10 ** 6)])
    def test_pairs_grow_like_n_log_n(self, N, most):
        src, curve = self.PROBLEMS["linear"]
        est = solve_marching(src, curve, TimeGrid(T=4.0, N=N, q=2.0))
        assert est.residual_summary["kernel_pairs"] <= most


class TestCdf:
    def test_zero_at_origin(self):
        est = solve_marching(POINT, BoundaryCurve.constant(1.0), TimeGrid(T=1.0, N=128, q=2.0))
        assert est.cdf(0.0) == 0.0

    def test_constant_boundary_reflection(self):
        # P(hit by 1) = 2 Psi(1) by the reflection principle
        est = solve_marching(POINT, BoundaryCurve.constant(1.0), TimeGrid(T=2.0, N=2048, q=2.0))
        assert est.cdf(1.0) == pytest.approx(2.0 * psi(1.0), abs=1e-3)

    def test_total_crossing_bound_linear(self):
        # P(ever hit 1 + t from 0) = exp(-2); the CDF cannot exceed it
        est = solve_marching(POINT, BoundaryCurve.linear(1.0, 1.0), TimeGrid(T=10.0, N=2048, q=2.0))
        assert est.cdf(10.0) <= math.exp(-2.0) + 1e-3

    def test_domain_error(self):
        est = solve_marching(POINT, BoundaryCurve.constant(1.0), TimeGrid(T=1.0, N=128, q=2.0))
        with pytest.raises(ValueError):
            est.cdf(1.5)

    def test_monotone_and_bounded(self):
        est = solve_marching(POINT, BoundaryCurve.linear(1.0, -0.25), TimeGrid(T=4.0, N=512, q=2.0))
        assert np.all(np.diff(est.F) >= 0.0)
        assert est.F[-1] <= 1.0 + 1e-6
        assert np.min(est.p) >= -1e-8


class TestEstimateInvariants:
    def test_rejects_nonzero_origin(self):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        p = np.full(9, 0.1)
        with pytest.raises(ValueError, match="vanish"):
            DensityEstimate(grid=grid, p=p, F=np.zeros(9), method="marching")

    def test_rejects_decreasing_cdf(self):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        p = np.zeros(9)
        F = np.zeros(9)
        F[-1] = -0.5
        with pytest.raises(ValueError, match="non-decreasing"):
            DensityEstimate(grid=grid, p=p, F=F, method="marching")

    def test_rejects_negative_density(self):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        p = np.zeros(9)
        p[3] = -1e-6
        with pytest.raises(ValueError, match="negative"):
            DensityEstimate(grid=grid, p=p, F=np.zeros(9), method="marching")

    @pytest.mark.parametrize("column", ["p", "F"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, column, value):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        arrays = {"p": np.zeros(9), "F": np.zeros(9)}
        arrays[column][5] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityEstimate(grid=grid, method="marching", **arrays)


class TestHistory:
    """`DensityEstimate.history`, the product-integration rule against p."""

    @pytest.fixture(scope="class")
    def est(self):
        return solve_marching(POINT, BoundaryCurve.linear(1.0, 0.5), TimeGrid(T=4.0, N=64, q=2.0))

    @pytest.mark.parametrize("beta", [-0.5, 0.0])
    @pytest.mark.parametrize("where", ["node", "between", "end"])
    def test_exact_for_piecewise_linear_p(self, est, beta, where):
        # f = 1: the rule must give int_0^t (t - tau)^beta p(tau) dtau for the
        # grid interpolant of p, here summed in closed form cell by cell
        nodes = est.grid.nodes
        t = {"node": nodes[40], "between": 0.3 * nodes[40] + 0.7 * nodes[41],
             "end": nodes[-1]}[where]
        tau, w, w_t = est.history(t, beta)
        a = nodes[nodes < t]
        b = np.append(a[1:], t)
        pa, pb = est.density_at(a), est.density_at(b)
        slope = (pb - pa) / (b - a)
        u0, u1 = t - a, t - b
        exact = np.sum((pa + slope * u0) * (u0 ** (beta + 1) - u1 ** (beta + 1)) / (beta + 1)
                       - slope * (u0 ** (beta + 2) - u1 ** (beta + 2)) / (beta + 2))
        assert np.sum(w) + w_t == pytest.approx(exact, rel=1e-12)

    def test_partition_refines_toward_t(self, est):
        # every grid node below t, then geometric refinement down to ~1e-14 t
        nodes = est.grid.nodes
        for t in (nodes[1], nodes[40], 0.3 * nodes[40] + 0.7 * nodes[41], nodes[-1]):
            tau, w, _ = est.history(t, -0.5)
            assert tau[0] == 0.0 and len(w) == len(tau)
            assert np.all(np.diff(tau) > 0.0) and tau[-1] < t
            assert np.all(np.isin(nodes[nodes < t], tau))
            assert t - tau[-1] <= 1e-13 * t

    def test_sorted_union_is_union1d(self):
        rng = np.random.default_rng(7)
        a = np.round(rng.normal(size=300), 2)
        b = np.concatenate((a[:50], np.round(rng.normal(size=200), 1), [0.0, -0.0]))
        for x, y in ((a, b), (b, a), (a, np.empty(0)), (np.empty(0), np.empty(0))):
            u = sorted_union(x, y)
            assert u.tobytes() == np.union1d(x, y).tobytes()

    def test_history_and_ks_import_no_numpy_ma(self):
        # numpy.union1d imports numpy.ma on its first call, 17-32 ms per process
        script = (
            "import sys\n"
            "from fptkit import *\n"
            "est = solve_marching(SourceSpec.point(0.0), BoundaryCurve.linear(1.0, 0.5),"
            " TimeGrid(T=1.0, N=64))\n"
            "est.history(0.5, -0.5)\n"
            "run = simulate(SourceSpec.point(0.0), BoundaryCurve.linear(1.0, 0.5),"
            " McConfig(n_paths=64, dt=1e-2, T=1.0, seed=1))\n"
            "ks_distance(run, est)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(fptkit.solver.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("t", [0.0, -1.0, 4.5])
    def test_domain_error(self, est, t):
        with pytest.raises(ValueError):
            est.history(t, 0.0)


class TestFingerprint:
    def test_unchanged_by_deriving_gamma(self):
        # the fingerprint still hashes the curve's Hölder exponent, now
        # derived, so artifacts written when it was declared keep their hash
        grid = TimeGrid(4.0, 2048, 2.0)
        curves = {
            "2f91ccbfa9414ab0": BoundaryCurve.linear(1.0, 0.5),
            "46694b9fe786cc4a": BoundaryCurve.constant(1.0),
            "2ffe460eb6dfba42": BoundaryCurve.power(1.0, 0.5, 0.75),
            "728f78eb211c996c": BoundaryCurve.sampled([0.0, 1.0, 2.5, 4.0],
                                                      [1.0, 1.4, 1.2, 1.6]),
        }
        for fingerprint, curve in curves.items():
            assert problem_fingerprint(POINT, curve, grid) == fingerprint

    def test_bump_hashes_its_ends_and_height(self):
        # a bump hashes its two ends and its height 1/w at each; pinned, so
        # the run.json of an existing bump solve keeps validating
        bump = SourceSpec.uniform_bump(0.0, 0.25)
        grid = TimeGrid(4.0, 2048, 2.0)
        assert problem_fingerprint(bump, BoundaryCurve.linear(1.0, 0.5), grid) == "42dd2020ec1bc6ec"

    @pytest.mark.parametrize("number", [int, np.float64], ids=["int", "np.float64"])
    def test_numbers_hash_as_floats(self, number):
        # a problem built from ints or numpy scalars is the problem built
        # from the floats they equal, and hashes to the same pins
        bump = SourceSpec.uniform_bump(number(0), 0.25)
        grid = TimeGrid(number(4), 2048, number(2))
        curve = BoundaryCurve.linear(number(1), 0.5)
        assert problem_fingerprint(bump, curve, grid) == "42dd2020ec1bc6ec"
        point = SourceSpec(r0=number(0))
        assert problem_fingerprint(point, curve, TimeGrid(4.0, 2048, 2.0)) == "2f91ccbfa9414ab0"


class TestSerialization:
    def test_csv_json_round_trip(self, tmp_path):
        grid = TimeGrid(T=2.0, N=128, q=2.0)
        est = solve_marching(POINT, BoundaryCurve.linear(1.0, 0.5), grid)
        est.to_csv(tmp_path / "density.csv")
        est.to_json(tmp_path / "run.json")
        back = DensityEstimate.from_files(tmp_path / "density.csv", tmp_path / "run.json")
        assert np.array_equal(back.p, est.p)
        assert np.array_equal(back.F, est.F)
        assert back.method == est.method
        assert back.fingerprint == est.fingerprint

    def test_content_hash_detects_finite_edit(self, tmp_path):
        grid = TimeGrid(T=2.0, N=128, q=2.0)
        est = solve_marching(POINT, BoundaryCurve.linear(1.0, 0.5), grid)
        est.to_csv(tmp_path / "density.csv")
        est.to_json(tmp_path / "run.json")
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["content_sha256"] == est.content_sha256()
        rows = (tmp_path / "density.csv").read_text().splitlines()
        k = len(rows) // 2
        t, p, F = rows[k].split(",")
        rows[k] = f"{t},{1.5 * float(p):.17g},{F}"
        (tmp_path / "density.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="content_sha256"):
            DensityEstimate.from_files(tmp_path / "density.csv", tmp_path / "run.json")

    def test_csv_bytes_are_those_of_a_row_by_row_write(self, tmp_path):
        # 17 significant digits, whatever the value: zeros of either sign,
        # subnormals and values near the top of the double range
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        p = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1 / 3, 0.1, 1e300,
                      123456789.0, 1e-5])
        F = np.array([0.0, 0.0, 5e-324, 1e-310, 0.1, 0.25, 1 / 3, 0.5, 1.0])
        est = DensityEstimate(grid=grid, p=p, F=F, method="marching")
        est.to_csv(tmp_path / "d.csv")
        expected = "t,p,F\n" + "".join(f"{t:.17g},{a:.17g},{b:.17g}\n"
                                       for t, a, b in zip(grid.nodes, p, F))
        assert (tmp_path / "d.csv").read_bytes() == expected.encode()

    def test_csv_header(self, tmp_path):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        est = DensityEstimate(grid=grid, p=np.zeros(9), F=np.zeros(9), method="picard")
        est.to_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text().splitlines()[0] == "t,p,F"
