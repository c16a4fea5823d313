import json
import math
import tracemalloc

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
    psi,
    segment_weight,
    solve_marching,
    solve_picard,
    source_term,
)

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

    def test_uniform_bump_mass(self):
        bump = SourceSpec.uniform_bump(0.0, 0.25)
        assert bump.density(0.0) == 4.0
        assert bump.density(0.2) == 0.0
        assert np.trapezoid([bump.density(x) for x in bump.knots_x], bump.knots_x) == pytest.approx(1.0)

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError, match="mass"):
            SourceSpec.smeared([0.0, 1.0], [0.5, 0.5])

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            SourceSpec.smeared([0.0, 0.5, 1.0], [2.0, -0.5, 2.0])

    @pytest.mark.parametrize("make", [
        lambda: SourceSpec.uniform_bump(-math.inf, 0.5),
        lambda: SourceSpec.uniform_bump(0.0, math.nan),
        lambda: SourceSpec.uniform_bump(0.0, math.inf),
        lambda: SourceSpec.smeared([0.0, math.nan, 1.0], [1.0, 1.0, 1.0]),
        lambda: SourceSpec.smeared([0.0, 1.0], [math.nan, 1.0]),
        lambda: SourceSpec.smeared([0.0, 1.0], [1.0, math.inf]),
    ], ids=["center_-inf", "width_nan", "width_inf", "x_nan", "y_nan", "y_inf"])
    def test_non_finite_knots_rejected(self, make):
        # nan slips past `diff <= 0` and the mass check, so finiteness is explicit
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
    tau = t_i is its limit -X'(t_i) / sqrt(2 pi), with X' the slope of the
    boundary over the last segment.
    """
    ts = grid.nodes
    xs = curve.value(ts)
    n = len(ts)
    A = np.zeros((n, n))
    for i in range(1, n):
        t = ts[i]
        kappa = [gaussian_dx(xs[i], t, xs[j], ts[j]) * math.sqrt(t - ts[j]) for j in range(i)]
        kappa.append(-(xs[i] - xs[i - 1]) / (t - ts[i - 1]) / SQRT_2PI)
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
    "sampled": BoundaryCurve.sampled([0.0, 0.5, 1.3, 2.0], [1.0, 1.2, 0.9, 1.4], 1.0),
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
            BoundaryCurve.sampled([0.0, 0.5, 1.3, 2.0], [1.0, 1.2, 0.9, 1.4], 1.0),
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
        curve = BoundaryCurve.sampled([0.0, 1.0], [1.0, 1.5], gamma=1.0)
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
        assert math.isfinite(info["window_length"])
        assert all(w["max_ratio"] <= 0.5 + 0.1 for w in info["windows"])

    def test_constant_boundary_single_window(self):
        # m = 0 means the kernel vanishes: one window, one sweep
        est = solve_picard(
            POINT, BoundaryCurve.constant(1.0), TimeGrid(T=2.0, N=256, q=2.0)
        )
        info = est.residual_summary
        assert len(info["windows"]) == 1
        assert info["windows"][0]["iterations"] == 1
        assert info["max_ratio"] == 0.0

    # Outside this box the solvers stop agreeing for other reasons: with
    # theta < 3/4 on N <= 128 the first window is a single cell wider than
    # the certified one and Picard diverges, and steeper falling boundaries
    # on N = 32 overshoot F(T) <= 1 in both solvers.
    @given(
        kind=st.sampled_from(["constant", "linear", "power"]),
        b=st.floats(min_value=-0.25, max_value=1.0),
        theta=st.floats(min_value=0.75, max_value=1.0),
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

    def test_memory_is_per_window(self):
        # the windows of a power boundary are short: no dense (N+1)^2 matrix
        N = 2048
        curve = BoundaryCurve.power(1.0, 0.5, 0.75)
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
            DensityEstimate(grid=grid, p=p, F=np.zeros(9), method="marching", gamma=1.0)

    def test_rejects_decreasing_cdf(self):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        p = np.zeros(9)
        F = np.zeros(9)
        F[-1] = -0.5
        with pytest.raises(ValueError, match="non-decreasing"):
            DensityEstimate(grid=grid, p=p, F=F, method="marching", gamma=1.0)

    def test_rejects_negative_density(self):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        p = np.zeros(9)
        p[3] = -1e-6
        with pytest.raises(ValueError, match="negative"):
            DensityEstimate(grid=grid, p=p, F=np.zeros(9), method="marching", gamma=1.0)

    @pytest.mark.parametrize("column", ["p", "F"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, column, value):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        arrays = {"p": np.zeros(9), "F": np.zeros(9)}
        arrays[column][5] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityEstimate(grid=grid, method="marching", gamma=1.0, **arrays)


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
        t = 0.3 * est.grid.nodes[40] + 0.7 * est.grid.nodes[41]
        tau, w, _ = est.history(t, -0.5)
        assert tau[0] == 0.0 and len(w) == len(tau)
        assert np.all(np.diff(tau) > 0.0) and tau[-1] < t
        assert np.array_equal(tau[:41], est.grid.nodes[:41])
        assert t - tau[-1] <= 1e-13 * max(t, 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, 4.5])
    def test_domain_error(self, est, t):
        with pytest.raises(ValueError):
            est.history(t, 0.0)


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
        assert back.gamma == est.gamma
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

    def test_csv_header(self, tmp_path):
        grid = TimeGrid(T=1.0, N=8, q=1.0)
        est = DensityEstimate(grid=grid, p=np.zeros(9), F=np.zeros(9), method="picard", gamma=0.8)
        est.to_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text().splitlines()[0] == "t,p,F"
