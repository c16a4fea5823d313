import json
import math

import numpy as np
import pytest

from fptkit import (
    BoundaryCurve,
    DensityEstimate,
    GreenField,
    SourceSpec,
    TimeGrid,
    closed_form_linear,
    delta_convergence,
    dirichlet_residual,
    gaussian,
    gaussian_dx,
    green_eval,
    heat_residual,
    jump_check,
    mass_conservation,
    master_residual,
    problem_fingerprint,
    solve_marching,
)

POINT = SourceSpec.point(0.0)


def inject_exact_density(a, b, grid):
    """DensityEstimate holding the linear-boundary closed form at the nodes."""
    p = np.zeros(len(grid.nodes))
    p[1:] = closed_form_linear(a, b, 0.0, grid.nodes[1:])
    F = np.zeros(len(grid.nodes))
    F[1:] = np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(grid.nodes))
    fingerprint = problem_fingerprint(POINT, BoundaryCurve.linear(a, b), grid)
    return DensityEstimate(grid=grid, p=p, F=F, method="marching",
                           fingerprint=fingerprint)


@pytest.fixture(scope="module")
def linear_case():
    curve = BoundaryCurve.linear(1.0, 0.5)
    grid = TimeGrid(T=4.0, N=2048, q=2.0)
    est = solve_marching(POINT, curve, grid)
    return curve, grid, est


class TestClosedFormLinear:
    def test_values(self):
        assert closed_form_linear(1.0, 0.0, 0.0, 1.0) == pytest.approx(0.24197072451914337, rel=1e-14)
        assert closed_form_linear(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.05399096651318806, rel=1e-14)
        assert closed_form_linear(1.0, 0.5, 0.0, 1.0) == pytest.approx(0.12951759566589174, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            closed_form_linear(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_linear(1.0, 0.0, 0.0, 0.0)


class TestMasterResidual:
    def test_exact_density_constant_boundary(self):
        # the identity holds identically for the true density; residual is
        # pure quadrature error
        curve = BoundaryCurve.constant(1.0)
        grid = TimeGrid(T=2.0, N=2048, q=2.0)
        exact = inject_exact_density(1.0, 0.0, grid)
        rep = master_residual(exact, curve, POINT, z_offsets=(0.0,), times=(1.0,), tolerance=1e-6)
        assert rep.passed

    def test_exact_density_linear_many_probes(self, linear_case):
        curve, grid, _ = linear_case
        exact = inject_exact_density(1.0, 0.5, grid)
        rep = master_residual(
            exact, curve, POINT, z_offsets=(0.0, 0.5, 1.0),
            times=(0.5, 1.0, 2.0, 4.0), tolerance=1e-5,
        )
        assert rep.passed
        assert rep.sup_residual <= 1e-5

    def test_early_time_residual_collapses(self, linear_case):
        curve, _, est = linear_case
        rep = master_residual(est, curve, POINT, z_offsets=(0.0,), times=(1e-4,), tolerance=1e-12)
        assert rep.passed

    def test_solver_output(self, linear_case):
        curve, _, est = linear_case
        rep = master_residual(
            est, curve, POINT, z_offsets=(0.0, 0.5, 1.0),
            times=(0.5, 1.0, 2.0, 4.0), tolerance=2e-3,
        )
        assert rep.passed

    def test_detects_corrupted_density(self, linear_case):
        # scaling p by 1.1 introduces a visible mass error
        curve, grid, est = linear_case
        bad = DensityEstimate(grid=grid, p=1.1 * est.p, F=est.F, method="marching")
        rep = master_residual(
            bad, curve, POINT, z_offsets=(0.0,), times=(2.0, 4.0), tolerance=2e-3,
        )
        assert not rep.passed

    def test_negative_offset_rejected(self, linear_case):
        curve, _, est = linear_case
        with pytest.raises(ValueError, match="offset"):
            master_residual(est, curve, POINT, z_offsets=(-0.5,), times=(1.0,))

    def test_reproducible(self, linear_case):
        curve, _, est = linear_case
        a = master_residual(est, curve, POINT, z_offsets=(0.0, 1.0), times=(1.0, 2.0))
        b = master_residual(est, curve, POINT, z_offsets=(0.0, 1.0), times=(1.0, 2.0))
        assert a.residuals == b.residuals
        assert a.sup_residual == b.sup_residual


class TestHeatResidual:
    def test_heat_kernel_fixture(self):
        rng = np.random.default_rng(7)
        pts = list(zip(rng.uniform(-2, 2, 10), rng.uniform(0.5, 2.0, 10)))
        rep = heat_residual(lambda x, t: gaussian(x, t, 0.0, 0.0), pts, dx=1e-3, dt_fd=1e-3,
                            tolerance=1e-6)
        assert rep.passed

    def test_dipole_counterexample_fixture(self):
        # (-x/t) exp(-x^2/2t)/sqrt(2 pi t) solves the heat equation even
        # though it is not continuous at the origin; it equals G_x
        rep = heat_residual(lambda x, t: gaussian_dx(x, t, 0.0, 0.0), [(-1.0, 1.0)],
                            dx=1e-3, dt_fd=1e-3, tolerance=1e-6)
        assert rep.passed

    def test_green_interior(self, linear_case):
        curve, grid, est = linear_case
        fld = GreenField(curve=curve, src=POINT, density=est)
        rng = np.random.default_rng(13)
        pts = []
        for _ in range(20):
            t = float(rng.uniform(1.2, 4.0))
            xt = float(curve.value(t))
            pts.append((xt - float(rng.uniform(0.5, 2.5)) * math.sqrt(t), t))
        rep = heat_residual(
            lambda x, t: green_eval(fld, x, t),
            pts, dx=0.05, dt_fd=0.02, tolerance=1e-2, name="green_interior",
        )
        assert rep.passed

    def test_stencil_out_of_domain_propagates(self, linear_case):
        # the time stencil reaches below t = 0 where the field is undefined
        curve, grid, est = linear_case
        fld = GreenField(curve=curve, src=POINT, density=est)
        with pytest.raises(ValueError):
            heat_residual(
                lambda x, t: green_eval(fld, x, t),
                [(0.0, 0.005)], dx=0.05, dt_fd=0.02,
            )


class TestDirichletResidual:
    def test_converges_at_order_two(self, linear_case):
        # 2.97e-6 at N = 1024 and 7.44e-7 at N = 2048, relative to G(X_t, t; 0, 0)
        curve, _, est = linear_case
        coarse = solve_marching(POINT, curve, TimeGrid(T=4.0, N=1024, q=2.0))
        times = (0.5, 1.0, 2.0, 4.0)
        errs = [dirichlet_residual(GreenField(curve=curve, src=POINT, density=e), times)
                for e in (coarse, est)]
        assert errs[0].name == "dirichlet_condition" and errs[0].points == times
        assert errs[1].sup_residual <= 2e-6
        assert errs[0].sup_residual >= 3.0 * errs[1].sup_residual

    def test_zero_density_reads_one(self, linear_case):
        # G^X is then the free kernel, which the residual is measured against
        curve, grid, est = linear_case
        zero = DensityEstimate(grid=grid, p=0.0 * est.p, F=0.0 * est.F, method="marching",
                               fingerprint=est.fingerprint)
        rep = dirichlet_residual(GreenField(curve=curve, src=POINT, density=zero), (1.0, 4.0))
        assert rep.residuals == (1.0, 1.0) and not rep.passed


class TestMassConservation:
    def test_constant_boundary(self):
        curve = BoundaryCurve.constant(1.0)
        grid = TimeGrid(T=2.0, N=1024, q=2.0)
        est = solve_marching(POINT, curve, grid)
        fld = GreenField(curve=curve, src=POINT, density=est)
        rep = mass_conservation(fld, times=(1.0,), tolerance=2e-3)
        assert rep.passed

    def test_short_time(self, linear_case):
        curve, _, est = linear_case
        fld = GreenField(curve=curve, src=POINT, density=est)
        rep = mass_conservation(fld, times=(1e-4,), tolerance=1e-6)
        assert rep.passed

    def test_power_boundary_quarters(self):
        curve = BoundaryCurve.power(1.0, 0.5, 0.75)
        grid = TimeGrid(T=4.0, N=2048, q=2.0)
        est = solve_marching(POINT, curve, grid)
        fld = GreenField(curve=curve, src=POINT, density=est)
        rep = mass_conservation(fld, times=(1.0, 2.0, 4.0), tolerance=2e-3)
        assert rep.passed

    def test_exact_density_floor(self):
        # with the closed-form p injected the residual is the history rule's
        # own floor for the Psi row at z = X_t, as in the master identity
        grid = TimeGrid(T=4.0, N=4096, q=2.0)
        fld = GreenField(curve=BoundaryCurve.linear(1.0, 0.5), src=POINT,
                         density=inject_exact_density(1.0, 0.5, grid))
        rep = mass_conservation(fld, times=(0.5, 1.0, 2.0, 4.0), tolerance=2e-8)
        assert rep.passed, rep.residuals

    @pytest.mark.parametrize("curve", [BoundaryCurve.linear(1.0, 0.5),
                                       BoundaryCurve.power(1.0, 0.5, 0.75)],
                             ids=["linear", "power"])
    def test_is_the_hitting_identity_at_the_boundary(self, curve):
        # S + F - 1 = [F - int p] + [int Psi p - P(B_t >= X_t)]: at a node
        # the trapezoid F is the rule's int p, so the mass residual is the
        # master residual at offset 0
        grid = TimeGrid(T=4.0, N=1024, q=2.0)
        est = solve_marching(POINT, curve, grid)
        fld = GreenField(curve=curve, src=POINT, density=est)
        times = (grid.T / 4.0, grid.T)
        assert all(t in grid.nodes for t in times)
        mass = mass_conservation(fld, times=times)
        master = master_residual(est, curve, POINT, z_offsets=(0.0,), times=times)
        assert np.allclose(mass.residuals, master.residuals, rtol=0.0, atol=1e-12)


class TestJumpCheck:
    def test_linear_case(self, linear_case):
        curve, _, est = linear_case
        fld = GreenField(curve=curve, src=POINT, density=est)
        rep = jump_check(fld, times=(0.5, 1.0, 2.0), tolerance=2e-2)
        assert rep.passed

    def test_constant_case(self):
        curve = BoundaryCurve.constant(1.0)
        est = solve_marching(POINT, curve, TimeGrid(T=2.0, N=1024, q=2.0))
        fld = GreenField(curve=curve, src=POINT, density=est)
        rep = jump_check(fld, times=(1.0,), tolerance=2e-2)
        assert rep.passed

    def test_first_node_near_zero(self, linear_case):
        # both flux and density are ~0 there; absolute residual <= 1e-3
        curve, grid, est = linear_case
        fld = GreenField(curve=curve, src=POINT, density=est)
        t1 = float(grid.nodes[1])
        rep = jump_check(fld, times=(t1,), tolerance=1.0)
        assert rep.residuals[0] * 1e-3 <= 1e-3  # relative is vs max(p, 1e-3)
        assert rep.passed


class TestDeltaConvergence:
    def test_linear_boundary_norm_sequence(self):
        curve = BoundaryCurve.linear(1.0, 0.5)
        grid = TimeGrid(T=4.0, N=512, q=2.0)
        rep = delta_convergence(
            curve, 0.0, widths=(0.25, 0.125, 0.0625, 0.03125), eta=0.25, grid=grid,
        )
        assert rep.details["monotone_decreasing"]
        assert rep.details["ratio_last_to_first"] <= 0.5
        assert rep.passed

    def test_one_joint_solve_matches_separate_solves(self):
        # the joint solve changes no bit of any norm; a zero width reads 0
        curve = BoundaryCurve.power(1.0, 0.5, 0.75)
        grid = TimeGrid(T=2.0, N=96, q=2.0)
        widths = (0.5, 0.25, 0.0, 0.125)
        rep = delta_convergence(curve, 0.0, widths=widths, eta=0.25, grid=grid)
        point = solve_marching(SourceSpec.point(0.0), curve, grid).p[1:]
        weight = grid.nodes[1:] ** 0.75
        expected = []
        for w in widths:
            p = point if w == 0.0 else solve_marching(
                SourceSpec.uniform_bump(0.0, w), curve, grid).p[1:]
            expected.append(float(np.max(weight * np.abs(p - point))))
        assert rep.residuals == tuple(expected)
        assert rep.residuals[2] == 0.0

    def test_zero_width_short_circuits(self):
        curve = BoundaryCurve.linear(1.0, 0.5)
        grid = TimeGrid(T=1.0, N=64, q=2.0)
        rep = delta_convergence(curve, 0.0, widths=(0.0,), eta=0.25, grid=grid)
        assert rep.residuals == (0.0,)

    def test_all_zero_norms_pass(self):
        # a boundary step of 1e200 leaves no first passage: every density is 0
        curve = BoundaryCurve.linear(1.0, 1e200)
        grid = TimeGrid(T=4.0, N=64, q=2.0)
        rep = delta_convergence(curve, 0.0, widths=(0.25, 0.125), eta=0.25, grid=grid)
        assert rep.residuals == (0.0, 0.0)
        assert rep.passed and rep.sup_residual == 0.0

    def test_growing_norms_fail_with_a_finite_residual(self):
        # widening bumps move p further from the point density
        curve = BoundaryCurve.linear(1.0, 0.5)
        grid = TimeGrid(T=4.0, N=64, q=2.0)
        rep = delta_convergence(curve, 0.0, widths=(0.125, 0.25), eta=0.25, grid=grid)
        assert not rep.details["monotone_decreasing"] and not rep.passed
        assert rep.sup_residual == rep.details["ratio_last_to_first"] > 1.0
        json.dumps(rep.to_dict(), allow_nan=False)

    def test_support_clearance_enforced(self):
        curve = BoundaryCurve.linear(1.0, 0.5)
        grid = TimeGrid(T=1.0, N=64, q=2.0)
        with pytest.raises(ValueError, match="below"):
            delta_convergence(curve, 0.0, widths=(2.5,), eta=0.25, grid=grid)

    def test_eta_validated(self):
        curve = BoundaryCurve.linear(1.0, 0.5)
        grid = TimeGrid(T=1.0, N=64, q=2.0)
        with pytest.raises(ValueError, match="eta"):
            delta_convergence(curve, 0.0, widths=(0.25,), eta=0.7, grid=grid)

    def test_ratio_tolerance_below_one(self):
        # a sequence that does not decrease reads at least 1, so 1 could pass it
        curve = BoundaryCurve.linear(1.0, 0.5)
        grid = TimeGrid(T=1.0, N=64, q=2.0)
        with pytest.raises(ValueError, match="ratio_tolerance"):
            delta_convergence(curve, 0.0, widths=(0.25,), eta=0.25, grid=grid,
                              ratio_tolerance=1.0)


class TestReportShape:
    def test_pass_iff_within_tolerance(self, linear_case):
        curve, _, est = linear_case
        rep = master_residual(est, curve, POINT, z_offsets=(0.0,), times=(1.0,), tolerance=1e-30)
        assert not rep.passed
        assert rep.to_dict()["passed"] is False
        assert rep.to_dict()["tolerance"] == 1e-30
