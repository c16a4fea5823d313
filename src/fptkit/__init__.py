"""First-passage-time toolkit for Brownian motion through moving boundaries.

Computes the first-passage density p(t) of a standard Brownian motion
through a Hölder-continuous boundary (exponent > 1/2) by solving the
associated weakly singular Volterra equation, reconstructs the Dirichlet
Green function of the heat equation on the moving domain, and
cross-validates everything against closed forms, probabilistic
identities, and a reproducible Monte Carlo oracle.
"""

from .boundary import BoundaryCurve, HolderEstimate, estimate_holder
from .green import GreenField, boundary_flux, green_eval, survival
from .kernels import (
    gaussian,
    gaussian_dx,
    psi,
    segment_weight,
)
from .montecarlo import McConfig, McRun, cpu_workers, ks_distance, simulate
from .solver import (
    DensityEstimate,
    SolverError,
    SourceSpec,
    TimeGrid,
    check_problem,
    problem_fingerprint,
    solve_many,
    solve_marching,
    solve_picard,
    source_term,
)
from .validation import (
    ResidualReport,
    closed_form_linear,
    delta_convergence,
    dirichlet_residual,
    heat_residual,
    jump_check,
    mass_conservation,
    master_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurve",
    "DensityEstimate",
    "GreenField",
    "HolderEstimate",
    "McConfig",
    "McRun",
    "ResidualReport",
    "SolverError",
    "SourceSpec",
    "TimeGrid",
    "boundary_flux",
    "check_problem",
    "closed_form_linear",
    "cpu_workers",
    "delta_convergence",
    "dirichlet_residual",
    "estimate_holder",
    "gaussian",
    "gaussian_dx",
    "green_eval",
    "heat_residual",
    "jump_check",
    "ks_distance",
    "mass_conservation",
    "master_residual",
    "problem_fingerprint",
    "psi",
    "segment_weight",
    "simulate",
    "solve_many",
    "solve_marching",
    "solve_picard",
    "source_term",
    "survival",
]
