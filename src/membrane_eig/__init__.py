"""Analytic eigensystems of isotropic membrane energy Hessians.

Kernels for 3x2 deformation gradients: a convention-pinned thin SVD and its
differential, closed-form gradients/Hessian actions/eigensystems of the
isotropic invariants (I1, I2, I3) and of models built on them, an
incompressible neo-Hookean sheet, PSD projection by eigenvalue clamping, a
projected-Newton membrane solver over triangle meshes, and randomized
verification plus timing harnesses.
"""

from .bench import BenchReport, run_bench
from .checks import CheckReport, run_checks
from .fem import (
    DegenerateTriangle,
    LinearSolveFailed,
    LineSearchFailed,
    MembraneProblem,
    NewtonConfig,
    SolveReport,
    assemble,
    make_problem,
    newton_solve,
    total_energy,
)
from .invariants import (
    DegenerateHessian,
    EigenSystem6,
    Invariants,
    invariant_eigensystem,
    invariant_gradients,
    invariant_hvp,
    invariants,
)
from .mesh import grid_mesh, load_obj, save_obj
from .models import (
    DomainError,
    ModelDerivs,
    NeoHookeanSheet,
    energy_eigensystem,
    energy_gradient,
    energy_hvp,
    project_psd,
    sheet_eigensystem,
)
from .oracles import NotSymmetric, fd_gradient, fd_hessian6, jacobi_eigen_sym
from .scene import load_scene, solve_and_export, solve_scene
from .svd import DegenerateRates, Svd32, SvdRates, svd32, svd_rates

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "CheckReport",
    "DegenerateHessian",
    "DegenerateRates",
    "DegenerateTriangle",
    "DomainError",
    "EigenSystem6",
    "Invariants",
    "LineSearchFailed",
    "LinearSolveFailed",
    "MembraneProblem",
    "ModelDerivs",
    "NeoHookeanSheet",
    "NewtonConfig",
    "NotSymmetric",
    "SolveReport",
    "Svd32",
    "SvdRates",
    "assemble",
    "energy_eigensystem",
    "energy_gradient",
    "energy_hvp",
    "fd_gradient",
    "fd_hessian6",
    "grid_mesh",
    "invariant_eigensystem",
    "invariant_gradients",
    "invariant_hvp",
    "invariants",
    "jacobi_eigen_sym",
    "load_obj",
    "load_scene",
    "make_problem",
    "newton_solve",
    "project_psd",
    "run_bench",
    "run_checks",
    "save_obj",
    "sheet_eigensystem",
    "solve_and_export",
    "solve_scene",
    "svd32",
    "svd_rates",
    "total_energy",
    "__version__",
]
