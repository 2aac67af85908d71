"""Simplex-averaged finite elements for convection-dominated problems in
H(grad), H(curl) and H(div) on simplicial meshes."""

from .assembly import (
    SparseSystem,
    apply_essential_bc,
    assemble,
    assemble_load,
    local_safe_oracle,
)
from .exponential import (
    exp_average,
    local_exp_operators,
)
from .mesh import (
    DIAG_LL_UR,
    DIAG_UL_LR,
    MeshComplex,
    build_unit_cube_mesh,
    build_unit_square_mesh,
    save_vtk,
)
from .solver import SolveReport, solve
from .verify import (
    ConvergenceReport,
    ErrorNorms,
    ManufacturedCase,
    StabilityMetrics,
    error_norms,
    make_case,
    run_convergence,
    solve_case,
    stability_metrics,
    strong_residual,
    write_solution_vtk,
)
from .whitney import (
    DofMap,
    canonical_interpolate,
    dof_map,
    incidence,
)

__version__ = "0.1.0"
