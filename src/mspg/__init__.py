"""Multiscale Petrov-Galerkin stabilization for convection-dominated
diffusion in heterogeneous media, on nested structured grids."""

from .assembly import (
    CoefficientField,
    SparseOperator,
    assemble,
    constant_field,
    solve_fine_reference,
)
from .coupling import (
    ErrorReport,
    SaddleState,
    append_test_columns,
    error_report,
    infsup_estimate,
    online_enrich,
    projection_error,
    solve_coupled,
)
from .grid import (
    CoarseTopology,
    FineMesh,
    build_coarse_topology,
    build_fine_mesh,
    coloring,
)
from .harness import (
    ExperimentConfig,
    ReportRow,
    Workspace,
    emit_report,
    full_resolution,
    run_experiment,
    sweep_experiment,
)
from .fields import (
    DarcyVelocity,
    PermeabilityRaster,
    darcy_velocity,
    field_for_example,
    load_permeability_raster,
    synthetic_channel_raster,
)
from .numerics import (
    EigenPairs,
    generalized_sym_eig,
    harmonic_extension,
    local_dirichlet_solve,
    min_energy_extension,
    orthonormalize_columns,
)
from .test_space import (
    assemble_test_matrix,
    build_W1,
    build_W2,
    build_W3_snapshots,
    eigenproblem_1,
    eigenproblem_2,
)
from .trial_space import (
    TrialBasis,
    assemble_trial_matrix,
    partition_of_unity,
    trial_eigenbasis,
    trial_snapshots,
)

__version__ = "0.1.0"
