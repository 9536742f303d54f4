"""Multiscale multipoint-flux mixed finite element solver for Darcy-Forchheimer flow.

The package discretizes the nonlinear Darcy-Forchheimer model

    kappa^-1 u + beta |u| u + grad p = 0,    div u = f

on rectangular fine grids with lowest-order BDM velocities and cellwise
pressures, using corner (trapezoidal) quadrature so the velocity mass matrix
decouples into per-vertex blocks.  kappa and beta absorb the viscosity mu and
the density rho of the physical model, as kappa/mu and beta rho.  On top of
the fine discretization it builds generalized multiscale coarse pressure
spaces: per-coarse-element snapshot solves, spectral (offline) bases,
residual-selected offline updates with the Forchheimer-corrected
coefficient, and residual-driven online enrichment under a four-color
schedule.  :mod:`msforch.cli` wraps the
library in a batch driver for error and iteration studies.  The names
imported below are the package's public API.
"""

from .errors import (
    AssemblyError,
    ConfigurationError,
    DegenerateElementError,
    SingularSystemError,
)
from .fields import (
    SYNTHETIC_KINDS,
    ScalarCellField,
    forchheimer_coeff,
    gen_synthetic,
    load_raster,
    save_raster,
)
from .grid import (
    CoarseGrid,
    FineGrid,
    build_coarse_grid,
    build_fine_grid,
    subgrid,
)
from .mfmfe import (
    BoundarySpec,
    VertexBlockMatrix,
    all_dirichlet_spec,
    assemble_divergence,
    assemble_rhs,
    assemble_velocity_matrix,
    corner_velocities,
    five_spot,
    left_right_spec,
    no_flow_spec,
    quadrature_norm_matrix,
)
from .solve import (
    FlowSolution,
    LinearizedSystem,
    NonlinearConfig,
    cell_divergence,
    nonlinear_solve,
    schur_solve,
    velocity_error_norm,
)
from .offline import (
    ReductionMap,
    SpectralSpace,
    assemble_reduction,
    build_offline_space,
    build_snapshots,
    conservation_residuals,
    load_triplets,
    save_triplets,
    select_by_fraction,
    solve_offline,
    spectral_decompose,
    update_offline,
)
from .online import (
    VARIANTS,
    EnrichmentState,
    HistoryRow,
    color_classes,
    detect_plateau,
    enrich_adaptive,
    enrich_uniform,
    error_metrics,
    init_enrichment,
    ms_solve,
    online_basis,
    online_residuals,
    sweep_final_errors,
)

__version__ = "0.1.0"

