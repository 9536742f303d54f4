"""Residual-driven online enrichment of the coarse pressure space.

Each enrichment step solves, on a coarse element grown by one fine-cell
layer (T+), a local problem driven by the conservation defect f - div(u_ms)
of the current multiscale solution: zero normal flux on the whole boundary
of T+ and pressure pinned to zero on the outermost fine-cell ring of T+,
which pins the otherwise-free constant and keeps the local problem
nonsingular without altering the source.  The local pressure, restricted to
the element and orthogonalized against the element's existing basis
columns, joins the reduction map; near-dependent candidates are rejected so
the map keeps full column rank.

Elements are processed in a four-color schedule (parity of the coarse
indices), one reduced linearized solve after each color: either uniformly
(every element, every color) or adaptively (elements selected once per
sweep by the xi-fraction residual rule, then intersected with each color;
colors left without a selected element are skipped).  Both schedules run
through one sweep loop.

Two coefficient variants: 'updating' re-linearizes 1/kappa + beta |u|
at the current multiscale velocity before every local solve and reduced
solve; 'fixed_offline' freezes the coefficient at the initial offline
velocity, which is cheaper but stalls at a positive error plateau.

:class:`EnrichmentState` keeps only what the schedule reads and derives each
quantity once.  Per solution: the cell defect f - div(u), which feeds both
the local problems and the per-element residuals, and (for 'updating') the
corner coefficient with its fine velocity matrix; 'fixed_offline' computes
those two once.  Per run: the reference norms of the relative errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystemError
from .fields import ScalarCellField
from .grid import CoarseGrid, FineGrid
from .local import online_shape
from .mfmfe import (
    BoundarySpec,
    assemble_velocity_matrix,
    corner_coefficient,
    corner_velocities,
    quadrature_norm_matrix,
)
from .offline import ReductionMap, element_residuals, select_by_fraction
from .solve import (
    FlowSolution,
    LinearizedSystem,
    NonlinearConfig,
    cell_divergence,
    velocity_error_norm,
)

VARIANTS = ("updating", "fixed_offline")
PLATEAU_CHANGE = 0.01   # relative Eru change per sweep below which enrichment has stalled


@dataclass
class HistoryRow:
    """One color sub-iteration of an enrichment run."""

    level: int            # sweep number, 1-based
    subiter: int          # color class within the sweep, 1..4
    dim_Wms: int          # pressure-space dimension after appending
    n_added: int          # accepted basis functions this sub-iteration
    Erp: float            # relative pressure error of the new solution
    Eru: float            # relative velocity error of the new solution
    total_residual: float


@dataclass
class EnrichmentState:
    """Mutable record of an online enrichment run."""

    fine: FineGrid
    coarse: CoarseGrid
    kappa: ScalarCellField
    beta: ScalarCellField
    bc: BoundarySpec
    f_cells: np.ndarray
    rmap: ReductionMap
    cfg: NonlinearConfig
    reference: FlowSolution
    variant: str = "updating"
    solution: FlowSolution | None = None
    history: list = field(default_factory=list)
    # derived once per run (_system, _norms) or per solution
    _system: LinearizedSystem | None = None
    _defect: np.ndarray | None = None   # f - div(u) per fine cell
    _coeff: np.ndarray | None = None    # corner coefficient; the first solution's if fixed
    _A = None                           # fine velocity matrix of _coeff, assembled on use
    _norms: tuple = ()                  # reference norms, see _reference_norms

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        self._system = LinearizedSystem(self.fine, self.f_cells, self.bc)
        self._norms = _reference_norms(self.fine, self.reference)

    @property
    def dim(self) -> int:
        return self.rmap.n_columns

    def set_solution(self, sol: FlowSolution) -> None:
        self.solution = sol
        self._defect = self.f_cells - cell_divergence(self.fine, self._system.B, sol.velocity)
        if self.variant == "updating" or self._coeff is None:
            # Shared by the local solves of a colour class and the reduced
            # solve after it.
            speed = corner_velocities(self.fine, sol.velocity)[1]
            self._coeff = corner_coefficient(self.kappa.values, self.beta.values, speed)
            self._A = None

    def velocity_matrix(self):
        if self._A is None:
            self._A = assemble_velocity_matrix(self.fine, self._coeff)
        return self._A

    def errors(self) -> tuple:
        """(Erp, Eru) of the current solution against the fine reference."""
        return _relative_errors(self.fine, self.solution, self.reference, self._norms)


def _reference_norms(fine: FineGrid, ref: FlowSolution) -> tuple:
    """(quadrature norm matrix, L2 pressure norm, velocity norm) of a reference."""
    M = quadrature_norm_matrix(fine)
    p_norm = np.sqrt((ref.pressure**2 * fine.cell_areas).sum())
    u_norm = velocity_error_norm(M, ref.velocity)
    if p_norm == 0.0 or u_norm == 0.0:
        raise ValueError("reference solution has zero norm; relative errors undefined")
    return M, p_norm, u_norm


def _relative_errors(fine: FineGrid, sol: FlowSolution, ref: FlowSolution, norms: tuple) -> tuple:
    M, p_norm, u_norm = norms
    erp = np.sqrt((((sol.pressure - ref.pressure) ** 2) * fine.cell_areas).sum()) / p_norm
    eru = velocity_error_norm(M, sol.velocity - ref.velocity) / u_norm
    return float(erp), float(eru)


def error_metrics(fine: FineGrid, sol: FlowSolution, ref: FlowSolution) -> tuple:
    """Relative L2 pressure error and quadrature-norm velocity error."""
    return _relative_errors(fine, sol, ref, _reference_norms(fine, ref))


def init_enrichment(
    fine: FineGrid,
    coarse: CoarseGrid,
    kappa: ScalarCellField,
    beta: ScalarCellField,
    bc: BoundarySpec,
    f_cells: np.ndarray,
    rmap: ReductionMap,
    cfg: NonlinearConfig,
    reference: FlowSolution,
    offline_solution: FlowSolution,
    variant: str = "updating",
) -> EnrichmentState:
    """Set up an enrichment run starting from a converged offline solution."""
    state = EnrichmentState(
        fine=fine, coarse=coarse, kappa=kappa, beta=beta, bc=bc,
        f_cells=np.asarray(f_cells, dtype=float), rmap=rmap.copy(), cfg=cfg,
        reference=reference, variant=variant,
    )
    state.set_solution(offline_solution)
    return state


def color_classes(coarse: CoarseGrid) -> list:
    """Partition coarse elements into the four index-parity classes.

    Class 1 holds the elements with both coarse indices odd in 1-based
    counting (even in 0-based), then (odd, even), (even, odd), (even, even).
    """
    classes = [[], [], [], []]
    for i in range(coarse.n_elements):
        ix, iy = i % coarse.Nx, i // coarse.Nx
        classes[2 * (ix % 2) + (iy % 2)].append(i)
    return [np.array(c, dtype=int) for c in classes]


def online_basis(state: EnrichmentState, i: int):
    """Candidate basis column for coarse element i, or None if rejected.

    Returns (cells, values) with values unit-L2 on the element and
    orthogonal to the element's existing columns.
    """
    fine = state.fine
    shape, cells, dofs = online_shape(state.coarse, i)
    areas = fine.cell_areas[cells]

    # Conservation defect of the current solution on T+.  No zero-mean shift:
    # pinning the outer-ring pressure makes the local problem nonsingular, and
    # shifting the source visibly degrades the enrichment (the uniform part of
    # the defect is genuinely carried by flux into the pinned ring).
    r = state._defect[cells]
    f_loc = state.f_cells[cells]
    div_loc = f_loc - r
    scale = np.sqrt((f_loc**2 * areas).sum()) + np.sqrt((div_loc**2 * areas).sum())
    # With f = 0 and a (numerically) exact solution, ||div u|| IS the defect,
    # so the relative test alone cannot recognize roundoff; floor it at the
    # divergence noise of the current velocity, which scales like eps |u| / h.
    u_loc = state.solution.velocity[dofs]
    h_min = float(shape.grid.edge_lengths.min())
    noise = 1e-13 * float(np.abs(u_loc).max(initial=0.0)) / h_min * np.sqrt(areas.sum())
    if np.sqrt((r**2 * areas).sum()) <= max(1e-12 * scale, noise, 1e-300):
        return None

    # Zero normal flux on the whole boundary of T+, and the pressure pinned
    # on the added layer T+ \ T, which both fixes the constant mode of the
    # all-Neumann problem and confines the basis to patterns supported by the
    # element itself.  (At domain boundaries the layer is clipped, so the
    # pinned set is whatever of it remains.)  The shape's operator solves for
    # the pressure on the element's cells, in the element's cell order.
    keep = shape.element_cells
    if keep.size == shape.grid.n_cells:
        return None
    A = assemble_velocity_matrix(shape.grid, state._coeff[cells])
    try:
        phi = shape.operator.solve(A, np.zeros(shape.grid.n_dofs), -(r * areas)[keep])[1]
    except SingularSystemError as exc:
        raise SingularSystemError(f"online problem on element {i}: {exc}") from exc

    # Orthogonalize against the element's existing columns.
    cells_T = state.coarse.coarse_elements[i]
    w = fine.cell_areas[cells_T]
    pre = np.sqrt((phi**2 * w).sum())
    if pre == 0.0:
        return None
    for j in state.rmap.columns_of(i):
        col = state.rmap.columns[j][2]
        phi = phi - ((phi * col * w).sum()) * col
    post = np.sqrt((phi**2 * w).sum())
    if post <= 1e-10 * pre:
        return None
    return cells_T, phi / post


def ms_solve(state: EnrichmentState) -> FlowSolution:
    """One linearized solve in the current reduced space (no nonlinear loop)."""
    A = state.velocity_matrix()
    sys_ = state._system
    U, P = sys_.solve(A, sys_.G0, state.rmap.matrix)
    sol = FlowSolution(
        pressure=P, velocity=U, iterations=1, converged=True, history=np.zeros((0, 2)),
    )
    state.set_solution(sol)
    return sol


def online_residuals(state: EnrichmentState) -> np.ndarray:
    """Per coarse element conservation residual of the current solution."""
    return element_residuals(state.fine, state.coarse, state._defect)


def _sweeps(state: EnrichmentState, sweeps: int, xi: float | None) -> EnrichmentState:
    """Colour sweeps over every element, or over the xi-fraction residual
    prefix selected once per sweep, re-solving and logging after each colour."""
    classes = list(enumerate(color_classes(state.coarse), 1))
    start = state.history[-1].level if state.history else 0
    for sweep in range(start + 1, start + sweeps + 1):
        todo = classes
        if xi is not None:
            selected = select_by_fraction(online_residuals(state), xi)
            todo = [(c, cls[np.isin(cls, selected)]) for c, cls in classes]
            todo = [(c, cls) for c, cls in todo if cls.size]   # skip emptied colours
        for subiter, elements in todo:
            n_added = 0
            for i in elements:
                cand = online_basis(state, int(i))
                if cand is not None:
                    state.rmap.append_column(int(i), *cand)
                    n_added += 1
            ms_solve(state)
            erp, eru = state.errors()
            state.history.append(HistoryRow(
                level=sweep, subiter=subiter, dim_Wms=state.dim, n_added=n_added,
                Erp=erp, Eru=eru, total_residual=float(online_residuals(state).sum()),
            ))
    return state


def enrich_uniform(state: EnrichmentState, sweeps: int) -> EnrichmentState:
    """Enrich every coarse element once per color, re-solving after each color."""
    return _sweeps(state, sweeps, None)


def enrich_adaptive(state: EnrichmentState, xi: float, sweeps: int) -> EnrichmentState:
    """Enrich only the xi-fraction residual prefix, selected once per sweep."""
    if not (0 < xi < 1):
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    return _sweeps(state, sweeps, xi)


def sweep_final_errors(state: EnrichmentState) -> np.ndarray:
    """Eru at the end of each completed sweep (last sub-iteration per level)."""
    out = {}
    for row in state.history:
        out[row.level] = row.Eru
    return np.array([out[k] for k in sorted(out)])


def detect_plateau(eru_per_sweep: np.ndarray):
    """First sweep (1-based) whose Eru changed by less than PLATEAU_CHANGE
    relative to the sweep before; None if it never does.

    The stagnation criterion of the fixed-coefficient variant: enrichment
    keeps lowering the error until the frozen linearization dominates.
    """
    e = np.asarray(eru_per_sweep, dtype=float)
    for k in range(1, len(e)):
        if abs(e[k] - e[k - 1]) < PLATEAU_CHANGE * max(abs(e[k - 1]), 1e-300):
            return k + 1
    return None

