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
sweep by the xi-fraction residual rule, then intersected with each color).

Two coefficient variants: 'updating' re-linearizes mu/kappa + beta rho |u|
at the current multiscale velocity before every local solve and reduced
solve; 'fixed_offline' freezes the coefficient at the initial offline
velocity, which is cheaper but stalls at a positive error plateau.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystemError
from .fields import ScalarCellField
from .grid import CoarseGrid, FineGrid
from .local import LocalShapes
from .mfmfe import (
    BoundarySpec,
    assemble_velocity_matrix,
    corner_velocities,
    quadrature_norm_matrix,
)
from .offline import ReductionMap, conservation_residuals, select_by_fraction
from .solve import (
    FlowSolution,
    LinearizedSystem,
    NonlinearConfig,
    cell_divergence,
    nonlinear_solve,
    velocity_error_norm,
)

VARIANTS = ("updating", "fixed_offline")


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
    mu: float = 1.0
    rho: float = 1.0
    solution: FlowSolution | None = None
    level: int = 0                      # completed color sub-iterations
    history: list = field(default_factory=list)
    # caches refreshed whenever the solution changes
    _system: LinearizedSystem | None = None
    _shapes: LocalShapes | None = None  # per-shape data of the online local problems
    _defect: np.ndarray | None = None   # f - div(u) per fine cell
    _coeff: np.ndarray | None = None    # corner coefficient of the current linearization
    _fixed_A = None                     # velocity matrix at the offline speed
    _fixed_speed = None                 # |u_off| per (cell, corner), captured once
    _norm_M = None
    _ref_p_norm: float = 0.0
    _ref_u_norm: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        self._system = LinearizedSystem(self.fine, self.f_cells, self.bc)
        self._shapes = LocalShapes(self.coarse)
        self._norm_M = quadrature_norm_matrix(self.fine, self._system.geometry)
        self._ref_p_norm = np.sqrt(
            (self.reference.pressure**2 * self.fine.cell_areas).sum()
        )
        self._ref_u_norm = velocity_error_norm(self._norm_M, self.reference.velocity)
        if self._ref_p_norm == 0.0 or self._ref_u_norm == 0.0:
            raise ValueError("reference solution has zero norm; relative errors undefined")

    @property
    def dim(self) -> int:
        return self.rmap.n_columns

    def set_solution(self, sol: FlowSolution) -> None:
        self.solution = sol
        self._defect = self.f_cells - cell_divergence(self.fine, self._system.B, sol.velocity)
        speed = corner_velocities(self.fine, sol.velocity)[1]
        if self.variant == "fixed_offline":
            if self._fixed_speed is None:
                self._fixed_speed = speed
            speed = self._fixed_speed
        # Shared by the local solves of a colour class and the reduced solve
        # after it.
        darcy = (self.mu / self.kappa.values)[:, None]
        brho = (self.beta.values * self.rho)[:, None]
        self._coeff = darcy + brho * speed

    def velocity_matrix(self):
        geometry = self._system.geometry
        if self.variant == "fixed_offline":
            if self._fixed_A is None:
                self._fixed_A = assemble_velocity_matrix(self.fine, self._coeff,
                                                         geometry=geometry)
            return self._fixed_A
        return assemble_velocity_matrix(self.fine, self._coeff, geometry=geometry)

    def errors(self) -> tuple:
        """(Erp, Eru) of the current solution against the fine reference."""
        return error_metrics(
            self.fine,
            self.solution,
            self.reference,
            norm_matrix=self._norm_M,
            p_norm=self._ref_p_norm,
            u_norm=self._ref_u_norm,
        )


def error_metrics(
    fine: FineGrid,
    sol: FlowSolution,
    ref: FlowSolution,
    norm_matrix=None,
    p_norm: float | None = None,
    u_norm: float | None = None,
) -> tuple:
    """Relative L2 pressure error and quadrature-norm velocity error."""
    M = quadrature_norm_matrix(fine) if norm_matrix is None else norm_matrix
    den_p = np.sqrt((ref.pressure**2 * fine.cell_areas).sum()) if p_norm is None else p_norm
    den_u = velocity_error_norm(M, ref.velocity) if u_norm is None else u_norm
    if den_p == 0.0 or den_u == 0.0:
        raise ValueError("reference solution has zero norm; relative errors undefined")
    erp = np.sqrt((((sol.pressure - ref.pressure) ** 2) * fine.cell_areas).sum()) / den_p
    eru = velocity_error_norm(M, sol.velocity - ref.velocity) / den_u
    return float(erp), float(eru)


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
    mu: float = 1.0,
    rho: float = 1.0,
) -> EnrichmentState:
    """Set up an enrichment run starting from a converged offline solution."""
    state = EnrichmentState(
        fine=fine, coarse=coarse, kappa=kappa, beta=beta, bc=bc,
        f_cells=np.asarray(f_cells, dtype=float), rmap=rmap.copy(), cfg=cfg,
        reference=reference, variant=variant, mu=mu, rho=rho,
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
    shape, cells, dofs = state._shapes.online(i)
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
    A = assemble_velocity_matrix(shape.grid, state._coeff[cells], geometry=shape.geometry)
    try:
        phi = shape.operator.dense_pressure(A, -(r * areas)[keep])
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
    U, P_fine, Pr = sys_.solve(A, sys_.G0, state.cfg, R=state.rmap.matrix.tocsr())
    sol = FlowSolution(
        pressure=P_fine, velocity=U, iterations=1, converged=True,
        history=np.zeros((0, 2)), coefficients=Pr,
    )
    state.set_solution(sol)
    return sol


def online_residuals(state: EnrichmentState) -> np.ndarray:
    """Per coarse element conservation residual of the current solution."""
    return conservation_residuals(
        state.fine, state.coarse, state.solution.velocity, state.f_cells, B=state._system.B
    )


def _log_subiteration(state: EnrichmentState, sweep: int, subiter: int, n_added: int) -> None:
    erp, eru = state.errors()
    state.level += 1
    state.history.append(
        HistoryRow(
            level=sweep, subiter=subiter, dim_Wms=state.dim, n_added=n_added,
            Erp=erp, Eru=eru, total_residual=float(online_residuals(state).sum()),
        )
    )


def _enrich_class(state: EnrichmentState, elements) -> int:
    """Append accepted candidate bases for the given elements; returns count."""
    accepted = 0
    for i in elements:
        cand = online_basis(state, int(i))
        if cand is None:
            continue
        cells, values = cand
        state.rmap.append_column(int(i), cells, values, provenance="online")
        accepted += 1
    return accepted


def enrich_uniform(state: EnrichmentState, sweeps: int) -> EnrichmentState:
    """Enrich every coarse element once per color, re-solving after each color."""
    classes = color_classes(state.coarse)
    start = state.history[-1].level if state.history else 0
    for sweep in range(start + 1, start + sweeps + 1):
        for c, cls in enumerate(classes):
            n_added = _enrich_class(state, cls)
            ms_solve(state)
            _log_subiteration(state, sweep, c + 1, n_added)
    return state


def enrich_adaptive(state: EnrichmentState, xi: float, sweeps: int) -> EnrichmentState:
    """Enrich only the xi-fraction residual prefix, selected once per sweep."""
    if not (0 < xi < 1):
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    classes = color_classes(state.coarse)
    start = state.history[-1].level if state.history else 0
    for sweep in range(start + 1, start + sweeps + 1):
        selected = set(select_by_fraction(online_residuals(state), xi).tolist())
        for c, cls in enumerate(classes):
            todo = np.array(sorted(selected.intersection(cls.tolist())), dtype=int)
            if todo.size == 0:
                continue
            n_added = _enrich_class(state, todo)
            ms_solve(state)
            _log_subiteration(state, sweep, c + 1, n_added)
    return state


def sweep_final_errors(state: EnrichmentState) -> np.ndarray:
    """Eru at the end of each completed sweep (last sub-iteration per level)."""
    out = {}
    for row in state.history:
        out[row.level] = row.Eru
    return np.array([out[k] for k in sorted(out)])


def detect_plateau(eru_per_sweep: np.ndarray, rel_change: float = 0.01):
    """First sweep (1-based) whose Eru changed by less than rel_change; None if it never does.

    The stagnation criterion of the fixed-coefficient variant: enrichment
    keeps lowering the error until the frozen linearization dominates.
    """
    e = np.asarray(eru_per_sweep, dtype=float)
    for k in range(1, len(e)):
        if abs(e[k] - e[k - 1]) < rel_change * max(abs(e[k - 1]), 1e-300):
            return k + 1
    return None


def solve_enriched(state: EnrichmentState, cfg: NonlinearConfig | None = None) -> FlowSolution:
    """Full nonlinear solve in the enriched space, for end-of-run reporting."""
    cfg = state.cfg if cfg is None else cfg
    return nonlinear_solve(
        state.fine, state.kappa, state.beta, state.bc, state.f_cells, cfg,
        mu=state.mu, rho=state.rho, R=state.rmap.matrix.tocsr(),
    )
