"""Coarse pressure spaces from local snapshot problems and spectral truncation.

Per coarse element T_i, one snapshot is computed for every fine edge of its
boundary: a local Darcy solve with zero source whose Dirichlet pressure datum
is the indicator of that edge.  Superposition of all snapshots gives the
constant-pressure / zero-velocity state, so the snapshot span always contains
constants.

The snapshots are compressed by the generalized eigenproblem

    A^i Phi = lambda S^i Phi,
    A^i[r, l] = (mu/kappa psi_r, psi_l)_Q on T_i,
    S^i[r, l] = (phi_r, phi_l) on T_i,

keeping the eigenvectors of the smallest eigenvalues.  The zero eigenvalue
always exists (constant pressure carries no velocity) and its eigenvector is
the constant mode.  Eigenvectors are S-orthonormal, which makes the resulting
pressure basis L2-orthonormal on the element; signs are fixed so the largest
entry is positive, and eigenvalues are sorted ascending, so column order is
deterministic.  Stacking each element's selected basis columns yields the
global reduction map R used by the reduced Schur solves.

Residual-driven updating: after a nonlinear solve in the reduced space, the
cell-conservation defect R_i = int_{T_i} |f - div u|^2 ranks the coarse
elements; the smallest set whose residuals reach a fraction theta of the
total is re-snapshotted with the solution-dependent coefficient
mu/kappa + beta rho |u| and re-decomposed, replacing those elements' columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import SingularSystemError
from .fields import ScalarCellField
from .grid import CoarseGrid, FineGrid
from .local import LocalShapes
from .mfmfe import (
    BoundarySpec,
    assemble_divergence,
    assemble_velocity_matrix,
    corner_velocities,
)
from .solve import FlowSolution, NonlinearConfig, cell_divergence, nonlinear_solve


@dataclass
class SpectralSpace:
    """Snapshots of one coarse element and their spectral compression."""

    element: int
    cells: np.ndarray            # global fine cells of T_i
    dofs: np.ndarray             # global velocity DOFs of the T_i subgrid
    snapshots_p: np.ndarray      # (n_local_cells, J) pressures on T_i
    snapshots_u: np.ndarray      # (n_local_dofs, J) velocities on T_i
    gram_a: np.ndarray           # (J, J) velocity energy Gram matrix
    gram_s: np.ndarray           # (J, J) pressure L2 Gram matrix
    null_energy: float = 0.0     # velocity energy of the summed snapshots
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    n_selected: int = 0
    rank_deficient: bool = False

    @property
    def n_snapshots(self) -> int:
        return self.snapshots_p.shape[1]

    def basis(self, m: int | None = None) -> np.ndarray:
        """Pressure basis columns on the element's cells (L2-orthonormal)."""
        if self.eigenvectors is None:
            raise ValueError("spectral decomposition has not been run")
        m = self.n_selected if m is None else m
        return self.snapshots_p @ self.eigenvectors[:, :m]


def build_snapshots(
    fine: FineGrid,
    coarse: CoarseGrid,
    i: int,
    coeff,
    gram_coeff=None,
    shapes: LocalShapes | None = None,
) -> SpectralSpace:
    """Snapshot space of coarse element i.

    ``coeff`` is the coefficient of the local solves, per global cell or per
    (cell, corner); ``gram_coeff`` (default: same) is the coefficient of the
    velocity energy Gram matrix used by the spectral problem.  Pass the
    coarse grid's ``shapes`` to reuse the per-shape local data across
    elements; by default it is built for this call.
    """
    return _snapshots(fine, coarse, i, coeff, gram_coeff, 0, shapes)


def build_snapshots_oversampled(
    fine: FineGrid,
    coarse: CoarseGrid,
    i: int,
    coeff,
    layers: int = 1,
    gram_coeff=None,
    shapes: LocalShapes | None = None,
) -> SpectralSpace:
    """Snapshots computed on the oversampled block and restricted to T_i."""
    if layers < 1:
        raise ValueError("oversampling needs at least one layer")
    return _snapshots(fine, coarse, i, coeff, gram_coeff, layers, shapes)


def _snapshots(fine, coarse, i, coeff, gram_coeff, layers, shapes) -> SpectralSpace:
    """One local Darcy-type solve per boundary-data column of element i's
    block grown by ``layers``, restricted to the element, with its Grams."""
    shapes = LocalShapes(coarse) if shapes is None else shapes
    shape, cells, dofs = shapes.snapshot(i, layers)
    A = assemble_velocity_matrix(shape.grid, np.asarray(coeff)[cells], geometry=shape.geometry)
    U, P = shape.operator.solve_dense(A, shape.data)
    if layers:
        P, U = P[shape.element_cells], U[shape.element_dofs]
        shape, cells, dofs = shapes.snapshot(i)
    gram_coeff = np.asarray(coeff if gram_coeff is None else gram_coeff)
    M = assemble_velocity_matrix(shape.grid, gram_coeff[cells], geometry=shape.geometry)
    return SpectralSpace(
        element=i,
        cells=cells,
        dofs=dofs,
        snapshots_p=P,
        snapshots_u=U,
        gram_a=M.gram(U),
        gram_s=(P * fine.cell_areas[cells][:, None]).T @ P,
        # Energy of the summed snapshots, formed on the velocity vector itself:
        # evaluating 1' gram_a 1 instead would cancel catastrophically because
        # the individual snapshot energies dwarf the sum's.
        null_energy=float(M.gram(U.sum(axis=1, keepdims=True))[0, 0]),
    )


def spectral_decompose(space: SpectralSpace, m_off: int) -> SpectralSpace:
    """Solve the generalized eigenproblem and select the m_off smallest modes.

    Distinct boundary data can induce (numerically) identical pressure
    responses — e.g. pure circulation patterns with zero pressure — which
    makes the pressure Gram matrix S rank-deficient and a direct generalized
    eigensolve unreliable.  The eigenproblem is therefore restricted to the
    S-positive subspace: modes of S below 1e-12 of its largest eigenvalue
    carry no pressure content and are dropped before solving.  The returned
    eigenvectors are S-orthonormal, so the pressure basis is L2-orthonormal
    on the element; signs are fixed so the largest-magnitude entry of each
    eigenvector is positive.
    """
    J = space.n_snapshots
    A = 0.5 * (space.gram_a + space.gram_a.T)
    S = 0.5 * (space.gram_s + space.gram_s.T)

    # The summed boundary data is the constant 1 on the whole element
    # boundary, whose response is a constant pressure with zero velocity, so
    # the all-ones coefficient vector is an exact zero mode of the pencil.
    # Deflating it explicitly keeps the leading eigenpair at roundoff even
    # when high-contrast coefficients inflate the eigensolver's absolute
    # error; guard the assumption in case the snapshots were produced by
    # some other boundary data family.
    phi_sum = space.snapshots_p.sum(axis=1)
    level = abs(phi_sum).max()
    deflate = level > 0 and np.ptp(phi_sum) <= 1e-8 * level
    if deflate:
        ones = np.ones(J)
        s_mass = ones @ S @ ones
        v0 = ones / np.sqrt(s_mass)
        lam0 = space.null_energy / s_mass
        proj = np.eye(J) - np.outer(v0, S @ v0)
        A_work = proj.T @ A @ proj
        S_work = proj.T @ S @ proj
    else:
        proj = None
        A_work, S_work = A, S

    s, Q = la.eigh(0.5 * (S_work + S_work.T))
    keep = s > 1e-12 * max(s.max(), 0.0)
    sub_rank = int(keep.sum())
    rank = sub_rank + (1 if deflate else 0)
    if rank == 0:
        raise SingularSystemError(f"element {space.element}: all snapshots have zero pressure")
    if not (1 <= m_off <= rank):
        raise ValueError(
            f"element {space.element}: m_off must be in 1..{rank} "
            f"(pressure rank of {J} snapshots), got {m_off}"
        )
    W = Q[:, keep] / np.sqrt(s[keep])
    w, Vt = la.eigh(0.5 * (W.T @ A_work @ W + (W.T @ A_work @ W).T))
    V = W @ Vt
    if proj is not None:
        # The working eigenvectors live in deflated coordinates; pull them
        # back through the projector so they are S-orthogonal to the constant
        # mode (and S-orthonormal among themselves) in the original grams.
        V = proj @ V
    # Rayleigh-quotient refinement in the original Gram matrices: the
    # eigensolver's absolute error scales with ||A||, which buries small
    # eigenvalues of high-contrast elements; the quotient restores them.
    num = np.einsum("jk,jl,lk->k", V, A, V)
    den = np.einsum("jk,jl,lk->k", V, S, V)
    w = num / den
    if deflate:
        V = np.column_stack([v0, V])
        w = np.concatenate([[lam0], w])
    idx = np.argmax(np.abs(V), axis=0)
    flip = V[idx, np.arange(rank)] < 0
    V[:, flip] *= -1.0
    space.eigenvalues = w
    space.eigenvectors = V
    space.n_selected = m_off
    space.rank_deficient = rank < J
    return space


@dataclass
class ReductionMap:
    """Sparse map from coarse pressure coefficients to fine cell pressures.

    Columns are grouped per coarse element (element-major, eigenvalue-minor
    for offline columns; online columns append at the end).  ``provenance``
    tracks the origin of each column: 'offline', 'updated' or 'online'.
    Change columns through the methods, which keep the cached matrix and the
    per-element column index current.
    """

    n_cells: int
    columns: list              # per column: (element id, cells, values)
    provenance: list
    _matrix: sp.csr_matrix | None = field(default=None, init=False, repr=False, compare=False)
    _by_element: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for j, c in enumerate(self.columns):
            self._by_element.setdefault(c[0], []).append(j)

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None or self._matrix.shape[1] != self.n_columns:
            rows = np.concatenate([c[1] for c in self.columns])
            cols = np.concatenate(
                [np.full(len(c[1]), j) for j, c in enumerate(self.columns)]
            )
            data = np.concatenate([c[2] for c in self.columns])
            self._matrix = sp.csr_matrix((data, (rows, cols)),
                                         shape=(self.n_cells, self.n_columns))
        return self._matrix

    def columns_of(self, element: int) -> np.ndarray:
        return np.array(self._by_element.get(element, []), dtype=int)

    def element_of(self) -> np.ndarray:
        return np.array([c[0] for c in self.columns], dtype=int)

    def append_column(self, element: int, cells: np.ndarray, values: np.ndarray,
                      provenance: str = "online") -> None:
        self._by_element.setdefault(element, []).append(len(self.columns))
        self.columns.append((element, np.asarray(cells, dtype=int), np.asarray(values, dtype=float)))
        self.provenance.append(provenance)
        self._matrix = None

    def replace_element_columns(self, element: int, basis: np.ndarray,
                                cells: np.ndarray, provenance: str = "updated") -> None:
        ids = self.columns_of(element)
        if len(ids) != basis.shape[1]:
            raise ValueError(
                f"element {element} holds {len(ids)} columns, replacement has {basis.shape[1]}"
            )
        for k, j in enumerate(ids):
            self.columns[j] = (element, np.asarray(cells, dtype=int), basis[:, k].copy())
            self.provenance[j] = provenance
        self._matrix = None

    def copy(self) -> "ReductionMap":
        return ReductionMap(self.n_cells, list(self.columns), list(self.provenance))


def assemble_reduction(fine: FineGrid, spaces: list, m_off) -> ReductionMap:
    """Stack per-element spectral bases into the global reduction map.

    ``m_off`` is a single basis count or one per coarse element.
    """
    counts = np.broadcast_to(np.asarray(m_off, dtype=int), (len(spaces),))
    rmap = ReductionMap(fine.n_cells, [], [])
    for space, m in zip(spaces, counts):
        basis = space.basis(int(m))
        for k in range(basis.shape[1]):
            rmap.append_column(space.element, space.cells, basis[:, k], provenance="offline")
    return rmap


def build_offline_space(
    fine: FineGrid,
    coarse: CoarseGrid,
    kappa: ScalarCellField,
    m_off: int,
    mu: float = 1.0,
    oversample_layers: int = 0,
) -> tuple:
    """Snapshot + decompose every coarse element; returns (spaces, ReductionMap)."""
    coeff = mu / kappa.values
    shapes = LocalShapes(coarse)
    spaces = []
    for i in range(coarse.n_elements):
        if oversample_layers > 0:
            space = build_snapshots_oversampled(fine, coarse, i, coeff, oversample_layers,
                                                shapes=shapes)
        else:
            space = build_snapshots(fine, coarse, i, coeff, shapes=shapes)
        spaces.append(spectral_decompose(space, m_off))
    return spaces, assemble_reduction(fine, spaces, m_off)


def solve_offline(
    fine: FineGrid,
    kappa: ScalarCellField,
    beta: ScalarCellField,
    bc: BoundarySpec,
    f_cells: np.ndarray,
    rmap: ReductionMap,
    cfg: NonlinearConfig,
    mu: float = 1.0,
    rho: float = 1.0,
) -> FlowSolution:
    """Nonlinear solve with pressure constrained to the offline space."""
    return nonlinear_solve(
        fine, kappa, beta, bc, f_cells, cfg, mu=mu, rho=rho, R=rmap.matrix.tocsr()
    )


def conservation_residuals(
    fine: FineGrid,
    coarse: CoarseGrid,
    velocity: np.ndarray,
    f_cells: np.ndarray,
    B: sp.spmatrix | None = None,
) -> np.ndarray:
    """Per coarse element: int_{T_i} |f - div u|^2 dx (cellwise exact)."""
    B = assemble_divergence(fine) if B is None else B
    defect = np.asarray(f_cells) - cell_divergence(fine, B, velocity)
    weighted = defect**2 * fine.cell_areas
    return np.array([weighted[cells].sum() for cells in coarse.coarse_elements])


def select_by_fraction(residuals: np.ndarray, theta: float) -> np.ndarray:
    """Smallest set of elements (by descending residual) reaching theta of the total.

    Ties break toward the lower element id; an all-zero residual selects nothing.
    """
    if not (0 < theta <= 1):
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    residuals = np.asarray(residuals, dtype=float)
    if np.any(residuals < 0):
        raise ValueError("residuals must be non-negative")
    total = residuals.sum()
    if total == 0:
        return np.empty(0, dtype=int)
    order = np.argsort(-residuals, kind="stable")
    csum = np.cumsum(residuals[order])
    n_sel = int(np.searchsorted(csum, theta * total - 1e-15 * total) + 1)
    return np.sort(order[:n_sel])


def update_offline(
    fine: FineGrid,
    coarse: CoarseGrid,
    rmap: ReductionMap,
    spaces: list,
    velocity: np.ndarray,
    selected: np.ndarray,
    kappa: ScalarCellField,
    beta: ScalarCellField,
    mu: float = 1.0,
    rho: float = 1.0,
) -> tuple:
    """Re-snapshot the selected elements with the solution-dependent coefficient.

    The local problems use mu/kappa + beta rho |u| at element corners; the
    spectral problem keeps the Darcy-weighted velocity Gram matrix.  Returns
    (new ReductionMap, new spaces list); each element's column count is kept.
    """
    _, speed = corner_velocities(fine, velocity)
    coeff = (mu / kappa.values)[:, None] + (beta.values * rho)[:, None] * speed
    darcy = mu / kappa.values
    new_map = rmap.copy()
    new_spaces = list(spaces)
    shapes = LocalShapes(coarse)
    for i in np.asarray(selected, dtype=int):
        m_i = len(rmap.columns_of(int(i)))
        space = build_snapshots(fine, coarse, int(i), coeff, gram_coeff=darcy, shapes=shapes)
        space = spectral_decompose(space, m_i)
        new_spaces[int(i)] = space
        new_map.replace_element_columns(int(i), space.basis(m_i), space.cells)
    return new_map, new_spaces


def save_triplets(rmap: ReductionMap, path) -> None:
    """Write the reduction map as 'row col value' triplets with a size header."""
    mat = rmap.matrix.tocoo()
    order = np.lexsort((mat.col, mat.row))
    with open(path, "w") as fh:
        fh.write(f"# rows cols nnz\n{mat.shape[0]} {mat.shape[1]} {mat.nnz}\n")
        for r, c, v in zip(mat.row[order], mat.col[order], mat.data[order]):
            fh.write(f"{r} {c} {format(v, '.17g')}\n")


def load_triplets(path) -> sp.csr_matrix:
    """Read a triplet file written by :func:`save_triplets`."""
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    rows_, cols_, nnz_ = (int(t) for t in lines[0].split())
    if len(lines) - 1 != nnz_:
        raise ValueError(f"triplet file {path} promises {nnz_} entries, has {len(lines) - 1}")
    data = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    if data.size == 0:
        return sp.csr_matrix((rows_, cols_))
    return sp.csr_matrix(
        (data[:, 2], (data[:, 0].astype(int), data[:, 1].astype(int))),
        shape=(rows_, cols_),
    )
