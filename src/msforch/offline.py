"""Coarse pressure spaces from local snapshot problems and spectral truncation.

Per coarse element T_i, one snapshot is computed for every fine edge of its
boundary: a local Darcy solve with zero source whose Dirichlet pressure datum
is the indicator of that edge.  Superposition of all snapshots gives the
constant-pressure / zero-velocity state, so the snapshot span always contains
constants.

The snapshots are compressed by the generalized eigenproblem

    A^i Phi = lambda S^i Phi,
    A^i[r, l] = (kappa^-1 psi_r, psi_l)_Q on T_i,
    S^i[r, l] = (phi_r, phi_l) on T_i,

keeping the eigenvectors of the smallest eigenvalues.  The zero eigenvalue
always exists (constant pressure carries no velocity) and its eigenvector is
the constant mode.  Eigenvectors are S-orthonormal, which makes the resulting
pressure basis L2-orthonormal on the element; signs are fixed so the largest
entry is positive, and eigenvalues are sorted ascending, so column order is
deterministic.  Stacking each element's selected basis columns yields the
global reduction map R used by the reduced Schur solves.  The snapshot
velocities enter only A^i and the energy of the summed snapshots, so
:class:`SpectralSpace` keeps the pressures and the two Gram matrices and
drops the velocities once those are formed.

Residual-driven updating: after a nonlinear solve in the reduced space, the
cell-conservation defect R_i = int_{T_i} |f - div u|^2 ranks the coarse
elements; the smallest set whose residuals reach a fraction theta of the
total is re-snapshotted with the solution-dependent coefficient
1/kappa + beta |u| and re-decomposed, replacing those elements' columns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import SingularSystemError
from .fields import ScalarCellField
from .grid import CoarseGrid, FineGrid, index_dtype
from .local import snapshot_shape
from .mfmfe import (
    BoundarySpec,
    assemble_velocity_matrix,
    corner_coefficient,
    corner_velocities,
)
from .solve import FlowSolution, NonlinearConfig, cell_divergence, grid_divergence, nonlinear_solve


@dataclass
class SpectralSpace:
    """Snapshots of one coarse element and their spectral compression."""

    element: int
    cells: np.ndarray            # global fine cells of T_i
    snapshots_p: np.ndarray      # (n_local_cells, J) pressures on T_i
    gram_a: np.ndarray           # (J, J) velocity energy Gram matrix
    gram_s: np.ndarray           # (J, J) pressure L2 Gram matrix
    null_energy: float = 0.0     # velocity energy of the summed snapshots
    layers: int = 0              # oversampling layers of the snapshot solves
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None

    @property
    def n_snapshots(self) -> int:
        return self.snapshots_p.shape[1]

    def basis(self, m: int) -> np.ndarray:
        """The first m pressure basis columns on the element's cells (L2-orthonormal)."""
        if self.eigenvectors is None:
            raise ValueError("spectral decomposition has not been run")
        return self.snapshots_p @ self.eigenvectors[:, :m]


def build_snapshots(
    fine: FineGrid,
    coarse: CoarseGrid,
    i: int,
    coeff,
    gram_coeff=None,
    layers: int = 0,
) -> SpectralSpace:
    """Snapshot space of coarse element i.

    One local Darcy-type solve per boundary-data column of element i's block
    grown by ``layers`` (oversampling; 0 solves on the element itself),
    restricted to the element, with its Grams; the snapshot velocities are
    dropped once the Grams are formed.  ``coeff`` is the coefficient of the
    local solves, per global cell or per (cell, corner);
    ``gram_coeff`` (default: same) is the coefficient of the velocity energy
    Gram matrix used by the spectral problem.  The per-shape local data
    comes from the fine grid's memo (:mod:`msforch.local`).
    """
    if layers < 0:
        raise ValueError("oversampling layers must be non-negative")
    shape, cells, _ = snapshot_shape(coarse, i, layers)
    A = assemble_velocity_matrix(shape.grid, np.asarray(coeff)[cells])
    U, P = shape.operator.solve(A, shape.data, 0.0)
    if layers:
        P, U = P[shape.element_cells], U[shape.element_dofs]
        shape, cells, _ = snapshot_shape(coarse, i)
    if gram_coeff is None and not layers:
        M = A  # the Gram coefficient and grid are those of the solves
    else:
        gram_coeff = np.asarray(coeff if gram_coeff is None else gram_coeff)
        M = assemble_velocity_matrix(shape.grid, gram_coeff[cells])
    return SpectralSpace(
        element=i,
        cells=cells,
        snapshots_p=P,
        gram_a=M.gram(U),
        gram_s=(P * fine.cell_areas[cells][:, None]).T @ P,
        # Energy of the summed snapshots, formed on the velocity vector itself:
        # evaluating 1' gram_a 1 instead would cancel catastrophically because
        # the individual snapshot energies dwarf the sum's.
        null_energy=float(M.gram(U.sum(axis=1, keepdims=True))[0, 0]),
        layers=layers,
    )


def spectral_decompose(space: SpectralSpace, m_off: int) -> SpectralSpace:
    """Solve the generalized eigenproblem and select the m_off smallest modes.

    Distinct boundary data can induce (numerically) identical pressure
    responses — e.g. pure circulation patterns with zero pressure — which
    makes the pressure Gram matrix S rank-deficient and a direct generalized
    eigensolve unreliable.  The eigenproblem is therefore restricted to the
    S-positive subspace: modes below 1e-12 of S's own scale (the larger of its
    largest diagonal entry and the working matrix's largest eigenvalue) carry
    no pressure content and are dropped, so a one-cell element, which
    deflation leaves with roundoff only, has rank 1.  The returned eigenvectors
    are S-orthonormal, so the pressure basis is L2-orthonormal on the element;
    signs are fixed so the largest-magnitude entry of each eigenvector is positive.
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
    proj = np.eye(J)
    if deflate:
        ones = np.ones(J)
        s_mass = ones @ S @ ones
        v0 = ones / np.sqrt(s_mass)
        lam0 = space.null_energy / s_mass
        proj -= np.outer(v0, S @ v0)
    A_work = proj.T @ A @ proj
    S_work = proj.T @ S @ proj

    s, Q = la.eigh(0.5 * (S_work + S_work.T))
    keep = s > 1e-12 * max(s.max(), S.diagonal().max())
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
    A_sub = W.T @ A_work @ W
    w, Vt = la.eigh(0.5 * (A_sub + A_sub.T))
    # The working eigenvectors live in deflated coordinates (proj is the
    # identity when nothing is deflated); pulled back through the projector
    # they are S-orthogonal to the constant mode (and S-orthonormal among
    # themselves) in the original grams.
    V = proj @ (W @ Vt)
    # Rayleigh-quotient refinement in the original Gram matrices: the
    # eigensolver's absolute error scales with ||A||, which buries small
    # eigenvalues of high-contrast elements; the quotient restores them.
    w = ((A @ V) * V).sum(axis=0) / ((S @ V) * V).sum(axis=0)
    if deflate:
        V = np.column_stack([v0, V])
        w = np.concatenate([[lam0], w])
    idx = np.argmax(np.abs(V), axis=0)
    flip = V[idx, np.arange(rank)] < 0
    V[:, flip] *= -1.0
    space.eigenvalues = w
    space.eigenvectors = V
    return space


class ReductionMap:
    """Sparse map from coarse pressure coefficients to fine cell pressures.

    A new map has no columns.  Columns are grouped per coarse element
    (element-major, eigenvalue-minor for offline columns; online columns
    append at the end).  ``columns`` lists each column as (element id, cells,
    values) and is the map's only storage: :attr:`matrix` is built from it on
    its first read after an edit.  Change columns through the methods, which
    keep the per-element column index current and write into no stored array.
    """

    def __init__(self, n_cells: int):
        self.n_cells = n_cells
        self.columns, self._by_element, self._matrix = [], {}, None

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def matrix(self) -> sp.csc_matrix:
        """The map as an (n_cells, n_columns) compressed-column matrix, which
        owns its arrays: a later edit of the map leaves it unchanged."""
        if self._matrix is None:
            dtype = index_dtype(self.n_cells)
            cells = [np.empty(0, dtype)] + [c[1] for c in self.columns]
            indptr = np.cumsum([0] + [c[1].size for c in self.columns], dtype=dtype)
            data = np.concatenate([np.empty(0)] + [c[2] for c in self.columns])
            self._matrix = sp.csc_matrix((data, np.concatenate(cells, dtype=dtype), indptr),
                                         shape=(self.n_cells, self.n_columns))
        return self._matrix

    def columns_of(self, element: int) -> np.ndarray:
        return np.array(self._by_element.get(element, []), dtype=int)

    def append_column(self, element: int, cells: np.ndarray, values: np.ndarray) -> None:
        """Append one column; ``values`` is copied."""
        self._by_element.setdefault(element, []).append(self.n_columns)
        self.columns.append((element, np.asarray(cells, dtype=int), np.array(values, dtype=float)))
        self._matrix = None

    def replace_element_columns(self, element: int, basis: np.ndarray, cells: np.ndarray) -> None:
        """Replace element's columns, in order, by those of ``basis`` on ``cells``,
        which must be as many as the columns' cells."""
        ids = self.columns_of(element)
        if len(ids) != basis.shape[1]:
            raise ValueError(
                f"element {element} holds {len(ids)} columns, replacement has {basis.shape[1]}"
            )
        cells = np.asarray(cells, dtype=int)
        lengths = [self.columns[j][1].size for j in ids]
        if any(n != cells.size for n in lengths):
            raise ValueError(
                f"element {element}'s columns hold {lengths} cells, "
                f"replacement has {cells.size}"
            )
        for k, j in enumerate(ids):
            self.columns[j] = (element, cells, basis[:, k].copy())
        self._matrix = None

    def copy(self) -> "ReductionMap":
        """An independent map: an edit of either leaves the other unchanged."""
        new = copy.copy(self)
        new.columns = list(self.columns)
        new._by_element = {e: list(ids) for e, ids in self._by_element.items()}
        return new


def assemble_reduction(fine: FineGrid, spaces: list, m_off) -> ReductionMap:
    """Stack per-element spectral bases into the global reduction map.

    ``m_off`` is a single basis count or one per coarse element.
    """
    counts = np.broadcast_to(np.asarray(m_off, dtype=int), (len(spaces),))
    rmap = ReductionMap(fine.n_cells)
    for space, m in zip(spaces, counts):
        basis = space.basis(int(m))
        for k in range(basis.shape[1]):
            rmap.append_column(space.element, space.cells, basis[:, k])
    return rmap


def build_offline_space(
    fine: FineGrid,
    coarse: CoarseGrid,
    kappa: ScalarCellField,
    m_off: int,
    oversample_layers: int = 0,
) -> tuple:
    """Snapshot + decompose every coarse element; returns (spaces, ReductionMap)."""
    coeff = 1.0 / kappa.values
    spaces = []
    for i in range(coarse.n_elements):
        space = build_snapshots(fine, coarse, i, coeff, layers=oversample_layers)
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
) -> FlowSolution:
    """Nonlinear solve with pressure constrained to the offline space."""
    return nonlinear_solve(fine, kappa, beta, bc, f_cells, cfg, R=rmap.matrix)


def conservation_residuals(
    fine: FineGrid,
    coarse: CoarseGrid,
    velocity: np.ndarray,
    f_cells: np.ndarray,
) -> np.ndarray:
    """Per coarse element: int_{T_i} |f - div u|^2 dx (cellwise exact)."""
    defect = np.asarray(f_cells) - cell_divergence(fine, grid_divergence(fine), velocity)
    return element_residuals(fine, coarse, defect)


def element_residuals(fine: FineGrid, coarse: CoarseGrid, defect: np.ndarray) -> np.ndarray:
    """Per coarse element: int_{T_i} defect^2 dx of a per-cell defect."""
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
) -> tuple:
    """Re-snapshot the selected elements with the solution-dependent coefficient.

    The local problems use 1/kappa + beta |u| at element corners, on the
    oversampling layers the element's space was built with; the spectral
    problem keeps the Darcy-weighted velocity Gram matrix.  Returns (new
    ReductionMap, new spaces list); each element's column count is kept.
    """
    _, speed = corner_velocities(fine, velocity)
    darcy = 1.0 / kappa.values
    coeff = corner_coefficient(kappa.values, beta.values, speed)
    new_map = rmap.copy()
    new_spaces = list(spaces)
    for i in np.asarray(selected, dtype=int):
        m_i = len(rmap.columns_of(int(i)))
        space = build_snapshots(fine, coarse, int(i), coeff, gram_coeff=darcy,
                                layers=spaces[int(i)].layers)
        space = spectral_decompose(space, m_i)
        new_spaces[int(i)] = space
        new_map.replace_element_columns(int(i), space.basis(m_i), space.cells)
    return new_map, new_spaces


def save_triplets(rmap: ReductionMap, path, comment: str) -> None:
    """Write the reduction map as 'row col value' triplets with a size header,
    after a first line ``# comment``."""
    mat = rmap.matrix.tocoo()
    order = np.lexsort((mat.col, mat.row))
    entries = zip(mat.row[order].tolist(), mat.col[order].tolist(), mat.data[order].tolist())
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n# rows cols nnz\n{mat.shape[0]} {mat.shape[1]} {mat.nnz}\n"
                 + "".join(["%d %d %.17g\n" % e for e in entries]))


def load_triplets(path) -> sp.csr_matrix:
    """Read a triplet file written by :func:`save_triplets`; a malformed file
    raises ValueError naming it."""
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].split() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines or any(len(ln) != 3 for ln in lines):
        raise ValueError(f"triplet file {path} is not a size line and 'row col value' lines")
    try:
        rows_, cols_, nnz_ = (int(t) for t in lines[0])
        data = np.array(lines[1:], dtype=float).reshape(-1, 3)
    except ValueError as exc:
        raise ValueError(f"triplet file {path}: {exc}") from exc
    if len(data) != nnz_:
        raise ValueError(f"triplet file {path} promises {nnz_} entries, has {len(data)}")
    row, col = data[:, :2].astype(int).T
    if np.any((row < 0) | (row >= rows_) | (col < 0) | (col >= cols_)):
        raise ValueError(f"triplet file {path} has an index outside its {rows_} x {cols_} shape")
    return sp.csr_matrix((data[:, 2], (row, col)), shape=(rows_, cols_))
