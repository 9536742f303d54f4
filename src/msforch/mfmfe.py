"""Element kernels and global assembly for the multipoint-flux mixed scheme.

Velocity lives in the lowest-order Brezzi-Douglas-Marini space on each cell
(P1 vector polynomials plus the two curl bubbles curl(x^2 y) and curl(x y^2)),
with eight degrees of freedom per reference element: the normal components at
both endpoints of every edge.  Pressure is cellwise constant.  A DOF carries
the physical normal component with respect to the fixed global edge normal.

The velocity bilinear form (K u, v) is integrated by the corner (trapezoidal)
quadrature rule

    (K u, v)_Q = sum_T (|T| / 4) sum_{corners r} K(r) u(r) . v(r),

which only sees corner values.  Every cell is an axis-aligned rectangle, on
which the Piola map is diagonal: the velocity at a corner is its two DOFs,
x from the vertical edge and y from the horizontal one.  So the corner
contribution of DOF slots (s, l) is (|T| / 4) K_sl, and the products of a
step's matrices with the iterate (:func:`linearize`) are (|T| / 4) K w.
Since both DOFs of a corner sit at one mesh vertex, the assembled matrix
decouples into one small symmetric positive definite block per mesh vertex
(:class:`VertexBlockMatrix`), factored in closed form for all vertices at
once (:func:`vertex_cholesky`) and inverted blockwise.  A scalar
coefficient touches only the (s, s) entries: A is diagonal, kept per DOF
(blocks built only when read), and the solvers eliminate it per edge.  The
coefficient K is 1/kappa for Darcy flow and 1/kappa + beta |u| (plus the
rank-one Newton tensor) for Forchheimer flow.

The divergence matrix has entries B[dof, cell] = -int_cell q div v, which for
linear normal traces is exactly -sign * |e| / 2 per edge-endpoint DOF.  The
discrete saddle system reads  A U + B P = G,  B^T U = F  with
F_j = -(f, q_j) and Dirichlet data entering G via exact edge integrals
G_dof = -sign * int_e g_D l_dof ds (outward normal against the global one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigurationError
from .grid import CORNER_EDGE_LOCAL, CORNER_OFFSETS, CORNER_SLOTS, ELEMENT_EDGE_SIGNS, FineGrid

#: Gauss-Legendre nodes/weights on [0, 1] used for Dirichlet edge integrals.
_GAUSS3 = (
    np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10]),
    np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0]),
)


def corner_velocities(grid: FineGrid, U: np.ndarray):
    """Velocity vectors (n_cells, 4, 2) and speeds at all element corners:
    on a rectangle a corner's velocity is its two DOFs."""
    w = U[grid.elem_corner_dof]
    speed = np.sqrt(w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1])
    return w, speed


def corner_coefficient(kappa: np.ndarray, beta: np.ndarray, speed: np.ndarray) -> np.ndarray:
    """Forchheimer coefficient 1/kappa + beta |u| per (cell, corner) from per-cell kappa, beta."""
    return (1.0 / kappa)[:, None] + beta[:, None] * speed


#: Flat positions of the strict upper and lower triangles of a 4x4 vertex
#: block, entry by entry in matching order.
_UPPER = np.ravel_multi_index(np.triu_indices(4, 1), (4, 4))
_LOWER = np.ravel_multi_index(np.triu_indices(4, 1)[::-1], (4, 4))


def unit_slots(grid: FineGrid, dofs=()) -> tuple:
    """(positions, values): the entries of an entry-major (4, 4, n_vertices)
    block array that give every padding slot, and the slot of every DOF in
    ``dofs``, the row and column of the identity."""
    pad_v, pad_s = np.nonzero(grid.vertex_dofs < 0)
    dofs = np.asarray(dofs, dtype=np.int64)
    v = np.concatenate([pad_v, grid.dof_vertex[dofs]])[:, None]
    s = np.concatenate([pad_s, grid.dof_vslot[dofs]])[:, None]
    n, k = grid.n_vertices, np.arange(4)
    positions = np.unique(np.concatenate([((4 * s + k) * n + v).ravel(),
                                          ((4 * k + s) * n + v).ravel()]))
    return positions, np.isin(positions, 5 * s * n + v).astype(float)


def vertex_cholesky(blocks: np.ndarray, unit: tuple) -> np.ndarray:
    """Lower Cholesky factors L (4, 4, n) of the vertex blocks (n, 4, 4),
    entry-major, after the :func:`unit_slots` ``unit`` replace rows and
    columns by those of the identity.

    Closed form, one block column at a time over all vertices at once (the
    left-looking order of LAPACK's ``potf2``).  This is the SPD check of
    every solver: raises :class:`AssemblyError` on a non-finite, asymmetric
    or indefinite block; the non-finite and indefinite errors name a vertex
    (for the latter, the first to fail the earliest failing pivot, and the
    count is of the vertices failing that pivot).
    """
    if not np.isfinite(blocks).all():
        bad = np.flatnonzero(~np.isfinite(blocks).all(axis=(1, 2)))
        raise AssemblyError(
            f"non-finite vertex block at vertex {bad[0]} ({bad.size} in all)"
        )
    flat = blocks.reshape(-1, 16).T.copy()
    flat.reshape(-1)[unit[0]] = unit[1]
    L = flat.reshape(4, 4, -1)
    upper, lower = flat[_UPPER], flat[_LOWER]
    # np.allclose(b, b.T, atol=1e-12) over the strict upper triangle.
    if not np.all(np.abs(upper - lower) <= 1e-12 + 1e-5 * np.minimum(abs(upper), abs(lower))):
        raise AssemblyError("vertex block is not symmetric")
    for j in range(4):
        for m in range(j):
            L[j:, j] -= L[j:, m] * L[j, m]
        if not L[j, j].min() > 0.0:
            bad = np.flatnonzero(~(L[j, j] > 0.0))
            raise AssemblyError(
                f"vertex block is not positive definite at vertex {bad[0]} "
                f"({bad.size} failing pivot {j})"
            )
        np.sqrt(L[j, j], out=L[j, j])
        L[j + 1:, j] /= L[j, j]
    flat[_UPPER] = 0.0
    return L


class VertexBlockMatrix:
    """Symmetric velocity matrix stored as one dense block per mesh vertex.

    Blocks are 4x4 in the grid's geometric slots; ``vertex_dofs`` maps them
    to global DOF ids (-1 for padding, a missing edge's own slot).  Each DOF
    belongs to exactly one block, so matvec, inversion and Cholesky checks
    all act blockwise.  Padding slots hold zeros, or a unit diagonal once
    DOFs are eliminated.  ``diagonal`` is set when the
    whole matrix is diagonal (a scalar coefficient): it is that diagonal, per
    DOF, read by products and solvers; its blocks are built on first read.
    """

    def __init__(self, blocks, grid: FineGrid, diagonal: np.ndarray | None = None):
        self._blocks = blocks
        self.grid = grid
        self.diagonal = diagonal

    @property
    def blocks(self) -> np.ndarray:
        if self._blocks is None:
            blocks = np.zeros((self.grid.n_vertices, 16))
            blocks[:, ::5] = np.append(self.diagonal, 0.0)[self.grid.vertex_dofs]
            self._blocks = blocks.reshape(-1, 4, 4)
        return self._blocks

    @property
    def n_dofs(self) -> int:
        return self.grid.n_dofs

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self.diagonal is not None:
            return self.diagonal * x
        vd = self.grid.vertex_dofs
        y = np.zeros(self.n_dofs)
        prod = np.einsum("vij,vj->vi", self.blocks, np.append(x, 0.0)[vd])
        mask = vd >= 0
        y[vd[mask]] = prod[mask]
        return y

    def check_positive_definite(self) -> bool:
        """Return True if every vertex block is SPD, else raise :class:`AssemblyError`."""
        vertex_cholesky(self.blocks, unit_slots(self.grid))
        return True

    def gram(self, U: np.ndarray) -> np.ndarray:
        """U^T A U for the columns of a (n_dofs, k) U, for a diagonal A only
        (``diagonal`` set, a scalar coefficient)."""
        return (U * self.diagonal[:, None]).T @ U

    def inverse_sparse(self) -> sp.csr_matrix:
        """Blockwise inverse as a sparse matrix (pad slots become unit diagonal)."""
        positions, values = unit_slots(self.grid)
        # Entry-major position e * n + v is row-major 16 v + e.
        entry, v = np.divmod(positions, self.grid.n_vertices)
        blocks = self.blocks.copy()
        blocks.reshape(-1)[16 * v + entry] = values
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"singular vertex block: {exc}") from exc
        vd = self.grid.vertex_dofs
        rows = np.broadcast_to(vd[:, :, None], inv.shape)
        cols = np.broadcast_to(vd[:, None, :], inv.shape)
        mask = (rows >= 0) & (cols >= 0)
        mat = sp.csr_matrix((inv[mask], (rows[mask], cols[mask])), shape=(self.n_dofs,) * 2)
        mat.sum_duplicates()
        return mat


def lower_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b in every vertex block, entry-major: L (4, 4, n) lower
    triangular, b (4, ..., n)."""
    x = np.array(b, dtype=float)
    for i in range(4):
        for m in range(i):
            x[i] -= L[i, m] * x[m]
        x[i] /= L[i, i]
    return x


def lower_transpose_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L^T x = b in every vertex block (layout as :func:`lower_solve`)."""
    x = np.array(b, dtype=float)
    for i in range(3, -1, -1):
        for m in range(i + 1, 4):
            x[i] -= L[m, i] * x[m]
        x[i] /= L[i, i]
    return x


def vertex_cells(grid: FineGrid) -> np.ndarray:
    """Cells around each vertex, (n_vertices, 4): slot k holds the cell whose
    corner k is the vertex, -1 where there is none."""
    cells = np.full((grid.n_vertices, 4), -1, dtype=np.int64)
    cells[grid.elements, np.arange(4)] = np.arange(grid.n_cells)[:, None]
    return cells


def divergence_blocks(grid: FineGrid) -> np.ndarray:
    """The grid's divergence matrix B per vertex, entry-major: (4, 4,
    n_vertices) with [i, j, v] = B[vertex_dofs[v, i], vertex_cells(grid)[v, j]],
    zero where there is no DOF or cell.

    Corner k of cell c holds the DOFs ``elem_corner_dof[c, k]`` in the slots
    ``CORNER_SLOTS[k]`` of vertex ``elements[c, k]``, and the cell in its
    cell slot k, so one scatter per corner writes each entry -sign * |e| / 2
    as :func:`assemble_divergence` forms it.
    """
    vals = -0.5 * ELEMENT_EDGE_SIGNS * grid.edge_lengths[grid.element_edges]
    blocks = np.zeros((4, 4, grid.n_vertices))
    for k in range(4):
        blocks[CORNER_SLOTS[k], k, grid.elements[:, k, None]] = vals[:, CORNER_EDGE_LOCAL[k]]
    return blocks


def assemble_velocity_matrix(grid: FineGrid, coeff) -> VertexBlockMatrix:
    """Assemble (K u, v)_Q into per-vertex blocks.

    Corner k of cell T adds (|T| / 4) K_sl to the entry of its DOF slots
    (s, l).  Both DOFs live at the corner's mesh vertex, so no contribution
    ever links distinct vertex blocks.  K is a per-cell scalar (n_cells,), a
    per-corner scalar (n_cells, 4) or a full tensor (n_cells, 4, 2, 2).  A
    scalar adds only to the two (s, s) entries, so the matrix is diagonal:
    its diagonal is summed per DOF by one ``bincount`` over the grid's
    ``elem_corner_dof`` and kept as the matrix's ``diagonal`` (blocks are
    built only if read).  A tensor is summed entry-major into a (4, 4,
    ny + 1, nx + 1) array by one slice add per corner, no index array:
    corner k of cell (ix, iy) is vertex (ix, iy) + ``CORNER_OFFSETS[k]``,
    and its entry (a, b) is block entry ``CORNER_SLOTS[k]`` (a, b).  An
    entry gets at most two terms, added in corner order, so this is bitwise
    one ``bincount`` over all corners.  The blocks are the (n_vertices, 4, 4)
    view of that array, which :func:`vertex_cholesky` copies contiguously.
    """
    n = grid.n_cells
    quarter = 0.25 * grid.cell_areas
    values = np.asarray(coeff, dtype=float)
    if values.shape in ((n,), (n, 4)):
        scalar = (values if values.ndim == 2 else values[:, None]) * quarter[:, None]
        # Eight corner DOF slots per cell, two per corner.
        weights = np.repeat(scalar.ravel(), 8 // scalar.shape[1])
        diagonal = np.bincount(grid.elem_corner_dof.ravel(), weights=weights, minlength=grid.n_dofs)
        return VertexBlockMatrix(None, grid, diagonal)
    if values.shape != (n, 4, 2, 2):
        raise ValueError(f"coefficient shape {values.shape} not understood for {n} cells")
    nx, ny = grid.nx, grid.ny
    blocks = np.zeros((4, 4, ny + 1, nx + 1))
    for k, (dx, dy) in enumerate(CORNER_OFFSETS):
        s = CORNER_SLOTS[k]
        blocks[s[:, None], s, dy:dy + ny, dx:dx + nx] += (
            values[:, k] * quarter[:, None, None]).transpose(1, 2, 0).reshape(2, 2, ny, nx)
    return VertexBlockMatrix(blocks.reshape(16, -1).T.reshape(-1, 4, 4), grid)


def linearize(grid: FineGrid, kappa: np.ndarray, beta: np.ndarray, U: np.ndarray, scheme):
    """Linearize the Forchheimer momentum equation at the iterate U in one
    pass over the corners: ``(A, AU, AtU)``, with kappa and beta per cell.

    A is the step matrix with the corner coefficient c = 1/kappa + beta |w|
    (``scheme="picard"``), or the tensor c I + (beta / |w|) w w^T, the
    Jacobian of A_pic(U) U (``"newton"``; its rank-one part A_t is dropped
    where |w| vanishes), or None (``scheme=None``: products only).
    AU = A_pic(U) U and, for Newton, AtU = A_t U (else 0.0) need no matrix:
    with h = (|T| / 4) w, corner slot s adds c h_s and (beta / |w|) |w|^2 h_s
    to its DOF, summed by one ``bincount`` each; Picard's AU is A's diagonal times U.
    """
    w, speed = corner_velocities(grid, U)
    c = corner_coefficient(kappa, beta, speed)
    if scheme == "picard":
        A = assemble_velocity_matrix(grid, c)
        return A, A.diagonal * U, 0.0
    h = (0.25 * grid.cell_areas)[:, None, None] * w
    dofs = grid.elem_corner_dof.ravel()

    def slot_sums(scale):
        return np.bincount(dofs, weights=(scale[..., None] * h).ravel(), minlength=grid.n_dofs)

    AU = slot_sums(c)
    if scheme is None:
        return None, AU, 0.0
    # beta / |w| per corner, zero below the velocity floor.
    floor = 1e-14 * max(speed.max(), 1.0)
    moving = speed > floor
    scale = np.where(moving, beta[:, None] / np.where(moving, speed, 1.0), 0.0)
    AtU = slot_sums(scale * speed**2)
    C = np.empty(w.shape + (2,))
    for a, b in np.ndindex(2, 2):
        C[..., a, b] = scale * w[..., a] * w[..., b] + (c if a == b else 0.0)
    del w, c, h, speed, scale   # freed before the blocks are summed, the step's peak
    return assemble_velocity_matrix(grid, C), AU, AtU


def assemble_divergence(grid: FineGrid) -> sp.csr_matrix:
    """Divergence matrix B with entries -sign * |e| / 2 per edge-endpoint DOF."""
    edges = grid.element_edges            # (n_c, 4)
    vals = -0.5 * ELEMENT_EDGE_SIGNS * grid.edge_lengths[edges]   # per (cell, local edge)
    rows = np.stack([2 * edges, 2 * edges + 1], axis=-1).ravel()
    data = np.repeat(vals.ravel(), 2)
    cols = np.repeat(np.arange(grid.n_cells), 8)
    B = sp.csr_matrix((data, (rows, cols)), shape=(grid.n_dofs, grid.n_cells))
    B.sum_duplicates()
    return B


@dataclass
class BoundarySpec:
    """Boundary data: per-edge Dirichlet pressure or Neumann normal flux.

    Data values may be floats (exact edge integrals) or callables of (x, y).
    Neumann data is given with respect to the outward normal.
    """

    dirichlet: dict = field(default_factory=dict)
    neumann: dict = field(default_factory=dict)

    def validate(self, grid: FineGrid) -> None:
        boundary = set(grid.boundary_edges.tolist())
        labeled = set(self.dirichlet) | set(self.neumann)
        both = set(self.dirichlet) & set(self.neumann)
        if both:
            raise ConfigurationError(f"edges labeled both Dirichlet and Neumann: {sorted(both)[:5]}")
        missing = boundary - labeled
        if missing:
            raise ConfigurationError(
                f"{len(missing)} boundary edges carry no condition, e.g. {sorted(missing)[:5]}"
            )
        extra = labeled - boundary
        if extra:
            raise ConfigurationError(
                f"conditions given on non-boundary edges: {sorted(extra)[:5]}"
            )


def left_right_spec(grid: FineGrid, p_left: float = 1.0, p_right: float = 0.0) -> BoundarySpec:
    """Dirichlet pressure on the left/right sides, no-flow on top and bottom."""
    spec = BoundarySpec()
    for e in grid.boundary_edges:
        side = grid.edge_side[e]
        if side == 3:
            spec.dirichlet[int(e)] = p_left
        elif side == 1:
            spec.dirichlet[int(e)] = p_right
        else:
            spec.neumann[int(e)] = 0.0
    return spec


def all_dirichlet_spec(grid: FineGrid, g) -> BoundarySpec:
    """Dirichlet pressure everywhere, with constant or callable data."""
    spec = BoundarySpec()
    for e in grid.boundary_edges:
        spec.dirichlet[int(e)] = g
    return spec


def no_flow_spec(grid: FineGrid) -> BoundarySpec:
    """Zero normal flux on the whole boundary (singular without a pressure pin)."""
    spec = BoundarySpec()
    for e in grid.boundary_edges:
        spec.neumann[int(e)] = 0.0
    return spec


def five_spot(grid: FineGrid):
    """Quarter five-spot: injection in the lower-left cell, producer corner held
    at zero pressure, no flow elsewhere.  Returns (BoundarySpec, source cells)."""
    spec = BoundarySpec()
    producer = grid.cell_id(grid.nx - 1, grid.ny - 1)
    producer_edges = {
        int(grid.horizontal_edge(grid.nx - 1, grid.ny)),
        int(grid.vertical_edge(grid.nx, grid.ny - 1)),
    }
    for e in grid.boundary_edges:
        if int(e) in producer_edges:
            spec.dirichlet[int(e)] = 0.0
        else:
            spec.neumann[int(e)] = 0.0
    f = np.zeros(grid.n_cells)
    injector = grid.cell_id(0, 0)
    f[injector] = 1.0 / grid.cell_areas[injector]
    return spec, f


def _split_constant(data: dict):
    """(edges, values, varying): the edges of ``data`` whose value is a
    constant, as arrays, and the (edge, callable) pairs of the others."""
    constant = [(e, v) for e, v in data.items() if not callable(v)]
    edges = np.array([e for e, _ in constant], dtype=np.int64)
    values = np.array([v for _, v in constant], dtype=float)
    return edges, values, [(e, v) for e, v in data.items() if callable(v)]


def _edge_integrals(grid: FineGrid, edge: int, g) -> np.ndarray:
    """Integrals of a callable g_D times the two linear endpoint hats along an edge."""
    length = grid.edge_lengths[edge]
    a, b = grid.vertices[grid.edge_nodes[edge]]
    s, w = _GAUSS3
    pts = a[None, :] + s[:, None] * (b - a)[None, :]
    values = np.array([g(p[0], p[1]) for p in pts])
    return np.array([length * np.sum(w * values * (1 - s)), length * np.sum(w * values * s)])


def assemble_rhs(grid: FineGrid, f_cells: np.ndarray, bc: BoundarySpec):
    """Right-hand sides and Neumann constraints for the saddle system.

    Returns ``(G, F, constrained_dofs, constrained_vals)``: F_j = -(f, q_j);
    Dirichlet data enters G as -sign * int_e g_D l_dof ds; Neumann DOFs are
    constrained to sign * g_N at their endpoint (global-normal component) and
    must be eliminated by the solver.  Edges with constant data are handled
    all at once (a constant's integral against each hat is |e|/2 times it),
    callable data edge by edge.
    """
    bc.validate(grid)
    f_cells = np.asarray(f_cells, dtype=float)
    if f_cells.shape != (grid.n_cells,):
        raise ValueError(f"source needs {grid.n_cells} cell values, got {f_cells.shape}")
    F = -f_cells * grid.cell_areas
    G = np.zeros(grid.n_dofs)
    edges, values, varying = _split_constant(bc.dirichlet)
    integral = grid.edge_boundary_sign[edges] * (0.5 * grid.edge_lengths[edges] * values)
    G[2 * edges] -= integral
    G[2 * edges + 1] -= integral
    for e, g in varying:
        G[2 * e:2 * e + 2] -= grid.edge_boundary_sign[e] * _edge_integrals(grid, e, g)
    edges, values, varying = _split_constant(bc.neumann)
    flux = grid.edge_boundary_sign[edges] * values
    dofs, vals = [2 * edges, 2 * edges + 1], [flux, flux]
    for e, g in varying:
        ends = grid.vertices[grid.edge_nodes[e]]
        dofs.append(np.array([2 * e, 2 * e + 1], dtype=np.int64))
        vals.append(np.array([grid.edge_boundary_sign[e] * g(*end) for end in ends], dtype=float))
    dofs, vals = np.concatenate(dofs), np.concatenate(vals)
    order = np.argsort(dofs)
    return G, F, dofs[order], vals[order]


def quadrature_norm_matrix(grid: FineGrid) -> VertexBlockMatrix:
    """Velocity mass matrix of the corner quadrature with unit coefficient."""
    return assemble_velocity_matrix(grid, np.ones(grid.n_cells))
