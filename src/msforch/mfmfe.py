"""Element kernels and global assembly for the multipoint-flux mixed scheme.

Velocity lives in the lowest-order Brezzi-Douglas-Marini space on each cell
(P1 vector polynomials plus the two curl bubbles curl(x^2 y) and curl(x y^2)),
with eight degrees of freedom per reference element: the normal components at
both endpoints of every edge.  Pressure is cellwise constant.  Physical
elements are reached through the Piola transform v = (1/J) DF vhat o F^{-1},
which preserves edge fluxes, so a DOF carries the physical normal component
with respect to the fixed global edge normal.

The velocity bilinear form (K u, v) is integrated by the corner (trapezoidal)
quadrature rule

    (K u, v)_Q = sum_t (1/4) sum_{corners} Mhat_t(r_i) uhat(r_i) . vhat(r_i),
    Mhat_t = (1/J_t) DF_t^T K DF_t,

which only sees corner values.  Since the corner value of a BDM1 field is
fixed by the two DOFs at that corner, the assembled matrix decouples into one
small symmetric positive definite block per mesh vertex
(:class:`VertexBlockMatrix`), and its inverse is available blockwise.

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

from .errors import AssemblyError, ConfigurationError, SingularCornerError
from .grid import CORNER_EDGE_LOCAL, REF_CORNER_NORMALS, REF_CORNERS, FineGrid

#: Gauss-Legendre nodes/weights on [0, 1] used for Dirichlet edge integrals.
_GAUSS3 = (
    np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10]),
    np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0]),
)


def _monomial_eval(xhat: np.ndarray) -> np.ndarray:
    """Evaluate the 8 reference-space generators at points.

    Returns an array of shape (..., 2, 8) mapping a coefficient vector to the
    field value.  Coefficients 0-2 and 3-5 are the P1 parts of each component,
    6 and 7 multiply curl(x^2 y) = (x^2, -2xy) and curl(x y^2) = (2xy, -y^2).
    """
    xhat = np.asarray(xhat, dtype=float)
    x, y = xhat[..., 0], xhat[..., 1]
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    row_x = np.stack([one, x, y, zero, zero, zero, x**2, 2 * x * y], axis=-1)
    row_y = np.stack([zero, zero, zero, one, x, y, -2 * x * y, -(y**2)], axis=-1)
    return np.stack([row_x, row_y], axis=-2)


def _nodal_coefficients() -> np.ndarray:
    """Coefficients of the nodal basis, one column per (corner, slot) DOF."""
    Phi = _monomial_eval(REF_CORNERS)          # (4, 2, 8)
    # DOF functional (corner s, slot l): n_sl . v(r_s)
    D = np.einsum("sli,sik->slk", REF_CORNER_NORMALS, Phi).reshape(8, 8)
    return np.linalg.inv(D)


_NODAL_COEFFS = _nodal_coefficients()


def reference_basis(corner: int, slot: int):
    """Nodal reference basis function for the DOF (corner, slot).

    ``corner`` is 0..3 counter-clockwise from the origin, ``slot`` 0 for the
    vertical edge at that corner and 1 for the horizontal one.  The returned
    callable maps reference points to field values and satisfies
    ``basis(r_s) . n_sl = delta``.
    """
    if not (0 <= corner < 4 and 0 <= slot < 2):
        raise ValueError(f"corner must be 0..3 and slot 0..1, got ({corner}, {slot})")
    coeff = _NODAL_COEFFS[:, 2 * corner + slot]

    def basis(xhat):
        return _monomial_eval(xhat) @ coeff

    return basis


def reference_divergence(corner: int, slot: int) -> float:
    """Reference divergence of a nodal basis function (constant on the square)."""
    coeff = _NODAL_COEFFS[:, 2 * corner + slot]
    return coeff[1] + coeff[5]


def piola(corners: np.ndarray, vhat):
    """Push a reference field to the physical element (parametric evaluation).

    Returns a callable of reference points producing ``(x, v(x))`` with
    ``v = (1/J) DF vhat``.  Edge fluxes are preserved: the integral of
    ``v . n`` over a physical edge equals that of ``vhat . nhat`` over the
    reference edge.
    """
    from .grid import bilinear_map

    def mapped(xhat):
        x, DF, J = bilinear_map(corners, xhat)
        vh = np.asarray(vhat(xhat), dtype=float)
        v = (DF @ vh[..., None])[..., 0] / np.expand_dims(J, -1) if vh.ndim > 1 else DF @ vh / J
        return x, v

    return mapped


def corner_velocity(corners: np.ndarray, corner: int, traces: np.ndarray):
    """Velocity vector at an element corner from its two normal components.

    ``traces`` holds the physical normal components (outward) of the field on
    the vertical and horizontal edge meeting at the corner; the 2x2 system
    n_1 . w = d_1, n_2 . w = d_2 is solved for w.  Raises
    :class:`SingularCornerError` when the two normals are parallel.
    """
    corners = np.asarray(corners, dtype=float)
    # Counter-clockwise edge tangents; outward normal is the -90 deg rotation.
    normals = np.empty((2, 2))
    for s in range(2):
        le = CORNER_EDGE_LOCAL[corner, s]
        a, b = le, (le + 1) % 4
        t = corners[b] - corners[a]
        n = np.array([t[1], -t[0]])
        normals[s] = n / np.linalg.norm(n)
    N = normals
    det = N[0, 0] * N[1, 1] - N[0, 1] * N[1, 0]
    if abs(det) < 1e-12:
        raise SingularCornerError(f"parallel edge normals at corner {corner}")
    w = np.linalg.solve(N, np.asarray(traces, dtype=float))
    return w, float(np.linalg.norm(w))


def corner_velocities(grid: FineGrid, U: np.ndarray):
    """Velocity vectors and speeds at all element corners, vectorized.

    Equivalent to :func:`corner_velocity` element by element: the reference
    corner value is recovered from the two corner DOFs (reference DOF equals
    sign * |e| * global DOF) and pushed through the Piola transform.
    """
    dhat = U[grid.elem_corner_dof] * grid.elem_corner_sign * grid.elem_corner_elen
    # Two-term sums written out: einsum is several times slower on these shapes.
    N = REF_CORNER_NORMALS
    what = dhat[..., 0, None] * N[:, 0] + dhat[..., 1, None] * N[:, 1]
    DF = grid.corner_DF
    w = (DF[..., 0] * what[..., 0, None] + DF[..., 1] * what[..., 1, None])
    w /= grid.corner_J[..., None]
    speed = np.linalg.norm(w, axis=-1)
    return w, speed


#: Strict upper-triangle positions of a 4x4 vertex block.
_UPPER = np.triu_indices(4, 1)


def index_dtype(size: int):
    """int32 for flat indices below 2**31, else int64."""
    return np.int32 if size < 2**31 else np.int64


class VertexBlockMatrix:
    """Symmetric velocity matrix stored as one dense block per mesh vertex.

    Blocks are padded to 4x4; ``vertex_dofs`` maps block slots to global DOF
    ids (-1 for padding).  Each DOF belongs to exactly one block, so matvec,
    inversion and Cholesky checks all act blockwise.  Padding slots hold zeros,
    or a unit diagonal once DOFs are eliminated.
    """

    def __init__(self, blocks: np.ndarray, grid: FineGrid):
        self.blocks = blocks
        self.grid = grid

    @property
    def n_dofs(self) -> int:
        return self.grid.n_dofs

    def copy(self) -> "VertexBlockMatrix":
        return VertexBlockMatrix(self.blocks.copy(), self.grid)

    def __add__(self, other: "VertexBlockMatrix") -> "VertexBlockMatrix":
        return VertexBlockMatrix(self.blocks + other.blocks, self.grid)

    def _gathered(self, x: np.ndarray) -> np.ndarray:
        vd = self.grid.vertex_dofs
        safe = np.where(vd >= 0, vd, 0)
        vals = x[safe]
        vals[vd < 0] = 0.0
        return vals

    def matvec(self, x: np.ndarray) -> np.ndarray:
        vd = self.grid.vertex_dofs
        y = np.zeros(self.n_dofs)
        prod = np.einsum("vij,vj->vi", self.blocks, self._gathered(x))
        mask = vd >= 0
        y[vd[mask]] = prod[mask]
        return y

    def diagonal(self) -> np.ndarray:
        vd = self.grid.vertex_dofs
        d = np.zeros(self.n_dofs)
        idx = np.arange(4)
        diag = self.blocks[:, idx, idx]
        mask = vd >= 0
        d[vd[mask]] = diag[mask]
        return d

    def _unit_slots(self, dofs=()) -> np.ndarray:
        """Blocks with a unit row and column at every padding slot and at the
        slots of ``dofs``: ready for LAPACK batch calls, with ``dofs``
        eliminated."""
        pad_v, pad_s = np.nonzero(self.grid.vertex_dofs < 0)
        dofs = np.asarray(dofs, dtype=np.int64)
        v = np.concatenate([pad_v, self.grid.dof_vertex[dofs]])
        s = np.concatenate([pad_s, self.grid.dof_vslot[dofs]])
        out = self.blocks.copy()
        out[v, s, :] = 0.0
        out[v, :, s] = 0.0
        out[v, s, s] = 1.0
        return out

    def cholesky(self, dofs=()) -> np.ndarray:
        """Batched lower Cholesky factors (n_vertices, 4, 4) of the blocks,
        with ``dofs`` eliminated as in :meth:`with_identity_rows`.

        This is the SPD check of every solver: raises :class:`AssemblyError`
        on a non-finite, asymmetric or indefinite block.
        """
        if not np.isfinite(self.blocks).all():
            bad = np.flatnonzero(~np.isfinite(self.blocks).all(axis=(1, 2)))
            raise AssemblyError(
                f"non-finite vertex block at vertex {bad[0]} ({bad.size} in all)"
            )
        blocks = self._unit_slots(dofs)
        upper = blocks[:, _UPPER[0], _UPPER[1]]
        lower = blocks[:, _UPPER[1], _UPPER[0]]
        # np.allclose(b, b.T, atol=1e-12) over the strict upper triangle.
        if not np.all(np.abs(upper - lower) <= 1e-12 + 1e-5 * np.minimum(abs(upper), abs(lower))):
            raise AssemblyError("vertex block is not symmetric")
        try:
            return np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"vertex block is not positive definite: {exc}") from exc

    def check_positive_definite(self) -> bool:
        """Return True if every vertex block is SPD, else raise :class:`AssemblyError`."""
        self.cholesky()
        return True

    def inverse_blocks(self) -> np.ndarray:
        try:
            inv = np.linalg.inv(self._unit_slots())
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"singular vertex block: {exc}") from exc
        return inv

    def _sparse_from_blocks(self, blocks: np.ndarray) -> sp.csr_matrix:
        vd = self.grid.vertex_dofs
        rows = np.broadcast_to(vd[:, :, None], (vd.shape[0], 4, 4))
        cols = np.broadcast_to(vd[:, None, :], (vd.shape[0], 4, 4))
        mask = (rows >= 0) & (cols >= 0)
        mat = sp.csr_matrix(
            (blocks[mask], (rows[mask], cols[mask])),
            shape=(self.n_dofs, self.n_dofs),
        )
        mat.sum_duplicates()
        return mat

    def to_sparse(self) -> sp.csr_matrix:
        return self._sparse_from_blocks(self.blocks)

    def gram(self, U: np.ndarray) -> np.ndarray:
        """U^T A U for the columns of a (n_dofs, k) U, formed blockwise."""
        Uv = self._gathered(U)
        return np.tensordot(Uv, self.blocks @ Uv, axes=([0, 1], [0, 1]))

    def inverse_sparse(self) -> sp.csr_matrix:
        """Blockwise inverse as a sparse matrix (pad slots become unit diagonal)."""
        return self._sparse_from_blocks(self.inverse_blocks())

    def with_identity_rows(self, dofs: np.ndarray) -> "VertexBlockMatrix":
        """Zero the rows/columns of the given DOFs and put 1 on their diagonal.

        Used to eliminate constrained (Neumann) DOFs while preserving the
        vertex-block structure and symmetry.
        """
        return VertexBlockMatrix(self._unit_slots(dofs), self.grid)


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


def divergence_blocks(grid: FineGrid, B: sp.spmatrix, cells: np.ndarray) -> np.ndarray:
    """The rows of B at each vertex's DOFs, restricted to the cells around it.

    Returns (n_vertices, 4, 4) with [v, i, j] = B[vertex_dofs[v, i],
    cells[v, j]].  Raises ValueError if B couples a DOF to a cell that does
    not touch the DOF's vertex, which no divergence matrix of the grid does.
    """
    if B.shape != (grid.n_dofs, grid.n_cells):
        raise ValueError(f"B has shape {B.shape}, expected {(grid.n_dofs, grid.n_cells)}")
    coo = sp.coo_matrix(B)
    coo.sum_duplicates()
    nz = coo.data != 0
    rows, cols, vals = coo.row[nz], coo.col[nz], coo.data[nz]
    v = grid.dof_vertex[rows]
    hit = cells[v] == cols[:, None]
    if not hit.any(axis=1).all():
        raise ValueError("B couples a velocity DOF to a cell away from the DOF's vertex")
    blocks = np.zeros((grid.n_vertices, 4, 4))
    blocks[v, grid.dof_vslot[rows], hit.argmax(axis=1)] = vals
    return blocks


@dataclass(frozen=True)
class CornerGeometry:
    """Grid data of the velocity assembly, shared by repeated assemblies.

    ``factors[c, k, s] = t_s DF N_s / (2 sqrt(J))`` at corner k of cell c,
    with N_s the reference normal of DOF slot s and t_s = sign * |e|, so the
    corner contribution (1/4) t_s t_l N_s^T Mhat N_l of a coefficient tensor
    C (Mhat = DF^T C DF / J) is ``factors_s^T C factors_l``.  ``index`` holds
    the flat position of each (c, k, s, l) contribution in the
    (n_vertices, 4, 4) block array.
    """

    factors: np.ndarray     # (n_cells, 4, 2, 2)
    index: np.ndarray       # (n_cells, 4, 2, 2) int32


def corner_geometry(grid: FineGrid) -> CornerGeometry:
    """Corner factors and block scatter index of a grid."""
    DF, N = grid.corner_DF, REF_CORNER_NORMALS
    # DF N_s written out, as in corner_velocities.
    dfn = DF[:, :, None, :, 0] * N[:, :, 0, None] + DF[:, :, None, :, 1] * N[:, :, 1, None]
    t = grid.elem_corner_sign * grid.elem_corner_elen
    factors = dfn * (0.5 * t / np.sqrt(grid.corner_J)[..., None])[..., None]
    slot = grid.elem_corner_vslot
    index = 16 * grid.elements[:, :, None, None] + 4 * slot[..., :, None] + slot[..., None, :]
    return CornerGeometry(factors=factors, index=index.astype(index_dtype(16 * grid.n_vertices)))


def _corner_scalar(values: np.ndarray, n: int):
    """A per-cell (n,) or per-corner (n, 4) scalar as (n, 1) or (n, 4), else None."""
    if values.shape == (n,):
        return values[:, None]
    if values.shape == (n, 4):
        return values
    return None


def corner_products(geometry: CornerGeometry, coeff, direction=None) -> np.ndarray:
    """Corner contributions g_s^T C g_l, shape (n_cells, 4, 2, 2).

    ``coeff`` is a per-cell scalar (n_cells,), a per-corner scalar
    (n_cells, 4) or a full tensor (n_cells, 4, 2, 2).  With ``direction``
    (n_cells, 4, 2) the tensor is the rank-one C = coeff w w^T, assembled as
    coeff (g_s . w)(g_l . w).
    """
    g = geometry.factors
    n = g.shape[0]
    values = np.asarray(coeff, dtype=float)
    scalar = _corner_scalar(values, n)
    if direction is not None:
        if scalar is None:
            raise ValueError(f"rank-one coefficient needs a scalar per cell or corner, "
                             f"got shape {values.shape} for {n} cells")
        gw = g[..., 0] * direction[..., None, 0] + g[..., 1] * direction[..., None, 1]
        return scalar[..., None, None] * (gw[..., :, None] * gw[..., None, :])
    if scalar is not None:
        gram = g[..., :, None, 0] * g[..., None, :, 0] + g[..., :, None, 1] * g[..., None, :, 1]
        return scalar[..., None, None] * gram
    if values.shape == (n, 4, 2, 2):
        return g @ values @ np.swapaxes(g, -1, -2)
    raise ValueError(
        f"coefficient shape {values.shape} not understood for {n} cells"
    )


def assemble_velocity_matrix(grid: FineGrid, coeff, *, direction=None,
                             geometry: CornerGeometry | None = None) -> VertexBlockMatrix:
    """Assemble (K u, v)_Q into per-vertex blocks.

    Each element corner contributes (1/4) T N^T Mhat N T in global DOF space,
    where Mhat = (1/J) DF^T K DF at the corner, N stacks the two reference
    corner normals and T = diag(sign * |e|) converts global DOFs to reference
    ones.  Both DOFs live at the corner's mesh vertex, so no contribution ever
    links distinct vertex blocks.  The contributions come from the corner
    factors of :class:`CornerGeometry` (see :func:`corner_products` for the
    coefficient forms) and are summed into the blocks by one ``bincount``;
    pass the grid's ``geometry`` to reuse it across assemblies.
    """
    geo = corner_geometry(grid) if geometry is None else geometry
    products = corner_products(geo, coeff, direction)
    n_vertices = grid.n_vertices
    blocks = np.bincount(geo.index.ravel(), weights=products.ravel(), minlength=16 * n_vertices)
    return VertexBlockMatrix(blocks.reshape(n_vertices, 4, 4), grid)


def assemble_divergence(grid: FineGrid) -> sp.csr_matrix:
    """Divergence matrix B with entries -sign * |e| / 2 per edge-endpoint DOF."""
    edges = grid.element_edges            # (n_c, 4)
    signs = grid.element_edge_signs
    lens = grid.edge_lengths[edges]
    vals = -0.5 * signs * lens            # per (cell, local edge)
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


def _edge_integrals(grid: FineGrid, edge: int, data) -> np.ndarray:
    """Integrals of g_D times the two linear endpoint hats along an edge."""
    length = grid.edge_lengths[edge]
    if callable(data):
        a, b = grid.vertices[grid.edge_nodes[edge]]
        s, w = _GAUSS3
        pts = a[None, :] + s[:, None] * (b - a)[None, :]
        g = np.array([data(p[0], p[1]) for p in pts])
        return np.array(
            [length * np.sum(w * g * (1 - s)), length * np.sum(w * g * s)]
        )
    return np.array([0.5 * length * data, 0.5 * length * data])


def assemble_rhs(grid: FineGrid, f_cells: np.ndarray, bc: BoundarySpec):
    """Right-hand sides and Neumann constraints for the saddle system.

    Returns ``(G, F, constrained_dofs, constrained_vals)``: F_j = -(f, q_j);
    Dirichlet data enters G as -sign * int_e g_D l_dof ds; Neumann DOFs are
    constrained to sign * g_N at their endpoint (global-normal component) and
    must be eliminated by the solver.
    """
    bc.validate(grid)
    f_cells = np.asarray(f_cells, dtype=float)
    if f_cells.shape != (grid.n_cells,):
        raise ValueError(f"source needs {grid.n_cells} cell values, got {f_cells.shape}")
    F = -f_cells * grid.cell_areas
    G = np.zeros(grid.n_dofs)
    for e, data in bc.dirichlet.items():
        sign = grid.edge_boundary_sign[e]
        vals = _edge_integrals(grid, e, data)
        G[2 * e] -= sign * vals[0]
        G[2 * e + 1] -= sign * vals[1]
    dofs = []
    vals = []
    for e, data in bc.neumann.items():
        sign = grid.edge_boundary_sign[e]
        ends = grid.vertices[grid.edge_nodes[e]]
        for k in range(2):
            g = data(ends[k][0], ends[k][1]) if callable(data) else data
            dofs.append(2 * e + k)
            vals.append(sign * g)
    order = np.argsort(dofs) if dofs else []
    constrained = np.array(dofs, dtype=int)[order] if dofs else np.empty(0, dtype=int)
    values = np.array(vals, dtype=float)[order] if dofs else np.empty(0)
    return G, F, constrained, values


def quadrature_norm_matrix(grid: FineGrid,
                           geometry: CornerGeometry | None = None) -> VertexBlockMatrix:
    """Velocity mass matrix of the corner quadrature with unit coefficient."""
    return assemble_velocity_matrix(grid, np.ones(grid.n_cells), geometry=geometry)
