"""Independent reference computations used by the tests only.

Nothing here is on a solver path: these are the element kernels written out
one element at a time (bilinear element map, corner geometry, nodal
reference basis, Piola transform, corner velocity), the monolithic dense
saddle-point solve, the explicit constraint elimination that the solvers
do inside their prepared operator, and LAPACK's Cholesky factor of each
vertex block.  The corner geometry is derived from the
grid's vertices, edges and signs by the general bilinear map, not by the
rectangle shortcut the kernels take.  Two views of solver data that only
the tests read live here too: the per-vertex Cholesky factors of a
VertexBlockMatrix and the sparse S of a PreparedOperator, and the scatter
index a one-``bincount`` assembly of the vertex blocks would use.
"""

import warnings

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from msforch.errors import DegenerateElementError, SingularSystemError
from msforch.grid import CORNER_EDGE_END, CORNER_EDGE_LOCAL, ELEMENT_EDGE_SIGNS
from msforch.mfmfe import VertexBlockMatrix, unit_slots, vertex_cholesky

# Reference square corners, counter-clockwise from the origin.
REF_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

# Outward unit normals of the two reference edges meeting at each corner.
# Slot 0 is the vertical edge (x-normal), slot 1 the horizontal edge.
REF_CORNER_NORMALS = np.array(
    [
        [[-1.0, 0.0], [0.0, -1.0]],
        [[+1.0, 0.0], [0.0, -1.0]],
        [[+1.0, 0.0], [0.0, +1.0]],
        [[-1.0, 0.0], [0.0, +1.0]],
    ]
)


def bilinear_map(corners: np.ndarray, xhat: np.ndarray):
    """Map reference points to a physical quadrilateral.

    ``corners`` holds the four physical corners counter-clockwise, ``xhat``
    one or more reference points in [0,1]^2.  Returns ``(x, DF, J)``: the
    physical points, the 2x2 Jacobians and their determinants.  Raises
    :class:`DegenerateElementError` when a determinant is not positive.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.shape != (4, 2):
        raise ValueError(f"corners must have shape (4, 2), got {corners.shape}")
    xhat = np.asarray(xhat, dtype=float)
    scalar_input = xhat.ndim == 1
    pts = np.atleast_2d(xhat)
    xi, eta = pts[:, 0], pts[:, 1]
    r1, r2, r3, r4 = corners
    x = (
        np.outer((1 - xi) * (1 - eta), r1)
        + np.outer(xi * (1 - eta), r2)
        + np.outer(xi * eta, r3)
        + np.outer((1 - xi) * eta, r4)
    )
    dx = np.outer(1 - eta, r2 - r1) + np.outer(eta, r3 - r4)
    dy = np.outer(1 - xi, r4 - r1) + np.outer(xi, r3 - r2)
    DF = np.stack([dx, dy], axis=-1)  # (n, 2, 2), columns are d/dxi, d/deta
    J = DF[:, 0, 0] * DF[:, 1, 1] - DF[:, 0, 1] * DF[:, 1, 0]
    if np.any(J <= 0):
        raise DegenerateElementError(
            f"non-positive Jacobian determinant (min {J.min():.3e})"
        )
    if scalar_input:
        return x[0], DF[0], J[0]
    return x, DF, J


def corner_geometry(grid):
    """(DF, J, t, dofs) at every element corner: the Jacobian
    (n_cells, 4, 2, 2) and its determinant (n_cells, 4) by
    :func:`bilinear_map` at the reference corners, and per DOF slot
    (n_cells, 4, 2) t = sign * |e| and the global DOF, from the grid's
    vertices, element edges, signs and edge lengths alone."""
    DF = np.empty((grid.n_cells, 4, 2, 2))
    J = np.empty((grid.n_cells, 4))
    for c in range(grid.n_cells):
        _, DF[c], J[c] = bilinear_map(grid.vertices[grid.elements[c]], REF_CORNERS)
    edges = grid.element_edges[:, CORNER_EDGE_LOCAL]
    t = ELEMENT_EDGE_SIGNS[CORNER_EDGE_LOCAL] * grid.edge_lengths[edges]
    return DF, J, t, 2 * edges + CORNER_EDGE_END


class SingularCornerError(ValueError):
    """The two edge normals meeting at a corner are parallel."""


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


def saddle_oracle(A, B: sp.spmatrix, G: np.ndarray, F: np.ndarray):
    """Reference solve of the full dense saddle matrix [[A, B], [B^T, 0]].

    Intended as an independent cross-check for small systems; refuses more
    than 5000 unknowns.  Raises :class:`SingularSystemError` on singular
    systems instead of returning garbage.
    """
    n_u, n_p = B.shape
    if n_u + n_p > 5000:
        raise ValueError(f"saddle oracle limited to 5000 unknowns, got {n_u + n_p}")
    K = np.zeros((n_u + n_p, n_u + n_p))
    K[:n_u, :n_u] = to_sparse(A).toarray()
    Bd = np.asarray(B.todense())
    K[:n_u, n_u:] = Bd
    K[n_u:, :n_u] = Bd.T
    b = np.concatenate([G, F])
    # A backward-stable LU passes any residual-vs-(||K|| ||x||) test even on a
    # singular matrix, so escalate the ill-conditioning estimate instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error", la.LinAlgWarning)
        try:
            x = la.solve(K, b)
        except (la.LinAlgError, la.LinAlgWarning) as exc:
            raise SingularSystemError(f"saddle system is singular: {exc}") from exc
    scale = np.linalg.norm(K, ord=np.inf) * np.linalg.norm(x, ord=np.inf) + np.linalg.norm(b)
    if not np.all(np.isfinite(x)) or np.linalg.norm(K @ x - b) > 1e-8 * max(scale, 1e-300):
        raise SingularSystemError("saddle system is numerically singular")
    return x[:n_u], x[n_u:]


def edge_normals(grid) -> np.ndarray:
    """(n_edges, 2) global unit normals by the grid's numbering convention:
    +y for the nx (ny + 1) horizontal edges, then +x for the vertical ones."""
    n_h = grid.nx * (grid.ny + 1)
    normals = np.zeros((grid.n_edges, 2))
    normals[:n_h, 1] = 1.0
    normals[n_h:, 0] = 1.0
    return normals


def to_sparse(A):
    """The VertexBlockMatrix A as a global sparse matrix."""
    vd = A.grid.vertex_dofs
    rows = np.broadcast_to(vd[:, :, None], A.blocks.shape)
    cols = np.broadcast_to(vd[:, None, :], A.blocks.shape)
    mask = (rows >= 0) & (cols >= 0)
    return sp.csr_matrix((A.blocks[mask], (rows[mask], cols[mask])), shape=(A.n_dofs,) * 2)


def corner_scatter_index(grid) -> np.ndarray:
    """Flat position of each corner's (s, l) entry in the (n_vertices, 4, 4)
    vertex-block array, (n_cells, 4, 2, 2): 16 v + 4 slot_s + slot_l, read
    off ``elements`` and ``dof_vslot`` of the corner's two DOFs."""
    slot = grid.dof_vslot[grid.elem_corner_dof]
    return 16 * grid.elements[:, :, None, None] + 4 * slot[..., :, None] + slot[..., None, :]


def with_identity_rows(A, dofs):
    """A copy of the VertexBlockMatrix A with the rows and columns of ``dofs``
    and of the padding slots zeroed and 1 on their diagonal.

    This is the matrix ``vertex_factors(A, dofs)`` factors; it keeps the
    vertex-block structure and symmetry, for solvers that see the
    constrained (Neumann) DOFs eliminated by hand.
    """
    grid = A.grid
    dofs = np.asarray(dofs, dtype=np.int64)
    pad_v, pad_s = np.nonzero(grid.vertex_dofs < 0)
    v = np.concatenate([pad_v, grid.dof_vertex[dofs]])
    s = np.concatenate([pad_s, grid.dof_vslot[dofs]])
    blocks = np.array(A.blocks, dtype=float)
    blocks[v, s, :] = 0.0
    blocks[v, :, s] = 0.0
    blocks[v, s, s] = 1.0
    return VertexBlockMatrix(blocks, grid)


def vertex_factors(A, dofs=()) -> np.ndarray:
    """Lower Cholesky factors (n_vertices, 4, 4) of the blocks of the
    VertexBlockMatrix A, with ``dofs`` eliminated: their rows and columns
    replaced by those of the identity.  A view of :func:`vertex_cholesky`'s
    entry-major factors, with its checks."""
    return vertex_cholesky(A.blocks, unit_slots(A.grid, dofs)).transpose(2, 0, 1)


def schur_matrix(operator, X: np.ndarray) -> sp.csc_matrix:
    """The PreparedOperator's S = sum_v X_v^T X_v in compressed columns,
    numbered in its ``_order``, by a COO scatter apart from its pattern:
    entry [j, k, v] of X_v^T X_v goes to the ranks of the cells at slots
    j and k of vertex v, in (j, k, v) order, padding dropped."""
    n = operator.n_pressure
    rank = operator._rank[operator._cells]
    rows, cols = np.broadcast_arrays(rank[:, None], rank[None])
    kept = (rows < n) & (cols < n)
    values = np.einsum("ijv,ikv->jkv", X, X)[kept]
    return sp.coo_matrix((values, (rows[kept], cols[kept])), shape=(n, n)).tocsc()


def lapack_cholesky(blocks: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of every (4, 4) block, one LAPACK call per block."""
    return np.array([np.linalg.cholesky(b) for b in blocks])


def eliminate_constraints(sys_, A):
    """(A_hat, B_free, G_free): the Neumann constraints of a LinearizedSystem
    eliminated by hand, for solvers that see only free DOFs.

    A_hat has identity rows and columns at the constrained DOFs, B_free has
    their rows zeroed, and G_free = G0 - A lift is zero there; the free
    velocity plus ``sys_.lift`` and the pressure then solve the constrained
    problem with the source ``sys_.F``.
    """
    free = np.ones(sys_.grid.n_dofs)
    free[sys_.cdofs] = 0.0
    G = sys_.G0 - A.matvec(sys_.lift)
    G[sys_.cdofs] = 0.0
    return with_identity_rows(A, sys_.cdofs), (sp.diags(free) @ sys_.B).tocsr(), G
