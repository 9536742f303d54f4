"""Rectangular fine grids, coarse agglomerations and element geometry.

The fine mesh is an axis-aligned tensor grid of ``nx`` by ``ny`` cells.
Geometry helpers go through the bilinear corner map so element kernels can be
exercised on perturbed quadrilaterals, but the builders here only produce
rectangles.

Conventions relied on by every assembly routine downstream:

* cells, vertices and edges are numbered row-major with the bottom row first;
* horizontal edges (global unit normal +y) come before vertical edges (+x);
* each edge carries two velocity degrees of freedom, one per endpoint:
  ``2*edge`` at the left/bottom endpoint and ``2*edge + 1`` at the other;
* element corners are ordered counter-clockwise from the lower left, and the
  element's edges are listed bottom, right, top, left with orientation sign
  +1 exactly when the global edge normal points out of the element.

A velocity DOF value is the normal component of the field with respect to the
*global* edge normal at that endpoint.  Because the two DOFs an element sees
at one of its corners always belong to edges meeting at that mesh vertex, the
corner quadrature used by the velocity bilinear form couples DOFs only within
per-vertex groups; ``vertex_dofs`` records those groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElementError

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

# Local edge index (bottom=0, right=1, top=2, left=3) of the vertical and
# horizontal edge at each corner, and which endpoint of that edge the corner
# is (0 = left/bottom endpoint).
CORNER_EDGE_LOCAL = np.array([[3, 0], [1, 0], [1, 2], [3, 2]])
CORNER_EDGE_END = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])

# Edge orientation signs of an element: bottom, right, top, left.
ELEMENT_EDGE_SIGNS = np.array([-1, 1, 1, -1])


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


@dataclass(frozen=True)
class FineGrid:
    """Axis-aligned rectangular mesh with edge-endpoint velocity DOFs."""

    nx: int
    ny: int
    domain: tuple
    vertices: np.ndarray          # (n_vertices, 2)
    elements: np.ndarray          # (n_cells, 4) vertex ids, counter-clockwise
    edge_nodes: np.ndarray        # (n_edges, 2) endpoint vertex ids
    edge_normals: np.ndarray      # (n_edges, 2) global unit normal
    edge_lengths: np.ndarray      # (n_edges,)
    element_edges: np.ndarray     # (n_cells, 4) edge ids: bottom, right, top, left
    element_edge_signs: np.ndarray  # (n_cells, 4)
    edge_side: np.ndarray         # (n_edges,) -1 interior, 0/1/2/3 bottom/right/top/left
    edge_boundary_sign: np.ndarray  # (n_edges,) sign in the unique adjacent element
    vertex_dofs: np.ndarray       # (n_vertices, 4) dof ids padded with -1
    vertex_degree: np.ndarray     # (n_vertices,)
    dof_vertex: np.ndarray        # (n_dofs,)
    dof_vslot: np.ndarray         # (n_dofs,) slot of the dof inside its vertex block
    cell_areas: np.ndarray        # (n_cells,)
    cell_centers: np.ndarray      # (n_cells, 2)
    # Corner bookkeeping, slot 0 = vertical edge, slot 1 = horizontal edge.
    elem_corner_dof: np.ndarray   # (n_cells, 4, 2)
    elem_corner_sign: np.ndarray  # (n_cells, 4, 2)
    elem_corner_elen: np.ndarray  # (n_cells, 4, 2)
    elem_corner_vslot: np.ndarray  # (n_cells, 4, 2)
    corner_DF: np.ndarray         # (n_cells, 4, 2, 2) Jacobian at each corner
    corner_J: np.ndarray          # (n_cells, 4)

    @property
    def n_cells(self) -> int:
        return self.elements.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_nodes.shape[0]

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_edges

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_side >= 0)

    @property
    def spacing(self) -> tuple:
        x0, x1, y0, y1 = self.domain
        return (x1 - x0) / self.nx, (y1 - y0) / self.ny

    def horizontal_edge(self, ix, iy):
        """Id of the horizontal edge at column ix, row line iy (0..ny)."""
        return iy * self.nx + ix

    def vertical_edge(self, ix, iy):
        """Id of the vertical edge at column line ix (0..nx), row iy."""
        return self.nx * (self.ny + 1) + iy * (self.nx + 1) + ix

    def cell_id(self, ix, iy):
        return iy * self.nx + ix


def build_fine_grid(nx: int, ny: int, domain=(0.0, 1.0, 0.0, 1.0)) -> FineGrid:
    """Build the nx-by-ny rectangular mesh of the given domain."""
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must have at least one cell per direction, got {nx}x{ny}")
    x0, x1, y0, y1 = map(float, domain)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"domain must have positive extent, got {domain}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    vx, vy = np.meshgrid(xs, ys)
    vertices = np.column_stack([vx.ravel(), vy.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    cix, ciy = np.meshgrid(np.arange(nx), np.arange(ny))
    cix, ciy = cix.ravel(), ciy.ravel()
    elements = np.column_stack(
        [vid(cix, ciy), vid(cix + 1, ciy), vid(cix + 1, ciy + 1), vid(cix, ciy + 1)]
    )

    # Horizontal edges first (normal +y), then vertical (normal +x).
    n_h = nx * (ny + 1)
    n_v = (nx + 1) * ny
    hx, hy = np.meshgrid(np.arange(nx), np.arange(ny + 1))
    hx, hy = hx.ravel(), hy.ravel()
    h_nodes = np.column_stack([vid(hx, hy), vid(hx + 1, hy)])
    wx, wy = np.meshgrid(np.arange(nx + 1), np.arange(ny))
    wx, wy = wx.ravel(), wy.ravel()
    v_nodes = np.column_stack([vid(wx, wy), vid(wx, wy + 1)])
    edge_nodes = np.vstack([h_nodes, v_nodes])
    edge_normals = np.vstack(
        [np.tile([0.0, 1.0], (n_h, 1)), np.tile([1.0, 0.0], (n_v, 1))]
    )
    edge_lengths = np.linalg.norm(
        vertices[edge_nodes[:, 1]] - vertices[edge_nodes[:, 0]], axis=1
    )

    def hid(ix, iy):
        return iy * nx + ix

    def wid(ix, iy):
        return n_h + iy * (nx + 1) + ix

    element_edges = np.column_stack(
        [hid(cix, ciy), wid(cix + 1, ciy), hid(cix, ciy + 1), wid(cix, ciy)]
    )
    element_edge_signs = np.tile(ELEMENT_EDGE_SIGNS, (nx * ny, 1))

    edge_side = np.full(n_h + n_v, -1, dtype=np.int8)
    edge_side[hid(hx, hy)[hy == 0]] = 0
    edge_side[hid(hx, hy)[hy == ny]] = 2
    edge_side[wid(wx, wy)[wx == 0]] = 3
    edge_side[wid(wx, wy)[wx == nx]] = 1

    # Sign of each boundary edge in its unique adjacent element.  Interior
    # contributions cancel (+1 and -1), which doubles as a sanity check.
    edge_boundary_sign = np.zeros(n_h + n_v, dtype=np.int64)
    np.add.at(edge_boundary_sign, element_edges.ravel(), element_edge_signs.ravel())
    if np.any(edge_boundary_sign[edge_side < 0] != 0):
        raise AssertionError("interior edge orientation signs do not cancel")

    # Vertex blocks: the DOFs of all edges incident to a vertex, at that
    # endpoint, sorted ascending.  dof i sits at vertex edge_nodes.ravel()[i].
    dof_vertex = edge_nodes.ravel()
    n_vertices = vertices.shape[0]
    order = np.argsort(dof_vertex, kind="stable")
    degree = np.bincount(dof_vertex, minlength=n_vertices)
    offsets = np.concatenate([[0], np.cumsum(degree)])
    dof_vslot = np.empty(dof_vertex.shape[0], dtype=np.int64)
    dof_vslot[order] = np.arange(dof_vertex.shape[0]) - np.repeat(offsets[:-1], degree)
    vertex_dofs = np.full((n_vertices, 4), -1, dtype=np.int64)
    vertex_dofs[dof_vertex[order], dof_vslot[order]] = order

    elem_corner_edge = element_edges[:, CORNER_EDGE_LOCAL]        # (n_c, 4, 2)
    elem_corner_dof = 2 * elem_corner_edge + CORNER_EDGE_END[None, :, :]
    elem_corner_sign = element_edge_signs[:, CORNER_EDGE_LOCAL]
    elem_corner_elen = edge_lengths[elem_corner_edge]
    elem_corner_vslot = dof_vslot[elem_corner_dof]

    P = vertices[elements]  # (n_c, 4, 2)
    xi = REF_CORNERS[:, 0][None, :, None]
    eta = REF_CORNERS[:, 1][None, :, None]
    dx = (P[:, None, 1] - P[:, None, 0]) * (1 - eta) + (P[:, None, 2] - P[:, None, 3]) * eta
    dy = (P[:, None, 3] - P[:, None, 0]) * (1 - xi) + (P[:, None, 2] - P[:, None, 1]) * xi
    corner_DF = np.stack([dx, dy], axis=-1)  # (n_c, 4, 2, 2)
    corner_J = corner_DF[..., 0, 0] * corner_DF[..., 1, 1] - corner_DF[..., 0, 1] * corner_DF[..., 1, 0]
    if np.any(corner_J <= 0):
        raise DegenerateElementError("grid contains an inverted element")

    # Shoelace area and centroid of the corner quadrilateral.
    x_c, y_c = P[..., 0], P[..., 1]
    cross = x_c * np.roll(y_c, -1, axis=1) - np.roll(x_c, -1, axis=1) * y_c
    cell_areas = 0.5 * np.abs(cross.sum(axis=1))
    cell_centers = P.mean(axis=1)

    return FineGrid(
        nx=nx,
        ny=ny,
        domain=(x0, x1, y0, y1),
        vertices=vertices,
        elements=elements,
        edge_nodes=edge_nodes,
        edge_normals=edge_normals,
        edge_lengths=edge_lengths,
        element_edges=element_edges,
        element_edge_signs=element_edge_signs,
        edge_side=edge_side,
        edge_boundary_sign=edge_boundary_sign,
        vertex_dofs=vertex_dofs,
        vertex_degree=degree,
        dof_vertex=dof_vertex,
        dof_vslot=dof_vslot,
        cell_areas=cell_areas,
        cell_centers=cell_centers,
        elem_corner_dof=elem_corner_dof,
        elem_corner_sign=elem_corner_sign,
        elem_corner_elen=elem_corner_elen,
        elem_corner_vslot=elem_corner_vslot,
        corner_DF=corner_DF,
        corner_J=corner_J,
    )


@dataclass(frozen=True)
class Subgrid:
    """A rectangular block of fine cells re-meshed as a standalone grid."""

    grid: FineGrid
    rect: tuple                # (ox, oy, mx, my) in fine-cell indices
    cells: np.ndarray          # local cell -> global cell
    edges: np.ndarray          # local edge -> global edge
    dofs: np.ndarray           # local dof -> global dof


def block_indices(grid: FineGrid, ox: int, oy: int, mx: int, my: int) -> tuple:
    """(cells, edges, dofs) of ``grid`` for the mx-by-my cell block with
    lower-left cell (ox, oy), listed in the numbering of the block's own grid."""
    if not (0 <= ox and ox + mx <= grid.nx and 0 <= oy and oy + my <= grid.ny):
        raise ValueError(f"block ({ox},{oy},{mx},{my}) outside {grid.nx}x{grid.ny} grid")
    # Row-major: x varies fastest.
    ix, iy = ox + np.arange(mx + 1), (oy + np.arange(my + 1))[:, None]
    cells = grid.cell_id(ix[:-1], iy[:-1]).ravel()
    h_edges = grid.horizontal_edge(ix[:-1], iy).ravel()
    v_edges = grid.vertical_edge(ix, iy[:-1]).ravel()
    edges = np.concatenate([h_edges, v_edges])
    dofs = (2 * edges[:, None] + np.array([0, 1])).ravel()
    return cells, edges, dofs


def subgrid(fine: FineGrid, ox: int, oy: int, mx: int, my: int) -> Subgrid:
    """Extract the mx-by-my block of cells with lower-left cell (ox, oy)."""
    cells, edges, dofs = block_indices(fine, ox, oy, mx, my)
    hx, hy = fine.spacing
    x0, _, y0, _ = fine.domain
    local = build_fine_grid(
        mx, my, (x0 + ox * hx, x0 + (ox + mx) * hx, y0 + oy * hy, y0 + (oy + my) * hy)
    )
    return Subgrid(grid=local, rect=(ox, oy, mx, my), cells=cells, edges=edges, dofs=dofs)


def rect_boundary_edges(fine: FineGrid, ox: int, oy: int, mx: int, my: int) -> np.ndarray:
    """Fine edges of a cell block's boundary, counter-clockwise from bottom-left."""
    bottom = [fine.horizontal_edge(ox + i, oy) for i in range(mx)]
    right = [fine.vertical_edge(ox + mx, oy + j) for j in range(my)]
    top = [fine.horizontal_edge(ox + mx - 1 - i, oy + my) for i in range(mx)]
    left = [fine.vertical_edge(ox, oy + my - 1 - j) for j in range(my)]
    return np.array(bottom + right + top + left)


@dataclass(frozen=True)
class CoarseGrid:
    """Uniform agglomeration of fine cells into Nx-by-Ny coarse elements."""

    fine: FineGrid
    Nx: int
    Ny: int
    layers: int
    rects: np.ndarray               # (N_T, 4) lower-left cell and extent
    coarse_elements: list           # fine cell ids per coarse element
    boundary_edges: list            # counter-clockwise fine edges per element
    oversample_rects: np.ndarray    # clipped rects for `layers` extra cells
    oversample_cells: list

    @property
    def n_elements(self) -> int:
        return self.Nx * self.Ny

    def element_rect(self, i):
        return tuple(self.rects[i])

    def oversample_rect(self, i, layers):
        """Rect of element i grown by `layers` fine cells, clipped at the domain."""
        ox, oy, mx, my = self.rects[i]
        fine = self.fine
        ax, ay = max(ox - layers, 0), max(oy - layers, 0)
        bx, by = min(ox + mx + layers, fine.nx), min(oy + my + layers, fine.ny)
        return ax, ay, bx - ax, by - ay


def build_coarse_grid(fine: FineGrid, Nx: int, Ny: int, layers: int = 0) -> CoarseGrid:
    """Agglomerate the fine grid into Nx-by-Ny rectangular coarse elements."""
    if Nx < 1 or Ny < 1:
        raise ValueError(f"coarse grid must be at least 1x1, got {Nx}x{Ny}")
    if fine.nx % Nx or fine.ny % Ny:
        raise ValueError(
            f"coarse {Nx}x{Ny} does not divide fine {fine.nx}x{fine.ny}"
        )
    if layers < 0:
        raise ValueError("layers must be non-negative")
    mx, my = fine.nx // Nx, fine.ny // Ny
    rects = np.array(
        [(iX * mx, iY * my, mx, my) for iY in range(Ny) for iX in range(Nx)]
    )
    cells = []
    bnd = []
    for ox, oy, w, h in rects:
        lix, liy = np.meshgrid(np.arange(w), np.arange(h))
        cells.append(fine.cell_id(ox + lix.ravel(), oy + liy.ravel()))
        bnd.append(rect_boundary_edges(fine, ox, oy, w, h))
    coarse = CoarseGrid(
        fine=fine,
        Nx=Nx,
        Ny=Ny,
        layers=layers,
        rects=rects,
        coarse_elements=cells,
        boundary_edges=bnd,
        oversample_rects=np.zeros((Nx * Ny, 4), dtype=int),
        oversample_cells=[],
    )
    os_rects = np.array([coarse.oversample_rect(i, layers) for i in range(Nx * Ny)])
    os_cells = []
    for ox, oy, w, h in os_rects:
        lix, liy = np.meshgrid(np.arange(w), np.arange(h))
        os_cells.append(fine.cell_id(ox + lix.ravel(), oy + liy.ravel()))
    object.__setattr__(coarse, "oversample_rects", os_rects)
    object.__setattr__(coarse, "oversample_cells", os_cells)
    return coarse
