"""Rectangular fine grids, coarse agglomerations and element geometry.

The fine mesh is an axis-aligned tensor grid of ``nx`` by ``ny`` cells.

Conventions relied on by every assembly routine downstream:

* cells, vertices and edges are numbered row-major with the bottom row first,
  vertex (ix, iy) as ``iy*(nx + 1) + ix``;
* horizontal edges (global unit normal +y) come before vertical edges (+x);
* each edge carries two velocity degrees of freedom, one per endpoint:
  ``2*edge`` at the left/bottom endpoint and ``2*edge + 1`` at the other;
* element corners are ordered counter-clockwise from the lower left, and the
  element's edges are listed bottom, right, top, left with orientation sign
  +1 exactly when the global edge normal points out of the element.

All of it is arithmetic from one vertex v: the cell c with lower-left vertex
v has corners v + (0, 1, nx + 2, nx + 1), its ``CORNER_OFFSETS``, and edges
(c, left + 1, c + nx, left) with left = nx*(ny + 1) + c + c // nx; the
horizontal edge starting at v ends at v + 1, the vertical one at v + nx + 1.
A boundary edge's ``edge_side`` is its local edge number in its one cell, so
``ELEMENT_EDGE_SIGNS[side]`` is its sign there.

A velocity DOF value is the normal component of the field with respect to the
*global* edge normal at that endpoint.  Because the two DOFs an element sees
at one of its corners always belong to edges meeting at that mesh vertex, the
corner quadrature used by the velocity bilinear form couples DOFs only within
per-vertex groups; ``vertex_dofs`` records those groups.

Every cell is an axis-aligned rectangle, so its bilinear map is diagonal
with determinant ``cell_areas`` at every corner.  The corner quadrature then
needs no per-cell factors: the velocity at corner k of cell c is
``(U[d0], U[d1])`` with ``(d0, d1) = elem_corner_dof[c, k]``, the DOFs of
the vertical edge (x component) and of the horizontal edge (y component),
and the corner weighs ``cell_areas[c] / 4``.  Vertex-block slots are
geometric: 0 and 1 hold the horizontal edges left and right of the vertex,
2 and 3 the vertical edges below and above it (-1 where missing), so every
cell's corner k holds its vertex's slots ``CORNER_SLOTS[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElementError

# Local edge index (bottom=0, right=1, top=2, left=3) of the vertical and
# horizontal edge at each corner, and which endpoint of that edge the corner
# is (0 = left/bottom endpoint).
CORNER_EDGE_LOCAL = np.array([[3, 0], [1, 0], [1, 2], [3, 2]])
CORNER_EDGE_END = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
# Their vertex-block slots, and the corner's (dx, dy) from the cell's lower left.
CORNER_SLOTS = np.array([[3, 1], [3, 0], [2, 0], [2, 1]])
CORNER_OFFSETS = ((0, 0), (1, 0), (1, 1), (0, 1))

# Edge orientation signs of an element: bottom, right, top, left.
ELEMENT_EDGE_SIGNS = np.array([-1, 1, 1, -1])


def index_dtype(size: int):
    """int32 for flat indices below 2**31, else int64."""
    return np.int32 if size < 2**31 else np.int64


@dataclass(frozen=True)
class FineGrid:
    """Axis-aligned rectangular mesh with edge-endpoint velocity DOFs."""

    nx: int
    ny: int
    domain: tuple
    vertices: np.ndarray          # (n_vertices, 2)
    elements: np.ndarray          # (n_cells, 4) lower-left vertex + CORNER_OFFSETS, ccw
    edge_nodes: np.ndarray        # (n_edges, 2) endpoint vertex ids, left/bottom first
    edge_lengths: np.ndarray      # (n_edges,)
    element_edges: np.ndarray     # (n_cells, 4) edge ids: bottom, right, top, left
    edge_side: np.ndarray         # (n_edges,) -1 interior, else its local edge: 0 bottom..3 left
    edge_boundary_sign: np.ndarray  # (n_edges,) ELEMENT_EDGE_SIGNS[edge_side], 0 interior
    vertex_dofs: np.ndarray       # (n_vertices, 4) dof ids by geometric slot, -1 if no edge
    dof_vertex: np.ndarray        # (n_dofs,)
    dof_vslot: np.ndarray         # (n_dofs,) geometric slot: [1, 0] horizontal, [3, 2] vertical
    cell_areas: np.ndarray        # (n_cells,)
    cell_centers: np.ndarray      # (n_cells, 2)
    # Corner DOFs, slot 0 = vertical edge (x), slot 1 = horizontal edge (y).
    elem_corner_dof: np.ndarray   # (n_cells, 4, 2)
    # What other modules derive from this grid object on first use and reuse
    # for its lifetime: its divergence matrix and prepared operators (filled by
    # msforch.solve), its local problem shapes and their block grids (msforch.local).
    memo: dict = field(default_factory=dict, compare=False, repr=False)

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
        raise ValueError(f"grid must have at least one cell per axis, got {nx}x{ny}")
    x0, x1, y0, y1 = map(float, domain)
    if not (np.isfinite([x0, x1, y0, y1]).all() and x1 > x0 and y1 > y0):
        raise ValueError(f"domain must be finite with positive extent, got {domain}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    widths, heights = np.diff(xs), np.diff(ys)
    # Far from the origin linspace can collapse neighbouring vertices, and a
    # tiny or huge extent takes the corner weights |T|/4 or the squared edge
    # lengths |e|^2 and (|e|/2)^2 out of the normal float range: short^2 / 4
    # and long^2 bound them, in Python floats, which leave it without a warning.
    short, long = (float(f(np.concatenate([widths, heights]))) for f in (np.min, np.max))
    if not (short > 0.0 and short * short / 4 >= np.finfo(float).tiny and long * long < np.inf):
        raise DegenerateElementError(
            "grid contains a cell of zero or negative width or height, or one whose "
            "area or squared edge length leaves the normal float range")
    vx, vy = np.meshgrid(xs, ys)
    vertices = np.column_stack([vx.ravel(), vy.ravel()])

    # Each number is an offset from its cell's or edge's first vertex (module docstring).
    row = nx + 1
    v = np.arange((ny + 1) * row).reshape(ny + 1, row)
    elements = v[:-1, :-1].reshape(-1, 1) + np.array([dx + dy * row for dx, dy in CORNER_OFFSETS])
    h_left, w_bottom = v[:, :-1].ravel(), v[:-1].ravel()
    edge_nodes = np.vstack([np.column_stack([h_left, h_left + 1]),
                            np.column_stack([w_bottom, w_bottom + row])])
    edge_lengths = np.linalg.norm(
        vertices[edge_nodes[:, 1]] - vertices[edge_nodes[:, 0]], axis=1
    )

    n_h = nx * (ny + 1)
    c = np.arange(nx * ny)
    left = n_h + c + c // nx
    element_edges = np.column_stack([c, left + 1, c + nx, left])

    # Sides are numbered as a cell's local edges, so each side names its sign.
    edge_side = np.full(edge_nodes.shape[0], -1, dtype=np.int8)
    h_side, w_side = edge_side[:n_h].reshape(ny + 1, nx), edge_side[n_h:].reshape(ny, row)
    h_side[0], w_side[:, -1], h_side[-1], w_side[:, 0] = 0, 1, 2, 3
    edge_boundary_sign = np.append(ELEMENT_EDGE_SIGNS, 0)[edge_side]

    elem_corner_dof = 2 * element_edges[:, CORNER_EDGE_LOCAL] + CORNER_EDGE_END

    # Vertex blocks: every DOF is some corner's, in that corner's geometric slot.
    dof_vertex = edge_nodes.ravel()
    dof_vslot = np.empty(dof_vertex.shape[0], dtype=np.int64)
    dof_vslot[elem_corner_dof] = CORNER_SLOTS
    vertex_dofs = np.full((vertices.shape[0], 4), -1, dtype=np.int64)
    vertex_dofs[dof_vertex, dof_vslot] = np.arange(dof_vertex.shape[0])

    cell_areas = np.outer(heights, widths).ravel()
    cell_centers = vertices[elements].mean(axis=1)

    return FineGrid(
        nx=nx,
        ny=ny,
        domain=(x0, x1, y0, y1),
        vertices=vertices,
        elements=elements,
        edge_nodes=edge_nodes,
        edge_lengths=edge_lengths,
        element_edges=element_edges,
        edge_side=edge_side,
        edge_boundary_sign=edge_boundary_sign,
        vertex_dofs=vertex_dofs,
        dof_vertex=dof_vertex,
        dof_vslot=dof_vslot,
        cell_areas=cell_areas,
        cell_centers=cell_centers,
        elem_corner_dof=elem_corner_dof.astype(index_dtype(2 * edge_nodes.shape[0])),
    )


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


def subgrid(fine: FineGrid, ox: int, oy: int, mx: int, my: int) -> FineGrid:
    """The mx-by-my block of cells with lower-left cell (ox, oy) as a standalone
    grid, numbered as :func:`block_indices` lists the block; ValueError if outside."""
    if not (0 <= ox and ox + mx <= fine.nx and 0 <= oy and oy + my <= fine.ny):
        raise ValueError(f"block ({ox},{oy},{mx},{my}) outside {fine.nx}x{fine.ny} grid")
    hx, hy = fine.spacing
    x0, _, y0, _ = fine.domain
    return build_fine_grid(
        mx, my, (x0 + ox * hx, x0 + (ox + mx) * hx, y0 + oy * hy, y0 + (oy + my) * hy)
    )


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
    rects: np.ndarray               # (N_T, 4) lower-left cell and extent
    coarse_elements: list           # fine cell ids per coarse element

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


def build_coarse_grid(fine: FineGrid, Nx: int, Ny: int) -> CoarseGrid:
    """Agglomerate the fine grid into Nx-by-Ny rectangular coarse elements."""
    if Nx < 1 or Ny < 1:
        raise ValueError(f"coarse grid must be at least 1x1, got {Nx}x{Ny}")
    if fine.nx % Nx or fine.ny % Ny:
        raise ValueError(
            f"coarse {Nx}x{Ny} does not divide fine {fine.nx}x{fine.ny}"
        )
    mx, my = fine.nx // Nx, fine.ny // Ny
    rects = np.array(
        [(iX * mx, iY * my, mx, my) for iY in range(Ny) for iX in range(Nx)]
    )
    cells = [block_indices(fine, *rect)[0] for rect in rects]
    return CoarseGrid(fine=fine, Nx=Nx, Ny=Ny, rects=rects, coarse_elements=cells)
