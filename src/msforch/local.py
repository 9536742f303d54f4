"""Per-shape data of the local problems behind offline snapshots and online enrichment.

A local problem lives on a block of fine cells: a coarse element, or the
element grown by some layers and clipped at the domain.  Up to translation,
its mesh, divergence matrix, boundary data and index maps depend only on the
block's extent and on where the element sits inside it, so a uniform
agglomeration has one interior shape and at most eight boundary-clipped
ones.  :class:`LocalShapes` builds the coefficient-independent data of each
shape once, when an element of that shape first asks for it, and places
every other element of the shape by index arithmetic.  A local solve then
only assembles its coefficient and runs the shape's
:class:`PreparedOperator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# subgrid and assemble_divergence are looked up on their modules at call
# time, so that code rebinding them there (a tracer, a test counting calls)
# sees these calls.
from . import grid as _grid
from . import mfmfe as _mfmfe
from .grid import CoarseGrid, FineGrid, block_indices, rect_boundary_edges
from .mfmfe import CornerGeometry, corner_geometry
from .solve import PreparedOperator


@dataclass(frozen=True)
class LocalShape:
    """Coefficient-independent data of one local problem shape."""

    grid: FineGrid                 # the block re-meshed as a standalone grid
    geometry: CornerGeometry       # corner factors of ``grid``
    operator: PreparedOperator     # velocity elimination of the local problem
    element_cells: np.ndarray      # block-local ids of the element's cells, element order
    element_dofs: np.ndarray       # block-local ids of the element's DOFs, element order
    data: np.ndarray | None        # snapshot boundary-data columns (n_dofs, n_edges)


def _snapshot_shape(grid: FineGrid, element_cells: np.ndarray) -> tuple:
    """Operator and data of the snapshot problems: Dirichlet pressure datum
    equal to the indicator of one boundary fine edge per column, zero source."""
    edges = rect_boundary_edges(grid, 0, 0, grid.nx, grid.ny)
    half = -0.5 * grid.edge_boundary_sign[edges] * grid.edge_lengths[edges]
    data = np.zeros((grid.n_dofs, edges.size))
    columns = np.arange(edges.size)
    data[2 * edges, columns] = half
    data[2 * edges + 1, columns] = half
    return PreparedOperator(grid, _mfmfe.assemble_divergence(grid)), data


def _online_shape(grid: FineGrid, element_cells: np.ndarray) -> tuple:
    """Operator of the online problem on T+: zero normal flux on the whole
    boundary, pressure pinned to zero outside the element."""
    bdofs = (2 * grid.boundary_edges[:, None] + np.array([0, 1])).ravel()
    free = np.ones(grid.n_dofs)
    free[bdofs] = 0.0
    Bfree = (sp.diags(free) @ _mfmfe.assemble_divergence(grid)).tocsr()
    return PreparedOperator(grid, Bfree, bdofs, kept_cells=element_cells), None


class LocalShapes:
    """Per-shape local problem data of one coarse grid, built on first use.

    Shapes are keyed by the problem, the block's extent and the element's
    offset and extent inside the block; blocks of one extent share their
    grid and corner geometry.
    """

    def __init__(self, coarse: CoarseGrid):
        self.coarse = coarse
        self._shapes = {}
        self._grids = {}

    def snapshot(self, i: int, layers: int = 0) -> tuple:
        """Snapshot problem of element i on its block grown by ``layers``:
        (shape, global cells, global DOFs of the block)."""
        return self._place(_snapshot_shape, i, layers)

    def online(self, i: int) -> tuple:
        """Online problem of element i on T+ (one layer):
        (shape, global cells, global DOFs of the block)."""
        return self._place(_online_shape, i, 1)

    def _place(self, build, i: int, layers: int) -> tuple:
        fine = self.coarse.fine
        ox, oy, mx, my = (int(v) for v in self.coarse.element_rect(i))
        rect = tuple(int(v) for v in self.coarse.oversample_rect(i, layers))
        inner = (ox - rect[0], oy - rect[1], mx, my)
        key = (build, rect[2], rect[3], *inner)
        shape = self._shapes.get(key)
        if shape is None:
            if rect[2:] not in self._grids:
                local = _grid.subgrid(fine, *rect).grid
                self._grids[rect[2:]] = local, corner_geometry(local)
            local, geometry = self._grids[rect[2:]]
            element_cells, _, element_dofs = block_indices(local, *inner)
            operator, data = build(local, element_cells)
            shape = LocalShape(local, geometry, operator, element_cells, element_dofs, data)
            self._shapes[key] = shape
        cells, _, dofs = block_indices(fine, *rect)
        return shape, cells, dofs
