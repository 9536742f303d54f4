"""Per-shape data of the local problems behind offline snapshots and online enrichment.

A local problem lives on a block of fine cells: a coarse element, or the
element grown by some layers and clipped at the domain.  Up to translation,
its mesh, divergence matrix, boundary data and index maps depend only on the
block's extent and on where the element sits inside it, so a uniform
agglomeration has one interior shape and at most eight boundary-clipped
ones.  :func:`snapshot_shape` and :func:`online_shape` build the
coefficient-independent data of each shape once per fine grid, when an
element of that shape first asks for it, keep it in the fine grid's memo,
and place every other element of the shape by index arithmetic.  Every
stage, coarse partition and repetition on one fine grid shares it.  A local
solve then only assembles its coefficient and runs the shape's
:class:`PreparedOperator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# subgrid is looked up on its module at call time, so that code rebinding
# it there (a tracer, a test counting calls) sees these calls.
from . import grid as _grid
from .grid import CoarseGrid, FineGrid, block_indices, rect_boundary_edges
from .solve import PreparedOperator, grid_operator


@dataclass(frozen=True)
class LocalShape:
    """Coefficient-independent data of one local problem shape."""

    grid: FineGrid                 # the block re-meshed as a standalone grid
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
    return grid_operator(grid), data


def _online_shape(grid: FineGrid, element_cells: np.ndarray) -> tuple:
    """Operator of the online problem on T+: zero normal flux on the whole
    boundary, pressure pinned to zero outside the element."""
    bdofs = (2 * grid.boundary_edges[:, None] + np.array([0, 1])).ravel()
    return PreparedOperator(grid, bdofs, kept_cells=element_cells), None


def snapshot_shape(coarse: CoarseGrid, i: int, layers: int = 0) -> tuple:
    """Snapshot problem of element i on its block grown by ``layers``:
    (shape, global cells, global DOFs of the block)."""
    return _place(_snapshot_shape, coarse, i, layers)


def online_shape(coarse: CoarseGrid, i: int) -> tuple:
    """Online problem of element i on T+ (one layer):
    (shape, global cells, global DOFs of the block)."""
    return _place(_online_shape, coarse, i, 1)


def _place(build, coarse: CoarseGrid, i: int, layers: int) -> tuple:
    """The shape of element i's block, from the fine grid's memo.  Shapes are
    keyed by the problem, the block's extent and the element's offset and
    extent inside the block; blocks of one extent share their grid."""
    fine, memo = coarse.fine, coarse.fine.memo
    ox, oy, mx, my = (int(v) for v in coarse.element_rect(i))
    rect = tuple(int(v) for v in coarse.oversample_rect(i, layers))
    inner = (ox - rect[0], oy - rect[1], mx, my)
    key = (build, rect[2], rect[3], *inner)
    shape = memo.get(key)
    if shape is None:
        block = ("block", rect[2], rect[3])
        if block not in memo:
            memo[block] = _grid.subgrid(fine, *rect)
        local = memo[block]
        element_cells, _, element_dofs = block_indices(local, *inner)
        operator, data = build(local, element_cells)
        shape = memo[key] = LocalShape(local, operator, element_cells, element_dofs, data)
    cells, _, dofs = block_indices(fine, *rect)
    return shape, cells, dofs
