"""Mesh construction, numbering invariants and coarse agglomeration."""

import numpy as np
import pytest

from msforch.errors import DegenerateElementError
from msforch.grid import (
    CORNER_EDGE_END,
    CORNER_EDGE_LOCAL,
    ELEMENT_EDGE_SIGNS,
    block_indices,
    build_coarse_grid,
    build_fine_grid,
    rect_boundary_edges,
    subgrid,
)

from oracles import REF_CORNERS, bilinear_map


def test_single_element_counts():
    g = build_fine_grid(1, 1)
    assert g.n_vertices == 4
    assert g.n_edges == 4
    assert g.n_dofs == 8
    assert g.n_cells == 1


def test_large_grid_counts():
    g = build_fine_grid(100, 100)
    assert g.n_cells == 10000
    assert g.n_edges == 20200  # 2 * 100 * 101
    assert g.n_dofs == 40400


def test_two_by_one_vertex_degrees():
    g = build_fine_grid(2, 1, domain=(0.0, 2.0, 0.0, 1.0))
    # No interior vertices; the two vertices on the shared vertical edge have
    # three incident edges, the four outer corners two.
    degree = (g.vertex_dofs >= 0).sum(axis=1)
    assert np.all(degree <= 3)
    assert np.count_nonzero(degree == 3) == 2
    assert np.count_nonzero(degree == 2) == 4
    shared = g.vertical_edge(1, 0)
    assert g.edge_side[shared] == -1  # interior


def test_vertex_degree_classes():
    g = build_fine_grid(4, 3)
    degree = (g.vertex_dofs >= 0).sum(axis=1)
    interior = np.count_nonzero(degree == 4)
    boundary = np.count_nonzero(degree == 3)
    corner = np.count_nonzero(degree == 2)
    assert interior == 3 * 2  # (nx-1)(ny-1)
    assert corner == 4
    assert boundary == g.n_vertices - interior - corner
    assert interior + boundary + corner == g.n_vertices


def test_dofs_partition_into_vertex_blocks():
    g = build_fine_grid(5, 4)
    ids = g.vertex_dofs[g.vertex_dofs >= 0]
    assert len(ids) == g.n_dofs
    assert np.array_equal(np.sort(ids), np.arange(g.n_dofs))
    # block slots match vertex degree (incident edges per vertex)
    degree = np.bincount(g.edge_nodes.ravel(), minlength=g.n_vertices)
    assert np.array_equal((g.vertex_dofs >= 0).sum(axis=1), degree)


def test_interior_edges_have_opposite_signs():
    g = build_fine_grid(3, 3)
    seen = {}
    for c in range(g.n_cells):
        for e, s in zip(g.element_edges[c], ELEMENT_EDGE_SIGNS):
            seen.setdefault(int(e), []).append(int(s))
    for e, signs in seen.items():
        if g.edge_side[e] == -1:
            assert sorted(signs) == [-1, 1]
        else:
            assert len(signs) == 1


def test_determinism():
    a = build_fine_grid(7, 5, domain=(0.0, 2.0, -1.0, 1.0))
    b = build_fine_grid(7, 5, domain=(0.0, 2.0, -1.0, 1.0))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.element_edges, b.element_edges)
    assert np.array_equal(a.vertex_dofs, b.vertex_dofs)


def test_invalid_grid_arguments():
    with pytest.raises(ValueError):
        build_fine_grid(0, 4)
    with pytest.raises(ValueError):
        build_fine_grid(4, 4, domain=(0.0, 0.0, 0.0, 1.0))
    for bad in ((0.0, np.inf, 0.0, 1.0), (-np.inf, 1.0, 0.0, 1.0), (0.0, 1.0, np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            build_fine_grid(4, 4, domain=bad)


def test_collapsed_cells_rejected():
    # Spacing 0.5 rounds to nothing at 1e16, so neighbouring vertices coincide.
    with pytest.raises(DegenerateElementError):
        build_fine_grid(4, 1, (1e16, 1e16 + 2, 0, 1))


def test_cell_areas_far_from_origin():
    """Each area is the product of the cell's vertex-coordinate differences,
    which stays exact where a shoelace sum of large cross products cancels."""
    g = build_fine_grid(4, 4, (1e6, 1e6 + 0.04, 1e6, 1e6 + 0.04))
    P = g.vertices[g.elements]
    want = (P[:, 1, 0] - P[:, 0, 0]) * (P[:, 3, 1] - P[:, 0, 1])
    assert np.all(np.abs(g.cell_areas - want) <= 1e-15 * want)
    assert g.cell_areas.sum() == pytest.approx(0.04 * 0.04, rel=1e-8)


def test_bilinear_map_identity_element():
    x, DF, J = bilinear_map(REF_CORNERS, np.array([0.5, 0.5]))
    assert np.allclose(x, [0.5, 0.5])
    assert np.allclose(DF, np.eye(2))
    assert J == pytest.approx(1.0)


def test_bilinear_map_affine_scaling():
    corners = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    for xhat in ([0.0, 0.0], [0.3, 0.8], [1.0, 1.0]):
        _, DF, J = bilinear_map(corners, np.array(xhat))
        assert np.allclose(DF, np.diag([2.0, 1.0]))
        assert J == pytest.approx(2.0)


def test_bilinear_map_perturbed_quad():
    # Move r4 by (0.1, 0); at r1 the Jacobian columns are the edge vectors
    # r2-r1 and r4-r1, so J(r1) is their cross product.
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.1, 1.0]])
    _, DF, J = bilinear_map(corners, np.array([0.0, 0.0]))
    e1 = corners[1] - corners[0]
    e2 = corners[3] - corners[0]
    assert J == pytest.approx(e1[0] * e2[1] - e1[1] * e2[0])
    # J varies over the reference square for a non-parallelogram
    _, _, J2 = bilinear_map(corners, np.array([1.0, 1.0]))
    assert abs(J2 - J) > 1e-12


def test_bilinear_map_degenerate():
    # reversed orientation gives negative determinant
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateElementError):
        bilinear_map(corners, np.array([0.5, 0.5]))


def test_coarse_partition_100x100():
    fine = build_fine_grid(100, 100)
    coarse = build_coarse_grid(fine, 10, 10)
    assert coarse.n_elements == 100
    all_cells = np.concatenate(coarse.coarse_elements)
    assert len(all_cells) == fine.n_cells
    assert np.array_equal(np.sort(all_cells), np.arange(fine.n_cells))
    for i in range(coarse.n_elements):
        edges = rect_boundary_edges(fine, *coarse.element_rect(i))
        assert len(edges) == 40  # 4 * 10 fine edges around a 10x10 block
    area = sum(fine.cell_areas[c].sum() for c in coarse.coarse_elements)
    x0, x1, y0, y1 = fine.domain
    assert area == pytest.approx((x1 - x0) * (y1 - y0), rel=1e-14)


def test_coarse_160x60():
    fine = build_fine_grid(160, 60, domain=(0.0, 8.0 / 3.0, 0.0, 1.0))
    coarse = build_coarse_grid(fine, 16, 6)
    assert coarse.n_elements == 96


def test_oversample_clipping():
    fine = build_fine_grid(100, 100)
    coarse = build_coarse_grid(fine, 10, 10)
    # interior element: (10+2)^2 cells; corner element: (10+1)^2
    interior = block_indices(fine, *coarse.oversample_rect(11, 1))[0]
    corner = block_indices(fine, *coarse.oversample_rect(0, 1))[0]
    assert len(interior) == 144
    assert len(corner) == 121
    # T_i is contained in T_i+
    assert set(coarse.coarse_elements[11]).issubset(set(interior))
    assert set(coarse.coarse_elements[0]).issubset(set(corner))


@pytest.mark.parametrize("n, N", [((12, 8), (3, 2)), ((7, 5), (7, 1))])
def test_coarse_element_cells_row_major(n, N):
    """A coarse element lists its fine cells row-major, bottom row first."""
    fine = build_fine_grid(*n)
    coarse = build_coarse_grid(fine, *N)
    for i, cells in enumerate(coarse.coarse_elements):
        ox, oy, mx, my = coarse.element_rect(i)
        want = [fine.cell_id(ox + a, oy + b) for b in range(my) for a in range(mx)]
        assert cells.dtype == np.int64 and cells.tolist() == want


def test_coarse_requires_divisibility():
    fine = build_fine_grid(10, 10)
    with pytest.raises(ValueError):
        build_coarse_grid(fine, 3, 2)


def test_boundary_edges_counter_clockwise():
    fine = build_fine_grid(4, 4)
    edges = rect_boundary_edges(fine, 0, 0, 2, 2)
    assert len(edges) == 8
    expected = [
        fine.horizontal_edge(0, 0), fine.horizontal_edge(1, 0),   # bottom
        fine.vertical_edge(2, 0), fine.vertical_edge(2, 1),       # right
        fine.horizontal_edge(1, 2), fine.horizontal_edge(0, 2),   # top
        fine.vertical_edge(0, 1), fine.vertical_edge(0, 0),       # left
    ]
    assert np.array_equal(edges, expected)


def test_subgrid_index_maps():
    fine = build_fine_grid(6, 4, domain=(0.0, 3.0, 0.0, 2.0))
    sub = subgrid(fine, 2, 1, 3, 2)
    cells, edges, dofs = block_indices(fine, 2, 1, 3, 2)
    assert sub.n_cells == 6
    assert len(cells) == 6
    assert len(edges) == sub.n_edges
    assert len(dofs) == sub.n_dofs
    # geometry of the local grid matches the carved-out block
    assert np.allclose(
        sub.cell_centers, fine.cell_centers[cells]
    )
    assert np.allclose(
        sub.edge_lengths, fine.edge_lengths[edges]
    )
    with pytest.raises(ValueError):
        subgrid(fine, 5, 0, 3, 2)


def test_corner_indices_are_int32():
    """The corner DOF ids and the vertex-block scatter index are stored in
    the index type ``index_dtype`` picks for their range."""
    g = build_fine_grid(7, 5)
    assert g.elem_corner_dof.dtype == g.corner_index.dtype == np.int32
    corner_edges = g.element_edges[:, CORNER_EDGE_LOCAL]
    assert np.array_equal(g.elem_corner_dof, 2 * corner_edges + CORNER_EDGE_END)
