"""Element kernels: reference basis, Piola transform, quadrature assembly.

The symbolic oracles re-derive the nodal basis with exact rational arithmetic
(sympy) from nothing but the DOF definition, so they are independent of the
float linear algebra used by the implementation.
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from msforch.errors import AssemblyError, ConfigurationError
from msforch.grid import build_fine_grid
from msforch.mfmfe import (
    _GAUSS3 as GAUSS3,
    BoundarySpec,
    VertexBlockMatrix,
    all_dirichlet_spec,
    assemble_divergence,
    assemble_rhs,
    assemble_velocity_matrix,
    corner_coefficient,
    corner_velocities,
    divergence_blocks,
    five_spot,
    left_right_spec,
    linearize,
    no_flow_spec,
    quadrature_norm_matrix,
    unit_slots,
    vertex_cells,
    vertex_cholesky,
)

from oracles import (
    REF_CORNER_NORMALS,
    REF_CORNERS,
    SingularCornerError,
    corner_geometry,
    corner_scatter_index,
    corner_velocity,
    edge_normals,
    lapack_cholesky,
    piola,
    reference_basis,
    reference_divergence,
    to_sparse,
    vertex_factors,
    with_identity_rows,
)

# The 8 generators of the velocity space on the reference square: P1 vector
# polynomials plus the two curl bubbles curl(x^2 y) and curl(x y^2).
_X, _Y = sympy.symbols("x y")
_GENERATORS = [
    (sympy.Integer(1), sympy.Integer(0)),
    (_X, sympy.Integer(0)),
    (_Y, sympy.Integer(0)),
    (sympy.Integer(0), sympy.Integer(1)),
    (sympy.Integer(0), _X),
    (sympy.Integer(0), _Y),
    (_X**2, -2 * _X * _Y),
    (2 * _X * _Y, -(_Y**2)),
]


def _symbolic_nodal_basis():
    """Exact nodal basis functions keyed by (corner, slot), via sympy."""
    D = sympy.zeros(8, 8)
    for s in range(4):
        rx, ry = [sympy.Rational(v) for v in REF_CORNERS[s]]
        for l in range(2):
            n = REF_CORNER_NORMALS[s, l]
            for k, (gx, gy) in enumerate(_GENERATORS):
                val = n[0] * gx + n[1] * gy
                D[2 * s + l, k] = sympy.Rational(val.subs({_X: rx, _Y: ry}))
    C = D.inv()
    basis = {}
    for s in range(4):
        for l in range(2):
            col = C[:, 2 * s + l]
            fx = sum(col[k] * _GENERATORS[k][0] for k in range(8))
            fy = sum(col[k] * _GENERATORS[k][1] for k in range(8))
            basis[(s, l)] = (sympy.expand(fx), sympy.expand(fy))
    return basis


_SYM_BASIS = _symbolic_nodal_basis()


def test_kronecker_property():
    for i in range(4):
        for j in range(2):
            v = reference_basis(i, j)
            for s in range(4):
                vals = v(REF_CORNERS[s])
                for l in range(2):
                    want = 1.0 if (s, l) == (i, j) else 0.0
                    got = float(REF_CORNER_NORMALS[s, l] @ vals)
                    assert got == pytest.approx(want, abs=1e-13)


def test_basis_dimension():
    pts = np.random.default_rng(1).random((4, 2))
    cols = []
    for i in range(4):
        for j in range(2):
            v = reference_basis(i, j)
            cols.append(np.concatenate([v(p) for p in pts]))
    assert np.linalg.matrix_rank(np.column_stack(cols)) == 8


def test_basis_matches_symbolic_solution():
    rng = np.random.default_rng(7)
    pts = rng.random((6, 2))
    for (i, j), (fx, fy) in _SYM_BASIS.items():
        v = reference_basis(i, j)
        for p in pts:
            want = [float(fx.subs({_X: p[0], _Y: p[1]})),
                    float(fy.subs({_X: p[0], _Y: p[1]}))]
            assert np.allclose(v(p), want, atol=1e-13)


def test_reference_divergence_symbolic():
    for (i, j), (fx, fy) in _SYM_BASIS.items():
        div = sympy.expand(sympy.diff(fx, _X) + sympy.diff(fy, _Y))
        # the divergence of every nodal function is constant on the square
        assert div.free_symbols == set()
        assert reference_divergence(i, j) == pytest.approx(float(div), abs=1e-14)


def test_invalid_basis_index():
    with pytest.raises(ValueError):
        reference_basis(4, 0)
    with pytest.raises(ValueError):
        reference_basis(0, 2)


def _edge_flux(field, a, b):
    """5-point Gauss integral of field . n along the segment a->b (n = CCW outward)."""
    s, w = np.polynomial.legendre.leggauss(5)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    a, b = np.asarray(a, float), np.asarray(b, float)
    t = b - a
    n = np.array([t[1], -t[0]])  # rotate tangent -90 deg: outward for CCW loops
    total = 0.0
    for si, wi in zip(s, w):
        total += wi * float(field(a + si * t) @ n)
    return total


def test_piola_identity_element():
    mapped = piola(REF_CORNERS, reference_basis(2, 1))
    rng = np.random.default_rng(3)
    for p in rng.random((5, 2)):
        x, v = mapped(p)
        assert np.allclose(x, p)
        assert np.allclose(v, reference_basis(2, 1)(p), atol=1e-14)


@pytest.mark.parametrize("quad", [
    np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]),  # diag(2,1) scaling
    "random",
])
def test_piola_preserves_edge_fluxes(quad):
    rng = np.random.default_rng(11)
    quads = (
        [quad] if isinstance(quad, np.ndarray)
        else [REF_CORNERS + rng.uniform(-0.15, 0.15, (4, 2)) for _ in range(3)]
    )
    for corners in quads:
        for i in range(4):
            for j in range(2):
                vhat = reference_basis(i, j)
                mapped = piola(corners, vhat)
                field = lambda p: mapped(p)[1]
                for e in range(4):
                    ref_flux = _edge_flux(vhat, REF_CORNERS[e], REF_CORNERS[(e + 1) % 4])
                    # same reference edge parameterization on the physical quad
                    s5, w5 = np.polynomial.legendre.leggauss(5)
                    s5 = 0.5 * (s5 + 1.0)
                    w5 = 0.5 * w5
                    phys = 0.0
                    a_hat, b_hat = REF_CORNERS[e], REF_CORNERS[(e + 1) % 4]
                    for si, wi in zip(s5, w5):
                        xh = a_hat + si * (b_hat - a_hat)
                        x0, v = mapped(xh)
                        eps = 1e-6
                        x1 = mapped(a_hat + (si + eps) * (b_hat - a_hat))[0]
                        tang = (x1 - x0) / eps
                        nrm = np.array([tang[1], -tang[0]])
                        phys += wi * float(v @ nrm)
                    assert phys == pytest.approx(ref_flux, abs=2e-7)


def test_corner_velocity_rectangle():
    corners = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    # corner 1 (lower right): vertical edge outward +x, horizontal outward -y
    w, speed = corner_velocity(corners, 1, np.array([3.0, -4.0]))
    assert np.allclose(w, [3.0, 4.0])
    assert speed == pytest.approx(5.0)


def test_corner_velocity_unit_square_orthonormal():
    w, speed = corner_velocity(REF_CORNERS, 2, np.array([0.6, 0.8]))
    assert np.allclose(w, [0.6, 0.8])  # outward normals are +x and +y
    assert speed == pytest.approx(1.0)


def test_corner_velocity_singular():
    # left and bottom edges collinear at corner 0 -> parallel normals
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(SingularCornerError):
        corner_velocity(corners, 0, np.array([1.0, 1.0]))


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 9), ny=st.integers(1, 9),
    x0=st.floats(-5.0, 5.0), y0=st.floats(-5.0, 5.0),
    width=st.floats(0.05, 20.0), height=st.floats(0.05, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_corner_velocities_matches_per_corner_solve(nx, ny, x0, y0, width, height, seed):
    grid = build_fine_grid(nx, ny, (x0, x0 + width, y0, y0 + height))
    U = np.random.default_rng(seed).standard_normal(grid.n_dofs)
    w_all, speed_all = corner_velocities(grid, U)
    _, _, t, dofs = corner_geometry(grid)
    for c in range(grid.n_cells):
        corners = grid.vertices[grid.elements[c]]
        for k in range(4):
            w, speed = corner_velocity(corners, k, U[dofs[c, k]] * np.sign(t[c, k]))
            assert np.abs(w_all[c, k] - w).max() <= 1e-12
            assert abs(speed_all[c, k] - speed) <= 1e-12


def _nodal_dof_vector(grid, cell, corner, slot):
    """Global DOF vector whose element-local reference trace is the (corner,
    slot) Kronecker delta (unit square elements: reference = physical)."""
    _, _, t, dofs = corner_geometry(grid)
    u = np.zeros(grid.n_dofs)
    u[dofs[cell, corner, slot]] = 1.0 / t[cell, corner, slot]
    return u


def test_assembled_matrix_matches_symbolic_quadrature_table():
    """(u, v)_Q on the unit square equals the exact corner-quadrature table."""
    grid = build_fine_grid(1, 1)
    A = assemble_velocity_matrix(grid, np.ones(1))
    table = {}
    for (a, fa) in _SYM_BASIS.items():
        for (b, fb) in _SYM_BASIS.items():
            val = sympy.Rational(0)
            for s in range(4):
                sub = {_X: sympy.Rational(REF_CORNERS[s][0]), _Y: sympy.Rational(REF_CORNERS[s][1])}
                val += (fa[0] * fb[0] + fa[1] * fb[1]).subs(sub)
            table[(a, b)] = val / 4
    for (ia, ja), want in (
        ((a, b), table[(a, b)]) for a in _SYM_BASIS for b in _SYM_BASIS
    ):
        ua = _nodal_dof_vector(grid, 0, *ia)
        ub = _nodal_dof_vector(grid, 0, *ja)
        got = float(ua @ A.matvec(ub))
        assert got == pytest.approx(float(want), abs=1e-14)


def test_quadrature_exact_on_bilinear_functions():
    # the corner rule integrates span{1, x, y, xy} exactly
    for f in (lambda x, y: 1.0, lambda x, y: x, lambda x, y: y, lambda x, y: x * y):
        quad = sum(f(*REF_CORNERS[s]) for s in range(4)) / 4.0
        exact = float(
            sympy.integrate(
                f(_X, _Y), (_X, 0, 1), (_Y, 0, 1)
            )
        )
        assert quad == pytest.approx(exact, abs=1e-15)


def test_corner_coupling_tensor_coefficient():
    """Same-corner entries couple through the coefficient in the outward-normal
    frame (n_a . C n_b / 4); cross-corner entries vanish."""
    grid = build_fine_grid(1, 1)
    rng = np.random.default_rng(9)
    C = np.empty((1, 4, 2, 2))
    for k in range(4):
        Q = rng.standard_normal((2, 2))
        C[0, k] = Q @ Q.T + 0.5 * np.eye(2)
    A = assemble_velocity_matrix(grid, C)
    for ca in range(4):
        for sa in range(2):
            ua = _nodal_dof_vector(grid, 0, ca, sa)
            na = REF_CORNER_NORMALS[ca, sa]
            for cb in range(4):
                for sb in range(2):
                    ub = _nodal_dof_vector(grid, 0, cb, sb)
                    got = float(ua @ A.matvec(ub))
                    if ca == cb:
                        want = float(na @ C[0, ca] @ REF_CORNER_NORMALS[cb, sb]) / 4.0
                    else:
                        want = 0.0
                    assert got == pytest.approx(want, abs=1e-13)


def test_decoupling_across_vertices():
    grid = build_fine_grid(4, 3)
    rng = np.random.default_rng(2)
    A = assemble_velocity_matrix(grid, rng.uniform(0.5, 3.0, grid.n_cells))
    assert A.blocks.shape == (grid.n_vertices, 4, 4)
    mat = to_sparse(A).tocoo()
    assert np.all(grid.dof_vertex[mat.row] == grid.dof_vertex[mat.col])


def test_blocks_symmetric_positive_definite():
    grid = build_fine_grid(5, 5)
    rng = np.random.default_rng(4)
    A = assemble_velocity_matrix(grid, 1.0 / rng.uniform(0.01, 100.0, grid.n_cells))
    assert A.check_positive_definite() is True
    dense = to_sparse(A).toarray()
    assert np.allclose(dense, dense.T, atol=1e-14)


def test_negative_coefficient_fails_pd_check():
    grid = build_fine_grid(2, 2)
    A = assemble_velocity_matrix(grid, -np.ones(grid.n_cells))
    with pytest.raises(AssemblyError):
        A.check_positive_definite()


def test_with_identity_rows():
    grid = build_fine_grid(2, 2)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    dofs = np.array([0, 5, 7])
    Ahat = to_sparse(with_identity_rows(A, dofs)).toarray()
    for d in dofs:
        row = Ahat[d].copy()
        col = Ahat[:, d].copy()
        assert row[d] == 1.0 and col[d] == 1.0
        row[d] = col[d] = 0.0
        assert np.all(row == 0.0) and np.all(col == 0.0)


def test_divergence_single_element():
    grid = build_fine_grid(1, 1)
    B = assemble_divergence(grid)
    dense = B.toarray()
    assert dense.shape == (8, 1)
    assert np.allclose(np.abs(dense[:, 0]), 0.5)
    # bottom and left edges carry sign -1 -> entry +1/2
    bottom = grid.horizontal_edge(0, 0)
    right = grid.vertical_edge(1, 0)
    assert dense[2 * bottom, 0] == pytest.approx(0.5)
    assert dense[2 * right, 0] == pytest.approx(-0.5)


def test_divergence_shared_edge_opposite_signs():
    grid = build_fine_grid(2, 1, domain=(0.0, 2.0, 0.0, 1.0))
    B = assemble_divergence(grid).toarray()
    shared = grid.vertical_edge(1, 0)
    for d in (2 * shared, 2 * shared + 1):
        entries = B[d]
        assert np.count_nonzero(entries) == 2
        assert entries.sum() == pytest.approx(0.0)


def test_divergence_of_linear_interpolant():
    grid = build_fine_grid(3, 2, domain=(0.0, 1.5, 0.0, 1.0))
    B = assemble_divergence(grid)
    # DOF values of v = (x, y): normal component at each edge endpoint
    U = np.empty(grid.n_dofs)
    normals = edge_normals(grid)
    for e in range(grid.n_edges):
        n = normals[e]
        for k, p in enumerate(grid.vertices[grid.edge_nodes[e]]):
            U[2 * e + k] = p @ n
    got = B.T @ U
    assert np.allclose(got, -2.0 * grid.cell_areas, atol=1e-13)  # div v = 2


@pytest.mark.parametrize("nx, ny, domain", [
    (1, 1, (0.0, 1.0, 0.0, 1.0)),
    (1, 7, (0.0, 1.0, 0.0, 1.0)),
    (7, 1, (0.0, 1.0, 0.0, 1.0)),
    (33, 17, (0.0, 1.0, 0.0, 1.0)),
    (160, 60, (0.0, 8.0 / 3.0, 0.0, 1.0)),
    (8, 8, (1e6, 1e6 + 0.08, 1e6, 1e6 + 0.08)),
])
def test_divergence_blocks_are_the_gathered_matrix(nx, ny, domain):
    """The per-vertex blocks built from the grid's corners equal B gathered
    at [vertex_dofs[v, i], vertex_cells[v, j]] bitwise, zero where the
    vertex has no DOF i or cell j, entry-major (4, 4, n_vertices)."""
    grid = build_fine_grid(nx, ny, domain)
    # Index -1 (no DOF, no cell) reads the appended empty row and column.
    B = assemble_divergence(grid).tocsr()
    B.resize(B.shape[0] + 1, B.shape[1] + 1)
    rows, cols = np.broadcast_arrays(grid.vertex_dofs[:, :, None], vertex_cells(grid)[:, None, :])
    gathered = np.asarray(B[rows.ravel(), cols.ravel()]).reshape(rows.shape)
    blocks = divergence_blocks(grid)
    assert blocks.shape == (4, 4, grid.n_vertices) and blocks.flags.c_contiguous
    assert np.array_equal(blocks, gathered.transpose(1, 2, 0))


def test_rhs_source_term():
    grid = build_fine_grid(2, 2)
    bc = left_right_spec(grid)
    _, F, _, _ = assemble_rhs(grid, np.ones(grid.n_cells), bc)
    assert np.allclose(F, -grid.cell_areas)


def test_rhs_dirichlet_left_edge():
    grid = build_fine_grid(1, 1)
    bc = left_right_spec(grid, p_left=1.0, p_right=0.0)
    G, _, constrained, values = assemble_rhs(grid, np.zeros(1), bc)
    left = grid.vertical_edge(0, 0)
    # G = -sign * int g_D l ds with sign(left) = -1: +1/2 on both endpoint
    # DOFs (the DOFs carry components along the global +x normal, so the
    # outward -x orientation flips the sign of the raw edge integral).
    assert G[2 * left] == pytest.approx(0.5)
    assert G[2 * left + 1] == pytest.approx(0.5)
    other = np.setdiff1d(np.arange(grid.n_dofs), [2 * left, 2 * left + 1])
    assert np.allclose(G[other], 0.0)
    # top and bottom no-flow DOFs are constrained to zero
    top, bottom = grid.horizontal_edge(0, 1), grid.horizontal_edge(0, 0)
    assert set(constrained) == {2 * top, 2 * top + 1, 2 * bottom, 2 * bottom + 1}
    assert np.all(values == 0.0)


def test_rhs_no_flow_constrains_all_boundary():
    grid = build_fine_grid(3, 3)
    _, _, constrained, values = assemble_rhs(grid, np.zeros(9), no_flow_spec(grid))
    want = np.sort(np.concatenate([[2 * e, 2 * e + 1] for e in grid.boundary_edges]))
    assert np.array_equal(constrained, want)
    assert np.all(values == 0.0)


def _loop_rhs(grid, f_cells, bc):
    """assemble_rhs's boundary terms edge by edge, as a plain loop:
    (G, F, constrained DOFs, their values)."""
    G = np.zeros(grid.n_dofs)
    s, w = GAUSS3
    for e, data in bc.dirichlet.items():
        length, sign = grid.edge_lengths[e], grid.edge_boundary_sign[e]
        if callable(data):
            a, b = grid.vertices[grid.edge_nodes[e]]
            g = np.array([data(*p) for p in a[None, :] + s[:, None] * (b - a)[None, :]])
            vals = [length * np.sum(w * g * (1 - s)), length * np.sum(w * g * s)]
        else:
            vals = [0.5 * length * data, 0.5 * length * data]
        G[2 * e] -= sign * vals[0]
        G[2 * e + 1] -= sign * vals[1]
    dofs, vals = [], []
    for e, data in bc.neumann.items():
        for k, end in enumerate(grid.vertices[grid.edge_nodes[e]]):
            dofs.append(2 * e + k)
            vals.append(grid.edge_boundary_sign[e] * (data(*end) if callable(data) else data))
    order = np.argsort(dofs)
    return G, -f_cells * grid.cell_areas, np.array(dofs, dtype=int)[order], np.array(vals)[order]


def _mixed_spec(grid):
    """Callable Dirichlet data on the left and bottom, callable Neumann data
    on the right, a constant Neumann flux on the top."""
    spec = BoundarySpec()
    for e in grid.boundary_edges:
        side = int(grid.edge_side[e])
        if side in (0, 3):
            spec.dirichlet[int(e)] = lambda x, y: 1.0 + x * x - 0.5 * y
        elif side == 1:
            spec.neumann[int(e)] = lambda x, y: np.sin(3.0 * y) + x
        else:
            spec.neumann[int(e)] = 0.25
    return spec


@pytest.mark.parametrize("preset", ["left_right", "dirichlet", "dirichlet_callable", "no_flow",
                                    "five_spot", "mixed"])
@pytest.mark.parametrize("nx, ny, domain", [(1, 1, None), (5, 3, None),
                                            (7, 4, (1e3, 1e3 + 0.7, -2.0, 0.3))])
def test_rhs_matches_the_edge_loop(preset, nx, ny, domain):
    """G, the constrained DOFs and their values equal those of a plain loop
    over the boundary edges, bitwise, on every boundary preset, with
    constant and callable data."""
    grid = build_fine_grid(nx, ny) if domain is None else build_fine_grid(nx, ny, domain=domain)
    f = np.random.default_rng(nx).standard_normal(grid.n_cells)
    bc = {
        "left_right": lambda: left_right_spec(grid, 1.3, -0.2),
        "dirichlet": lambda: all_dirichlet_spec(grid, 0.7),
        "dirichlet_callable": lambda: all_dirichlet_spec(grid, lambda x, y: x - 2.0 * y * y),
        "no_flow": lambda: no_flow_spec(grid),
        "five_spot": lambda: five_spot(grid)[0],
        "mixed": lambda: _mixed_spec(grid),
    }[preset]()
    got, want = assemble_rhs(grid, f, bc), _loop_rhs(grid, f, bc)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_rhs_unlabeled_edge_rejected():
    grid = build_fine_grid(2, 2)
    bc = left_right_spec(grid)
    drop = next(iter(bc.neumann))
    del bc.neumann[drop]
    with pytest.raises(ConfigurationError):
        assemble_rhs(grid, np.zeros(4), bc)


def test_rhs_double_labeled_edge_rejected():
    grid = build_fine_grid(2, 2)
    bc = left_right_spec(grid)
    e = next(iter(bc.neumann))
    bc.dirichlet[e] = 0.0
    with pytest.raises(ConfigurationError):
        assemble_rhs(grid, np.zeros(4), bc)


def test_five_spot_structure():
    grid = build_fine_grid(4, 4)
    bc, f = five_spot(grid)
    assert f[grid.cell_id(0, 0)] * grid.cell_areas[grid.cell_id(0, 0)] == pytest.approx(1.0)
    assert np.count_nonzero(f) == 1
    assert len(bc.dirichlet) == 2
    assert set(bc.dirichlet) == {
        int(grid.horizontal_edge(3, 4)), int(grid.vertical_edge(4, 3))
    }
    assert all(v == 0.0 for v in bc.dirichlet.values())
    bc.validate(grid)


def test_scalar_and_per_corner_coefficients_agree():
    grid = build_fine_grid(3, 3)
    rng = np.random.default_rng(8)
    c = rng.uniform(0.5, 2.0, grid.n_cells)
    A1 = assemble_velocity_matrix(grid, c)
    A2 = assemble_velocity_matrix(grid, np.repeat(c[:, None], 4, axis=1))
    assert np.allclose(A1.blocks, A2.blocks, atol=1e-15)


def test_quadrature_norm_matrix_is_norm():
    grid = build_fine_grid(3, 2)
    M = quadrature_norm_matrix(grid)
    assert M.check_positive_definite() is True
    rng = np.random.default_rng(6)
    x = rng.standard_normal(grid.n_dofs)
    assert x @ M.matvec(x) > 0


def _reference_blocks(grid, C):
    """Vertex blocks by the direct corner formula (1/4) t_s t_l N_s^T Mhat N_l,
    Mhat = DF^T C DF / J, accumulated with np.add.at; C is (n_cells, 4, 2, 2)."""
    DF, J, t, dofs = corner_geometry(grid)
    Mhat = np.einsum("ckja,ckjl,cklm->ckam", DF, C, DF) / J[..., None, None]
    Ghat = np.einsum("ksi,ckij,klj->cksl", REF_CORNER_NORMALS, Mhat, REF_CORNER_NORMALS)
    contrib = 0.25 * t[..., :, None] * t[..., None, :] * Ghat
    blocks = np.zeros((grid.n_vertices, 4, 4))
    slot = grid.dof_vslot[dofs]
    np.add.at(blocks, (grid.elements[:, :, None, None], slot[:, :, :, None],
                       slot[:, :, None, :]), contrib)
    return blocks


def _reference_velocities(grid, U):
    """Corner velocities (n_cells, 4, 2) by the Piola transform written out:
    w = DF what / J with what = sum_s t_s U_s N_s."""
    DF, J, t, dofs = corner_geometry(grid)
    what = np.einsum("cks,ksi->cki", t * U[dofs], REF_CORNER_NORMALS)
    return np.einsum("ckij,ckj->cki", DF, what) / J[..., None]


def _newton_problem(grid, rng):
    """Random per-cell kappa and beta and a random iterate U."""
    kappa = 10.0 ** rng.uniform(-2.0, 2.0, grid.n_cells)
    return kappa, rng.uniform(0.0, 100.0, grid.n_cells), rng.standard_normal(grid.n_dofs)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 9), ny=st.integers(1, 9),
    x0=st.floats(-5.0, 5.0), y0=st.floats(-5.0, 5.0),
    width=st.floats(0.05, 20.0), height=st.floats(0.05, 20.0),
    form=st.sampled_from(["cell", "corner", "newton", "tensor"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prepared_assembly_matches_corner_formula(nx, ny, x0, y0, width, height, form, seed):
    """The rectangle corner rule + bincount assembly equals the direct
    formula to roundoff; so do a Newton step's matrix and its products A_pic U and
    A_t U."""
    grid = build_fine_grid(nx, ny, (x0, x0 + width, y0, y0 + height))
    rng = np.random.default_rng(seed)
    n = grid.n_cells
    if form == "newton":
        kappa, beta, U = _newton_problem(grid, rng)
        w = _reference_velocities(grid, U)
        speed = np.linalg.norm(w, axis=-1)
        C_pic = ((1.0 / kappa)[:, None] + beta[:, None] * speed)[..., None, None] * np.eye(2)
        C_t = (beta[:, None] / speed)[..., None, None] * w[..., :, None] * w[..., None, :]
        got, AU, AtU = linearize(grid, kappa, beta, U, "newton")
        for vector, C_part in ((AU, C_pic), (AtU, C_t)):
            A_part = to_sparse(VertexBlockMatrix(_reference_blocks(grid, C_part), grid))
            scale = (abs(A_part) @ np.abs(U)).max()
            assert np.abs(vector - A_part @ U).max() <= 1e-13 * scale
        C = C_pic + C_t
    elif form == "cell":
        coeff = rng.uniform(1e-3, 1e3, n)
        C = coeff[:, None, None, None] * np.eye(2)
    elif form == "corner":
        coeff = rng.uniform(1e-3, 1e3, (n, 4))
        C = coeff[..., None, None] * np.eye(2)
    else:
        Q = rng.standard_normal((n, 4, 2, 2))
        coeff = C = Q @ np.swapaxes(Q, -1, -2) + 0.1 * np.eye(2)
    want = _reference_blocks(grid, C)
    scale = np.abs(want).max()
    if form != "newton":
        got = assemble_velocity_matrix(grid, coeff)
    assert np.abs(got.blocks - want).max() <= 1e-14 * scale


@pytest.mark.parametrize("nx, ny, domain", [
    *(pytest.param(nx, ny, (-3.0, 0.7, 2.0, 9.0), id=f"{nx}-{ny}")
      for nx, ny in [(1, 1), (1, 6), (5, 1), (2, 2), (7, 5), (16, 16), (33, 17)]),
    pytest.param(160, 60, (0.0, 8.0 / 3.0, 0.0, 1.0), id="160-60"),
])
def test_tensor_assembly_equals_one_bincount(nx, ny, domain):
    """A tensor coefficient's blocks, summed by corner slices, equal one
    ``np.bincount`` of the |T|/4-weighted tensor over every corner's
    scatter index (read off ``elements`` and ``dof_vslot``), bit for bit,
    on entries spanning 16 decades."""
    grid = build_fine_grid(nx, ny, domain)
    rng = np.random.default_rng(100 * nx + ny)
    index = corner_scatter_index(grid)
    shape = index.shape
    C = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    want = np.bincount(index.ravel(),
                       weights=(C * (0.25 * grid.cell_areas)[:, None, None, None]).ravel(),
                       minlength=16 * grid.n_vertices)
    assert np.array_equal(assemble_velocity_matrix(grid, C).blocks.ravel(), want)


@pytest.mark.parametrize("nx, ny, domain", [
    (1, 1, (0.0, 1.0, 0.0, 1.0)),
    (4, 3, (-2.0, 1.5, 3.0, 3.4)),
    (7, 5, (10.0, 30.0, -1.0, 0.0)),
])
def test_newton_step_matrix_is_the_residual_jacobian(nx, ny, domain):
    """The Newton step matrix is the Jacobian of r(U) = A_pic(U) U - G0: it
    matches a central difference of the assembled Picard product."""
    grid = build_fine_grid(nx, ny, domain)
    rng = np.random.default_rng(nx * ny)
    kappa, beta, U = _newton_problem(grid, rng)
    delta = rng.standard_normal(grid.n_dofs)
    eps = 1e-6 * np.linalg.norm(U) / np.linalg.norm(delta)

    def residual(V):
        speed = corner_velocities(grid, V)[1]
        return assemble_velocity_matrix(grid, corner_coefficient(kappa, beta, speed)).matvec(V)

    # No corner speed near the floor, where |w| is not differentiable.
    for V in (U - eps * delta, U, U + eps * delta):
        speed = corner_velocities(grid, V)[1]
        assert speed.min() > 1e-3 * speed.max()
    fd = (residual(U + eps * delta) - residual(U - eps * delta)) / (2 * eps)
    jd = linearize(grid, kappa, beta, U, "newton")[0].matvec(delta)
    assert np.linalg.norm(jd - fd) <= 1e-6 * np.linalg.norm(jd)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_block_fails_loudly():
    """A NaN coefficient is reported as such, not as an asymmetric block."""
    grid = build_fine_grid(3, 3)
    coeff = np.ones(grid.n_cells)
    coeff[4] = np.nan
    A = assemble_velocity_matrix(grid, coeff)
    with pytest.raises(AssemblyError, match="non-finite vertex block"):
        A.check_positive_definite()
    coeff[4] = np.inf
    with pytest.raises(AssemblyError, match="non-finite vertex block"):
        vertex_factors(assemble_velocity_matrix(grid, coeff))


def test_asymmetric_block_fails_symmetry_check():
    grid = build_fine_grid(2, 2)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    A.blocks[4, 0, 1] += 1e-3
    with pytest.raises(AssemblyError, match="not symmetric"):
        vertex_factors(A)


def test_cholesky_factors_blocks_with_eliminated_dofs():
    grid = build_fine_grid(3, 2)
    rng = np.random.default_rng(11)
    A = assemble_velocity_matrix(grid, rng.uniform(0.5, 2.0, grid.n_cells))
    dofs = np.array([0, 3, 9])
    L = vertex_factors(A, dofs)
    padded = with_identity_rows(A, dofs).blocks
    assert np.allclose(L @ np.swapaxes(L, 1, 2), padded, atol=1e-14)
    assert np.all(np.triu(L, 1) == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_cholesky_matches_lapack(nx, ny, share, seed):
    """The closed-form factor of random SPD blocks, with padding slots and a
    random share of the DOFs eliminated, is LAPACK's per-block factor to
    1e-14 relative, strictly lower, and reproduces the unit-slotted blocks."""
    grid = build_fine_grid(nx, ny)
    rng = np.random.default_rng(seed)
    R = rng.uniform(-1.0, 1.0, (grid.n_vertices, 4, 4))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, grid.n_vertices)[:, None, None]
    blocks = scale * (R @ np.swapaxes(R, 1, 2) + 4.0 * np.eye(4))
    A = VertexBlockMatrix(blocks, grid)
    dofs = np.flatnonzero(rng.random(grid.n_dofs) < share)
    slotted = with_identity_rows(A, dofs).blocks
    L_ref = lapack_cholesky(slotted)
    L = vertex_factors(A, dofs)
    size = np.abs(L_ref).max(axis=(1, 2))
    assert np.all(np.abs(L - L_ref).max(axis=(1, 2)) <= 1e-14 * size)
    assert np.all(np.triu(L, 1) == 0.0)
    rebuilt = L @ np.swapaxes(L, 1, 2)
    assert np.all(np.abs(rebuilt - slotted).max(axis=(1, 2))
                  <= 1e-14 * np.abs(slotted).max(axis=(1, 2)))
    # A view of the entry-major factors the solvers read.
    entry_major = L.transpose(1, 2, 0)
    assert entry_major.flags.c_contiguous
    assert np.array_equal(entry_major, vertex_cholesky(blocks, unit_slots(grid, dofs)))


def test_diagonal_blocks_factor_as_lapack_bitwise():
    """Picard's blocks are diagonal: their factor is LAPACK's, bit for bit."""
    grid = build_fine_grid(4, 3)
    rng = np.random.default_rng(5)
    A = assemble_velocity_matrix(grid, 10.0 ** rng.uniform(-4.0, 4.0, (grid.n_cells, 4)))
    dofs = np.array([1, 6, 10])
    assert np.array_equal(vertex_factors(A, dofs), lapack_cholesky(with_identity_rows(A, dofs).blocks))


@pytest.mark.parametrize("pivot", [0, 1, 3])
def test_indefinite_block_error_names_its_vertex(pivot):
    """A block that fails at its first, second or last pivot is reported
    with its vertex, even when later vertices fail too.  The pivot named is
    the geometric slot: on a left-boundary vertex slot 0 is padding, so a
    negative entry there fails nothing and one at slot 1 or 3 fails that
    pivot."""
    grid = build_fine_grid(4, 4)
    left = grid.nx + 1    # vertex (0, 1), with no edge to its left
    assert grid.vertex_dofs[left, 0] == -1 and np.all(grid.vertex_dofs[left, 1:] >= 0)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    A.blocks[left, pivot, pivot] = -1.0
    if pivot == 0:
        vertex_factors(A)
    else:
        with pytest.raises(AssemblyError, match=rf"at vertex {left} \(1 failing pivot {pivot}\)"):
            vertex_factors(A)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    vertex, later = np.flatnonzero((grid.vertex_dofs >= 0).all(axis=1))[:2]
    for v in (vertex, later):
        b = A.blocks[v]
        if pivot == 0:
            b[0, 0] = -1.0
        else:
            # Make the leading (pivot + 1) minor singular-or-worse.
            b[pivot, pivot - 1] = b[pivot - 1, pivot] = 2.0 * np.sqrt(
                b[pivot, pivot] * b[pivot - 1, pivot - 1])
    message = rf"not positive definite at vertex {vertex} \(2 failing pivot {pivot}\)"
    with pytest.raises(AssemblyError, match=message):
        vertex_factors(A)
    with pytest.raises(AssemblyError, match="not positive definite"):
        A.check_positive_definite()


@pytest.mark.parametrize("nx, ny", [(1, 1), (4, 3), (9, 7)])
def test_picard_product_is_the_diagonal_times_u(nx, ny):
    """Picard's product A_pic(U) U comes as A's diagonal times U, without h or
    slot sums, and agrees with the corner slot sums of ``linearize(..., None)``
    to 1e-14 relative, entry by entry; the step builds no vertex blocks."""
    grid = build_fine_grid(nx, ny)
    rng = np.random.default_rng(nx + ny)
    kappa, beta, U = _newton_problem(grid, rng)
    A, AU, AtU = linearize(grid, kappa, beta, U, "picard")
    AU_ref = linearize(grid, kappa, beta, U, None)[1]
    assert AtU == 0.0 and A._blocks is None
    assert np.all(np.abs(AU - AU_ref) <= 1e-14 * np.abs(AU_ref))


@pytest.mark.parametrize("per_corner", [False, True])
def test_diagonal_products_match_the_blocks(per_corner):
    """matvec of a diagonal matrix reads its diagonal and agrees with the
    product of its (lazily built) blocks to 1e-14 relative."""
    grid = build_fine_grid(10, 10)
    rng = np.random.default_rng(4)
    shape = (grid.n_cells, 4) if per_corner else grid.n_cells
    A = assemble_velocity_matrix(grid, 10.0 ** rng.uniform(-1.0, 1.0, shape))
    x = rng.standard_normal(grid.n_dofs)
    Ax = A.matvec(x)
    assert A._blocks is None
    blocks = VertexBlockMatrix(A.blocks, grid)
    assert np.abs(Ax - blocks.matvec(x)).max() <= 1e-14 * np.abs(Ax).max()
