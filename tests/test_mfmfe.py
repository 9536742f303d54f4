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

from msforch.errors import AssemblyError, ConfigurationError, SingularCornerError
from msforch.grid import REF_CORNER_NORMALS, REF_CORNERS, build_fine_grid
from msforch.mfmfe import (
    assemble_divergence,
    assemble_rhs,
    assemble_velocity_matrix,
    corner_geometry,
    corner_velocities,
    corner_velocity,
    five_spot,
    left_right_spec,
    no_flow_spec,
    piola,
    quadrature_norm_matrix,
    reference_basis,
    reference_divergence,
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


def test_corner_velocities_matches_per_corner_solve():
    grid = build_fine_grid(3, 2, domain=(0.0, 1.5, 0.0, 1.0))
    rng = np.random.default_rng(5)
    U = rng.standard_normal(grid.n_dofs)
    w_all, speed_all = corner_velocities(grid, U)
    for c in range(grid.n_cells):
        corners = grid.vertices[grid.elements[c]]
        for k in range(4):
            traces = U[grid.elem_corner_dof[c, k]] * grid.elem_corner_sign[c, k]
            w, speed = corner_velocity(corners, k, traces)
            assert np.allclose(w_all[c, k], w, atol=1e-12)
            assert speed_all[c, k] == pytest.approx(speed, abs=1e-12)


def _nodal_dof_vector(grid, cell, corner, slot):
    """Global DOF vector whose element-local reference trace is the (corner,
    slot) Kronecker delta (unit square elements: reference = physical)."""
    u = np.zeros(grid.n_dofs)
    d = grid.elem_corner_dof[cell, corner, slot]
    u[d] = grid.elem_corner_sign[cell, corner, slot] / grid.elem_corner_elen[cell, corner, slot]
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
    mat = A.to_sparse().tocoo()
    assert np.all(grid.dof_vertex[mat.row] == grid.dof_vertex[mat.col])


def test_blocks_symmetric_positive_definite():
    grid = build_fine_grid(5, 5)
    rng = np.random.default_rng(4)
    A = assemble_velocity_matrix(grid, 1.0 / rng.uniform(0.01, 100.0, grid.n_cells))
    assert A.check_positive_definite() is True
    dense = A.to_sparse().toarray()
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
    Ahat = A.with_identity_rows(dofs).to_sparse().toarray()
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
    for e in range(grid.n_edges):
        n = grid.edge_normals[e]
        for k, p in enumerate(grid.vertices[grid.edge_nodes[e]]):
            U[2 * e + k] = p @ n
    got = B.T @ U
    assert np.allclose(got, -2.0 * grid.cell_areas, atol=1e-13)  # div v = 2


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
    DF = grid.corner_DF
    Mhat = np.einsum("ckja,ckjl,cklm->ckam", DF, C, DF) / grid.corner_J[..., None, None]
    Ghat = np.einsum("ksi,ckij,klj->cksl", REF_CORNER_NORMALS, Mhat, REF_CORNER_NORMALS)
    t = grid.elem_corner_sign * grid.elem_corner_elen
    contrib = 0.25 * t[..., :, None] * t[..., None, :] * Ghat
    blocks = np.zeros((grid.n_vertices, 4, 4))
    slot = grid.elem_corner_vslot
    np.add.at(blocks, (grid.elements[:, :, None, None], slot[:, :, :, None],
                       slot[:, :, None, :]), contrib)
    return blocks


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 9), ny=st.integers(1, 9),
    x0=st.floats(-5.0, 5.0), y0=st.floats(-5.0, 5.0),
    width=st.floats(0.05, 20.0), height=st.floats(0.05, 20.0),
    form=st.sampled_from(["cell", "corner", "rank_one", "tensor"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prepared_assembly_matches_corner_formula(nx, ny, x0, y0, width, height, form, seed):
    """The corner-factor + bincount assembly equals the direct formula to
    roundoff, with and without a reused CornerGeometry."""
    grid = build_fine_grid(nx, ny, (x0, x0 + width, y0, y0 + height))
    rng = np.random.default_rng(seed)
    n = grid.n_cells
    direction = None
    if form == "cell":
        coeff = rng.uniform(1e-3, 1e3, n)
        C = coeff[:, None, None, None] * np.eye(2)
    elif form == "corner":
        coeff = rng.uniform(1e-3, 1e3, (n, 4))
        C = coeff[..., None, None] * np.eye(2)
    elif form == "rank_one":
        coeff = rng.uniform(1e-3, 1e3, (n, 4))
        direction = rng.standard_normal((n, 4, 2))
        C = coeff[..., None, None] * direction[..., :, None] * direction[..., None, :]
    else:
        Q = rng.standard_normal((n, 4, 2, 2))
        coeff = C = Q @ np.swapaxes(Q, -1, -2) + 0.1 * np.eye(2)
    want = _reference_blocks(grid, C)
    scale = np.abs(want).max()
    for geometry in (None, corner_geometry(grid)):
        got = assemble_velocity_matrix(grid, coeff, direction=direction, geometry=geometry)
        assert np.abs(got.blocks - want).max() <= 1e-14 * scale


def test_rank_one_needs_scalar_coefficient():
    grid = build_fine_grid(2, 2)
    with pytest.raises(ValueError, match="rank-one"):
        assemble_velocity_matrix(grid, np.ones((4, 4, 2, 2)), direction=np.ones((4, 4, 2)))


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
        assemble_velocity_matrix(grid, coeff).cholesky()


def test_asymmetric_block_fails_symmetry_check():
    grid = build_fine_grid(2, 2)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    A.blocks[4, 0, 1] += 1e-3
    with pytest.raises(AssemblyError, match="not symmetric"):
        A.cholesky()


def test_cholesky_factors_blocks_with_eliminated_dofs():
    grid = build_fine_grid(3, 2)
    rng = np.random.default_rng(11)
    A = assemble_velocity_matrix(grid, rng.uniform(0.5, 2.0, grid.n_cells))
    dofs = np.array([0, 3, 9])
    L = A.cholesky(dofs)
    padded = A.with_identity_rows(dofs).blocks
    assert np.allclose(L @ np.swapaxes(L, 1, 2), padded, atol=1e-14)
    assert np.all(np.triu(L, 1) == 0.0)
