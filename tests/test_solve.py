"""Linear saddle solvers and the nonlinear Picard/Newton loop."""

import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msforch.solve
from msforch.errors import AssemblyError, SingularSystemError
from msforch.fields import ScalarCellField, forchheimer_coeff, gen_synthetic
from msforch.grid import build_coarse_grid, build_fine_grid
from msforch.local import online_shape, snapshot_shape
from msforch.offline import ReductionMap, build_offline_space
from msforch.mfmfe import (
    all_dirichlet_spec,
    assemble_divergence,
    assemble_velocity_matrix,
    corner_coefficient,
    corner_velocities,
    five_spot,
    left_right_spec,
    linearize,
    VertexBlockMatrix,
    lower_solve,
    no_flow_spec,
    quadrature_norm_matrix,
    vertex_cholesky,
)
from msforch.solve import (
    _BAND_LIMIT,
    _DENSE_LIMIT,
    LinearizedSystem,
    NonlinearConfig,
    PreparedOperator,
    cell_divergence,
    grid_operator,
    nonlinear_solve,
    schur_solve,
    velocity_error_norm,
)

from oracles import eliminate_constraints, saddle_oracle, schur_matrix, with_identity_rows

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _const(grid, value=1.0):
    return ScalarCellField(grid.nx, grid.ny, np.full(grid.n_cells, value))


def _random_reduced_system(rng, nx, ny):
    """Random heterogeneous left-right problem: (system, A) and its
    constraints eliminated by hand, (A_hat, B_free, G_free)."""
    grid = build_fine_grid(nx, ny)
    bc = left_right_spec(grid, rng.uniform(0.5, 2.0), rng.uniform(-1.0, 0.5))
    f = rng.standard_normal(grid.n_cells)
    sys_ = LinearizedSystem(grid, f, bc)
    A = assemble_velocity_matrix(grid, rng.uniform(0.1, 10.0, grid.n_cells))
    return sys_, A, eliminate_constraints(sys_, A)


def _vertex_factor(operator, A):
    """(L, X): the vertex Cholesky factors of A and X = L^{-1} B_v, apart
    from the operator's fused triangular pass."""
    L = vertex_cholesky(A.blocks, operator._unit)
    return L, lower_solve(L, operator.Bv)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


#: The size limits that send a pressure system down each factorization:
#: red-black (a five-point S within the dense limit, by default), banded
#: Cholesky (every other S within the band limit), SuperLU (both limits 0).
PATHS = {
    "red_black": {},
    "band": {"_DENSE_LIMIT": 0},
    "splu": {"_DENSE_LIMIT": 0, "_BAND_LIMIT": 0},
}


def _take(mp, path):
    """Lower the limits on ``mp`` so that S goes down ``path``."""
    for name, value in PATHS[path].items():
        mp.setattr(f"msforch.solve.{name}", value)


def _spy_factorizations(mp) -> list:
    """The names of the pressure factorizations made from now on, in order:
    ``splu`` for each SuperLU factorization (a solve that CG finishes with
    a retained factor makes none), ``_band_solve`` and ``_red_black_solve``."""
    calls = []
    for owner, name in ((spla, "splu"), (msforch.solve, "_band_solve"),
                        (PreparedOperator, "_red_black_solve")):
        original = getattr(owner, name)
        mp.setattr(owner, name, lambda *a, _f=original, _n=name, **k:
                   calls.append(_n) or _f(*a, **k))
    return calls


@pytest.fixture
def factorizations(monkeypatch):
    return _spy_factorizations(monkeypatch)


def test_schur_matches_saddle_oracle():
    rng = np.random.default_rng(42)
    for _ in range(6):
        nx, ny = rng.integers(1, 7, size=2)
        sys_, A, (Ahat, Bfree, G2) = _random_reduced_system(rng, int(nx), int(ny))
        U1, P1 = schur_solve(A, G2, sys_.F, sys_.cdofs)
        U2, P2 = saddle_oracle(Ahat, Bfree, G2, sys_.F)
        assert _rel(U1, U2) <= 1e-12
        assert _rel(P1, P2) <= 1e-12


def test_schur_backends_agree(monkeypatch, factorizations):
    rng = np.random.default_rng(3)
    sys_, A, (_, _, G2) = _random_reduced_system(rng, 6, 5)
    U_r, P_r = schur_solve(A, G2, sys_.F, sys_.cdofs)
    for path in ("band", "splu"):
        _take(monkeypatch, path)
        U, P = schur_solve(A, G2, sys_.F, sys_.cdofs)
        assert _rel(P, P_r) <= 1e-10
        assert _rel(U, U_r) <= 1e-10
    assert factorizations == ["_red_black_solve", "_band_solve", "splu"]


def test_closed_box_is_singular():
    # all-Neumann box with net injection: no solution, and the pressure is
    # only determined up to a constant even for compatible data
    grid = build_fine_grid(3, 3)
    f = np.ones(grid.n_cells)
    sys_ = LinearizedSystem(grid, f, no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
    with pytest.raises(SingularSystemError):
        schur_solve(A, G2, sys_.F, sys_.cdofs)
    with pytest.raises(SingularSystemError):
        saddle_oracle(Ahat, Bfree, G2, sys_.F)


def test_zero_data_zero_solution():
    grid = build_fine_grid(4, 4)
    bc = left_right_spec(grid, 0.0, 0.0)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), bc)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    G2 = eliminate_constraints(sys_, A)[2]
    U, P = schur_solve(A, G2, sys_.F, sys_.cdofs)
    assert np.allclose(U, 0.0, atol=1e-13)
    assert np.allclose(P, 0.0, atol=1e-13)


def test_saddle_oracle_size_refusal():
    grid = build_fine_grid(40, 40)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    B = assemble_divergence(grid)
    with pytest.raises(ValueError, match="5000"):
        saddle_oracle(A, B, np.zeros(grid.n_dofs), np.zeros(grid.n_cells))


@pytest.mark.parametrize("scheme", ["picard", "newton"])
def test_darcy_limit_single_iteration(scheme):
    grid = build_fine_grid(8, 8)
    bc = left_right_spec(grid)
    sol = nonlinear_solve(
        grid, _const(grid), _const(grid, 0.0), bc, np.zeros(grid.n_cells),
        NonlinearConfig(scheme=scheme),
    )
    assert sol.converged
    assert sol.iterations == 1
    # p = 1 - x recovered exactly up to linear algebra roundoff
    assert np.allclose(sol.pressure, 1.0 - grid.cell_centers[:, 0], atol=1e-11)


@pytest.mark.parametrize("scheme", ["picard", "newton"])
def test_unit_drop_golden_ratio(scheme):
    # kappa = beta = mu = rho = 1 with unit pressure drop: u + u^2 = 1
    grid = build_fine_grid(8, 8)
    bc = left_right_spec(grid, 1.0, 0.0)
    sol = nonlinear_solve(
        grid, _const(grid), _const(grid), bc, np.zeros(grid.n_cells),
        NonlinearConfig(scheme=scheme, tol_nl=1e-12, max_iter=2000),
    )
    assert sol.converged
    interior_vertical = [
        grid.vertical_edge(ix, iy) for ix in range(1, 8) for iy in range(8)
    ]
    dofs = np.concatenate([[2 * e, 2 * e + 1] for e in interior_vertical])
    assert np.allclose(sol.velocity[dofs], GOLDEN, atol=1e-9)


def test_newton_needs_fewer_iterations_and_gap_grows():
    grid = build_fine_grid(12, 12)
    kappa = gen_synthetic("channel", 5, 100.0, 12, 12)
    kappa = ScalarCellField(12, 12, kappa.values * 0.05)
    bc = left_right_spec(grid)
    f = np.zeros(grid.n_cells)
    ratios = []
    for b0 in (10.0, 1000.0):
        beta = ScalarCellField(12, 12, b0 / kappa.values)
        it = {}
        for scheme in ("picard", "newton"):
            cfg = NonlinearConfig(scheme=scheme, tol_nl=1e-8, max_iter=30000)
            sol = nonlinear_solve(grid, kappa, beta, bc, f, cfg)
            assert sol.converged
            it[scheme] = sol.iterations
        assert it["newton"] < it["picard"]
        ratios.append(it["picard"] / it["newton"])
    assert ratios[1] > ratios[0]


def test_max_iter_exhaustion_is_reported_not_raised():
    grid = build_fine_grid(10, 10)
    kappa = _const(grid)
    beta = _const(grid, 1e4)
    bc = left_right_spec(grid)
    cfg = NonlinearConfig(scheme="picard", tol_nl=1e-12, max_iter=3)
    sol = nonlinear_solve(grid, kappa, beta, bc, np.zeros(grid.n_cells), cfg)
    assert not sol.converged
    assert sol.iterations == 3
    assert sol.history.shape[0] == 3


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        NonlinearConfig(scheme="gauss").validate()
    with pytest.raises(ValueError):
        NonlinearConfig(max_iter=0).validate()
    with pytest.raises(ValueError):
        NonlinearConfig(tol_nl=float("nan")).validate()


def test_velocity_error_norm_definition():
    grid = build_fine_grid(4, 3)
    M = quadrature_norm_matrix(grid)
    rng = np.random.default_rng(1)
    e = rng.standard_normal(grid.n_dofs)
    assert velocity_error_norm(M, e) == pytest.approx(
        np.sqrt(e @ M.matvec(e)), rel=1e-14
    )
    assert velocity_error_norm(M, np.zeros(grid.n_dofs)) == 0.0


def test_cell_divergence_matches_source():
    grid = build_fine_grid(9, 7)
    kappa = gen_synthetic("blobs", 1, 10.0, 9, 7)
    bc = left_right_spec(grid)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(grid.n_cells)
    f -= 0.0  # Dirichlet outflow: no compatibility condition needed
    sol = nonlinear_solve(
        grid, kappa, _const(grid, 0.0), bc, f, NonlinearConfig(scheme="picard")
    )
    B = assemble_divergence(grid)
    div = cell_divergence(grid, B, sol.velocity)
    assert np.allclose(div, f, atol=1e-9)


def test_history_tracks_increments():
    grid = build_fine_grid(8, 8)
    sol = nonlinear_solve(
        grid, _const(grid), _const(grid, 100.0), left_right_spec(grid),
        np.zeros(grid.n_cells), NonlinearConfig(scheme="newton", tol_nl=1e-10),
    )
    assert sol.converged
    assert sol.history.shape == (sol.iterations, 2)
    # final recorded increment is below tolerance
    assert sol.history[-1, 0] <= 1e-10


@pytest.mark.parametrize("scheme", ["picard", "newton"])
@pytest.mark.parametrize("max_iter", [200, 1])
def test_one_assembly_per_step_and_fresh_last_residual(scheme, max_iter, monkeypatch):
    """A step assembles one matrix, the Darcy start one more, and nothing
    is assembled after the loop; the last history residual is that of a
    fresh Picard matrix at the returned iterate."""
    grid = build_fine_grid(8, 6)
    kappa = gen_synthetic("blobs", 2, 100.0, 8, 6)
    beta = forchheimer_coeff(kappa, 0.3)
    bc, f = five_spot(grid)
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return assemble_velocity_matrix(*args, **kwargs)

    monkeypatch.setattr("msforch.mfmfe.assemble_velocity_matrix", spy)
    monkeypatch.setattr("msforch.solve.assemble_velocity_matrix", spy)
    cfg = NonlinearConfig(scheme=scheme, max_iter=max_iter)
    sol = nonlinear_solve(grid, kappa, beta, bc, f, cfg)
    assert sol.converged == (max_iter > 1) and sol.iterations >= 1
    assert len(calls) == sol.iterations + 1
    monkeypatch.undo()
    if sol.converged:
        return   # the residual is at roundoff
    sys_ = LinearizedSystem(grid, f, bc)
    speed = corner_velocities(grid, sol.velocity)[1]
    A = assemble_velocity_matrix(grid, corner_coefficient(kappa.values, beta.values, speed))
    r = A.matvec(sol.velocity) + sys_.B @ sol.pressure - sys_.G0
    r[sys_.cdofs] = 0.0
    assert abs(sol.history[-1, 1] - np.linalg.norm(r)) <= 1e-12 * np.linalg.norm(r)


def _preset_problem(rng, nx, ny, preset, tensor):
    """A random problem on one of the three boundary presets: (system, A)."""
    grid = build_fine_grid(nx, ny)
    n = grid.n_cells
    if preset == "left_right":
        bc = left_right_spec(grid, rng.uniform(0.5, 2.0), rng.uniform(-1.0, 0.5))
        f = rng.standard_normal(n)
    elif preset == "dirichlet":
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        bc = all_dirichlet_spec(grid, lambda x, y: a + b * x + c * y)
        f = rng.standard_normal(n)
    else:
        bc, f = five_spot(grid)
    if tensor:
        Q = rng.standard_normal((n, 4, 2, 2))
        coeff = Q @ np.swapaxes(Q, -1, -2) + 0.2 * np.eye(2)
    else:
        coeff = rng.uniform(0.1, 10.0, n)
    return LinearizedSystem(grid, f, bc), assemble_velocity_matrix(grid, coeff)


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 8), ny=st.integers(1, 8),
    preset=st.sampled_from(["left_right", "dirichlet", "five_spot"]),
    tensor=st.booleans(),
    path=st.sampled_from(sorted(PATHS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_prepared_solve_matches_saddle_oracle(nx, ny, preset, tensor, path, seed):
    """The prepared operator (with S solved red-black, or banded, or by
    SuperLU under lowered size limits) and its reduced path with R = I agree
    with the dense saddle oracle to 1e-12."""
    sys_, A = _preset_problem(np.random.default_rng(seed), nx, ny, preset, tensor)
    Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
    U_ref, P_ref = saddle_oracle(Ahat, Bfree, G2, sys_.F)
    U_ref = U_ref + sys_.lift
    with pytest.MonkeyPatch.context() as mp:
        _take(mp, path)
        U, P, _ = sys_.solve(A, sys_.G0)
    assert _rel(U, U_ref) <= 1e-12
    assert _rel(P, P_ref) <= 1e-12
    identity = sp.identity(sys_.grid.n_cells, format="csr")
    U_r, P_r, coeffs = sys_.solve(A, sys_.G0, identity)
    assert _rel(U_r, U_ref) <= 1e-12
    assert _rel(P_r, P_ref) <= 1e-12
    assert np.array_equal(coeffs, P_r)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 12), ny=st.integers(1, 12),
    preset=st.sampled_from(["left_right", "dirichlet", "five_spot"]),
    tensor=st.booleans(),
    columns=st.sampled_from([1, 3]),
    dense_limit=st.sampled_from([0, _DENSE_LIMIT]),
    band_limit=st.integers(0, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_three_factorizations_match_saddle_oracle(
        nx, ny, preset, tensor, columns, dense_limit, band_limit, seed):
    """With both size limits lowered at random, a fine system takes the
    factorization the rule names (red-black for a five-point S within the
    dense limit, else banded while kd = min(nx, ny) + 1 is within the band
    limit, else SuperLU), and its velocity and pressure agree with the
    dense saddle oracle to 1e-12, for a scalar A with one or several
    right-hand-side columns and a tensor A with one; a tensor A raises on
    several."""
    rng = np.random.default_rng(seed)
    sys_, A = _preset_problem(rng, nx, ny, preset, tensor)
    n, fixed = sys_.grid.n_cells, sys_.cdofs
    G = rng.standard_normal((sys_.grid.n_dofs, columns))
    F = rng.standard_normal((n, columns))
    if columns == 1:
        G, F = G[:, 0], F[:, 0]
    elif tensor:
        with pytest.raises(ValueError, match="one right-hand side"):
            sys_.operator.solve(A, G, F)
        return
    G_free = G.copy()
    G_free[fixed] = 0.0
    Ahat, Bfree, _ = eliminate_constraints(sys_, A)
    U_ref, P_ref = saddle_oracle(Ahat, Bfree, G_free, F)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("msforch.solve._DENSE_LIMIT", dense_limit)
        mp.setattr("msforch.solve._BAND_LIMIT", band_limit)
        calls = _spy_factorizations(mp)
        U, P = sys_.operator.solve(A, G, F)
    if not tensor and n <= dense_limit:
        expected = "_red_black_solve"
    else:
        expected = "_band_solve" if min(nx, ny) + 1 <= band_limit else "splu"
    assert calls == [expected]
    assert _columns_close(U, U_ref, 1e-12) and _columns_close(P, P_ref, 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    Nx=st.integers(1, 4), Ny=st.integers(1, 4), mx=st.integers(1, 4), my=st.integers(1, 4),
    tensor=st.booleans(),
    band_limit=st.sampled_from([0, _BAND_LIMIT]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduced_band_matches_saddle_oracle(Nx, Ny, mx, my, tensor, band_limit, seed):
    """A reduced system, with one to three random orthonormal columns per
    coarse element (at most its cell count) appended in shuffled element
    order, is factored banded whatever the band limit, with the half-bandwidth
    of R^T S R in the band rank order of each column's first cell, and its
    velocity and coarse pressure agree with a dense solve of the saddle
    system with pressure space R to 1e-12."""
    rng = np.random.default_rng(seed)
    sys_, A = _preset_problem(rng, Nx * mx, Ny * my, "left_right", tensor)
    grid = sys_.grid
    coarse = build_coarse_grid(grid, Nx, Ny)
    rmap = ReductionMap(grid.n_cells)
    for i in rng.permutation(coarse.n_elements):
        cells = coarse.coarse_elements[i]
        m = rng.integers(1, min(3, cells.size) + 1)
        for column in np.linalg.qr(rng.standard_normal((cells.size, m)))[0].T:
            rmap.append_column(int(i), cells, column)
    R = rmap.matrix
    Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
    U_ref, Pr_ref = saddle_oracle(Ahat, (Bfree @ R).tocsr(), G2, R.T @ sys_.F)
    # The band order numbers the cells along the grid's shorter side.
    ix, iy = np.arange(grid.n_cells) % grid.nx, np.arange(grid.n_cells) // grid.nx
    rank = ix * grid.ny + iy if grid.nx >= grid.ny else iy * grid.nx + ix
    R_csc = sp.csc_matrix(R)
    first = [rank[R_csc.indices[a:b]].min() for a, b in zip(R_csc.indptr[:-1], R_csc.indptr[1:])]
    R_band = R.toarray()[:, np.argsort(first, kind="stable")]
    B = Bfree.toarray()
    rows, cols = np.nonzero(R_band.T @ B.T @ Ahat.inverse_sparse().toarray() @ B @ R_band)
    widths = []
    band_solve = msforch.solve._band_solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("msforch.solve._BAND_LIMIT", band_limit)
        mp.setattr("msforch.solve._band_solve",
                   lambda ab, rhs: widths.append(ab.shape[0] - 1) or band_solve(ab, rhs))
        calls = _spy_factorizations(mp)
        U, _, Pr = sys_.solve(A, sys_.G0, R)
    assert calls == ["_band_solve"] and widths == [(rows - cols).max()]
    assert _rel(U, U_ref + sys_.lift) <= 1e-12 and _rel(Pr, Pr_ref) <= 1e-12


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (3, 3), (7, 4), (12, 12), (30, 6)])
def test_closed_box_is_singular_in_auto_mode(nx, ny):
    """The dense Cholesky path of small systems reports singular
    pressure systems instead of returning a roundoff-driven solution."""
    grid = build_fine_grid(nx, ny)
    rng = np.random.default_rng(nx * 100 + ny)
    sys_ = LinearizedSystem(grid, np.ones(grid.n_cells), no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, 10.0 ** rng.uniform(-2.0, 2.0, grid.n_cells))
    with pytest.raises(SingularSystemError):
        sys_.solve(A, sys_.G0)
    G2 = eliminate_constraints(sys_, A)[2]
    with pytest.raises(SingularSystemError):
        schur_solve(A, G2, sys_.F, sys_.cdofs)


@pytest.mark.parametrize("n, path", [(3, "splu"), (8, "splu"), (20, "splu"),
                                     (3, "band"), (8, "band"), (20, "band")],
                         ids=lambda v: str(v))
def test_closed_box_is_singular_on_sparse_backends(n, path, monkeypatch):
    """The band and SuperLU, forced on small systems by lowered size limits,
    report a closed no-flow box as singular instead of returning a finite,
    roundoff-driven pressure."""
    _take(monkeypatch, path)
    grid = build_fine_grid(n, n)
    sys_ = LinearizedSystem(grid, np.ones(grid.n_cells), no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    with pytest.raises(SingularSystemError):
        sys_.solve(A, sys_.G0)
    G2 = eliminate_constraints(sys_, A)[2]
    with pytest.raises(SingularSystemError):
        schur_solve(A, G2, sys_.F, sys_.cdofs)


def test_closed_box_beyond_dense_limit_is_singular_in_auto_mode():
    grid = build_fine_grid(30, 20)   # 600 cells: SuperLU by size
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    with pytest.raises(SingularSystemError):
        sys_.solve(A, sys_.G0)


@pytest.mark.parametrize("nx, superlu", [(17, False), (18, True)])
def test_system_size_picks_the_factorization(nx, superlu, factorizations, monkeypatch):
    """A five-point S of 17x16 cells (272) is solved red-black at any band
    limit; one of 18x16 cells (288, kd 17) is banded, and goes to SuperLU
    once the band limit is lowered to 16.  All match the saddle oracle to
    1e-12."""
    assert 17 * 16 == _DENSE_LIMIT
    sys_, A = _preset_problem(np.random.default_rng(nx), nx, 16, "left_right", False)
    Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
    U_ref, P_ref = saddle_oracle(Ahat, Bfree, G2, sys_.F)
    for limit in (_BAND_LIMIT, 16):
        monkeypatch.setattr("msforch.solve._BAND_LIMIT", limit)
        U, P, _ = sys_.solve(A, sys_.G0)
        assert _rel(U, U_ref + sys_.lift) <= 1e-12
        assert _rel(P, P_ref) <= 1e-12
    assert factorizations == (["_band_solve", "splu"] if superlu
                              else ["_red_black_solve"] * 2)


def test_numerically_singular_dense_system_raises(factorizations):
    """With a pressure datum the flow can barely reach, S is regular in
    structure but singular to roundoff: the pivot test of the red-black
    solve's dense factor, and that of the band factor, report it."""
    grid = build_fine_grid(4, 4)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid))
    coeff = np.ones(grid.n_cells)
    coeff[grid.cell_id(np.array([0, 3]), np.arange(4)[:, None]).ravel()] = 1e14
    A = assemble_velocity_matrix(grid, coeff)
    assert not sys_.operator.singular
    for path in ("red_black", "band"):
        with pytest.MonkeyPatch.context() as mp:
            _take(mp, path)
            with pytest.raises(SingularSystemError, match="numerically singular"):
                sys_.solve(A, sys_.G0)
    assert factorizations == ["_red_black_solve", "_band_solve"]


@pytest.mark.parametrize("limit", [_DENSE_LIMIT, 0])
def test_non_finite_right_hand_side_raises_singular_system_error(limit, monkeypatch):
    """A NaN in G reaches the pressure solve, red-black within the dense
    limit, beyond it banded or by SuperLU under a lowered band limit, and
    comes back as a non-finite solution, reported as a singular system.
    On SuperLU a finite solve first leaves its factor retained: CG with it
    gives up on the NaN, and the fresh factorization raises."""
    monkeypatch.setattr("msforch.solve._DENSE_LIMIT", limit)
    grid = build_fine_grid(4, 4)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid))
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    G = sys_.G0.copy()
    G[np.flatnonzero(G)[0]] = np.nan
    for band_limit in (_BAND_LIMIT, 0):
        monkeypatch.setattr("msforch.solve._BAND_LIMIT", band_limit)
        sys_.solve(A, sys_.G0)
        with pytest.raises(SingularSystemError, match="non-finite values"):
            sys_.solve(A, G)


def test_band_and_sparse_schur_share_one_pattern():
    """The band is the sparse S's data scattered into the lower band of S in
    band order (the cells numbered along the shorter side), column-major,
    bitwise; its int32 positions are built only by the band path, and the
    band is kd = shorter side + 1 wide.  A Newton matrix, whose tensor
    blocks make S nine-point, on squares, strips and both orientations."""
    captured = []

    def capture(ab, rhs):
        captured.append(ab.copy(order="A"))
        return np.zeros(rhs.shape)

    for nx, ny in ((1, 1), (1, 6), (7, 5), (5, 7), (16, 16)):
        grid = build_fine_grid(nx, ny)
        sys_ = LinearizedSystem(grid, np.ones(grid.n_cells), left_right_spec(grid))
        rng = np.random.default_rng(2)
        A = linearize(grid, rng.uniform(0.1, 10.0, grid.n_cells), np.ones(grid.n_cells),
                      rng.standard_normal(grid.n_dofs), "newton")[0]
        operator = sys_.operator
        with pytest.MonkeyPatch.context() as mp:
            _take(mp, "splu")
            sys_.solve(A, sys_.G0)
        assert "_band_positions" not in vars(operator) and "_band" not in vars(operator)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("msforch.solve._band_solve", capture)
            sys_.solve(A, sys_.G0)
        assert operator._band_positions.dtype == np.int32
        ab = captured.pop()
        (order, rank), kd = operator._band, operator._band_width
        assert kd == min(nx, ny) + 1 and ab.shape == (kd + 1, grid.n_cells)
        assert ab.flags.f_contiguous
        ix, iy = order % nx, order // nx
        assert np.array_equal(rank[order], np.arange(grid.n_cells))
        assert np.array_equal(ix * ny + iy if nx >= ny else iy * nx + ix, np.arange(grid.n_cells))
        X = _vertex_factor(operator, A)[1]
        nd = operator._rank[order]   # nested-dissection position of each band position
        S = schur_matrix(operator, X).toarray()[nd][:, nd]
        assert not np.tril(S, -kd - 1).any() and np.array_equal(S, S.T)
        expected = np.zeros_like(ab)
        for i in range(kd + 1):
            expected[i, :grid.n_cells - i] = S.diagonal(-i)
        assert np.array_equal(ab, expected)


@pytest.mark.parametrize("columns", [False, True])
def test_fused_triangular_pass_matches_separate_solves(columns):
    """[X | y] from one triangular pass equals X and y solved apart, bitwise;
    a tensor A takes one right-hand side, and several columns raise."""
    grid = build_fine_grid(5, 4)
    sys_ = LinearizedSystem(grid, np.ones(grid.n_cells), left_right_spec(grid))
    rng = np.random.default_rng(9)
    A = linearize(grid, 1.0 / rng.uniform(0.1, 10.0, grid.n_cells), np.ones(grid.n_cells),
                  rng.standard_normal(grid.n_dofs), "newton")[0]
    operator = sys_.operator
    if columns:
        with pytest.raises(ValueError, match="one right-hand side"):
            operator._eliminate(A, rng.standard_normal((grid.n_dofs, 2)), sys_.F[:, None])
        return
    G = rng.standard_normal(grid.n_dofs)
    L, X, y, rhs = operator._eliminate(A, G, sys_.F)
    L_ref, X_ref = _vertex_factor(operator, A)
    y_ref = lower_solve(L_ref, np.append(G, 0.0)[operator._dofs])
    assert np.array_equal(L, L_ref) and np.array_equal(X, X_ref) and np.array_equal(y, y_ref)


def test_one_pressure_datum_makes_the_box_regular():
    """The five-spot producer's two Dirichlet edges fix the constant (S
    factored banded, then by SuperLU, under lowered size limits)."""
    grid = build_fine_grid(20, 20)
    bc, f = five_spot(grid)
    sys_ = LinearizedSystem(grid, f, bc)
    assert not sys_.operator.singular
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    for path in ("band", "splu"):
        with pytest.MonkeyPatch.context() as mp:
            _take(mp, path)
            U, P, _ = sys_.solve(A, sys_.G0)
        assert np.all(np.isfinite(P))


def test_indefinite_block_raises_assembly_error():
    grid = build_fine_grid(4, 3)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid))
    coeff = np.ones(grid.n_cells)
    coeff[5] = -1.0
    A = assemble_velocity_matrix(grid, coeff)
    with pytest.raises(AssemblyError, match="positive definite"):
        sys_.solve(A, sys_.G0)
    with pytest.raises(AssemblyError, match="positive definite"):
        sys_.solve(A, sys_.G0, sp.identity(grid.n_cells, format="csr"))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_coefficient_fails_on_first_iteration(monkeypatch):
    """A NaN in beta surfaces as a non-finite vertex block in the first
    linearization step, not as an asymmetric block after max_iter steps."""
    grid = build_fine_grid(6, 6)
    beta = _const(grid, 10.0)
    beta.values[7] = np.nan
    calls = []
    solve = LinearizedSystem.solve

    def counting_solve(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(LinearizedSystem, "solve", counting_solve)
    cfg = NonlinearConfig(scheme="picard", max_iter=10_000)
    with pytest.raises(AssemblyError, match="non-finite vertex block"):
        nonlinear_solve(grid, _const(grid), beta, left_right_spec(grid),
                        np.zeros(grid.n_cells), cfg)
    assert len(calls) == 2   # the Darcy initial guess, then the first step


@pytest.mark.parametrize("problem", ["left_right", "online"])
def test_operator_eliminates_fixed_dofs(problem):
    """The prepared operator reads G as zero at its fixed DOFs: a G that is
    nonzero there solves bitwise as that G zeroed there, on every
    factorization path, and both agree with the saddle oracle of the
    constraints eliminated by hand to 1e-12, on a fine left-right system and
    on an online T+ problem with pinned cells, for a scalar A (per edge) and
    a tensor one (vertex blocks)."""
    rng = np.random.default_rng(11)
    if problem == "left_right":
        grid = build_fine_grid(7, 5)
        sys_ = LinearizedSystem(grid, rng.standard_normal(grid.n_cells), left_right_spec(grid))
        fixed, kept, F = sys_.cdofs, np.arange(grid.n_cells), sys_.F
        operator = sys_.operator
    else:
        coarse = build_coarse_grid(build_fine_grid(12, 12), 4, 4)
        shape = online_shape(coarse, 5)[0]
        grid, kept, operator = shape.grid, shape.element_cells, shape.operator
        fixed = (2 * grid.boundary_edges[:, None] + np.array([0, 1])).ravel()
        F = rng.standard_normal(kept.size)
    coeff = 10.0 ** rng.uniform(-2.0, 2.0, grid.n_cells)
    G = rng.standard_normal(grid.n_dofs)
    G_free = G.copy()
    G_free[fixed] = 0.0
    free = np.ones(grid.n_dofs)
    free[fixed] = 0.0
    Bfree = (sp.diags(free) @ assemble_divergence(grid)).tocsc()[:, kept]
    for tensor, A in enumerate((
            assemble_velocity_matrix(grid, 1.0 / coeff),
            linearize(grid, coeff, np.ones(grid.n_cells), rng.standard_normal(grid.n_dofs),
                      "newton")[0])):
        assert (A.diagonal is None) == tensor
        U_ref, P_ref = saddle_oracle(with_identity_rows(A, fixed), Bfree, G_free, F)
        for path in PATHS:
            with pytest.MonkeyPatch.context() as mp:
                _take(mp, path)
                U, P = operator.solve(A, G, F)
                U_free, P_free = operator.solve(A, G_free, F)
                assert np.array_equal(U, U_free) and np.array_equal(P, P_free)
                assert _rel(U, U_ref) <= 1e-12 and _rel(P, P_ref) <= 1e-12
                assert np.array_equal(operator.pressure(A, F),
                                      operator.solve(A, np.zeros(grid.n_dofs), F)[1])
                if problem == "left_right":
                    R = sp.identity(grid.n_cells, format="csr")
                    U_r, P_r = operator.solve_reduced(A, R, G, F)
                    U_rf, P_rf = operator.solve_reduced(A, R, G_free, F)
                    assert np.array_equal(U_r, U_rf) and np.array_equal(P_r, P_rf)
                    assert _rel(U_r, U_ref) <= 1e-12 and _rel(P_r, P_ref) <= 1e-12


@pytest.mark.parametrize("layers", [0, 1])
def test_dense_solve_of_several_columns_matches_column_solves(layers):
    """A dense solve of k right-hand-side columns (the snapshot problems)
    gives the k single-column pressures exactly, and their velocities to
    roundoff: the back-substitution of several columns is a batched matmul."""
    rng = np.random.default_rng(layers)
    coarse = build_coarse_grid(build_fine_grid(12, 12), 3, 3)
    shape = snapshot_shape(coarse, 4, layers)[0]
    A = assemble_velocity_matrix(shape.grid, 10.0 ** rng.uniform(-2.0, 2.0, shape.grid.n_cells))
    U, P = shape.operator.solve(A, shape.data, 0.0)
    assert P.shape == (shape.grid.n_cells, shape.data.shape[1]) and U.shape == shape.data.shape
    for j in range(shape.data.shape[1]):
        u, p = shape.operator.solve(A, shape.data[:, j], 0.0)
        assert np.array_equal(p, P[:, j])
        assert np.abs(u - U[:, j]).max() <= 1e-14 * np.abs(U[:, j]).max()


def _snapshot_columns_share_one_factorization(calls, name):
    """A snapshot block of more than ``_DENSE_LIMIT`` cells (an 18x16
    element of a 36x32 grid) solves all its boundary-data columns with one
    factorization ``name``, and they equal the single-column solves."""
    rng = np.random.default_rng(7)
    coarse = build_coarse_grid(build_fine_grid(36, 32), 2, 2)
    shape = snapshot_shape(coarse, 3)[0]
    A = assemble_velocity_matrix(shape.grid, 10.0 ** rng.uniform(-2.0, 2.0, shape.grid.n_cells))
    U, P = shape.operator.solve(A, shape.data, 0.0)
    k = shape.data.shape[1]
    assert 288 > _DENSE_LIMIT and calls == [name]
    for j in range(k):
        u, p = shape.operator.solve(A, shape.data[:, j], 0.0)
        assert np.array_equal(p, P[:, j])
        assert np.abs(u - U[:, j]).max() <= 1e-14 * np.abs(U[:, j]).max()
    assert calls == [name] * (1 + k)


def test_snapshot_columns_beyond_dense_limit_go_through_superlu(factorizations, monkeypatch):
    """Beyond the dense limit, with the band limit lowered, the snapshot
    columns share one SuperLU factorization."""
    _take(monkeypatch, "splu")
    _snapshot_columns_share_one_factorization(factorizations, "splu")


def test_snapshot_columns_beyond_dense_limit_share_one_band_factorization(factorizations):
    """Beyond the dense limit the snapshot columns share one band factorization."""
    _snapshot_columns_share_one_factorization(factorizations, "_band_solve")


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 17), (1, 60), (17, 1), (60, 1), (7, 5), (40, 40)])
def test_nested_dissection_orders_every_cell_once(nx, ny):
    """The ordering is a permutation of the pressure numbers on full grids
    and on 1 x k and k x 1 strips, and S built in that order is symmetric
    and couples only cells that share a vertex."""
    grid = build_fine_grid(nx, ny)
    operator = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid)).operator
    order = operator._order
    assert np.array_equal(np.sort(order), np.arange(grid.n_cells))
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    S = schur_matrix(operator, _vertex_factor(operator, A)[1]).toarray()
    ix, iy = order % nx, order // nx
    coupled = (np.abs(ix[:, None] - ix) <= 1) & (np.abs(iy[:, None] - iy) <= 1)
    assert np.all(S[~coupled] == 0.0) and np.array_equal(S, S.T)


def test_nested_dissection_of_the_online_element():
    """On the online T+ problem the pressure lives on the element's cells
    only; their order is a permutation of those pressure numbers."""
    coarse = build_coarse_grid(build_fine_grid(40, 40), 2, 2)
    for i in range(4):
        shape = online_shape(coarse, i)[0]
        operator = shape.operator
        assert operator.n_pressure == shape.element_cells.size == 400
        assert np.array_equal(np.sort(operator._order), np.arange(400))


def test_nested_dissection_needs_less_fill_than_superlu_defaults(monkeypatch):
    """On a 40x40 grid SuperLU on the nested-dissection-ordered S keeps its
    rows and columns in place and fills fewer entries of L + U than SuperLU
    with its own defaults on the naturally ordered S."""
    grid = build_fine_grid(40, 40)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid))
    A = assemble_velocity_matrix(grid, 1.0 / gen_synthetic("blobs", 2, 100.0, 40, 40).values)
    _take(monkeypatch, "splu")
    factors = []
    splu = spla.splu

    def recording(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", recording)
    sys_.solve(A, sys_.G0)
    (lu,) = factors
    identity = np.arange(grid.n_cells)
    assert np.array_equal(lu.perm_r, identity) and np.array_equal(lu.perm_c, identity)
    operator = sys_.operator
    rank = np.argsort(operator._order)
    natural = schur_matrix(operator, _vertex_factor(operator, A)[1])[rank][:, rank].tocsc()
    defaults = splu(natural)
    assert lu.L.nnz + lu.U.nnz < defaults.L.nnz + defaults.U.nnz


def test_sparse_local_solves_match_dense():
    """Forced onto the band or SuperLU, the online T+ operator (pressure on
    the element's cells only) and a snapshot operator with its many
    boundary-data columns agree with their red-black solves to 1e-12."""
    rng = np.random.default_rng(5)
    coarse = build_coarse_grid(build_fine_grid(24, 24), 3, 3)
    online, snapshot = online_shape(coarse, 4)[0], snapshot_shape(coarse, 4, 1)[0]
    problems = ((online, np.zeros(online.grid.n_dofs), rng.standard_normal(online.element_cells.size)),
                (snapshot, snapshot.data, 0.0))
    for shape, G, F in problems:
        A = assemble_velocity_matrix(shape.grid, 10.0 ** rng.uniform(-2.0, 2.0, shape.grid.n_cells))
        U_d, P_d = shape.operator.solve(A, G, F)
        for path in ("band", "splu"):
            with pytest.MonkeyPatch.context() as mp:
                _take(mp, path)
                U_s, P_s = shape.operator.solve(A, G, F)
            assert _rel(P_s, P_d) <= 1e-12 and _rel(U_s, U_d) <= 1e-12
    assert snapshot.data.shape[1] == 40


def test_high_contrast_regular_system_solves():
    """A checkerboard of permeabilities 1e-7 and 1e7 (contrast 1e14; the two
    columns at the Dirichlet sides at 1e-7, so S's diagonal stays within the
    pivot floor) gives vertex blocks spanning 14 decades and a regular S
    that the band and SuperLU, without pivoting, solve as the red-black
    path does: cell balance to 1e-10, pressures and velocities to 1e-8
    relative."""
    grid = build_fine_grid(16, 16)
    ix, iy = np.arange(grid.n_cells) % 16, np.arange(grid.n_cells) // 16
    kappa = np.where(((ix + iy) % 2 == 0) | (ix == 0) | (ix == 15), 1e-7, 1e7)
    f = np.random.default_rng(14).standard_normal(grid.n_cells)
    sys_ = LinearizedSystem(grid, f, left_right_spec(grid))
    A = assemble_velocity_matrix(grid, 1.0 / kappa)
    U_d, P_d, _ = sys_.solve(A, sys_.G0)
    for path in ("band", "splu"):
        with pytest.MonkeyPatch.context() as mp:
            _take(mp, path)
            U, P, _ = sys_.solve(A, sys_.G0)
        defect = np.abs(cell_divergence(grid, sys_.B, U) - f)
        scale = (abs(sys_.B).T @ np.abs(U)) / grid.cell_areas
        assert defect.max() <= 1e-10 * scale.max()
        assert _rel(P, P_d) <= 1e-8 and _rel(U, U_d) <= 1e-8


def test_regular_high_contrast_system_solves_on_both_paths(monkeypatch):
    """A full 16x16 checkerboard of permeabilities 1e-7 and 1e7 with the
    left-right preset is regular: the saddle oracle solves it.  Both paths
    should solve it: red-black, banded and by SuperLU."""
    grid = build_fine_grid(16, 16)
    ix, iy = np.arange(grid.n_cells) % 16, np.arange(grid.n_cells) // 16
    kappa = np.where((ix + iy) % 2 == 0, 1e-7, 1e7)
    f = np.random.default_rng(14).standard_normal(grid.n_cells)
    sys_ = LinearizedSystem(grid, f, left_right_spec(grid))
    A = assemble_velocity_matrix(grid, 1.0 / kappa)
    Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
    _, P_ref = saddle_oracle(Ahat, Bfree, G2, sys_.F)
    for path in PATHS:
        with pytest.MonkeyPatch.context() as mp:
            _take(mp, path)
            _, P, _ = sys_.solve(A, sys_.G0)
        assert np.all(np.isfinite(P)) and _rel(P, P_ref) <= 1e-10



def _general(A):
    """A without its diagonal: solved by vertex Cholesky, triangular solves
    and the nine-point S, banded below the band limit."""
    return VertexBlockMatrix(A.blocks, A.grid)


def _by_column(solve, G, F):
    """The arrays solve(G, F) returns, for a vector G; for a 2-D G, those of
    solve(G_j, F_j) for each column j, stacked as columns (F_j is F's column
    j, or F itself if scalar): the general (vertex) path takes one
    right-hand side."""
    if G.ndim == 1:
        return solve(G, F)
    runs = [solve(G[:, j], F[:, j] if np.ndim(F) else F) for j in range(G.shape[1])]
    return tuple(np.stack(r, axis=-1) for r in zip(*runs))


def _columns_close(a, b, rtol):
    """Every column of a within rtol of b's, relative to b's norm."""
    a, b = a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)
    return bool(np.all(np.linalg.norm(a - b, axis=0) <= rtol * np.linalg.norm(b, axis=0)))


def _scalar_problem(rng, nx, ny, problem, columns):
    """(grid, operator, G, F) of a fine left-right or five-spot system
    (Neumann DOFs fixed), an online T+ problem (pressure kept on the
    element's cells, boundary DOFs fixed) or a snapshot block (its
    boundary-data columns)."""
    if problem in ("left_right", "five_spot"):
        grid = build_fine_grid(nx, ny)
        if problem == "left_right":
            bc, f = left_right_spec(grid), rng.standard_normal(grid.n_cells)
        else:
            bc, f = five_spot(grid)
        sys_ = LinearizedSystem(grid, f, bc)
        if columns == 1:
            return grid, sys_.operator, sys_.G0, sys_.F
        G = rng.standard_normal((grid.n_dofs, columns))
        return grid, sys_.operator, G, np.outer(sys_.F, np.ones(columns))
    coarse = build_coarse_grid(build_fine_grid(3 * nx, 3 * ny), 3, 3)
    element = int(rng.integers(9))
    if problem == "online":
        shape = online_shape(coarse, element)[0]
        F = rng.standard_normal((shape.element_cells.size, columns))
        G = rng.standard_normal((shape.grid.n_dofs, columns))
        if columns == 1:
            F, G = F[:, 0], G[:, 0]
        return shape.grid, shape.operator, G, F
    shape = snapshot_shape(coarse, element, 1)[0]
    return shape.grid, shape.operator, shape.data, 0.0


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 9), ny=st.integers(1, 9),
    problem=st.sampled_from(["left_right", "five_spot", "online", "snapshot"]),
    columns=st.sampled_from([1, 3]),
    per_corner=st.booleans(),
    superlu=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_path_matches_general_path(nx, ny, problem, columns, per_corner, superlu, seed):
    """A scalar coefficient's diagonal matrix (velocities eliminated per
    edge, the two-point S solved red-black below the dense limit) gives the
    pressure system of the general path (vertex Cholesky, triangular solves,
    ``schur_matrix``, banded) to 1e-14 relative, S and right-hand side,
    and its velocity and pressure (nine-point S) to 1e-13 relative, for one
    or several right-hand sides, with fixed Neumann DOFs or kept cells, or
    with both paths by SuperLU.  The general path takes one column at a
    time.  The per-edge path forms no X and y, so there is no eliminated
    system to compare bitwise."""
    rng = np.random.default_rng(seed)
    grid, operator, G, F = _scalar_problem(rng, nx, ny, problem, columns)
    shape = (grid.n_cells, 4) if per_corner else grid.n_cells
    A = assemble_velocity_matrix(grid, 10.0 ** rng.uniform(-1.0, 1.0, shape))
    assert A.diagonal is not None
    data, rhs, _, five_point = operator._system(A, G, F)
    assert five_point
    S_ref = operator._schur_data(_vertex_factor(operator, A)[1])
    rhs_ref, = _by_column(lambda g, f: operator._eliminate(_general(A), g, f)[3:], G, F)
    assert np.abs(data - S_ref).max() <= 1e-14 * np.abs(S_ref).max()
    # Relative to the two terms of rhs = B^T A^{-1} G - F, which may cancel.
    F_full = np.broadcast_to(F, rhs.shape)
    scale = np.linalg.norm(rhs_ref + F_full, axis=0) + np.linalg.norm(F_full, axis=0)
    assert np.all(np.linalg.norm(rhs - rhs_ref, axis=0) <= 1e-14 * scale)
    with pytest.MonkeyPatch.context() as mp:
        if superlu:
            _take(mp, "splu")
        U, P = operator.solve(A, G, F)
        U_ref, P_ref = _by_column(lambda g, f: operator.solve(_general(A), g, f), G, F)
        assert _columns_close(U, U_ref, 1e-13) and _columns_close(P, P_ref, 1e-13)
        if problem == "online":
            P_ref, = _by_column(lambda g, f: (operator.pressure(_general(A), f),), G, F)
            assert _columns_close(operator.pressure(A, F), P_ref, 1e-13)
        if problem == "left_right" and columns == 1:
            R = sp.identity(grid.n_cells, format="csr")
            U_r, P_r = operator.solve_reduced(A, R, G, F)
            U_rr, P_rr = operator.solve_reduced(_general(A), R, G, F)
            assert _columns_close(U_r, U_rr, 1e-13) and _columns_close(P_r, P_rr, 1e-13)


def test_diagonal_path_is_taken_below_and_beyond_the_dense_limit(factorizations, monkeypatch):
    """A scalar coefficient's blocks are never factored by vertex Cholesky;
    its S goes red-black up to ``_DENSE_LIMIT`` cells, banded beyond, and to
    SuperLU beyond the band limit, where the velocities still come by
    division."""
    monkeypatch.setattr(msforch.solve, "vertex_cholesky",
                        lambda *a: factorizations.append("vertex_cholesky"))
    for nx, limit in ((17, _BAND_LIMIT), (18, _BAND_LIMIT), (18, 0)):   # 272, 288, 288 cells
        monkeypatch.setattr("msforch.solve._BAND_LIMIT", limit)
        grid = build_fine_grid(nx, 16)
        sys_ = LinearizedSystem(grid, np.ones(grid.n_cells), left_right_spec(grid))
        sys_.solve(assemble_velocity_matrix(grid, np.ones(grid.n_cells)), sys_.G0)
    assert factorizations == ["_red_black_solve", "_band_solve", "splu"]


@pytest.mark.parametrize("bad, message", [
    (np.nan, "non-finite vertex block at vertex"),
    (np.inf, "non-finite vertex block at vertex"),
    (-1.0, "not positive definite at vertex"),
    (0.0, "not positive definite at vertex"),
])
def test_bad_diagonal_raises_the_vertex_naming_error(bad, message):
    """A diagonal that is not finite and positive falls back to the vertex
    Cholesky, which names the vertex: the same error as the general path,
    also for several right-hand-side columns: the vertex check comes before
    the general path's one-column check."""
    grid = build_fine_grid(4, 3)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), all_dirichlet_spec(grid, 0.0))
    coeff = np.ones(grid.n_cells)
    coeff[0] = bad   # a corner cell: its boundary DOFs see this cell alone
    A = assemble_velocity_matrix(grid, coeff)
    assert A.diagonal is not None
    with pytest.raises(AssemblyError, match=message) as diagonal:
        sys_.solve(A, sys_.G0)
    with pytest.raises(AssemblyError) as general:
        sys_.solve(_general(A), sys_.G0)
    assert str(diagonal.value) == str(general.value)
    with pytest.raises(AssemblyError) as columns:
        sys_.operator.solve(A, np.zeros((grid.n_dofs, 3)), np.zeros((grid.n_cells, 3)))
    assert str(columns.value) == str(diagonal.value)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 6), (2, 2), (7, 5), (16, 16), (17, 16)])
def test_red_black_solve_matches_dense_cholesky_of_s(nx, ny):
    """The red-black solve of a scalar coefficient's two-point S (formed
    per edge) equals a plain dense Cholesky solve of the general path's
    ``schur_matrix`` to 1e-13, for one and several columns; S couples no
    two cells of one colour."""
    rng = np.random.default_rng(nx * ny)
    grid = build_fine_grid(nx, ny)
    operator = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid)).operator
    A = assemble_velocity_matrix(grid, 10.0 ** rng.uniform(-2.0, 2.0, grid.n_cells))
    data, _, _, five_point = operator._system(A, np.zeros(grid.n_dofs), 0.0)
    assert five_point
    order = operator._order
    S = operator._csc(data).toarray()
    S_ref = schur_matrix(operator, _vertex_factor(operator, A)[1]).toarray()
    assert np.abs(S - S_ref).max() <= 1e-14 * np.abs(S_ref).max()
    ix, iy = order % nx, order // nx
    same_colour = (ix + iy)[:, None] % 2 == (ix + iy)[None, :] % 2
    assert np.all(S[same_colour & ~np.eye(grid.n_cells, dtype=bool)] == 0.0)
    factor = la.cho_factor(S_ref)
    for rhs in (rng.standard_normal(grid.n_cells), rng.standard_normal((grid.n_cells, 4))):
        P = operator._red_black_solve(data, rhs)
        P_ref = np.empty(rhs.shape)
        P_ref[order] = la.cho_solve(factor, rhs[order])
        assert _columns_close(P, P_ref, 1e-13)


@pytest.mark.parametrize("nx, ny", [(2, 1), (3, 3), (7, 4), (16, 16)])
def test_red_black_solve_reports_a_closed_box(nx, ny):
    """A closed no-flow box raises, up front by the operator's datum check,
    and in the red-black solve itself by the pivot test of the black
    system, whose last pivot is roundoff."""
    grid = build_fine_grid(nx, ny)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, 10.0 ** np.random.default_rng(nx).uniform(-1.0, 1.0, grid.n_cells))
    with pytest.raises(SingularSystemError, match="no pressure datum"):
        sys_.solve(A, sys_.G0)
    operator = sys_.operator
    data = operator._system(A, np.zeros(grid.n_dofs), 0.0)[0]
    with pytest.raises(SingularSystemError, match="singular|not SPD"):
        operator._red_black_solve(data, np.ones(grid.n_cells))


@pytest.mark.parametrize("nx, ny", [(1, 1), (7, 5), (24, 24)])
def test_edge_maps_are_lean(nx, ny):
    """The per-edge maps, built on a scalar solve, are int32 and hold at
    most six entries per edge: two pressure numbers and four positions."""
    grid = build_fine_grid(nx, ny)
    sys_ = LinearizedSystem(grid, np.ones(grid.n_cells), left_right_spec(grid))
    sys_.solve(assemble_velocity_matrix(grid, np.ones(grid.n_cells)), sys_.G0)
    cells, positions = sys_.operator._edges
    assert cells.dtype == positions.dtype == np.int32
    assert cells.size + positions.size <= 6 * grid.n_edges


def _shuffled_map(rng, fine, coarse, kappa, m):
    """An offline map with the elements' columns in a random element order,
    then one more column on each of three random elements."""
    spaces, _ = build_offline_space(fine, coarse, kappa, m)
    rmap = ReductionMap(fine.n_cells)
    for i in rng.permutation(coarse.n_elements):
        basis = spaces[i].basis(m)
        for k in range(m):
            rmap.append_column(int(i), spaces[i].cells, basis[:, k])
    for i in rng.choice(coarse.n_elements, 3, replace=False):
        cells = coarse.coarse_elements[i]
        rmap.append_column(int(i), cells, rng.standard_normal(cells.size))
    return rmap


@pytest.mark.parametrize("tensor", [False, True])
def test_reduced_solve_matches_dense_oracle(tensor, factorizations):
    """The banded reduced solve gives the velocity and coarse pressure of a
    dense solve of the saddle system with pressure space R to 1e-12, for a
    scalar A (per-edge elimination) and a Newton one (vertex blocks), with
    R's columns in shuffled element order."""
    rng = np.random.default_rng(3 + tensor)
    fine = build_fine_grid(12, 12)
    coarse = build_coarse_grid(fine, 3, 3)
    kappa = gen_synthetic("blobs", 2, 100.0, 12, 12)
    R = _shuffled_map(rng, fine, coarse, kappa, 2).matrix
    sys_ = LinearizedSystem(fine, rng.standard_normal(fine.n_cells), left_right_spec(fine))
    if tensor:
        A = linearize(fine, kappa.values, np.full(fine.n_cells, 10.0),
                      rng.standard_normal(fine.n_dofs), "newton")[0]
    else:
        A = assemble_velocity_matrix(fine, 1.0 / kappa.values)
    assert (A.diagonal is None) == tensor
    factorizations.clear()
    U, P, Pr = sys_.solve(A, sys_.G0, R)
    assert factorizations == ["_band_solve"]
    Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
    U_ref, Pr_ref = saddle_oracle(Ahat, (Bfree @ R).tocsr(), G2, R.T @ sys_.F)
    assert _rel(U, U_ref + sys_.lift) <= 1e-12
    assert _rel(Pr, Pr_ref) <= 1e-12
    assert np.array_equal(P, R @ Pr)


def test_reduced_system_singular_to_roundoff_raises():
    """A second column equal to another to roundoff makes R^T S R singular
    to roundoff: the pivot test of the band reduced factor reports it."""
    fine = build_fine_grid(8, 8)
    coarse = build_coarse_grid(fine, 2, 2)
    sys_ = LinearizedSystem(fine, np.zeros(fine.n_cells), left_right_spec(fine))
    A = assemble_velocity_matrix(fine, np.ones(fine.n_cells))
    rng = np.random.default_rng(8)
    rmap = ReductionMap(fine.n_cells)
    for i, cells in enumerate(coarse.coarse_elements):
        rmap.append_column(i, cells, rng.standard_normal(cells.size))
    cells, values = rmap.columns[1][1:]
    sys_.solve(A, sys_.G0, rmap.matrix)
    rmap.append_column(1, cells, values * (1.0 + 1e-15 * rng.standard_normal(cells.size)))
    with pytest.raises(SingularSystemError, match="numerically singular"):
        sys_.solve(A, sys_.G0, rmap.matrix)


def test_systems_on_one_grid_share_its_operator():
    """Systems on one grid object and set of constrained DOFs share the
    grid's B and prepared operator, which solves bitwise as a fresh one;
    another boundary partition or grid object gets an operator of its own."""
    grid = build_fine_grid(6, 5)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(grid.n_cells)
    a = LinearizedSystem(grid, f, left_right_spec(grid))
    b = LinearizedSystem(grid, 2.0 * f, left_right_spec(grid, 3.0, 1.0))
    c = LinearizedSystem(grid, f, all_dirichlet_spec(grid, 0.0))
    assert a.operator is b.operator and a.B is b.B is c.B
    assert c.operator is not a.operator and c.operator is grid_operator(grid)
    other = build_fine_grid(6, 5)
    assert LinearizedSystem(other, f, left_right_spec(other)).operator is not a.operator
    fresh = PreparedOperator(grid, a.cdofs)
    coeff = rng.uniform(0.1, 10.0, grid.n_cells)
    for A in (assemble_velocity_matrix(grid, coeff),
              linearize(grid, coeff, np.ones(grid.n_cells), rng.standard_normal(grid.n_dofs),
                        "newton")[0]):
        G = a.G0 - A.matvec(a.lift)
        for got, want in zip(a.operator.solve(A, G, a.F), fresh.solve(A, G, a.F)):
            assert np.array_equal(got, want)


def test_grid_memo_dies_with_the_grid():
    """The operator in a grid's memo holds no reference back to the grid:
    dropping the grid frees both at once, without the cycle collector."""
    gc.disable()
    try:
        grid = build_fine_grid(5, 4)
        sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid))
        sys_.solve(assemble_velocity_matrix(grid, np.ones(grid.n_cells)), sys_.G0)
        grid_ref, operator_ref = weakref.ref(grid), weakref.ref(sys_.operator)
        del grid, sys_
        assert grid_ref() is None and operator_ref() is None
    finally:
        gc.enable()


def _unique_pattern(operator):
    """S's pattern as ``np.unique`` finds it over every vertex's cell pairs:
    the reference for :attr:`PreparedOperator._sparse_pattern`."""
    n = operator.n_pressure
    cells = operator._rank[operator._cells]
    rows, cols = cells[:, None, :], cells[None, :, :]
    valid = (rows < n) & (cols < n)
    keys, inverse = np.unique((cols.astype(np.int64) * n + rows)[valid], return_inverse=True)
    index = np.full(valid.shape, keys.size, dtype=np.int32)
    index[valid] = inverse
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    return index.ravel(), (keys % n).astype(np.int32), indptr.astype(np.int32)


def test_sparse_pattern_matches_the_unique_build():
    """S's pattern, built by index arithmetic from cell coordinates, equals
    the ``np.unique`` build bitwise, dtypes included: on squares, on strips
    in both orientations, and on kept-cell rectangles (an online element
    inside T+, a rectangle of a grid, snapshot blocks)."""
    operators = []
    for nx, ny in ((1, 1), (2, 2), (16, 16), (1, 7), (7, 1), (40, 3), (3, 40), (33, 17)):
        grid = build_fine_grid(nx, ny)
        operators.append(PreparedOperator(grid))
    grid = build_fine_grid(9, 8)
    kept = grid.cell_id(np.arange(2, 7), np.arange(1, 4)[:, None]).ravel()
    operators.append(PreparedOperator(grid, kept_cells=kept))
    coarse = build_coarse_grid(build_fine_grid(24, 18), 3, 3)
    for i in range(9):
        operators += [online_shape(coarse, i)[0].operator, snapshot_shape(coarse, i, 1)[0].operator]
    for operator in operators:
        for got, want in zip(operator._sparse_pattern, _unique_pattern(operator)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _newton(nx, ny, seed, beta0, scheme="newton", tol_nl=1e-8):
    """A Newton (or Picard) solve of the left-right problem on an nx x ny
    blobs field of contrast 100, and its grid."""
    grid = build_fine_grid(nx, ny)
    kappa = gen_synthetic("blobs", seed, 100.0, nx, ny)
    sol = nonlinear_solve(grid, kappa, forchheimer_coeff(kappa, beta0), left_right_spec(grid),
                          np.zeros(grid.n_cells), NonlinearConfig(scheme, tol_nl, 1000))
    return grid, sol


class _Factor:
    """A SuperLU factor that a weak reference can follow; each of its solves
    appends 1 to ``solves``."""

    def __init__(self, lu, solves):
        self.lu, self.solves = lu, solves

    def solve(self, rhs):
        self.solves.append(1)
        return self.lu.solve(rhs)


def test_pcg_returns_a_start_that_meets_the_tolerance():
    """CG from a start whose residual is already within ``_CG_TOL`` ||b||
    returns that start without a preconditioner solve; a start near the
    solution needs fewer preconditioner solves than zero does."""
    rng = np.random.default_rng(5)
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(12, 12))
    S = (sp.kronsum(T, T) + sp.diags(rng.uniform(0.01, 0.02, 144))).tocsc()
    b = rng.standard_normal(144)
    x = spla.splu(S).solve(b)
    start = x * (1.0 + 5e-15)   # above the recursion's target, within the tolerance
    res = np.linalg.norm(b - S @ start) / np.linalg.norm(b)
    assert 0.1 * msforch.solve._CG_TOL < res <= msforch.solve._CG_TOL
    solves, nearby = [], (S + sp.diags(rng.uniform(0.0, 0.01, 144))).tocsc()
    factor = _Factor(spla.splu(nearby), solves)
    assert msforch.solve._pcg(S, factor, b, start) is start and not solves
    near = msforch.solve._pcg(S, factor, b, x * (1.0 + 1e-6))
    warm = len(solves)
    cold = msforch.solve._pcg(S, factor, b)
    assert near is not None and cold is not None and 0 < warm < len(solves) - warm
    assert _rel(near, x) <= 1e-12 and _rel(cold, x) <= 1e-12


@settings(max_examples=12, deadline=None)
@given(nx=st.integers(18, 30), ny=st.integers(18, 30), seed=st.integers(0, 2**16),
       case=st.sampled_from([("newton", 10.0), ("newton", 100.0), ("newton", 1000.0),
                             ("picard", 1.0), ("picard", 10.0)]))
# Draws whose next-to-last Newton step has eta of about 13 _CG_TOL: were it
# solved at eta, CG would stop within _CG_TOL but above roundoff, and the
# last step, returning its start, would keep that cell balance.
@example(nx=21, ny=19, seed=20856, case=("newton", 100.0))
@example(nx=18, ny=26, seed=5877, case=("newton", 10.0))
def test_retained_factor_matches_fresh_factorizations(nx, ny, seed, case):
    """With SuperLU forced (band limit 0), a Newton or Picard solve whose
    later steps are finished by CG with the retained factor, warm-started
    from the last pressure, takes as many iterations as one that factors
    every step (reuse switched off), its pressure and velocity agree to
    1e-11 relative, and every cell balances to 1e-12 of its summed flux."""
    scheme, beta0 = case
    with pytest.MonkeyPatch.context() as mp:
        _take(mp, "splu")
        grid, reused = _newton(nx, ny, seed, beta0, scheme)
        mp.setattr(msforch.solve, "_pcg", lambda *a: None)
        calls = _spy_factorizations(mp)
        _, fresh = _newton(nx, ny, seed, beta0, scheme)
    assert reused.converged and fresh.converged
    assert reused.iterations == fresh.iterations and len(calls) == fresh.iterations + 1
    assert _rel(reused.pressure, fresh.pressure) <= 1e-11
    assert _rel(reused.velocity, fresh.velocity) <= 1e-11
    B = assemble_divergence(grid)
    defect = np.abs(B.T @ reused.velocity)
    assert np.all(defect <= 1e-12 * (abs(B).T @ np.abs(reused.velocity)))


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_wide_newton_solve_reuses_its_factors(seed, factorizations, monkeypatch):
    """A 160x160 Newton solve (kd 161, beyond the band limit) makes at most
    two SuperLU factorizations, fewer than its solves: the later steps are
    finished by CG with the retained factor, started from the last pressure
    and loosened by the forcing term, in at most 85 solves with the factors
    in all."""
    solves = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: _Factor(splu(*a, **k), solves))
    _, sol = _newton(160, 160, seed, 100.0)
    assert sol.converged and set(factorizations) == {"splu"}
    assert len(factorizations) <= 2 < sol.iterations + 1
    assert len(solves) <= 85


def _steps(mp, scheme="newton", beta0=100.0, tol_nl=1e-8):
    """With SuperLU forced, a 24x24 solve of :func:`_newton` and, per
    pressure solve (the Darcy start first), the tolerance its CG was given,
    whether a factor was retained on entry and whether CG accepted it above
    ``_CG_TOL``."""
    steps = []
    splu_solve = msforch.solve._splu_solve

    def spy(S, rhs, retained):
        tol, had = retained.tol, retained.lu is not None
        out = splu_solve(S, rhs, retained)
        steps.append((tol, had, retained.loose))
        return out

    _take(mp, "splu")
    mp.setattr(msforch.solve, "_splu_solve", spy)
    return _newton(24, 24, 2, beta0, scheme, tol_nl)[1], steps


def test_picard_solves_every_step_to_the_cg_tolerance(monkeypatch):
    """Picard gets no forcing term: every CG with the retained factor is
    asked for ``_CG_TOL``."""
    tols = []
    pcg = msforch.solve._pcg
    monkeypatch.setattr(msforch.solve, "_pcg", lambda S, lu, b, x, tol:
                        tols.append(tol) or pcg(S, lu, b, x, tol))
    sol, steps = _steps(monkeypatch, "picard", 1.0)
    assert sol.converged and len(tols) == sol.iterations
    assert set(tols) == {msforch.solve._CG_TOL} and not any(loose for *_, loose in steps)


def test_newton_forcing_keeps_the_iteration_count():
    """A SuperLU-path Newton solve factors its first step afresh at
    ``_CG_TOL`` (the Darcy start's factor is dropped), accepts some later
    steps loosely, ends on a step that is not loose, and takes as many
    iterations as a solve with every step at ``_CG_TOL``."""
    with pytest.MonkeyPatch.context() as mp:
        sol, steps = _steps(mp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(msforch.solve, "_FORCING", 0.0)
        tight, tight_steps = _steps(mp)
    tol = msforch.solve._CG_TOL
    assert sol.converged and tight.converged and sol.iterations == tight.iterations
    assert len(steps) == sol.iterations + 1
    assert steps[:2] == [(tol, False, False)] * 2
    assert any(loose for *_, loose in steps) and not steps[-1][2]
    assert all(t == tol and not loose for t, _, loose in tight_steps)


def test_newton_never_converges_on_a_loose_step(monkeypatch):
    """An increment below ``tol_nl`` on a loosely accepted step does not end
    the solve: at tol_nl = 1e-3 the first such increment is loose, and the
    solve goes on to a step that is not."""
    sol, steps = _steps(monkeypatch, tol_nl=1e-3)
    loose = [loose for *_, loose in steps[1:]]   # per Newton step
    first = np.flatnonzero(sol.history[:, 0] <= 1e-3)[0]
    assert sol.converged and all(loose[first:-1]) and first < sol.iterations - 1
    assert not loose[-1]


def test_retained_factor_dies_with_the_solve(monkeypatch):
    """With the cycle collector off, at most one SuperLU factor is alive at
    a time (the retained one is dropped before S is factored afresh), every
    factor of a Newton solve is freed once ``nonlinear_solve`` returns, and
    the grid's shared operator holds none."""

    refs, reuses, alive = [], [], []
    splu = spla.splu

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        factor = _Factor(splu(*args, **kwargs), [])
        refs.append(weakref.ref(factor))
        return factor

    _take(monkeypatch, "splu")
    monkeypatch.setattr(spla, "splu", tracked)
    pcg = msforch.solve._pcg
    monkeypatch.setattr(msforch.solve, "_pcg",
                        lambda *a, **k: reuses.append(1) or pcg(*a, **k))
    gc.disable()
    try:
        grid, sol = _newton(24, 24, 2, 100.0)
        assert sol.converged and len(refs) > 1 and reuses and not any(alive)
        assert all(ref() is None for ref in refs)
        operators = [v for v in grid.memo.values() if isinstance(v, PreparedOperator)]
        assert operators and not any(isinstance(v, (_Factor, msforch.solve.RetainedFactor))
                                     for op in operators for v in vars(op).values())
    finally:
        gc.enable()
