"""Linear saddle solvers and the nonlinear Picard/Newton loop."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from msforch.errors import AssemblyError, LinearSolverError, SingularSystemError
from msforch.fields import ScalarCellField, gen_synthetic
from msforch.grid import build_fine_grid
from msforch.mfmfe import (
    all_dirichlet_spec,
    assemble_divergence,
    assemble_velocity_matrix,
    five_spot,
    left_right_spec,
    no_flow_spec,
    quadrature_norm_matrix,
)
from msforch.solve import (
    LinearizedSystem,
    NonlinearConfig,
    cell_divergence,
    nonlinear_solve,
    saddle_oracle,
    schur_solve,
    velocity_error_norm,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _const(grid, value=1.0):
    return ScalarCellField(grid.nx, grid.ny, np.full(grid.n_cells, value))


def _random_reduced_system(rng, nx, ny):
    """Random heterogeneous left-right problem, constraints eliminated."""
    grid = build_fine_grid(nx, ny)
    bc = left_right_spec(grid, rng.uniform(0.5, 2.0), rng.uniform(-1.0, 0.5))
    f = rng.standard_normal(grid.n_cells)
    sys_ = LinearizedSystem(grid, f, bc)
    A = assemble_velocity_matrix(grid, rng.uniform(0.1, 10.0, grid.n_cells))
    Ahat, G2 = sys_.reduce(A, sys_.G0)
    return Ahat, sys_.Bfree, G2, sys_.F


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_schur_matches_saddle_oracle():
    rng = np.random.default_rng(42)
    for _ in range(6):
        nx, ny = rng.integers(1, 7, size=2)
        Ahat, B, G, F = _random_reduced_system(rng, int(nx), int(ny))
        U1, P1 = schur_solve(Ahat, B, G, F, method="dense")
        U2, P2 = saddle_oracle(Ahat, B, G, F)
        assert _rel(U1, U2) <= 1e-12
        assert _rel(P1, P2) <= 1e-12


def test_schur_backends_agree():
    rng = np.random.default_rng(3)
    Ahat, B, G, F = _random_reduced_system(rng, 6, 5)
    U_d, P_d = schur_solve(Ahat, B, G, F, method="dense")
    U_s, P_s = schur_solve(Ahat, B, G, F, method="splu")
    U_c, P_c = schur_solve(Ahat, B, G, F, method="cg", linear_tol=1e-14)
    assert _rel(P_s, P_d) <= 1e-10
    assert _rel(P_c, P_d) <= 1e-8
    assert _rel(U_s, U_d) <= 1e-10
    assert _rel(U_c, U_d) <= 1e-8


def test_closed_box_is_singular():
    # all-Neumann box with net injection: no solution, and the pressure is
    # only determined up to a constant even for compatible data
    grid = build_fine_grid(3, 3)
    f = np.ones(grid.n_cells)
    sys_ = LinearizedSystem(grid, f, no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    Ahat, G2 = sys_.reduce(A, sys_.G0)
    with pytest.raises(SingularSystemError):
        schur_solve(Ahat, sys_.Bfree, G2, sys_.F, method="dense")
    with pytest.raises(SingularSystemError):
        saddle_oracle(Ahat, sys_.Bfree, G2, sys_.F)


def test_zero_data_zero_solution():
    grid = build_fine_grid(4, 4)
    bc = left_right_spec(grid, 0.0, 0.0)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), bc)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    Ahat, G2 = sys_.reduce(A, sys_.G0)
    U, P = schur_solve(Ahat, sys_.Bfree, G2, sys_.F, method="dense")
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


def test_initial_guess_does_not_change_solution():
    grid = build_fine_grid(8, 8)
    kappa = _const(grid)
    beta = _const(grid, 50.0)
    bc = left_right_spec(grid)
    sols = [
        nonlinear_solve(
            grid, kappa, beta, bc, np.zeros(grid.n_cells),
            NonlinearConfig(scheme="newton", tol_nl=1e-12, initial=init),
        )
        for init in ("darcy", "zero")
    ]
    assert np.allclose(sols[0].pressure, sols[1].pressure, atol=1e-9)
    assert np.allclose(sols[0].velocity, sols[1].velocity, atol=1e-9)


def test_cg_iteration_cap_raises_with_residual():
    rng = np.random.default_rng(17)
    grid = build_fine_grid(12, 12)
    bc = left_right_spec(grid)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), bc)
    A = assemble_velocity_matrix(grid, rng.uniform(0.01, 100.0, grid.n_cells))
    Ahat, G2 = sys_.reduce(A, sys_.G0)
    with pytest.raises(LinearSolverError) as info:
        schur_solve(Ahat, sys_.Bfree, G2, sys_.F, method="cg", linear_max_iter=1)
    assert info.value.final_residual > 0.0


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        NonlinearConfig(scheme="gauss").validate()
    with pytest.raises(ValueError):
        NonlinearConfig(initial="warm").validate()
    with pytest.raises(ValueError):
        NonlinearConfig(max_iter=0).validate()
    with pytest.raises(ValueError):
        NonlinearConfig(linear_solver="amg").validate()


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
    backend=st.sampled_from(["auto", "splu"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prepared_solve_matches_saddle_oracle(nx, ny, preset, tensor, backend, seed):
    """The prepared operator (with the given factorization of S) and its
    reduced path with R = I agree with the dense saddle oracle to 1e-12."""
    sys_, A = _preset_problem(np.random.default_rng(seed), nx, ny, preset, tensor)
    Ahat, G2 = sys_.reduce(A, sys_.G0)
    U_ref, P_ref = saddle_oracle(Ahat, sys_.Bfree, G2, sys_.F)
    U_ref = U_ref + sys_.lift
    cfg = NonlinearConfig(linear_solver=backend)
    U, P, _ = sys_.solve(A, sys_.G0, cfg)
    assert _rel(U, U_ref) <= 1e-12
    assert _rel(P, P_ref) <= 1e-12
    identity = sp.identity(sys_.grid.n_cells, format="csr")
    U_r, P_r, coeffs = sys_.solve(A, sys_.G0, cfg, R=identity)
    assert _rel(U_r, U_ref) <= 1e-12
    assert _rel(P_r, P_ref) <= 1e-12
    assert np.array_equal(coeffs, P_r)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (3, 3), (7, 4), (12, 12), (30, 6)])
def test_closed_box_is_singular_in_auto_mode(nx, ny):
    """The dense Cholesky path of 'auto' mode reports singular pressure
    systems instead of returning a roundoff-driven solution."""
    grid = build_fine_grid(nx, ny)
    rng = np.random.default_rng(nx * 100 + ny)
    sys_ = LinearizedSystem(grid, np.ones(grid.n_cells), no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, 10.0 ** rng.uniform(-2.0, 2.0, grid.n_cells))
    with pytest.raises(SingularSystemError):
        sys_.solve(A, sys_.G0, NonlinearConfig())
    Ahat, G2 = sys_.reduce(A, sys_.G0)
    with pytest.raises(SingularSystemError):
        schur_solve(Ahat, sys_.Bfree, G2, sys_.F)


@pytest.mark.parametrize("method", ["splu", "cg"])
@pytest.mark.parametrize("n", [3, 8, 20])
def test_closed_box_is_singular_on_sparse_backends(n, method):
    """SuperLU and CG report a closed no-flow box as singular instead of
    returning a finite, roundoff-driven pressure."""
    grid = build_fine_grid(n, n)
    sys_ = LinearizedSystem(grid, np.ones(grid.n_cells), no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    with pytest.raises(SingularSystemError):
        sys_.solve(A, sys_.G0, NonlinearConfig(linear_solver=method))
    Ahat, G2 = sys_.reduce(A, sys_.G0)
    with pytest.raises(SingularSystemError):
        schur_solve(Ahat, sys_.Bfree, G2, sys_.F, method=method)


def test_closed_box_beyond_dense_limit_is_singular_in_auto_mode():
    grid = build_fine_grid(30, 20)   # 600 cells: SuperLU in 'auto' mode
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), no_flow_spec(grid))
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    with pytest.raises(SingularSystemError):
        sys_.solve(A, sys_.G0, NonlinearConfig())


def test_numerically_singular_dense_system_raises():
    """With a pressure datum the flow can barely reach, S is regular in
    structure but singular to roundoff: the dense pivot test reports it."""
    grid = build_fine_grid(4, 4)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid))
    coeff = np.ones(grid.n_cells)
    coeff[grid.cell_id(np.array([0, 3]), np.arange(4)[:, None]).ravel()] = 1e14
    A = assemble_velocity_matrix(grid, coeff)
    assert not sys_.operator.singular
    with pytest.raises(SingularSystemError, match="numerically singular"):
        sys_.solve(A, sys_.G0, NonlinearConfig(linear_solver="dense"))


def test_one_pressure_datum_makes_the_box_regular():
    """The five-spot producer's two Dirichlet edges fix the constant."""
    grid = build_fine_grid(20, 20)
    bc, f = five_spot(grid)
    sys_ = LinearizedSystem(grid, f, bc)
    assert not sys_.operator.singular
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    U, P, _ = sys_.solve(A, sys_.G0, NonlinearConfig(linear_solver="splu"))
    assert np.all(np.isfinite(P))


def test_indefinite_block_raises_assembly_error():
    grid = build_fine_grid(4, 3)
    sys_ = LinearizedSystem(grid, np.zeros(grid.n_cells), left_right_spec(grid))
    coeff = np.ones(grid.n_cells)
    coeff[5] = -1.0
    A = assemble_velocity_matrix(grid, coeff)
    with pytest.raises(AssemblyError, match="positive definite"):
        sys_.solve(A, sys_.G0, NonlinearConfig())
    with pytest.raises(AssemblyError, match="positive definite"):
        sys_.solve(A, sys_.G0, NonlinearConfig(), R=sp.identity(grid.n_cells, format="csr"))


def test_schur_solve_rejects_foreign_divergence():
    grid = build_fine_grid(3, 3)
    A = assemble_velocity_matrix(grid, np.ones(grid.n_cells))
    B = assemble_divergence(grid).tolil()
    B[0, grid.n_cells - 1] = 1.0   # DOF 0 sits at vertex 0, far from the last cell
    with pytest.raises(ValueError, match="away from"):
        schur_solve(A, B.tocsr(), np.zeros(grid.n_dofs), np.zeros(grid.n_cells))


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
