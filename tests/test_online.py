"""Online enrichment: candidate bases, color sweeps, history, plateau logic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msforch.online
from msforch.fields import ScalarCellField, forchheimer_coeff, gen_synthetic
from msforch.grid import build_coarse_grid, build_fine_grid
from msforch.mfmfe import assemble_divergence, left_right_spec, quadrature_norm_matrix
from msforch.offline import (
    ReductionMap,
    build_offline_space,
    solve_offline,
    update_offline,
)
from msforch.online import (
    color_classes,
    detect_plateau,
    enrich_adaptive,
    enrich_uniform,
    error_metrics,
    init_enrichment,
    ms_solve,
    online_basis,
    online_residuals,
    sweep_final_errors,
)
from msforch.solve import FlowSolution, NonlinearConfig, cell_divergence, nonlinear_solve


@pytest.fixture(scope="module")
def problem():
    """Shared 16x16 fine / 4x4 coarse Forchheimer problem with reference,
    offline space and offline solution."""
    fine = build_fine_grid(16, 16)
    coarse = build_coarse_grid(fine, 4, 4)
    kappa = gen_synthetic("blobs", 4, 100.0, 16, 16)
    beta = ScalarCellField(16, 16, 100.0 / kappa.values)
    bc = left_right_spec(fine)
    f = np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10, max_iter=100)
    ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 3)
    off = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
    return dict(
        fine=fine, coarse=coarse, kappa=kappa, beta=beta, bc=bc, f=f,
        cfg=cfg, ref=ref, rmap=rmap, off=off,
    )


def _fresh_state(p, variant="updating"):
    return init_enrichment(
        p["fine"], p["coarse"], p["kappa"], p["beta"], p["bc"], p["f"],
        p["rmap"], p["cfg"], p["ref"], p["off"], variant,
    )


def _identity_map(fine, coarse):
    element_of_cell = np.empty(fine.n_cells, dtype=int)
    for i, cells in enumerate(coarse.coarse_elements):
        element_of_cell[cells] = i
    rmap = ReductionMap(fine.n_cells)
    for c in range(fine.n_cells):
        rmap.append_column(int(element_of_cell[c]), np.array([c]), np.array([1.0]))
    return rmap


def test_variant_and_reference_validation(problem):
    p = problem
    with pytest.raises(ValueError, match="variant"):
        init_enrichment(
            p["fine"], p["coarse"], p["kappa"], p["beta"], p["bc"], p["f"],
            p["rmap"], p["cfg"], p["ref"], p["off"], "frozen",
        )
    zero = FlowSolution(
        pressure=np.zeros(p["fine"].n_cells),
        velocity=np.zeros(p["fine"].n_dofs),
        iterations=1, converged=True, history=np.zeros((0, 2)),
    )
    with pytest.raises(ValueError, match="zero norm"):
        init_enrichment(
            p["fine"], p["coarse"], p["kappa"], p["beta"], p["bc"], p["f"],
            p["rmap"], p["cfg"], zero, p["off"], "updating",
        )


def test_enrichment_state_is_built_in_one_step(problem):
    """A positional EnrichmentState(...) call is the whole set-up of a run: the
    offline solution is its first, with its defect and coefficient, f_cells
    becomes a float array and the run appends to its own copy of the map."""
    p = problem
    inputs = [p[k] for k in ("fine", "coarse", "kappa", "beta", "bc", "f", "rmap", "cfg", "ref")]
    state = msforch.online.EnrichmentState(*inputs, p["off"])
    other = init_enrichment(*inputs, p["off"])
    assert state._defect.tobytes() == other._defect.tobytes()
    assert state._coeff.tobytes() == other._coeff.tobytes()
    assert state.solution is p["off"] and state.history == []
    inputs[5] = p["f"].tolist()
    state = msforch.online.EnrichmentState(*inputs, p["off"])
    assert isinstance(state.f_cells, np.ndarray) and state.f_cells.dtype == float
    assert np.array_equal(state.f_cells, p["f"])
    n_columns = p["rmap"].n_columns
    cells = p["coarse"].coarse_elements[0]
    state.rmap.append_column(0, cells, np.ones(cells.size))
    assert state.rmap.n_columns == n_columns + 1
    assert p["rmap"].n_columns == n_columns


def test_error_metrics_identities(problem):
    p = problem
    fine, ref = p["fine"], p["ref"]
    erp, eru = error_metrics(fine, ref, ref)
    assert erp == 0.0 and eru == 0.0
    doubled = FlowSolution(
        pressure=2.0 * ref.pressure, velocity=2.0 * ref.velocity,
        iterations=1, converged=True, history=np.zeros((0, 2)),
    )
    erp, eru = error_metrics(fine, doubled, ref)
    assert erp == pytest.approx(1.0, rel=1e-12)
    assert eru == pytest.approx(1.0, rel=1e-10)
    zero = FlowSolution(
        pressure=np.zeros(fine.n_cells), velocity=np.zeros(fine.n_dofs),
        iterations=1, converged=True, history=np.zeros((0, 2)),
    )
    with pytest.raises(ValueError):
        error_metrics(fine, ref, zero)


def test_error_metrics_hand_computed():
    fine = build_fine_grid(2, 1, domain=(0.0, 2.0, 0.0, 1.0))
    u = np.zeros(fine.n_dofs)
    u[0] = 1.0
    ref = FlowSolution(
        pressure=np.array([3.0, 4.0]), velocity=u,
        iterations=1, converged=True, history=np.zeros((0, 2)),
    )
    sol = FlowSolution(
        pressure=np.array([3.5, 3.0]), velocity=u.copy(),
        iterations=1, converged=True, history=np.zeros((0, 2)),
    )
    erp, eru = error_metrics(fine, sol, ref)
    # cells have unit area: ||dp|| = sqrt(0.25 + 1), ||p|| = sqrt(9 + 16)
    assert erp == pytest.approx(np.sqrt(1.25) / 5.0, rel=1e-13)
    assert eru == 0.0


def test_detect_plateau_rules():
    assert detect_plateau(np.array([1.0, 0.5, 0.499])) == 3
    assert detect_plateau(np.array([1.0, 0.5, 0.25, 0.125])) is None
    assert detect_plateau(np.array([1.0, 1.0, 0.2])) == 2
    assert detect_plateau(np.array([1.0])) is None
    assert detect_plateau(np.array([0.0, 0.0])) == 2


def test_color_classes_partition():
    fine = build_fine_grid(32, 12)
    coarse = build_coarse_grid(fine, 16, 6)
    classes = color_classes(coarse)
    assert [len(c) for c in classes] == [24, 24, 24, 24]
    all_ids = np.sort(np.concatenate(classes))
    assert np.array_equal(all_ids, np.arange(96))
    for cls in classes:
        parities = {(i % 16 % 2, i // 16 % 2) for i in cls.tolist()}
        assert len(parities) == 1
    small = color_classes(build_coarse_grid(build_fine_grid(4, 4), 2, 2))
    assert [len(c) for c in small] == [1, 1, 1, 1]


def test_exact_solution_rejects_all_candidates(problem):
    """With the full fine pressure space and a linear problem, the first
    reduced solve is exact, every candidate is rejected, and further sweeps
    change nothing."""
    p = problem
    fine, coarse = p["fine"], p["coarse"]
    beta0 = ScalarCellField(16, 16, np.zeros(fine.n_cells))
    cfg = NonlinearConfig(scheme="picard", tol_nl=1e-10)
    ref = nonlinear_solve(fine, p["kappa"], beta0, p["bc"], p["f"], cfg)
    ident = _identity_map(fine, coarse)
    state = init_enrichment(
        fine, coarse, p["kappa"], beta0, p["bc"], p["f"], ident, cfg, ref, ref,
    )
    for i in range(coarse.n_elements):
        assert online_basis(state, i) is None
    dim0 = state.dim
    enrich_uniform(state, 1)
    assert state.dim == dim0
    assert all(row.n_added == 0 for row in state.history)
    assert np.allclose(state.solution.pressure, ref.pressure, atol=1e-10)
    assert state.errors()[1] <= 1e-9


def test_online_basis_support_norm_orthogonality(problem):
    p = problem
    state = _fresh_state(p)
    fine, coarse = p["fine"], p["coarse"]
    residuals = online_residuals(state)
    checked = 0
    for i in (0, 5, 15):  # corner, interior, corner
        if residuals[i] == 0.0:
            continue
        cand = online_basis(state, i)
        assert cand is not None
        cells, values = cand
        assert np.array_equal(cells, coarse.coarse_elements[i])
        w = fine.cell_areas[cells]
        assert np.sqrt((values**2 * w).sum()) == pytest.approx(1.0, rel=1e-12)
        for j in state.rmap.columns_of(i):
            col = state.rmap.columns[j][2]
            assert abs((values * col * w).sum()) <= 1e-8
        checked += 1
    assert checked >= 2


def test_appended_target_direction_is_recovered_exactly(problem):
    """Galerkin identity: once the frozen-coefficient fine pressure enters the
    reduced space, the reduced solve reproduces the fine solution."""
    p = problem
    state = _fresh_state(p, variant="fixed_offline")
    fine = p["fine"]
    A_frozen = state.velocity_matrix()
    U_star, P_star = state._system.solve(A_frozen, state._system.G0)
    M = quadrature_norm_matrix(fine)
    d0 = np.sqrt((state.solution.velocity - U_star) @ M.matvec(state.solution.velocity - U_star))
    assert d0 > 1e-8
    delta = P_star - state.solution.pressure
    state.rmap.append_column(0, np.arange(fine.n_cells), delta)
    sol = ms_solve(state)
    d1 = np.sqrt((sol.velocity - U_star) @ M.matvec(sol.velocity - U_star))
    u_scale = np.sqrt(U_star @ M.matvec(U_star))
    assert d1 <= 1e-8 * u_scale
    assert d1 < 1e-6 * d0
    assert np.allclose(sol.pressure, P_star, atol=1e-8 * np.abs(P_star).max())


def test_fixed_variant_freezes_coefficient(problem):
    p = problem
    state = _fresh_state(p, variant="fixed_offline")
    frozen = state._coeff.copy()
    enrich_uniform(state, 1)
    assert np.array_equal(state._coeff, frozen)
    # repeated reduced solves with an unchanged space are idempotent
    s1 = ms_solve(state)
    s2 = ms_solve(state)
    assert np.allclose(s1.pressure, s2.pressure, atol=1e-13)


def test_fixed_variant_assembles_once_and_reads_no_new_speed(problem, monkeypatch):
    """Across two sweeps the frozen coefficient's fine velocity matrix is
    assembled once, and no solve after set-up recomputes corner velocities."""
    p = problem
    state = _fresh_state(p, variant="fixed_offline")
    assemble = msforch.online.assemble_velocity_matrix
    corner_velocities = msforch.online.corner_velocities
    fine_assemblies, speeds = [], []

    def assemble_spy(grid, *args, **kwargs):
        if grid is p["fine"]:
            fine_assemblies.append(1)
        return assemble(grid, *args, **kwargs)

    def speed_spy(*args, **kwargs):
        speeds.append(1)
        return corner_velocities(*args, **kwargs)

    monkeypatch.setattr(msforch.online, "assemble_velocity_matrix", assemble_spy)
    monkeypatch.setattr(msforch.online, "corner_velocities", speed_spy)
    enrich_uniform(state, 2)
    assert len(state.history) == 8
    assert len(fine_assemblies) == 1
    assert speeds == []


def test_history_accounting(problem):
    p = problem
    state = _fresh_state(p)
    dim0 = state.dim
    enrich_uniform(state, 2)
    rows = state.history
    assert len(rows) == 8
    assert [r.level for r in rows] == [1, 1, 1, 1, 2, 2, 2, 2]
    assert [r.subiter for r in rows] == [1, 2, 3, 4, 1, 2, 3, 4]
    dims = [dim0] + [r.dim_Wms for r in rows]
    added = [r.n_added for r in rows]
    for k in range(8):
        assert dims[k + 1] == dims[k] + added[k]
    assert state.dim == rows[-1].dim_Wms == state.rmap.n_columns
    assert rows[-1].total_residual <= rows[0].total_residual
    errs = sweep_final_errors(state)
    assert errs.shape == (2,)
    assert errs[0] == rows[3].Eru and errs[1] == rows[7].Eru
    # enrichment with the updating coefficient reduces the velocity error
    _, eru_off = error_metrics(p["fine"], p["off"], p["ref"])
    assert errs[-1] < errs[0] < eru_off


def test_adaptive_xi_validation(problem):
    state = _fresh_state(problem)
    for xi in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            enrich_adaptive(state, xi, 1)


def test_adaptive_near_one_matches_uniform(problem):
    """xi -> 1 selects every element, reproducing the uniform sweep."""
    p = problem
    fine = p["fine"]
    beta0 = ScalarCellField(16, 16, np.zeros(fine.n_cells))
    cfg = NonlinearConfig(scheme="picard", tol_nl=1e-10)
    ref = nonlinear_solve(fine, p["kappa"], beta0, p["bc"], p["f"], cfg)
    off = solve_offline(fine, p["kappa"], beta0, p["bc"], p["f"], p["rmap"], cfg)
    mk = lambda: init_enrichment(
        fine, p["coarse"], p["kappa"], beta0, p["bc"], p["f"], p["rmap"],
        cfg, ref, off,
    )
    uni, ada = mk(), mk()
    enrich_uniform(uni, 1)
    enrich_adaptive(ada, 0.999999, 1)
    assert ada.dim == uni.dim
    assert ada.history == uni.history


def test_adaptive_enriches_fewer_elements(problem):
    p = problem
    uni, ada = _fresh_state(p), _fresh_state(p)
    enrich_uniform(uni, 1)
    enrich_adaptive(ada, 0.5, 1)
    added_uni = sum(r.n_added for r in uni.history)
    added_ada = sum(r.n_added for r in ada.history)
    assert 0 < added_ada < added_uni
    # skipped empty color classes produce no history rows
    assert len(ada.history) <= len(uni.history)


def test_online_residuals_consistency(problem):
    from msforch.offline import conservation_residuals

    p = problem
    state = _fresh_state(p)
    direct = conservation_residuals(
        p["fine"], p["coarse"], state.solution.velocity, p["f"]
    )
    assert np.array_equal(online_residuals(state), direct)



def _coarse_balance(fine, B, sol, rmap, f):
    """Largest conservation defect of ``sol`` tested against one column of ``rmap``."""
    r = f - cell_divergence(fine, B, sol.velocity)
    return max(abs((values * r[cells] * fine.cell_areas[cells]).sum())
               for _, cells, values in rmap.columns)


def _weighted_sigma_min(fine, rmap):
    """Smallest singular value of the area-weighted reduction map D^(1/2) R."""
    R = rmap.matrix.toarray() * np.sqrt(fine.cell_areas)[:, None]
    return np.linalg.svd(R, compute_uv=False).min()


@settings(max_examples=20, deadline=None)
@given(
    Nx=st.integers(2, 3), Ny=st.integers(2, 3),
    mx=st.integers(2, 4), my=st.integers(2, 4),
    seed=st.integers(0, 1000),
    contrast=st.floats(1.0, 1e3),
    beta0=st.floats(0.0, 200.0),
)
def test_reduced_solves_conserve_mass_and_keep_full_rank(Nx, Ny, mx, my, seed, contrast, beta0):
    """Every reduced solve (offline, fully updated, and after each colour
    class of one uniform sweep) balances fluxes against every coarse basis
    column to 1e-8, and the area-weighted reduction map keeps full column
    rank through the enrichment."""
    nx, ny = Nx * mx, Ny * my
    fine = build_fine_grid(nx, ny)
    coarse = build_coarse_grid(fine, Nx, Ny)
    kappa = gen_synthetic("blobs", seed, contrast, nx, ny)
    beta = forchheimer_coeff(kappa, beta0)
    bc, f = left_right_spec(fine), np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10, max_iter=100)
    B = assemble_divergence(fine)

    ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 2)
    assert _weighted_sigma_min(fine, rmap) > 0.5
    off = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
    assert _coarse_balance(fine, B, off, rmap, f) <= 1e-8
    rmap_til, _ = update_offline(fine, coarse, rmap, spaces, off.velocity,
                                 np.arange(coarse.n_elements), kappa, beta)
    til = solve_offline(fine, kappa, beta, bc, f, rmap_til, cfg)
    assert _coarse_balance(fine, B, til, rmap_til, f) <= 1e-8
    assert _weighted_sigma_min(fine, rmap_til) > 0.5

    state = init_enrichment(fine, coarse, kappa, beta, bc, f, rmap, cfg, ref, off)
    for cls in color_classes(coarse):
        for i in cls:
            cand = online_basis(state, int(i))
            if cand is not None:
                state.rmap.append_column(int(i), *cand)
        sol = ms_solve(state)
        assert _coarse_balance(fine, B, sol, state.rmap, f) <= 1e-8
        assert _weighted_sigma_min(fine, state.rmap) > 0.5
