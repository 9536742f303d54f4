"""Acceptance suite: thirteen end-to-end guarantees of the solver stack.

Each test is one criterion, named and numbered, asserting the stated
tolerance and printing a one-line PASS summary with the measured values
(visible with ``pytest -s`` or on failure).  Criteria 9-12 share one
rectangular high-contrast problem through a module fixture.
"""

import time

import numpy as np
import pytest

from msforch.fields import ScalarCellField, forchheimer_coeff, gen_synthetic
from msforch.grid import build_coarse_grid, build_fine_grid
from msforch.mfmfe import (
    all_dirichlet_spec,
    assemble_divergence,
    assemble_velocity_matrix,
    five_spot,
    left_right_spec,
    quadrature_norm_matrix,
)
from msforch.offline import (
    assemble_reduction,
    build_offline_space,
    build_snapshots,
    conservation_residuals,
    select_by_fraction,
    solve_offline,
    spectral_decompose,
    update_offline,
)
from msforch.online import (
    detect_plateau,
    enrich_adaptive,
    enrich_uniform,
    error_metrics,
    init_enrichment,
    sweep_final_errors,
)
from msforch.solve import (
    LinearizedSystem,
    NonlinearConfig,
    cell_divergence,
    nonlinear_solve,
    schur_solve,
    velocity_error_norm,
)

from oracles import edge_normals, eliminate_constraints, saddle_oracle

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _report(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def _interior_x_normal_dofs(grid):
    """DOFs of interior vertical edges (normal along +x)."""
    edges = [
        grid.vertical_edge(ix, iy)
        for ix in range(1, grid.nx)
        for iy in range(grid.ny)
    ]
    return np.concatenate([[2 * e, 2 * e + 1] for e in edges])


# ---------------------------------------------------------------------------
# shared rectangular high-contrast problem (criteria 9-12)


@pytest.fixture(scope="module")
def channelized():
    """160x60 fine / 16x6 coarse on (0, 8/3) x (0, 1), kappa from the blob
    generator scaled into the inertia-dominated regime, beta0 = 100."""
    fine = build_fine_grid(160, 60, domain=(0.0, 8.0 / 3.0, 0.0, 1.0))
    coarse = build_coarse_grid(fine, 16, 6)
    bc = left_right_spec(fine, 1.0, 0.0)
    f = np.zeros(fine.n_cells)
    base = gen_synthetic("blobs", 2, 100.0, 160, 60)
    kappa = ScalarCellField(160, 60, base.values * 0.00198)
    beta = forchheimer_coeff(kappa, 100.0)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10, max_iter=100)

    ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)
    assert ref.converged
    spaces, rmap = build_offline_space(fine, coarse, kappa, 4)
    off = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
    assert off.converged
    eru_off = error_metrics(fine, off, ref)[1]

    def fresh(variant):
        return init_enrichment(
            fine, coarse, kappa, beta, bc, f, rmap, cfg, ref, off, variant
        )

    t0 = time.perf_counter()
    uniform = enrich_uniform(fresh("updating"), 3)
    uniform_seconds = time.perf_counter() - t0
    fixed = enrich_uniform(fresh("fixed_offline"), 6)

    adaptive = fresh("updating")
    target = sweep_final_errors(uniform)[-1]
    adaptive_errs = []
    for _ in range(8):
        enrich_adaptive(adaptive, 0.75, 1)
        adaptive_errs.append(sweep_final_errors(adaptive)[-1])
        if adaptive_errs[-1] <= target:
            break

    return dict(
        fine=fine, coarse=coarse, kappa=kappa, beta=beta, bc=bc, f=f, cfg=cfg,
        ref=ref, rmap=rmap, off=off, eru_off=eru_off, uniform=uniform,
        uniform_seconds=uniform_seconds, fixed=fixed, adaptive=adaptive,
        adaptive_errs=np.array(adaptive_errs),
    )


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_schur_solver_matches_saddle_oracle():
    """Blockwise-eliminated solves agree with the dense saddle oracle to
    1e-12 on 20 randomized small instances (grids to 8x8, scalar and tensor
    coefficients, all boundary presets) in under 10 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for k in range(20):
        nx, ny = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        grid = build_fine_grid(nx, ny)
        if k % 2 == 0:
            coeff = rng.uniform(0.1, 10.0, grid.n_cells)
        else:
            Q = rng.standard_normal((grid.n_cells, 4, 2, 2))
            coeff = Q @ np.swapaxes(Q, -1, -2) + 0.2 * np.eye(2)
        preset = k % 3
        if preset == 0:
            bc = left_right_spec(grid, rng.uniform(0.5, 2.0), rng.uniform(-1.0, 0.5))
            f = rng.standard_normal(grid.n_cells)
        elif preset == 1:
            a_, b_, c_ = rng.uniform(-1.0, 1.0, 3)
            bc = all_dirichlet_spec(
                grid, lambda x, y, a_=a_, b_=b_, c_=c_: a_ + b_ * x + c_ * y
            )
            f = rng.standard_normal(grid.n_cells)
        else:
            bc, f = five_spot(grid)
        sys_ = LinearizedSystem(grid, f, bc)
        A = assemble_velocity_matrix(grid, coeff)
        Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
        U1, P1 = schur_solve(A, G2, sys_.F, sys_.cdofs)
        U2, P2 = saddle_oracle(Ahat, Bfree, G2, sys_.F)
        rel_u = np.linalg.norm(U1 - U2) / max(np.linalg.norm(U2), 1e-300)
        rel_p = np.linalg.norm(P1 - P2) / max(np.linalg.norm(P2), 1e-300)
        assert rel_u <= 1e-12, f"instance {k}: velocity mismatch {rel_u:.2e}"
        assert rel_p <= 1e-12, f"instance {k}: pressure mismatch {rel_p:.2e}"
        worst = max(worst, rel_u, rel_p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"20 randomized instances, worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_linear_uniform_flow_recovered_exactly():
    """Unit permeability, no inertia, unit pressure drop on 32x32: cell
    pressures equal 1 - x and interior x-normal velocities equal 1, to 1e-10."""
    grid = build_fine_grid(32, 32)
    kappa = ScalarCellField(32, 32, np.ones(grid.n_cells))
    beta = ScalarCellField(32, 32, np.zeros(grid.n_cells))
    sol = nonlinear_solve(
        grid, kappa, beta, left_right_spec(grid, 1.0, 0.0),
        np.zeros(grid.n_cells), NonlinearConfig(scheme="newton"),
    )
    assert sol.converged
    p_err = np.abs(sol.pressure - (1.0 - grid.cell_centers[:, 0])).max()
    u_err = np.abs(sol.velocity[_interior_x_normal_dofs(grid)] - 1.0).max()
    assert p_err <= 1e-10
    assert u_err <= 1e-10
    _report(2, f"max|p - (1-x)| = {p_err:.2e}, max|u_x - 1| = {u_err:.2e}")


def test_criterion_03_forchheimer_golden_ratio_flux():
    """Unit coefficients with unit pressure drop solve u + u^2 = 1: interior
    x-normal velocities equal (sqrt(5)-1)/2 to 1e-8."""
    grid = build_fine_grid(16, 16)
    ones = ScalarCellField(16, 16, np.ones(grid.n_cells))
    sol = nonlinear_solve(
        grid, ones, ones, left_right_spec(grid, 1.0, 0.0),
        np.zeros(grid.n_cells),
        NonlinearConfig(scheme="newton", tol_nl=1e-10),
    )
    assert sol.converged
    err = np.abs(sol.velocity[_interior_x_normal_dofs(grid)] - GOLDEN).max()
    assert err <= 1e-8
    _report(3, f"max|u - (sqrt(5)-1)/2| = {err:.2e} in {sol.iterations} Newton steps")


def test_criterion_04_vertex_blocks_positive_definite_at_high_contrast():
    """100x100 assembly with a contrast-1e4 layered field keeps the vertex
    block structure and passes the Cholesky SPD check in under 5 seconds."""
    t0 = time.perf_counter()
    grid = build_fine_grid(100, 100)
    kappa = gen_synthetic("layered", 7, 1e4, 100, 100)
    A = assemble_velocity_matrix(grid, 1.0 / kappa.values)
    assert A.blocks.shape == (grid.n_vertices, 4, 4)
    assert A.check_positive_definite() is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, f"blocks {A.blocks.shape}, SPD check passed, {elapsed:.2f}s")


def test_criterion_05_newton_robust_picard_degrades_with_inertia():
    """Across beta0 = 1..1e4 on a contrast-100 channel field: Newton stays
    at 20 iterations or fewer (nondecreasing), and the Picard/Newton ratio
    starts at 3 or more and grows with beta0."""
    grid = build_fine_grid(16, 16)
    base = gen_synthetic("channel", 7, 100.0, 16, 16)
    kappa = ScalarCellField(16, 16, base.values * 0.05)
    bc = left_right_spec(grid, 1.0, 0.0)
    f = np.zeros(grid.n_cells)
    newton_iters, picard_iters = [], []
    for b0 in (1.0, 10.0, 100.0, 1000.0, 10000.0):
        beta = forchheimer_coeff(kappa, b0)
        sn = nonlinear_solve(
            grid, kappa, beta, bc, f,
            NonlinearConfig(scheme="newton", tol_nl=1e-8, max_iter=100),
        )
        sp = nonlinear_solve(
            grid, kappa, beta, bc, f,
            NonlinearConfig(scheme="picard", tol_nl=1e-8, max_iter=30000),
        )
        assert sn.converged and sp.converged
        newton_iters.append(sn.iterations)
        picard_iters.append(sp.iterations)
    ratios = np.array(picard_iters) / np.array(newton_iters)
    assert max(newton_iters) <= 20
    assert all(b >= a for a, b in zip(newton_iters, newton_iters[1:]))
    assert ratios[0] >= 3.0
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    _report(5, f"newton {newton_iters}, picard {picard_iters}, "
               f"ratios {np.round(ratios, 1).tolist()}")


def test_criterion_06_spectral_zero_mode_is_constant():
    """On every element of a 50x50/10x10 contrast-1000 problem the smallest
    eigenvalue is zero to 1e-10 and its basis function is constant to 1e-8."""
    fine = build_fine_grid(50, 50)
    coarse = build_coarse_grid(fine, 10, 10)
    kappa = gen_synthetic("blobs", 3, 1000.0, 50, 50)
    lam_max, dev_max = 0.0, 0.0
    for i in range(coarse.n_elements):
        space = spectral_decompose(
            build_snapshots(fine, coarse, i, 1.0 / kappa.values), 4
        )
        lam_max = max(lam_max, abs(space.eigenvalues[0]))
        first = space.basis(1)[:, 0]
        dev_max = max(dev_max, np.ptp(first) / np.abs(first).max())
    assert lam_max <= 1e-10
    assert dev_max <= 1e-8
    _report(6, f"max|lambda_1| = {lam_max:.2e}, constant deviation {dev_max:.2e} "
               f"over {coarse.n_elements} elements")


def test_criterion_07_offline_errors_shrink_with_basis_size():
    """60x60/6x6 contrast-100 blobs, beta0 in {0, 100}: pressure error at 4
    bases per element is 0.05 or less, and the velocity error strictly
    decreases across 4 -> 6 -> 8 bases per element."""
    fine = build_fine_grid(60, 60)
    coarse = build_coarse_grid(fine, 6, 6)
    kappa = gen_synthetic("blobs", 2, 100.0, 60, 60)
    bc = left_right_spec(fine, 1.0, 0.0)
    f = np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10)
    spaces, _ = build_offline_space(fine, coarse, kappa, 8)
    summary = []
    for b0 in (0.0, 100.0):
        beta = forchheimer_coeff(kappa, b0)
        ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)
        erp, eru = {}, {}
        for m in (4, 6, 8):
            rmap = assemble_reduction(fine, spaces, m)
            sol = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
            erp[m], eru[m] = error_metrics(fine, sol, ref)
        assert erp[4] <= 0.05, f"beta0={b0:g}: Erp(M=4) = {erp[4]:.4f}"
        assert eru[4] > eru[6] > eru[8], f"beta0={b0:g}: Eru not decreasing {eru}"
        summary.append(f"b0={b0:g}: Erp4={erp[4]:.3f} "
                       f"Eru={eru[4]:.3f}>{eru[6]:.3f}>{eru[8]:.3f}")
    _report(7, "; ".join(summary))


def test_criterion_08_residual_updates_improve_forchheimer_accuracy():
    """Layered-log field at beta0 = 1000 with 4 bases per element: the
    theta = 3/4 partial update does not hurt, the full update does at least
    as well, and together they cut the velocity error by 5% or more."""
    n = 60
    fine = build_fine_grid(n, n)
    coarse = build_coarse_grid(fine, 6, 6)
    c = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(c, c)
    lk = 1.5 * np.sin(6 * np.pi * Y) + 0.3 * np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Y)
    kappa = ScalarCellField(n, n, (10.0**lk).ravel())
    beta = forchheimer_coeff(kappa, 1000.0)
    bc = left_right_spec(fine, 1.0, 0.0)
    f = np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10, max_iter=100)

    ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 4)
    off = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
    eru_off = error_metrics(fine, off, ref)[1]

    residuals = conservation_residuals(fine, coarse, off.velocity, f)
    selected = select_by_fraction(residuals, 0.75)
    map_hat, _ = update_offline(
        fine, coarse, rmap, spaces, off.velocity, selected, kappa, beta
    )
    eru_hat = error_metrics(
        fine, solve_offline(fine, kappa, beta, bc, f, map_hat, cfg), ref
    )[1]
    map_til, _ = update_offline(
        fine, coarse, rmap, spaces, off.velocity,
        np.arange(coarse.n_elements), kappa, beta,
    )
    eru_til = error_metrics(
        fine, solve_offline(fine, kappa, beta, bc, f, map_til, cfg), ref
    )[1]

    assert eru_hat <= eru_off
    assert eru_til <= eru_hat
    gain = (eru_off - eru_til) / eru_off
    assert gain >= 0.05
    _report(8, f"Eru {eru_off:.4f} -> {eru_hat:.4f} (partial, {len(selected)} "
               f"elements) -> {eru_til:.4f} (full), gain {gain:.1%}")


def test_criterion_09_online_enrichment_converges_monotonically(channelized):
    """Three uniform enrichment sweeps with coefficient updating cut the
    velocity error monotonically to a tenth of the offline error or less,
    within five minutes."""
    p = channelized
    errs = sweep_final_errors(p["uniform"])
    assert errs.shape == (3,)
    seq = np.concatenate([[p["eru_off"]], errs])
    assert all(b < a for a, b in zip(seq, seq[1:])), f"not monotone: {seq}"
    assert errs[-1] <= 0.1 * p["eru_off"]
    assert p["uniform_seconds"] < 300.0
    _report(9, f"Eru {p['eru_off']:.4f} -> " +
            " -> ".join(f"{e:.4f}" for e in errs) +
            f" ({errs[-1] / p['eru_off']:.3f}x offline, "
            f"{p['uniform_seconds']:.0f}s)")


def test_criterion_10_fixed_coefficient_enrichment_plateaus(channelized):
    """With the coefficient frozen at the offline solution the sweep errors
    stagnate at a positive level within six sweeps (1% relative change)."""
    p = channelized
    errs = sweep_final_errors(p["fixed"])
    assert errs.shape == (6,)
    plateau = detect_plateau(errs)
    assert plateau is not None and plateau <= 6
    assert errs[plateau - 1] > 0.0
    _report(10, f"sweeps {np.round(errs, 4).tolist()}, plateau at sweep "
                f"{plateau}, level {errs[plateau - 1]:.4f}")


def test_criterion_11_adaptive_enrichment_needs_fewer_dofs(channelized):
    """Adaptive sweeps (xi = 3/4) reach the uniform run's final velocity
    error with strictly fewer pressure DOFs."""
    p = channelized
    target = sweep_final_errors(p["uniform"])[-1]
    errs = p["adaptive_errs"]
    assert errs[-1] <= target, f"adaptive stopped at {errs[-1]:.4f} > {target:.4f}"
    dim_adaptive = p["adaptive"].dim
    dim_uniform = p["uniform"].dim
    assert dim_adaptive < dim_uniform
    _report(11, f"reached {errs[-1]:.4f} <= {target:.4f} in {len(errs)} sweeps "
                f"with {dim_adaptive} < {dim_uniform} pressure DOFs")


def test_criterion_12_conservation_on_fine_and_coarse_scales(channelized):
    """Converged fine solves balance fluxes against the source to 1e-10 in
    every cell; reduced solves satisfy the same balance tested against every
    active basis function to 1e-8."""
    p = channelized
    fine = p["fine"]
    B = assemble_divergence(fine)

    # fine scale: the shared reference (zero source) and a five-spot solve
    # with a genuine source term
    worst_fine = np.abs(B.T @ p["ref"].velocity + p["f"] * fine.cell_areas).max()
    g16 = build_fine_grid(16, 16)
    bc16, f16 = five_spot(g16)
    kappa16 = gen_synthetic("blobs", 6, 100.0, 16, 16)
    sol16 = nonlinear_solve(
        g16, kappa16, forchheimer_coeff(kappa16, 100.0), bc16, f16,
        NonlinearConfig(scheme="newton", tol_nl=1e-10),
    )
    assert sol16.converged
    B16 = assemble_divergence(g16)
    worst_fine = max(
        worst_fine, np.abs(B16.T @ sol16.velocity + f16 * g16.cell_areas).max()
    )
    assert worst_fine <= 1e-10

    # coarse scale: offline solution and the enriched final solution
    worst_coarse = 0.0
    for sol, rmap in (
        (p["off"], p["rmap"]),
        (p["uniform"].solution, p["uniform"].rmap),
    ):
        r = p["f"] - cell_divergence(fine, B, sol.velocity)
        for _, cells, values in rmap.columns:
            worst_coarse = max(
                worst_coarse, abs((values * r[cells] * fine.cell_areas[cells]).sum())
            )
    assert worst_coarse <= 1e-8
    _report(12, f"fine-cell balance {worst_fine:.2e} <= 1e-10, coarse-basis "
                f"balance {worst_coarse:.2e} <= 1e-8")


def test_criterion_13_manufactured_solution_first_order_velocity():
    """Against p = sin(pi x) sin(pi y) + x with unit permeability, the
    velocity error decreases with first-order rate (slope >= 0.9) over
    n = 8, 16, 32, 64."""
    errs, hs = [], []
    for n in (8, 16, 32, 64):
        grid = build_fine_grid(n, n)
        kappa = ScalarCellField(n, n, np.ones(grid.n_cells))
        beta = ScalarCellField(n, n, np.zeros(grid.n_cells))
        xc, yc = grid.cell_centers[:, 0], grid.cell_centers[:, 1]
        f = 2 * np.pi**2 * np.sin(np.pi * xc) * np.sin(np.pi * yc)
        bc = all_dirichlet_spec(
            grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + x
        )
        sol = nonlinear_solve(
            grid, kappa, beta, bc, f,
            NonlinearConfig(scheme="picard", tol_nl=1e-12),
        )
        assert sol.converged
        U_ex = np.zeros(grid.n_dofs)
        normals = edge_normals(grid)
        for e in range(grid.n_edges):
            a, b = grid.vertices[grid.edge_nodes[e]]
            nvec = normals[e]
            for k, (px, py) in enumerate((a, b)):
                ux = -(np.pi * np.cos(np.pi * px) * np.sin(np.pi * py) + 1.0)
                uy = -np.pi * np.sin(np.pi * px) * np.cos(np.pi * py)
                U_ex[2 * e + k] = ux * nvec[0] + uy * nvec[1]
        M = quadrature_norm_matrix(grid)
        errs.append(
            velocity_error_norm(M, sol.velocity - U_ex) / velocity_error_norm(M, U_ex)
        )
        hs.append(1.0 / n)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.9, f"convergence slope {slope:.3f} < 0.9 (errors {errs})"
    _report(13, f"errors {np.round(errs, 5).tolist()}, slope {slope:.3f}")
