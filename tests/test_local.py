"""Shape-cached local problems: placement, snapshot and online solves, cache reuse."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import msforch.grid
from msforch.fields import ScalarCellField, gen_synthetic
from msforch.grid import (
    block_indices,
    build_coarse_grid,
    build_fine_grid,
    rect_boundary_edges,
    subgrid,
)
from msforch.local import online_shape, snapshot_shape
from msforch.mfmfe import BoundarySpec, assemble_divergence, assemble_velocity_matrix, left_right_spec
from msforch.offline import (
    build_offline_space,
    build_snapshots,
    solve_offline,
    update_offline,
)
from msforch.online import enrich_uniform, init_enrichment, online_basis
from msforch.solve import LinearizedSystem, NonlinearConfig, nonlinear_solve

from oracles import eliminate_constraints, saddle_oracle, with_identity_rows


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _coefficient(rng, n_cells, per_corner):
    shape = (n_cells, 4) if per_corner else (n_cells,)
    return 10.0 ** rng.uniform(-2.0, 2.0, shape)


def _oracle_snapshots(fine, rect, coeff):
    """Snapshots of a block from a fresh subgrid: one Dirichlet problem per
    boundary edge (indicator datum) through the generic boundary assembly and
    the dense saddle oracle."""
    sub = subgrid(fine, *rect)
    cells, edges, _ = block_indices(fine, *rect)
    local_edge = {int(e): k for k, e in enumerate(edges)}
    A = assemble_velocity_matrix(sub, coeff[cells])
    P, U = [], []
    for e in rect_boundary_edges(fine, *rect):
        datum = local_edge[int(e)]
        bc = BoundarySpec(dirichlet={int(le): float(le == datum)
                                     for le in sub.boundary_edges})
        sys_ = LinearizedSystem(sub, np.zeros(sub.n_cells), bc)
        Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
        u, p = saddle_oracle(Ahat, Bfree, G2, sys_.F)
        P.append(p)
        U.append(u)
    return sub, np.column_stack(P), np.column_stack(U)


@settings(max_examples=25, deadline=None)
@given(
    mx=st.integers(1, 3), my=st.integers(1, 3), Nx=st.integers(1, 4), Ny=st.integers(1, 4),
    layers=st.integers(0, 2), per_corner=st.booleans(), pick=st.integers(0, 10**6),
    seed=st.integers(0, 2**31 - 1),
)
def test_cached_snapshots_match_saddle_oracle(mx, my, Nx, Ny, layers, per_corner, pick, seed):
    """Shape-cached snapshots of any element (interior, edge or corner, with
    0-2 oversampling layers) equal fresh subgrid solves to 1e-12."""
    rng = np.random.default_rng(seed)
    fine = build_fine_grid(mx * Nx, my * Ny, domain=(0.0, 1.5, -0.5, 0.5))
    coarse = build_coarse_grid(fine, Nx, Ny)
    coeff = _coefficient(rng, fine.n_cells, per_corner)
    for i in range(coarse.n_elements):   # every shape built by its first element
        snapshot_shape(coarse, i, layers)
    i = pick % coarse.n_elements

    rect = coarse.oversample_rect(i, layers)
    shape, cells, dofs = snapshot_shape(coarse, i, layers)
    sub, P_ref, U_ref = _oracle_snapshots(fine, rect, coeff)
    sub_cells, _, sub_dofs = block_indices(fine, *rect)
    assert np.array_equal(cells, sub_cells) and np.array_equal(dofs, sub_dofs)
    assert np.allclose(shape.grid.vertices - shape.grid.vertices[0],
                       sub.vertices - sub.vertices[0], rtol=0.0, atol=1e-14)

    space = build_snapshots(fine, coarse, i, coeff, layers=layers)
    element_rect = coarse.element_rect(i)
    element = subgrid(fine, *element_rect)
    element_cells, _, element_dofs = block_indices(fine, *element_rect)
    cell_pos = {int(c): k for k, c in enumerate(sub_cells)}
    dof_pos = {int(d): k for k, d in enumerate(sub_dofs)}
    P_ref = P_ref[[cell_pos[int(c)] for c in element_cells]]
    U_ref = U_ref[[dof_pos[int(d)] for d in element_dofs]]
    assert np.array_equal(space.cells, element_cells)
    assert _rel(space.snapshots_p, P_ref) <= 1e-12
    gram_ref = assemble_velocity_matrix(element, coeff[element_cells]).gram(U_ref)
    assert _rel(space.gram_a, gram_ref) <= 1e-12


def _pinned_oracle(fine, coarse, i, coeff, defect):
    """The online problem of element i from a fresh T+ subgrid: zero normal
    flux on the boundary of T+, pressure pinned to zero outside the element,
    source = defect; solved as a dense saddle system on the kept cells.
    Returns the pressure on the element's cells."""
    rect = coarse.oversample_rect(i, 1)
    sub, cells = subgrid(fine, *rect), block_indices(fine, *rect)[0]
    A = assemble_velocity_matrix(sub, coeff[cells])
    bdofs = (2 * sub.boundary_edges[:, None] + np.array([0, 1])).ravel()
    free = np.ones(sub.n_dofs)
    free[bdofs] = 0.0
    B = sp.diags(free) @ assemble_divergence(sub)
    keep = np.flatnonzero(np.isin(cells, coarse.coarse_elements[i]))
    areas = sub.cell_areas
    _, p = saddle_oracle(with_identity_rows(A, bdofs), sp.csr_matrix(B)[:, keep],
                         np.zeros(sub.n_dofs), -(defect[cells] * areas)[keep])
    return p


@pytest.fixture(scope="module")
def online_problem():
    fine = build_fine_grid(12, 12)
    coarse = build_coarse_grid(fine, 4, 4)
    kappa = gen_synthetic("blobs", 3, 100.0, 12, 12)
    beta = ScalarCellField(12, 12, 100.0 / kappa.values)
    bc = left_right_spec(fine)
    f = np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10)
    ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)
    _, rmap = build_offline_space(fine, coarse, kappa, 2)
    off = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
    return fine, coarse, kappa, beta, bc, f, rmap, cfg, ref, off


@settings(max_examples=20, deadline=None)
@given(i=st.integers(0, 15), per_corner=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_online_candidate_matches_pinned_oracle(online_problem, i, per_corner, seed):
    """The shape-cached online candidate is the pinned T+ pressure on the
    element, orthogonalized against the element's columns and normalized."""
    fine, coarse = online_problem[:2]
    state = init_enrichment(*online_problem)
    rng = np.random.default_rng(seed)
    coeff = _coefficient(rng, fine.n_cells, per_corner)
    state._coeff = coeff if per_corner else np.repeat(coeff[:, None], 4, axis=1)
    state._defect = rng.standard_normal(fine.n_cells)
    cells, values = online_basis(state, i)

    phi = _pinned_oracle(fine, coarse, i, state._coeff, state._defect)
    w = fine.cell_areas[cells]
    for j in state.rmap.columns_of(i):
        col = state.rmap.columns[j][2]
        phi = phi - (phi * col * w).sum() * col
    phi /= np.sqrt((phi**2 * w).sum())
    assert np.array_equal(cells, coarse.coarse_elements[i])
    assert _rel(values, phi) <= 1e-10


def _count_subgrid_calls(monkeypatch):
    """Count calls of msforch.grid.subgrid wherever an msforch module binds it."""
    calls = []
    original = msforch.grid.subgrid

    def counting(*args, **kwargs):
        calls.append(args[1:5])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "msforch" or name.startswith("msforch."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _block_extents(coarse, layers):
    return {tuple(coarse.oversample_rect(i, layers)[2:]) for i in range(coarse.n_elements)}


@pytest.mark.parametrize("layers", [0, 1])
def test_local_data_is_built_once_per_shape(monkeypatch, layers):
    fine = build_fine_grid(24, 12)
    coarse = build_coarse_grid(fine, 6, 3)
    kappa = gen_synthetic("blobs", 5, 100.0, 24, 12)
    beta = ScalarCellField(24, 12, 100.0 / kappa.values)
    bc, f = left_right_spec(fine), np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10)
    ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)

    calls = _count_subgrid_calls(monkeypatch)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 2, oversample_layers=layers)
    extents = _block_extents(coarse, layers) | _block_extents(coarse, 0)
    assert sorted(c[2:] for c in calls) == sorted(extents)
    off = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)

    calls.clear()
    update_offline(fine, coarse, rmap, spaces, off.velocity, np.arange(coarse.n_elements),
                   kappa, beta)
    assert calls == []   # the bare-element shapes were built by the offline space

    state = init_enrichment(fine, coarse, kappa, beta, bc, f, rmap, cfg, ref, off)
    calls.clear()
    enrich_uniform(state, 3)
    # Only the T+ extents not built before: interior, and clipped in x, in
    # y and in both, unless the offline space oversampled by that layer.
    assert sorted(c[2:] for c in calls) == sorted(_block_extents(coarse, 1) - extents)
    assert len(calls) == (4 if layers == 0 else 0)


@pytest.mark.parametrize("reverse", [False, True])
def test_partitions_and_problems_share_block_grids_not_shapes(reverse):
    """On one fine grid, a 6x6 element grown by one layer and a bare 8x8
    element of another partition both live on 8x8 blocks, at different
    offsets, and the snapshot and T+ problems of the grown element share its
    block.  Built in either order, they share one block grid, yet each shape
    solves its own problem."""
    rng = np.random.default_rng(17)
    fine = build_fine_grid(24, 24)
    grown, bare = build_coarse_grid(fine, 4, 4), build_coarse_grid(fine, 3, 3)
    coeff = _coefficient(rng, fine.n_cells, per_corner=True)
    defect = rng.standard_normal(fine.n_cells)
    i = 5   # interior element of the 4x4 partition
    builds = [lambda: snapshot_shape(grown, i, 1), lambda: online_shape(grown, i),
              lambda: snapshot_shape(bare, 4)]
    for build in builds[::-1] if reverse else builds:
        build()
    snapshot, online, bare_snapshot = (build()[0] for build in builds)
    assert snapshot.grid is online.grid is bare_snapshot.grid
    assert snapshot.grid.nx == snapshot.grid.ny == 8
    assert len({id(snapshot), id(online), id(bare_snapshot)}) == 3

    for coarse, j, layers in ((grown, i, 1), (bare, 4, 0)):
        shape, cells, _ = snapshot_shape(coarse, j, layers)
        A = assemble_velocity_matrix(shape.grid, coeff[cells])
        _, P = shape.operator.solve(A, shape.data, 0.0)
        _, P_ref, _ = _oracle_snapshots(fine, coarse.oversample_rect(j, layers), coeff)
        assert _rel(P, P_ref) <= 1e-12

    _, cells, _ = online_shape(grown, i)
    A = assemble_velocity_matrix(online.grid, coeff[cells])
    p = online.operator.solve(A, np.zeros(online.grid.n_dofs),
                              -(defect[cells] * fine.cell_areas[cells])[online.element_cells])[1]
    assert _rel(p, _pinned_oracle(fine, grown, i, coeff, defect)) <= 1e-12


def test_second_round_builds_no_shape(monkeypatch):
    """A second offline, update and enrichment round on one fine grid builds
    no block grid, and repeats the first round's solutions bitwise."""
    fine = build_fine_grid(16, 16)
    coarse = build_coarse_grid(fine, 4, 4)
    kappa = gen_synthetic("blobs", 2, 100.0, 16, 16)
    beta = ScalarCellField(16, 16, 100.0 / kappa.values)
    bc, f = left_right_spec(fine), np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10)
    ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)

    calls = _count_subgrid_calls(monkeypatch)
    rounds = []
    for _ in range(2):
        spaces, rmap = build_offline_space(fine, coarse, kappa, 2)
        off = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
        rmap, _ = update_offline(fine, coarse, rmap, spaces, off.velocity,
                                 np.arange(coarse.n_elements), kappa, beta)
        updated = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
        state = enrich_uniform(init_enrichment(fine, coarse, kappa, beta, bc, f, rmap, cfg,
                                               ref, updated), 2)
        rounds.append((len(calls), [off, updated, state.solution], state.history))
    (first_calls, first, first_history), (second_calls, second, second_history) = rounds
    assert first_calls > 0 and second_calls == first_calls
    for a, b in zip(first, second):
        assert np.array_equal(a.pressure, b.pressure) and np.array_equal(a.velocity, b.velocity)
    assert first_history == second_history and len(first_history) == 8
