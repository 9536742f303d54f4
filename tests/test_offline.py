"""Snapshot spaces, spectral compression, reduction maps, residual updating."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from msforch.errors import SingularSystemError
from msforch.fields import ScalarCellField, gen_synthetic
from msforch.grid import (
    block_indices,
    build_coarse_grid,
    build_fine_grid,
    rect_boundary_edges,
    subgrid,
)
from msforch.mfmfe import BoundarySpec, assemble_velocity_matrix, left_right_spec
from msforch.offline import (
    ReductionMap,
    SpectralSpace,
    assemble_reduction,
    build_offline_space,
    build_snapshots,
    conservation_residuals,
    load_triplets,
    save_triplets,
    select_by_fraction,
    solve_offline,
    spectral_decompose,
    update_offline,
)
from msforch.online import error_metrics
from msforch.solve import LinearizedSystem, NonlinearConfig, nonlinear_solve

from oracles import eliminate_constraints, saddle_oracle


def _setup(nf, nc, kind="blobs", seed=4, contrast=100.0):
    fine = build_fine_grid(nf, nf)
    coarse = build_coarse_grid(fine, nc, nc)
    kappa = gen_synthetic(kind, seed, contrast, nf, nf)
    return fine, coarse, kappa


def test_superposition_gives_constant_pressure_zero_velocity():
    fine, coarse, kappa = _setup(8, 4)
    space = build_snapshots(fine, coarse, 5, 1.0 / kappa.values)
    assert space.n_snapshots == 8  # one per boundary fine edge of a 2x2 block
    p_sum = space.snapshots_p.sum(axis=1)
    assert np.allclose(p_sum, 1.0, atol=1e-10)
    assert space.null_energy <= 1e-18


def test_single_snapshot_matches_independent_local_solve():
    """Snapshot column j == local Dirichlet solve with the edge-j indicator,
    computed through the generic BC assembly + dense saddle oracle."""
    fine, coarse, kappa = _setup(8, 4)
    i, j = 6, 3
    rect = coarse.element_rect(i)
    sub = subgrid(fine, *rect)
    cells, edges, _ = block_indices(fine, *rect)
    space = build_snapshots(fine, coarse, i, 1.0 / kappa.values)

    g2l = {int(e): k for k, e in enumerate(edges)}
    datum_edge = g2l[int(rect_boundary_edges(fine, *rect)[j])]
    bc = BoundarySpec()
    for le in sub.boundary_edges:
        bc.dirichlet[int(le)] = 1.0 if int(le) == datum_edge else 0.0
    sys_ = LinearizedSystem(sub, np.zeros(sub.n_cells), bc)

    A = assemble_velocity_matrix(sub, (1.0 / kappa.values)[cells])
    Ahat, Bfree, G2 = eliminate_constraints(sys_, A)
    U, P = saddle_oracle(Ahat, Bfree, G2, sys_.F)
    assert np.allclose(P, space.snapshots_p[:, j], atol=1e-12)
    assert space.gram_a[j, j] == pytest.approx(A.gram(U[:, None])[0, 0], rel=1e-12)


def test_eigensolver_against_cholesky_reduction_oracle():
    rng = np.random.default_rng(0)
    J = 8
    Qa = rng.standard_normal((J, J))
    A = Qa @ Qa.T + 0.1 * np.eye(J)
    Qs = rng.standard_normal((J, J))
    S = Qs @ Qs.T + 0.1 * np.eye(J)
    # random snapshot pressures with non-constant row sums: the constant-mode
    # deflation must stay out of the way for a generic pencil
    P = rng.standard_normal((12, J))
    space = SpectralSpace(
        element=0, cells=np.arange(12), snapshots_p=P,
        gram_a=A, gram_s=S,
    )
    space = spectral_decompose(space, J)
    L = la.cholesky(S, lower=True)
    M = la.solve_triangular(L, la.solve_triangular(L, A, lower=True).T, lower=True)
    w_ref = la.eigh(0.5 * (M + M.T), eigvals_only=True)
    assert len(space.eigenvalues) == J
    assert np.allclose(space.eigenvalues, np.sort(w_ref), rtol=1e-10, atol=1e-12)
    V = space.eigenvectors
    assert np.allclose(V.T @ S @ V, np.eye(J), atol=1e-10)
    # pencil residual of every eigenpair
    R = A @ V - S @ V @ np.diag(space.eigenvalues)
    assert np.linalg.norm(R) <= 1e-8 * np.linalg.norm(A)
    # eigenvector sign convention: largest-magnitude entry positive
    idx = np.argmax(np.abs(V), axis=0)
    assert np.all(V[idx, np.arange(J)] > 0)


def test_zero_mode_and_constant_first_basis():
    fine, coarse, kappa = _setup(8, 4, contrast=1000.0)
    for i in (0, 5, 15):
        space = spectral_decompose(build_snapshots(fine, coarse, i, 1.0 / kappa.values), 2)
        assert abs(space.eigenvalues[0]) <= 1e-10
        first = space.basis(1)[:, 0]
        assert np.ptp(first) <= 1e-8 * np.abs(first).max()
        assert np.all(np.diff(space.eigenvalues) >= -1e-12)
        # 2x2-cell elements have at most 4 pressure modes from 8 snapshots
        assert len(space.eigenvalues) <= 4
        assert len(space.eigenvalues) < space.n_snapshots
        # selected basis is L2-orthonormal on the element
        areas = fine.cell_areas[space.cells]
        basis = space.basis(2)
        gram = (basis * areas[:, None]).T @ basis
        assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_m_off_bounds():
    fine, coarse, kappa = _setup(8, 4)
    space = spectral_decompose(build_snapshots(fine, coarse, 3, 1.0 / kappa.values), 1)
    rank = len(space.eigenvalues)
    with pytest.raises(ValueError):
        spectral_decompose(space, 0)
    with pytest.raises(ValueError):
        spectral_decompose(space, rank + 1)


@pytest.mark.filterwarnings("error")
def test_one_cell_elements_have_rank_one():
    """Deflating the constant mode of a one-cell element leaves a pressure
    Gram matrix of roundoff, which must not count as rank: every offline and
    updated space has one finite eigenvalue, and a second mode is rejected."""
    fine = build_fine_grid(4, 4)
    coarse = build_coarse_grid(fine, 4, 4)
    kappa = gen_synthetic("blobs", 1, 10.0, 4, 4)
    beta = ScalarCellField(4, 4, 10.0 / kappa.values)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 1)
    sol = solve_offline(fine, kappa, beta, left_right_spec(fine), np.zeros(16), rmap,
                        NonlinearConfig(scheme="newton"))
    _, updated = update_offline(fine, coarse, rmap, spaces, sol.velocity, np.arange(16),
                                kappa, beta)
    for space in spaces + updated:
        assert len(space.eigenvalues) == 1 and np.isfinite(space.eigenvalues[0])
        with pytest.raises(ValueError, match=r"1\.\.1"):
            spectral_decompose(space, 2)


def test_all_zero_pressure_snapshots_rejected():
    space = SpectralSpace(
        element=0, cells=np.arange(4), snapshots_p=np.zeros((4, 3)),
        gram_a=np.eye(3), gram_s=np.zeros((3, 3)),
    )
    with pytest.raises(SingularSystemError):
        spectral_decompose(space, 1)


def test_reduction_nestedness():
    fine, coarse, kappa = _setup(8, 4)
    spaces = [
        spectral_decompose(build_snapshots(fine, coarse, i, 1.0 / kappa.values), 3)
        for i in range(coarse.n_elements)
    ]
    r2 = assemble_reduction(fine, spaces, 2)
    r3 = assemble_reduction(fine, spaces, 3)
    for i in range(coarse.n_elements):
        c2 = r2.columns_of(i)
        c3 = r3.columns_of(i)
        assert len(c2) == 2 and len(c3) == 3
        for a, b in zip(c2, c3[:2]):
            assert np.array_equal(r2.columns[a][2], r3.columns[b][2])


def test_reduction_counts_support_orthonormality():
    fine, coarse, kappa = _setup(20, 5)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 3)
    assert rmap.n_columns == 3 * 25
    assert rmap.matrix.shape == (fine.n_cells, 75)
    for el, cells, values in rmap.columns:
        assert set(cells.tolist()) <= set(coarse.coarse_elements[el].tolist())
    for i in range(coarse.n_elements):
        cols = rmap.columns_of(i)
        C = np.column_stack([rmap.columns[j][2] for j in cols])
        areas = fine.cell_areas[rmap.columns[cols[0]][1]]
        assert np.allclose((C * areas[:, None]).T @ C, np.eye(3), atol=1e-8)


def test_per_element_basis_counts():
    fine, coarse, kappa = _setup(8, 2)
    spaces = [
        spectral_decompose(build_snapshots(fine, coarse, i, 1.0 / kappa.values), 4)
        for i in range(4)
    ]
    counts = [1, 2, 3, 4]
    rmap = assemble_reduction(fine, spaces, counts)
    assert rmap.n_columns == 10
    for i, m in enumerate(counts):
        assert len(rmap.columns_of(i)) == m


def test_identity_reduction_reproduces_fine_solve():
    fine, coarse, kappa = _setup(8, 4)
    beta = ScalarCellField(8, 8, 100.0 / kappa.values)
    bc = left_right_spec(fine)
    f = np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-11)
    element_of_cell = np.empty(fine.n_cells, dtype=int)
    for i, cells in enumerate(coarse.coarse_elements):
        element_of_cell[cells] = i
    ident = ReductionMap(fine.n_cells)
    for c in range(fine.n_cells):
        ident.append_column(int(element_of_cell[c]), np.array([c]), np.array([1.0]))
    full = nonlinear_solve(fine, kappa, beta, bc, f, cfg)
    red = solve_offline(fine, kappa, beta, bc, f, ident, cfg)
    assert red.converged and full.converged
    assert np.allclose(red.pressure, full.pressure, atol=1e-9)
    assert np.allclose(red.velocity, full.velocity, atol=1e-9)


def test_conservation_residuals_localized_defect():
    fine, coarse, _ = _setup(20, 5)
    f = np.zeros(fine.n_cells)
    target_cell = fine.cell_id(7, 11)
    f[target_cell] = 1.0
    R = conservation_residuals(fine, coarse, np.zeros(fine.n_dofs), f)
    area = fine.cell_areas[target_cell]
    holder = next(
        i for i, cells in enumerate(coarse.coarse_elements) if target_cell in cells
    )
    want = np.zeros(coarse.n_elements)
    want[holder] = area  # defect^2 * area = 1 * area
    assert np.allclose(R, want, atol=1e-15)


def test_conservation_residuals_vanish_on_converged_solve():
    fine, coarse, kappa = _setup(12, 3)
    beta = ScalarCellField(12, 12, 10.0 / kappa.values)
    sol = nonlinear_solve(
        fine, kappa, beta, left_right_spec(fine), np.zeros(fine.n_cells),
        NonlinearConfig(scheme="newton", tol_nl=1e-10),
    )
    R = conservation_residuals(fine, coarse, sol.velocity, np.zeros(fine.n_cells))
    assert np.all(R <= 1e-20)


def test_select_by_fraction_rules():
    assert select_by_fraction(np.array([4.0, 3.0, 2.0, 1.0]), 0.75).tolist() == [0, 1, 2]
    assert select_by_fraction(np.array([4.0, 3.0, 2.0, 1.0]), 1.0).tolist() == [0, 1, 2, 3]
    assert len(select_by_fraction(np.ones(100), 0.75)) == 75
    assert select_by_fraction(np.zeros(5), 0.5).size == 0
    # ties break toward lower ids
    assert select_by_fraction(np.array([1.0, 1.0, 1.0, 1.0]), 0.5).tolist() == [0, 1]
    with pytest.raises(ValueError):
        select_by_fraction(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        select_by_fraction(np.ones(3), 1.5)
    with pytest.raises(ValueError):
        select_by_fraction(np.array([1.0, -0.5]), 0.5)


@pytest.mark.parametrize("oversample_layers", [0, 1])
def test_update_with_zero_forchheimer_is_identity(oversample_layers):
    fine, coarse, kappa = _setup(8, 2)
    beta0 = ScalarCellField(8, 8, np.zeros(64))
    spaces, rmap = build_offline_space(fine, coarse, kappa, 3, oversample_layers)
    sol = solve_offline(
        fine, kappa, beta0, left_right_spec(fine), np.zeros(64), rmap,
        NonlinearConfig(scheme="picard"),
    )
    new_map, new_spaces = update_offline(
        fine, coarse, rmap, spaces, sol.velocity, np.arange(4), kappa, beta0
    )
    # same coefficient and layers -> identical snapshots -> identical basis
    assert np.allclose(
        new_map.matrix.toarray(), rmap.matrix.toarray(), atol=1e-12
    )


def test_update_with_empty_selection_is_noop():
    fine, coarse, kappa = _setup(8, 2)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 2)
    new_map, new_spaces = update_offline(
        fine, coarse, rmap, spaces, np.zeros(fine.n_dofs),
        np.empty(0, dtype=int), kappa, ScalarCellField(8, 8, np.zeros(64)),
    )
    assert (new_map.matrix != rmap.matrix).nnz == 0
    assert new_spaces == spaces


def test_update_reduces_velocity_error_full_at_least_partial():
    nf, nc = 24, 4
    fine = build_fine_grid(nf, nf)
    coarse = build_coarse_grid(fine, nc, nc)
    kappa = gen_synthetic("blobs", 3, 100.0, nf, nf)
    beta = ScalarCellField(nf, nf, 100.0 / kappa.values)
    bc = left_right_spec(fine)
    f = np.zeros(fine.n_cells)
    cfg = NonlinearConfig(scheme="newton", tol_nl=1e-10, max_iter=100)
    ref = nonlinear_solve(fine, kappa, beta, bc, f, cfg)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 4)
    off = solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
    _, eru_off = error_metrics(fine, off, ref)

    residuals = conservation_residuals(fine, coarse, off.velocity, f)
    selected = select_by_fraction(residuals, 0.75)
    assert 0 < len(selected) < coarse.n_elements
    map_hat, _ = update_offline(
        fine, coarse, rmap, spaces, off.velocity, selected, kappa, beta
    )
    hat = solve_offline(fine, kappa, beta, bc, f, map_hat, cfg)
    _, eru_hat = error_metrics(fine, hat, ref)

    map_til, _ = update_offline(
        fine, coarse, rmap, spaces, off.velocity, np.arange(coarse.n_elements),
        kappa, beta,
    )
    til = solve_offline(fine, kappa, beta, bc, f, map_til, cfg)
    _, eru_til = error_metrics(fine, til, ref)

    assert eru_hat < eru_off
    assert eru_til <= eru_hat * 1.001
    assert eru_til < eru_off


@pytest.mark.parametrize("layers, per_element", [(0, 1), (1, 2)])
def test_snapshots_assemble_the_gram_matrix_only_when_it_differs(layers, per_element, monkeypatch):
    """Without oversampling or a separate Gram coefficient the Gram matrix is
    the matrix of the local solves, which is assembled once."""
    fine, coarse, kappa = _setup(8, 4)
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return assemble_velocity_matrix(*args, **kwargs)

    monkeypatch.setattr("msforch.offline.assemble_velocity_matrix", spy)
    build_offline_space(fine, coarse, kappa, 2, oversample_layers=layers)
    assert len(calls) == per_element * coarse.n_elements


def test_triplet_roundtrip(tmp_path):
    fine, coarse, kappa = _setup(8, 4)
    _, rmap = build_offline_space(fine, coarse, kappa, 2)
    path = tmp_path / "rmap.txt"
    save_triplets(rmap, path, "config-hash 0123")
    assert path.read_text().splitlines()[0] == "# config-hash 0123"
    loaded = load_triplets(path)
    assert loaded.shape == rmap.matrix.shape
    assert np.allclose(loaded.toarray(), rmap.matrix.toarray(), atol=0.0)

    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one triplet
    with pytest.raises(ValueError):
        load_triplets(path)


@pytest.mark.parametrize("text", [
    "# comments only\n",
    "2 2 1\n0 1\n",
    "2 2 2\n0 1 1.0\n2 0 1.0\n",
], ids=["no-size-line", "two-field-entry", "row-outside-shape"])
def test_malformed_triplet_file_raises_value_error_naming_it(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.txt"):
        load_triplets(path)


def test_replace_element_columns_count_mismatch():
    rmap = ReductionMap(4)
    rmap.append_column(0, np.array([0, 1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        rmap.replace_element_columns(0, np.ones((2, 3)), np.array([0, 1]))


def test_oversampled_snapshots():
    fine, coarse, kappa = _setup(12, 3)  # 4x4-cell coarse elements
    coeff = 1.0 / kappa.values
    with pytest.raises(ValueError):
        build_snapshots(fine, coarse, 4, coeff, layers=-1)
    interior = build_snapshots(fine, coarse, 4, coeff, layers=1)
    assert interior.n_snapshots == 24  # 6x6-cell block: 4 * (4 + 2) edges
    corner = build_snapshots(fine, coarse, 0, coeff, layers=1)
    assert corner.n_snapshots == 20   # clipped 5x5-cell block
    assert len(interior.cells) == 16  # restricted to the element itself
    # summed boundary datum is 1 on the oversampled boundary: restriction
    # keeps the constant-pressure state
    assert np.allclose(interior.snapshots_p.sum(axis=1), 1.0, atol=1e-10)
    spaces, rmap = build_offline_space(fine, coarse, kappa, 3, oversample_layers=1)
    assert rmap.n_columns == 27
    assert abs(spaces[4].eigenvalues[0]) <= 1e-10


def _coo_built(rmap):
    """The map's matrix as built from every column through COO triplets."""
    if not rmap.columns:
        return sp.csr_matrix((rmap.n_cells, 0))
    rows = np.concatenate([c[1] for c in rmap.columns])
    cols = np.concatenate([np.full(len(c[1]), j) for j, c in enumerate(rmap.columns)])
    data = np.concatenate([c[2] for c in rmap.columns])
    return sp.csr_matrix((data, (rows, cols)), shape=(rmap.n_cells, rmap.n_columns))


def _same_matrix(a, b):
    return a.shape == b.shape and np.array_equal(a.toarray(), b.toarray())


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["append", "replace", "copy"]),
                                st.integers(0, 3), st.integers(0, 2**32 - 1)), max_size=30))
def test_map_edits_match_coo_build_and_copies_are_independent(edits):
    """After any sequence of appends, element replacements and copies, the
    compressed-column matrix equals the one built from all columns through
    COO triplets, a matrix handed out before an edit keeps its entries, and
    edits of a copy leave the original (and its matrix) unchanged."""
    elements = [np.array([2, 0, 1]), np.array([3, 4, 5, 6]), np.array([9, 7]), np.array([8])]
    rmap = ReductionMap(10)
    kept = []   # (map, its matrix as a dense array) of every map copied from
    for action, element, seed in edits:
        rng = np.random.default_rng(seed)
        cells = elements[element]
        before = rmap.matrix
        dense_before = before.toarray()
        if action == "append":
            rmap.append_column(element, cells, rng.standard_normal(cells.size))
        elif action == "replace":
            m = len(rmap.columns_of(element))
            rmap.replace_element_columns(element, rng.standard_normal((cells.size, m)), cells)
        else:
            kept.append((rmap, dense_before))
            rmap = rmap.copy()
        assert np.array_equal(before.toarray(), dense_before)
        assert _same_matrix(rmap.matrix, _coo_built(rmap))
    for original, dense in kept:
        assert np.array_equal(original.matrix.toarray(), dense)
        assert _same_matrix(original.matrix, _coo_built(original))


def test_map_matrix_keeps_int32_indices_and_columns_own_their_values():
    """Appends, replacements and copies keep the matrix's indices and
    pointers int32, and editing the caller's array after an append changes
    neither the column nor the matrix."""
    rmap = ReductionMap(10)
    values = np.array([1.0, 2.0, 3.0])
    rmap.append_column(0, np.array([2, 0, 1]), values)
    values[:] = -1.0
    assert np.array_equal(rmap.columns[0][2], [1.0, 2.0, 3.0])
    assert np.array_equal(rmap.matrix.toarray()[[2, 0, 1], 0], [1.0, 2.0, 3.0])
    maps = [rmap]
    rmap.append_column(1, np.array([5, 6]), np.ones(2))
    maps.append(rmap.copy())
    maps[-1].replace_element_columns(0, np.ones((3, 1)), np.array([2, 0, 1]))
    maps[-1].append_column(0, np.array([2, 0, 1]), np.zeros(3))
    for m in maps:
        assert m.matrix.indices.dtype == np.int32
        assert m.matrix.indptr.dtype == np.int32
    assert maps[0].n_columns == 2 and maps[1].n_columns == 3


def test_replacement_on_other_cells_is_rejected():
    rmap = ReductionMap(4)
    rmap.append_column(0, np.array([0, 1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="cells"):
        rmap.replace_element_columns(0, np.ones((3, 1)), np.array([0, 1, 2]))
    assert _same_matrix(rmap.matrix, _coo_built(rmap))
