"""The benchmark's span tracer still finds every msforch name it rebinds.

``perfbench/spans.py`` records spans by rebinding msforch functions and
methods by name, so deleting or renaming one of them breaks the benchmark.
This test installs the tracer once and checks that leaving it restores the
package, and that a SuperLU factorization or red-black pressure solve
still shows up as the ``solve.factor`` span the benchmark's tests require on
every workload; it only reads ``perfbench/``.
"""

import importlib
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

import msforch
import msforch.solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = (msforch.nonlinear_solve, msforch.VertexBlockMatrix.__dict__["matvec"],
              msforch.solve.la)
    tracer = spans.Tracer()
    with tracer.installed():
        assert msforch.nonlinear_solve is not before[0]
    after = (msforch.nonlinear_solve, msforch.VertexBlockMatrix.__dict__["matvec"],
             msforch.solve.la)
    assert all(a is b for a, b in zip(after, before))
    assert tracer.spans == []


def test_sparse_factorization_is_traced(monkeypatch):
    """With the band limit at 0, each SuperLU factorization of a system
    beyond the dense limit is one ``solve.factor`` span inside the nonlinear
    solve's span, and a spy on ``splu`` counts as many.  Later steps reuse
    the retained factor as a CG preconditioner, so there are fewer
    factorizations than solves.  At the default limit the same 24x24
    systems (kd 25) are factored banded, which the tracer does not count as
    ``solve.factor``: it wraps only ``cho_factor`` and ``splu``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    grid = msforch.build_fine_grid(24, 24)
    assert grid.n_cells > msforch.solve._DENSE_LIMIT
    kappa = msforch.gen_synthetic("blobs", 2, 100.0, 24, 24)
    beta = msforch.forchheimer_coeff(kappa, 100.0)
    bands, splus = [], []
    band_solve, splu = msforch.solve._band_solve, scipy.sparse.linalg.splu
    monkeypatch.setattr(msforch.solve, "_band_solve",
                        lambda *a: bands.append(1) or band_solve(*a))
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *a, **k: splus.append(1) or splu(*a, **k))
    for band_limit in (0, msforch.solve._BAND_LIMIT):
        monkeypatch.setattr("msforch.solve._BAND_LIMIT", band_limit)
        bands.clear()
        splus.clear()
        tracer = spans.Tracer()
        with tracer.installed():
            sol = msforch.nonlinear_solve(grid, kappa, beta, msforch.left_right_spec(grid),
                                          np.zeros(grid.n_cells), msforch.NonlinearConfig())
        names = [span[0] for span in tracer.spans]
        assert names[0] == "solve.nonlinear_solve"
        factors = [span for span in tracer.spans if span[0] == "solve.factor"]
        solves = sol.iterations + 1   # the Darcy start, then each step
        assert sol.converged and solves > 2
        if band_limit == 0:
            assert 1 <= len(factors) == len(splus) < solves and bands == []
        else:
            assert (len(factors), len(splus), len(bands)) == (0, 0, solves)
        assert all(span[4] == tracer.spans[0][4] for span in factors)


def test_red_black_factorization_is_traced(monkeypatch):
    """On the dense path a Picard solve (every step's S five-point, solved
    red-black) factors one black system per step: one ``solve.factor`` span
    for the Darcy start and one per step."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    grid = msforch.build_fine_grid(16, 16)
    assert grid.n_cells <= msforch.solve._DENSE_LIMIT
    rng = np.random.default_rng(3)
    kappa = msforch.ScalarCellField(16, 16, 10.0 ** rng.uniform(-1.0, 1.0, grid.n_cells))
    beta = msforch.ScalarCellField(16, 16, np.full(grid.n_cells, 1.0))
    cfg = msforch.NonlinearConfig(scheme="picard")
    tracer = spans.Tracer()
    with tracer.installed():
        sol = msforch.nonlinear_solve(grid, kappa, beta, msforch.left_right_spec(grid),
                                      np.zeros(grid.n_cells), cfg)
    factors = [span for span in tracer.spans if span[0] == "solve.factor"]
    assert sol.converged and sol.iterations > 1
    assert len(factors) == sol.iterations + 1


def test_picard_solve_forms_no_vertex_blocks(monkeypatch):
    """A 16x16 Picard solve eliminates every step per edge: no matrix ever
    materialises its vertex blocks, ``vertex_cholesky`` is never called, and
    each step still makes one ``solve.factor`` span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    reads = []
    blocks = msforch.VertexBlockMatrix.blocks
    monkeypatch.setattr(msforch.VertexBlockMatrix, "blocks",
                        property(lambda self: reads.append("blocks") or blocks.fget(self)))
    monkeypatch.setattr(msforch.solve, "vertex_cholesky",
                        lambda *a: reads.append("vertex_cholesky"))
    grid = msforch.build_fine_grid(16, 16)
    rng = np.random.default_rng(5)
    kappa = msforch.ScalarCellField(16, 16, 10.0 ** rng.uniform(-1.0, 1.0, grid.n_cells))
    beta = msforch.ScalarCellField(16, 16, np.full(grid.n_cells, 1.0))
    tracer = spans.Tracer()
    with tracer.installed():
        sol = msforch.nonlinear_solve(grid, kappa, beta, msforch.left_right_spec(grid),
                                      np.zeros(grid.n_cells), msforch.NonlinearConfig("picard"))
    factors = [span for span in tracer.spans if span[0] == "solve.factor"]
    assert sol.converged and sol.iterations > 1 and reads == []
    assert len(factors) == sol.iterations + 1
