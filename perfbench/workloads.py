"""The benchmark's three workloads, driven only through msforch's public functions.

Each workload builds its inputs from an input seed in ``__init__`` (set-up),
runs one small warm-up solve, and then repeats :meth:`run`, the timed part,
in a closed loop.  :meth:`check` verifies a repetition's output afterwards,
outside the timed region, and returns the number of solves it judged and the
failures it found.  Every call into the package goes through an attribute of
the ``msforch`` package at call time, so the tracer's rebinding sees it.

Seeds: the field seed is the default field seed plus the input seed, so
input seed 0 reproduces the acceptance-suite fields (channel seed 7 for
criterion 5, blobs seed 2 for criteria 9-12).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

import msforch as ms
import msforch.cli  # noqa: F401  (makes ms.cli available)

#: Field seed of each synthetic kind at input seed 0.
DEFAULT_FIELD_SEEDS = {"channel": 7, "blobs": 2}

#: Relative fine-cell mass balance of a converged solve.
BALANCE_TOL = 1e-10
#: The same balance recomputed from velocities printed with 12 significant
#: digits: each value carries a relative rounding error below 5e-12.
CSV_BALANCE_TOL = 1e-11
#: Coarse conservation against every basis column (criterion 12).
COARSE_TOL = 1e-8
#: Pressure systems up to this size take the dense Cholesky path ('auto' mode).
DENSE_LIMIT = 400


def field_seed(kind: str, seed: int) -> int:
    return DEFAULT_FIELD_SEEDS[kind] + seed


def vertex_block_bytes(nx: int, ny: int) -> int:
    """One padded 4x4 float64 block per mesh vertex."""
    return 4 * 4 * 8 * (nx + 1) * (ny + 1)


def schur_bytes(nx: int, ny: int) -> int:
    """The fine pressure Schur complement: dense up to DENSE_LIMIT cells, else CSR.

    On rectangular grids S has the five-point pattern; CSR stores float64
    values with int32 column indices and row pointers.
    """
    n = nx * ny
    if n <= DENSE_LIMIT:
        return 8 * n * n
    nnz = 5 * n - 2 * (nx + ny)
    return 12 * nnz + 4 * (n + 1)


def balance_error(grid, B, velocity, f_cells) -> float:
    """Largest cell defect |f - div u| relative to the cell's summed |flux| / area."""
    defect = np.abs(f_cells - ms.cell_divergence(grid, B, velocity))
    scale = (abs(B).T @ np.abs(velocity)) / grid.cell_areas
    return float(defect.max() / max(scale.max(), 1e-300))


def coarse_balance_error(fine, B, sol, rmap, f_cells) -> float:
    """Largest conservation defect tested against one coarse basis column."""
    r = f_cells - ms.cell_divergence(fine, B, sol.velocity)
    return max(abs(float((values * r[cells] * fine.cell_areas[cells]).sum()))
               for _, cells, values in rmap.columns)


class Outcome:
    """What one repetition produced: counts for the metrics, data for the checks.

    ``fine_iterations`` and ``fine_seconds`` cover the fine-grid nonlinear
    solves, whose ratio is the time per fine nonlinear iteration.
    """

    def __init__(self, nl_iterations: int, fine_iterations: int, fine_seconds: float, **data):
        self.nl_iterations = nl_iterations
        self.fine_iterations = fine_iterations
        self.fine_seconds = fine_seconds
        self.data = data


class FinePicard16:
    """Criterion 5: 16x16 channel field, beta0 in {1e2, 1e3}, Picard and Newton."""

    name = "fine_picard_16"
    BETA0 = (1e2, 1e3)
    SCHEMES = (("picard", 30000), ("newton", 100))

    def __init__(self, seed: int, workdir: Path):
        self.grid = ms.build_fine_grid(16, 16)
        base = ms.gen_synthetic("channel", field_seed("channel", seed), 100.0, 16, 16)
        self.kappa = ms.ScalarCellField(16, 16, base.values * 0.05)
        self.bc = ms.left_right_spec(self.grid, 1.0, 0.0)
        self.f = np.zeros(self.grid.n_cells)
        self.B = ms.assemble_divergence(self.grid)

    def warm_up(self) -> None:
        beta = ms.forchheimer_coeff(self.kappa, self.BETA0[0])
        ms.nonlinear_solve(self.grid, self.kappa, beta, self.bc, self.f,
                           ms.NonlinearConfig(scheme="newton", tol_nl=1e-8, max_iter=100))

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        sols = []
        for b0 in self.BETA0:
            beta = ms.forchheimer_coeff(self.kappa, b0)
            for scheme, max_iter in self.SCHEMES:
                cfg = ms.NonlinearConfig(scheme=scheme, tol_nl=1e-8, max_iter=max_iter)
                sols.append((b0, scheme, ms.nonlinear_solve(
                    self.grid, self.kappa, beta, self.bc, self.f, cfg)))
        iterations = sum(s.iterations for _, _, s in sols)
        return Outcome(iterations, iterations, time.perf_counter() - t0, sols=sols)

    def check(self, out: Outcome) -> tuple:
        failures = []
        for b0, scheme, sol in out.data["sols"]:
            what = f"{scheme} beta0={b0:g}"
            if not sol.converged:
                failures.append(f"{what}: not converged in {sol.iterations} iterations")
            if scheme == "newton" and sol.iterations > 20:
                failures.append(f"{what}: {sol.iterations} > 20 Newton iterations")
            err = balance_error(self.grid, self.B, sol.velocity, self.f)
            if not err <= BALANCE_TOL:
                failures.append(f"{what}: cell balance {err:.2e} > {BALANCE_TOL:g}")
        return len(out.data["sols"]), failures

    def computed_bytes(self, out: Outcome) -> dict:
        return {"vertex_blocks": vertex_block_bytes(16, 16), "S": schur_bytes(16, 16)}


class FineNewton160:
    """One ``msforch fine`` run on a 160x160 blobs field, in-process via ``cli.main``."""

    name = "fine_newton_160"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "cli"
        self.argv = ["fine", "--nx", "160", "--ny", "160",
                     "--field", f"blobs:{field_seed('blobs', seed)}:100", "--beta0", "100",
                     "--scheme", "newton", "--bc", "preset:left-right", "--out", str(self.out)]
        self.grid = ms.build_fine_grid(160, 160)
        self.B = ms.assemble_divergence(self.grid)
        self.f = np.zeros(self.grid.n_cells)

    def warm_up(self) -> None:
        # 24x24 = 576 cells, above the dense limit, so SuperLU is loaded too.
        argv = ["fine", "--nx", "24", "--ny", "24",
                "--field", f"blobs:{field_seed('blobs', self.seed)}:100", "--out", str(self.out)]
        if ms.cli.main(argv) != 0:
            raise RuntimeError(f"warm-up run 'msforch {' '.join(argv)}' failed")
        shutil.rmtree(self.out)

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        code = ms.cli.main(self.argv)
        elapsed = time.perf_counter() - t0
        files = sorted(self.out.iterdir()) if self.out.is_dir() else []
        rows = self._rows(self.out / "iterations.csv") if code == 0 else []
        iterations = sum(int(r[2]) for r in rows)
        return Outcome(iterations, iterations, elapsed, code=code, rows=rows,
                       bytes_written=sum(p.stat().st_size for p in files))

    @staticmethod
    def _rows(path: Path) -> list:
        lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
        return [ln.split(",") for ln in lines[1:]]

    def check(self, out: Outcome) -> tuple:
        if out.data["code"] != 0:
            return 1, [f"msforch fine exited with {out.data['code']}"]
        failures = []
        if [r[:2] for r in out.data["rows"]] != [["100", "newton"]]:
            failures.append(f"unexpected iterations.csv rows {out.data['rows']}")
        velocity = np.array([float(r[1]) for r in self._rows(self.out / "fine_velocity.csv")])
        if velocity.shape != (self.grid.n_dofs,):
            failures.append(f"fine_velocity.csv holds {velocity.size} values, "
                            f"expected {self.grid.n_dofs}")
        else:
            err = balance_error(self.grid, self.B, velocity, self.f)
            if not err <= CSV_BALANCE_TOL:
                failures.append(f"cell balance from CSV {err:.2e} > {CSV_BALANCE_TOL:g}")
        return 1, failures

    def computed_bytes(self, out: Outcome) -> dict:
        return {"vertex_blocks": vertex_block_bytes(160, 160), "S": schur_bytes(160, 160)}


class Multiscale160x60:
    """Criteria 9-12: fine reference, offline space, full update, online enrichment.

    Enrichment runs the three uniform sweeps of criterion 9 and continues, one
    sweep at a time, until the velocity error is a tenth of the offline one
    (the accuracy criterion 9 states), at most six sweeps in all.
    """

    name = "multiscale_160x60"
    SWEEPS, MAX_SWEEPS, TARGET = 3, 6, 0.1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.fine = ms.build_fine_grid(160, 60, domain=(0.0, 8.0 / 3.0, 0.0, 1.0))
        self.coarse = ms.build_coarse_grid(self.fine, 16, 6)
        self.bc = ms.left_right_spec(self.fine, 1.0, 0.0)
        self.f = np.zeros(self.fine.n_cells)
        base = ms.gen_synthetic("blobs", field_seed("blobs", seed), 100.0, 160, 60)
        self.kappa = ms.ScalarCellField(160, 60, base.values * 0.00198)
        self.beta = ms.forchheimer_coeff(self.kappa, 100.0)
        self.cfg = ms.NonlinearConfig(scheme="newton", tol_nl=1e-10, max_iter=100)
        self.B = ms.assemble_divergence(self.fine)

    def warm_up(self) -> None:
        fine = ms.build_fine_grid(24, 12, domain=(0.0, 2.0, 0.0, 1.0))
        coarse = ms.build_coarse_grid(fine, 4, 2)
        kappa = ms.gen_synthetic("blobs", field_seed("blobs", self.seed), 100.0, 24, 12)
        beta = ms.forchheimer_coeff(kappa, 100.0)
        bc, f = ms.left_right_spec(fine, 1.0, 0.0), np.zeros(fine.n_cells)
        ref = ms.nonlinear_solve(fine, kappa, beta, bc, f, self.cfg)
        spaces, rmap = ms.build_offline_space(fine, coarse, kappa, 2)
        off = ms.solve_offline(fine, kappa, beta, bc, f, rmap, self.cfg)
        ms.update_offline(fine, coarse, rmap, spaces, off.velocity, [0], kappa, beta)
        state = ms.init_enrichment(fine, coarse, kappa, beta, bc, f, rmap, self.cfg, ref, off)
        ms.enrich_uniform(state, 1)

    def run(self) -> Outcome:
        fine, coarse, kappa, beta, bc, f, cfg = (self.fine, self.coarse, self.kappa, self.beta,
                                                 self.bc, self.f, self.cfg)
        stages = {}
        t0 = time.perf_counter()
        ref = ms.nonlinear_solve(fine, kappa, beta, bc, f, cfg)
        stages["fine_reference"] = time.perf_counter() - t0
        t = time.perf_counter()
        spaces, rmap = ms.build_offline_space(fine, coarse, kappa, 4)
        stages["build_offline_space"] = time.perf_counter() - t
        t = time.perf_counter()
        off = ms.solve_offline(fine, kappa, beta, bc, f, rmap, cfg)
        stages["solve_offline"] = time.perf_counter() - t
        t = time.perf_counter()
        residuals = ms.conservation_residuals(fine, coarse, off.velocity, f)
        everything = np.argsort(-residuals, kind="stable")  # all elements, largest defect first
        rmap_upd, _ = ms.update_offline(fine, coarse, rmap, spaces, off.velocity, everything,
                                        kappa, beta)
        stages["update_offline"] = time.perf_counter() - t
        t = time.perf_counter()
        upd = ms.solve_offline(fine, kappa, beta, bc, f, rmap_upd, cfg)
        stages["solve_updated"] = time.perf_counter() - t
        t = time.perf_counter()
        eru_off = ms.error_metrics(fine, off, ref)[1]
        state = ms.init_enrichment(fine, coarse, kappa, beta, bc, f, rmap, cfg, ref, off)
        ms.enrich_uniform(state, self.SWEEPS)
        while (ms.sweep_final_errors(state)[-1] > self.TARGET * eru_off
               and len(ms.sweep_final_errors(state)) < self.MAX_SWEEPS):
            ms.enrich_uniform(state, 1)
        stages["enrich_uniform"] = time.perf_counter() - t
        return Outcome(ref.iterations + off.iterations + upd.iterations, ref.iterations,
                       stages["fine_reference"], ref=ref, off=off, upd=upd, rmap=rmap,
                       rmap_upd=rmap_upd, state=state, eru_off=eru_off, stages=stages)

    def check(self, out: Outcome) -> tuple:
        d = out.data
        failures = []
        for what in ("ref", "off", "upd"):
            if not d[what].converged:
                failures.append(f"{what}: not converged in {d[what].iterations} iterations")
        err = balance_error(self.fine, self.B, d["ref"].velocity, self.f)
        if not err <= BALANCE_TOL:
            failures.append(f"reference cell balance {err:.2e} > {BALANCE_TOL:g}")
        errs = [d["eru_off"], *ms.sweep_final_errors(d["state"])]
        if not all(b < a for a, b in zip(errs, errs[1:])):
            failures.append(f"Eru not decreasing every sweep: {errs}")
        if not errs[-1] <= self.TARGET * errs[0]:
            failures.append(f"Eru {errs[-1]:.4f} > {self.TARGET} x offline {errs[0]:.4f} "
                            f"after {len(errs) - 1} sweeps")
        for what, sol, rmap in (("offline", d["off"], d["rmap"]),
                                ("updated", d["upd"], d["rmap_upd"]),
                                ("enriched", d["state"].solution, d["state"].rmap)):
            err = coarse_balance_error(self.fine, self.B, sol, rmap, self.f)
            if not err <= COARSE_TOL:
                failures.append(f"{what} coarse balance {err:.2e} > {COARSE_TOL:g}")
        # Solves judged: reference, offline, updated offline, and the enriched
        # space's reduced solves (one per color class and sweep).
        return 3 + len(d["state"].history), failures

    def computed_bytes(self, out: Outcome) -> dict:
        dim = out.data["state"].dim
        return {"vertex_blocks": vertex_block_bytes(160, 60), "S": schur_bytes(160, 60),
                "reduced_S": 8 * dim * dim}


WORKLOADS = {w.name: w for w in (FinePicard16, FineNewton160, Multiscale160x60)}
