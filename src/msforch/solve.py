"""Saddle-point solvers and the Picard/Newton iteration for Forchheimer flow.

The discrete model per linearization step is

    A(|u^n|) U^{n+1} + B P^{n+1} = G^n,      B^T U^{n+1} = F,

where A carries the coefficient mu/kappa + beta rho |u^n| at element corners.
Picard uses G^n = G.  Newton augments A with the rank-one corner tensor
beta rho (u^n (x) u^n) / |u^n| and adds the matching term to the right-hand
side, G^n = G + A_tensor U^n, which is the exact Jacobian of the momentum
residual (the tensor is dropped where |u^n| vanishes).

Because A is blockwise invertible, each step reduces to the SPD pressure
system  B^T A^{-1} B P = B^T A^{-1} G - F  (optionally projected onto a
coarse pressure space R), solved by a direct factorization or preconditioned
conjugate gradients.  :class:`PreparedOperator` holds everything of that
elimination which depends only on the grid and B, so a linearization step
does numerical work only: assemble, factor the vertex blocks, form and
factor S, back-substitute.  Convergence is declared on the relative increment
max_z ||z^{n+1} - z^n|| / max(||z^n||, eps) over both state vectors z = P, U;
the velocity must take part because on uniform flow a constant linearized
coefficient scales out of the pressure system entirely, leaving P exact while
U is still moving.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolverError, SingularSystemError
from .fields import ScalarCellField
from .grid import FineGrid
from .mfmfe import (
    BoundarySpec,
    VertexBlockMatrix,
    assemble_divergence,
    assemble_rhs,
    assemble_velocity_matrix,
    corner_geometry,
    corner_velocities,
    divergence_blocks,
    index_dtype,
    lower_solve,
    lower_transpose_solve,
    vertex_cells,
)

#: Floor in the denominator of the relative pressure increment.
_EPS_NORM = 1e-30

#: Dense Cholesky is used below this pressure-system size in 'auto' mode.
_DENSE_LIMIT = 400

#: A dense Cholesky pivot of S at or below this fraction of its largest
#: diagonal entry marks S as singular: a closed no-flow box factors
#: with a roundoff-sized last pivot instead of failing.
_PIVOT_FLOOR = 1e-12


@dataclass
class NonlinearConfig:
    """Settings for the outer linearization loop and inner pressure solves."""

    scheme: str = "newton"          # "picard" | "newton"
    tol_nl: float = 1e-8
    max_iter: int = 200
    initial: str = "darcy"         # "darcy" | "zero"
    linear_solver: str = "auto"    # "auto" | "dense" | "splu" | "cg"
    linear_tol: float = 1e-12
    linear_max_iter: int = 20000

    def validate(self) -> None:
        if self.scheme not in ("picard", "newton"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.initial not in ("darcy", "zero"):
            raise ValueError(f"unknown initial guess {self.initial!r}")
        if self.linear_solver not in ("auto", "dense", "splu", "cg"):
            raise ValueError(f"unknown linear solver {self.linear_solver!r}")
        if self.tol_nl <= 0 or self.max_iter < 1:
            raise ValueError("tol_nl must be positive and max_iter >= 1")


@dataclass
class FlowSolution:
    """Converged (or abandoned) state of a nonlinear flow solve.

    ``history`` has one row per iteration: relative pressure increment and
    the momentum-equation residual norm of the iterate that step produced.
    For reduced solves ``coefficients`` holds the coarse pressure vector and
    ``pressure`` its fine-grid expansion.
    """

    pressure: np.ndarray
    velocity: np.ndarray
    iterations: int
    converged: bool
    history: np.ndarray
    coefficients: np.ndarray | None = None


def _cholesky_solve(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a dense SPD S (overwritten) by Cholesky; raises
    :class:`SingularSystemError` when S is not SPD or a pivot is roundoff-sized."""
    scale = S.diagonal().max(initial=0.0)
    try:
        c, low = la.cho_factor(S, overwrite_a=True)
    except la.LinAlgError as exc:
        raise SingularSystemError(f"pressure system is not SPD: {exc}") from exc
    if not c.diagonal().min(initial=np.inf) ** 2 > _PIVOT_FLOOR * scale:
        raise SingularSystemError("pressure system is numerically singular")
    return la.cho_solve((c, low), rhs)


def _solve_spd(S, rhs: np.ndarray, method: str, tol: float, maxiter: int) -> np.ndarray:
    """Solve the SPD pressure system with the requested backend."""
    n = S.shape[0]
    if method == "auto":
        method = "dense" if n <= _DENSE_LIMIT else "splu"
    if method == "dense":
        return _cholesky_solve(S.toarray(), rhs)
    if method == "splu":
        try:
            lu = spla.splu(sp.csc_matrix(S))
        except RuntimeError as exc:
            raise SingularSystemError(f"pressure system is singular: {exc}") from exc
        out = lu.solve(rhs)
        if not np.all(np.isfinite(out)):
            raise SingularSystemError("pressure solve produced non-finite values")
        return out
    if method == "cg":
        Ssp = sp.csr_matrix(S)
        diag = Ssp.diagonal()
        if np.any(diag <= 0):
            raise SingularSystemError("pressure system has a non-positive diagonal")
        M = sp.diags(1.0 / diag)
        rhs2 = np.atleast_2d(rhs.T).T
        out = np.empty_like(rhs2, dtype=float)
        for j in range(rhs2.shape[1]):
            x, info = spla.cg(Ssp, rhs2[:, j], rtol=tol, atol=0.0, maxiter=maxiter, M=M)
            if info > 0:
                res = float(np.linalg.norm(Ssp @ x - rhs2[:, j]))
                raise LinearSolverError(
                    f"CG did not converge in {maxiter} iterations (residual {res:.3e})",
                    final_residual=res,
                )
            out[:, j] = x
        return out if rhs.ndim > 1 else out[:, 0]
    raise ValueError(f"unknown linear solver {method!r}")


class PreparedOperator:
    """Blockwise velocity elimination for one grid and divergence matrix B.

    Everything that does not depend on the velocity matrix is computed once:
    the rows B_v of B at each vertex's DOFs, restricted to the (up to four)
    cells around the vertex; the maps between block slots and DOFs or cells;
    and the positions of the per-vertex products B_v^T A_v^{-1} B_v in the
    fixed 9-point pattern of the pressure Schur complement S, as compressed
    columns.  A solve then factors the vertex blocks
    A_v = L_v L_v^T by batched Cholesky (the SPD check), forms
    X_v = L_v^{-1} B_v and y_v = L_v^{-1} G_v, sums S = sum_v X_v^T X_v and
    the right-hand side sum_v X_v^T y_v - F by bincount, factors S and
    recovers U_v = L_v^{-T} (y_v - X_v P_v).

    Per-vertex arrays are stored entry-major, (4, ..., n_vertices), so each
    block entry is one contiguous vector.  The rows and columns of A at
    ``fixed_dofs`` act as the identity, which eliminates constrained DOFs
    whose rows of B and entries of G are zero.  With ``kept_cells`` the
    pressure lives on those cells only (in that order) and is zero on the
    others, which pins it there.  :meth:`solve_dense` (any number of
    right-hand-side columns) and :meth:`dense_pressure` (zero velocity data)
    serve small local problems with a dense S.

    ``singular`` records whether B annihilates the constant pressure on the
    kept cells, i.e. no pressure datum fixes the constant; every full-space
    solve then raises :class:`SingularSystemError`, whatever its backend.
    """

    def __init__(self, grid: FineGrid, B: sp.spmatrix, fixed_dofs=(), kept_cells=None):
        self.grid = grid
        self.fixed_dofs = np.asarray(fixed_dofs, dtype=np.int64)
        kept = np.arange(grid.n_cells) if kept_cells is None else np.asarray(kept_cells)
        n = self.n_pressure = kept.size
        cells = vertex_cells(grid)
        self.Bv = np.ascontiguousarray(divergence_blocks(grid, B, cells).transpose(1, 2, 0))
        # Pressure numbering of the cells around each vertex.  Padding slots
        # and dropped cells point one past the end: at a zero appended to the
        # gathered vector, or at a scatter bin that is dropped.
        number = np.full(grid.n_cells + 1, n, dtype=np.int64)
        number[kept] = np.arange(n)
        dtype = index_dtype(4 * grid.n_vertices + grid.n_dofs)
        self._cells = number[cells].T.astype(dtype)
        self._dofs = np.where(grid.vertex_dofs >= 0, grid.vertex_dofs, grid.n_dofs).T.astype(dtype)
        self._slot_of_dof = (grid.dof_vslot * grid.n_vertices + grid.dof_vertex).astype(dtype)
        # B 1 = 0 on the kept cells, up to roundoff, row by row.
        on_kept = self._cells < n
        row_sum = sum(self.Bv[:, j] * on_kept[j] for j in range(4))
        row_abs = sum(np.abs(self.Bv[:, j]) * on_kept[j] for j in range(4))
        self.singular = bool(np.all(np.abs(row_sum) <= 1e-12 * row_abs))
        # Where each entry [j, k, v] of the X_v^T X_v lands in the data of S
        # (or one past the end), and S's row indices and column pointers.
        rows, cols = self._cells[:, None, :], self._cells[None, :, :]
        valid = (rows < n) & (cols < n)
        keys, inverse = np.unique((cols.astype(np.int64) * n + rows)[valid], return_inverse=True)
        index = np.full(valid.shape, keys.size, dtype=index_dtype(keys.size + 1))
        index[valid] = inverse
        self._S_index = index.ravel()
        self._S_indices = (keys % n).astype(index.dtype)
        self._S_indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // n, minlength=n))]).astype(index.dtype)

    @functools.cached_property
    def _dense_index(self) -> np.ndarray:
        """Flat position of each entry [j, k, v] of X_v^T X_v in a dense S
        (n_pressure**2, one past the end, for dropped entries)."""
        n = self.n_pressure
        rows, cols = self._cells[:, None, :].astype(np.int64), self._cells[None, :, :]
        index = np.where((rows < n) & (cols < n), rows * n + cols, n * n)
        return index.ravel().astype(index_dtype(n * n + 1))

    def _check_regular(self) -> None:
        if self.singular:
            raise SingularSystemError(
                "pressure system is singular: no pressure datum fixes the constant")

    def schur_matrix(self, X: np.ndarray) -> sp.csc_matrix:
        """S = sum_v X_v^T X_v in compressed columns."""
        size = self._S_indices.size
        data = np.bincount(self._S_index, weights=_gram_entries(X), minlength=size + 1)[:-1]
        n = self.n_pressure
        return sp.csc_matrix((data, self._S_indices, self._S_indptr), shape=(n, n))

    def _cell_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-vertex entries (4, [k,] n_vertices) summed into their cells: (n, [k])."""
        n = self.n_pressure
        if values.ndim == 2:
            return np.bincount(self._cells.ravel(), weights=values.ravel(), minlength=n + 1)[:n]
        # Slot j of distinct vertices holds distinct cells (a cell has one
        # corner j), so only the dropped bin n sees repeated indices.
        sums = np.zeros((n + 1, values.shape[1]))
        for j in range(4):
            sums[self._cells[j]] += values[j].T
        return sums[:n]

    def _factor(self, A: VertexBlockMatrix):
        """(L, X): entry-major Cholesky factors of the blocks and X = L^{-1} B_v."""
        L = np.ascontiguousarray(A.cholesky(self.fixed_dofs).transpose(1, 2, 0))
        return L, lower_solve(L, self.Bv)

    def _eliminate(self, A: VertexBlockMatrix, G: np.ndarray, F):
        """(L, X, y, rhs): the factors of :meth:`_factor`, y = L^{-1} G_v and
        rhs = sum_v X_v^T y_v - F.  G is one vector (n_dofs,) or one column
        per right-hand side."""
        L, X = self._factor(A)
        y = lower_solve(L, _per_vertex(G, self._dofs))
        return L, X, y, self._cell_sums(_blocks_times(X, y, transpose=True)) - F

    def _velocity(self, L: np.ndarray, X: np.ndarray, y: np.ndarray, P: np.ndarray) -> np.ndarray:
        """U = A^{-1} (G - B P) = L^{-T} (y - X P_v) per vertex, in DOF order."""
        U = lower_transpose_solve(L, y - _blocks_times(X, _per_vertex(P, self._cells)))
        U = U.ravel() if U.ndim == 2 else U.transpose(0, 2, 1).reshape(-1, U.shape[1])
        return U[self._slot_of_dof]

    def solve(self, A: VertexBlockMatrix, G: np.ndarray, F: np.ndarray, method: str = "auto",
              tol: float = 1e-12, maxiter: int = 20000):
        """(U, P) of the saddle system on the full pressure space."""
        self._check_regular()
        L, X, y, rhs = self._eliminate(A, G, F)
        P = _solve_spd(self.schur_matrix(X), rhs, method, tol, maxiter)
        return self._velocity(L, X, y, P), P

    def solve_dense(self, A: VertexBlockMatrix, G: np.ndarray, F=0.0):
        """(U, P) with S formed and factored dense, for small local problems.

        G is (n_dofs,) or holds one right-hand side per column, (n_dofs, k);
        U and P then carry the same columns.
        """
        self._check_regular()
        L, X, y, rhs = self._eliminate(A, G, F)
        P = self._dense_solve(X, rhs)
        return self._velocity(L, X, y, P), P

    def dense_pressure(self, A: VertexBlockMatrix, F: np.ndarray) -> np.ndarray:
        """P alone for zero velocity data (G = 0), S dense: S P = -F."""
        self._check_regular()
        return self._dense_solve(self._factor(A)[1], -F)

    def _dense_solve(self, X: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        n = self.n_pressure
        S = np.bincount(self._dense_index, weights=_gram_entries(X), minlength=n * n + 1)
        return _cholesky_solve(S[:-1].reshape(n, n), rhs)

    def solve_reduced(self, A: VertexBlockMatrix, R: sp.spmatrix, G: np.ndarray, F: np.ndarray):
        """(U, P_r) with the pressure constrained to the column space of R.

        The reduced system R^T S R P_r = R^T (B^T A^{-1} G - F) is dense of
        coarse dimension; the velocity follows from the fine pressure R P_r.
        """
        L, X, y, rhs = self._eliminate(A, G, F)
        S = (R.T @ (self.schur_matrix(X) @ R)).toarray()
        try:
            c, low = la.cho_factor(S, overwrite_a=True)
        except la.LinAlgError as exc:
            raise SingularSystemError(f"reduced pressure system is not SPD: {exc}") from exc
        Pr = la.cho_solve((c, low), R.T @ rhs)
        return self._velocity(L, X, y, R @ Pr), Pr


def _blocks_times(X: np.ndarray, y: np.ndarray, transpose: bool = False) -> np.ndarray:
    """X_v y_v (or X_v^T y_v) per vertex, entry-major: X (4, 4, n), y (4, [k,] n)."""
    if y.ndim == 2:
        return np.einsum("jiv,jv->iv" if transpose else "ijv,jv->iv", X, y)
    # Several columns: a batched matmul, several times faster than einsum here.
    Xv = X.T if transpose else X.transpose(2, 0, 1)
    return (Xv @ y.transpose(2, 0, 1)).transpose(1, 2, 0)


def _per_vertex(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]`` entry-major, (4, [k,] n_vertices), for a (n,) or
    (n, k) ``values``; padding indices (n) read zero."""
    if values.ndim == 1:
        return np.append(values, 0.0)[index]
    padded = np.concatenate([values, np.zeros((1, values.shape[1]))])
    return padded[index].transpose(0, 2, 1)


def _gram_entries(X: np.ndarray) -> np.ndarray:
    """The entries [j, k, v] of every X_v^T X_v, flattened."""
    return np.einsum("ijv,ikv->jkv", X, X).ravel()


def schur_solve(
    A: VertexBlockMatrix,
    B: sp.spmatrix,
    G: np.ndarray,
    F: np.ndarray,
    *,
    method: str = "auto",
    linear_tol: float = 1e-12,
    linear_max_iter: int = 20000,
):
    """Solve the saddle system via the blockwise-eliminated pressure equation.

    Velocity constraints must already be reduced out of (A, B, G, F).
    Returns (U, P) with B^T U = F satisfied to solver precision.  Repeated
    solves on one grid keep a :class:`PreparedOperator` instead.
    """
    return PreparedOperator(A.grid, B).solve(A, G, F, method, linear_tol, linear_max_iter)


def reduced_schur_solve(
    A: VertexBlockMatrix,
    B: sp.spmatrix,
    R: sp.spmatrix,
    G: np.ndarray,
    F: np.ndarray,
):
    """Schur solve with pressure constrained to the column space of R.

    The reduced SPD system (BR)^T A^{-1} (BR) P_r = (BR)^T A^{-1} G - R^T F is
    dense of coarse dimension; the returned velocity lives on the fine grid.
    """
    return PreparedOperator(A.grid, B).solve_reduced(A, R, G, F)


def saddle_oracle(A: VertexBlockMatrix, B: sp.spmatrix, G: np.ndarray, F: np.ndarray):
    """Reference solve of the full dense saddle matrix [[A, B], [B^T, 0]].

    Intended as an independent cross-check for small systems; refuses more
    than 5000 unknowns.  Raises :class:`SingularSystemError` on singular
    systems instead of returning garbage.
    """
    n_u, n_p = B.shape
    if n_u + n_p > 5000:
        raise ValueError(f"saddle oracle limited to 5000 unknowns, got {n_u + n_p}")
    K = np.zeros((n_u + n_p, n_u + n_p))
    K[:n_u, :n_u] = np.asarray(A.to_sparse().todense())
    Bd = np.asarray(B.todense())
    K[:n_u, n_u:] = Bd
    K[n_u:, :n_u] = Bd.T
    b = np.concatenate([G, F])
    # A backward-stable LU passes any residual-vs-(||K|| ||x||) test even on a
    # singular matrix, so escalate the ill-conditioning estimate instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error", la.LinAlgWarning)
        try:
            x = la.solve(K, b)
        except (la.LinAlgError, la.LinAlgWarning) as exc:
            raise SingularSystemError(f"saddle system is singular: {exc}") from exc
    scale = np.linalg.norm(K, ord=np.inf) * np.linalg.norm(x, ord=np.inf) + np.linalg.norm(b)
    if not np.all(np.isfinite(x)) or np.linalg.norm(K @ x - b) > 1e-8 * max(scale, 1e-300):
        raise SingularSystemError("saddle system is numerically singular")
    return x[:n_u], x[n_u:]


class LinearizedSystem:
    """Static parts of the fine saddle problem: B, right-hand sides, constraints.

    Neumann DOFs are eliminated by the lifting U = U_free + lift, identity
    rows in A and zeroed rows of B (``Bfree``, built on access); the lift
    term in G depends on the current matrix and is applied per linearization
    step.  ``geometry`` (corner factors for assembly) and ``operator`` (the
    prepared elimination) are computed once here and reused by every step.
    """

    def __init__(self, grid: FineGrid, f_cells: np.ndarray, bc: BoundarySpec):
        self.grid = grid
        self.B = assemble_divergence(grid)
        G, F, cdofs, cvals = assemble_rhs(grid, f_cells, bc)
        self.G0 = G
        self.cdofs = cdofs
        self.lift = np.zeros(grid.n_dofs)
        self.lift[cdofs] = cvals
        self.F = F - self.B.T @ self.lift
        self.geometry = corner_geometry(grid)
        self.operator = PreparedOperator(grid, self.Bfree, cdofs)

    @property
    def Bfree(self) -> sp.csr_matrix:
        """B with the rows of the constrained DOFs zeroed."""
        free = np.ones(self.grid.n_dofs)
        free[self.cdofs] = 0.0
        return (sp.diags(free) @ self.B).tocsr()

    def reduce(self, A: VertexBlockMatrix, G: np.ndarray):
        """Apply the constraint elimination to a freshly assembled matrix."""
        G2 = G - A.matvec(self.lift)
        G2[self.cdofs] = 0.0
        return A.with_identity_rows(self.cdofs), G2

    def solve(self, A: VertexBlockMatrix, G: np.ndarray, cfg: NonlinearConfig,
              R: sp.spmatrix | None = None):
        """(U, fine pressure, pressure coefficients) of one linearized step."""
        G2 = G - A.matvec(self.lift) if self.lift.any() else G.copy()
        G2[self.cdofs] = 0.0
        if R is None:
            U, P = self.operator.solve(A, G2, self.F, cfg.linear_solver, cfg.linear_tol,
                                       cfg.linear_max_iter)
            return U + self.lift, P, P
        U, Pr = self.operator.solve_reduced(A, R, G2, self.F)
        return U + self.lift, np.asarray(R @ Pr).ravel(), Pr


def _newton_scale(brho_cells: np.ndarray, speed: np.ndarray) -> np.ndarray:
    """beta rho / |w| per corner, the scale of the rank-one Newton tensor
    beta rho (w (x) w) / |w|; zero below the velocity floor."""
    floor = 1e-14 * max(speed.max(), 1.0)
    scale = brho_cells[:, None] / np.where(speed > floor, speed, 1.0)
    scale[speed <= floor] = 0.0
    return scale


def nonlinear_solve(
    grid: FineGrid,
    kappa: ScalarCellField,
    beta: ScalarCellField,
    bc: BoundarySpec,
    f_cells: np.ndarray,
    cfg: NonlinearConfig,
    mu: float = 1.0,
    rho: float = 1.0,
    R: sp.spmatrix | None = None,
    system: LinearizedSystem | None = None,
) -> FlowSolution:
    """Run the Picard or Newton loop on the fine or reduced pressure space.

    The same engine drives both: with R the pressure updates live in the
    coarse space but the increment test and history use the fine expansion,
    so iteration counts are directly comparable.
    """
    cfg.validate()
    kappa.require_positive("permeability")
    sys_ = system if system is not None else LinearizedSystem(grid, f_cells, bc)
    geo = sys_.geometry
    c_darcy = (mu / kappa.values)[:, None] * np.ones((1, 4))
    brho = beta.values * rho

    def picard_matrix(U):
        """(A_pic, corner velocities, speeds) at the iterate U."""
        w, speed = corner_velocities(grid, U)
        A = assemble_velocity_matrix(grid, c_darcy + brho[:, None] * speed, geometry=geo)
        return A, w, speed

    def add_newton_term(A, U, w, speed):
        """Add the Newton tensor to A in place; return the matching right-hand side."""
        A_t = assemble_velocity_matrix(grid, _newton_scale(brho, speed), direction=w,
                                       geometry=geo)
        A.blocks += A_t.blocks
        return sys_.G0 + A_t.matvec(U)

    if cfg.initial == "darcy":
        U, P_fine, _ = sys_.solve(assemble_velocity_matrix(grid, c_darcy, geometry=geo),
                                  sys_.G0, cfg, R)
    else:
        U = sys_.lift.copy()
        P_fine = np.zeros(grid.n_cells)

    history = []
    converged = False
    iterations = 0
    Pr = None
    for n in range(cfg.max_iter):
        A, w, speed = picard_matrix(U)
        if history:
            history[-1][1] = _momentum_residual(sys_, A, U, P_fine)
        G = add_newton_term(A, U, w, speed) if cfg.scheme == "newton" else sys_.G0
        U_new, P_new, Pr = sys_.solve(A, G, cfg, R)
        rel_p = np.linalg.norm(P_new - P_fine) / max(np.linalg.norm(P_fine), _EPS_NORM)
        rel_u = np.linalg.norm(U_new - U) / max(np.linalg.norm(U), _EPS_NORM)
        rel = max(rel_p, rel_u)
        history.append([rel, np.nan])
        U, P_fine = U_new, P_new
        iterations = n + 1
        if rel <= cfg.tol_nl:
            converged = True
            break

    if history and np.isnan(history[-1][1]):
        history[-1][1] = _momentum_residual(sys_, picard_matrix(U)[0], U, P_fine)
    return FlowSolution(
        pressure=P_fine,
        velocity=U,
        iterations=iterations,
        converged=converged,
        history=np.array(history) if history else np.zeros((0, 2)),
        coefficients=Pr if R is not None else None,
    )


def _momentum_residual(sys_: LinearizedSystem, A_pic: VertexBlockMatrix,
                       U: np.ndarray, P: np.ndarray) -> float:
    """Norm of the nonlinear momentum residual on the free DOFs."""
    r = A_pic.matvec(U) + sys_.B @ P - sys_.G0
    r[sys_.cdofs] = 0.0
    return float(np.linalg.norm(r))


def cell_divergence(grid: FineGrid, B: sp.spmatrix, U: np.ndarray) -> np.ndarray:
    """Cellwise divergence of a velocity DOF vector (signed flux sum / area)."""
    return -(B.T @ U) / grid.cell_areas


def velocity_error_norm(M: VertexBlockMatrix, e: np.ndarray) -> float:
    """Quadrature norm sqrt((e, e)_Q) induced by a unit-coefficient mass matrix."""
    return float(np.sqrt(max(e @ M.matvec(e), 0.0)))
