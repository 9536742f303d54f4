"""Saddle-point solvers and the Picard/Newton iteration for Forchheimer flow.

The discrete model per linearization step is

    A(|u^n|) U^{n+1} + B P^{n+1} = G^n,      B^T U^{n+1} = F,

where A carries the coefficient 1/kappa + beta |u^n| at element corners
(kappa and beta carry any viscosity and density, as kappa/mu and beta rho).
Picard uses G^n = G.  Newton's A carries the corner tensor
(1/kappa + beta |u^n|) I + A_t, A_t = beta (u^n (x) u^n) / |u^n| (dropped
where |u^n| vanishes), the exact Jacobian of the momentum residual, and
G^n = G + A_t U^n.  One corner pass (:func:`msforch.mfmfe.linearize`)
gives a step its one assembled matrix, A(|u^n|) U^n for the residual and
A_t U^n, without a matrix-vector product.

Because A is blockwise invertible, each step reduces to the SPD pressure
system  S P = B^T A^{-1} G - F,  S = B^T A^{-1} B, or, projected onto a
coarse pressure space R, to  R^T S R P_r = R^T (B^T A^{-1} G - F)  with
P = R P_r.
:class:`PreparedOperator` is the one owner of that elimination: it holds
everything which depends only on the grid, whose own B it reads off the
grid's corners, it eliminates the constrained (Neumann) velocity DOFs
itself, and it is the only place that factors S, by the one rule its
docstring states.  A grid's operator for one set of constrained DOFs is
built once per grid object (:func:`grid_operator`) and shared by every
solve on it.  A linearization step does numerical work only.  A tensor
(Newton) step factors the vertex blocks in closed form, solves them against
B and its one G in one triangular pass, forms and factors S,
back-substitutes.  A scalar coefficient (Picard, the Darcy start, the local
problems) makes A diagonal and S the two-point (five-point) scheme,
eliminated per edge with no vertex block.
Several right-hand-side columns (the snapshots) apply to a diagonal A only.
Convergence is declared on the relative increment
max_z ||z^{n+1} - z^n|| / max(||z^n||, eps) over both state vectors
z = P, U; the velocity must take part because on uniform flow a constant
linearized coefficient scales out of the pressure system entirely, leaving
P exact while U is still moving.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystemError
from .fields import ScalarCellField
from .grid import CORNER_OFFSETS, FineGrid, index_dtype
from .mfmfe import (
    BoundarySpec,
    VertexBlockMatrix,
    assemble_divergence,
    assemble_rhs,
    assemble_velocity_matrix,
    divergence_blocks,
    linearize,
    lower_solve,
    lower_transpose_solve,
    unit_slots,
    vertex_cells,
    vertex_cholesky,
)

#: Floor in the denominator of the relative pressure increment.
_EPS_NORM = 1e-30

#: Five-point pressure systems of up to this many cells are solved red-black.
_DENSE_LIMIT = 272

#: Pressure systems of at most this half-bandwidth (in band order) are
#: factored by banded Cholesky, wider ones by SuperLU.  The band is the
#: faster of the two up to kd 161 at least, but its 8 n (kd + 1) bytes pass
#: SuperLU's L + U near kd 100 on squares: the memory crossover.
_BAND_LIMIT = 100

#: A Cholesky pivot c_ii (dense or banded) with c_ii^2 at or below this
#: fraction of S_ii marks S as singular: row i is then a roundoff-level
#: combination of the rows before it.  A closed no-flow box factors with such a last pivot
#: instead of failing.  The test is per row, so a diagonal that spans many
#: decades (a high-contrast field) does not trip it.
_PIVOT_FLOOR = 1e-12

#: CG on a SuperLU-path system, preconditioned with an earlier step's factor
#: (:func:`_pcg`), accepts P at ||b - S P|| <= tol ||b||: tol = _CG_TOL (a
#: fresh SuperLU solve leaves about 3e-15) unless a Newton step is loosened
#: by its forcing term.  It gives up, and S is factored afresh, after
#: _CG_MAX iterations, or from _CG_PROBE on once their rate predicts more.
_CG_TOL = 1e-14
_CG_MAX = 25
_CG_PROBE = 3

#: Forcing term of inexact Newton (Dembo, Eisenstat & Steihaug 1982): a
#: Newton step after the first may accept CG at
#: eta = min(_FORCING rel^2, _FORCING_MAX), rel the last relative increment,
#: which keeps the quadratic convergence.  An eta within 100 _CG_TOL is
#: solved at _CG_TOL: CG loosened that little can stop within _CG_TOL but
#: above a fresh solve's roundoff, and the next step, starting there, would
#: accept that residual unchanged as the final cell balance.
_FORCING = 1e-5
_FORCING_MAX = 1e-4


@dataclass
class NonlinearConfig:
    """Settings of the outer linearization loop."""

    scheme: str = "newton"          # "picard" | "newton"
    tol_nl: float = 1e-8
    max_iter: int = 200

    def validate(self) -> None:
        if self.scheme not in ("picard", "newton"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.tol_nl > 0 or self.max_iter < 1:
            raise ValueError("tol_nl must be positive and max_iter >= 1")


@dataclass
class FlowSolution:
    """Converged (or abandoned) state of a nonlinear flow solve.

    ``history`` has one row per iteration: relative pressure increment and
    the momentum-equation residual norm of the iterate that step produced.
    ``pressure`` is on the fine cells, for a reduced solve its expansion
    R P_r.
    """

    pressure: np.ndarray
    velocity: np.ndarray
    iterations: int
    converged: bool
    history: np.ndarray


def _cholesky_solve(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a dense SPD S (overwritten) by Cholesky, the black system
    of :meth:`PreparedOperator._red_black_solve`; raises
    :class:`SingularSystemError` when S is not SPD, a pivot is roundoff-sized
    or the solution is not finite.  SciPy's finiteness scans are skipped: S
    comes from a diagonal already checked finite, and a non-finite
    right-hand side shows in the solution.  The factor is the lower one,
    which LAPACK computes 15-25% faster than the upper one at n = 100-700
    (OpenBLAS, one thread)."""
    diag = S.diagonal().copy()   # cho_factor overwrites S
    try:
        c, low = la.cho_factor(S, lower=True, overwrite_a=True, check_finite=False)
    except la.LinAlgError as exc:
        raise SingularSystemError(f"pressure system is not SPD: {exc}") from exc
    if not np.all(c.diagonal() ** 2 > _PIVOT_FLOOR * diag):
        raise SingularSystemError("pressure system is numerically singular")
    out = la.cho_solve((c, low), rhs, check_finite=False)
    if not np.all(np.isfinite(out)):
        raise SingularSystemError("pressure solve produced non-finite values")
    return out


def _band_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with an SPD S given as its lower band ab (kd + 1, n), column-major
    and overwritten, by banded Cholesky, for one or several right-hand-side
    columns; raises :class:`SingularSystemError` as :func:`_cholesky_solve`
    does, with the per-row pivot test on the band factor's diagonal ab[0]."""
    diag = ab[0].copy()
    try:
        c = la.cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
    except la.LinAlgError as exc:
        raise SingularSystemError(f"pressure system is not SPD: {exc}") from exc
    if not np.all(c[0] ** 2 > _PIVOT_FLOOR * diag):
        raise SingularSystemError("pressure system is numerically singular")
    out = la.cho_solve_banded((c, True), rhs, check_finite=False)
    if not np.all(np.isfinite(out)):
        raise SingularSystemError("pressure solve produced non-finite values")
    return out


class RetainedFactor:
    """The last SuperLU factor (``lu``) and one-column solution (``x``, in
    nested-dissection order) of a sequence of pressure solves on one pattern,
    such as the steps of one nonlinear solve, None before the first:
    :func:`_splu_solve` first tries CG preconditioned with ``lu`` from ``x``,
    accepting at ``tol`` (``_CG_TOL`` unless the caller loosens it).
    ``loose`` records whether the last solve was accepted by CG above
    ``_CG_TOL``; a factored solve is exact and clears it."""

    __slots__ = ("lu", "x", "tol", "loose")

    def __init__(self):
        self.lu = self.x = None
        self.tol, self.loose = _CG_TOL, False


def _pcg(S: sp.csc_matrix, lu, b: np.ndarray, x: np.ndarray | None = None,
         tol: float = _CG_TOL):
    """Solve S x = b to ||b - S x|| <= ``tol`` ||b|| by CG preconditioned
    with ``lu``, the SuperLU factor of a nearby S, from ``x`` (zero if None);
    None once that takes more than ``_CG_MAX`` iterations or, from
    ``_CG_PROBE`` iterations on, the mean rate of reduction from
    r0 = b - S x so far predicts so.

    A start that already leaves ||r0|| <= ``tol`` ||b|| is returned without
    a preconditioner solve.  Otherwise CG runs until the recursive residual
    is below ``tol`` ||b|| / 10, which at ``_CG_TOL`` brings the true one
    down to its roundoff floor, and returns x if ||b - S x|| <= ``tol`` ||b||,
    else restarts from that true residual.  Every decision reads residuals
    and iteration counts, never the clock, so the outcome is deterministic."""
    x = np.zeros_like(b) if x is None else x
    r = b - S @ x
    scale = np.linalg.norm(b)
    start = res = np.linalg.norm(r)
    target = 0.1 * tol * scale
    p = rz = None
    for k in range(_CG_MAX + 1):
        if res <= target:
            r = b - S @ x
            res = np.linalg.norm(r)
            p = None
        if p is None and res <= tol * scale:   # r is a true residual
            return x
        if k == _CG_MAX or k >= _CG_PROBE and not (   # NaN fails too
                res < start and k * np.log(target / start) >= _CG_MAX * np.log(res / start)):
            return None
        z = lu.solve(r)
        rz, rz_old = r @ z, rz
        p = z if p is None else z + (rz / rz_old) * p
        q = S @ p
        alpha = rz / (p @ q)
        x = x + alpha * p
        r = r - alpha * q
        res = np.linalg.norm(r)
    return None


def _splu_solve(S: sp.csc_matrix, rhs: np.ndarray, retained: RetainedFactor | None = None):
    """Solve with a sparse SPD S by SuperLU, for one or several right-hand-side
    columns; raises :class:`SingularSystemError` when S is singular.  S comes
    in a fill-reducing order and, being SPD, needs no pivoting.

    With ``retained``, the factor it holds first preconditions CG
    (:func:`_pcg`) on one right-hand side, from the solution it holds, to
    its tolerance.  Only if CG gives up is it dropped, before S is factored,
    so that at most one factor is alive; the new factor is then retained.
    A solve leaves its solution there, or None for several columns, and
    whether CG accepted it above ``_CG_TOL``."""
    if retained is not None and retained.lu is not None:
        out = _pcg(S, retained.lu, rhs, retained.x, retained.tol) if rhs.ndim == 1 else None
        if out is not None:
            retained.x, retained.loose = out, retained.tol > _CG_TOL
            return out
        retained.lu = None
    try:
        lu = spla.splu(S, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(f"pressure system is singular: {exc}") from exc
    out = lu.solve(rhs)
    if not np.all(np.isfinite(out)):
        raise SingularSystemError("pressure solve produced non-finite values")
    if retained is not None:
        retained.lu, retained.x, retained.loose = lu, out if rhs.ndim == 1 else None, False
    return out


class PreparedOperator:
    """Velocity elimination for one grid, against its own divergence matrix B.

    Everything that does not depend on the velocity matrix is computed once:
    the rows B_v of B at each vertex's DOFs, restricted to the (up to four)
    cells around the vertex, read off the grid
    (:func:`~msforch.mfmfe.divergence_blocks`), the maps between block slots
    and DOFs or cells, and the slots whose rows and columns of A act as the
    identity.
    A tensor A (Newton) is eliminated by vertex, in one method
    (:meth:`_vertex_system`): it factors the vertex blocks A_v = L_v L_v^T in
    closed form (:func:`~msforch.mfmfe.vertex_cholesky`, the SPD check), forms
    [X_v | y_v] = L_v^{-1} [B_v | G_v] for its one column G in one triangular
    pass, sums S = sum_v X_v^T X_v and the right-hand side sum_v X_v^T y_v - F
    by bincount, factors S and recovers U_v = L_v^{-T} (y_v - X_v P_v).  S has
    one pattern, built on first use: the fixed 9-point pattern in compressed
    columns, in the cells' nested-dissection order.

    A diagonal A (``A.diagonal``, a scalar coefficient) makes S the
    two-point scheme, eliminated per edge without X or y (:meth:`_system`):
    edge e adds t = (|e|/2)^2 (1/d_2e + 1/d_2e+1) to its cells' diagonal
    entries and -t to their coupling.

    S is factored by one rule.  A five-point S of up to ``_DENSE_LIMIT``
    cells is solved by :meth:`_red_black_solve`: with the cells coloured red
    and black by the parity of ix + iy, red cells couple only to black ones,
    so they are eliminated by division and dense Cholesky factors the black
    half.  Any other S whose half-bandwidth kd in band order (the cells
    numbered along the shorter side, kd = that side + 1) is at most
    ``_BAND_LIMIT`` has its entries scattered into the lower band and is
    factored by banded Cholesky.  SuperLU factors a wider S as it is, in
    nested-dissection order, without its own ordering or pivoting; given a
    :class:`RetainedFactor`, it first tries CG preconditioned with the factor
    held there, and keeps the new factor there when it factors.  So the
    steps of one nonlinear solve share one factor while CG needs at most
    ``_CG_MAX`` iterations: 2 factorizations instead of 11-12 in a 160 x 160
    Newton solve, about 62 SuperLU solves instead of 150.  A reduced system
    (:meth:`solve_reduced`) is always factored by banded Cholesky.  The
    operator itself keeps no factor: it is shared by every solve on its
    grid, and its state is its caches.

    Per-vertex arrays are stored entry-major, (4, ..., n_vertices), so each
    block entry is one contiguous vector.  Constrained (Neumann) DOFs are
    eliminated here: the rows of A at ``fixed_dofs`` act as the identity,
    their rows of B_v are zeroed and G is read as zero there, so U is zero at
    them and the caller adds any lifting.  With ``kept_cells`` the pressure
    lives on those cells only (in that order) and is zero on the others,
    which pins it there.

    ``singular`` records whether B annihilates the constant pressure on the
    kept cells, i.e. no pressure datum fixes the constant; every full-space
    solve then raises :class:`SingularSystemError`, whatever its size.
    """

    def __init__(self, grid: FineGrid, fixed_dofs=(), kept_cells=None):
        fixed = np.asarray(fixed_dofs, dtype=np.int64)
        kept = np.arange(grid.n_cells) if kept_cells is None else np.asarray(kept_cells)
        n = self.n_pressure = kept.size
        fixed_slot, fixed_vertex = grid.dof_vslot[fixed], grid.dof_vertex[fixed]
        self.Bv = divergence_blocks(grid)
        self.Bv[fixed_slot, :, fixed_vertex] = 0.0
        self._unit = unit_slots(grid, fixed)
        # Pressure numbering of the cells around each vertex.  Padding slots
        # and dropped cells point one past the end: at a zero appended to the
        # gathered vector, or at a scatter bin that is dropped.  Fixed DOFs
        # read G at the padding index, i.e. as zero.
        number = np.full(grid.n_cells + 1, n, dtype=np.int64)
        number[kept] = np.arange(n)
        self._kept_yx = np.divmod(kept, grid.nx)
        self._kept = slice(None) if kept_cells is None else kept
        # What the per-edge path reads of the grid.  The operator keeps no
        # reference to the grid, whose memo may hold it (no reference cycle).
        self._edge_nodes, self._element_edges = grid.edge_nodes, grid.element_edges.T
        self._half = 0.5 * grid.edge_lengths
        self._horizontal = grid.nx * (grid.ny + 1)
        self._free = np.ones(grid.n_dofs, dtype=bool)
        self._free[fixed] = False
        dtype = index_dtype(4 * grid.n_vertices + grid.n_dofs)
        self._cells = number[vertex_cells(grid)].T.astype(dtype)
        dofs = np.where(grid.vertex_dofs >= 0, grid.vertex_dofs, grid.n_dofs)
        dofs[fixed_vertex, fixed_slot] = grid.n_dofs
        self._dofs = dofs.T.astype(dtype)
        self._slot_of_dof = (grid.dof_vslot * grid.n_vertices + grid.dof_vertex).astype(dtype)
        # B 1 = 0 on the kept cells, up to roundoff, row by row.
        on_kept = self._cells < n
        row_sum = sum(self.Bv[:, j] * on_kept[j] for j in range(4))
        row_abs = sum(np.abs(self.Bv[:, j]) * on_kept[j] for j in range(4))
        self.singular = bool(np.all(np.abs(row_sum) <= 1e-12 * row_abs))

    @functools.cached_property
    def _order(self) -> np.ndarray:
        """The pressure numbers in the nested-dissection order of their cells,
        a rectangle: the grid, a snapshot block or the element inside T+."""
        iy, ix = (v - v.min() for v in self._kept_yx)
        width = ix.max() + 1
        return np.argsort(iy * width + ix)[_nested_dissection(width, iy.max() + 1)]

    @functools.cached_property
    def _rank(self) -> np.ndarray:
        """Each pressure number's position in :attr:`_order`, and n at the
        padding number n."""
        n = self.n_pressure
        return np.append(np.argsort(self._order), n).astype(index_dtype(n + 1))

    @functools.cached_property
    def _sparse_pattern(self) -> tuple:
        """(index, row indices, column pointers): where each entry [j, k, v]
        of X_v^T X_v lands in the data of a compressed-column S in
        :attr:`_order` (past the end if dropped), and S's fixed pattern.

        By index arithmetic: column c holds its cell and the cells of the
        rectangle that share a vertex with it, nine offsets looked up in a
        rank table padded with n and sorted per column.  Slot j of vertex
        (x, y) holds cell (x + sx_j, y + sy_j), so entry [j, k, v] lies at
        offset (slot j - slot k) of column rank(cell k)."""
        n = self.n_pressure
        dtype = index_dtype(9 * (n + 1))
        iy, ix = (v - v.min() for v in self._kept_yx)
        table = np.full((iy.max() + 3, ix.max() + 3), n, dtype=dtype)
        table[iy + 1, ix + 1] = self._rank[:n]
        dy, dx = np.divmod(np.arange(9), 3)
        neighbours = table[iy[self._order, None] + dy, ix[self._order, None] + dx]
        sort = np.argsort(neighbours, axis=1, kind="stable")
        rows = np.take_along_axis(neighbours, sort, axis=1)
        valid = rows < n
        indptr = np.concatenate([[0], np.cumsum(valid.sum(axis=1))]).astype(dtype)
        nnz = indptr[-1]
        place = np.empty_like(sort, dtype=dtype)   # each offset's position in the data
        np.put_along_axis(place, sort, np.arange(9, dtype=dtype), axis=1)
        place += indptr[:-1, None]
        place[neighbours == n] = nnz
        sx, sy = -np.array(CORNER_OFFSETS).T
        offset = (3 * (sy[:, None] - sy + 1) + sx[:, None] - sx + 1).astype(dtype)   # [j, k]
        # Column n (padding) is nine more nnz entries.
        lookup = np.append(place.ravel(), np.full(9, nnz, dtype=dtype))
        index = lookup[9 * self._rank[self._cells].astype(dtype)[None] + offset[:, :, None]]
        out = index_dtype(nnz + 1)
        return index.ravel().astype(out), rows[valid].astype(out), indptr.astype(out)

    @functools.cached_property
    def _band(self) -> tuple:
        """(order, rank, kd): the pressure numbers in band order, their cells
        numbered along the shorter side of the rectangle, each pressure
        number's position in it, and the half-bandwidth of a 9-point S in
        that order, the shorter side + 1."""
        iy, ix = (v - v.min() for v in self._kept_yx)
        width, height = ix.max() + 1, iy.max() + 1
        rank = ix * height + iy if width >= height else iy * width + ix
        return np.argsort(rank), rank.astype(index_dtype(rank.size)), int(min(width, height)) + 1

    @functools.cached_property
    def _band_positions(self) -> np.ndarray:
        """Where each entry of :attr:`_sparse_pattern`'s data lands in S's
        lower band (kd + 1, n) in band order, stored column-major; past its
        end if above the diagonal.  Built only by the band path."""
        _, rows, indptr = self._sparse_pattern
        _, rank, kd = self._band
        n = self.n_pressure
        rank = rank[self._order].astype(np.int64)   # of each pattern row and column
        r, c = rank[rows], np.repeat(rank, np.diff(indptr))
        size = (kd + 1) * n
        return np.where(r >= c, c * (kd + 1) + r - c, size).astype(index_dtype(size + 1))

    def _csc(self, data: np.ndarray) -> sp.csc_matrix:
        """S in compressed columns, numbered in :attr:`_order`, from its data."""
        _, indices, indptr = self._sparse_pattern
        return sp.csc_matrix((data, indices, indptr), shape=(self.n_pressure,) * 2)

    @functools.cached_property
    def _red_black(self) -> tuple:
        """Index maps of :meth:`_red_black_solve`, the cells coloured by the
        parity of ix + iy: (red, black, red diagonal, black diagonal, red
        coupling, red neighbours, black coupling, black neighbours, pairs).
        red and black are pressure numbers, each colour in nested-dissection
        order, and the diagonals are positions in :attr:`_sparse_pattern`'s
        data.  Row i of a colour's coupling holds the positions of S's
        entries between its cell i and the (up to four) cells of the other
        colour next to it, whose ranks in that colour are the same row of
        its neighbours; padding points at a zero appended to the data and at
        rank n_other.  pairs holds where each product [r, a, c] of a red
        cell's couplings lands in the dense black system, past its end if
        padding."""
        _, rows, indptr = self._sparse_pattern
        n = self.n_pressure
        cols = np.repeat(np.arange(n), np.diff(indptr))
        # Red is the first kept cell's colour, so it is never empty.
        parity = np.add(*self._kept_yx) % 2
        is_red = (parity == parity[0])[self._order]
        red, black = np.flatnonzero(is_red), np.flatnonzero(~is_red)
        rank = np.empty(n, dtype=np.int64)
        rank[red], rank[black] = np.arange(red.size), np.arange(black.size)

        def coupling(own):
            # Entries in a column of this colour and a row of the other, by column.
            entry = np.flatnonzero(own[cols] & ~own[rows])
            column = rank[cols[entry]]
            slot = np.arange(entry.size) - np.searchsorted(column, column)
            positions = np.full((own.sum(), 4), rows.size)
            neighbours = np.full((own.sum(), 4), n - own.sum())
            positions[column, slot], neighbours[column, slot] = entry, rank[rows[entry]]
            return positions, neighbours

        red_coupling, red_neighbours = coupling(is_red)
        n_black = black.size
        pad = red_neighbours == n_black
        pairs = red_neighbours[:, :, None] * n_black + red_neighbours[:, None, :]
        pairs[pad[:, :, None] | pad[:, None, :]] = n_black * n_black
        diagonal = np.flatnonzero(rows == cols)
        return (self._order[red], self._order[black], diagonal[red], diagonal[black],
                red_coupling, red_neighbours, *coupling(~is_red), pairs.ravel())

    def _red_black_solve(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve S P = rhs for a five-point S, given as :attr:`_sparse_pattern`
        data, for one or several right-hand-side columns.

        Red cells share no edge, so S's red block is its diagonal D and they
        are eliminated by division, as the velocities are: with
        V = D^{-1/2} S_rb and z = D^{-1/2} rhs_r, the black pressures solve
        (diag(S_bb) - V^T V) P_b = rhs_b - V^T z, a dense system of half
        the cells factored by :func:`_cholesky_solve`, and
        P_r = D^{-1/2} (z - V P_b).  Each coupling sums a cell's four
        neighbour slots in a fixed order, so a column's result does not
        depend on the others.
        """
        red, black, red_diagonal, black_diagonal, red_coupling, red_neighbours, \
            black_coupling, black_neighbours, pairs = self._red_black
        data = np.append(data, 0.0)
        d = data[red_diagonal]
        if not np.all(d > 0.0):
            raise SingularSystemError("pressure system is not SPD: a nonpositive diagonal")
        root = np.sqrt(d)
        V = data[red_coupling] / root[:, None]
        Vt = data[black_coupling] / np.append(root, 1.0)[black_neighbours]
        n_black = black.size
        S_black = np.bincount(pairs, weights=(V[:, :, None] * -V[:, None, :]).ravel(),
                              minlength=n_black * n_black + 1)[:-1]
        S_black[::n_black + 1] += data[black_diagonal]
        # Cells first, columns (if any) broadcast; a zero past each colour's end.
        k = (...,) + (None,) * (rhs.ndim - 1)
        z = np.zeros((red.size + 1,) + rhs.shape[1:])
        np.divide(rhs[red], root[k], out=z[:-1])
        Pb = np.zeros((n_black + 1,) + rhs.shape[1:])
        Pb[:-1] = _cholesky_solve(S_black.reshape(n_black, n_black).T,
                                  rhs[black] - _slot_sum(Vt[k] * z[black_neighbours]))
        P = np.empty(rhs.shape)
        P[red] = (z[:-1] - _slot_sum(V[k] * Pb[red_neighbours])) / root[k]
        P[black] = Pb[:-1]
        return P

    def _pressure(self, data: np.ndarray, rhs: np.ndarray, five_point: bool,
                  retained: RetainedFactor | None = None) -> np.ndarray:
        """Solve S P = rhs, S given as :attr:`_sparse_pattern` data, for one
        or several right-hand-side columns, by the class's factorization rule."""
        n = self.n_pressure
        if five_point and n <= _DENSE_LIMIT:
            return self._red_black_solve(data, rhs)
        P = np.empty(rhs.shape)
        order, _, kd = self._band
        if kd <= _BAND_LIMIT:
            ab = np.zeros((kd + 1) * n + 1)
            ab[self._band_positions] = data
            P[order] = _band_solve(ab[:-1].reshape(n, kd + 1).T, rhs[order])
        else:
            P[self._order] = _splu_solve(self._csc(data), rhs[self._order], retained)
        return P

    def _vertex_system(self, A: VertexBlockMatrix, G: np.ndarray, F):
        """(data, rhs, velocity) of :meth:`_system` by vertex, as the class
        docstring describes.  G is one vector (n_dofs,), else ValueError."""
        L = vertex_cholesky(A.blocks, self._unit)
        if G.ndim != 1:
            raise ValueError("a tensor velocity matrix takes one right-hand side")
        Gv = np.append(G, 0.0)[self._dofs]
        Xy = lower_solve(L, np.concatenate([self.Bv, Gv[:, None]], axis=1))
        X, y = Xy[:, :4], Xy[:, 4]
        n, cells = self.n_pressure, self._cells
        rhs = np.bincount(cells.ravel(), weights=np.einsum("jiv,jv->iv", X, y).ravel(),
                          minlength=n + 1)[:n] - F
        index, indices, _ = self._sparse_pattern
        data = np.bincount(index, weights=np.einsum("ijv,ikv->jkv", X, X).ravel(),
                           minlength=indices.size + 1)[:-1]

        def velocity(P):
            U = lower_transpose_solve(L, y - np.einsum("ijv,jv->iv", X, np.append(P, 0.0)[cells]))
            return U.ravel()[self._slot_of_dof]

        return data, rhs, velocity

    @functools.cached_property
    def _edges(self) -> tuple:
        """(cells, positions): the pressure numbers (2, n_edges) of the cells
        m below (left of) and p above (right of) each edge, n if missing or
        dropped, and where S's entries (m, m), (p, p), (m, p), (p, m) lie in
        :attr:`_sparse_pattern` (4, n_edges), past its end if dropped; read
        at the edge's first vertex, corner 3 (1) of m and corner 0 of p."""
        vertex = self._edge_nodes[:, 0]
        m = np.where(np.arange(vertex.size) < self._horizontal, 3, 1)
        cells = np.stack([self._cells[m, vertex], self._cells[0, vertex]])
        slots = np.stack([5 * m, np.zeros_like(m), 4 * m, m])
        return cells, self._sparse_pattern[0][slots * self._cells.shape[1] + vertex]

    def _system(self, A: VertexBlockMatrix, G: np.ndarray, F):
        """(data, rhs, velocity, five_point): S's :attr:`_sparse_pattern`
        data, rhs = B^T A^{-1} G - F, velocity(P) = A^{-1} (G - B P) in DOF
        order and whether S is the two-point scheme.  Per vertex, unless A is
        diagonal with d finite and positive: then per edge, with w = 1/d (0
        at fixed DOFs), (B P)_e = (|e|/2) (P_p - P_m) and B^T's entries
        -sign |e|/2, signs -1, 1, 1, -1 on bottom, right, top, left."""
        d = A.diagonal
        if d is None or not (d.min() > 0.0 and d.max() < np.inf):
            return *self._vertex_system(A, G, F), False
        w = self._free / d
        cells, positions = self._edges
        half = self._half
        t = half * half * (w[0::2] + w[1::2])
        data = np.bincount(positions.ravel(), weights=np.concatenate([t, t, -t, -t]),
                           minlength=self._sparse_pattern[1].size + 1)[:-1]
        k = (slice(None),) + (None,) * (G.ndim - 1)
        wG = w[k] * G
        g = (wG[0::2] + wG[1::2]) * half[k]
        edges = self._element_edges
        rhs = (g[edges[0]] + g[edges[3]] - g[edges[1]] - g[edges[2]])[self._kept] - F

        def velocity(P):
            P = np.concatenate([P, np.zeros((1,) + P.shape[1:])])
            return w[k] * (G - np.repeat((P[cells[1]] - P[cells[0]]) * half[k], 2, axis=0))

        return data, rhs, velocity, True

    def solve(self, A: VertexBlockMatrix, G: np.ndarray, F,
              retained: RetainedFactor | None = None):
        """(U, P) of the saddle system on the full pressure space.

        G is (n_dofs,) or, for a diagonal A only, holds one right-hand side
        per column, (n_dofs, k); U and P then carry the same columns.  A
        SuperLU-path solve with ``retained`` reuses and updates its factor.
        """
        if self.singular:
            raise SingularSystemError(
                "pressure system is singular: no pressure datum fixes the constant")
        data, rhs, velocity, five_point = self._system(A, G, F)
        P = self._pressure(data, rhs, five_point, retained)
        return velocity(P), P

    def solve_reduced(self, A: VertexBlockMatrix, R: sp.spmatrix, G: np.ndarray, F: np.ndarray):
        """(U, P) with the pressure constrained to the column space of R:
        P = R P_r on the fine cells.

        The reduced system R^T S R P_r = R^T (B^T A^{-1} G - F) is sparse of
        coarse dimension: a column of a reduction map lives on one coarse
        element, which S couples only to its neighbours.  Its columns are
        ordered by the band rank of their first cell, so that each element's
        columns stay together and the elements follow the fine band order,
        element by element along the coarse grid's shorter side.  Banded
        Cholesky factors it, whatever its half-bandwidth (read from its
        pattern): in band order a sparse factorization would fill the same
        envelope.
        """
        data, rhs, velocity, _ = self._system(A, G, F)
        R = sp.csc_matrix(R)
        first = np.append(self._band[1][R.indices], self.n_pressure)[R.indptr[:-1]]
        perm = np.argsort(first, kind="stable")
        # R's rows relabelled into S's nested-dissection numbering by one gather.
        R_nd = sp.csc_matrix((R.data, self._rank[R.indices], R.indptr), shape=R.shape)[:, perm]
        S = (R_nd.T @ (self._csc(data) @ R_nd)).tocoo()
        rhs = R_nd.T @ rhs[self._order]
        below = S.row - S.col
        lower = below >= 0
        ab = np.zeros((below.max(initial=0) + 1, S.shape[0]), order="F")
        ab[below[lower], S.col[lower]] = S.data[lower]
        Pr = np.empty(R.shape[1])
        Pr[perm] = _band_solve(ab, rhs)
        P = R @ Pr
        return velocity(P), P


def _nested_dissection(nx: int, ny: int) -> np.ndarray:
    """Row-major ids of an nx-by-ny cell block in nested-dissection order (George
    1973): a line of cells across the longer side, which S does not couple
    across, follows both halves; blocks of at most 16 cells keep natural order."""
    def order(b):
        if b.size <= 16:
            return [np.sort(b, axis=None)]
        b = b if b.shape[1] >= b.shape[0] else b.T
        m = b.shape[1] // 2
        return order(b[:, :m]) + order(b[:, m + 1:]) + [b[:, m]]

    return np.concatenate(order(np.arange(nx * ny).reshape(ny, nx)))


def _slot_sum(g: np.ndarray) -> np.ndarray:
    """g[:, 0] + g[:, 1] + g[:, 2] + g[:, 3], in that order."""
    return g[:, 0] + g[:, 1] + g[:, 2] + g[:, 3]


def schur_solve(A: VertexBlockMatrix, G: np.ndarray, F, fixed_dofs=()):
    """(U, P) of the saddle system on A's grid, ``fixed_dofs`` eliminated,
    by the grid's shared operator (:meth:`PreparedOperator.solve`)."""
    return grid_operator(A.grid, fixed_dofs).solve(A, G, F)


def reduced_schur_solve(A: VertexBlockMatrix, R: sp.spmatrix, G: np.ndarray, F: np.ndarray,
                        fixed_dofs=()):
    """(U, P) with the pressure in the column space of R, P = R P_r on the
    fine cells, by the grid's shared operator
    (:meth:`PreparedOperator.solve_reduced`)."""
    return grid_operator(A.grid, fixed_dofs).solve_reduced(A, R, G, F)


def grid_divergence(grid: FineGrid) -> sp.csr_matrix:
    """The grid's divergence matrix B, assembled once per grid object and
    shared (read-only) by every user."""
    B = grid.memo.get("divergence")
    if B is None:
        B = grid.memo["divergence"] = assemble_divergence(grid)
    return B


def grid_operator(grid: FineGrid, fixed_dofs=()) -> PreparedOperator:
    """The grid's :class:`PreparedOperator` with ``fixed_dofs`` constrained,
    built once per grid object and DOF set and shared by every solve on
    them (an operator changes only by filling its lazy caches)."""
    fixed = np.asarray(fixed_dofs, dtype=np.int64)
    key = ("operator", fixed.tobytes())
    operator = grid.memo.get(key)
    if operator is None:
        operator = grid.memo[key] = PreparedOperator(grid, fixed)
    return operator


class LinearizedSystem:
    """The per-problem parts of the fine saddle problem: right-hand sides and
    constraints, with the grid's shared B and prepared operator.

    Neumann DOFs are eliminated by the lifting U = U_free + lift: the lift
    term in G depends on the current matrix and is applied per linearization
    step, and ``operator`` (the grid's prepared elimination with the
    constrained DOFs fixed, :func:`grid_operator`) does the rest.  Building
    a system assembles G0, F and the lift only; the operator comes from the
    grid, so every system on one grid and boundary partition shares it.
    The system, not the shared operator, keeps the last SuperLU factor of
    its fine steps (``retained``) to precondition the next ones, so the
    factor dies with the system: with one :func:`nonlinear_solve`.
    """

    def __init__(self, grid: FineGrid, f_cells: np.ndarray, bc: BoundarySpec):
        self.grid = grid
        G, F, cdofs, cvals = assemble_rhs(grid, f_cells, bc)
        self.G0 = G
        self.cdofs = cdofs
        self.lift = np.zeros(grid.n_dofs)
        self.lift[cdofs] = cvals
        self.operator = grid_operator(grid, cdofs)
        self.B = grid_divergence(grid)
        self.F = F - self.B.T @ self.lift
        self.retained = RetainedFactor()

    def solve(self, A: VertexBlockMatrix, G: np.ndarray, R: sp.spmatrix | None = None):
        """(U, P) of one linearized step, P on the fine cells; with R, P lies
        in R's column space."""
        G2 = G - A.matvec(self.lift) if self.lift.any() else G
        if R is None:
            U, P = self.operator.solve(A, G2, self.F, self.retained)
        else:
            U, P = self.operator.solve_reduced(A, R, G2, self.F)
        return U + self.lift, P


def nonlinear_solve(
    grid: FineGrid,
    kappa: ScalarCellField,
    beta: ScalarCellField,
    bc: BoundarySpec,
    f_cells: np.ndarray,
    cfg: NonlinearConfig,
    R: sp.spmatrix | None = None,
) -> FlowSolution:
    """Run the Picard or Newton loop on the fine or reduced pressure space,
    starting from the Darcy (beta = 0) solution.

    The same engine drives both: with R the pressure updates live in the
    coarse space but the increment test and history use the fine expansion,
    so iteration counts are directly comparable.  Each step assembles one
    matrix (:func:`linearize`); the Darcy start assembles one more.

    A Newton step after the first may finish a SuperLU-path pressure solve
    at its forcing term (``_FORCING``), and an increment below ``tol_nl``
    counts only on a step that was not accepted loosely, so the final state
    is balanced as a tight solve leaves it.  Picard steps are always solved
    to ``_CG_TOL``: loosened the same way, a 101 x 101 Picard solve kept
    one stale factor throughout and took 4,095 preconditioner solves
    instead of 2,871 with 22 factorizations, 1.2 times as long.
    """
    cfg.validate()
    kappa.require_positive("permeability")
    sys_ = LinearizedSystem(grid, f_cells, bc)
    U, P_fine = sys_.solve(assemble_velocity_matrix(grid, 1.0 / kappa.values), sys_.G0, R)
    retained = sys_.retained
    newton = cfg.scheme == "newton"
    if newton:
        # The Darcy factor (a scalar coefficient) gives up on a tensor step.
        retained.lu = None

    history = []
    converged = False
    for _ in range(cfg.max_iter):
        A, AU, AtU = linearize(grid, kappa.values, beta.values, U, cfg.scheme)
        if history:
            history[-1][1] = _momentum_residual(sys_, AU, P_fine)
            if newton:
                eta = min(_FORCING * history[-1][0] ** 2, _FORCING_MAX)
                retained.tol = eta if eta > 100 * _CG_TOL else _CG_TOL
        U_new, P_new = sys_.solve(A, sys_.G0 + AtU, R)
        # Freed before the next linearization, which overlaps the retained factor.
        del A, AU, AtU
        rel_p = np.linalg.norm(P_new - P_fine) / max(np.linalg.norm(P_fine), _EPS_NORM)
        rel_u = np.linalg.norm(U_new - U) / max(np.linalg.norm(U), _EPS_NORM)
        rel = max(rel_p, rel_u)
        history.append([rel, np.nan])
        U, P_fine = U_new, P_new
        if rel <= cfg.tol_nl and not retained.loose:
            converged = True
            break

    # cfg.validate() requires max_iter >= 1, so history has a last row.
    AU = linearize(grid, kappa.values, beta.values, U, None)[1]
    history[-1][1] = _momentum_residual(sys_, AU, P_fine)
    return FlowSolution(
        pressure=P_fine,
        velocity=U,
        iterations=len(history),
        converged=converged,
        history=np.array(history),
    )


def _momentum_residual(sys_: LinearizedSystem, AU: np.ndarray, P: np.ndarray) -> float:
    """Norm of the momentum residual AU + B P - G0, AU = A_pic(U) U, on the free DOFs."""
    r = AU + sys_.B @ P - sys_.G0
    r[sys_.cdofs] = 0.0
    return float(np.linalg.norm(r))


def cell_divergence(grid: FineGrid, B: sp.spmatrix, U: np.ndarray) -> np.ndarray:
    """Cellwise divergence of a velocity DOF vector (signed flux sum / area)."""
    return -(B.T @ U) / grid.cell_areas


def velocity_error_norm(M: VertexBlockMatrix, e: np.ndarray) -> float:
    """Quadrature norm sqrt((e, e)_Q) induced by a unit-coefficient mass matrix."""
    return float(np.sqrt(max(e @ M.matvec(e), 0.0)))
