"""Steady-state solvers.

The complex path, solve_steady(params, terms), solves L vec(rho) = 0 on
the n - m sector of a model.SectorTerms, which owns that sector: its index,
the generator terms restricted to it, and the check, made when the terms are
built, that no term leaves it (model.sector_index says why solving there is
exact).  The solvers take the point, not an operator: L is the terms' own
weighted fill for params (SectorTerms.liouvillian), so it cannot come from
another truncation.  The row of the diagonal element rho[0, 0] is replaced
by the trace functional, which trace preservation makes linearly dependent
on the other diagonal rows, and one unrefined sparse LU solves the system.

solve_steady_real solves the same sector in real arithmetic.  L preserves
Hermiticity, so rho[j, i] is the conjugate of rho[i, j], and the sector,
closed under transposition, has as many real unknowns as complex ones.  The
truncation check solves its doubled space, the largest system of a sweep,
this way, and not by a complete LU: GMRES (_gmres) solves it
(_preconditioned), right-preconditioned by one red-black block Gauss-Seidel
sweep over the levels of q = n - m (_level_sweep).  Ordered by the q that
an entry's ket and bra share (SectorTerms.levels), the system is block
tridiagonal but for the trace row, so levels of the same parity never
couple, and each colour needs one complete sparse LU of a block-diagonal
matrix; level reduction (Gaver, Jacobs and Latouche, Adv. Appl. Prob. 16,
715 (1984)) uses the same structure.  The two factors store a small
fraction of a complete LU's entries (SolveReport gives the counts).  Each
GMRES solve stops at a loose GMRES_RTOL, and refinement with residuals
summed in extended precision (_refined) carries the accuracy.  A GMRES
solve applies the sweep once per iteration and once per restart cycle; a
real solve's three took 9 to 25 applications in all on the rows of
fig5_weak and fig6, 15 to 120 on fig7's (120 at m_th = 1), and 11 to 30 at
the shipped checks (20 at fig6's (12, 16), a solve of about 0.1 s).  If a
factor is singular, or GMRES or its refinement does not converge, the
complete LU solves the system instead, refined by the same routine, so the
answer does not depend on which factor solved it.  A row's sector size picks its solver (sweep.solve_point): up to
COMPLEX_LU_UNKNOWNS unknowns the complex solve and its complete LU,
unrefined (the constant's comment says why); above, the real solve, the
faster there and refined (solve_steady says how far apart the two are).

An independent oracle stays full-space, since its job is not to assume the
symmetry: a dense null-space computation (null_space_steady).  The tests
hold the sector solvers to it and to a fixed-step RK4 integration of the
master equation (tests/helpers.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DegenerateSteadyStateError
from .model import SectorTerms, SystemParams, unvec, vec
from .operators import HilbertSpace

__all__ = [
    "SolveReport",
    "solve_steady",
    "solve_steady_real",
    "null_space_steady",
]

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
RESIDUAL_TOL = 1e-10
MAX_REFINE = 3  # refinement steps after the first solve, at most
# The real solve's preconditioned GMRES (_gmres): the relative true
# residual at which each GMRES solve stops, the iterations between
# restarts, and the iterations a solve may take in all, restarts included.
# GMRES_RTOL is an inner tolerance: _refined carries the accuracy, and it is
# the loosest decade at which every shipped row and check still stops by
# _refined's correction test within MAX_REFINE - 1 steps with every
# observable unchanged; at 1e-8 two fig5_weak rows (gamma_m 0.032 and 0.045)
# took 3 steps.  A solve takes 2 to 8 iterations on the rows of fig5_weak
# and fig6, 4 to 44 on fig7's (the most at m_th = 1) and 2 to 11 at the
# shipped checks, and fig7 at m_th = 1 up to 82 on (12, 28) and 84 on
# (12, 72), over two restart cycles.
GMRES_RTOL = 1e-9
GMRES_RESTART = 50
GMRES_ITERATIONS = 300
# The most unknowns a row's sector may have for sweep.solve_point to solve it
# by solve_steady's complete complex LU; a larger one takes solve_steady_real.
# Best of 15 interleaved solves, one BLAS thread, L's fill included, complex
# against real, at fig7's m_th = 0.001, 0.03, 0.3 and 1 and fig5_weak's
# gamma_m = 1: at (5, 5), 584 unknowns, 5.8-7.2 against 5.5-14.9 ms, the
# real solve slower at m_th = 0.3 and 1, whose GMRES needs more iterations;
# at (6, 8), 1316, 25.6-31.8 against 9.3-30.6 ms; at (6, 14), 2492, 83-108
# against 16-82 ms.  Between, at (6, 6)'s 924 and (5, 8)'s 1016, the real
# solve won but at m_th = 1 (and at (5, 8)'s m_th = 0.3).  So the (5, 5)
# rows keep the complex LU, which would also move 27 of fig2_weak's cells
# past 1e-12 if refined.
COMPLEX_LU_UNKNOWNS = 1000
# null_space_steady's relative cutoff of a zero singular value
NULL_RCOND = 1e-9


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics attached to a steady-state solution.

    unknowns is the size of the n - m sector that was solved and lu_nnz
    the entries SuperLU stores for its LU factors, supernodal padding
    included: 60897 at a (5, 5) point whose L and U hold 53286 nonzeros.
    refine_steps counts the iterative-refinement steps taken after the
    first solve: 0 for solve_steady, which does not refine, and so for a
    row of at most COMPLEX_LU_UNKNOWNS unknowns.  min_eigenvalue
    is the smallest eigenvalue of the Hermitized state (at least EIG_FLOOR),
    the smallest over its q = n - m blocks, outside which the state is zero.

    For solve_steady_real, which solves the truncation check and the rows
    above COMPLEX_LU_UNKNOWNS, lu_nnz counts the entries of the red and the
    black factor that precondition GMRES (383k at (12, 16), where the
    complete factor holds 6.55M; 127k at fig4's (10, 10) check, where it
    holds 1.55M), or of the complete LU when it falls back to one, and
    refine_steps the steps of _refined (1 to MAX_REFINE) on either path,
    whose residuals are summed in np.longdouble (as a rule MAX_REFINE
    steps where that is float64: arm64 macOS, Windows).

    A sweep's truncation check is not a row's diagnostic: the sweep keeps
    the check's one record as metadata["truncation_check"].
    """

    residual_norm: float
    levels_used: tuple[int, int]
    unknowns: int
    lu_nnz: int
    refine_steps: int
    min_eigenvalue: float


def _validated(
    x: np.ndarray, partner: np.ndarray, groups: tuple[np.ndarray, ...], residual: float, where: str
) -> tuple[np.ndarray, float]:
    """Hermitize the column-stacked state x within tolerance and enforce the
    density-matrix invariants; return the Hermitized x and the smallest
    eigenvalue of its groups.

    x[partner[p]] is rho[j, i] when x[p] is rho[i, j].  Each group lists the
    column-stacked positions of a square block, and x must be zero outside
    them: SectorTerms.levels for a sector state, all dim^2 entries for the
    full-space oracle.  Violations beyond the stated tolerances raise instead
    of being repaired, since silent repair would mask assembly bugs upstream.
    A non-finite solution is rejected first: every comparison with NaN is
    False, so it would pass the tolerance tests and crash the eigenvalue call.
    """
    if not (np.isfinite(residual) and np.isfinite(x).all()):
        raise ConvergenceError(
            f"{where}: steady state not finite (residual {residual:.3e})"
        )
    mirror = x[partner].conj()
    herm_dev = float(np.abs(x - mirror).max())
    if herm_dev > HERM_TOL:
        raise ConvergenceError(
            f"{where}: steady state not Hermitian (deviation {herm_dev:.3e})"
        )
    x = 0.5 * (x + mirror)
    trace_dev = abs(x[partner == np.arange(x.size)].sum().real - 1.0)
    if trace_dev > TRACE_TOL:
        raise ConvergenceError(
            f"{where}: steady-state trace off by {trace_dev:.3e}"
        )
    min_eig = min(
        float(np.linalg.eigvalsh(unvec(x[g], math.isqrt(g.size))).min()) for g in groups
    )
    if min_eig < EIG_FLOOR:
        raise ConvergenceError(
            f"{where}: steady state indefinite (min eigenvalue {min_eig:.3e})"
        )
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"{where}: residual {residual:.3e} above tolerance {RESIDUAL_TOL:.0e}"
        )
    return x, min_eig


def _complete_lu(modified: sp.csc_matrix) -> spla.SuperLU:
    """The complete sparse LU of modified; a singular one signals a
    degenerate steady-state manifold."""
    try:
        return spla.splu(modified)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"trace-replaced Liouvillian is singular ({exc}); "
            "the steady state is not unique"
        ) from exc


def _factored(modified: sp.csc_matrix, rhs: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Solve modified y = rhs by one complete sparse LU, unrefined; return
    y, the factor's stored entries and 0 refinement steps."""
    lu = _complete_lu(modified)
    return lu.solve(rhs), int(lu.nnz), 0


def _refined(
    modified: sp.csc_matrix, rhs: np.ndarray, solve: Callable[[np.ndarray], np.ndarray | None]
) -> tuple[np.ndarray, int] | None:
    """Solve modified y = rhs by `solve` and refine; return y and the
    refinement steps taken, or None if a solve fails (returns None) or the
    refinement does not converge.

    A solve stopped at a small relative residual can be off by up to the
    condition number times more.  Each step sums rhs - modified y in
    np.longdouble and adds the correction `solve` finds, until a correction
    no longer moves y at working precision (Carson and Higham, SIAM J. Sci.
    Comput. 40, A817 (2018)); if the MAX_REFINE-th still moves it, y has
    not converged.  Where np.longdouble is float64 (arm64 macOS, Windows)
    corrections stall near the condition number times eps, so y is
    returned after MAX_REFINE steps for _validated's residual test to
    judge.  Real systems only: np.longdouble would drop an imaginary part.
    """
    wide = modified.astype(np.longdouble)  # the residuals are summed in it
    y = solve(rhs)
    for steps in range(1, MAX_REFINE + 1):
        correction = None if y is None else solve((rhs - wide @ y).astype(rhs.dtype))
        if correction is None:
            return None
        y = y + correction
        if np.abs(correction).max() <= np.finfo(y.dtype).eps * np.abs(y).max():
            return y, steps
    return None if np.finfo(wide.dtype).eps < np.finfo(y.dtype).eps else (y, MAX_REFINE)


def _level_sweep(
    modified: sp.csc_matrix, levels: tuple[np.ndarray, ...]
) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """One red-black block Gauss-Seidel sweep over the q levels of
    modified, and the entries its two factors store.

    modified couples each level (SectorTerms.levels) only to itself and
    its neighbours, but for the trace row, which sits in level 0 and
    reaches every level.  So levels whose distance from level 0 is even
    (red) never couple to each other, nor do the odd ones (black), and each
    colour's diagonal block is block diagonal, red's but for the trace row.
    Each gets one complete sparse LU (spla.splu, which raises RuntimeError
    on a singular block), and the sweep solves x_red = D_red^-1 r_red, then
    x_black = D_black^-1 (r_black - C x_red), C the couplings from the red
    columns into the black rows; those from the black columns into the red
    rows are dropped (Young, Iterative Solution of Large Linear Systems,
    1971).  Each slice of modified is freed before the next factorization.

    Red holds level 0, and so the trace row, whose black part is dropped.
    Level 1 red instead took more GMRES iterations in all over the rows of
    fig5_weak (951 against 926), fig6 (1501 against 1452) and fig7 (2187
    against 2159) and at fig7's (12, 28) at m_th = 1 (212 against 188),
    though fewer at fig6's (12, 16) check (19 against 27).
    """
    trace = next(i for i, level in enumerate(levels) if level[0] == 0)
    red, black = (np.concatenate(levels[(trace + c) % 2 :: 2]) for c in (0, 1))
    columns = modified[:, red]
    red_lu = spla.splu(columns[red].tocsc())
    coupling = columns[black].tocsr()
    del columns
    black_lu = spla.splu(modified[:, black][black].tocsc())

    def sweep(r: np.ndarray) -> np.ndarray:
        x = np.empty_like(r)
        x[red] = red_lu.solve(r[red])
        x[black] = black_lu.solve(r[black] - coupling @ x[red])
        return x

    return sweep, int(red_lu.nnz) + int(black_lu.nnz)


def _gmres(
    matrix: sp.csc_matrix, precond: Callable[[np.ndarray], np.ndarray], b: np.ndarray
) -> np.ndarray | None:
    """Solve matrix x = b by restarted GMRES, right-preconditioned by
    precond; return x, or None if its residual is still above GMRES_RTOL
    ||b|| after GMRES_ITERATIONS iterations in all, restarts included.

    A cycle of at most GMRES_RESTART iterations builds an orthonormal basis
    of the Krylov space of matrix precond by classical Gram-Schmidt with one
    reorthogonalization, and reduces its Hessenberg matrix by Givens
    rotations, which give the residual norm of the cycle's minimizer as it
    grows (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 856 (1986)).
    Preconditioned on the right, that norm is the true residual's in exact
    arithmetic, so the cycle stops when it reaches the tolerance.  x then
    takes one application of precond, and a new cycle starts from the true
    residual unless that is within tolerance.
    """
    tol = GMRES_RTOL * float(np.linalg.norm(b))
    basis = np.empty((GMRES_RESTART + 1, b.size))
    triangle = np.zeros((GMRES_RESTART, GMRES_RESTART))
    x, r, iterations = np.zeros_like(b), b, 0
    while (beta := float(np.linalg.norm(r))) > tol:
        if iterations == GMRES_ITERATIONS:
            return None
        basis[0] = r / beta
        rotations, g = [], [beta]
        for k in range(min(GMRES_RESTART, GMRES_ITERATIONS - iterations)):
            w = matrix @ precond(basis[k])
            h = basis[: k + 1] @ w
            w -= h @ basis[: k + 1]
            again = basis[: k + 1] @ w
            w -= again @ basis[: k + 1]
            column, norm = (h + again).tolist(), float(np.linalg.norm(w))
            for j, (c, s) in enumerate(rotations):
                top, bottom = column[j], column[j + 1]
                column[j], column[j + 1] = c * top + s * bottom, c * bottom - s * top
            diagonal = math.hypot(column[k], norm)
            c, s = column[k] / diagonal, norm / diagonal
            rotations.append((c, s))
            column[k] = diagonal
            g[k : k + 1] = c * g[k], -s * g[k]
            triangle[: k + 1, k] = column
            iterations += 1
            if abs(g[k + 1]) <= tol:
                break
            basis[k + 1] = w / norm
        y = scipy.linalg.solve_triangular(triangle[: k + 1, : k + 1], g[: k + 1])
        x += precond(y @ basis[: k + 1])
        r = b - matrix @ x
    return x


def _preconditioned(
    levels: tuple[np.ndarray, ...], modified: sp.csc_matrix, rhs: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Solve the real system modified y = rhs by GMRES (_gmres)
    preconditioned with a level sweep (_level_sweep), refined by _refined;
    return y, the level factors' stored entries and the refinement steps
    taken.

    At fig7's m_th = 1 on (6, 14) the three GMRES solves take 117
    iterations and 120 sweep applications in all; scipy's gmres, which is
    preconditioned on the left, applies the sweep twice to b before its
    first iteration and ends a cycle on the preconditioned residual, took
    131 and 139.  At fig6's (12, 16) check they take 17 and 20 against 27
    and 35.

    If a level factor is singular, a GMRES solve misses GMRES_RTOL within
    its iterations or the refinement does not converge, the complete LU
    solves the system instead, refined the same way; ConvergenceError if
    that refinement does not converge either.
    """
    try:
        sweep, nnz = _level_sweep(modified, levels)
    except RuntimeError:  # "Factor is exactly singular"
        solved = None
    else:
        solved = _refined(modified, rhs, partial(_gmres, modified, sweep))
        del sweep  # released before a complete LU is made
    if solved is None:
        lu = _complete_lu(modified)
        solved, nnz = _refined(modified, rhs, lu.solve), int(lu.nnz)
        if solved is None:
            raise ConvergenceError(
                f"solve_steady_real: no convergence in {MAX_REFINE} refinement steps"
            )
    y, steps = solved
    return y, nnz, steps


def _solved(
    lv: sp.csr_matrix,
    system: sp.csr_matrix,
    terms: SectorTerms,
    expand: sp.csr_matrix | None,
    where: str,
    solve: Callable[[sp.csc_matrix, np.ndarray], tuple[np.ndarray, int, int]],
) -> tuple[np.ndarray, SolveReport]:
    """Solve `system` y = 0 for unit trace and return the validated state
    x = expand @ y (x = y without a map) on terms.space, with its report.

    Row 0 of `system`, rho[0, 0] (index[0] = 0), is replaced by the trace
    functional: 1 at the diagonal entries rho[i, i] (k = i (dim + 1)),
    which are unknowns of the complex and of the real system alike.  The
    replaced equation must be the vacuum's, |g, 0, 0>'s.  Trace preservation
    makes any one diagonal equation depend on the others, but not in
    rounding: solved as solve_steady_real solves, replacing another one
    moved g2_m by up to 1.8e-7 at (3, 4), where a 40-digit solve agrees with
    this one to float64 rounding, and by up to 7.4e-6 at (12, 16).
    _level_sweep orders the unknowns by level only inside the
    preconditioner, so the equations stay these.  The result is assembled
    from system's CSR arrays, converted to CSC once and handed to `solve`
    (_factored or _preconditioned) with the right-hand side.  The residual
    reported is that of the sector operator `lv` on x.  x is validated level
    by level, and only the Hermitized x is scattered into a dim^2 array.
    """
    space, dim = terms.space, terms.space.dim
    trace_cols = np.flatnonzero(terms.index % (dim + 1) == 0).astype(system.indices.dtype)
    start = system.indptr[1]
    modified = sp.csr_matrix(
        (
            np.concatenate([np.ones(trace_cols.size, dtype=system.dtype), system.data[start:]]),
            np.concatenate([trace_cols, system.indices[start:]]),
            np.concatenate([[0], system.indptr[1:] - start + trace_cols.size]),
        ),
        shape=system.shape,
    ).tocsc()
    rhs = np.zeros(system.shape[0], dtype=system.dtype)
    rhs[0] = 1.0
    del system  # freed here if no caller holds it, as the real solve does not

    # the factor is released on return, before validation allocates, so
    # that its pages can be reused instead of adding to the peak
    y, lu_nnz, steps = solve(modified, rhs)
    del modified
    x = y if expand is None else expand @ y
    norm = float(np.linalg.norm(lv @ x))
    x, min_eig = _validated(x, terms.partner, terms.levels, norm, where)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[terms.index % dim, terms.index // dim] = x
    return rho, SolveReport(
        residual_norm=norm,
        levels_used=(space.n_c, space.n_m),
        unknowns=int(terms.index.size),
        lu_nnz=lu_nnz,
        refine_steps=steps,
        min_eigenvalue=min_eig,
    )


def solve_steady(params: SystemParams, terms: SectorTerms) -> tuple[np.ndarray, SolveReport]:
    """Solve L vec(rho) = 0 with unit trace in the n - m sector of terms,
    for L = terms.liouvillian(params).

    Returns the Hermitized density matrix on terms.space and a report
    carrying the residual of the unmodified L; a degenerate steady state
    raises (see _solved).  Unrefined, it is the less accurate of the two
    sector solvers: at fig5_weak on (6, 12), its g2_n differs from
    solve_steady_real's by 2.5e-7 relative at gamma_m = 100, where the
    real solve matches the 40-digit oracle (tests/test_oracle.py), and by
    4.0e-10 at gamma_m = 0.01.  Rows take it only up to
    COMPLEX_LU_UNKNOWNS unknowns, where it is the faster.
    """
    lv = terms.liouvillian(params)
    return _solved(lv, lv, terms, None, "solve_steady", _factored)


def _hermitian_map(partner: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """The map x = T y from the real unknowns y to the sector vector x of a
    Hermitian state, and the mask of the positions below the diagonal.

    y holds rho[i, i] on the diagonal, Re rho[i, j] at (i, j) and
    Im rho[i, j] at its partner (j, i), for i < j.
    """
    own = np.arange(partner.size)
    lower = partner > own
    off = partner != own
    return sp.csr_matrix(
        (
            np.concatenate([np.where(lower, -1j, 1.0), np.where(lower[off], 1j, 1.0)]),
            (np.concatenate([own, partner[off]]), np.concatenate([own, own[off]])),
        ),
        shape=(partner.size, partner.size),
    ), lower


def solve_steady_real(params: SystemParams, terms: SectorTerms) -> tuple[np.ndarray, SolveReport]:
    """solve_steady in real arithmetic, for a generator that preserves
    Hermiticity.

    The unknowns are y with x = T y (_hermitian_map): as many real numbers
    as complex ones, since the sector is closed under transposition.  The
    equations are the real parts of the rows i <= j of L T and, at each
    position i > j, the imaginary part of its partner row.  Every stored
    complex entry of L T keeps a real and an imaginary entry, zero or not,
    so the pattern keeps its 2 x 2 blocks and COLAMD orders it as well as
    the complex one; real SuperLU then stores about half the bytes.

    The residual is that of the complex L on x, so a generator that does not
    preserve Hermiticity fails validation instead of returning a state.
    """
    lv = terms.liouvillian(params)
    expand, lower = _hermitian_map(terms.partner)
    solve = partial(_preconditioned, terms.levels)
    # the real system is handed over as a temporary, which _solved frees
    # once its trace-replaced copy exists
    return _solved(
        lv, _real_system(lv, expand, lower, terms.partner), terms, expand,
        "solve_steady_real", solve,
    )


def _real_system(
    lv: sp.csr_matrix, expand: sp.csr_matrix, lower: np.ndarray, partner: np.ndarray
) -> sp.csr_matrix:
    """The real equations of solve_steady_real in CSR: rows of L T, the real
    part at i <= j and the imaginary part of the partner row at i > j."""
    rows = (lv @ expand)[np.where(lower, partner, np.arange(lower.size))]
    parts = np.where(np.repeat(lower, np.diff(rows.indptr)), rows.data.imag, rows.data.real)
    return sp.csr_matrix((parts, rows.indices, rows.indptr), shape=lv.shape)


def null_space_steady(liouvillian: sp.spmatrix, space: HilbertSpace) -> np.ndarray:
    """Dense null-space oracle for solve_steady.

    Computes the full SVD-based null space of L, singular values below
    NULL_RCOND times the largest counting as zero, and requires it to be
    one-dimensional.  Exponentially more expensive than the sparse path,
    so this is a test-and-validation tool, not a production solver.
    """
    dense = np.asarray(sp.csr_matrix(liouvillian).todense())
    basis = scipy.linalg.null_space(dense, rcond=NULL_RCOND)
    if basis.shape[1] != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian null space has dimension {basis.shape[1]}, expected 1"
        )
    x = basis[:, 0] / np.trace(unvec(basis[:, 0], space.dim))
    transpose = vec(np.arange(x.size).reshape(space.dim, space.dim))
    residual = float(np.linalg.norm(dense @ x))
    x, _ = _validated(x, transpose, (np.arange(x.size),), residual, "null_space_steady")
    return unvec(x, space.dim)
