"""Steady-state solvers and the time-evolution cross-check.

The production path, solve_steady(params, terms), solves L vec(rho) = 0 on
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
this way, and not by a complete LU: GMRES solves it (_preconditioned),
preconditioned by one forward block Gauss-Seidel sweep over the levels of
q = n - m (_level_sweep).  Ordered by the q that an entry's ket and bra
share (SectorTerms.levels), the system is block tridiagonal but for the
trace row, so the sweep needs a complete sparse LU of each group of
consecutive levels and the couplings to the levels below it; level
reduction (Gaver, Jacobs and Latouche, Adv. Appl. Prob. 16, 715 (1984))
uses the same structure.  At fig6's (12, 16) check the level factors hold
382k entries, the complete LU 6.55M, and the solve takes 119 ms; fig4's
(10, 10) check takes 33 ms and 146k entries, and no longer falls back to
the 1.55M-entry complete LU (best of 5, one BLAS thread, 2-vCPU Xeon
guest).  If a level factor is singular or GMRES stalls, the complete LU
solves the system instead.  Either solve is refined by the one routine,
_refined, with residuals summed in extended precision, so the answer does
not depend on which factor solved it.  The rows keep the complex solve and
its complete LU, unrefined, whose values the benchmark's references pin at
1e-12.  That solve is the less accurate of the two: at fig5_weak on (6, 12),
solve_steady and solve_steady_real differ in g2_n by 2.5e-7 relative at
gamma_m = 100 and by 4.0e-10 at gamma_m = 0.01, so changing the rows'
solver moves their values, while the check only compares at 1e-6.

Two independent oracles stay full-space, since their job is not to assume
the symmetry: a dense null-space computation (null_space_steady) and a
fixed-step RK4 integration of the master equation (evolve_to_steady).
Tests compare all three.
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
    "evolve_to_steady",
    "suggest_step",
    "vacuum_state",
]

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
RESIDUAL_TOL = 1e-10
MAX_REFINE = 3  # refinement steps after the first solve, at most
# The truncation check's preconditioned GMRES (_preconditioned): the
# relative residual each GMRES solve must reach, the iterations between
# restarts, and the iterations a solve may take in all, restarts included.
# The shipped checks take 3 to 27 a solve, fig7 at m_th = 1 up to 124 on
# (12, 28) and 135 on (12, 72).
GMRES_RTOL = 1e-14
GMRES_RESTART = 50
GMRES_ITERATIONS = 300
# The fewest unknowns a factor of the level preconditioner (_level_sweep)
# covers.  Level q holds (2 k)^2 unknowns, k the photon-phonon pairs (n, m)
# with n - m = q: 4, 16, 36, ... counted from either end of the q chain, and
# at most (2 (n_c + 1))^2.  Grouping consecutive levels to 200 merges the five
# smallest at each end (220 unknowns) and pairs the next; each level from
# k = 8 (256) on is its own factor.  Medians of 11 interleaved check solves,
# one BLAS thread: fig6's (12, 16) check took 152, 151, 129 and 170 ms with
# groups of at least 1 (one level a factor), 100, 200 and 400 unknowns;
# fig2_weak's (10, 10) check 45, 36, 38 and 39 ms.
LEVEL_GROUP = 200
# The oracles: null_space_steady's relative cutoff of a zero singular value;
# suggest_step's power-iteration steps and its margin below the RK4
# stability limit; the ||L vec(rho)|| at which evolve_to_steady stops.
NULL_RCOND = 1e-9
POWER_ITERS = 40
STEP_SAFETY = 0.8
DERIV_TOL = 1e-10


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics attached to a steady-state solution.

    unknowns is the size of the n - m sector that was solved and lu_nnz
    the entries SuperLU stores for its LU factors, supernodal padding
    included: 60897 at a (5, 5) point whose L and U hold 53286 nonzeros.
    refine_steps counts the iterative-refinement steps taken after the
    first solve: 0 for solve_steady, which does not refine.  min_eigenvalue
    is the smallest eigenvalue of the Hermitized state (at least EIG_FLOOR),
    the smallest over its q = n - m blocks, outside which the state is zero.

    For solve_steady_real, lu_nnz counts the entries of the level factors
    that precondition GMRES, summed over the groups of q levels (382k at
    (12, 16), where the complete factor holds 6.55M; 146k at fig4's (10,
    10) check, where it holds 1.55M), or of the complete LU when it falls
    back to one, and refine_steps the steps of _refined (0 to MAX_REFINE)
    on either path, whose residuals are summed in np.longdouble (plain
    float64 where np.longdouble is float64: arm64 macOS, Windows).

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
    refinement steps taken, or None if a solve fails (returns None).

    A solve stopped at a small relative residual can be off by up to the
    condition number times more.  Each step sums rhs - modified y in
    np.longdouble (float64 where it is float64: arm64 macOS, Windows) and
    adds the correction `solve` finds, until a correction no longer moves y
    at working precision or after MAX_REFINE steps (Carson and Higham, SIAM
    J. Sci. Comput. 40, A817 (2018)).  Real systems only: the cast to
    np.longdouble would drop an imaginary part.
    """
    wide = modified.astype(np.longdouble)  # the residuals are summed in it
    y, steps = solve(rhs), 0
    while y is not None and steps < MAX_REFINE:
        correction = solve((rhs - wide @ y).astype(rhs.dtype))
        if correction is None:
            return None
        y = y + correction
        steps += 1
        if np.abs(correction).max() <= np.finfo(y.dtype).eps * np.abs(y).max():
            break
    return None if y is None else (y, steps)


def _level_sweep(
    modified: sp.csc_matrix, levels: tuple[np.ndarray, ...]
) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """One forward block Gauss-Seidel sweep over the q levels of modified,
    and the entries its factors store.

    Ordered by levels (SectorTerms.levels), modified is block tridiagonal
    but for its trace row, which sits in level 0 and reaches every level.
    Consecutive levels are grouped to at least LEVEL_GROUP unknowns (the
    last group may hold fewer), and each group's diagonal block D_g gets a
    complete sparse LU (spla.splu, which raises RuntimeError on a singular
    block).  The sweep solves x_g = D_g^-1 (r_g - sum_{h < g} A_gh x_h), g
    ascending: the couplings A_gh below the diagonal are the previous
    group's and the left part of the trace row.  The ordered copy is freed
    before the sweep is returned.
    """
    order = np.concatenate(levels)
    bounds = [0]
    for end in np.cumsum([level.size for level in levels]):
        if end - bounds[-1] >= LEVEL_GROUP:
            bounds.append(int(end))
    if bounds[-1] < order.size:
        bounds.append(order.size)
    ordered = modified[order][:, order].tocsr()
    groups = []
    for start, stop in zip(bounds, bounds[1:]):
        rows = ordered[start:stop]
        groups.append((start, stop, spla.splu(rows[:, start:stop].tocsc()), rows[:, :start]))
    del ordered, rows

    def sweep(r: np.ndarray) -> np.ndarray:
        r, x = r[order], np.empty_like(r)
        for start, stop, lu, below in groups:
            x[start:stop] = lu.solve(r[start:stop] - below @ x[:start])
        y = np.empty_like(x)
        y[order] = x
        return y

    return sweep, sum(int(lu.nnz) for _, _, lu, _ in groups)


def _preconditioned(
    levels: tuple[np.ndarray, ...], modified: sp.csc_matrix, rhs: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Solve the real system modified y = rhs by GMRES preconditioned with
    a level sweep (_level_sweep), refined by _refined; return y, the level
    factors' stored entries and the refinement steps taken.

    A GMRES solve may take GMRES_ITERATIONS iterations in all.  spla.gmres
    counts restart cycles by default, and ends a cycle early on its
    preconditioned estimate; a callback of type "legacy" makes maxiter
    count iterations.  If a level factor is singular, or a GMRES solve
    misses GMRES_RTOL within its iterations, the complete LU solves the
    system instead, refined the same way.
    """
    try:
        sweep, nnz = _level_sweep(modified, levels)
    except RuntimeError:  # "Factor is exactly singular"
        solved = None
    else:
        precond = spla.LinearOperator(modified.shape, sweep, dtype=modified.dtype)

        def gmres(b: np.ndarray) -> np.ndarray | None:
            x, info = spla.gmres(
                modified, b, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
                maxiter=GMRES_ITERATIONS, M=precond, callback=lambda _: None,
                callback_type="legacy",
            )
            return x if info == 0 else None

        solved = _refined(modified, rhs, gmres)
        del sweep, precond, gmres  # released before a complete LU is made
    if solved is None:
        lu = _complete_lu(modified)
        solved, nnz = _refined(modified, rhs, lu.solve), int(lu.nnz)
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
    raises (see _solved).
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


def suggest_step(liouvillian: sp.spmatrix) -> float:
    """Stable RK4 step from a power-iteration estimate of the spectral radius.

    The classical RK4 stability region reaches |lambda h| = 2*sqrt(2) along
    the imaginary axis, which is the binding constraint for weakly damped
    Hamiltonian dynamics; STEP_SAFETY backs off from that limit and absorbs
    the underestimate inherent in POWER_ITERS steps of power iteration.
    """
    lv = sp.csr_matrix(liouvillian)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(lv.shape[0]) + 1j * rng.standard_normal(lv.shape[0])
    v /= np.linalg.norm(v)
    radius = 0.0
    for _ in range(POWER_ITERS):
        w = lv @ v
        radius = float(np.linalg.norm(w))
        if radius == 0.0:
            return 1.0
        v = w / radius
    return STEP_SAFETY * 2.0 * np.sqrt(2.0) / radius


def evolve_to_steady(
    liouvillian: sp.spmatrix,
    initial: np.ndarray,
    t_max: float,
    step: float | None = None,
) -> tuple[np.ndarray, dict]:
    """Integrate d(rho)/dt = L rho with fixed-step RK4 until stationary.

    Stops once ||L vec(rho)|| < DERIV_TOL, or fails with ConvergenceError if
    t_max is exhausted first.  Returns the state and a dict of the steps
    taken, the step, the final ||L vec(rho)|| and the largest trace drift.
    The step defaults to suggest_step(), which is a stability bound, not an
    accuracy bound: the trajectory is only a means to reach the fixed point,
    and the fixed point itself is step-independent.
    """
    lv = sp.csr_matrix(liouvillian)
    if step is None:
        step = suggest_step(lv)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    dim = initial.shape[0]
    v = vec(np.asarray(initial, dtype=complex))
    n_steps = int(np.ceil(t_max / step))
    half = 0.5 * step
    sixth = step / 6.0
    deriv = float("inf")
    divergence_cap = float("inf")
    max_trace_drift = 0.0
    taken = 0
    for taken in range(1, n_steps + 1):
        k1 = lv @ v
        deriv = float(np.linalg.norm(k1))
        if deriv < DERIV_TOL:
            taken -= 1
            break
        if taken == 1:
            # a stable trajectory may grow transiently (the generator is
            # non-normal) but runaway exponential growth blows through any
            # fixed factor within a handful of steps
            divergence_cap = 1e8 * max(deriv, 1.0)
        if not np.isfinite(deriv) or deriv > divergence_cap:
            raise ConvergenceError(
                f"integration diverged after {taken - 1} steps "
                f"(||d rho/dt|| = {deriv:.3e}); step {step:.3e} is likely "
                "outside the stability region"
            )
        k2 = lv @ (v + half * k1)
        k3 = lv @ (v + half * k2)
        k4 = lv @ (v + step * k3)
        v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = abs(v[np.arange(dim) * (dim + 1)].sum().real - 1.0)
        max_trace_drift = max(max_trace_drift, drift)
    else:
        deriv = float(np.linalg.norm(lv @ v))
    if deriv >= DERIV_TOL:
        raise ConvergenceError(
            f"not stationary by t_max={t_max:g}: ||d rho/dt|| = {deriv:.3e} "
            f"(tolerance {DERIV_TOL:.0e})"
        )
    info = {"steps": taken, "step": step, "final_deriv": deriv, "max_trace_drift": max_trace_drift}
    return unvec(v, dim), info


def vacuum_state(space: HilbertSpace) -> np.ndarray:
    """Density matrix of |g, 0, 0>, the default integration start."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho
