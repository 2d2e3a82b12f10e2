"""Steady-state solvers and the time-evolution cross-check.

The production path, solve_steady, solves L vec(rho) = 0 on the n - m
sector of a model.SectorTerms, which owns that sector: its index, the
generator terms restricted to it, and the check, made when the terms are
built, that no term leaves it (model.sector_index says why solving there is
exact).  Per point, L is one weighted fill of the terms' fixed pattern
(SectorTerms.liouvillian); the row of the diagonal element rho[0, 0] is
replaced by the trace functional, which trace preservation makes linearly
dependent on the other diagonal rows, and the system is solved by one
sparse LU.

solve_steady_real solves the same sector in real arithmetic.  L preserves
Hermiticity, so rho[j, i] is the conjugate of rho[i, j], and the sector,
closed under transposition, has as many real unknowns as complex ones.
Real SuperLU needs about half the factor memory and LU time.  The
truncation check solves its doubled space, the largest factorization of a
sweep, this way.  The rows keep the complex solve: the real one rounds
differently, by up to a few 1e-12 relative, which moves values that the
benchmark's references pin at 1e-12, while the check only compares at 1e-6.

Two independent oracles stay full-space, since their job is not to assume
the symmetry: a dense null-space computation (null_space_steady) and a
fixed-step RK4 integration of the master equation (evolve_to_steady).
Tests compare all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DegenerateSteadyStateError
from .model import SectorTerms, unvec, vec
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
MAX_REFINE = 3  # refinement steps after the direct solve, at most


@dataclass
class SolveReport:
    """Diagnostics attached to a steady-state solution.

    truncation_converged is None when no truncation check was run, and a
    boolean once sweep.check_truncation has compared against doubled levels.
    unknowns is the size of the n - m sector that was factored and lu_nnz
    the entries SuperLU stores for its LU factors, supernodal padding
    included: 60897 at a (5, 5) point whose L and U hold 53286 nonzeros.
    refine_steps counts the iterative-refinement steps taken after the
    direct solve (0 to MAX_REFINE), and min_eigenvalue is the smallest
    eigenvalue of the Hermitized state (at least EIG_FLOOR).
    """

    residual_norm: float
    truncation_converged: bool | None
    levels_used: tuple[int, int]
    unknowns: int
    lu_nnz: int
    refine_steps: int
    min_eigenvalue: float


def _validated(
    rho: np.ndarray, residual: float, where: str, blocks: tuple[np.ndarray, ...] | None = None
) -> tuple[np.ndarray, float]:
    """Hermitize within tolerance and enforce the density-matrix invariants;
    return the Hermitized state and its smallest eigenvalue.

    Violations beyond the stated tolerances raise instead of being repaired,
    since silent repair would mask assembly bugs upstream.  A non-finite
    solution is rejected first: every comparison with NaN is False, so it
    would pass the tolerance tests and crash the eigenvalue call.  `blocks`
    (SectorTerms.blocks) may be given only for a state that is zero outside
    them, as a sector solve's is; the eigenvalues are then found one block
    at a time.
    """
    if not (np.isfinite(residual) and np.isfinite(rho).all()):
        raise ConvergenceError(
            f"{where}: steady state not finite (residual {residual:.3e})"
        )
    herm_dev = float(np.abs(rho - rho.conj().T).max())
    if herm_dev > HERM_TOL:
        raise ConvergenceError(
            f"{where}: steady state not Hermitian (deviation {herm_dev:.3e})"
        )
    rho = 0.5 * (rho + rho.conj().T)
    trace_dev = abs(np.trace(rho).real - 1.0)
    if trace_dev > TRACE_TOL:
        raise ConvergenceError(
            f"{where}: steady-state trace off by {trace_dev:.3e}"
        )
    if blocks is None:
        min_eig = float(np.linalg.eigvalsh(rho).min())
    else:
        min_eig = min(float(np.linalg.eigvalsh(rho[np.ix_(b, b)]).min()) for b in blocks)
    if min_eig < EIG_FLOOR:
        raise ConvergenceError(
            f"{where}: steady state indefinite (min eigenvalue {min_eig:.3e})"
        )
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"{where}: residual {residual:.3e} above tolerance {RESIDUAL_TOL:.0e}"
        )
    return rho, min_eig


def _sector_operator(liouvillian: sp.spmatrix, terms: SectorTerms) -> sp.csr_matrix:
    """L as CSR, or ValueError unless it is the sector operator of terms."""
    lv = sp.csr_matrix(liouvillian)
    size = terms.index.size
    if lv.shape != (size, size):
        raise ValueError(
            f"Liouvillian shape {lv.shape} does not fit the {size} sector unknowns of {terms.space}"
        )
    return lv


def _solved(
    lv: sp.csr_matrix, system: sp.csr_matrix, terms: SectorTerms, expand, where: str
) -> tuple[np.ndarray, SolveReport]:
    """Solve `system` y = 0 for unit trace and return the validated state
    x = expand @ y (x = y without a map) on terms.space, with its report.

    Row 0 of `system`, rho[0, 0] (index[0] = 0), is replaced by the trace
    functional: 1 at the diagonal entries rho[i, i] (k = i (dim + 1)),
    which are unknowns of the complex and of the real system alike.  The
    result is assembled from system's CSR arrays, converted to CSC once and
    factored by one sparse LU.  The residual is that of the sector operator
    `lv` on x.  A singular factorization signals a degenerate steady-state
    manifold.
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
    try:
        lu = spla.splu(modified)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"trace-replaced Liouvillian is singular ({exc}); "
            "the steady state is not unique"
        ) from exc

    def sector(y):
        return y if expand is None else expand @ y

    y = lu.solve(rhs)
    residual = float(np.linalg.norm(lv @ sector(y)))
    # Iterative refinement rarely triggers (direct solves land near 1e-14)
    # but costs little and protects ill-conditioned corners.
    steps = 0
    while steps < MAX_REFINE and residual > 0.1 * RESIDUAL_TOL:
        y = y + lu.solve(rhs - modified @ y)
        residual = float(np.linalg.norm(lv @ sector(y)))
        steps += 1
    lu_nnz = int(lu.nnz)
    # release the factor before validation allocates, so that its pages can
    # be reused instead of adding to the peak
    del lu, modified
    full = np.zeros(dim * dim, dtype=complex)
    full[terms.index] = sector(y)
    rho, min_eig = _validated(unvec(full, dim), residual, where, terms.blocks)
    return rho, SolveReport(
        residual_norm=residual,
        truncation_converged=None,
        levels_used=(space.n_c, space.n_m),
        unknowns=int(terms.index.size),
        lu_nnz=lu_nnz,
        refine_steps=steps,
        min_eigenvalue=min_eig,
    )


def solve_steady(
    liouvillian: sp.spmatrix, terms: SectorTerms
) -> tuple[np.ndarray, SolveReport]:
    """Solve L vec(rho) = 0 with unit trace in the n - m sector.

    `liouvillian` is the sector operator terms.liouvillian(params); an
    operator of any other size raises ValueError.  Returns the Hermitized
    density matrix on terms.space and a report carrying the residual of the
    unmodified L; a degenerate steady state raises (see _solved).
    """
    lv = _sector_operator(liouvillian, terms)
    return _solved(lv, lv, terms, None, "solve_steady")


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


def solve_steady_real(
    liouvillian: sp.spmatrix, terms: SectorTerms
) -> tuple[np.ndarray, SolveReport]:
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
    lv = _sector_operator(liouvillian, terms)
    expand, lower = _hermitian_map(terms.partner)
    rows = (lv @ expand)[np.where(lower, terms.partner, np.arange(lower.size))]
    parts = np.where(np.repeat(lower, np.diff(rows.indptr)), rows.data.imag, rows.data.real)
    real = sp.csr_matrix((parts, rows.indices, rows.indptr), shape=lv.shape)
    del rows, parts  # free the complex products before the factorization
    return _solved(lv, real, terms, expand, "solve_steady_real")


def null_space_steady(
    liouvillian: sp.spmatrix, space: HilbertSpace, rcond: float = 1e-9
) -> np.ndarray:
    """Dense null-space oracle for solve_steady.

    Computes the full SVD-based null space of L and requires it to be
    one-dimensional.  Exponentially more expensive than the sparse path,
    so this is a test-and-validation tool, not a production solver.
    """
    dense = np.asarray(sp.csr_matrix(liouvillian).todense())
    basis = scipy.linalg.null_space(dense, rcond=rcond)
    if basis.shape[1] != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian null space has dimension {basis.shape[1]}, expected 1"
        )
    rho = unvec(basis[:, 0], space.dim)
    rho = rho / np.trace(rho)
    residual = float(np.linalg.norm(dense @ vec(rho)))
    rho, _ = _validated(rho, residual, "null_space_steady")
    return rho


def suggest_step(liouvillian: sp.spmatrix, safety: float = 0.8, iters: int = 40) -> float:
    """Stable RK4 step from a power-iteration estimate of the spectral radius.

    The classical RK4 stability region reaches |lambda h| = 2*sqrt(2) along
    the imaginary axis, which is the binding constraint for weakly damped
    Hamiltonian dynamics; `safety` backs off from that limit and absorbs the
    underestimate inherent in a finite power iteration.
    """
    lv = sp.csr_matrix(liouvillian)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(lv.shape[0]) + 1j * rng.standard_normal(lv.shape[0])
    v /= np.linalg.norm(v)
    radius = 0.0
    for _ in range(iters):
        w = lv @ v
        radius = float(np.linalg.norm(w))
        if radius == 0.0:
            return 1.0
        v = w / radius
    return safety * 2.0 * np.sqrt(2.0) / radius


def evolve_to_steady(
    liouvillian: sp.spmatrix,
    initial: np.ndarray,
    t_max: float,
    step: float | None = None,
    deriv_tol: float = 1e-10,
    return_info: bool = False,
):
    """Integrate d(rho)/dt = L rho with fixed-step RK4 until stationary.

    Stops once ||L vec(rho)|| < deriv_tol, or fails with ConvergenceError if
    t_max is exhausted first.  The step defaults to suggest_step(), which is
    a stability bound, not an accuracy bound: the trajectory is only a means
    to reach the fixed point, and the fixed point itself is step-independent.
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
        if deriv < deriv_tol:
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
    if deriv >= deriv_tol:
        raise ConvergenceError(
            f"not stationary by t_max={t_max:g}: ||d rho/dt|| = {deriv:.3e} "
            f"(tolerance {deriv_tol:.0e})"
        )
    rho = unvec(v, dim)
    if return_info:
        info = {
            "steps": taken,
            "step": step,
            "final_deriv": deriv,
            "max_trace_drift": max_trace_drift,
        }
        return rho, info
    return rho


def vacuum_state(space: HilbertSpace) -> np.ndarray:
    """Density matrix of |g, 0, 0>, the default integration start."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho
