"""Steady-state solvers and the time-evolution cross-check.

The production path solves L vec(rho) = 0 in the n - m sector only: the
entries rho[i, j] whose ket and bra carry equal photon-minus-phonon number.
H conserves n - m and each jump operator shifts it by a fixed amount
(sigma- by 0, a by -1, b by +1, b^dag by -1), so L maps the sector into
itself and into its complement separately (a weak U(1) symmetry).  A
unique steady state is invariant under that symmetry and therefore has no
weight outside the sector, so solving there is exact, not an
approximation.  The sector holds 1/9 of the dim^2 unknowns at (5, 5) and
1/23 at (12, 16), and its LU fill shrinks by a larger factor still.

Within the sector, the row of the diagonal element rho[0, 0] is replaced by
the trace functional and the nonsingular system is solved by sparse LU.
The trace-preservation identity makes any diagonal row linearly dependent
on the others, so the replacement loses no information.

solve_steady also accepts a full-space L, as the oracles' callers build it.
It restricts L to the sector but measures the residual with the full L on
the embedded solution, so a generator without the symmetry fails the
residual test rather than being solved in the wrong space.

Two independent oracles guard that path and stay full-space: a dense
null-space computation (null_space_steady) and a fixed-step RK4 integration
of the master equation (evolve_to_steady).  Tests compare all three;
production code uses the sector path only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DegenerateSteadyStateError
from .model import SectorTerms, SystemParams, sector_index, trace_functional, unvec, vec
from .observables import DEFAULT_FLOOR, ObservableRecord, compute_observables
from .operators import HilbertSpace

__all__ = [
    "SolveReport",
    "solve_steady",
    "steady_state",
    "null_space_steady",
    "evolve_to_steady",
    "suggest_step",
    "check_truncation",
    "vacuum_state",
]

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
RESIDUAL_TOL = 1e-10


@dataclass
class SolveReport:
    """Diagnostics attached to a steady-state solution.

    truncation_converged is None when no truncation check was run, and a
    boolean once check_truncation has compared against doubled levels.
    unknowns is the size of the n - m sector that was factored and lu_nnz
    the fill of its LU factors (L.nnz + U.nnz).
    """

    residual_norm: float
    truncation_converged: bool | None
    levels_used: tuple[int, int]
    unknowns: int
    lu_nnz: int


def _validated(rho: np.ndarray, residual: float, where: str) -> np.ndarray:
    """Hermitize within tolerance and enforce the density-matrix invariants.

    Violations beyond the stated tolerances raise instead of being repaired,
    since silent repair would mask assembly bugs upstream.
    """
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
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < EIG_FLOOR:
        raise ConvergenceError(
            f"{where}: steady state indefinite (min eigenvalue {min_eig:.3e})"
        )
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"{where}: residual {residual:.3e} above tolerance {RESIDUAL_TOL:.0e}"
        )
    return rho


def solve_steady(
    liouvillian: sp.spmatrix,
    space: HilbertSpace,
    max_refine: int = 3,
) -> tuple[np.ndarray, SolveReport]:
    """Solve L vec(rho) = 0 with unit trace in the n - m sector.

    `liouvillian` is either the sector operator (SectorTerms.liouvillian)
    or the full dim^2 operator, which is restricted here.  Returns the
    Hermitized density matrix and a report carrying the residual of the
    unmodified L: the full one when given, so that off-sector rows count.
    A singular factorization signals a degenerate steady-state manifold.
    """
    lv = sp.csr_matrix(liouvillian)
    dim = space.dim
    index = sector_index(space)
    if lv.shape == (dim * dim, dim * dim):
        check = lv[:, index]
        lv = check[index]
    elif lv.shape == (index.size, index.size):
        check = lv
    else:
        raise ValueError(
            f"Liouvillian shape {lv.shape} does not match space dimension {dim} "
            f"(full {dim * dim} or sector {index.size} unknowns)"
        )
    # index[0] = 0 is rho[0, 0], so row 0 is a diagonal row
    trace_row = sp.csr_matrix(trace_functional(dim)[index])
    modified = sp.vstack([trace_row, lv[1:]], format="csc")
    rhs = np.zeros(index.size, dtype=complex)
    rhs[0] = 1.0
    try:
        lu = spla.splu(modified)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"trace-replaced Liouvillian is singular ({exc}); "
            "the steady state is not unique"
        ) from exc
    x = lu.solve(rhs)
    residual = float(np.linalg.norm(check @ x))
    # Iterative refinement rarely triggers (direct solves land near 1e-14)
    # but costs little and protects ill-conditioned corners.
    for _ in range(max_refine):
        if residual <= 0.1 * RESIDUAL_TOL:
            break
        x = x + lu.solve(rhs - modified @ x)
        residual = float(np.linalg.norm(check @ x))
    full = np.zeros(dim * dim, dtype=complex)
    full[index] = x
    rho = _validated(unvec(full, dim), residual, "solve_steady")
    return rho, SolveReport(
        residual_norm=residual,
        truncation_converged=None,
        levels_used=(space.n_c, space.n_m),
        unknowns=int(index.size),
        lu_nnz=int(lu.L.nnz + lu.U.nnz),
    )


def steady_state(
    params: SystemParams, space: HilbertSpace | None = None
) -> tuple[np.ndarray, SolveReport]:
    """Convenience wrapper: build the sector Liouvillian and solve it."""
    space = space or HilbertSpace()
    return solve_steady(SectorTerms.build(space).liouvillian(params), space)


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
    return _validated(rho, residual, "null_space_steady")


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


def check_truncation(
    params: SystemParams,
    base_levels: tuple[int, int] = (5, 5),
    tolerance: float = 1e-6,
    base: tuple[ObservableRecord, SolveReport] | None = None,
    floor: float = DEFAULT_FLOOR,
) -> SolveReport:
    """Compare observables at base_levels against doubled levels.

    truncation_converged is True iff every scalar observable (mean
    occupations, the three g2 functions, log negativity) agrees to
    `tolerance` relative, with a small absolute floor so that observables
    that are exactly zero do not trip on rounding noise.  Undefined
    correlations must be undefined at both truncations to count as agreeing.

    `base` is the record and report of a solve already made at base_levels,
    computed with the same `floor`; without it the base point is solved
    here.  The returned report is the base report with the verdict added.
    """
    if base_levels[0] < 2 or base_levels[1] < 2:
        raise ValueError(f"base truncation must be at least (2, 2), got {base_levels}")
    if base is None:
        base_space = HilbertSpace(*base_levels)
        rho_base, report = steady_state(params, base_space)
        obs_base = compute_observables(rho_base, base_space, floor=floor)
    else:
        obs_base, report = base
        if tuple(report.levels_used) != tuple(base_levels):
            raise ValueError(
                f"base solution at {report.levels_used} does not match base_levels {base_levels}"
            )
    big_space = HilbertSpace(2 * base_levels[0], 2 * base_levels[1])
    rho_big, _ = steady_state(params, big_space)
    obs_big = compute_observables(rho_big, big_space, floor=floor)

    def agree(x: float | None, y: float | None) -> bool:
        if x is None or y is None:
            return x is None and y is None
        return abs(x - y) <= tolerance * max(abs(x), abs(y), 1e-9)

    converged = all(
        agree(getattr(obs_base, name), getattr(obs_big, name))
        for name in ("mean_n", "mean_m", "g2_n", "g2_m", "g2_nm", "log_neg")
    )
    return replace(report, truncation_converged=converged, levels_used=base_levels)
