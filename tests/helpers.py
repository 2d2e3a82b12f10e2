"""Reference helpers the tests hold the package's output against.

Low-excitation rate-balance estimates for the occupations and the cross
correlation, the weak-excitation regime test and closures behind the
acceptance criteria, a resonance locator for sweep output, a reader
that parses a sweep CSV back into typed rows, a fixed-step RK4
integration of the master equation (evolve_to_steady), the time-evolution
oracle of the steady-state solvers, the dense null space of the full
Liouvillian (null_space_steady), their linear-algebra oracle, and the dense
reduction of a dim x dim
state to its ObservableRecord (dense_observables), the oracle of
observables.compute_observables, which reads the sector state.  The dense
reduction takes the log negativity from the mode_dim x mode_dim
atom-traced state and its dense partial transpose (dense_log_negativity),
the oracle of observables.log_negativity, which reads its n + m blocks off
the sector vector.  The package never calls these; they are the
independent side of the checks that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from pairsim.errors import ConfigError, ConvergenceError, DegenerateSteadyStateError, PairsimError
from pairsim.model import SectorTerms, unvec, vec
from pairsim.observables import _NAMED_STATES, ObservableRecord, _g2
from pairsim.operators import HilbertSpace
from pairsim.steady import _validated
from pairsim.sweep import ERROR_TOKEN, UNDEF_TOKEN

WEAK_OCCUPATION_THRESHOLD = 0.01
MANIFOLD_LEAKAGE_THRESHOLD = 0.1
# The RK4 oracle: suggest_step's power-iteration steps and its margin below
# the RK4 stability limit; the ||L vec(rho)|| at which evolve_to_steady stops.
POWER_ITERS = 40
STEP_SAFETY = 0.8
DERIV_TOL = 1e-10
# null_space_steady's relative cutoff of a zero singular value
NULL_RCOND = 1e-9


@dataclass
class WeakExcitationEstimate:
    """Rate-balance estimates valid when the five lowest product states
    carry essentially all the weight."""

    est_mean_n: float
    est_mean_m: float
    est_g2_nm: float | None
    valid: bool


def weak_excitation_estimate(
    elements: dict[str, float], threshold: float = WEAK_OCCUPATION_THRESHOLD
) -> WeakExcitationEstimate:
    """Estimate occupations and the cross correlation from the named
    populations alone.

    est_mean_n = rho55 + rho44, est_mean_m = rho55 + rho33, and
    est_g2_nm = rho55 / ((rho55 + rho33)(rho55 + rho44)).
    """
    r33 = elements["rho33"]
    r44 = elements["rho44"]
    r55 = elements["rho55"]
    est_n = r55 + r44
    est_m = r55 + r33
    est_g2 = None
    if est_n > 0 and est_m > 0:
        est_g2 = r55 / (est_m * est_n)
    return WeakExcitationEstimate(
        est_mean_n=est_n,
        est_mean_m=est_m,
        est_g2_nm=est_g2,
        valid=max(est_n, est_m) < threshold,
    )


def resonance_locator(deltas: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Locate the symmetric pair of extrema of an even function of detuning.

    Takes the argmax over the non-negative half of the grid, refines it with
    a parabola through the three bracketing points, and mirrors the result,
    so symmetric input produces an exactly symmetric (-x, +x) pair.
    """
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    if deltas.ndim != 1 or deltas.shape != values.shape or deltas.size < 5:
        raise ValueError("need matching 1-d arrays with at least 5 points")
    if np.any(np.diff(deltas) <= 0):
        raise ValueError("detuning grid must be strictly increasing")
    scale = max(abs(deltas[0]), abs(deltas[-1]))
    if np.abs(deltas + deltas[::-1]).max() > 1e-9 * scale:
        raise ValueError("detuning grid must be symmetric about zero")
    half = deltas >= 0
    d_half = deltas[half]
    v_half = values[half]
    k = int(np.argmax(v_half))
    if k == 0 or k == d_half.size - 1:
        # An extremum pinned to the half-grid edge cannot be bracketed;
        # at k=0 that is legitimate (dip centered on zero), at the far
        # edge the grid simply does not cover the feature.
        if k == d_half.size - 1:
            raise ValueError("maximum sits on the grid edge; widen the detuning range")
        loc = float(d_half[0])
    else:
        x0, x1, x2 = d_half[k - 1 : k + 2]
        y0, y1, y2 = v_half[k - 1 : k + 2]
        # vertex of the parabola through the three bracketing points
        # (general spacing; reduces to the familiar formula on uniform grids)
        num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
        den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        loc = float(d_half[k]) if den == 0.0 else float(x1 - 0.5 * num / den)
    return (-loc, loc)


def equal_damping_residual(record: ObservableRecord) -> float | None:
    """|g2_nm * 2 <n> - 1|, the closure that holds when both damping rates
    match in the weak-excitation regime.  None when g2_nm is undefined."""
    if record.g2_nm is None:
        return None
    return abs(record.g2_nm * 2.0 * record.mean_n - 1.0)


def manifold_leakage(elements: dict[str, float]) -> float:
    """Fraction of the excited-state population living outside the five
    reference states.

    The excited weight is everything except (g,0,0) and (e,0,0); of that,
    the five-state picture keeps only (g,0,1), (g,1,0), (g,1,1).  Leakage
    near zero means the five-state restriction is faithful; order-one
    leakage means states like (e,0,1) carry comparable weight and the
    restricted-manifold relations cannot be expected to hold.
    """
    excited = 1.0 - elements["rho11"] - elements["rho22"]
    if excited < 1e-15:
        return 0.0
    kept = elements["rho33"] + elements["rho44"] + elements["rho55"]
    return max(0.0, (excited - kept) / excited)


def in_weak_excitation_regime(
    record: ObservableRecord,
    occ_threshold: float = WEAK_OCCUPATION_THRESHOLD,
    leakage_threshold: float = MANIFOLD_LEAKAGE_THRESHOLD,
) -> bool:
    """Both clauses of the weak-excitation regime: small occupations and a
    faithful five-state manifold.

    Small occupations alone do not guarantee the second clause.  When one
    mode damps far more slowly than the drive re-equilibrates the atom, the
    slow mode's excitation parks in states such as (e,0,1) that the
    five-state picture drops, while the occupations stay tiny.
    """
    if max(record.mean_n, record.mean_m) >= occ_threshold:
        return False
    return manifold_leakage(record.elements) < leakage_threshold


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    """Parse a CSV produced by pairsim.sweep.emit_csv back into typed rows.

    Returns (column names, rows) where each row maps column name to float,
    None (for "undef"), the string "error", or bool for the converged flag.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    lines = [line for line in lines if not line.startswith("#")]
    if not lines:
        raise ConfigError(f"{path}: no header line found")
    cols = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ConfigError(f"{path}: row has {len(cells)} cells, expected {len(cols)}")
        row: dict = {}
        for name, cell in zip(cols, cells):
            if name == "converged":
                row[name] = cell == "true"
            elif cell == UNDEF_TOKEN:
                row[name] = None
            elif cell == ERROR_TOKEN:
                row[name] = ERROR_TOKEN
            else:
                row[name] = float(cell)
        rows.append(row)
    return cols, rows


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


def vacuum_state(space: HilbertSpace) -> np.ndarray:
    """Density matrix of |g, 0, 0>, the default integration start."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def sector_state(rho: np.ndarray, terms: SectorTerms) -> np.ndarray:
    """The sector vector x of a dense state, as the solver returns it; rho
    must hold no weight outside the sector."""
    full = vec(rho)
    outside = np.ones(full.size, dtype=bool)
    outside[terms.index] = False
    assert not full[outside].any(), "state has weight outside the n - m sector"
    return full[terms.index]


def populations(rho: np.ndarray) -> np.ndarray:
    """The diagonal of rho as real populations; an imaginary residue on it
    marks an invalid state and raises."""
    diag = np.diag(rho)
    imag = float(np.abs(diag.imag).max()) if rho.size else 0.0
    if imag > 1e-10:
        raise PairsimError(f"diagonal of rho has imaginary residue {imag:.3e}")
    return diag.real


def partial_trace_atom(rho: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """Trace out the atom, leaving the joint photon-phonon state.

    Under the basis contract the two atom blocks are contiguous, so this is
    a sum of the two diagonal blocks of the 2x2 block structure.
    """
    d = space.mode_dim
    if rho.shape != (space.dim, space.dim):
        raise ValueError(f"state shape {rho.shape} does not match space dim {space.dim}")
    blocks = rho.reshape(2, d, 2, d)
    return blocks[0, :, 0, :] + blocks[1, :, 1, :]


def named_elements(rho: np.ndarray, space: HilbertSpace) -> dict[str, float]:
    """Populations of the five low-excitation reference states plus the
    moduli of the three coherences that track pair emission."""
    idx = [space.index(*state) for state in _NAMED_STATES]
    out = {f"rho{k + 1}{k + 1}": float(rho[i, i].real) for k, i in enumerate(idx)}
    out["abs_rho14"] = float(abs(rho[idx[0], idx[3]]))
    out["abs_rho15"] = float(abs(rho[idx[0], idx[4]]))
    out["abs_rho25"] = float(abs(rho[idx[1], idx[4]]))
    return out


def dense_log_negativity(reduced: np.ndarray, space: HilbertSpace) -> float:
    """E_N = log2 of the trace norm of the partial transpose over the
    photon indices, of the state normalized to unit trace.

    The state couples only kets and bras that share n - m, and the photon
    transpose takes the entry at (n', m), (n, m') to (n, m), (n', m'), so
    the partial transpose is block diagonal in n + m.  It is Hermitian, so
    its trace norm is its trace plus 2 N, N the sum of the moduli of its
    negative eigenvalues, found block by block in one stacked eigvalsh.
    E_N = log2(1 + 2 N / trace) is taken by log1p: log2 of a trace norm
    near 1 would lose the relative digits of a small E_N.  A partial
    transpose that is not Hermitian, or not zero outside its blocks, beyond
    tolerance indicates an upstream bug and raises.
    """
    nc1, nm1 = space.n_c + 1, space.n_m + 1
    d = space.mode_dim
    if reduced.shape != (d, d):
        raise ValueError(f"reduced state shape {reduced.shape}, expected ({d}, {d})")
    pt = (
        reduced.reshape(nc1, nm1, nc1, nm1)
        .transpose(2, 1, 0, 3)
        .reshape(d, d)
    )
    total = (np.arange(nc1)[:, None] + np.arange(nm1)).ravel()  # n + m of each state
    mirror = pt.conj().T
    herm_dev = float(np.abs(pt - mirror).max())
    stray = float(np.abs(pt[total[:, None] != total]).max(initial=0.0))
    if herm_dev > 1e-8 or stray > 1e-8:
        raise PairsimError(
            f"partial transpose deviates from Hermitian by {herm_dev:.3e} "
            f"and holds {stray:.3e} outside its n + m blocks"
        )
    pt = 0.5 * (pt + mirror)
    # block s holds the states (n, s - n), n from max(0, s - n_m) to
    # min(s, n_c); a unit diagonal pads each to the longest, so that one
    # eigvalsh takes them all, and adds only positive eigenvalues
    s = np.arange(nc1 + nm1 - 1)[:, None]
    n = np.maximum(s - (nm1 - 1), 0) + np.arange(min(nc1, nm1))
    inside = n <= np.minimum(s, nc1 - 1)
    states = np.where(inside, n * nm1 + s - n, 0)
    blocks = np.where(
        inside[:, :, None] & inside[:, None, :],
        pt[states[:, :, None], states[:, None, :]],
        np.eye(n.shape[1]),
    )
    values = np.linalg.eigvalsh(blocks)
    negative = float(np.abs(values[values < 0.0]).sum())
    return math.log1p(2.0 * negative / float(np.trace(pt).real)) / math.log(2.0)


def dense_observables(rho: np.ndarray, space: HilbertSpace) -> ObservableRecord:
    """The ObservableRecord of a dense dim x dim state, read off it entry by
    entry: the reference compute_observables is held to."""
    reduced = partial_trace_atom(rho, space)
    pops = populations(rho)
    nvals = space.photon_values().astype(float)
    mvals = space.phonon_values().astype(float)
    mean_n, mean_m = float(nvals @ pops), float(mvals @ pops)
    return ObservableRecord(
        mean_n=mean_n,
        mean_m=mean_m,
        g2_n=_g2(nvals * (nvals - 1.0), pops, mean_n, mean_n),
        g2_m=_g2(mvals * (mvals - 1.0), pops, mean_m, mean_m),
        g2_nm=_g2(nvals * mvals, pops, mean_n, mean_m),
        log_neg=dense_log_negativity(reduced, space),
        elements=named_elements(rho, space),
    )
