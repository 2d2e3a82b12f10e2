"""Closed-form estimates and spectral cross-checks.

These routines never touch the Liouvillian; they provide the independent
side of every dual-route test: low-excitation rate-balance estimates for the
occupations and the cross correlation, the analytic spectrum of the
single-pair subspace, and grid utilities for locating resonances in sweep
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSweepError
from .model import SystemParams, build_hamiltonian
from .observables import ObservableRecord
from .operators import HilbertSpace

__all__ = [
    "WeakExcitationEstimate",
    "weak_excitation_estimate",
    "SpectrumReport",
    "pair_subspace_spectrum",
    "resonance_locator",
    "equal_damping_residual",
    "manifold_leakage",
    "in_weak_excitation_regime",
]

WEAK_OCCUPATION_THRESHOLD = 0.01
MANIFOLD_LEAKAGE_THRESHOLD = 0.1


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


@dataclass
class SpectrumReport:
    """Spectrum of the undriven Hamiltonian restricted to the single-pair
    sector, plus the two single-excitation levels."""

    pair_doublet: tuple[float, float]
    single_photon_level: float
    single_phonon_level: float
    doublet_vectors: np.ndarray
    pair_basis: tuple[int, int]


def pair_subspace_spectrum(params: SystemParams, space: HilbertSpace) -> SpectrumReport:
    """Diagonalize H on span{(e,0,0), (g,1,1)}.

    With Omega = 0 this 2x2 block is exact (the drive is what couples it to
    the rest of the space); its eigenvalues are Delta -/+ J with dressed
    vectors (|g,1,1> -/+ |e,0,0>)/sqrt(2).
    """
    if params.omega != 0:
        raise ValueError(
            f"pair_subspace_spectrum requires omega=0, got omega={params.omega}"
        )
    h = build_hamiltonian(params, space)
    i_atom = space.index(1, 0, 0)
    i_pair = space.index(0, 1, 1)
    block = np.array(
        [
            [h[i_atom, i_atom], h[i_atom, i_pair]],
            [h[i_pair, i_atom], h[i_pair, i_pair]],
        ],
        dtype=complex,
    )
    evals, evecs = np.linalg.eigh(block)
    vectors = np.zeros((space.dim, 2), dtype=complex)
    vectors[i_atom, :] = evecs[0, :]
    vectors[i_pair, :] = evecs[1, :]
    return SpectrumReport(
        pair_doublet=(float(evals[0]), float(evals[1])),
        single_photon_level=float(h[space.index(0, 1, 0), space.index(0, 1, 0)].real),
        single_phonon_level=float(h[space.index(0, 0, 1), space.index(0, 0, 1)].real),
        doublet_vectors=vectors,
        pair_basis=(i_atom, i_pair),
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
        raise InvalidSweepError("need matching 1-d arrays with at least 5 points")
    if np.any(np.diff(deltas) <= 0):
        raise InvalidSweepError("detuning grid must be strictly increasing")
    scale = max(abs(deltas[0]), abs(deltas[-1]))
    if np.abs(deltas + deltas[::-1]).max() > 1e-9 * scale:
        raise InvalidSweepError("detuning grid must be symmetric about zero")
    half = deltas >= 0
    d_half = deltas[half]
    v_half = values[half]
    k = int(np.argmax(v_half))
    if k == 0 or k == d_half.size - 1:
        # An extremum pinned to the half-grid edge cannot be bracketed;
        # at k=0 that is legitimate (dip centered on zero), at the far
        # edge the grid simply does not cover the feature.
        if k == d_half.size - 1:
            raise InvalidSweepError(
                "maximum sits on the grid edge; widen the detuning range"
            )
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
