"""Occupations, second-order correlations, named matrix elements, and
entanglement of a steady state.

All second-order correlators here are equal-time quantities.  They reduce to
weighted sums over the diagonal populations because the relevant operator
strings (a^dag a^dag a a, b^dag b^dag b b, a^dag b^dag b a) are diagonal in
the Fock basis.

Correlations are reported as None (not zero) when the corresponding
occupation sits below G2_FLOOR: a g2 of an empty mode is 0/0, and emitting an
explicit undefined keeps sweep output honest in the undriven limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PairsimError
from .operators import HilbertSpace

__all__ = [
    "ObservableRecord",
    "G2_FLOOR",
    "SCALAR_KEYS",
    "ELEMENT_KEYS",
    "partial_trace_atom",
    "log_negativity",
    "named_elements",
    "compute_observables",
]

G2_FLOOR = 1e-12

# The scalar fields of ObservableRecord, in field (and output column) order.
SCALAR_KEYS = ("mean_n", "mean_m", "g2_n", "g2_m", "g2_nm", "log_neg")

ELEMENT_KEYS = (
    "rho11",
    "rho22",
    "rho33",
    "rho44",
    "rho55",
    "abs_rho14",
    "abs_rho15",
    "abs_rho25",
)

# The five reference states behind the rhoXX labels, as (s, n, m) triples:
# (g,0,0), (e,0,0), (g,0,1), (g,1,0), (g,1,1).
_NAMED_STATES = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))


@dataclass
class ObservableRecord:
    """Everything the sweep driver reports for one steady state."""

    mean_n: float
    mean_m: float
    g2_n: float | None
    g2_m: float | None
    g2_nm: float | None
    log_neg: float
    elements: dict[str, float] = field(default_factory=dict)


def _populations(rho: np.ndarray) -> np.ndarray:
    """The diagonal of rho as real populations; an imaginary residue on it
    marks an invalid state and raises."""
    diag = np.diag(rho)
    imag = float(np.abs(diag.imag).max()) if rho.size else 0.0
    if imag > 1e-10:
        raise PairsimError(f"diagonal of rho has imaginary residue {imag:.3e}")
    return diag.real


def _g2_auto(values: np.ndarray, pops: np.ndarray) -> float | None:
    """<o^dag o^dag o o> / <o^dag o>^2 of the mode whose Fock level in each
    basis state is `values`."""
    mean = float(values @ pops)
    if mean < G2_FLOOR:
        return None
    numerator = float((values * (values - 1.0)) @ pops)
    return numerator / mean**2


def _g2_cross(nvals: np.ndarray, mvals: np.ndarray, pops: np.ndarray) -> float | None:
    """Photon-phonon cross correlation <a^dag b^dag b a> / (<n><m>)."""
    mean_n = float(nvals @ pops)
    mean_m = float(mvals @ pops)
    if mean_n < G2_FLOOR or mean_m < G2_FLOOR:
        return None
    return float((nvals * mvals) @ pops) / (mean_n * mean_m)


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


def log_negativity(reduced: np.ndarray, space: HilbertSpace) -> float:
    """E_N = log2 of the trace norm of the partial transpose over the
    photon indices.

    The partial transpose of a Hermitian matrix is Hermitian, so the trace
    norm is the sum of absolute eigenvalues; a non-Hermitian input beyond
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
    herm_dev = float(np.abs(pt - pt.conj().T).max())
    if herm_dev > 1e-8:
        raise PairsimError(
            f"partial transpose deviates from Hermitian by {herm_dev:.3e}"
        )
    pt = 0.5 * (pt + pt.conj().T)
    trace_norm = float(np.abs(np.linalg.eigvalsh(pt)).sum())
    value = float(np.log2(trace_norm))
    if value < -1e-10:
        raise PairsimError(f"log negativity {value:.3e} below zero beyond tolerance")
    return max(value, 0.0)


def named_elements(rho: np.ndarray, space: HilbertSpace) -> dict[str, float]:
    """Populations of the five low-excitation reference states plus the
    moduli of the three coherences that track pair emission."""
    idx = [space.index(*state) for state in _NAMED_STATES]
    out = {f"rho{k + 1}{k + 1}": float(rho[i, i].real) for k, i in enumerate(idx)}
    out["abs_rho14"] = float(abs(rho[idx[0], idx[3]]))
    out["abs_rho15"] = float(abs(rho[idx[0], idx[4]]))
    out["abs_rho25"] = float(abs(rho[idx[1], idx[4]]))
    return out


def compute_observables(rho: np.ndarray, space: HilbertSpace) -> ObservableRecord:
    """Evaluate the full record reported by sweeps, reading the diagonal
    populations once."""
    reduced = partial_trace_atom(rho, space)
    pops = _populations(rho)
    nvals = space.photon_values().astype(float)
    mvals = space.phonon_values().astype(float)
    return ObservableRecord(
        mean_n=float(nvals @ pops),
        mean_m=float(mvals @ pops),
        g2_n=_g2_auto(nvals, pops),
        g2_m=_g2_auto(mvals, pops),
        g2_nm=_g2_cross(nvals, mvals, pops),
        log_neg=log_negativity(reduced, space),
        elements=named_elements(rho, space),
    )
