"""The analytic spectrum of the single-pair subspace.

Without drive, H couples |e,0,0> only to |g,1,1>, so the pair doublet and
its dressed vectors follow from a 2x2 block; the tests compare it with the
closed form Delta -/+ J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pairsim.model import SystemParams, build_hamiltonian
from pairsim.operators import HilbertSpace


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
