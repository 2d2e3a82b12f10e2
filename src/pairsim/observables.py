"""Occupations, second-order correlations, named matrix elements, and
entanglement of a steady state.

The state is the sector vector x that the solver returns (steady.py): rho
is zero outside the n - m sector, and everything here, the log negativity
included, is read off x at sector positions.  Nothing larger than the
sector is made: no dim x dim state, and no photon-phonon state either.

All second-order correlators here are equal-time quantities.  They reduce to
weighted sums over the diagonal populations because the relevant operator
strings (a^dag a^dag a a, b^dag b^dag b b, a^dag b^dag b a) are diagonal in
the Fock basis.

Correlations are reported as None (not zero) when an occupation they divide
by sits below G2_FLOOR: a g2 of an empty mode is 0/0, and emitting an
explicit undefined keeps sweep output honest in the undriven limit.

ObservableRecord.columns() is the one list of the 14 reported columns, in
CSV order: the CSV, the truncation check, `pairsim check` and `pairsim
point` all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PairsimError
from .model import SectorTerms

__all__ = [
    "ObservableRecord",
    "G2_FLOOR",
    "SCALAR_KEYS",
    "ELEMENT_KEYS",
    "log_negativity",
    "compute_observables",
]

G2_FLOOR = 1e-12

# The scalar fields of ObservableRecord, in field order; ObservableRecord.columns()
# gives them, then the ELEMENT_KEYS, as the reported columns.
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

    def columns(self) -> dict[str, float | None]:
        """The 14 reported columns by name, in output order: SCALAR_KEYS,
        then ELEMENT_KEYS."""
        return {
            **{key: getattr(self, key) for key in SCALAR_KEYS},
            **{key: self.elements[key] for key in ELEMENT_KEYS},
        }


def _g2(weights: np.ndarray, pops: np.ndarray, mean_a: float, mean_b: float) -> float | None:
    """<weights> / (mean_a mean_b) over the populations pops, or None when
    either mean is below G2_FLOOR (a NaN mean is not, and gives NaN)."""
    if mean_a < G2_FLOOR or mean_b < G2_FLOOR:
        return None
    return float(weights @ pops) / (mean_a * mean_b)


def log_negativity(x: np.ndarray, terms: SectorTerms) -> float:
    """E_N = log2 of the trace norm of the partial transpose over the
    photon indices of the atom-traced state x on terms, normalized to unit
    trace.

    The atom's two diagonal blocks of rho hold the same n - m pattern in
    the same order, so tracing out the atom adds the excited block's
    entries onto the ground block's.  The reduced state couples only kets
    and bras that share n - m, and the photon transpose takes its entry at
    (n, m), (n', m') to (n', m), (n, m'), so the partial transpose is block
    diagonal in n + m: the entry lands in block s = n' + m, at row n' - low
    and column n - low, low = max(0, s - n_m).  Every block entry is a
    sector entry, so the blocks are read straight off x and nothing larger
    than the sector or the stacked blocks is made.  They are Hermitian, so
    the trace norm is the trace plus 2 N, N the sum of the moduli of their
    negative eigenvalues, found in one stacked eigvalsh.  E_N = log2(1 + 2 N
    / trace) is taken by log1p: log2 of a trace norm near 1 would lose the
    relative digits of a small E_N.  Blocks that are not Hermitian beyond
    tolerance indicate an upstream bug and raise.
    """
    space = terms.space
    n_c, n_m, d = space.n_c, space.n_m, space.mode_dim
    bra, ket = np.divmod(terms.index, space.dim)
    ground, excited = (ket < d) & (bra < d), (ket >= d) & (bra >= d)
    values = x[ground] + x[excited]
    ket, bra = ket[ground], bra[ground]
    (n, m), n2 = np.divmod(ket, n_m + 1), bra // (n_m + 1)
    s = n2 + m
    low = np.maximum(s - n_m, 0)
    # a unit diagonal pads each block to the longest, so that one eigvalsh
    # takes them all, and adds only positive eigenvalues; every entry inside
    # a block is written, its diagonal included
    blocks = np.tile(np.eye(min(n_c, n_m) + 1, dtype=complex), (n_c + n_m + 1, 1, 1))
    blocks[s, n2 - low, n - low] = values
    herm_dev = float(np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max())
    if herm_dev > 1e-8:
        raise PairsimError(f"partial transpose deviates from Hermitian by {herm_dev:.3e}")
    eigenvalues = np.linalg.eigvalsh(blocks)
    negative = float(np.abs(eigenvalues[eigenvalues < 0.0]).sum())
    trace = float(values[ket == bra].sum().real)
    return math.log1p(2.0 * negative / trace) / math.log(2.0)


def _elements(x: np.ndarray, terms: SectorTerms, pops: np.ndarray) -> dict[str, float]:
    """Populations of the five low-excitation reference states plus the
    moduli of the three coherences that track pair emission.  A coherence
    outside the sector is zero by symmetry: abs_rho14's ket |g,0,0> has
    n - m = 0 and its bra |g,1,0> has n - m = 1."""
    space, index = terms.space, terms.index
    idx = [space.index(*state) for state in _NAMED_STATES]
    out = {f"rho{k + 1}{k + 1}": float(pops[i]) for k, i in enumerate(idx)}
    for name, ket, bra in (("abs_rho14", 0, 3), ("abs_rho15", 0, 4), ("abs_rho25", 1, 4)):
        k = idx[ket] + idx[bra] * space.dim
        p = int(index.searchsorted(k))
        out[name] = float(abs(x[p])) if p < index.size and index[p] == k else 0.0
    return out


def compute_observables(x: np.ndarray, terms: SectorTerms) -> ObservableRecord:
    """Evaluate the full record reported by sweeps from the sector state x
    on terms, with no array larger than the sector.  The populations are
    the diagonal entries (terms.diagonal), in basis order."""
    space = terms.space
    pops = x[terms.diagonal].real
    nvals = space.photon_values().astype(float)
    mvals = space.phonon_values().astype(float)
    mean_n, mean_m = float(nvals @ pops), float(mvals @ pops)
    return ObservableRecord(
        mean_n=mean_n,
        mean_m=mean_m,
        g2_n=_g2(nvals * (nvals - 1.0), pops, mean_n, mean_n),
        g2_m=_g2(mvals * (mvals - 1.0), pops, mean_m, mean_m),
        g2_nm=_g2(nvals * mvals, pops, mean_n, mean_m),
        log_neg=log_negativity(x, terms),
        elements=_elements(x, terms, pops),
    )
