"""Hamiltonian and Liouvillian assembly for the driven pair-emission model.

A driven two-level atom converts its excitation into a photon-phonon pair
through the tripartite coupling J (sigma+ a b + sigma- a^dag b^dag).  In the
rotating frame used throughout, the atom and the photon mode both carry the
detuning Delta while the phonon mode carries none; that asymmetry is part of
the model definition, not an omission.

Rate-name convention (also deliberate): kappa is the decay rate of the atom,
gamma_c the photon loss rate, gamma_m the phonon loss rate.  The mechanical
bath may be thermal (m_th > 0), the optical and atomic baths are taken at
zero temperature.

Superoperators act on column-stacked density matrices: vec(A rho B) =
(B^T kron A) vec(rho).  This vectorization contract is frozen; mixing it
with the row-stacking convention silently transposes everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .operators import (
    HilbertSpace,
    atom_lowering,
    phonon_lowering,
    photon_lowering,
)

__all__ = [
    "SystemParams",
    "build_hamiltonian",
    "hamiltonian_superop",
    "lindblad_dissipator",
    "build_liouvillian",
    "sector_index",
    "SectorTerms",
    "vec",
    "unvec",
    "trace_functional",
]


@dataclass(frozen=True)
class SystemParams:
    """Model parameters, all in units of the atom decay rate unless the
    caller chooses otherwise (kappa=1 keeps that convention)."""

    delta: float = 0.0
    j_coupling: float = 0.0
    omega: float = 0.0
    kappa: float = 1.0
    gamma_c: float = 0.0
    gamma_m: float = 0.0
    m_th: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kappa", "gamma_c", "gamma_m", "m_th"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be nonnegative, got {value}")
        for name in ("delta", "j_coupling", "omega", "kappa", "gamma_c", "gamma_m", "m_th"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")

    def with_value(self, name: str, value: float) -> "SystemParams":
        """Copy with one field replaced (used by the sweep driver)."""
        if name not in self.__dataclass_fields__:
            raise ConfigError(f"unknown parameter {name!r}")
        return replace(self, **{name: value})

    @property
    def min_positive_rate(self) -> float:
        rates = [r for r in (self.kappa, self.gamma_c, self.gamma_m) if r > 0]
        if not rates:
            raise ConfigError("no positive damping rate; the dynamics has no relaxation scale")
        return min(rates)


def _operators(space: HilbertSpace) -> tuple[dict, dict]:
    """H's three Hermitian pieces, keyed by the parameter that weights them
    (delta, J, Omega), and the four jump operators, keyed by their names."""
    s_minus = atom_lowering(space)
    s_plus = s_minus.conj().T.tocsr()
    a = photon_lowering(space)
    b = phonon_lowering(space)
    pair = s_plus @ a @ b
    pieces = {"delta": s_plus @ s_minus + a.conj().T @ a, "J": pair + pair.conj().T,
              "Omega": s_plus + s_minus}
    jumps = {"sigma-": s_minus, "a": a, "b": b, "b^dag": b.conj().T}
    return pieces, jumps


def build_hamiltonian(params: SystemParams, space: HilbertSpace) -> sp.csr_matrix:
    """Rotating-frame Hamiltonian on the composite space.

    H = Delta sigma+ sigma- + Delta a^dag a
        + J (sigma+ a b + sigma- a^dag b^dag) + Omega (sigma+ + sigma-)
    """
    pieces, _ = _operators(space)
    return _combine(params, pieces.values(), space.dim)


def hamiltonian_superop(h: sp.spmatrix) -> sp.csr_matrix:
    """Coherent part -i [H, .] as a superoperator (column-stacking)."""
    dim = h.shape[0]
    eye = sp.identity(dim, dtype=complex, format="csr")
    return (-1j * (sp.kron(eye, h) - sp.kron(h.T, eye))).tocsr()


def lindblad_dissipator(op: sp.spmatrix, rate: float) -> sp.csr_matrix:
    """Superoperator for rate * (o rho o^dag - {o^dag o, rho} / 2)."""
    if rate < 0:
        raise ConfigError(f"dissipator rate must be nonnegative, got {rate}")
    op = sp.csr_matrix(op)
    dim = op.shape[0]
    eye = sp.identity(dim, dtype=complex, format="csr")
    odo = (op.conj().T @ op).tocsr()
    jump = sp.kron(op.conj(), op)
    anticomm = 0.5 * (sp.kron(eye, odo) + sp.kron(odo.T, eye))
    return (rate * (jump - anticomm)).tocsr()


def _generator_terms(space: HilbertSpace):
    """Yield (name, term) for the seven parameter-free pieces of L in the
    order of _coefficients: the delta, J and Omega commutators, then D[sigma-],
    D[a], D[b] and D[b^dag] at unit rate.  One at a time, so that a caller
    restricting them to the sector never holds all seven full terms."""
    pieces, jumps = _operators(space)
    for name, piece in pieces.items():
        yield f"the {name} commutator", hamiltonian_superop(piece)
    for name, op in jumps.items():
        yield f"D[{name}]", lindblad_dissipator(op, 1.0)


def _coefficients(params: SystemParams) -> tuple[float, ...]:
    """Weights of the _generator_terms in L; L is linear in these."""
    return (
        params.delta,
        params.j_coupling,
        params.omega,
        params.kappa,
        params.gamma_c,
        params.gamma_m * (params.m_th + 1.0),
        params.gamma_m * params.m_th,
    )


def _combine(params: SystemParams, terms, size: int) -> sp.csr_matrix:
    """sum_i c_i L_i, leaving out terms whose weight is zero so that
    switched-off channels add no entries, not even explicit zeros.  Serves
    the full-space build_hamiltonian and build_liouvillian."""
    lv = sp.csr_matrix((size, size), dtype=complex)
    for coeff, term in zip(_coefficients(params), terms):
        if coeff != 0:
            lv = lv + coeff * term
    return lv


def build_liouvillian(params: SystemParams, space: HilbertSpace) -> sp.csr_matrix:
    """Full generator of the master equation, as a sparse matrix acting on
    vectorized density matrices.

    L = -i[H, .] + kappa D[sigma-] + gamma_c D[a]
        + gamma_m (m_th + 1) D[b] + gamma_m m_th D[b^dag]

    The solvers work on the n - m sector (SectorTerms); this full operator
    serves the oracles and the tests.
    """
    terms = (term for _, term in _generator_terms(space))
    return _combine(params, terms, space.dim**2)


def sector_index(space: HilbertSpace) -> np.ndarray:
    """Column-stacked positions k = i + j*dim of the entries rho[i, j]
    whose ket and bra carry equal photon-minus-phonon number n - m.

    H conserves n - m and every jump operator shifts it by a fixed amount
    (sigma- by 0, a by -1, b by +1, b^dag by -1), so L maps this sector
    into itself: a weak U(1) symmetry.  The steady state, when unique, lives
    in it.
    """
    q = space.photon_values() - space.phonon_values()
    return np.flatnonzero(vec(q[:, None] == q[None, :]))


@dataclass(frozen=True, eq=False)
class SectorTerms:
    """The generator terms of one space restricted to its n - m sector.

    Built once per space, which it carries along so that terms and space
    cannot be mismatched.  The terms share one CSR pattern (indptr,
    indices), the union of their own; term i keeps values[i] and
    positions[i], where those values sit in the pattern.  L is linear in
    the parameters, so liouvillian(params) is one weighted fill of that
    fixed pattern.

    The sector is closed under transposition: partner[p] is the position of
    rho[j, i] when index[p] holds rho[i, j], so partner[p] > p below the
    diagonal (i > j) and partner[p] == p on it.  blocks groups the basis
    states by n - m; a state in the sector is block diagonal in them.
    """

    space: HilbertSpace
    index: np.ndarray
    partner: np.ndarray
    blocks: tuple[np.ndarray, ...]
    indptr: np.ndarray
    indices: np.ndarray
    positions: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, space: HilbertSpace) -> "SectorTerms":
        """Restrict each generator term to the sector.  A term that maps
        sector entries outside it raises ValueError: the solve would drop them."""
        index = sector_index(space)
        size = index.size
        keys, values = [], []
        for name, term in _generator_terms(space):
            columns = term[:, index]
            block = columns[index]
            leaking = columns.count_nonzero() - block.count_nonzero()
            if leaking:
                raise ValueError(f"{name} maps {leaking} entries out of the n - m sector")
            block.sum_duplicates()  # the fill needs each position once per term
            # row-major keys row * size + column: sorted, they are CSR order
            rows = np.repeat(np.arange(0, size * size, size), np.diff(block.indptr))
            keys.append(rows + block.indices)
            values.append(block.data)
        # free the last full-space term before the pattern is allocated
        # above it; a long-lived array there would keep the heap from shrinking
        del term, columns, block, rows
        pattern = np.unique(np.concatenate(keys))
        idx = np.int32 if max(size, pattern.size) < 2**31 else np.int64
        ket, bra = index % space.dim, index // space.dim
        q = space.photon_values() - space.phonon_values()
        order = np.argsort(q, kind="stable")
        return cls(
            space,
            index,
            partner=np.searchsorted(index, bra + ket * space.dim),
            blocks=tuple(np.split(order, np.flatnonzero(np.diff(q[order])) + 1)),
            indptr=np.searchsorted(pattern, np.arange(0, size * size + 1, size)).astype(idx),
            indices=(pattern % size).astype(idx),
            positions=tuple(np.searchsorted(pattern, k).astype(idx) for k in keys),
            values=tuple(values),
        )

    def liouvillian(self, params: SystemParams) -> sp.csr_matrix:
        """L restricted to the sector, for the given parameters.

        Term by term in _coefficients order, zero weights skipped: the
        arithmetic of _combine's sparse sums, so the matrix is the same bit
        for bit.  Like csr + csr, it drops exact zeros; an explicit zero
        would change the column order of the LU.
        """
        data = np.zeros(self.indices.size, dtype=complex)
        for coeff, pos, values in zip(_coefficients(params), self.positions, self.values):
            if coeff != 0:
                data[pos] += values * coeff
        size = self.index.size
        # copies, since eliminate_zeros prunes indices and indptr in place
        lv = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(size, size))
        lv.eliminate_zeros()
        return lv


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec()."""
    return np.asarray(v).reshape((dim, dim), order="F")


def trace_functional(dim: int) -> np.ndarray:
    """Row vector t with t @ vec(rho) = trace(rho)."""
    t = np.zeros(dim * dim, dtype=complex)
    t[np.arange(dim) * (dim + 1)] = 1.0
    return t
