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
from dataclasses import dataclass, field, fields, replace

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


def _nonnegative(default: float = 0.0):
    """A SystemParams field that must not be negative: a rate or an occupation."""
    return field(default=default, metadata={"nonnegative": True})


@dataclass(frozen=True)
class SystemParams:
    """Model parameters, all in units of the atom decay rate unless the
    caller chooses otherwise (kappa=1 keeps that convention).

    The fields are the one list of the model's parameters: the sweep
    config's params keys and the `pairsim point` flags are read off them."""

    delta: float = 0.0
    j_coupling: float = 0.0
    omega: float = 0.0
    kappa: float = _nonnegative(1.0)
    gamma_c: float = _nonnegative()
    gamma_m: float = _nonnegative()
    m_th: float = _nonnegative()

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata.get("nonnegative") and value < 0:
                raise ConfigError(f"{f.name} must be nonnegative, got {value}")
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")

    def with_value(self, name: str, value: float) -> "SystemParams":
        """Copy with one field replaced (used by the sweep driver)."""
        if name not in self.__dataclass_fields__:
            raise ConfigError(f"unknown parameter {name!r}")
        return replace(self, **{name: value})


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
    """Yield (name, term) for the seven parameter-free pieces of L on the
    full space, in the order of _coefficients: the delta, J and Omega
    commutators, then D[sigma-], D[a], D[b] and D[b^dag] at unit rate.  One
    at a time, so that build_liouvillian never holds all seven."""
    pieces, jumps = _operators(space)
    for name, piece in pieces.items():
        yield f"the {name} commutator", hamiltonian_superop(piece)
    for name, op in jumps.items():
        yield f"D[{name}]", lindblad_dissipator(op, 1.0)


def _generator_products(space: HilbertSpace):
    """Yield (name, products) for the same seven pieces in the same order,
    each as the (weight, A, B) of its sum of weight * A rho B:
    -i[H, rho] = -i H rho + i rho H and
    D[o] rho = o rho o^dag - o^dag o rho / 2 - rho o^dag o / 2."""
    pieces, jumps = _operators(space)
    eye = sp.identity(space.dim, dtype=complex, format="csr")
    for name, piece in pieces.items():
        yield f"the {name} commutator", [(-1j, piece, eye), (1j, eye, piece)]
    for name, op in jumps.items():
        odo = (op.conj().T @ op).tocsr()
        yield f"D[{name}]", [(1.0, op, op.conj().T), (-0.5, odo, eye), (-0.5, eye, odo)]


def _coefficients(params: SystemParams) -> tuple[float, ...]:
    """Weights of the _generator_terms (and _generator_products) in L; L is
    linear in these."""
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


def _sector_entries(weight: complex, a: sp.spmatrix, b: sp.spmatrix, index: np.ndarray, dim: int):
    """The entries of weight * A rho B in the columns of the sector `index`.

    rho[i, j] (column p, index[p] = i + j*dim) feeds rho'[i', j'] with
    weight * (B[j, j'] * A[i', i]) for every stored A[i', i] and B[j, j'],
    the product kron(B^T, A) forms.  Returns the column-stacked rows
    i' + j'*dim, the sector columns p and the values, column by column.
    """
    a, b = sp.csc_matrix(a), sp.csr_matrix(b)
    ket, bra = index % dim, index // dim
    per_a, per_b = np.diff(a.indptr)[ket], np.diff(b.indptr)[bra]
    count = per_a * per_b
    columns = np.repeat(np.arange(index.size), count)
    # step s of column p takes A's entry s // per_b and B's entry s % per_b
    step = np.arange(columns.size) - np.repeat(np.cumsum(count) - count, count)
    stride = per_b[columns]
    in_a = a.indptr[ket][columns] + step // stride
    in_b = b.indptr[bra][columns] + step % stride
    rows = a.indices[in_a] + b.indices[in_b].astype(index.dtype) * dim
    return rows, columns, weight * (b.data[in_b] * a.data[in_a])


def _nonzero_sums(rows: np.ndarray, columns: np.ndarray, values: np.ndarray, width: int) -> int:
    """How many distinct (row, column) pairs have a nonzero sum of values."""
    kept, slot = np.unique(rows, return_inverse=True)
    sums = sp.csr_matrix((values, (slot, columns)), shape=(kept.size, width))
    return sums.count_nonzero()


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
    diagonal (i > j) and partner[p] == p on it.  levels groups the sector
    positions by the q = n - m that rho[i, j]'s ket and bra share, q
    ascending: level q is the block of rho on the basis states with n - m =
    q, column-stacked, and a state in the sector is zero outside these
    blocks.  H conserves q, sigma- keeps it, and a, b and b^dag move ket
    and bra together by one, so L couples each level only to itself and its
    two neighbours: ordered by level, L is block tridiagonal.
    """

    space: HilbertSpace
    index: np.ndarray
    partner: np.ndarray
    levels: tuple[np.ndarray, ...]
    indptr: np.ndarray
    indices: np.ndarray
    positions: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, space: HilbertSpace) -> "SectorTerms":
        """Restrict each generator term to the sector, straight from its
        _generator_products: only the sector columns of each A rho B are
        listed, and their rows are found in index by binary search, so no
        full-space term is formed.  A term that maps sector entries outside
        it raises ValueError: the solve would drop them."""
        index = sector_index(space)
        size = index.size
        keys, values = [], []
        for name, products in _generator_products(space):
            parts = zip(*(_sector_entries(*product, index, space.dim) for product in products))
            rows, columns, entries = (np.concatenate(part) for part in parts)
            found = np.searchsorted(index, rows)
            inside = index[np.minimum(found, size - 1)] == rows
            outside = ~inside
            leaking = _nonzero_sums(rows[outside], columns[outside], entries[outside], size)
            if leaking:
                raise ValueError(f"{name} maps {leaking} entries out of the n - m sector")
            # the constructor sums duplicates, as the fill needs each position
            # once per term; a sum that cancels (on the delta commutator's
            # diagonal) is dropped, as sparse sums of the full terms drop it
            block = sp.csr_matrix(
                (entries[inside], (found[inside], columns[inside])), shape=(size, size)
            )
            block.eliminate_zeros()
            # row-major keys row * size + column: sorted, they are CSR order
            rows = np.repeat(np.arange(0, size * size, size), np.diff(block.indptr))
            keys.append(rows + block.indices)
            values.append(block.data)
        # sorted, then deduplicated by a mask: np.unique hashes, and on a
        # 2-vCPU machine took 30 of the 80 ms of a (12, 16) build, this 1.4 ms
        pattern = np.sort(np.concatenate(keys))
        pattern = pattern[np.concatenate(([True], pattern[1:] != pattern[:-1]))]
        idx = np.int32 if max(size, pattern.size) < 2**31 else np.int64
        ket, bra = index % space.dim, index // space.dim
        level = (space.photon_values() - space.phonon_values())[ket]
        by_level = np.argsort(level, kind="stable")  # positions ascending in a level
        return cls(
            space,
            index,
            partner=np.searchsorted(index, bra + ket * space.dim),
            levels=tuple(np.split(by_level, np.flatnonzero(np.diff(level[by_level])) + 1)),
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
