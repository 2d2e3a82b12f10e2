"""Operator algebra on the truncated atom + photon + phonon product space.

The composite basis ordering is a frozen contract used everywhere else in
the package: basis index i = s*(n_c+1)*(n_m+1) + n*(n_m+1) + m, where s is
the atom state (0 = ground, 1 = excited), n the photon Fock level and m the
phonon Fock level. Equivalently, composite operators are built as
kron(atom, kron(photon, phonon)) with the atom factor slowest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

__all__ = [
    "HilbertSpace",
    "annihilation",
    "sigma_minus",
    "embed",
    "atom_lowering",
    "photon_lowering",
    "phonon_lowering",
]


@dataclass(frozen=True)
class HilbertSpace:
    """Truncation of the composite Hilbert space.

    n_c and n_m are the highest retained Fock levels, so the photon mode
    keeps n_c + 1 states and the phonon mode n_m + 1.  The two-level atom
    contributes a factor of 2, giving dim = 2*(n_c+1)*(n_m+1).
    """

    n_c: int
    n_m: int

    def __post_init__(self) -> None:
        if self.n_c < 1 or self.n_m < 1:
            raise ConfigError(
                f"truncation must keep at least two Fock levels per mode, "
                f"got n_c={self.n_c}, n_m={self.n_m}"
            )

    @property
    def mode_dim(self) -> int:
        """Dimension of the photon*phonon factor."""
        return (self.n_c + 1) * (self.n_m + 1)

    @property
    def dim(self) -> int:
        return 2 * self.mode_dim

    def index(self, s: int, n: int, m: int) -> int:
        """Composite basis index of the product state |s, n, m>."""
        if not (0 <= s <= 1 and 0 <= n <= self.n_c and 0 <= m <= self.n_m):
            raise IndexError(f"state ({s}, {n}, {m}) outside truncation {self}")
        return (s * (self.n_c + 1) + n) * (self.n_m + 1) + m

    def label(self, i: int) -> tuple[int, int, int]:
        """Inverse of index(): (s, n, m) for a composite basis index."""
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} outside dimension {self.dim}")
        i, m = divmod(i, self.n_m + 1)
        s, n = divmod(i, self.n_c + 1)
        return s, n, m

    def photon_values(self) -> np.ndarray:
        """Photon Fock level of every composite basis state, in basis order."""
        return np.tile(np.repeat(np.arange(self.n_c + 1), self.n_m + 1), 2)

    def phonon_values(self) -> np.ndarray:
        """Phonon Fock level of every composite basis state, in basis order."""
        return np.tile(np.arange(self.n_m + 1), 2 * (self.n_c + 1))


def annihilation(levels: int) -> sp.csr_matrix:
    """Bosonic annihilation operator on a mode truncated at Fock level `levels`.

    The matrix has sqrt(1..levels) on the first superdiagonal.  Truncation
    means the commutator [a, a^dag] is the identity minus
    (levels+1) |levels><levels|, not the exact identity.
    """
    if levels < 1:
        raise ConfigError(f"need at least two Fock levels, got truncation {levels}")
    return sp.diags(
        np.sqrt(np.arange(1, levels + 1)), 1, format="csr", dtype=complex
    )


def sigma_minus() -> sp.csr_matrix:
    """Atomic lowering operator |g><e| in the (g, e) ordering."""
    return sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def embed(space: HilbertSpace, atom_op=None, photon_op=None, phonon_op=None) -> sp.csr_matrix:
    """Embed single-subsystem operators into the composite space.

    Missing factors default to identities.  The Kronecker order realizes the
    basis-index contract (atom slowest, phonon fastest).
    """
    factors = []
    for name, op, dim in (
        ("atom", atom_op, 2),
        ("photon", photon_op, space.n_c + 1),
        ("phonon", phonon_op, space.n_m + 1),
    ):
        if op is None:
            op = sp.identity(dim, dtype=complex, format="csr")
        elif op.shape != (dim, dim):
            raise ConfigError(f"{name} operator must be {dim}x{dim}, got {op.shape}")
        factors.append(op)
    a_op, c_op, m_op = factors
    return sp.kron(a_op, sp.kron(c_op, m_op, format="csr"), format="csr")


def atom_lowering(space: HilbertSpace) -> sp.csr_matrix:
    return embed(space, atom_op=sigma_minus())


def photon_lowering(space: HilbertSpace) -> sp.csr_matrix:
    return embed(space, photon_op=annihilation(space.n_c))


def phonon_lowering(space: HilbertSpace) -> sp.csr_matrix:
    return embed(space, phonon_op=annihilation(space.n_m))
