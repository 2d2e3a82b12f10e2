"""Hamiltonian and Liouvillian construction tests.

The Hamiltonian check uses an independent dense construction written
directly from the matrix elements in the composite basis, so it would catch
an ordering or kron-convention mistake in the sparse builder.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from pairsim.errors import ConfigError
from pairsim.model import (
    SystemParams,
    build_hamiltonian,
    build_liouvillian,
    hamiltonian_superop,
    lindblad_dissipator,
    trace_functional,
    unvec,
    vec,
)
from pairsim.operators import HilbertSpace, annihilation, embed


def dense_hamiltonian(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """Elementwise Hamiltonian oracle, independent of the kron machinery."""
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(space.dim):
        s, n, m = space.label(i)
        h[i, i] = params.delta * (s + n)
        if s == 0 and n >= 1 and m >= 1:
            # <g, n, m| sigma- a^dag b^dag |e, n-1, m-1> = sqrt(n m)
            j = space.index(1, n - 1, m - 1)
            amp = params.j_coupling * np.sqrt(n * m)
            h[i, j] += amp
            h[j, i] += amp
        if s == 0:
            j = space.index(1, n, m)
            h[i, j] += params.omega
            h[j, i] += params.omega
    return h


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


CANONICAL = SystemParams(
    delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.0
)


def test_params_validation():
    with pytest.raises(ConfigError):
        SystemParams(delta=0, j_coupling=1, omega=1, gamma_c=-1, gamma_m=1, m_th=0)
    with pytest.raises(ConfigError):
        SystemParams(delta=0, j_coupling=1, omega=1, gamma_c=1, gamma_m=1, m_th=-0.5)
    with pytest.raises(ConfigError):
        SystemParams(
            delta=np.inf, j_coupling=1, omega=1, gamma_c=1, gamma_m=1, m_th=0
        )


def test_params_with_value():
    updated = CANONICAL.with_value("gamma_m", 2.5)
    assert updated.gamma_m == 2.5
    assert updated.delta == CANONICAL.delta
    with pytest.raises(ConfigError):
        CANONICAL.with_value("not_a_field", 1.0)


def test_hamiltonian_matches_elementwise_oracle():
    rng = np.random.default_rng(7)
    space = HilbertSpace(3, 4)
    for _ in range(6):
        params = SystemParams(
            delta=rng.uniform(-5, 5),
            j_coupling=rng.uniform(0, 5),
            omega=rng.uniform(0, 3),
            gamma_c=rng.uniform(0, 10),
            gamma_m=rng.uniform(0, 10),
            m_th=rng.uniform(0, 1),
        )
        h = np.asarray(build_hamiltonian(params, space).todense())
        assert_allclose(h, dense_hamiltonian(params, space), atol=1e-13)


def test_hamiltonian_is_hermitian():
    space = HilbertSpace(4, 3)
    h = np.asarray(build_hamiltonian(CANONICAL, space).todense())
    assert_allclose(h, h.conj().T, atol=0)


def test_hamiltonian_spot_elements():
    space = HilbertSpace(3, 3)
    params = SystemParams(
        delta=2.0, j_coupling=0.7, omega=0.3, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    h = np.asarray(build_hamiltonian(params, space).todense())
    # diagonal carries delta per excitation of atom and photon, none for phonon
    assert h[space.index(0, 0, 2), space.index(0, 0, 2)] == 0.0
    assert h[space.index(1, 0, 0), space.index(1, 0, 0)] == pytest.approx(2.0)
    assert h[space.index(0, 2, 1), space.index(0, 2, 1)] == pytest.approx(4.0)
    assert h[space.index(1, 2, 3), space.index(1, 2, 3)] == pytest.approx(6.0)
    # pair exchange amplitude J sqrt(n m)
    assert h[space.index(0, 1, 1), space.index(1, 0, 0)] == pytest.approx(0.7)
    assert h[space.index(0, 2, 3), space.index(1, 1, 2)] == pytest.approx(
        0.7 * np.sqrt(6.0)
    )
    # drive flips the atom without touching the modes
    assert h[space.index(0, 1, 2), space.index(1, 1, 2)] == pytest.approx(0.3)
    assert h[space.index(0, 1, 2), space.index(1, 2, 2)] == 0.0


def test_vec_unvec_roundtrip_column_order():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = vec(mat)
    # column stacking: first column first
    assert_allclose(v[:4], mat[:, 0])
    assert_allclose(unvec(v, 4), mat)


def test_hamiltonian_superop_reproduces_commutator():
    rng = np.random.default_rng(5)
    space = HilbertSpace(2, 2)
    h = build_hamiltonian(CANONICAL, space)
    h_dense = np.asarray(h.todense())
    superop = hamiltonian_superop(h)
    for _ in range(4):
        rho = random_density_matrix(rng, space.dim)
        out = unvec(superop @ vec(rho), space.dim)
        assert_allclose(out, -1j * (h_dense @ rho - rho @ h_dense), atol=1e-12)


def test_dissipator_reproduces_lindblad_form():
    rng = np.random.default_rng(9)
    dim = 6
    op = sp.csr_matrix(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    op_dense = np.asarray(op.todense())
    rate = 1.7
    dissipator = lindblad_dissipator(op, rate)
    for _ in range(4):
        rho = random_density_matrix(rng, dim)
        out = unvec(dissipator @ vec(rho), dim)
        anticomm = op_dense.conj().T @ op_dense @ rho + rho @ op_dense.conj().T @ op_dense
        expected = rate * (op_dense @ rho @ op_dense.conj().T - 0.5 * anticomm)
        assert_allclose(out, expected, atol=1e-12)


def test_dissipator_on_excited_atom():
    dissipator = lindblad_dissipator(sp.csr_matrix([[0.0, 1.0], [0.0, 0.0]]), 2.0)
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = unvec(dissipator @ vec(excited), 2)
    assert_allclose(out, 2.0 * np.diag([1.0, -1.0]), atol=1e-14)


def test_dissipator_rejects_negative_rate():
    with pytest.raises(ConfigError):
        lindblad_dissipator(annihilation(2), -0.1)


def test_liouvillian_preserves_trace():
    space = HilbertSpace(3, 3)
    lv = build_liouvillian(CANONICAL, space)
    left = trace_functional(space.dim)
    assert np.max(np.abs(left @ lv)) < 1e-12


def test_liouvillian_preserves_hermiticity():
    rng = np.random.default_rng(13)
    space = HilbertSpace(2, 3)
    params = SystemParams(
        delta=-1.2, j_coupling=3.0, omega=0.8, gamma_c=4.0, gamma_m=0.3, m_th=0.4
    )
    lv = build_liouvillian(params, space)
    for _ in range(4):
        rho = random_density_matrix(rng, space.dim)
        out = unvec(lv @ vec(rho), space.dim)
        assert_allclose(out, out.conj().T, atol=1e-12)
        assert abs(np.trace(out)) < 1e-12


def test_liouvillian_scale_covariance():
    # multiplying every rate-like parameter by 2 scales the generator exactly
    space = HilbertSpace(2, 2)
    base = SystemParams(
        delta=0.5, j_coupling=1.5, omega=0.25, gamma_c=2.0, gamma_m=0.5, m_th=0.3
    )
    doubled = SystemParams(
        delta=1.0,
        j_coupling=3.0,
        omega=0.5,
        kappa=2.0,
        gamma_c=4.0,
        gamma_m=1.0,
        m_th=0.3,
    )
    diff = build_liouvillian(doubled, space) - 2.0 * build_liouvillian(base, space)
    assert np.max(np.abs(diff.toarray())) == 0.0


def test_coherent_part_fixes_hamiltonian_eigenprojectors():
    space = HilbertSpace(2, 2)
    params = SystemParams(
        delta=1.3, j_coupling=0.9, omega=0.0, kappa=0.0, gamma_c=0.0, gamma_m=0.0,
        m_th=0.0,
    )
    lv = build_liouvillian(params, space)
    h = np.asarray(build_hamiltonian(params, space).todense())
    _, vecs = np.linalg.eigh(h)
    for k in (0, space.dim // 2, space.dim - 1):
        proj = np.outer(vecs[:, k], vecs[:, k].conj())
        assert np.max(np.abs(lv @ vec(proj))) < 1e-12


def test_zero_rate_terms_are_omitted():
    space = HilbertSpace(2, 2)
    params = SystemParams(
        delta=0.0, j_coupling=1.0, omega=0.5, gamma_c=0.0, gamma_m=1.0, m_th=0.0
    )
    lv = build_liouvillian(params, space)
    # no photon loss: the Liouvillian must not couple to the photon damping
    # channel at all, which shows up as exact trace preservation plus the
    # absence of any a-rho-adag type term; compare against manual assembly
    manual = hamiltonian_superop(build_hamiltonian(params, space))
    from pairsim.operators import atom_lowering, phonon_lowering

    manual = manual + lindblad_dissipator(atom_lowering(space), 1.0)
    manual = manual + lindblad_dissipator(phonon_lowering(space), 1.0)
    assert np.max(np.abs((lv - manual).toarray())) == 0.0
