"""Observable extraction tests on hand-built states with known values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairsim.errors import PairsimError
from pairsim.observables import (
    G2_FLOOR,
    compute_observables,
    log_negativity,
    named_elements,
    partial_trace_atom,
)
from pairsim.operators import HilbertSpace

SPACE = HilbertSpace(2, 2)


def ket(space: HilbertSpace, s: int, n: int, m: int) -> np.ndarray:
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(s, n, m)] = 1.0
    return v


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def diagonal_state(space: HilbertSpace, photon_pops, phonon_pops) -> np.ndarray:
    """Ground atom tensored with independent diagonal mode states."""
    atom = np.diag([1.0, 0.0]).astype(complex)
    return np.kron(atom, np.kron(np.diag(photon_pops), np.diag(phonon_pops))).astype(
        complex
    )


def test_vacuum_observables():
    rho = projector(ket(SPACE, 0, 0, 0))
    obs = compute_observables(rho, SPACE)
    assert obs.mean_n == 0.0
    assert obs.mean_m == 0.0
    assert obs.g2_n is None
    assert obs.g2_m is None
    assert obs.g2_nm is None
    assert obs.log_neg == 0.0
    assert obs.elements["rho11"] == 1.0
    assert obs.elements["rho55"] == 0.0


def test_single_photon_fock_state():
    rho = projector(ket(SPACE, 0, 1, 0))
    obs = compute_observables(rho, SPACE)
    assert obs.mean_n == pytest.approx(1.0)
    assert obs.g2_n == 0.0  # a Fock state has no two-photon component
    assert obs.mean_m == 0.0
    assert obs.g2_m is None
    assert obs.g2_nm is None


def test_g2_of_hand_computed_mixture():
    # phonon populations (0.7, 0.2, 0.1): <m> = 0.4, <m(m-1)> = 0.2
    rho = diagonal_state(SPACE, [1.0, 0.0, 0.0], [0.7, 0.2, 0.1])
    obs = compute_observables(rho, SPACE)
    assert obs.mean_m == pytest.approx(0.4)
    assert obs.g2_m == pytest.approx(0.2 / 0.16)


def test_cross_correlation_factorizes_for_product_states():
    rho = diagonal_state(SPACE, [0.5, 0.3, 0.2], [0.6, 0.3, 0.1])
    obs = compute_observables(rho, SPACE)
    assert obs.g2_nm == pytest.approx(1.0, abs=1e-14)
    assert obs.mean_n == pytest.approx(0.7)
    assert obs.mean_m == pytest.approx(0.5)


def test_cross_correlation_of_pair_mixture():
    # (1-p) vacuum + p |g,1,1>: <n> = <m> = p but <nm> = p, so g2_nm = 1/p
    p = 0.2
    rho = (1 - p) * projector(ket(SPACE, 0, 0, 0)) + p * projector(ket(SPACE, 0, 1, 1))
    obs = compute_observables(rho, SPACE)
    assert obs.mean_n == pytest.approx(p)
    assert obs.mean_m == pytest.approx(p)
    assert obs.g2_nm == pytest.approx(1.0 / p)
    assert obs.g2_n == 0.0
    assert obs.elements["rho11"] == pytest.approx(1 - p)
    assert obs.elements["rho55"] == pytest.approx(p)


def test_correlations_undefined_below_floor():
    def pair_weight(p):
        return (1 - p) * projector(ket(SPACE, 0, 0, 0)) + p * projector(ket(SPACE, 0, 1, 1))

    assert G2_FLOOR == 1e-12
    obs = compute_observables(pair_weight(1e-14), SPACE)
    assert obs.g2_n is None
    assert obs.g2_nm is None
    # an occupation above the fixed floor makes them defined
    obs = compute_observables(pair_weight(1e-10), SPACE)
    assert obs.g2_n is not None
    assert obs.g2_nm is not None


def test_observables_reject_a_complex_diagonal():
    rho = projector(ket(SPACE, 0, 0, 0))
    rho[1, 1] = 1e-3j
    with pytest.raises(PairsimError, match="imaginary residue"):
        compute_observables(rho, SPACE)


def test_partial_trace_recovers_mode_factor():
    rng = np.random.default_rng(17)
    d = SPACE.mode_dim
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    modes = mat @ mat.conj().T
    modes /= np.trace(modes).real
    for atom_pops in ([1.0, 0.0], [0.25, 0.75]):
        rho = np.kron(np.diag(atom_pops), modes)
        assert_allclose(partial_trace_atom(rho, SPACE), modes, atol=1e-14)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(23)
    mat = rng.standard_normal((SPACE.dim, SPACE.dim)) + 1j * rng.standard_normal(
        (SPACE.dim, SPACE.dim)
    )
    rho = mat @ mat.conj().T
    rho /= np.trace(rho).real
    reduced = partial_trace_atom(rho, SPACE)
    assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)
    assert_allclose(reduced, reduced.conj().T, atol=1e-14)


def test_log_negativity_of_pair_bell_state():
    # (|0,0> + |1,1>)/sqrt(2) across photon and phonon carries exactly one
    # bit of entanglement
    psi = (ket(SPACE, 0, 0, 0) + ket(SPACE, 0, 1, 1)) / np.sqrt(2.0)
    rho = projector(psi)
    obs = compute_observables(rho, SPACE)
    assert obs.log_neg == pytest.approx(1.0, abs=1e-12)
    # mixing the atom without touching the modes must not change it
    psi_e = (ket(SPACE, 1, 0, 0) + ket(SPACE, 1, 1, 1)) / np.sqrt(2.0)
    mixed = 0.5 * rho + 0.5 * projector(psi_e)
    assert compute_observables(mixed, SPACE).log_neg == pytest.approx(1.0, abs=1e-12)


def test_log_negativity_vanishes_for_product_states():
    rng = np.random.default_rng(29)
    for _ in range(4):
        pc = rng.random(SPACE.n_c + 1)
        pm = rng.random(SPACE.n_m + 1)
        rho = diagonal_state(SPACE, pc / pc.sum(), pm / pm.sum())
        assert compute_observables(rho, SPACE).log_neg <= 1e-10


def test_log_negativity_same_for_either_transposed_party():
    # transposing the photon or the phonon indices gives the same trace norm
    psi = (ket(SPACE, 0, 0, 0) + ket(SPACE, 0, 1, 1)) / np.sqrt(2.0)
    rho = 0.7 * projector(psi) + 0.3 * projector(ket(SPACE, 0, 1, 0))
    reduced = partial_trace_atom(rho, SPACE)
    nc1, nm1 = SPACE.n_c + 1, SPACE.n_m + 1
    d = SPACE.mode_dim
    pt_phonon = (
        reduced.reshape(nc1, nm1, nc1, nm1).transpose(0, 3, 2, 1).reshape(d, d)
    )
    norm_phonon = float(np.abs(np.linalg.eigvalsh(pt_phonon)).sum())
    assert log_negativity(reduced, SPACE) == pytest.approx(
        np.log2(norm_phonon), abs=1e-12
    )


def test_log_negativity_rejects_nonhermitian_input():
    d = SPACE.mode_dim
    reduced = np.zeros((d, d), dtype=complex)
    reduced[0, 1] = 1.0
    with pytest.raises(PairsimError):
        log_negativity(reduced, SPACE)


def test_log_negativity_rejects_wrong_shape():
    with pytest.raises(ValueError):
        log_negativity(np.eye(4, dtype=complex), SPACE)


def test_named_elements_read_the_right_entries():
    space = HilbertSpace(3, 3)
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    states = {
        "rho11": (0, 0, 0),
        "rho22": (1, 0, 0),
        "rho33": (0, 0, 1),
        "rho44": (0, 1, 0),
        "rho55": (0, 1, 1),
    }
    pops = {"rho11": 0.3, "rho22": 0.2, "rho33": 0.25, "rho44": 0.15, "rho55": 0.1}
    for key, (s, n, m) in states.items():
        i = space.index(s, n, m)
        rho[i, i] = pops[key]
    i11 = space.index(0, 0, 0)
    i22 = space.index(1, 0, 0)
    i44 = space.index(0, 1, 0)
    i55 = space.index(0, 1, 1)
    rho[i11, i44] = 0.01 - 0.02j
    rho[i44, i11] = 0.01 + 0.02j
    rho[i11, i55] = 0.03j
    rho[i55, i11] = -0.03j
    rho[i22, i55] = -0.04
    rho[i55, i22] = -0.04

    elements = named_elements(rho, space)
    for key, value in pops.items():
        assert elements[key] == pytest.approx(value)
    assert elements["abs_rho14"] == pytest.approx(abs(0.01 - 0.02j))
    assert elements["abs_rho15"] == pytest.approx(0.03)
    assert elements["abs_rho25"] == pytest.approx(0.04)
