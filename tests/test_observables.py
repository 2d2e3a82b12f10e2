"""Observable extraction tests on hand-built states with known values, and
the sector reduction held to the dense one on solved states."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import dense_observables, named_elements, partial_trace_atom, sector_state
import pairsim
from pairsim.errors import PairsimError
from pairsim.model import SectorTerms
from pairsim.observables import G2_FLOOR, compute_observables, log_negativity
from pairsim.operators import HilbertSpace
from pairsim.steady import solve_steady
from pairsim.sweep import load_config

SPACE = HilbertSpace(2, 2)
TERMS = SectorTerms.build(SPACE)
CONFIGS = Path(pairsim.__file__).parent / "configs"


def observe(rho: np.ndarray, terms: SectorTerms = TERMS):
    """compute_observables of a dense state that lies in the sector."""
    return compute_observables(sector_state(rho, terms), terms)


def negativity(rho: np.ndarray, terms: SectorTerms = TERMS) -> float:
    """log_negativity of a dense state that lies in the sector."""
    return log_negativity(sector_state(rho, terms), terms)


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
    obs = observe(rho)
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
    obs = observe(rho)
    assert obs.mean_n == pytest.approx(1.0)
    assert obs.g2_n == 0.0  # a Fock state has no two-photon component
    assert obs.mean_m == 0.0
    assert obs.g2_m is None
    assert obs.g2_nm is None


def test_single_phonon_fock_state():
    # an empty photon mode beside an occupied phonon mode: g2_nm's first
    # mean is the one below the floor
    rho = projector(ket(SPACE, 0, 0, 1))
    obs = observe(rho)
    assert obs.mean_m == pytest.approx(1.0)
    assert obs.g2_m == 0.0  # a Fock state has no two-phonon component
    assert obs.mean_n == 0.0
    assert obs.g2_n is None
    assert obs.g2_nm is None


def test_g2_of_hand_computed_mixture():
    # phonon populations (0.7, 0.2, 0.1): <m> = 0.4, <m(m-1)> = 0.2
    rho = diagonal_state(SPACE, [1.0, 0.0, 0.0], [0.7, 0.2, 0.1])
    obs = observe(rho)
    assert obs.mean_m == pytest.approx(0.4)
    assert obs.g2_m == pytest.approx(0.2 / 0.16)


def test_cross_correlation_factorizes_for_product_states():
    rho = diagonal_state(SPACE, [0.5, 0.3, 0.2], [0.6, 0.3, 0.1])
    obs = observe(rho)
    assert obs.g2_nm == pytest.approx(1.0, abs=1e-14)
    assert obs.mean_n == pytest.approx(0.7)
    assert obs.mean_m == pytest.approx(0.5)


def test_cross_correlation_of_pair_mixture():
    # (1-p) vacuum + p |g,1,1>: <n> = <m> = p but <nm> = p, so g2_nm = 1/p
    p = 0.2
    rho = (1 - p) * projector(ket(SPACE, 0, 0, 0)) + p * projector(ket(SPACE, 0, 1, 1))
    obs = observe(rho)
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
    obs = observe(pair_weight(1e-14))
    assert obs.g2_n is None
    assert obs.g2_nm is None
    # an occupation above the fixed floor makes them defined
    obs = observe(pair_weight(1e-10))
    assert obs.g2_n is not None
    assert obs.g2_nm is not None


def test_solved_populations_are_exactly_real(request):
    # a diagonal entry is its own partner, so Hermitizing it, 0.5 (x +
    # conj x), leaves no imaginary part to test for, on the complex path
    # and on the real one
    params = load_config(str(CONFIGS / "fig7.yaml")).params_at(1.0)
    terms = SectorTerms.build(HilbertSpace(3, 4))
    diagonal = terms.partner == np.arange(terms.index.size)
    for real in (False, True):
        if real:
            request.getfixturevalue("real_path")
        x, report = solve_steady(params, terms)
        assert (report.refine_steps > 0) == real
        assert np.count_nonzero(x[diagonal].imag) == 0, real


# the truncations of fig2_weak's, fig6's and fig7's rows and of the first
# two's checks, each at the first, middle and last point of its grid; and
# two whose n + m blocks of the log negativity pad otherwise: one with
# n_c > n_m, and the smallest space
@pytest.mark.parametrize(
    "name, levels",
    [("fig2_weak", (5, 5)), ("fig2_weak", (10, 10)), ("fig6", (6, 8)), ("fig6", (12, 16)),
     ("fig7", (6, 14)), ("fig7", (7, 2)), ("fig2_weak", (1, 1))],
)
def test_sector_reduction_equals_the_dense_one(name, levels):
    config = load_config(str(CONFIGS / f"{name}.yaml"))
    terms = SectorTerms.build(HilbertSpace(*levels))
    values = config.axis_values
    for value in (values[0], values[len(values) // 2], values[-1]):
        x, _ = solve_steady(config.params_at(value), terms)
        assert x.shape == terms.index.shape
        rho = terms.density_matrix(x)
        assert compute_observables(x, terms) == dense_observables(rho, terms.space), value


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
    assert negativity(rho) == pytest.approx(1.0, abs=1e-12)
    # mixing the atom without touching the modes must not change it
    psi_e = (ket(SPACE, 1, 0, 0) + ket(SPACE, 1, 1, 1)) / np.sqrt(2.0)
    mixed = 0.5 * rho + 0.5 * projector(psi_e)
    assert negativity(mixed) == pytest.approx(1.0, abs=1e-12)


def test_log_negativity_of_a_weak_pair_coherence_keeps_its_digits():
    # populations 1 - p and p on |0,0> and |1,1>, coherence c between them:
    # the partial transpose has eigenvalues +-c on |1,0>, |0,1>, so
    # E_N = log2(1 + 2c) exactly; log2 of the trace norm 1 + 2e-7 is
    # 5.3e-10 off
    p, c = 1e-6, 1e-7
    rho = (1 - p) * projector(ket(SPACE, 0, 0, 0)) + p * projector(ket(SPACE, 0, 1, 1))
    i, j = SPACE.index(0, 0, 0), SPACE.index(0, 1, 1)
    rho[i, j] = rho[j, i] = c
    value = negativity(rho)
    assert value == pytest.approx(np.log1p(2 * c) / np.log(2), rel=1e-14, abs=0)


def test_log_negativity_vanishes_for_product_states():
    rng = np.random.default_rng(29)
    for _ in range(4):
        pc = rng.random(SPACE.n_c + 1)
        pm = rng.random(SPACE.n_m + 1)
        rho = diagonal_state(SPACE, pc / pc.sum(), pm / pm.sum())
        assert negativity(rho) <= 1e-10


def test_log_negativity_same_for_either_transposed_party():
    # transposing the photon or the phonon indices gives the same trace norm
    psi = (ket(SPACE, 0, 0, 0) + ket(SPACE, 0, 1, 1)) / np.sqrt(2.0)
    rho = 0.7 * projector(psi) + 0.3 * projector(ket(SPACE, 0, 1, 0))
    x = sector_state(rho, TERMS)
    reduced = partial_trace_atom(TERMS.density_matrix(x), SPACE)
    nc1, nm1 = SPACE.n_c + 1, SPACE.n_m + 1
    d = SPACE.mode_dim
    pt_phonon = (
        reduced.reshape(nc1, nm1, nc1, nm1).transpose(0, 3, 2, 1).reshape(d, d)
    )
    norm_phonon = float(np.abs(np.linalg.eigvalsh(pt_phonon)).sum())
    assert log_negativity(x, TERMS) == pytest.approx(np.log2(norm_phonon), abs=1e-12)


def test_log_negativity_rejects_nonhermitian_input():
    # the coherence <g,0,0|rho|g,1,1> without its mirror entry: it lands in
    # the partial transpose's n + m = 1 block, which is then not Hermitian
    rho = np.diag(np.full(SPACE.dim, 1.0 / SPACE.dim)).astype(complex)
    rho[SPACE.index(0, 0, 0), SPACE.index(0, 1, 1)] = 0.01
    x = sector_state(rho, TERMS)
    assert np.count_nonzero(x != x[TERMS.partner].conj()) == 2
    with pytest.raises(PairsimError, match="Hermitian"):
        log_negativity(x, TERMS)


def test_named_elements_read_the_right_entries():
    # the coherences a sector state can hold; abs_rho14's cannot be set
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
    i55 = space.index(0, 1, 1)
    rho[i11, i55] = 0.03j
    rho[i55, i11] = -0.03j
    rho[i22, i55] = -0.04
    rho[i55, i22] = -0.04

    terms = SectorTerms.build(space)
    elements = observe(rho, terms).elements
    assert elements == named_elements(rho, space)
    for key, value in pops.items():
        assert elements[key] == pytest.approx(value)
    assert elements["abs_rho14"] == 0.0
    assert elements["abs_rho15"] == pytest.approx(0.03)
    assert elements["abs_rho25"] == pytest.approx(0.04)


def test_abs_rho14_is_zero_by_symmetry(sweep_results):
    # |<g,0,0|rho|g,1,0>|: its ket has n - m = 0 and its bra n - m = 1, so
    # no sector position holds it and every solved row reports exactly 0
    space = HilbertSpace(3, 3)
    ket, bra = space.index(0, 0, 0), space.index(0, 1, 0)
    assert ket + bra * space.dim not in SectorTerms.build(space).index
    for name in ("fig2_weak", "fig7"):
        config = load_config(str(CONFIGS / f"{name}.yaml"))
        rows = sweep_results[name].rows
        assert len(rows) == len(config.axis_values), name
        assert all(row.record.elements["abs_rho14"] == 0.0 for row in rows), name
