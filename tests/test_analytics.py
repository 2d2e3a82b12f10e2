"""Tests for the closed-form estimates, the pair-sector spectrum, and the
sweep post-processing helpers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairsim.analytics import (
    equal_damping_residual,
    in_weak_excitation_regime,
    manifold_leakage,
    pair_subspace_spectrum,
    resonance_locator,
    weak_excitation_estimate,
)
from pairsim.errors import InvalidSweepError
from pairsim.model import SectorTerms, SystemParams, build_hamiltonian
from pairsim.observables import ObservableRecord
from pairsim.operators import HilbertSpace
from pairsim.sweep import solve_point


def make_elements(**overrides) -> dict[str, float]:
    base = {key: 0.0 for key in
            ("rho11", "rho22", "rho33", "rho44", "rho55",
             "abs_rho14", "abs_rho15", "abs_rho25")}
    base["rho11"] = 1.0 - sum(overrides.get(k, 0.0) for k in
                              ("rho22", "rho33", "rho44", "rho55"))
    base.update(overrides)
    return base


def make_record(mean_n=0.0, mean_m=0.0, g2_nm=None, elements=None) -> ObservableRecord:
    return ObservableRecord(
        mean_n=mean_n,
        mean_m=mean_m,
        g2_n=None,
        g2_m=None,
        g2_nm=g2_nm,
        log_neg=0.0,
        elements=elements or make_elements(),
    )


def test_estimates_from_symmetric_populations():
    p = 0.001
    est = weak_excitation_estimate(make_elements(rho33=p, rho44=p, rho55=p))
    assert est.est_mean_n == pytest.approx(2 * p)
    assert est.est_mean_m == pytest.approx(2 * p)
    assert est.est_g2_nm == pytest.approx(1.0 / (4 * p))
    assert est.valid


def test_estimate_handles_empty_modes_and_threshold():
    est = weak_excitation_estimate(make_elements())
    assert est.est_g2_nm is None
    assert est.valid
    est = weak_excitation_estimate(make_elements(rho44=0.02))
    assert not est.valid


def test_estimates_converge_as_the_drive_weakens():
    # the population-based estimates carry O(Omega^2) corrections, so their
    # relative error must fall as the drive is turned down
    terms = SectorTerms.build(HilbertSpace(4, 4))
    errors_n = []
    errors_g2 = []
    for omega in (2.0, 1.0, 0.5, 0.25):
        params = SystemParams(
            delta=0.1, j_coupling=0.1, omega=omega,
            gamma_c=10.0, gamma_m=10.0, m_th=0.0,
        )
        obs, _ = solve_point(params, terms)
        est = weak_excitation_estimate(obs.elements)
        errors_n.append(abs(est.est_mean_n / obs.mean_n - 1.0))
        errors_g2.append(abs(est.est_g2_nm / obs.g2_nm - 1.0))
    assert all(a > b for a, b in zip(errors_n, errors_n[1:]))
    assert all(a > b for a, b in zip(errors_g2, errors_g2[1:]))
    assert errors_n[-1] < 0.01
    assert errors_g2[-1] < 0.01


def test_pair_doublet_levels():
    space = HilbertSpace(3, 3)
    params = SystemParams(
        delta=5.0, j_coupling=2.0, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    report = pair_subspace_spectrum(params, space)
    assert report.pair_doublet == pytest.approx((3.0, 7.0))
    assert report.single_photon_level == pytest.approx(5.0)
    assert report.single_phonon_level == 0.0


def test_pair_doublet_vectors_are_exact_eigenvectors():
    # with no drive the pair sector decouples, so the dressed vectors must
    # be eigenvectors of the full Hamiltonian, not just of the 2x2 block
    space = HilbertSpace(4, 4)
    params = SystemParams(
        delta=1.5, j_coupling=0.8, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    report = pair_subspace_spectrum(params, space)
    h = np.asarray(build_hamiltonian(params, space).todense())
    for col, level in zip(report.doublet_vectors.T, report.pair_doublet):
        assert_allclose(h @ col, level * col, atol=1e-12)
        i_atom, i_pair = report.pair_basis
        assert abs(abs(col[i_atom]) - 1.0 / np.sqrt(2.0)) < 1e-12
        assert abs(abs(col[i_pair]) - 1.0 / np.sqrt(2.0)) < 1e-12


def test_pair_spectrum_ignores_truncation():
    params = SystemParams(
        delta=-2.0, j_coupling=3.0, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    small = pair_subspace_spectrum(params, HilbertSpace(2, 2))
    large = pair_subspace_spectrum(params, HilbertSpace(6, 6))
    assert small.pair_doublet == pytest.approx(large.pair_doublet)
    assert small.pair_doublet == pytest.approx((-5.0, 1.0))


def test_pair_spectrum_rejects_driven_hamiltonian():
    params = SystemParams(
        delta=1.0, j_coupling=1.0, omega=0.5, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    with pytest.raises(ValueError):
        pair_subspace_spectrum(params, HilbertSpace(2, 2))


def test_resonance_locator_refines_to_off_grid_vertex():
    deltas = np.linspace(-5.0, 5.0, 41)
    values = -((np.abs(deltas) - 3.3) ** 2)
    lo, hi = resonance_locator(deltas, values)
    assert hi == pytest.approx(3.3, abs=1e-12)
    assert lo == -hi


def test_resonance_locator_on_gaussian_doublet():
    deltas = np.linspace(-6.0, 6.0, 49)
    values = np.exp(-((deltas - 3.0) ** 2)) + np.exp(-((deltas + 3.0) ** 2))
    lo, hi = resonance_locator(deltas, values)
    assert hi == pytest.approx(3.0, abs=0.05)
    assert lo == -hi


def test_resonance_locator_zero_centered_peak():
    deltas = np.linspace(-2.0, 2.0, 21)
    values = 1.0 / (1.0 + deltas**2)
    assert resonance_locator(deltas, values) == (0.0, 0.0)


def test_resonance_locator_input_validation():
    good = np.linspace(-1, 1, 11)
    with pytest.raises(InvalidSweepError):
        resonance_locator(good[:4], good[:4])
    with pytest.raises(InvalidSweepError):
        resonance_locator(good[::-1], np.ones(11))
    with pytest.raises(InvalidSweepError):
        resonance_locator(np.linspace(-1, 2, 11), np.ones(11))
    with pytest.raises(InvalidSweepError, match="edge"):
        resonance_locator(good, good**2)


def test_equal_damping_residual():
    assert equal_damping_residual(make_record()) is None
    assert equal_damping_residual(
        make_record(mean_n=0.01, g2_nm=50.0)
    ) == pytest.approx(0.0)
    assert equal_damping_residual(
        make_record(mean_n=0.01, g2_nm=60.0)
    ) == pytest.approx(0.2)


def test_manifold_leakage():
    assert manifold_leakage(make_elements()) == 0.0
    assert manifold_leakage(make_elements(rho22=0.3)) == 0.0
    elements = make_elements(rho22=0.05, rho33=0.02, rho44=0.02, rho55=0.01)
    # park 0.05 of weight outside the reference states, e.g. in (e,0,1):
    # excited weight is then 0.10 of which the manifold keeps 0.05
    elements["rho11"] = 0.85
    assert manifold_leakage(elements) == pytest.approx(0.5)
    full = make_elements(rho33=0.1)
    assert manifold_leakage(full) == 0.0


def test_weak_excitation_regime_requires_both_clauses():
    faithful = make_elements(rho33=1e-3, rho44=1e-3, rho55=1e-4)
    leaky = make_elements(rho22=0.3, rho33=1e-4)
    # tiny occupations, faithful manifold
    assert in_weak_excitation_regime(
        make_record(mean_n=1e-3, mean_m=1e-3, elements=faithful)
    )
    # occupations too large
    assert not in_weak_excitation_regime(
        make_record(mean_n=0.5, mean_m=1e-3, elements=faithful)
    )
    # small occupations but the excited weight leaks out of the manifold
    leaky["rho22"] = 0.0
    leaky["rho11"] = 0.999
    leaky_record = make_record(mean_n=1e-4, mean_m=1e-4, elements=leaky)
    assert manifold_leakage(leaky) > 0.5
    assert not in_weak_excitation_regime(leaky_record)
