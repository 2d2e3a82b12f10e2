"""Steady-state solver tests: exact fixed points, oracle agreement,
truncation checking and failure modes."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import pairsim.steady
from pairsim.errors import ConvergenceError, DegenerateSteadyStateError
from pairsim.model import (
    SectorTerms,
    SystemParams,
    build_liouvillian,
    hamiltonian_superop,
    sector_index,
    trace_functional,
    unvec,
    vec,
)
from pairsim.observables import compute_observables
from pairsim.operators import HilbertSpace, photon_lowering
from pairsim.steady import (
    RESIDUAL_TOL,
    check_truncation,
    evolve_to_steady,
    null_space_steady,
    solve_steady,
    steady_state,
    suggest_step,
    vacuum_state,
)

WEAK_POINT = SystemParams(
    delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.0
)
# Points of the shipped fig2_weak, fig6 and fig7 sweeps at their truncations.
CANONICAL_POINTS = [
    (WEAK_POINT, HilbertSpace(5, 5)),
    (
        SystemParams(delta=100.0, j_coupling=100.0, omega=1.0, gamma_c=10.0, gamma_m=0.01),
        HilbertSpace(6, 8),
    ),
    (
        SystemParams(
            delta=100.0, j_coupling=100.0, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.3
        ),
        HilbertSpace(6, 14),
    ),
]


def full_space_solve(lv, space: HilbertSpace) -> np.ndarray:
    """Reference solver on all dim^2 unknowns: row 0 of L replaced by the
    trace functional, sparse LU, no symmetry used."""
    modified = lv.tolil()
    modified[0, :] = trace_functional(space.dim)
    rhs = np.zeros(space.dim**2, dtype=complex)
    rhs[0] = 1.0
    return unvec(spla.splu(modified.tocsc()).solve(rhs), space.dim)


def observable_values(rho, space: HilbertSpace) -> list[float]:
    rec = compute_observables(rho, space)
    scalars = [rec.mean_n, rec.mean_m, rec.g2_n, rec.g2_m, rec.g2_nm, rec.log_neg]
    return scalars + list(rec.elements.values())


def test_undriven_steady_state_is_vacuum():
    space = HilbertSpace(3, 3)
    params = SystemParams(
        delta=0.4, j_coupling=2.0, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    rho, report = steady_state(params, space)
    expected = vacuum_state(space)
    assert_allclose(rho, expected, atol=1e-12)
    assert report.residual_norm <= RESIDUAL_TOL
    assert report.levels_used == (3, 3)
    assert report.truncation_converged is None


def test_thermal_phonon_distribution_is_geometric():
    # with J = Omega = 0 the phonon mode relaxes to a truncated thermal
    # state whose population ratio is exactly m_th / (m_th + 1)
    space = HilbertSpace(2, 8)
    params = SystemParams(
        delta=0.0, j_coupling=0.0, omega=0.0, gamma_c=1.0, gamma_m=2.0, m_th=0.5
    )
    rho, _ = steady_state(params, space)
    pops = np.array([rho[space.index(0, 0, m), space.index(0, 0, m)].real
                     for m in range(space.n_m + 1)])
    ratios = pops[1:] / pops[:-1]
    assert_allclose(ratios, (0.5 / 1.5) * np.ones(space.n_m), atol=1e-12)
    # atom and photon stay in their ground states
    assert rho[space.index(1, 0, 0), space.index(1, 0, 0)].real < 1e-14
    assert rho[space.index(0, 1, 0), space.index(0, 1, 0)].real < 1e-14


def test_thermal_phonon_mean_converges_with_truncation():
    params = SystemParams(
        delta=0.0, j_coupling=0.0, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.5
    )
    space = HilbertSpace(2, 24)
    rho, _ = steady_state(params, space)
    mean = float(np.sum(space.phonon_values() * np.diag(rho).real))
    assert mean == pytest.approx(0.5, abs=1e-8)


def test_driven_atom_population():
    # resonant drive with Omega = kappa puts 4/9 of the population in the
    # excited state; with J = 0 the modes decouple and stay in vacuum
    space = HilbertSpace(2, 2)
    params = SystemParams(
        delta=0.0, j_coupling=0.0, omega=1.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    rho, _ = steady_state(params, space)
    excited = sum(
        rho[space.index(1, n, m), space.index(1, n, m)].real
        for n in range(space.n_c + 1)
        for m in range(space.n_m + 1)
    )
    assert excited == pytest.approx(4.0 / 9.0, abs=1e-10)


def test_sparse_and_dense_solvers_agree():
    space = HilbertSpace(3, 3)
    lv = build_liouvillian(WEAK_POINT, space)
    rho_sparse, _ = solve_steady(lv, space)
    rho_dense = null_space_steady(lv, space)
    assert_allclose(rho_sparse, rho_dense, atol=1e-10)


def test_time_evolution_reaches_the_same_steady_state():
    space = HilbertSpace(3, 3)
    lv = build_liouvillian(WEAK_POINT, space)
    rho_sparse, _ = solve_steady(lv, space)
    rho_evolved, info = evolve_to_steady(
        lv, vacuum_state(space), t_max=500.0, return_info=True
    )
    assert_allclose(rho_evolved, rho_sparse, atol=1e-8)
    assert info["max_trace_drift"] < 1e-9
    assert info["final_deriv"] < 1e-10


def test_three_way_agreement_on_random_parameters():
    rng = np.random.default_rng(21)
    space = HilbertSpace(2, 2)
    for _ in range(3):
        params = SystemParams(
            delta=rng.uniform(-2, 2),
            j_coupling=rng.uniform(0.1, 3),
            omega=rng.uniform(0.2, 2),
            gamma_c=rng.uniform(0.5, 5),
            gamma_m=rng.uniform(0.5, 5),
            m_th=rng.uniform(0, 0.5),
        )
        lv = build_liouvillian(params, space)
        rho, _ = solve_steady(lv, space)
        assert_allclose(rho, null_space_steady(lv, space), atol=1e-9)
        rho_t = evolve_to_steady(lv, vacuum_state(space), t_max=2000.0)
        assert_allclose(rho, rho_t, atol=1e-8)


def test_evolution_from_the_fixed_point_stops_immediately():
    space = HilbertSpace(2, 2)
    lv = build_liouvillian(WEAK_POINT, space)
    rho, _ = solve_steady(lv, space)
    out, info = evolve_to_steady(lv, rho, t_max=10.0, return_info=True)
    assert info["steps"] == 0
    assert_allclose(out, rho, atol=0)


def test_evolution_times_out():
    space = HilbertSpace(2, 2)
    lv = build_liouvillian(WEAK_POINT, space)
    with pytest.raises(ConvergenceError, match="not stationary"):
        evolve_to_steady(lv, vacuum_state(space), t_max=0.5)


def test_evolution_detects_unstable_step():
    space = HilbertSpace(2, 2)
    lv = build_liouvillian(WEAK_POINT, space)
    with pytest.raises(ConvergenceError, match="diverged|stability"):
        evolve_to_steady(lv, vacuum_state(space), t_max=100.0, step=5.0)


def test_evolution_rejects_nonpositive_step():
    space = HilbertSpace(2, 2)
    lv = build_liouvillian(WEAK_POINT, space)
    with pytest.raises(ValueError):
        evolve_to_steady(lv, vacuum_state(space), t_max=1.0, step=0.0)


def test_suggested_step_is_stable_and_not_tiny():
    space = HilbertSpace(2, 2)
    lv = build_liouvillian(WEAK_POINT, space)
    step = suggest_step(lv)
    assert step > 0
    # the estimate must be below the exact stability bound
    eigs = np.linalg.eigvals(lv.toarray())
    radius = float(np.abs(eigs).max())
    assert step <= 2.0 * np.sqrt(2.0) / radius
    assert step >= 0.1 / radius


def test_solver_shape_mismatch():
    lv = build_liouvillian(WEAK_POINT, HilbertSpace(2, 2))
    with pytest.raises(ValueError):
        solve_steady(lv, HilbertSpace(3, 3))


def test_degenerate_steady_state_is_reported():
    # with J = Omega = gamma_m = 0 the phonon sector has no dynamics at
    # all, so every phonon density matrix is stationary
    space = HilbertSpace(2, 2)
    params = SystemParams(
        delta=0.0, j_coupling=0.0, omega=0.0, gamma_c=1.0, gamma_m=0.0, m_th=0.0
    )
    lv = build_liouvillian(params, space)
    with pytest.raises(DegenerateSteadyStateError):
        solve_steady(lv, space)
    with pytest.raises(DegenerateSteadyStateError):
        null_space_steady(lv, space)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(params, space)


def test_truncation_check_passes_for_contained_states():
    report = check_truncation(WEAK_POINT, base_levels=(3, 3))
    assert report.truncation_converged is True
    assert report.levels_used == (3, 3)


def test_truncation_check_fails_for_strong_drive():
    # a resonant drive 100x the decay rate pushes occupations far beyond
    # three Fock levels
    params = SystemParams(
        delta=0.0, j_coupling=1.0, omega=100.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    report = check_truncation(params, base_levels=(2, 2))
    assert report.truncation_converged is False


@pytest.mark.parametrize("params, space", CANONICAL_POINTS)
def test_sector_solve_matches_full_space_oracle(params, space):
    rho_full = full_space_solve(build_liouvillian(params, space), space)
    outside = np.ones(space.dim**2, dtype=bool)
    outside[sector_index(space)] = False
    assert np.count_nonzero(vec(rho_full)[outside]) == 0
    rho, report = steady_state(params, space)
    assert report.unknowns == sector_index(space).size
    assert_allclose(
        observable_values(rho, space),
        observable_values(rho_full, space),
        rtol=1e-12,
        atol=1e-15,
    )


def test_sector_solve_of_a_full_operator_matches_dense_oracle():
    space = HilbertSpace(2, 2)
    params, _ = CANONICAL_POINTS[2]
    lv = build_liouvillian(params, space)
    rho, report = solve_steady(lv, space)
    assert_allclose(rho, null_space_steady(lv, space), atol=1e-10)
    assert_allclose(rho, full_space_solve(lv, space), atol=1e-12)
    assert report.unknowns < space.dim**2


@pytest.mark.parametrize(
    "levels, size",
    [((5, 5), 584), ((6, 8), 1316), ((6, 14), 2492), ((10, 10), 3564), ((12, 16), 8580)],
)
def test_sector_sizes(levels, size):
    assert sector_index(HilbertSpace(*levels)).size == size


def test_sector_terms_restrict_the_full_liouvillian():
    params, space = CANONICAL_POINTS[2][0], HilbertSpace(2, 3)
    index = sector_index(space)
    full = build_liouvillian(params, space)
    sector = SectorTerms.build(space).liouvillian(params)
    assert abs(sector - full[index][:, index]).max() <= 1e-12
    # L maps the sector into itself: no sector column reaches outside it
    outside = np.setdiff1d(np.arange(space.dim**2), index)
    assert full[outside][:, index].count_nonzero() == 0


def test_generator_without_the_symmetry_is_rejected():
    # a coherent photon drive changes n - m by one, so the steady state has
    # off-sector weight that the sector solve cannot represent
    space = HilbertSpace(3, 3)
    a = photon_lowering(space)
    lv = build_liouvillian(WEAK_POINT, space) + hamiltonian_superop(0.5 * (a + a.conj().T))
    with pytest.raises(ConvergenceError):
        solve_steady(lv, space)


def test_truncation_check_reuses_the_base_solution(monkeypatch):
    space = HilbertSpace(3, 3)
    rho, report = steady_state(WEAK_POINT, space)
    base = (compute_observables(rho, space), report)
    solved = []

    def counting(params, space=None):
        solved.append((space.n_c, space.n_m))
        return steady_state(params, space)

    monkeypatch.setattr(pairsim.steady, "steady_state", counting)
    with_base = check_truncation(WEAK_POINT, base_levels=(3, 3), base=base)
    assert solved == [(6, 6)]
    assert with_base == check_truncation(WEAK_POINT, base_levels=(3, 3))
    assert with_base.truncation_converged is True
    with pytest.raises(ValueError):
        check_truncation(WEAK_POINT, base_levels=(4, 4), base=base)


def test_truncation_check_rejects_tiny_base():
    with pytest.raises(ValueError):
        check_truncation(WEAK_POINT, base_levels=(1, 1))
