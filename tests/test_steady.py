"""Steady-state solver tests: exact fixed points, oracle agreement,
truncation checking and failure modes."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import pairsim.model
import pairsim.sweep
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
    MAX_REFINE,
    RESIDUAL_TOL,
    _validated,
    evolve_to_steady,
    null_space_steady,
    solve_steady,
    solve_steady_real,
    suggest_step,
    vacuum_state,
)
from pairsim.sweep import check_truncation, solve_point

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


def sector_solve(params: SystemParams, space: HilbertSpace):
    """solve_steady on the sector operator of `space`, as solve_point does."""
    terms = SectorTerms.build(space)
    return solve_steady(terms.liouvillian(params), terms)


def per_point_liouvillian(params: SystemParams, space: HilbertSpace):
    """Oracle for SectorTerms.liouvillian: each generator term sliced to the
    sector and the blocks summed by _combine, rebuilt for every point."""
    index = sector_index(space)
    blocks = [term[:, index][index] for _, term in pairsim.model._generator_terms(space)]
    return pairsim.model._combine(params, blocks, index.size)


def sliced_sector_terms(space: HilbertSpace) -> SectorTerms:
    """Oracle for SectorTerms.build: every full-space generator term formed
    and then sliced to the sector, and the pattern, positions and values
    taken from the slices; partner and blocks by direct lookup."""
    index = sector_index(space)
    size = index.size
    keys, values = [], []
    for _, term in pairsim.model._generator_terms(space):
        block = term[:, index][index]
        block.sum_duplicates()
        rows = np.repeat(np.arange(0, size * size, size), np.diff(block.indptr))
        keys.append(rows + block.indices)
        values.append(block.data)
    pattern = np.unique(np.concatenate(keys))
    ket, bra = index % space.dim, index // space.dim
    position = np.full(space.dim**2, -1)
    position[index] = np.arange(size)
    q = space.photon_values() - space.phonon_values()
    return SectorTerms(
        space,
        index,
        partner=position[bra + ket * space.dim],
        blocks=tuple(np.flatnonzero(q == value) for value in np.unique(q)),
        indptr=np.searchsorted(pattern, np.arange(0, size * size + 1, size)).astype(np.int32),
        indices=(pattern % size).astype(np.int32),
        positions=tuple(np.searchsorted(pattern, k).astype(np.int32) for k in keys),
        values=tuple(values),
    )


def per_point_solve(lv, space: HilbertSpace):
    """Oracle for solve_steady's assembly: a trace-row matrix stacked on
    rows 1.. of L, then the same LU, refinement and Hermitization.
    Returns the factored matrix and the state."""
    index = sector_index(space)
    trace_row = sp.csr_matrix((index % (space.dim + 1) == 0).astype(complex))
    modified = sp.vstack([trace_row, lv[1:]], format="csc")
    rhs = np.zeros(index.size, dtype=complex)
    rhs[0] = 1.0
    lu = spla.splu(modified)
    x = lu.solve(rhs)
    for _ in range(MAX_REFINE):
        if np.linalg.norm(lv @ x) <= 0.1 * RESIDUAL_TOL:
            break
        x = x + lu.solve(rhs - modified @ x)
    full = np.zeros(space.dim**2, dtype=complex)
    full[index] = x
    rho = unvec(full, space.dim)
    return modified, 0.5 * (rho + rho.conj().T)


def assert_same_arrays(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, tuple):
            assert len(a) == len(b), name
            pairs = zip(a, b)
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


# zero weights switched on and off: delta = 0, m_th = 0, m_th > 0, delta < 0
ZERO_PATTERNS = [
    SystemParams(delta=0.0, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0),
    SystemParams(delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.3),
    SystemParams(delta=-100.0, j_coupling=100.0, omega=1.0, gamma_c=10.0, gamma_m=0.01),
    SystemParams(delta=0.0, j_coupling=1.0, omega=0.5, gamma_c=1.0, gamma_m=1.0, m_th=0.5),
]


SECTOR_FIELDS = ("index", "partner", "blocks", "indptr", "indices", "positions", "values")


@pytest.mark.parametrize("levels", [(2, 3), (5, 5), (6, 14)])
def test_sector_terms_equal_the_sliced_full_terms_bit_for_bit(levels):
    space = HilbertSpace(*levels)
    assert_same_arrays(SectorTerms.build(space), sliced_sector_terms(space), SECTOR_FIELDS)


def test_sector_terms_build_never_forms_full_space_terms():
    # slicing the full-space terms of (12, 24) reached 86 MiB of traced
    # peak; built from the sector columns of the products, about 10 MiB
    space = HilbertSpace(12, 24)
    tracemalloc.start()
    try:
        SectorTerms.build(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("levels", [(2, 3), (5, 5), (6, 14)])
def test_pattern_fill_reproduces_the_per_point_sum_bit_for_bit(levels, monkeypatch):
    space = HilbertSpace(*levels)
    terms = SectorTerms.build(space)
    factored = []
    splu = spla.splu
    for params in ZERO_PATTERNS + ZERO_PATTERNS[::-1]:
        lv = terms.liouvillian(params)
        oracle = per_point_liouvillian(params, space)
        assert_same_arrays(lv, oracle, ("data", "indices", "indptr"))
        want_modified, want_rho = per_point_solve(oracle, space)
        monkeypatch.setattr(spla, "splu", lambda a: factored.append(a) or splu(a))
        rho, _ = solve_steady(lv, terms)
        monkeypatch.setattr(spla, "splu", splu)
        assert_same_arrays(factored.pop(), want_modified, ("data", "indices", "indptr"))
        assert rho.tobytes() == want_rho.tobytes()
    # the fill and the LU assembly leave the shared template as built
    assert_same_arrays(terms, SectorTerms.build(space), SECTOR_FIELDS)


def observable_values(rho, space: HilbertSpace) -> list[float]:
    rec = compute_observables(rho, space)
    scalars = [rec.mean_n, rec.mean_m, rec.g2_n, rec.g2_m, rec.g2_nm, rec.log_neg]
    return scalars + list(rec.elements.values())


def test_undriven_steady_state_is_vacuum():
    space = HilbertSpace(3, 3)
    params = SystemParams(
        delta=0.4, j_coupling=2.0, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    rho, report = sector_solve(params, space)
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
    rho, _ = sector_solve(params, space)
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
    rho, _ = sector_solve(params, space)
    mean = float(np.sum(space.phonon_values() * np.diag(rho).real))
    assert mean == pytest.approx(0.5, abs=1e-8)


def test_driven_atom_population():
    # resonant drive with Omega = kappa puts 4/9 of the population in the
    # excited state; with J = 0 the modes decouple and stay in vacuum
    space = HilbertSpace(2, 2)
    params = SystemParams(
        delta=0.0, j_coupling=0.0, omega=1.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    rho, _ = sector_solve(params, space)
    excited = sum(
        rho[space.index(1, n, m), space.index(1, n, m)].real
        for n in range(space.n_c + 1)
        for m in range(space.n_m + 1)
    )
    assert excited == pytest.approx(4.0 / 9.0, abs=1e-10)


def test_sparse_and_dense_solvers_agree():
    space = HilbertSpace(3, 3)
    rho_sparse, _ = sector_solve(WEAK_POINT, space)
    rho_dense = null_space_steady(build_liouvillian(WEAK_POINT, space), space)
    assert_allclose(rho_sparse, rho_dense, atol=1e-10)


def test_time_evolution_reaches_the_same_steady_state():
    space = HilbertSpace(3, 3)
    lv = build_liouvillian(WEAK_POINT, space)
    rho_sparse, _ = sector_solve(WEAK_POINT, space)
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
        rho, _ = sector_solve(params, space)
        assert_allclose(rho, null_space_steady(lv, space), atol=1e-9)
        rho_t = evolve_to_steady(lv, vacuum_state(space), t_max=2000.0)
        assert_allclose(rho, rho_t, atol=1e-8)


def test_evolution_from_the_fixed_point_stops_immediately():
    space = HilbertSpace(2, 2)
    lv = build_liouvillian(WEAK_POINT, space)
    rho, _ = sector_solve(WEAK_POINT, space)
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
    terms = SectorTerms.build(HilbertSpace(2, 2))
    # the full-space operator of the same space
    with pytest.raises(ValueError, match="sector unknowns"):
        solve_steady(build_liouvillian(WEAK_POINT, terms.space), terms)
    # the sector operator of another space
    other = SectorTerms.build(HilbertSpace(3, 3)).liouvillian(WEAK_POINT)
    with pytest.raises(ValueError, match="sector unknowns"):
        solve_steady(other, terms)


def test_degenerate_steady_state_is_reported():
    # with J = Omega = gamma_m = 0 the phonon sector has no dynamics at
    # all, so every phonon density matrix is stationary
    space = HilbertSpace(2, 2)
    params = SystemParams(
        delta=0.0, j_coupling=0.0, omega=0.0, gamma_c=1.0, gamma_m=0.0, m_th=0.0
    )
    with pytest.raises(DegenerateSteadyStateError):
        sector_solve(params, space)
    with pytest.raises(DegenerateSteadyStateError):
        null_space_steady(build_liouvillian(params, space), space)
    with pytest.raises(DegenerateSteadyStateError):
        solve_point(params, SectorTerms.build(space))


def test_truncation_check_passes_for_contained_states():
    base = solve_point(WEAK_POINT, SectorTerms.build(HilbertSpace(3, 3)))
    report = check_truncation(WEAK_POINT, base)
    assert report.truncation_converged is True
    assert report.levels_used == (3, 3)


def test_truncation_check_fails_for_strong_drive():
    # a resonant drive 100x the decay rate pushes occupations far beyond
    # three Fock levels
    params = SystemParams(
        delta=0.0, j_coupling=1.0, omega=100.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    report = check_truncation(params, solve_point(params, SectorTerms.build(HilbertSpace(2, 2))))
    assert report.truncation_converged is False


@pytest.mark.parametrize("params, space", CANONICAL_POINTS)
def test_sector_solve_matches_full_space_oracle(params, space):
    rho_full = full_space_solve(build_liouvillian(params, space), space)
    outside = np.ones(space.dim**2, dtype=bool)
    outside[sector_index(space)] = False
    assert np.count_nonzero(vec(rho_full)[outside]) == 0
    rho, report = sector_solve(params, space)
    assert report.unknowns == sector_index(space).size
    assert_allclose(
        observable_values(rho, space),
        observable_values(rho_full, space),
        rtol=1e-12,
        atol=1e-15,
    )


def test_sector_solve_of_a_full_operator_matches_dense_oracle():
    # the oracles solve the full operator, the sector solve only its block
    space = HilbertSpace(2, 2)
    params, _ = CANONICAL_POINTS[2]
    lv = build_liouvillian(params, space)
    rho, report = sector_solve(params, space)
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


def test_generator_without_the_symmetry_is_rejected(monkeypatch):
    # a coherent photon drive changes n - m by one, so the steady state has
    # off-sector weight that the sector solve cannot represent; building
    # the sector terms must refuse it instead of truncating it
    original = pairsim.model._generator_products

    def with_photon_drive(space):
        yield from original(space)
        a = photon_lowering(space)
        drive = a + a.conj().T
        eye = sp.identity(space.dim, dtype=complex, format="csr")
        yield "the photon drive", [(-1j, drive, eye), (1j, eye, drive)]

    monkeypatch.setattr(pairsim.model, "_generator_products", with_photon_drive)
    with pytest.raises(ValueError, match="the photon drive maps 544 entries"):
        SectorTerms.build(HilbertSpace(3, 3))
    # the count is that of the full-space term's nonzero out-of-sector entries
    space = HilbertSpace(3, 3)
    index = sector_index(space)
    a = photon_lowering(space)
    columns = hamiltonian_superop(a + a.conj().T)[:, index]
    assert columns.count_nonzero() - columns[index].count_nonzero() == 544


def test_truncation_check_reuses_the_base_solution(monkeypatch):
    record, report = solve_point(WEAK_POINT, SectorTerms.build(HilbertSpace(3, 3)))
    solved = []
    for name, solver in (("solve_steady", solve_steady), ("solve_steady_real", solve_steady_real)):

        def counting(liouvillian, terms, _name=name, _solver=solver):
            solved.append((_name, terms.space.n_c, terms.space.n_m))
            return _solver(liouvillian, terms)

        monkeypatch.setattr(pairsim.sweep, name, counting)
    checked = check_truncation(WEAK_POINT, (record, report))
    assert solved == [("solve_steady_real", 6, 6)]
    assert checked == replace(report, truncation_converged=True)


def test_truncation_check_rejects_tiny_base():
    record, report = solve_point(WEAK_POINT, SectorTerms.build(HilbertSpace(1, 1)))
    with pytest.raises(ValueError):
        check_truncation(WEAK_POINT, (record, report))


def test_non_finite_solution_is_a_convergence_error():
    # at omega = 1e300 the LU solve overflows; a NaN state must not reach
    # the eigenvalue call, whose numpy error would escape the error types
    space = HilbertSpace(2, 2)
    params = SystemParams(delta=0.1, j_coupling=1.0, omega=1e300, gamma_c=1.0, gamma_m=1.0)
    with pytest.raises(ConvergenceError, match="not finite"):
        sector_solve(params, space)


# (2, 3), a point with delta = 0 (its term skipped) and a thermal point
REAL_SOLVE_POINTS = [
    (WEAK_POINT, HilbertSpace(2, 3)),
    (ZERO_PATTERNS[0], HilbertSpace(5, 5)),
    CANONICAL_POINTS[2],
]


@pytest.mark.parametrize("params, space", REAL_SOLVE_POINTS)
def test_real_solve_matches_the_complex_solve(params, space):
    terms = SectorTerms.build(space)
    lv = terms.liouvillian(params)
    want, _ = solve_steady(lv, terms)
    rho, report = solve_steady_real(lv, terms)
    assert_allclose(rho, want, rtol=0, atol=1e-12)
    assert_allclose(observable_values(rho, space), observable_values(want, space), rtol=1e-10)
    assert report.residual_norm < RESIDUAL_TOL
    assert report.unknowns == terms.index.size


def test_real_solve_rejects_a_generator_that_breaks_hermiticity(monkeypatch):
    # i times the delta piece conserves n - m, so the sector terms build,
    # but -i[i H_delta, rho] maps Hermitian states to anti-Hermitian ones
    original = pairsim.model._operators

    def non_hermitian(space):
        pieces, jumps = original(space)
        return dict(pieces, delta=1j * pieces["delta"]), jumps

    monkeypatch.setattr(pairsim.model, "_operators", non_hermitian)
    terms = SectorTerms.build(HilbertSpace(3, 3))
    with pytest.raises(ConvergenceError):
        solve_steady_real(terms.liouvillian(WEAK_POINT), terms)


@pytest.mark.parametrize("levels, stored", [((2, 3), 1017), ((5, 5), 6545)])
def test_real_system_keeps_the_block_pattern(levels, stored, monkeypatch):
    # a real and an imaginary entry for every complex entry of L T, zeros
    # included: pruning the zeros hides the 2 x 2 blocks from COLAMD
    terms = SectorTerms.build(HilbertSpace(*levels))
    factored = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a: factored.append(a) or splu(a))
    solve_steady_real(terms.liouvillian(WEAK_POINT), terms)
    (real,) = factored
    assert real.dtype == np.float64
    assert real.nnz == stored
    assert np.count_nonzero(real.data) < stored


@pytest.mark.parametrize("levels", [(5, 5), (6, 14)])
def test_blockwise_min_eigenvalue_matches_the_full_one(levels):
    params = CANONICAL_POINTS[2][0]
    terms = SectorTerms.build(HilbertSpace(*levels))
    rho, report = solve_steady(terms.liouvillian(params), terms)
    _, full = _validated(rho, report.residual_norm, "test")
    _, blockwise = _validated(rho, report.residual_norm, "test", terms.blocks)
    assert report.min_eigenvalue == blockwise
    assert abs(blockwise - full) <= 1e-15


def test_blockwise_validation_rejects_an_indefinite_block():
    terms = SectorTerms.build(HilbertSpace(2, 3))
    block = next(b for b in terms.blocks if b.size >= 2)
    i, j = block[:2]
    rho = np.zeros((terms.space.dim,) * 2, dtype=complex)
    rho[i, i] = rho[j, j] = 0.5
    rho[i, j] = rho[j, i] = 0.5 + 1e-3  # eigenvalues 1.001 and -0.001
    with pytest.raises(ConvergenceError, match="indefinite"):
        _validated(rho, 0.0, "test", terms.blocks)
