"""Steady-state solver tests: exact fixed points, oracle agreement,
truncation checking and failure modes."""

import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from helpers import (
    evolve_to_steady,
    null_space_steady,
    sector_state,
    suggest_step,
    vacuum_state,
)
import pairsim.model
import pairsim.steady
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
from pairsim.observables import SCALAR_KEYS, compute_observables
from pairsim.operators import HilbertSpace, photon_lowering
from pairsim.steady import (
    GMRES_ITERATIONS,
    GMRES_RESTART,
    GMRES_RTOL,
    MAX_REFINE,
    RESIDUAL_TOL,
    _validated,
    solve_steady,
)
from pairsim.sweep import TRUNCATION_TOL, _deviation, check_truncation, solve_point

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
    """solve_steady on the sector terms of `space`, as solve_point does,
    with the dense state the oracles compare."""
    terms = SectorTerms.build(space)
    x, report = solve_steady(params, terms)
    return terms.density_matrix(x), report


def per_point_liouvillian(params: SystemParams, space: HilbertSpace):
    """Oracle for L on the sector, rows 1 and up of SectorTerms.system: each
    generator term sliced to the sector and the blocks summed by _combine,
    rebuilt for every point."""
    index = sector_index(space)
    blocks = [term[:, index][index] for _, term in pairsim.model._generator_terms(space)]
    return pairsim.model._combine(params, blocks, index.size)


def hermitian_map(index: np.ndarray, partner: np.ndarray, dim: int) -> sp.csr_matrix:
    """Oracle for SectorTerms.expand, row by row: x[p] = y[p] on the
    diagonal, y[p] + i y[partner] above it (i < j) and y[partner] - i y[p]
    below it, for rho[i, j] at index[p]."""
    ket, bra = index % dim, index // dim
    own = np.arange(index.size)
    off = ket != bra
    return sp.csr_matrix(
        (
            np.concatenate([np.where(ket > bra, -1j, 1.0), np.where(ket[off] < bra[off], 1j, 1.0)]),
            (np.concatenate([own, own[off]]), np.concatenate([own, partner[off]])),
        ),
        shape=(index.size, index.size),
    )


def sliced_sector_terms(space: HilbertSpace) -> SectorTerms:
    """Oracle for SectorTerms.build: every full-space generator term formed
    and then sliced to the sector, its row 0 dropped, and the trace row
    appended; the pattern, positions and values taken from the slices;
    partner, the diagonal, the real map and levels by direct lookup."""
    index = sector_index(space)
    size = index.size
    diagonal = np.flatnonzero(index % (space.dim + 1) == 0)
    keys, values = [], []
    for _, term in pairsim.model._generator_terms(space):
        block = term[:, index][index]
        block.sum_duplicates()
        rows = np.repeat(np.arange(0, size * size, size), np.diff(block.indptr))
        keys.append((rows + block.indices)[rows > 0])
        values.append(block.data[rows > 0])
    keys.append(diagonal)
    values.append(np.ones(diagonal.size, dtype=complex))
    pattern = np.unique(np.concatenate(keys))
    ket, bra = index % space.dim, index // space.dim
    position = np.full(space.dim**2, -1)
    position[index] = np.arange(size)
    partner = position[bra + ket * space.dim]
    q = space.photon_values() - space.phonon_values()
    return SectorTerms(
        space,
        index,
        partner=partner,
        diagonal=diagonal,
        lower=ket > bra,
        expand=hermitian_map(index, partner, space.dim),
        levels=tuple(np.flatnonzero(q[ket] == value) for value in np.unique(q)),
        indptr=np.searchsorted(pattern, np.arange(0, size * size + 1, size)).astype(np.int32),
        indices=(pattern % size).astype(np.int32),
        positions=tuple(np.searchsorted(pattern, k).astype(np.int32) for k in keys),
        values=tuple(values),
    )


def per_point_solve(lv, space: HilbertSpace):
    """Oracle for solve_steady's assembly: a trace-row matrix stacked on
    rows 1.. of L, then the same unrefined LU solve and Hermitization.
    Returns the factored matrix and the state."""
    index = sector_index(space)
    trace_row = sp.csr_matrix((index % (space.dim + 1) == 0).astype(complex))
    modified = sp.vstack([trace_row, lv[1:]], format="csc")
    rhs = np.zeros(index.size, dtype=complex)
    rhs[0] = 1.0
    x = spla.splu(modified).solve(rhs)
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


SECTOR_FIELDS = (
    "index", "partner", "diagonal", "lower", "levels", "indptr", "indices", "positions", "values"
)


def assert_same_terms(got: SectorTerms, want: SectorTerms):
    assert_same_arrays(got, want, SECTOR_FIELDS)
    assert got.expand.nnz == want.expand.nnz and (got.expand != want.expand).nnz == 0


@pytest.mark.parametrize("levels", [(2, 3), (5, 5), (6, 14)])
def test_sector_terms_equal_the_sliced_full_terms_bit_for_bit(levels):
    space = HilbertSpace(*levels)
    assert_same_terms(SectorTerms.build(space), sliced_sector_terms(space))


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
    # the complete complex LU at every size, (6, 14)'s too, whose rows take
    # the real path
    monkeypatch.setattr(pairsim.steady, "COMPLEX_LU_UNKNOWNS", terms.index.size)
    factored = []
    splu = spla.splu
    for params in ZERO_PATTERNS + ZERO_PATTERNS[::-1]:
        oracle = per_point_liouvillian(params, space)
        assert_same_arrays(terms.system(params)[1:], oracle[1:], ("data", "indices", "indptr"))
        want_modified, want_rho = per_point_solve(oracle, space)
        monkeypatch.setattr(spla, "splu", lambda a: factored.append(a) or splu(a))
        x, _ = solve_steady(params, terms)
        monkeypatch.setattr(spla, "splu", splu)
        assert_same_arrays(factored.pop(), want_modified, ("data", "indices", "indptr"))
        assert terms.density_matrix(x).tobytes() == want_rho.tobytes()
    # the fill and the LU assembly leave the shared template as built
    assert_same_terms(terms, SectorTerms.build(space))


def observable_values(x, terms: SectorTerms) -> list[float]:
    rec = compute_observables(x, terms)
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
    with pytest.raises(FrozenInstanceError):
        report.residual_norm = 0.0


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
    rho_evolved, info = evolve_to_steady(lv, vacuum_state(space), t_max=500.0)
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
        rho_t, _ = evolve_to_steady(lv, vacuum_state(space), t_max=2000.0)
        assert_allclose(rho, rho_t, atol=1e-8)


def test_evolution_from_the_fixed_point_stops_immediately():
    space = HilbertSpace(2, 2)
    lv = build_liouvillian(WEAK_POINT, space)
    rho, _ = sector_solve(WEAK_POINT, space)
    out, info = evolve_to_steady(lv, rho, t_max=10.0)
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
    check = check_truncation(WEAK_POINT, base)
    assert check["max_deviation"] <= check["tolerance"] == TRUNCATION_TOL
    assert check["report"]["levels_used"] == (6, 6)


def test_truncation_check_fails_for_strong_drive():
    # a resonant drive 100x the decay rate pushes occupations far beyond
    # three Fock levels
    params = SystemParams(
        delta=0.0, j_coupling=1.0, omega=100.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    check = check_truncation(params, solve_point(params, SectorTerms.build(HilbertSpace(2, 2))))
    assert check["max_deviation"] > check["tolerance"]


@pytest.mark.parametrize(
    "params, space",
    # (2, 3) and (3, 2) have sectors of equal size, 112 unknowns each
    CANONICAL_POINTS
    + [(CANONICAL_POINTS[2][0], HilbertSpace(2, 3)), (CANONICAL_POINTS[2][0], HilbertSpace(3, 2))],
)
def test_sector_solve_matches_full_space_oracle(params, space):
    rho_full = full_space_solve(build_liouvillian(params, space), space)
    outside = np.ones(space.dim**2, dtype=bool)
    outside[sector_index(space)] = False
    assert np.count_nonzero(vec(rho_full)[outside]) == 0
    terms = SectorTerms.build(space)
    x, report = solve_steady(params, terms)
    assert report.unknowns == sector_index(space).size
    assert_allclose(
        observable_values(x, terms),
        observable_values(sector_state(rho_full, terms), terms),
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
    system = SectorTerms.build(space).system(params)
    assert abs(system[1:] - full[index][:, index][1:]).max() <= 1e-12
    # L maps the sector into itself: no sector column reaches outside it
    outside = np.setdiff1d(np.arange(space.dim**2), index)
    assert full[outside][:, index].count_nonzero() == 0


@pytest.mark.parametrize("levels", [(5, 5), (6, 8)], ids=["complex", "real"])
def test_sector_system_is_l_with_the_trace_in_row_0(levels, monkeypatch):
    # rows 1 and up are L's bit for bit, and row 0 is the trace, in the
    # complex unknowns and, through T, in the real ones; the report's
    # residual is that of this system on the state before Hermitization
    space = HilbertSpace(*levels)
    terms = SectorTerms.build(space)
    assert (terms.index.size > pairsim.steady.COMPLEX_LU_UNKNOWNS) == (levels == (6, 8))
    params = CANONICAL_POINTS[2][0]  # every term on, m_th > 0 included
    system = terms.system(params)
    oracle = per_point_liouvillian(params, space)
    assert_same_arrays(system[1:], oracle[1:], ("data", "indices", "indptr"))
    own = np.flatnonzero(terms.partner == np.arange(terms.index.size))
    assert terms.diagonal.tolist() == own.tolist()
    for row in (system[0], pairsim.steady._real_system(system, terms)[0]):
        row.sort_indices()
        assert row.indices.tolist() == terms.diagonal.tolist()
        assert (row.data == 1.0).all()
    states = unvalidated_states(monkeypatch)
    _, report = solve_steady(params, terms)
    (x,) = states
    e0 = np.zeros(terms.index.size)
    e0[0] = 1.0
    assert report.residual_norm == float(np.linalg.norm(system @ x - e0))


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
    before = replace(report)
    solved = []

    def counting(params, terms):
        solved.append((terms.space.n_c, terms.space.n_m))
        return solve_steady(params, terms)

    monkeypatch.setattr(pairsim.sweep, "solve_steady", counting)
    check = check_truncation(WEAK_POINT, (record, report))
    assert solved == [(6, 6)]
    assert list(check) == ["observables", "report", "max_deviation", "tolerance"]
    doubled = check["report"]
    assert doubled["levels_used"] == (6, 6)
    assert doubled["unknowns"] == sector_index(HilbertSpace(6, 6)).size
    assert check["max_deviation"] <= check["tolerance"]
    assert report == before  # the base report is left as it was


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
def test_real_solve_matches_the_complex_solve(params, space, real_path):
    terms = SectorTerms.build(space)
    _, rho = per_point_solve(per_point_liouvillian(params, space), space)
    want = sector_state(rho, terms)
    x, report = solve_steady(params, terms)
    assert_allclose(x, want, rtol=0, atol=1e-12)
    assert_allclose(observable_values(x, terms), observable_values(want, terms), rtol=1e-10)
    assert report.residual_norm < RESIDUAL_TOL
    assert report.unknowns == terms.index.size


def test_real_solve_rejects_a_generator_that_breaks_hermiticity(monkeypatch, real_path):
    # i times the delta piece conserves n - m, so the sector terms build,
    # but -i[i H_delta, rho] maps Hermitian states to anti-Hermitian ones
    original = pairsim.model._operators

    def non_hermitian(space):
        pieces, jumps = original(space)
        return dict(pieces, delta=1j * pieces["delta"]), jumps

    monkeypatch.setattr(pairsim.model, "_operators", non_hermitian)
    terms = SectorTerms.build(HilbertSpace(3, 3))
    with pytest.raises(ConvergenceError):
        solve_steady(WEAK_POINT, terms)


def level_sweeps(monkeypatch) -> list:
    """Record the system of every level preconditioner the real solve makes."""
    systems = []
    sweep = pairsim.steady._level_sweep
    monkeypatch.setattr(
        pairsim.steady, "_level_sweep", lambda a, levels: systems.append(a) or sweep(a, levels)
    )
    return systems


@pytest.mark.parametrize("levels, stored", [((2, 3), 1017), ((5, 5), 6545)])
def test_real_system_keeps_the_block_pattern(levels, stored, monkeypatch, real_path):
    # a real and an imaginary entry for every complex entry of L T, zeros
    # included: pruning the zeros hides the 2 x 2 blocks from COLAMD
    terms = SectorTerms.build(HilbertSpace(*levels))
    factored = level_sweeps(monkeypatch)
    solve_steady(WEAK_POINT, terms)
    (real,) = factored
    assert real.dtype == np.float64
    assert real.nnz == stored
    assert np.count_nonzero(real.data) < stored


def sector_levels(terms: SectorTerms) -> np.ndarray:
    """The q = n - m of each sector unknown, read from terms.levels, which
    must list every unknown once, by the q its ket and bra share."""
    space = terms.space
    q = space.photon_values() - space.phonon_values()
    ket, bra = terms.index % space.dim, terms.index // space.dim
    level = np.full(terms.index.size, np.iinfo(int).min)
    for value, members in zip(np.unique(q), terms.levels, strict=True):
        assert (q[ket[members]] == value).all() and (q[bra[members]] == value).all()
        level[members] = value
    assert np.array_equal(np.sort(np.concatenate(terms.levels)), np.arange(terms.index.size))
    return level


@pytest.mark.parametrize("levels", [(3, 4), (5, 5), (6, 8)])
def test_level_order_makes_the_sector_block_tridiagonal(levels, monkeypatch, real_path):
    # the premise of the level preconditioner: ordered by q, the complex L
    # and the trace-replaced complex and real systems couple each level to
    # itself and its neighbours only; the trace row, in level 0, is the one
    # exception
    terms = SectorTerms.build(HilbertSpace(*levels))
    level = sector_levels(terms)
    params = CANONICAL_POINTS[2][0]  # every term on, m_th > 0 included
    systems = level_sweeps(monkeypatch)
    solve_steady(params, terms)
    (real,) = systems
    lv = per_point_liouvillian(params, terms.space)
    for matrix, skip in ((lv, None), (terms.system(params), 0), (real, 0)):
        coo = matrix.tocoo()
        kept = coo.row != skip
        steps = np.abs(level[coo.row[kept]] - level[coo.col[kept]])
        assert set(steps.tolist()) == {0, 1}
    trace_row = real.tocsr()[0]
    assert level[0] == 0
    assert set(level[trace_row.indices].tolist()) == set(level.tolist())


def test_red_black_sweep_inverts_the_system_without_red_rows_black_columns(
    monkeypatch, real_path
):
    # levels at an even distance from level 0, which holds the trace row,
    # are red; the sweep is the exact inverse of the system once the
    # couplings from black columns into red rows are zeroed
    terms = SectorTerms.build(HilbertSpace(5, 5))
    red = sector_levels(terms) % 2 == 0
    systems = level_sweeps(monkeypatch)
    solve_steady(CANONICAL_POINTS[2][0], terms)
    (real,) = systems
    coo = real.tocoo()
    dropped = red[coo.row] & ~red[coo.col]
    assert dropped.any() and dropped[coo.row == 0].any()  # the trace row's too
    kept = sp.csr_matrix(
        (coo.data[~dropped], (coo.row[~dropped], coo.col[~dropped])), shape=real.shape
    )
    sweep, _ = pairsim.steady._level_sweep(real, terms.levels)
    r = np.random.default_rng(5).standard_normal(real.shape[0])
    assert np.abs(kept @ sweep(r) - r).max() <= 1e-12 * np.abs(r).max()


def test_trace_replaces_the_vacuum_equation(monkeypatch, request):
    # the trace takes the place of rho[0, 0]'s equation, the vacuum's, in
    # the complex and the real solve; the level order permutes only inside
    # the preconditioner, so the replaced equation stays the same
    space = HilbertSpace(3, 4)
    terms = SectorTerms.build(space)
    assert space.index(0, 0, 0) == 0 and terms.index[0] == 0
    diagonal = np.flatnonzero(terms.index % (space.dim + 1) == 0)
    assert terms.diagonal.tolist() == diagonal.tolist()
    params = replace(FIG5_WEAK_LOW, gamma_m=100.0)
    # the equations of L, and the real ones of L T, rows 0 included
    lv = per_point_liouvillian(params, space)
    systems, modified = [lv, pairsim.steady._real_system(lv, terms)], []
    complete = pairsim.steady._complete_lu
    monkeypatch.setattr(
        pairsim.steady, "_complete_lu", lambda a: modified.append(a) or complete(a)
    )
    real = level_sweeps(monkeypatch)
    solve_steady(params, terms)
    request.getfixturevalue("real_path")
    solve_steady(params, terms)
    for system, factored in zip(systems, modified + real, strict=True):
        rows, kept = factored.tocsr(), system[1:]
        assert rows[0].indices.tolist() == diagonal.tolist()
        assert (rows[0].data == 1.0).all()
        kept.sort_indices()
        assert_same_arrays(rows[1:], kept, ("data", "indices", "indptr"))


def direct_refined(levels, modified, rhs):
    """Oracle for the real solve: the complete LU of the trace-replaced real
    system, whatever its levels, and MAX_REFINE steps of refinement with
    residuals summed in np.longdouble, whatever the residual."""
    lu = spla.splu(modified)
    wide = modified.astype(np.longdouble)
    y = lu.solve(rhs)
    for _ in range(MAX_REFINE):
        y = y + lu.solve((rhs - wide @ y).astype(rhs.dtype))
    return y, int(lu.nnz), MAX_REFINE


FIG5_WEAK_LOW = SystemParams(
    delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=0.01
)
# the row of the shipped fig4 sweep that its truncation check doubles
FIG4_CHECK = SystemParams(
    delta=19.054607179632484, j_coupling=19.054607179632484, omega=1.0, gamma_c=10.0,
    gamma_m=10.0,
)


@pytest.mark.parametrize(
    "params, space",
    [
        (WEAK_POINT, HilbertSpace(2, 3)),
        (WEAK_POINT, HilbertSpace(5, 5)),
        # fig5_weak's low-damping end at its truncation
        (FIG5_WEAK_LOW, HilbertSpace(6, 12)),
    ],
)
def test_real_solve_matches_a_refined_direct_solve(params, space, monkeypatch, real_path):
    terms = SectorTerms.build(space)
    with monkeypatch.context() as patch:
        factors = complete_lus(patch)
        x, _ = solve_steady(params, terms)
    assert factors == []  # the level preconditioner's solve, not the complete LU's
    monkeypatch.setattr(pairsim.steady, "_preconditioned", direct_refined)
    want, _ = solve_steady(params, terms)
    got, ref = compute_observables(x, terms), compute_observables(want, terms)
    for key in SCALAR_KEYS:
        assert _deviation(getattr(got, key), getattr(ref, key)) <= 1e-13, key


def complete_lus(monkeypatch) -> list[int]:
    """Record the stored entries of every complete LU the real solve makes."""
    factors = []
    complete = pairsim.steady._complete_lu

    def recorded(a):
        lu = complete(a)
        factors.append(lu.nnz)
        return lu

    monkeypatch.setattr(pairsim.steady, "_complete_lu", recorded)
    return factors


def singular_preconditioner(monkeypatch):
    def singular(a, levels):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(pairsim.steady, "_level_sweep", singular)


def unconverged_gmres(monkeypatch):
    monkeypatch.setattr(pairsim.steady, "_gmres", lambda *a: None)


@pytest.mark.parametrize("failure", [singular_preconditioner, unconverged_gmres])
def test_truncation_check_falls_back_to_the_complete_lu(failure, monkeypatch):
    # the (6, 8) check, 1316 unknowns, takes the real path
    base = solve_point(WEAK_POINT, SectorTerms.build(HilbertSpace(3, 4)))
    want = check_truncation(WEAK_POINT, base)
    failure(monkeypatch)
    factors = complete_lus(monkeypatch)
    check = check_truncation(WEAK_POINT, base)
    assert want["max_deviation"] <= want["tolerance"]
    report, wanted = check["report"], want["report"]
    assert report["residual_norm"] < RESIDUAL_TOL
    # the complete LU is refined as GMRES is, to the same answer
    for key in ("residual_norm", "min_eigenvalue"):
        assert report[key] == wanted[key], key
    assert check["max_deviation"] == want["max_deviation"]
    assert report["refine_steps"] >= 1
    # one complete LU, whose entries the check records
    assert factors == [report["lu_nnz"]] and report["lu_nnz"] > wanted["lu_nnz"]


# _refined gives up on an unconverged answer only where np.longdouble is
# wider than float64 (test_refinement_in_float64_returns_its_last_iterate)
extended_precision = pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
    reason="np.longdouble is float64 here",
)


@extended_precision
def test_refinement_returns_nothing_when_corrections_never_shrink():
    # a solve off by a factor 2 makes every correction as large as y
    modified = sp.identity(4, format="csc")
    rhs = np.arange(1.0, 5.0)
    calls = []
    assert pairsim.steady._refined(
        modified, rhs, lambda b: calls.append(b) or 2.0 * b
    ) is None
    assert len(calls) == 1 + MAX_REFINE
    # the exact solve stops on the first correction, which is zero
    y, steps = pairsim.steady._refined(modified, rhs, lambda b: b.copy())
    assert y.tolist() == rhs.tolist() and steps == 1


def test_refinement_in_float64_returns_its_last_iterate(monkeypatch):
    # where np.longdouble is float64 the corrections stall near the
    # condition number times eps: the level factors' answer is kept after
    # MAX_REFINE steps, for the residual test to judge, and agrees with
    # the extended-precision one
    space = HilbertSpace(6, 12)
    terms = SectorTerms.build(space)
    want, _ = solve_steady(FIG5_WEAK_LOW, terms)
    monkeypatch.setattr(np, "longdouble", np.float64)
    factors = complete_lus(monkeypatch)
    x, report = solve_steady(FIG5_WEAK_LOW, terms)
    assert factors == [] and report.residual_norm < RESIDUAL_TOL
    got, ref = compute_observables(x, terms), compute_observables(want, terms)
    for key in SCALAR_KEYS:
        assert _deviation(getattr(got, key), getattr(ref, key)) <= 1e-12, key
    # there a solve that never converges also returns its last iterate
    y, steps = pairsim.steady._refined(
        sp.identity(4, format="csc"), np.arange(1.0, 5.0), lambda b: 2.0 * b
    )
    assert steps == MAX_REFINE and not np.allclose(y, np.arange(1.0, 5.0))


@extended_precision
def test_unconverged_refinement_falls_back_then_raises(monkeypatch, real_path):
    # GMRES whose answers are doubled never refines: the complete LU takes
    # over and gives the same state; if its refinement fails too, the
    # solve raises instead of returning the last iterate
    terms = SectorTerms.build(HilbertSpace(3, 3))
    want, _ = solve_steady(WEAK_POINT, terms)
    gmres = pairsim.steady._gmres
    monkeypatch.setattr(pairsim.steady, "_gmres", lambda *a: 2.0 * gmres(*a))
    factors = complete_lus(monkeypatch)
    x, report = solve_steady(WEAK_POINT, terms)
    assert factors == [report.lu_nnz] and 1 <= report.refine_steps <= MAX_REFINE
    assert_allclose(x, want, rtol=0, atol=1e-15)
    complete = pairsim.steady._complete_lu

    def doubled(a):
        lu = complete(a)
        return SimpleNamespace(solve=lambda b: 2.0 * lu.solve(b), nnz=lu.nnz)

    monkeypatch.setattr(pairsim.steady, "_complete_lu", doubled)
    with pytest.raises(ConvergenceError, match="refinement"):
        solve_steady(WEAK_POINT, terms)


def complete_lu(monkeypatch, permc_spec):
    singular_preconditioner(monkeypatch)
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a: splu(a, permc_spec=permc_spec))


@pytest.mark.parametrize(
    "params, space",
    [
        (WEAK_POINT, HilbertSpace(2, 3)),
        (WEAK_POINT, HilbertSpace(5, 5)),
        # fig5_weak's two ends at its truncation
        (replace(FIG5_WEAK_LOW, gamma_m=100.0), HilbertSpace(6, 12)),
        (FIG5_WEAK_LOW, HilbertSpace(6, 12)),
        # fig4's shipped check, which fell back to the complete LU when an
        # incomplete LU preconditioned GMRES
        (FIG4_CHECK, HilbertSpace(10, 10)),
    ],
)
def test_real_solve_agrees_whichever_factor_solved_it(params, space, monkeypatch, real_path):
    # the red-black level sweep with GMRES, the complete COLAMD LU it
    # falls back to, and a complete MMD_ATA LU agree to 1e-15 once refined.
    # Not every preconditioner need: _refined stops on a normwise test, and
    # with consecutive levels grouped to 1352 unknowns, log_neg moved by
    # 1.1e-12 at fig6's check
    terms = SectorTerms.build(space)
    values = []
    for fallback in (None, "COLAMD", "MMD_ATA"):
        with monkeypatch.context() as patch:
            if fallback is not None:
                complete_lu(patch, fallback)
            factors = complete_lus(patch)
            x, _ = solve_steady(params, terms)
        assert len(factors) == (fallback is not None), fallback
        values.append(compute_observables(x, terms))
    for other in values[1:]:
        for key in SCALAR_KEYS:
            x, y = getattr(values[0], key), getattr(other, key)
            assert abs(x - y) <= 1e-15 * max(abs(x), abs(y)), key


def gmres_iterations(monkeypatch) -> list[int]:
    """Record the iterations of every GMRES solve that ends within its first
    restart cycle: its preconditioner applications, one per iteration and
    one to form x."""
    counts = []
    gmres = pairsim.steady._gmres

    def counted(matrix, precond, b):
        calls = []
        x = gmres(matrix, lambda r: calls.append(r) or precond(r), b)
        # a second cycle would take GMRES_RESTART + 3 applications at least
        assert len(calls) <= GMRES_RESTART + 1
        counts.append(len(calls) - 1)
        return x

    monkeypatch.setattr(pairsim.steady, "_gmres", counted)
    return counts


def test_gmres_cap_counts_iterations_not_restart_cycles(monkeypatch):
    # at fig4's check every GMRES solve converges within the cap
    terms = SectorTerms.build(HilbertSpace(10, 10))
    counts, factors = gmres_iterations(monkeypatch), complete_lus(monkeypatch)
    solve_steady(FIG4_CHECK, terms)
    assert factors == [] and 0 < max(counts) <= GMRES_ITERATIONS
    # a cap one below the first solve's iterations stops it after exactly
    # that many, within its first restart cycle, and the complete LU solves
    cap = counts[0] - 1
    counts.clear()
    monkeypatch.setattr(pairsim.steady, "GMRES_ITERATIONS", cap)
    solve_steady(FIG4_CHECK, terms)
    assert counts == [cap] and len(factors) == 1


def test_gmres_converges_across_restarts_and_caps_their_iterations(monkeypatch):
    # a small non-symmetric system, Jacobi preconditioned, which takes 11
    # iterations unrestarted, restarted every 4
    rng = np.random.default_rng(7)
    dense = np.diag(np.linspace(1.0, 4.0, 40)) + 0.05 * rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    calls = []

    def jacobi(r):
        calls.append(r)
        return r / np.diag(dense)

    monkeypatch.setattr(pairsim.steady, "GMRES_RESTART", 4)
    x = pairsim.steady._gmres(sp.csc_matrix(dense), jacobi, b)
    assert len(calls) > 4 + 1  # more than one cycle
    assert np.linalg.norm(b - dense @ x) <= GMRES_RTOL * np.linalg.norm(b)
    want = np.linalg.solve(dense, b)
    assert_allclose(x, want, rtol=0, atol=1e-8 * np.abs(want).max())
    # a cap of 6 iterations, counted across cycles, ends the second cycle
    # after 2, each cycle forming x once, and returns nothing
    calls.clear()
    monkeypatch.setattr(pairsim.steady, "GMRES_ITERATIONS", 6)
    assert pairsim.steady._gmres(sp.csc_matrix(dense), jacobi, b) is None
    assert len(calls) == 6 + 2


def unvalidated_states(monkeypatch) -> list[np.ndarray]:
    """Record the sector vector each solve hands to _validated."""
    states = []
    validated = pairsim.steady._validated

    def recorded(x, *rest):
        states.append(x.copy())
        return validated(x, *rest)

    monkeypatch.setattr(pairsim.steady, "_validated", recorded)
    return states


@pytest.mark.parametrize("levels", [(5, 5), (6, 14)])
def test_blockwise_min_eigenvalue_matches_the_full_one(levels, monkeypatch, request):
    # validated in the sector, level by level, the state and its smallest
    # eigenvalue are those of the dense Hermitized state, block by block
    params = CANONICAL_POINTS[2][0]
    space = HilbertSpace(*levels)
    terms = SectorTerms.build(space)
    q = space.photon_values() - space.phonon_values()
    states = unvalidated_states(monkeypatch)
    # both paths at (5, 5); (6, 14) takes the real path either way, so once
    paths = (False, True) if terms.index.size <= pairsim.steady.COMPLEX_LU_UNKNOWNS else (True,)
    for real in paths:
        if real:
            request.getfixturevalue("real_path")
        solved, report = solve_steady(params, terms)
        x = states.pop()
        full = np.zeros(space.dim**2, dtype=complex)
        full[terms.index] = x
        raw = unvec(full, space.dim)
        want = 0.5 * (raw + raw.conj().T)
        assert solved.shape == x.shape, real
        assert terms.density_matrix(solved).tobytes() == want.tobytes(), real
        blockwise = min(
            float(np.linalg.eigvalsh(want[np.ix_(b, b)]).min())
            for b in (np.flatnonzero(q == value) for value in np.unique(q))
        )
        assert report.min_eigenvalue == blockwise, real
        assert abs(report.min_eigenvalue - np.linalg.eigvalsh(want).min()) <= 1e-15, real


def level_state(terms: SectorTerms, block: np.ndarray) -> np.ndarray:
    """The sector vector zero but for the top-left corner of the first
    level of at least 2 x 2 entries, which holds `block`."""
    level = next(level for level in terms.levels if level.size >= 4)
    side = math.isqrt(level.size)
    square = np.zeros((side, side), dtype=complex)
    square[: block.shape[0], : block.shape[1]] = block
    x = np.zeros(terms.index.size, dtype=complex)
    x[level] = vec(square)
    return x


def test_blockwise_validation_rejects_an_indefinite_block():
    terms = SectorTerms.build(HilbertSpace(2, 3))
    # eigenvalues 1.001 and -0.001, trace 1
    x = level_state(terms, np.array([[0.5, 0.5 + 1e-3], [0.5 + 1e-3, 0.5]]))
    with pytest.raises(ConvergenceError, match="indefinite"):
        _validated(x, terms.partner, terms.levels, 0.0, "test")


def test_validation_rejects_an_entry_perturbed_without_its_partner():
    terms = SectorTerms.build(HilbertSpace(2, 3))
    x = level_state(terms, np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
    _validated(x, terms.partner, terms.levels, 0.0, "test")  # a valid state
    # the same state, Hermitian still, with its trace 1e-9 off
    with pytest.raises(ConvergenceError, match="trace off by"):
        _validated(x * (1 + 1e-9), terms.partner, terms.levels, 0.0, "test")
    off = np.flatnonzero(x.imag > 0)[0]
    assert terms.partner[off] != off
    x[off] += 1e-9
    with pytest.raises(ConvergenceError, match="not Hermitian"):
        _validated(x, terms.partner, terms.levels, 0.0, "test")


def test_null_space_oracle_rejects_an_indefinite_full_space_state():
    # a unit-trace Hermitian state, indefinite through a coherence between
    # two n - m blocks, as the one null vector of L = 1 - u u^H; the oracle
    # assumes no symmetry, so its one group of all dim^2 entries sees it
    space = HilbertSpace(1, 1)
    q = space.photon_values() - space.phonon_values()
    i, j = (int(np.flatnonzero(q == value)[0]) for value in (0, 1))
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[i, i] = rho[j, j] = 0.5
    rho[i, j] = rho[j, i] = 0.5 + 1e-3  # eigenvalues 1.001 and -0.001
    u = vec(rho) / np.linalg.norm(rho)
    lv = sp.csr_matrix(np.eye(space.dim**2) - np.outer(u, u.conj()))
    with pytest.raises(ConvergenceError, match="indefinite"):
        null_space_steady(lv, space)


def test_validation_adds_no_dense_state_after_the_solve(monkeypatch):
    # from the level-preconditioned solve's return to solve_steady's,
    # the state is validated and returned in the sector, so the traced peak
    # grows by sector-sized temporaries at most, far below one dense state
    space = HilbertSpace(12, 16)  # fig6's truncation check
    terms = SectorTerms.build(space)
    preconditioned = pairsim.steady._preconditioned
    at_return = []

    def marked(*args):
        solved = preconditioned(*args)
        at_return.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return solved

    monkeypatch.setattr(pairsim.steady, "_preconditioned", marked)
    tracemalloc.start()
    try:
        solve_steady(CANONICAL_POINTS[1][0], terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sector = terms.index.size * np.dtype(complex).itemsize
    assert peak - at_return[0] < 4 * sector < space.dim**2 * np.dtype(complex).itemsize / 5


def test_observables_add_no_dense_state():
    # the log negativity reads its n + m blocks off the sector vector, so
    # the traced peak of compute_observables is a few sector vectors; with a
    # dense mode_dim x mode_dim state and its partial transpose it was 27
    terms = SectorTerms.build(HilbertSpace(12, 16))  # fig6's truncation check
    x, _ = solve_steady(CANONICAL_POINTS[1][0], terms)
    tracemalloc.start()
    try:
        compute_observables(x, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * x.nbytes
