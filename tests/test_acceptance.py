"""Acceptance suite: ten numbered end-to-end criteria, and the shipped
sweeps that bench/reference holds, row by row.

Each test prints one "criterion NN PASS" line (visible with pytest -s; the
-v test status line carries the same verdict).  Tolerances are pinned in
the assertions, not configurable.

The six canonical parameter points used by criteria 3 and 10 are one
representative point from each study the package ships configs for: the two
detuning sweeps, the coupling sweep, a mechanical-damping point from each
coupling regime, and a thermal point.
"""

import importlib
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    equal_damping_residual,
    evolve_to_steady,
    in_weak_excitation_regime,
    resonance_locator,
    vacuum_state,
)
from pairsim.analytics import pair_subspace_spectrum
from pairsim.cli import CHECK_CASES, run_check
from pairsim.model import SectorTerms, SystemParams, build_liouvillian, trace_functional
from pairsim.observables import compute_observables
from pairsim.operators import HilbertSpace
from pairsim.steady import null_space_steady, solve_steady
from pairsim.sweep import (
    check_truncation,
    emit_csv,
    emit_json,
    load_config,
    run_sweep,
    solve_point,
)

SPACE = HilbertSpace(5, 5)

CANONICAL = {
    "fig2_weak": SystemParams(
        delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.0
    ),
    "fig2_strong": SystemParams(
        delta=100.0, j_coupling=100.0, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.0
    ),
    "fig4": SystemParams(
        delta=1.0, j_coupling=1.0, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.0
    ),
    "fig5_weak": SystemParams(
        delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=1.32, m_th=0.0
    ),
    "fig6": SystemParams(
        delta=100.0, j_coupling=100.0, omega=1.0, gamma_c=10.0, gamma_m=1.0, m_th=0.0
    ),
    "fig7": SystemParams(
        delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.01
    ),
}


def observe(params: SystemParams, space: HilbertSpace = SPACE):
    """The observable record of one point, through the sweep's pipeline."""
    return solve_point(params, SectorTerms.build(space))[0]


def shipped_config(name: str):
    path = resources.files("pairsim").joinpath(f"configs/{name}.yaml")
    with resources.as_file(path) as p:
        return load_config(str(p))


@pytest.fixture(scope="module")
def solved_canonicals():
    """Sparse steady state, Liouvillian, and observables at every canonical
    point, shared by criteria 3 and 10."""
    out = {}
    terms = SectorTerms.build(SPACE)
    for name, params in CANONICAL.items():
        lv = build_liouvillian(params, SPACE)
        rho, report = solve_steady(params, terms)
        out[name] = (lv, rho, report, compute_observables(rho, SPACE))
    return out


@pytest.fixture(scope="module")
def sweep_results():
    """The shipped sweeps used by criteria 5, 6, and 8 and by the reference
    comparison (run once each)."""
    out = {}
    names = ("fig4", "fig2_strong", "fig5_weak", "fig5_strong", "fig6", "fig2_weak", "fig7")
    for name in names:
        out[name] = run_sweep(shipped_config(name))
    return out


@pytest.fixture(scope="module")
def thermal_panels():
    """E_N against m_th for both couplings (criterion 9), including the
    m_th = 0 anchor.  The grid decimates the shipped fig7 range."""
    terms = SectorTerms.build(HilbertSpace(6, 14))
    grid = np.geomspace(1e-3, 1.0, 13)
    panels = {}
    for j in (0.1, 100.0):
        base = SystemParams(
            delta=j, j_coupling=j, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.0
        )
        at_zero = solve_point(base, terms)[0].log_neg
        values = [
            solve_point(base.with_value("m_th", float(m_th)), terms)[0].log_neg
            for m_th in grid
        ]
        panels[j] = (at_zero, grid, np.array(values))
    return panels


def test_criterion_01_pair_subspace_spectrum():
    space = HilbertSpace(3, 3)
    for delta, j in ((0.0, 0.1), (0.0, 100.0), (5.0, 2.0)):
        params = SystemParams(
            delta=delta, j_coupling=j, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
        )
        report = pair_subspace_spectrum(params, space)
        expected = (delta - j, delta + j)
        assert abs(report.pair_doublet[0] - expected[0]) < 1e-10
        assert abs(report.pair_doublet[1] - expected[1]) < 1e-10
        # dressed vectors (|g,1,1> -/+ |e,0,0>)/sqrt(2), up to a global phase
        i_atom, i_pair = report.pair_basis
        for col, sign in zip(report.doublet_vectors.T, (-1.0, 1.0)):
            target = np.zeros(space.dim, dtype=complex)
            target[i_pair] = 1.0 / np.sqrt(2.0)
            target[i_atom] = sign / np.sqrt(2.0)
            overlap = abs(np.vdot(target, col))
            assert abs(overlap - 1.0) < 1e-12
    print("criterion  1 PASS: pair doublet at delta -/+ J with (|g,1,1> -/+ |e,0,0>)/sqrt(2)")


def test_criterion_02_exact_limit_fixed_points():
    # (a) undriven: exact vacuum with zero/undefined observables
    space = HilbertSpace(3, 3)
    params = SystemParams(
        delta=0.3, j_coupling=2.0, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
    )
    terms = SectorTerms.build(space)
    rho, _ = solve_steady(params, terms)
    assert float(np.abs(rho - vacuum_state(space)).max()) < 1e-12
    obs = compute_observables(rho, space)
    assert obs.mean_n == 0.0 and obs.mean_m == 0.0 and obs.log_neg == 0.0
    assert obs.g2_n is None and obs.g2_m is None and obs.g2_nm is None

    # (b) bare thermal phonon at (2, 24): <m> = 0.5 and g2_m = 2 to 1e-6
    # (the phonon space must reach high enough that the truncated geometric
    # tail cannot bias the second factorial moment); `pairsim check` runs
    # the same case
    ok, detail = run_check(CHECK_CASES["thermal detailed balance"])
    assert ok, detail

    # (c) resonantly driven atom (omega = kappa = 1 at (2, 2)), dense
    # null-space oracle first; the sparse solve's 4/9 is `pairsim check`'s
    # driven-atom case
    case = CHECK_CASES["driven-atom population"]
    space = HilbertSpace(*case.truncation)
    lv = build_liouvillian(case.params, space)
    i_e = space.index(1, 0, 0)
    rho_oracle = null_space_steady(lv, space)
    assert abs(rho_oracle[i_e, i_e].real - 4.0 / 9.0) < 1e-8
    ok, detail = run_check(case)
    assert ok, detail
    terms = SectorTerms.build(space)
    rho_sparse, _ = solve_steady(case.params, terms)
    assert float(np.abs(rho_sparse - rho_oracle).max()) < 1e-10
    print("criterion  2 PASS: vacuum, thermal (<m>=0.5, g2_m=2), and driven-atom 4/9 limits")


def test_criterion_03_oracle_equivalence(solved_canonicals):
    worst = 0.0
    for name, (lv, rho, _, _) in solved_canonicals.items():
        evolved, _ = evolve_to_steady(lv, vacuum_state(SPACE), t_max=3000.0)
        gap = float(np.abs(evolved - rho).max())
        assert gap < 1e-6, f"{name}: solver/integration gap {gap:.2e}"
        worst = max(worst, gap)
    print(f"criterion  3 PASS: direct solve vs time integration agree "
          f"(worst elementwise gap {worst:.1e} over {len(solved_canonicals)} points)")


def test_criterion_04_blockade_with_cross_bunching():
    points = [
        ("weak, resonant", SystemParams(
            delta=0.0, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.0
        )),
        ("strong, delta=+J", SystemParams(
            delta=100.0, j_coupling=100.0, omega=1.0, gamma_c=10.0, gamma_m=10.0,
            m_th=0.0,
        )),
        ("strong, delta=-J", SystemParams(
            delta=-100.0, j_coupling=100.0, omega=1.0, gamma_c=10.0, gamma_m=10.0,
            m_th=0.0,
        )),
    ]
    for label, params in points:
        obs = observe(params)
        assert obs.g2_n is not None and obs.g2_m is not None and obs.g2_nm is not None
        assert obs.g2_n < 1.0, f"{label}: g2_n = {obs.g2_n}"
        assert obs.g2_m < 1.0, f"{label}: g2_m = {obs.g2_m}"
        assert obs.g2_nm > 10.0, f"{label}: g2_nm = {obs.g2_nm}"
        assert abs(obs.g2_n - obs.g2_m) < 1e-8, f"{label}: auto-correlation mismatch"
    print("criterion  4 PASS: simultaneous blockade (g2 < 1) with cross bunching "
          "(g2_nm > 10) at both couplings")


def test_criterion_05_equal_damping_closure(sweep_results):
    rows = sweep_results["fig4"].rows
    included = 0
    worst = 0.0
    for row in rows:
        assert row.error is None
        rec = row.record
        if max(rec.mean_n, rec.mean_m) >= 0.01:
            continue
        residual = equal_damping_residual(rec)
        assert residual is not None
        assert residual < 0.1, f"J = {row.axis_value:g}: residual {residual:.3f}"
        included += 1
        worst = max(worst, residual)
    assert included > 30
    print(f"criterion  5 PASS: g2_nm tracks 1/(2<n>) at {included} low-occupation "
          f"points (worst residual {worst:.3f})")


def test_criterion_06_rate_balance_ratios(sweep_results):
    # the two coupling panels of the mechanical-damping study; the weak
    # panel runs on the 0.01..100 grid, which contains the entire
    # weak-excitation subrange (below it the phonon piles up and the
    # occupation clause fails anyway)
    panels = {0.1: sweep_results["fig5_weak"], 100.0: sweep_results["fig6"]}
    gamma_c = 10.0
    for j, result in panels.items():
        included = 0
        bounds = [np.inf, -np.inf]
        for row in result.rows:
            assert row.error is None
            rec = row.record
            if not in_weak_excitation_regime(rec):
                continue
            gamma_m = row.axis_value
            r33, r44, r55 = (rec.elements[k] for k in ("rho33", "rho44", "rho55"))
            assert r55 > 0.0
            ratio_a = r33 * gamma_m / (r55 * gamma_c)
            ratio_b = r44 * gamma_c / (r55 * gamma_m)
            for ratio in (ratio_a, ratio_b):
                assert 0.85 <= ratio <= 1.15, (
                    f"J = {j}, gamma_m = {gamma_m:g}: ratio {ratio:.3f}"
                )
                bounds = [min(bounds[0], ratio), max(bounds[1], ratio)]
            included += 1
        assert included >= 10, f"J = {j}: only {included} points in the subrange"

        # population equality where the damping rates match
        at_gc = min(result.rows, key=lambda r: abs(np.log(r.axis_value / gamma_c)))
        r33, r44, r55 = (at_gc.record.elements[k] for k in ("rho33", "rho44", "rho55"))
        assert 0.85 <= r33 / r55 <= 1.15
        assert 0.85 <= r44 / r55 <= 1.15
        print(f"criterion  6 PASS: J = {j:g}: {included} subrange points with "
              f"rate-balance ratios in [{bounds[0]:.3f}, {bounds[1]:.3f}], "
              f"rho33/rho55 = {r33 / r55:.3f} at gamma_m = gamma_c")


def test_criterion_07_slow_phonon_population():
    params = SystemParams(
        delta=100.0, j_coupling=100.0, omega=1.0, gamma_c=10.0, gamma_m=0.01, m_th=0.0
    )
    r33 = observe(params).elements["rho33"]
    assert abs(r33 - 0.875) < 0.03
    print(f"criterion  7 PASS: slowly drained single-phonon state holds "
          f"rho33 = {r33:.4f} (target 0.875 +/- 0.03)")


def test_criterion_08_entanglement_structure(sweep_results):
    # (a) nonnegative everywhere; zero for product steady states
    for result in sweep_results.values():
        for row in result.rows:
            assert row.record.log_neg >= 0.0
    space = HilbertSpace(3, 3)
    for m_th in (0.0, 0.4):
        params = SystemParams(
            delta=0.2, j_coupling=0.0, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=m_th
        )
        assert observe(params, space).log_neg < 1e-10

    # (b) detuning resonances of E_N at delta = -/+ J
    rows = sweep_results["fig2_strong"].rows
    deltas = np.array([row.axis_value for row in rows])
    log_neg = np.array([row.record.log_neg for row in rows])
    cell = deltas[1] - deltas[0]
    lo, hi = resonance_locator(deltas, log_neg)
    assert abs(hi - 100.0) <= cell
    assert lo == -hi

    # (c) interior optimum of E_N over the mechanical damping rate,
    # parabolic refinement on the log-spaced grid
    landmarks = {"fig5_weak": 1.32, "fig5_strong": 3.47}
    refined = {}
    for name, target in landmarks.items():
        rows = sweep_results[name].rows
        gammas = np.array([row.axis_value for row in rows])
        values = np.array([row.record.log_neg for row in rows])
        k = int(np.argmax(values))
        assert 0 < k < len(rows) - 1, f"{name}: maximum not interior"
        x = np.log(gammas[k - 1 : k + 2])
        y = values[k - 1 : k + 2]
        denom = (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])
        a = (x[2] * (y[1] - y[0]) + x[1] * (y[0] - y[2]) + x[0] * (y[2] - y[1])) / denom
        b = (x[2] ** 2 * (y[0] - y[1]) + x[1] ** 2 * (y[2] - y[0])
             + x[0] ** 2 * (y[1] - y[2])) / denom
        peak = float(np.exp(-b / (2.0 * a)))
        assert abs(peak - target) <= 0.2 * target, f"{name}: peak at {peak:.3f}"
        refined[name] = peak
    print(f"criterion  8 PASS: E_N >= 0, zero for products, detuning peaks at -/+ J, "
          f"damping optima {refined['fig5_weak']:.2f} and {refined['fig5_strong']:.2f} "
          f"(targets 1.32, 3.47 +/- 20%)")


def test_criterion_09_thermal_robustness(thermal_panels):
    half_points = {}
    for j, (at_zero, grid, values) in thermal_panels.items():
        assert at_zero > 0.0
        assert values[0] <= at_zero + 1e-9
        rises = np.diff(values)
        assert np.all(rises <= 1e-9), f"J = {j}: E_N rises by {rises.max():.2e}"
        half = 0.5 * at_zero
        assert values[-1] < half, f"J = {j}: grid does not reach the half point"
        k = int(np.argmax(values <= half))
        x0, x1 = np.log(grid[k - 1]), np.log(grid[k])
        y0, y1 = values[k - 1], values[k]
        half_points[j] = float(np.exp(x0 + (half - y0) * (x1 - x0) / (y1 - y0)))
    assert half_points[100.0] > half_points[0.1]
    print(f"criterion  9 PASS: E_N non-increasing in m_th; half-value at "
          f"m_th = {half_points[100.0]:.3f} (J=100) vs {half_points[0.1]:.4f} (J=0.1)")


def test_criterion_10_structural_invariants(solved_canonicals):
    def agree(x, y, tol=1e-8):
        if x is None or y is None:
            return x is None and y is None
        return abs(x - y) <= tol * max(abs(x), abs(y), 1.0)

    small = HilbertSpace(3, 3)
    for name, params in CANONICAL.items():
        lv, rho, report, obs = solved_canonicals[name]

        # trace preservation of the generator
        left = trace_functional(SPACE.dim)
        assert float(np.abs(left @ lv).max()) < 1e-12, name

        # density-matrix invariants of the solution
        assert float(np.abs(rho - rho.conj().T).max()) == 0.0, name
        assert abs(np.trace(rho).real - 1.0) < 1e-10, name
        assert float(np.linalg.eigvalsh(rho).min()) > -1e-8, name
        assert report.residual_norm < 1e-10, name

        # detuning parity: flipping the sign of delta changes no reported
        # observable
        obs_flip = observe(params.with_value("delta", -params.delta))
        for field in ("mean_n", "mean_m", "g2_n", "g2_m", "g2_nm", "log_neg"):
            assert agree(getattr(obs, field), getattr(obs_flip, field)), (name, field)
        for key, value in obs.elements.items():
            assert agree(value, obs_flip.elements[key]), (name, key)

        # photon/phonon exchange symmetry where the two baths are identical
        # (equal rates and no thermal drive; m_th > 0 feeds only the phonon)
        if params.gamma_c == params.gamma_m and params.m_th == 0.0:
            assert agree(obs.mean_n, obs.mean_m), name
            assert agree(obs.g2_n, obs.g2_m), name
            assert agree(obs.elements["rho33"], obs.elements["rho44"]), name

        # scale covariance: doubling every rate-like parameter doubles the
        # generator exactly (m_th is dimensionless and stays put)
        doubled = SystemParams(
            delta=2 * params.delta, j_coupling=2 * params.j_coupling,
            omega=2 * params.omega, kappa=2 * params.kappa,
            gamma_c=2 * params.gamma_c, gamma_m=2 * params.gamma_m, m_th=params.m_th,
        )
        diff = build_liouvillian(doubled, small) - 2.0 * build_liouvillian(params, small)
        assert float(np.abs(diff.toarray()).max()) == 0.0, name

    # truncation convergence, doubling (5, 5) to (10, 10)
    for name, params in CANONICAL.items():
        _, _, report, obs = solved_canonicals[name]
        check = check_truncation(params, (obs, report))
        assert check["max_deviation"] <= check["tolerance"], f"{name}: not converged at (5, 5)"
    print("criterion 10 PASS: trace preservation, state invariants, parity, "
          "exchange symmetry, scale covariance, and (5,5)->(10,10) convergence "
          "at all six canonical points")


BENCH = Path(__file__).resolve().parent.parent / "bench"


# The benchmark gates its reference at 1e-12 relative plus 1e-15 absolute
# on the machine that made it.  Elsewhere (another SuperLU ordering, BLAS
# kernel or np.longdouble) a cell moves by its solver's forward error,
# measured against bench/reference by solving every row of the three grids
# another way, one BLAS thread: fig2_weak's rows, whose complex LU is not
# refined, moved up to 1.5e-11 relative with MMD_ATA in place of COLAMD,
# 29 cells past 1e-12; fig6's and fig7's rows, which the real solve
# refines, stayed within 1e-12 relative with MMD_ATA, with the complete LU
# and with float64 residuals, and the cells below 1e-3 moved up to 6.4e-16
# absolute (fig7's log_neg of 1.27e-6 at m_th = 1).
PORTABLE_REL_TOL = {"fig2_weak": 1e-10, "fig6": 1e-12, "fig7": 1e-12}
PORTABLE_ABS_TOL = 1e-14


@pytest.mark.parametrize("name", list(PORTABLE_REL_TOL))
def test_shipped_sweep_matches_its_reference(name, sweep_results, tmp_path, monkeypatch):
    # every row of the full grid, written as `pairsim sweep` writes it, is
    # held to the benchmark's reference by the benchmark's own check, at
    # the tolerance its solver's forward error allows on another machine
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads, "REL_TOL", PORTABLE_REL_TOL[name])
    monkeypatch.setattr(workloads, "ABS_TOL", PORTABLE_ABS_TOL)
    reference = json.loads((BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))
    result = sweep_results[name]
    csv_path, json_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    emit_csv(result, str(csv_path))
    emit_json(result, str(json_path))
    failed, notes = workloads.check_outputs(csv_path, json_path, reference["rows"])
    assert (failed, notes) == (0, [])
    assert len(result.rows) == len(reference["rows"])
