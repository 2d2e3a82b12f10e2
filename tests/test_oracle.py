"""Pair statistics and the log negativity against 40-digit steady states.

tests/oracle_digits.py solves the (3, 4) truncation of each point below in
40 significant digits with mpmath, from the model's definition and the
parameters' float64 values, and prints the digits stored here, so this test
needs no mpmath.  Its log negativity comes from the dense photon partial
transpose of the atom-traced state, not from the n + m blocks that
observables.log_negativity reads off the sector vector.  At (3, 4), 240
unknowns, a row takes solve_steady's complete complex LU; the real path is
held there too (the real_path fixture).  Both must reproduce the digits to
1e-13 relative.

fig5_weak at gamma_m = 100 is the weakest drive of the shipped sweeps: <m> =
1.6e-6 and g2_m = 1.6e-3, so its two-phonon population is about 2e-15 of
the vacuum's.  At its shipped (6, 12) and at (6, 14) its statistics sit at
most 3.6e-13 from the (3, 4) digits, and its log negativity 5.8e-15, so
there the digits hold the solves to 1e-11.  There a row's sector (2100 and
2492 unknowns) is above steady.COMPLEX_LU_UNKNOWNS, so solve_steady takes
the real path; the unrefined complex LU would miss the bound, its g2_n
2.5e-7 off at (6, 12) and its g2_m 1.1e-5 off at (6, 14).
"""

import pytest
from numpy.testing import assert_allclose

from pairsim.model import SectorTerms, SystemParams
from pairsim.observables import compute_observables
from pairsim.operators import HilbertSpace
from pairsim.steady import solve_steady
from pairsim.sweep import solve_point

# name: (parameters, digits of the (3, 4) steady state)
ORACLE = {
    # fig5_weak's last row
    "fig5_weak gamma_m=100": (
        SystemParams(
            delta=0.1, j_coupling=0.1, omega=1.0, kappa=1.0, gamma_c=10.0, gamma_m=100.0
        ),
        {
            "mean_n": 0.0000160783832090783246584475,
            "mean_m": 0.00000160783832090783246584475,
            "g2_n": 0.07540609389421407019980405,
            "g2_m": 0.001603382209463588294744289,
            "g2_nm": 56541.25802340529565670825,
            "log_neg": 0.001162408422579309135214002,
        },
    ),
    # the row that fig4's truncation check doubles
    "fig4 j_coupling=19.05": (
        SystemParams(
            delta=19.054607179632484, j_coupling=19.054607179632484, omega=1.0,
            kappa=1.0, gamma_c=10.0, gamma_m=10.0,
        ),
        {
            "mean_n": 0.01766142145936552291801982,
            "mean_m": 0.01766142145936552291801982,
            "g2_n": 0.3598875716248076749671754,
            "g2_m": 0.3598894426061477351366793,
            "g2_nm": 28.67018058357002099109814,
            "log_neg": 0.2297913524512242201291782,
        },
    ),
    # fig7's hottest bath
    "fig7 m_th=1": (
        SystemParams(
            delta=100.0, j_coupling=100.0, omega=1.0, kappa=1.0, gamma_c=10.0,
            gamma_m=10.0, m_th=1.0,
        ),
        {
            "mean_n": 0.00352697676253216353549454,
            "mean_m": 0.8415881988423623000997395,
            "g2_n": 0.5605478852897591568545148,
            "g2_m": 1.463062083365194855116755,
            "g2_nm": 1.230786012129212162353072,
            "log_neg": 0.00000120719136105517806482827,
        },
    ),
    # fig6's slowest phonon
    "fig6 gamma_m=0.001": (
        SystemParams(
            delta=100.0, j_coupling=100.0, omega=1.0, kappa=1.0, gamma_c=10.0, gamma_m=0.001
        ),
        {
            "mean_n": 0.0001693290826089450028736965,
            "mean_m": 1.693290826089449993488269,
            "g2_n": 13.66591101349963250413847,
            "g2_m": 0.5866081289042691250450279,
            "g2_nm": 1.178422883622714828584378,
            "log_neg": 0.0002848238308353525422187231,
        },
    ),
}


def real_solve(params, terms):
    """solve_steady's record, on its real path at (3, 4) under the
    real_path fixture."""
    x, _ = solve_steady(params, terms)
    return compute_observables(x, terms)


def row_solve(params, terms):
    record, _ = solve_point(params, terms)
    return record


def assert_digits(solver, name: str, levels: tuple[int, int], rtol: float) -> None:
    params, digits = ORACLE[name]
    record = solver(params, SectorTerms.build(HilbertSpace(*levels)))
    got = [getattr(record, key) for key in digits]
    assert_allclose(got, list(digits.values()), rtol=rtol, atol=0)


@pytest.mark.parametrize("solver", [real_solve, row_solve])
@pytest.mark.parametrize("name", ORACLE)
def test_the_oracle_truncation_matches_its_digits(name, solver, request):
    if solver is real_solve:
        request.getfixturevalue("real_path")
    assert_digits(solver, name, (3, 4), 1e-13)


@pytest.mark.parametrize("levels", [(6, 12), (6, 14)])
def test_the_weakest_drive_matches_its_digits_at_taller_truncations(levels):
    # a row's solve, which is solve_steady's real path at these sizes
    assert_digits(row_solve, "fig5_weak gamma_m=100", levels, 1e-11)
