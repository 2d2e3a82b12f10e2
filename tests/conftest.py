"""Test-session setup shared by every test module."""

import os

import pytest

# One BLAS thread, as the benchmark runs with: the suite's many small dense
# calls gain nothing from more, and beside another busy process they slow
# down by several times.  Set before any test module imports numpy, and
# only where the environment does not choose already.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def real_path(monkeypatch):
    """Send every sector solve to solve_steady's real path, whatever its
    size: steady.COMPLEX_LU_UNKNOWNS, the threshold it reads, set to 0.
    Forked sweep workers inherit the setting."""
    import pairsim.steady

    monkeypatch.setattr(pairsim.steady, "COMPLEX_LU_UNKNOWNS", 0)


@pytest.fixture(scope="session")
def sweep_results():
    """The seven shipped sweeps as shipped, run once for the whole session:
    acceptance criteria 5, 6 and 8, the reference comparison and the
    observables tests read their rows."""
    from pathlib import Path

    import pairsim
    from pairsim.sweep import load_config, run_sweep

    configs = Path(pairsim.__file__).parent / "configs"
    names = ("fig4", "fig2_strong", "fig5_weak", "fig5_strong", "fig6", "fig2_weak", "fig7")
    return {name: run_sweep(load_config(str(configs / f"{name}.yaml"))) for name in names}
