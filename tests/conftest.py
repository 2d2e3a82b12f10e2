"""Test-session setup shared by every test module."""

import os

# One BLAS thread, as the benchmark runs with: the suite's many small dense
# calls gain nothing from more, and beside another busy process they slow
# down by several times.  Set before any test module imports numpy, and
# only where the environment does not choose already.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
