"""pairsim: steady states and pair correlations of a driven atom that emits
photon-phonon pairs into two damped modes.

The library is organized bottom-up, one module per job; import each name
from its module (for example `from pairsim.sweep import load_config`):
operators (truncated algebra), model (Hamiltonian and Liouvillian), steady
(the sector solver), observables (correlations, named elements,
entanglement), sweep (config-driven parameter scans), cli (command line,
with `pairsim check`, which solves the packaged points of check_points.json
again) and errors (the exceptions).
"""

__version__ = "0.1.0"
