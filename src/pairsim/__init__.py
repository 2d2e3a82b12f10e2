"""pairsim: steady states and pair correlations of a driven atom that emits
photon-phonon pairs into two damped modes.

The library is organized bottom-up: operators (truncated algebra), model
(Hamiltonian and Liouvillian), steady (solvers and oracles), observables
(correlations, named elements, entanglement), analytics (closed-form
cross-checks), sweep (config-driven parameter scans), cli (command line).
"""

__version__ = "0.1.0"

from .analytics import (
    SpectrumReport,
    WeakExcitationEstimate,
    equal_damping_residual,
    in_weak_excitation_regime,
    manifold_leakage,
    pair_subspace_spectrum,
    resonance_locator,
    weak_excitation_estimate,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSteadyStateError,
    InvalidSweepError,
    PairsimError,
    TruncationError,
)
from .model import (
    SystemParams,
    build_hamiltonian,
    build_liouvillian,
    lindblad_dissipator,
)
from .observables import (
    ObservableRecord,
    compute_observables,
    g2_auto,
    g2_cross,
    log_negativity,
    mean_number,
    named_elements,
    partial_trace_atom,
)
from .operators import HilbertSpace
from .steady import (
    SolveReport,
    evolve_to_steady,
    null_space_steady,
    solve_steady,
    suggest_step,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    SweepRow,
    check_truncation,
    emit_csv,
    emit_json,
    load_config,
    read_csv,
    run_sweep,
    solve_point,
)

__all__ = [
    "__version__",
    "HilbertSpace",
    "SystemParams",
    "build_hamiltonian",
    "build_liouvillian",
    "lindblad_dissipator",
    "SolveReport",
    "solve_steady",
    "null_space_steady",
    "evolve_to_steady",
    "suggest_step",
    "ObservableRecord",
    "compute_observables",
    "mean_number",
    "g2_auto",
    "g2_cross",
    "partial_trace_atom",
    "log_negativity",
    "named_elements",
    "WeakExcitationEstimate",
    "weak_excitation_estimate",
    "SpectrumReport",
    "pair_subspace_spectrum",
    "resonance_locator",
    "equal_damping_residual",
    "manifold_leakage",
    "in_weak_excitation_regime",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "load_config",
    "solve_point",
    "check_truncation",
    "run_sweep",
    "emit_csv",
    "emit_json",
    "read_csv",
    "PairsimError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateSteadyStateError",
    "TruncationError",
    "InvalidSweepError",
]
