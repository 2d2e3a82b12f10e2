"""pairsim: steady states and pair correlations of a driven atom that emits
photon-phonon pairs into two damped modes.

The library is organized bottom-up: operators (truncated algebra), model
(Hamiltonian and Liouvillian), steady (solvers and oracles), observables
(correlations, named elements, entanglement), analytics (the analytic
pair-subspace spectrum), sweep (config-driven parameter scans), cli
(command line, with the `pairsim check` smoke test).
"""

__version__ = "0.1.0"

from .analytics import SpectrumReport, pair_subspace_spectrum
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSteadyStateError,
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
    log_negativity,
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
    "partial_trace_atom",
    "log_negativity",
    "named_elements",
    "SpectrumReport",
    "pair_subspace_spectrum",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "load_config",
    "solve_point",
    "check_truncation",
    "run_sweep",
    "emit_csv",
    "emit_json",
    "PairsimError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateSteadyStateError",
    "TruncationError",
]
