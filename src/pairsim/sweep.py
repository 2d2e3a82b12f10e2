"""Config-driven parameter sweeps with CSV and JSON output.

A sweep varies exactly one of {delta, j_coupling, gamma_m, m_th} over an
explicit grid, solves the steady state at every point, and records the full
observable set per point.  Points that fail to solve are recorded with an
error marker; they are never interpolated over or silently dropped.

solve_point(params, terms) is the one per-point pipeline (sector solve,
then reduction to an ObservableRecord); sweeps, the truncation check and the
CLI go through it.  The sector solve is steady.solve_steady, which picks its
factor by the sector's size (steady.py says how): a row or a check of more
than steady.COMPLEX_LU_UNKNOWNS unknowns is solved in real arithmetic, by
GMRES preconditioned level by level in q = n - m, and a smaller one by a
complete complex LU.  The truncation check, check_truncation(params, base),
solves the doubled space as a row there would be solved, and returns one
record, the doubled point as a row holds it plus the verdict, which
run_sweep stores in the JSON metadata: a sweep whose check fails raises
instead of returning rows.

A delta sweep solves each |delta| once (detuning parity).  H and every
jump operator are real in the Fock basis, so complex conjugation maps the
generator L(delta) to the one with -H.  The atom parity U = sigma_z flips
sigma+ and sigma-, so it flips the J and Omega terms back and leaves every
dissipator as it is: the result is L(-delta).  So rho(-delta) =
U rho(delta)* U, and every reported column is the same at -delta as at
delta.  Conjugation and sign flips are exact in floating point, and the
sector solve sees the same magnitudes; on every mirrored pair of the
shipped delta grids, on both solve paths, record and report alike were
equal bit for bit.  So a grid row whose axis value is the exact float
negative of an earlier row's is not solved: it takes that row's record,
report and error (test_a_mirrored_row_equals_a_fresh_solve_at_minus_delta
holds the fact, and `pairsim check` solves fig2_weak's rows at -0.5 and
0.5 afresh).  Exact negatives only; never make a grid symmetric to solve
fewer rows, since that moves its axis values.

Every sweep solves its rows on forked worker processes, one pool of
_row_workers processes for every row: the rows are independent, and
processes overlap the real solve's SuperLU triangular solves, which two
threads ran slower than one (README, "Concurrent rows", gives the
measurements).  The pool takes the rows to solve in at most ROW_RUNS
contiguous runs, fixed by the grid alone; the workers inherit the
sweep's config and sector terms from the calling process instead of
receiving them.  Where _row_workers gives one process (its docstring
says when), the rows run serially in the calling process instead.
The rows and the check call a one-thread BLAS (_one_blas_thread):
spinning BLAS threads would take the CPUs the other rows need, and one
policy for every sweep makes each row's arithmetic that of a serial
one-thread solve, whatever the worker count, and the check's record
independent of the environment's thread count.

Output contract: a CSV whose first line is a comment carrying version and
timestamp (the only nondeterministic line), then a header, then one row per
grid point in axis order.  A JSON document mirroring the whole result is
written alongside for programmatic use.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
import threading
from concurrent.futures import BrokenExecutor  # BrokenProcessPool's base
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, PairsimError, TruncationError
# build_liouvillian is not called here; it stays importable from this
# module because bench/child.py traces calls through sweep's names.
from .model import SectorTerms, SystemParams, build_liouvillian  # noqa: F401
from .observables import ELEMENT_KEYS, SCALAR_KEYS, ObservableRecord, compute_observables
from .operators import HilbertSpace
from .steady import SolveReport, solve_steady

__all__ = [
    "AXES",
    "TRUNCATION_TOL",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "load_config",
    "solve_point",
    "check_truncation",
    "run_sweep",
    "emit_csv",
    "emit_json",
]

AXES = ("delta", "j_coupling", "gamma_m", "m_th")

UNDEF_TOKEN = "undef"
ERROR_TOKEN = "error"

# The largest relative change of a reported observable that the
# truncation-doubling check accepts.
TRUNCATION_TOL = 1e-6

# The most contiguous runs in which a sweep's worker processes take the
# rows it solves, whatever their number: runs of ceil(solved rows /
# ROW_RUNS) rows (9 rows make 5 runs), a mirrored row of a delta sweep
# being solved by none.
ROW_RUNS = 8

_CSV_COLUMNS = ("axis", *SCALAR_KEYS, *ELEMENT_KEYS, "residual", "converged")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep.  The fields are the one list of the config's settings:
    load_config reads the YAML keys (a field's name, or the key in its
    metadata), the required keys and every default off them."""

    axis: str
    axis_values: tuple[float, ...] = field(metadata={"key": "values"})
    base_params: SystemParams = field(default_factory=SystemParams, metadata={"key": "params"})
    couple_delta_to_j: bool = False
    truncation: tuple[int, int] = (5, 5)
    strict_truncation: bool = True
    output_path: str | None = field(default=None, metadata={"key": "output"})
    name: str = "sweep"

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        # stored as a tuple of floats, which JSON can write and which hashes
        if isinstance(self.axis_values, str) or not np.iterable(self.axis_values):
            raise ConfigError(f"axis_values must be a list of numbers, got {self.axis_values!r}")
        values = tuple(_number(v, "axis_values") for v in self.axis_values)
        object.__setattr__(self, "axis_values", values)
        if not values:
            raise ConfigError("axis_values must be non-empty")
        levels = self.truncation
        if not (
            isinstance(levels, (list, tuple, np.ndarray))
            and getattr(levels, "ndim", 1) == 1
            and len(levels) == 2
        ):
            raise ConfigError(f"truncation must be a pair, got {levels!r}")
        if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in levels):
            raise ConfigError(f"truncation must be whole numbers >= 2, got {levels}")
        # numpy levels are accepted, but stored as ints, which JSON can write
        object.__setattr__(self, "truncation", tuple(int(n) for n in levels))
        # the switches; a quoted "false" from YAML would be truthy
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, bool) and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be true or false, got {value!r}")
        if not (isinstance(self.name, str) and self.name):
            raise ConfigError(f"name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.output_path, (str, type(None))) or self.output_path == "":
            raise ConfigError(f"output must be a file path, got {self.output_path!r}")
        path = self.csv_path
        if os.path.splitext(path)[1].lower() == ".json":
            raise ConfigError(
                f"output is the CSV path and its JSON mirror would overwrite it, got {path!r}"
            )
        if self.couple_delta_to_j and self.axis == "delta":
            raise ConfigError("couple_delta_to_j cannot be combined with a delta sweep")
        # a grid point the model rejects, a non-finite one among them, would
        # otherwise become an error row
        for value in self.axis_values:
            try:
                self.params_at(value)
            except ConfigError as exc:
                raise ConfigError(f"axis_values: {self.axis} = {value:g} is invalid ({exc})") from exc
        # after the points, so that a NaN is named rather than failing this
        steps = np.diff(values)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ConfigError("axis_values must be strictly monotone")

    @property
    def csv_path(self) -> str:
        """Where the CSV goes: output_path, or <name>.csv."""
        return f"{self.name}.csv" if self.output_path is None else self.output_path

    @property
    def json_path(self) -> str:
        """Where the JSON mirror goes: csv_path with its suffix replaced by .json."""
        return os.path.splitext(self.csv_path)[0] + ".json"

    def params_at(self, value: float) -> SystemParams:
        """Parameters for one grid point, applying the |delta| = j coupling
        rule when enabled (the sign is taken from the configured delta)."""
        params = self.base_params.with_value(self.axis, value)
        if self.couple_delta_to_j:
            sign = -1.0 if self.base_params.delta < 0 else 1.0
            params = params.with_value("delta", sign * params.j_coupling)
        return params


@dataclass
class SweepRow:
    axis_value: float
    record: ObservableRecord | None
    report: SolveReport | None
    error: str | None = None

    @property
    def converged(self) -> bool:
        """True when the point solved: the sector solver enforces the
        residual tolerance, and a sweep whose truncation check fails returns
        no rows."""
        return self.error is None


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _number(value, key: str) -> float:
    """float(value), or a ConfigError naming the key.  Strings reach float()
    because YAML 1.1 reads 1e-6 as a string; booleans are not numbers."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _expand_values(raw, context: str) -> tuple[float, ...]:
    """Accept either an explicit list or {start, stop, points, spacing}."""
    if isinstance(raw, (list, tuple)):
        return tuple(_number(v, context) for v in raw)
    if isinstance(raw, dict):
        allowed = {"start", "stop", "points", "spacing"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
        missing = {"start", "stop", "points"} - set(raw)
        if missing:
            raise ConfigError(f"{context}: missing keys {sorted(missing)}")
        start = _number(raw["start"], f"{context} start")
        stop = _number(raw["stop"], f"{context} stop")
        points = raw["points"]
        if not (type(points) is int and points >= 1):  # bool is an int subclass
            raise ConfigError(f"{context}: points must be a whole number >= 1, got {points!r}")
        spacing = raw.get("spacing", "linear")
        if spacing == "linear":
            return tuple(np.linspace(start, stop, points))
        if spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(f"{context}: log spacing needs positive start and stop")
            return tuple(np.geomspace(start, stop, points))
        raise ConfigError(f"{context}: spacing must be 'linear' or 'log', got {spacing!r}")
    raise ConfigError(f"{context}: values must be a list or a start/stop/points mapping")


_PARAM_KEYS = {f.name for f in fields(SystemParams)}


def load_config(path: str) -> SweepConfig:
    """Parse and validate a sweep config file.

    The keys are those of SweepConfig's fields; a key that is absent takes
    its field's default.  Unknown keys are rejected rather than ignored so
    that typos fail loudly.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    keys = {f.metadata.get("key", f.name): f for f in fields(SweepConfig)}
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key, f in keys.items():
        if f.default is MISSING and f.default_factory is MISSING and key not in data:
            raise ConfigError(f"{path}: missing required key '{key}'")
    given = {f.name: data[key] for key, f in keys.items() if key in data}

    if "base_params" in given:
        raw_params = given["base_params"]
        if not isinstance(raw_params, dict):
            raise ConfigError(f"{path}: params must be a mapping")
        unknown = set(raw_params) - _PARAM_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown params keys {sorted(unknown)}")
        given["base_params"] = SystemParams(
            **{k: _number(v, f"params {k}") for k, v in raw_params.items()}
        )
    given["axis_values"] = _expand_values(given["axis_values"], f"{path}: values")
    return SweepConfig(**given)


def solve_point(params: SystemParams, terms: SectorTerms) -> tuple[ObservableRecord, SolveReport]:
    """Solve the steady state on terms.space and reduce it to its record.

    solve_steady picks the factor by the sector's size.  It and
    compute_observables are looked up in this module, so wrapping them here
    (as the benchmark's tracer does) sees every row's solve and the
    truncation check's.
    """
    x, report = solve_steady(params, terms)
    return compute_observables(x, terms), report


def _deviation(x: float | None, y: float | None) -> float:
    """Relative difference with a small absolute floor, so that observables
    that are exactly zero do not trip on rounding noise; an undefined value
    differs infinitely from a defined one and not at all from another."""
    if x is None or y is None:
        return 0.0 if x is None and y is None else math.inf
    return abs(x - y) / max(abs(x), abs(y), 1e-9)


def check_truncation(params: SystemParams, base: tuple[ObservableRecord, SolveReport]) -> dict:
    """Compare a solved point against the same point at doubled levels.

    `base` is the record and report of solve_point at report.levels_used;
    only the doubled space is solved here, by solve_point.  Returns the
    check's record: the doubled point's "observables" and "report" as a row
    at the doubled levels holds them (point_json), the largest relative
    deviation of a reported column, scalar or density-matrix element, from
    the base record and the tolerance.  The truncation has converged iff
    max_deviation <= tolerance (TRUNCATION_TOL).
    """
    record, report = base
    n_c, n_m = report.levels_used
    if n_c < 2 or n_m < 2:
        raise ValueError(f"base truncation must be at least (2, 2), got {(n_c, n_m)}")
    doubled, solved = solve_point(params, SectorTerms.build(HilbertSpace(2 * n_c, 2 * n_m)))
    doubled_columns = doubled.columns()
    deviations = [_deviation(x, doubled_columns[key]) for key, x in record.columns().items()]
    return {
        **point_json(doubled, solved),
        "max_deviation": max(deviations),
        "tolerance": TRUNCATION_TOL,
    }


def _row_workers(runs: int) -> int:
    """Processes that solve a sweep's `runs` runs of rows, for rows of
    either solve, checked or not; run_sweep forks a pool of them when there
    are more than 1, and otherwise solves the rows in the calling process.

    It is 1 off Linux, where Python defaults to spawn (macOS's system
    libraries are not safe to fork), and 1 while another Python thread is
    alive (a second sweep, or a _one_blas_thread holder, on another thread),
    since a forked child gets a copy of every lock another thread holds and
    none of the threads that would release it.  Python 3.14 defaults to
    forkserver on Linux too, for that thread hazard, which this rule keeps
    out; spawn and forkserver would re-import numpy and scipy in every
    worker.  Otherwise it is min(CPUs available to the process, runs): a
    worker takes a run at a time, so more workers than runs would only be
    forked to wait, and runs <= ROW_RUNS caps the pool.  Each worker holds
    one row's factor and solve at a time, and the pool is shut down before
    the truncation check factors the doubled sector.  Each forked worker of
    a shipped sweep peaked at 49-54 MiB RSS on a 2-vCPU machine, which
    counts in full the pages it shares with the calling process since the
    fork; 6-10 MiB of it was the worker's own (README, "Concurrent rows",
    gives the peaks).
    """
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), runs)


# thread-count getter and setter of each OpenBLAS build: plain (32- and
# 64-bit integers) and the symbol-prefixed ones that scipy and numpy bundle
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def _openblas_thread_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the thread count of every OpenBLAS this process has
    loaded, found through /proc/self/maps: on Linux only, elsewhere none."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            # the pathname is the sixth field, and may hold spaces
            found = (line.split(maxsplit=5)[-1] for line in fh if "openblas" in line.lower())
            paths = sorted({path.rstrip("\n") for path in found})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping that is not a loadable library
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


# the open _one_blas_thread contexts, and the (set, count) pairs that the
# first of them saved for the last to restore
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved: list[tuple[Callable[[int], None], int]] = []


@contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS at one thread, and restore its counts after.

    Every sweep's rows and truncation check run under it.  Concurrent rows
    need it: OpenBLAS threads spin while they wait for work, so rows whose
    LU calls a threaded BLAS run slower side by side than one after the
    other (README, "Concurrent rows").  Serial rows take it too, so that a
    row rounds the same on any number of workers, and so does the check, so
    that its record does not depend on the environment's thread count.  The
    count is process-wide: other threads of the process get one BLAS thread
    meanwhile too.  A worker process forked under a hold starts with the
    pin.

    Holders may overlap, as two sweeps on two threads or a point solved
    during a sweep do: the first holder saves the counts and pins them, and
    the last one restores them, so no holder runs unpinned.
    """
    global _blas_holders, _blas_saved
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = [(put, get()) for get, put in _openblas_thread_controls()]
            for put, _ in _blas_saved:
                put(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for put, count in _blas_saved:
                    put(count)


def _error_row(value: float, exc: Exception) -> SweepRow:
    """The row of a grid point that exc failed: a PairsimError's message,
    and another's "<TypeName>: <message>"."""
    error = str(exc) if isinstance(exc, PairsimError) else f"{type(exc).__name__}: {exc}"
    return SweepRow(axis_value=value, record=None, report=None, error=error)


def _solve_row(config: SweepConfig, terms: SectorTerms, value: float) -> SweepRow:
    """The row of one grid point.  Any Exception becomes its error row."""
    try:
        record, report = solve_point(config.params_at(value), terms)
    except Exception as exc:
        return _error_row(value, exc)
    return SweepRow(axis_value=value, record=record, report=report)


def _run_rows(future, values: list[float]) -> list[SweepRow]:
    """A worker's rows of the run `values`, or, if the pool broke before it
    returned them (a worker died), their error rows naming
    BrokenProcessPool.  They are not solved again: a crash that repeats
    would take the calling process down."""
    try:
        return future.result()
    except BrokenExecutor as exc:
        return [_error_row(value, exc) for value in values]


def _mirror_sources(config: SweepConfig) -> list[int | None]:
    """Per grid row, the earlier row whose results it takes on a delta axis,
    the one whose axis value is its exact float negative (the module
    docstring says why they are equal), or None for a row that is solved.
    A row at 0.0 is solved: a strictly monotone grid has no other zero."""
    sources: list[int | None] = [None] * len(config.axis_values)
    if config.axis == "delta":
        seen: dict[float, int] = {}
        for i, value in enumerate(config.axis_values):
            sources[i] = seen.get(-value)
            seen[value] = i
    return sources


# the sweep that a forked worker process solves rows of, set once by
# _start_worker from the calling process's objects, which fork shares
_worker_sweep: tuple[SweepConfig, SectorTerms] | None = None


def _start_worker(config: SweepConfig, terms: SectorTerms) -> None:
    global _worker_sweep
    _worker_sweep = (config, terms)


def _worker_run(values: list[float]) -> list[SweepRow]:
    return [_solve_row(*_worker_sweep, value) for value in values]


def run_sweep(
    config: SweepConfig, progress: Callable[[int, int], None] | None = None
) -> SweepResult:
    """Execute the sweep.

    With strict truncation on, a single check_truncation pass runs at the
    grid point with the largest occupation (the worst case for Fock-space
    truncation); failure aborts the sweep naming that point, and success
    records the check in metadata["truncation_check"]: that point's
    axis_value, then check_truncation's record.  That entry is the sweep's
    one verdict; with the check off, none runs and it is None.  The sector
    terms are built once, so each point costs one weighted fill of their
    fixed pattern and one sector solve (solve_point).

    On a delta axis, a row whose axis value is the exact float negative of
    an earlier row's is not solved.  It is a SweepRow with its own
    axis_value and the earlier row's record, report and error (the same
    objects), since rho(-delta) = U rho(delta)* U with U = sigma_z: H and
    the jump operators are real, conjugation maps L(delta) to the generator
    of -H, and sigma_z flips the J and Omega terms back.  Exact negatives
    only; never make a grid symmetric to solve fewer rows.

    The rows to solve are solved on _row_workers forked processes, which
    take them in contiguous runs of ceil(rows to solve / ROW_RUNS) rows and
    inherit the config and the sector terms; where _row_workers gives one
    process, they run serially in this one (its docstring says when).  Rows
    and check alike are solved with every loaded OpenBLAS held at one
    thread (_one_blas_thread), restored after, and the check runs here
    after the rows.  Rows come back in axis order, a run at a time (a
    serial run is one row).  Every row a run releases, its mirrors among
    them, is built first; then `progress(done, total)` is called from the
    calling thread once for each of them, so once per grid row.  A row
    whose solve raises an Exception is an error row (_solve_row), and the
    other rows are solved.  A worker that dies breaks the pool: every run
    not yet returned becomes error rows naming BrokenProcessPool, unsolved
    (_run_rows), and the rows returned before stay solved.  An exception
    raised in this process, as one from `progress`, or an interrupt,
    cancels the runs not yet handed to a worker and propagates once the
    handed ones finish.  No worker outlives the call.
    """
    terms = SectorTerms.build(HilbertSpace(*config.truncation))
    values = config.axis_values
    sources = _mirror_sources(config)
    solve = [value for value, source in zip(values, sources) if source is None]
    size = -(-len(solve) // ROW_RUNS)
    runs = [solve[k : k + size] for k in range(0, len(solve), size)]
    rows: list[SweepRow] = []
    truncation_check = None
    with _one_blas_thread():
        workers = _row_workers(len(runs))
        pool = None
        if workers > 1:
            # imported here, so that loading a config does not pay for them
            import multiprocessing
            from concurrent.futures.process import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
                initargs=(config, terms),
            )
        try:
            if pool is None:
                released = ([_solve_row(config, terms, value)] for value in solve)
            else:
                futures = [pool.submit(_worker_run, run) for run in runs]
                released = (_run_rows(future, run) for future, run in zip(futures, runs))
            for run in released:
                done = len(rows)
                solved = iter(run)
                # the run's rows in grid order, and the mirrors up to the
                # next row to solve, whose sources are all built by then
                for i in range(done, len(values)):
                    if sources[i] is None:
                        row = next(solved, None)
                        if row is None:
                            break
                    else:
                        row = rows[sources[i]]
                        row = SweepRow(values[i], row.record, row.report, row.error)
                    rows.append(row)
                # apart from the calls, so that they come a burst at a time
                if progress is not None:
                    for count in range(done + 1, len(rows) + 1):
                        progress(count, len(values))
        finally:
            # every run is submitted up front; without the cancel, an
            # exception would wait for all of them to be solved
            if pool is not None:
                pool.shutdown(cancel_futures=True)

        solved = [row for row in rows if row.record is not None]
        if config.strict_truncation and solved:
            worst = max(solved, key=lambda row: max(row.record.mean_n, row.record.mean_m))
            check = check_truncation(
                config.params_at(worst.axis_value), base=(worst.record, worst.report)
            )
            truncation_check = {"axis_value": worst.axis_value, **check}
            if not check["max_deviation"] <= check["tolerance"]:  # NaN fails too
                raise TruncationError(
                    f"observables not converged at truncation {config.truncation} "
                    f"(doubling changed them by up to {check['max_deviation']:.2e} "
                    f"relative, beyond {TRUNCATION_TOL:g}) at "
                    f"{config.axis} = {worst.axis_value:g}"
                )

    metadata = {
        "tool": "pairsim",
        "version": __version__,
        "generated": datetime.now(timezone.utc).isoformat(),
        "config": asdict(config),
        "truncation_check": truncation_check,
    }
    return SweepResult(rows=rows, metadata=metadata)


def point_json(record: ObservableRecord, report: SolveReport) -> dict:
    """The "observables" and "report" objects of one solved point, as they
    appear in a sweep JSON row, in `pairsim point --json` and in the
    truncation check's record."""
    return {"observables": asdict(record), "report": asdict(report)}


def _fmt(value) -> str:
    if value is None:
        return UNDEF_TOKEN
    return format(value, ".17e")


def emit_csv(result: SweepResult, path: str) -> None:
    """Write the sweep as CSV per the column contract.

    Undefined correlations become the literal token "undef"; failed rows
    carry "error" in every observable column.  Apart from the leading
    timestamp comment, output is deterministic for a given config.
    """
    lines = [
        f"# pairsim {result.metadata.get('version', __version__)} "
        f"generated {result.metadata.get('generated', '')}",
        ",".join(_CSV_COLUMNS),
    ]
    for row in result.rows:
        cells = [format(row.axis_value, ".17e")]
        if row.record is None:
            cells += [ERROR_TOKEN] * (len(_CSV_COLUMNS) - 2) + ["false"]
        else:
            cells += [_fmt(value) for value in row.record.columns().values()]
            cells += [_fmt(row.report.residual_norm), "true" if row.converged else "false"]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_json(result: SweepResult, path: str) -> None:
    """Write the JSON mirror of the full sweep result."""
    rows = []
    for row in result.rows:
        entry: dict = {"axis_value": row.axis_value, "error": row.error}
        if row.record is None:
            entry.update(observables=None, report=None)
        else:
            entry.update(point_json(row.record, row.report))
        entry["converged"] = row.converged
        rows.append(entry)
    # serialized first, so that a value JSON cannot write leaves no file;
    # compact, since an indent runs json's pure-Python encoder
    text = json.dumps({"metadata": result.metadata, "rows": rows})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
