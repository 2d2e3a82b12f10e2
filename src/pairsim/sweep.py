"""Config-driven parameter sweeps with CSV and JSON output.

A sweep varies exactly one of {delta, j_coupling, gamma_m, m_th} over an
explicit grid, solves the steady state at every point, and records the full
observable set per point.  Points that fail to solve are recorded with an
error marker; they are never interpolated over or silently dropped.

solve_point(params, terms) is the one per-point pipeline (sector solve,
then reduction to an ObservableRecord); sweeps and the CLI go through it.
The truncation check, check_truncation(params, base), solves the doubled
space with solve_steady_real, in real arithmetic by GMRES preconditioned
level by level in q = n - m (steady.py says how).  So does a row whose
sector has more than steady.COMPLEX_LU_UNKNOWNS unknowns; a smaller row
keeps the complex solve_steady and its complete LU (solve_point).  The
check returns one record, the doubled point as a row holds it plus the
verdict, which run_sweep stores in the JSON metadata: a sweep whose check
fails raises instead of returning rows.

Every sweep solves its rows on a thread pool of _row_workers threads: the
rows are independent.  Two threads ran complete sparse LU factorizations
and the complex (5, 5) solve at 1.0 to 2.0 times one thread's throughput,
but SuperLU's triangular solves, where the real solve's GMRES spends most
of its time, at about half of it (README, "Concurrent rows", gives the
measurements).  The worker count is bounded, which bounds memory.  A
sweep without the check gets one worker, which solves its rows one at a
time.  The rows and the check call a one-thread BLAS
(_one_blas_thread): spinning BLAS threads would take the CPUs the other
rows need, and one policy for every sweep makes each row's arithmetic that
of a serial one-thread solve, whether or not the check runs, and the
check's record independent of the environment's thread count.

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
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, PairsimError, TruncationError
# build_liouvillian is not called here; it stays importable from this
# module because bench/child.py traces calls through sweep's names.
from .model import SectorTerms, SystemParams, build_liouvillian, sector_index  # noqa: F401
from .observables import ELEMENT_KEYS, SCALAR_KEYS, ObservableRecord, compute_observables
from .operators import HilbertSpace
from .steady import COMPLEX_LU_UNKNOWNS, SolveReport, solve_steady, solve_steady_real

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
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"axis_values must be finite, got {list(values)}")
        steps = np.diff(values)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ConfigError("axis_values must be strictly monotone")
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
        # a grid point the model rejects would otherwise become an error row
        for value in self.axis_values:
            try:
                self.params_at(value)
            except ConfigError as exc:
                raise ConfigError(f"axis_values: {self.axis} = {value:g} is invalid ({exc})") from exc

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
        """True when the point solved: either sector solver enforces the
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

    A sector of at most COMPLEX_LU_UNKNOWNS unknowns is solved by
    solve_steady's complete complex LU, unrefined; a larger one by
    solve_steady_real, refined, which is faster there (steady.py gives the
    measurements).  The solvers and compute_observables are looked up in
    this module, so wrapping them here (as the benchmark's tracer does)
    sees every row's solve; check_truncation looks up solve_steady_real
    here too.
    """
    solve = solve_steady if terms.index.size <= COMPLEX_LU_UNKNOWNS else solve_steady_real
    rho, report = solve(params, terms)
    return compute_observables(rho, terms.space), report


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
    only the doubled space is solved here, by solve_steady_real.  Returns
    the check's record: the doubled point's "observables" and "report" as a
    row holds them (point_json), the largest relative deviation of a
    reported column, scalar or density-matrix element, from the base record
    and the tolerance.  The truncation has converged iff max_deviation <=
    tolerance (TRUNCATION_TOL).
    """
    record, report = base
    n_c, n_m = report.levels_used
    if n_c < 2 or n_m < 2:
        raise ValueError(f"base truncation must be at least (2, 2), got {(n_c, n_m)}")
    terms = SectorTerms.build(HilbertSpace(2 * n_c, 2 * n_m))
    rho, solved = solve_steady_real(params, terms)
    doubled = compute_observables(rho, terms.space)
    deviations = [_deviation(getattr(record, key), getattr(doubled, key)) for key in SCALAR_KEYS]
    deviations += [_deviation(record.elements[key], doubled.elements[key]) for key in ELEMENT_KEYS]
    return {
        **point_json(doubled, solved),
        "max_deviation": max(deviations),
        "tolerance": TRUNCATION_TOL,
    }


def _row_workers(config: SweepConfig, unknowns: int) -> int:
    """Threads that solve the rows of `config`, whose sector has `unknowns`.

    1 without the truncation check, so that its rows are solved one at a
    time: two concurrent (6, 14) rows of fig7 raised its peak RSS from
    74.4-74.6 to 78.3-79.6 MiB and did not finish sooner, since the real
    solve's SuperLU triangular solves do not overlap on two threads (the
    module docstring says so).  With it, min(CPUs
    available to the process, rows, doubled-sector unknowns // row-sector
    unknowns).  The ratio is 6 for every shipped config, and it bounds
    memory: each worker holds one row's factor and solve at a time, so the
    peak grows with the workers.  12 workers instead of 6 raised a whole
    sweep's peak RSS from 89-91 to 97-99 MiB on fig6 and from 111-114 to
    124-127 MiB on fig5_weak (3 fresh processes each, one BLAS thread).  On
    2 CPUs, a whole sweep peaks at 83-85 MiB on fig6, 73-74 MiB on fig2_weak
    and 96-99 MiB on fig5_weak, of which the import takes 62 MiB (3 fresh
    processes each).
    """
    if not config.strict_truncation:
        return 1
    n_c, n_m = config.truncation
    doubled = sector_index(HilbertSpace(2 * n_c, 2 * n_m)).size
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, len(config.axis_values), doubled // unknowns))


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
    other.  On a 2-vCPU machine, with OpenBLAS's default two threads, fig6's
    rows took about 5.5 s serially, 8 to 9 s on two workers and about 3 s on
    two workers with one BLAS thread.  The one-worker rows of a sweep
    without the check take it too, so that a row rounds the same whether or
    not its sweep runs the check.  The check takes it too, so that its
    record does not depend on the environment's thread count.  The count is process-wide: other
    threads of the process get one BLAS thread meanwhile too.

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


def _solve_row(config: SweepConfig, terms: SectorTerms, value: float) -> SweepRow:
    """The row of one grid point; a PairsimError becomes its error row."""
    try:
        record, report = solve_point(config.params_at(value), terms)
    except PairsimError as exc:
        return SweepRow(axis_value=value, record=None, report=None, error=str(exc))
    return SweepRow(axis_value=value, record=record, report=report)


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

    The rows are solved on _row_workers threads, one without the check, with
    every loaded OpenBLAS held at one thread while they and the check run
    (_one_blas_thread), and restored after.  Rows come back in axis order,
    and `progress(done, total)` is called from the calling thread after each
    one.  An exception other than a PairsimError, or an interrupt, cancels
    the rows not yet started and propagates once the running ones finish.
    """
    terms = SectorTerms.build(HilbertSpace(*config.truncation))
    values = config.axis_values
    rows: list[SweepRow] = []
    truncation_check = None
    with _one_blas_thread():
        pool = ThreadPoolExecutor(_row_workers(config, terms.index.size))
        try:
            for row in pool.map(partial(_solve_row, config, terms), values):
                rows.append(row)
                if progress is not None:
                    progress(len(rows), len(values))
        finally:
            # Executor.map submits every row up front; without the cancel,
            # an exception would wait for all of them to be solved
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
        if row.record is None:
            cells = [format(row.axis_value, ".17e")]
            cells += [ERROR_TOKEN] * (len(_CSV_COLUMNS) - 2)
            cells.append("false")
        else:
            rec = row.record
            cells = [format(row.axis_value, ".17e")]
            cells += [_fmt(getattr(rec, key)) for key in SCALAR_KEYS]
            cells += [_fmt(rec.elements[key]) for key in ELEMENT_KEYS]
            cells.append(_fmt(row.report.residual_norm))
            cells.append("true" if row.converged else "false")
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
    # serialized first, so that a value JSON cannot write leaves no file
    text = json.dumps({"metadata": result.metadata, "rows": rows}, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
