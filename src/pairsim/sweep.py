"""Config-driven parameter sweeps with CSV and JSON output.

A sweep varies exactly one of {delta, j_coupling, gamma_m, m_th} over an
explicit grid, solves the steady state at every point, and records the full
observable set per point.  Points that fail to solve are recorded with an
error marker; they are never interpolated over or silently dropped.

solve_point is the one per-point pipeline (sector solve, then reduction to
an ObservableRecord); sweeps and the CLI go through it.  The truncation
check solves its doubled space with the real-arithmetic solve_steady_real,
which needs half the factor memory of the complex solve; the rows keep the
complex solve_steady, whose values the references pin.

Output contract: a CSV whose first line is a comment carrying version and
timestamp (the only nondeterministic line), then a header, then one row per
grid point in axis order.  A JSON document mirroring the whole result is
written alongside for programmatic use.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, PairsimError, TruncationError
# build_liouvillian is not called here; it stays importable from this
# module because bench/child.py traces calls through sweep's names.
from .model import SectorTerms, SystemParams, build_liouvillian  # noqa: F401
from .observables import (
    DEFAULT_FLOOR,
    ELEMENT_KEYS,
    SCALAR_KEYS,
    ObservableRecord,
    compute_observables,
)
from .operators import HilbertSpace
from .steady import SolveReport, solve_steady, solve_steady_real

__all__ = [
    "AXES",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "load_config",
    "solve_point",
    "check_truncation",
    "run_sweep",
    "emit_csv",
    "emit_json",
    "read_csv",
]

AXES = ("delta", "j_coupling", "gamma_m", "m_th")

UNDEF_TOKEN = "undef"
ERROR_TOKEN = "error"


def check_floor(floor: float) -> None:
    """Reject a correlation floor that is negative or not finite.  A NaN
    floor fails every `mean < floor` test, so g2 of an empty mode would
    divide 0 by 0 instead of coming out undefined."""
    if not (math.isfinite(floor) and floor >= 0):
        raise ConfigError(f"floor must be finite and nonnegative, got {floor}")


@dataclass(frozen=True)
class SweepConfig:
    axis: str
    axis_values: tuple[float, ...]
    base_params: SystemParams
    couple_delta_to_j: bool = False
    truncation: tuple[int, int] = (5, 5)
    strict_truncation: bool = True
    truncation_tol: float = 1e-6
    emit_elements: bool = True
    floor: float = DEFAULT_FLOOR
    output_path: str | None = None
    name: str = "sweep"

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        values = np.asarray(self.axis_values, dtype=float)
        if values.size == 0:
            raise ConfigError("axis_values must be non-empty")
        if not np.isfinite(values).all():
            raise ConfigError(f"axis_values must be finite, got {list(self.axis_values)}")
        if values.size > 1 and not (
            np.all(np.diff(values) > 0) or np.all(np.diff(values) < 0)
        ):
            raise ConfigError("axis_values must be strictly monotone")
        if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in self.truncation):
            raise ConfigError(f"truncation must be whole numbers >= 2, got {self.truncation}")
        # a quoted "false" from YAML would be truthy
        for name in ("couple_delta_to_j", "strict_truncation", "emit_elements"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigError(f"output must be a file path, got {self.output_path!r}")
        if self.couple_delta_to_j and self.axis == "delta":
            raise ConfigError("couple_delta_to_j cannot be combined with a delta sweep")
        check_floor(self.floor)
        # an infinite tolerance would pass every doubling comparison and a
        # zero, negative or NaN one would fail them all
        if not (math.isfinite(self.truncation_tol) and self.truncation_tol > 0):
            raise ConfigError(
                f"truncation_tol must be finite and positive, got {self.truncation_tol}"
            )
        # a grid point the model rejects would otherwise become an error row
        for value in self.axis_values:
            try:
                self.params_at(value)
            except ConfigError as exc:
                raise ConfigError(f"axis_values: {self.axis} = {value:g} is invalid ({exc})") from exc

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
        """True when the point solved (solve_steady enforces the residual
        tolerance) and the sweep-level truncation check, if one ran, did not
        flag it."""
        if self.error is not None or self.report is None:
            return False
        return self.report.truncation_converged is not False


@dataclass
class SweepResult:
    config: SweepConfig
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


_TOP_LEVEL_KEYS = {
    "name",
    "axis",
    "values",
    "params",
    "couple_delta_to_j",
    "truncation",
    "strict_truncation",
    "truncation_tol",
    "emit_elements",
    "floor",
    "output",
}

_PARAM_KEYS = {"delta", "j_coupling", "omega", "kappa", "gamma_c", "gamma_m", "m_th"}


def load_config(path: str) -> SweepConfig:
    """Parse and validate a sweep config file.

    Unknown keys are rejected rather than ignored so that typos fail loudly.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("axis", "values"):
        if key not in data:
            raise ConfigError(f"{path}: missing required key '{key}'")

    raw_params = data.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError(f"{path}: params must be a mapping")
    unknown = set(raw_params) - _PARAM_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown params keys {sorted(unknown)}")
    base = SystemParams(**{k: _number(v, f"params {k}") for k, v in raw_params.items()})

    truncation = data.get("truncation", (5, 5))
    if not (isinstance(truncation, (list, tuple)) and len(truncation) == 2):
        raise ConfigError(f"{path}: truncation must be a pair, got {truncation!r}")

    return SweepConfig(
        axis=data["axis"],
        axis_values=_expand_values(data["values"], f"{path}: values"),
        base_params=base,
        couple_delta_to_j=data.get("couple_delta_to_j", False),
        truncation=tuple(truncation),
        strict_truncation=data.get("strict_truncation", True),
        truncation_tol=_number(data.get("truncation_tol", 1e-6), "truncation_tol"),
        emit_elements=data.get("emit_elements", True),
        floor=_number(data.get("floor", DEFAULT_FLOOR), "floor"),
        output_path=data.get("output"),
        name=str(data.get("name", "sweep")),
    )


def solve_point(
    params: SystemParams, terms: SectorTerms, floor: float = DEFAULT_FLOOR
) -> tuple[ObservableRecord, SolveReport]:
    """Solve the steady state on terms.space and reduce it to its record.

    solve_steady and compute_observables are looked up in this module, so
    wrapping them here (as the benchmark's tracer does) sees every row's
    solve; check_truncation looks up solve_steady_real here too.
    """
    rho, report = solve_steady(terms.liouvillian(params), terms)
    return compute_observables(rho, terms.space, floor=floor), report


def _deviation(x: float | None, y: float | None) -> float:
    """Relative difference with a small absolute floor, so that observables
    that are exactly zero do not trip on rounding noise; an undefined value
    differs infinitely from a defined one and not at all from another."""
    if x is None or y is None:
        return 0.0 if x is None and y is None else math.inf
    return abs(x - y) / max(abs(x), abs(y), 1e-9)


def check_truncation(
    params: SystemParams,
    base: tuple[ObservableRecord, SolveReport],
    tolerance: float = 1e-6,
    floor: float = DEFAULT_FLOOR,
    details: dict | None = None,
) -> SolveReport:
    """Compare a solved point against the same point at doubled levels.

    `base` is the record and report of solve_point at report.levels_used,
    computed with the same `floor`; only the doubled space is solved here,
    by solve_steady_real.  truncation_converged is True iff every scalar
    observable agrees to `tolerance` relative.  Returns the base report with
    that verdict.  A `details` dict receives the doubled levels, the doubled
    solve's diagnostics, the largest scalar deviation and the tolerance.
    """
    record, report = base
    n_c, n_m = report.levels_used
    if n_c < 2 or n_m < 2:
        raise ValueError(f"base truncation must be at least (2, 2), got {(n_c, n_m)}")
    terms = SectorTerms.build(HilbertSpace(2 * n_c, 2 * n_m))
    rho, solved = solve_steady_real(terms.liouvillian(params), terms)
    doubled = compute_observables(rho, terms.space, floor=floor)
    deviation = max(_deviation(getattr(record, key), getattr(doubled, key)) for key in SCALAR_KEYS)
    if details is not None:
        details.update(
            levels=list(solved.levels_used),
            unknowns=solved.unknowns,
            lu_nnz=solved.lu_nnz,
            residual_norm=solved.residual_norm,
            refine_steps=solved.refine_steps,
            min_eigenvalue=solved.min_eigenvalue,
            max_deviation=deviation,
            tolerance=tolerance,
        )
    return replace(report, truncation_converged=deviation <= tolerance)


def run_sweep(
    config: SweepConfig, progress: Callable[[int, int], None] | None = None
) -> SweepResult:
    """Execute the sweep.

    With strict truncation on, a single check_truncation pass runs at the
    grid point with the largest occupation (the worst case for Fock-space
    truncation); failure aborts the sweep naming that point, and success
    records the check in metadata["truncation_check"].  With it off, no
    truncation check runs, the per-row flag stays None and that entry is
    None.  The sector terms are built once, so each point costs one
    weighted fill of their fixed pattern and one LU.
    """
    terms = SectorTerms.build(HilbertSpace(*config.truncation))
    rows: list[SweepRow] = []
    for i, value in enumerate(config.axis_values):
        try:
            record, report = solve_point(config.params_at(value), terms, config.floor)
            rows.append(SweepRow(axis_value=value, record=record, report=report))
        except PairsimError as exc:
            rows.append(
                SweepRow(axis_value=value, record=None, report=None, error=str(exc))
            )
        if progress is not None:
            progress(i + 1, len(config.axis_values))

    solved = [row for row in rows if row.record is not None]
    truncation_check = None
    if config.strict_truncation and solved:
        worst = max(solved, key=lambda row: max(row.record.mean_n, row.record.mean_m))
        truncation_check = {"axis_value": worst.axis_value}
        check = check_truncation(
            config.params_at(worst.axis_value),
            base=(worst.record, worst.report),
            tolerance=config.truncation_tol,
            floor=config.floor,
            details=truncation_check,
        )
        for row in solved:
            row.report.truncation_converged = check.truncation_converged
        if not check.truncation_converged:
            raise TruncationError(
                f"observables not converged at truncation {config.truncation} "
                f"(doubling changed them by up to {truncation_check['max_deviation']:.2e} "
                f"relative, beyond {config.truncation_tol:g}) at "
                f"{config.axis} = {worst.axis_value:g}"
            )

    metadata = {
        "tool": "pairsim",
        "version": __version__,
        "generated": datetime.now(timezone.utc).isoformat(),
        "config": _config_dict(config),
        "truncation_check": truncation_check,
    }
    return SweepResult(config=config, rows=rows, metadata=metadata)


def _config_dict(config: SweepConfig) -> dict:
    data = asdict(config)
    data["axis_values"] = list(data["axis_values"])
    data["truncation"] = list(data["truncation"])
    return data


def _csv_columns(emit_elements: bool) -> list[str]:
    elements = list(ELEMENT_KEYS) if emit_elements else []
    return ["axis", *SCALAR_KEYS, *elements, "residual", "converged"]


def point_json(record: ObservableRecord, report: SolveReport) -> dict:
    """The "observables" and "report" objects of one solved point, as they
    appear in a sweep JSON row and in `pairsim point --json`."""
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
    cols = _csv_columns(result.config.emit_elements)
    lines = [
        f"# pairsim {result.metadata.get('version', __version__)} "
        f"generated {result.metadata.get('generated', '')}",
        ",".join(cols),
    ]
    for row in result.rows:
        if row.record is None:
            cells = [format(row.axis_value, ".17e")]
            cells += [ERROR_TOKEN] * (len(cols) - 2)
            cells.append("false")
        else:
            rec = row.record
            cells = [format(row.axis_value, ".17e")]
            cells += [_fmt(getattr(rec, key)) for key in SCALAR_KEYS]
            if result.config.emit_elements:
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
    doc = {"metadata": result.metadata, "rows": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    """Parse a CSV produced by emit_csv back into typed rows.

    Returns (column names, rows) where each row maps column name to float,
    None (for "undef"), the string "error", or bool for the converged flag.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    lines = [line for line in lines if not line.startswith("#")]
    if not lines:
        raise ConfigError(f"{path}: no header line found")
    cols = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ConfigError(f"{path}: row has {len(cells)} cells, expected {len(cols)}")
        row: dict = {}
        for name, cell in zip(cols, cells):
            if name == "converged":
                row[name] = cell == "true"
            elif cell == UNDEF_TOKEN:
                row[name] = None
            elif cell == ERROR_TOKEN:
                row[name] = ERROR_TOKEN
            else:
                row[name] = float(cell)
        rows.append(row)
    return cols, rows
