"""Config-driven parameter sweeps with CSV and JSON output.

A sweep varies exactly one of {delta, j_coupling, gamma_m, m_th} over an
explicit grid, solves the steady state at every point, and records the full
observable set per point.  Points that fail to solve are recorded with an
error marker; they are never interpolated over or silently dropped.

Output contract: a CSV whose first line is a comment carrying version and
timestamp (the only nondeterministic line), then a header, then one row per
grid point in axis order.  A JSON document mirroring the whole result is
written alongside for programmatic use.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, PairsimError, TruncationError
# build_liouvillian is not called here; it stays importable from this
# module because bench/child.py traces calls through sweep's names.
from .model import SectorTerms, SystemParams, build_liouvillian  # noqa: F401
from .observables import DEFAULT_FLOOR, ELEMENT_KEYS, ObservableRecord, compute_observables
from .operators import HilbertSpace
from .steady import SolveReport, check_truncation, solve_steady

__all__ = [
    "AXES",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "load_config",
    "run_sweep",
    "emit_csv",
    "emit_json",
    "read_csv",
]

AXES = ("delta", "j_coupling", "gamma_m", "m_th")

UNDEF_TOKEN = "undef"
ERROR_TOKEN = "error"


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
        if values.size > 1 and not (
            np.all(np.diff(values) > 0) or np.all(np.diff(values) < 0)
        ):
            raise ConfigError("axis_values must be strictly monotone")
        if self.truncation[0] < 2 or self.truncation[1] < 2:
            raise ConfigError(f"truncation must be at least (2, 2), got {self.truncation}")
        if self.couple_delta_to_j and self.axis == "delta":
            raise ConfigError("couple_delta_to_j cannot be combined with a delta sweep")
        if self.floor < 0:
            raise ConfigError("floor must be nonnegative")

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


def _expand_values(raw, context: str) -> tuple[float, ...]:
    """Accept either an explicit list or {start, stop, points, spacing}."""
    if isinstance(raw, (list, tuple)):
        try:
            return tuple(float(v) for v in raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{context}: values list must be numeric ({exc})") from exc
    if isinstance(raw, dict):
        allowed = {"start", "stop", "points", "spacing"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
        missing = {"start", "stop", "points"} - set(raw)
        if missing:
            raise ConfigError(f"{context}: missing keys {sorted(missing)}")
        start, stop = float(raw["start"]), float(raw["stop"])
        points = int(raw["points"])
        if points < 1:
            raise ConfigError(f"{context}: points must be >= 1, got {points}")
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
    try:
        base = SystemParams(**{k: float(v) for k, v in raw_params.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad params ({exc})") from exc

    truncation = data.get("truncation", (5, 5))
    if not (isinstance(truncation, (list, tuple)) and len(truncation) == 2):
        raise ConfigError(f"{path}: truncation must be a pair, got {truncation!r}")

    name = data.get("name", "sweep")
    return SweepConfig(
        axis=data["axis"],
        axis_values=_expand_values(data["values"], f"{path}: values"),
        base_params=base,
        couple_delta_to_j=bool(data.get("couple_delta_to_j", False)),
        truncation=(int(truncation[0]), int(truncation[1])),
        strict_truncation=bool(data.get("strict_truncation", True)),
        truncation_tol=float(data.get("truncation_tol", 1e-6)),
        emit_elements=bool(data.get("emit_elements", True)),
        floor=float(data.get("floor", DEFAULT_FLOOR)),
        output_path=data.get("output"),
        name=str(name),
    )


def run_sweep(
    config: SweepConfig, progress: Callable[[int, int], None] | None = None
) -> SweepResult:
    """Execute the sweep.

    With strict truncation on, a single check_truncation pass runs at the
    grid point with the largest occupation (the worst case for Fock-space
    truncation); failure aborts the sweep naming that point.  With it off,
    no truncation check runs and the per-row flag stays None.  The sector
    terms are built once, so each point costs a sparse sum and one LU.
    """
    space = HilbertSpace(*config.truncation)
    terms = SectorTerms.build(space)
    rows: list[SweepRow] = []
    for i, value in enumerate(config.axis_values):
        params = config.params_at(value)
        try:
            rho, report = solve_steady(terms.liouvillian(params), space)
            record = compute_observables(rho, space, floor=config.floor)
            rows.append(SweepRow(axis_value=value, record=record, report=report))
        except PairsimError as exc:
            rows.append(
                SweepRow(axis_value=value, record=None, report=None, error=str(exc))
            )
        if progress is not None:
            progress(i + 1, len(config.axis_values))

    solved = [row for row in rows if row.record is not None]
    if config.strict_truncation and solved:
        worst = max(solved, key=lambda row: max(row.record.mean_n, row.record.mean_m))
        check = check_truncation(
            config.params_at(worst.axis_value),
            base_levels=config.truncation,
            tolerance=config.truncation_tol,
            base=(worst.record, worst.report),
            floor=config.floor,
        )
        for row in solved:
            row.report.truncation_converged = check.truncation_converged
        if not check.truncation_converged:
            raise TruncationError(
                f"observables not converged at truncation {config.truncation} "
                f"(doubling changed them beyond {config.truncation_tol:g}) at "
                f"{config.axis} = {worst.axis_value:g}"
            )

    metadata = {
        "tool": "pairsim",
        "version": __version__,
        "generated": datetime.now(timezone.utc).isoformat(),
        "config": _config_dict(config),
    }
    return SweepResult(config=config, rows=rows, metadata=metadata)


def _config_dict(config: SweepConfig) -> dict:
    data = asdict(config)
    data["axis_values"] = list(data["axis_values"])
    data["truncation"] = list(data["truncation"])
    return data


def _csv_columns(emit_elements: bool) -> list[str]:
    cols = ["axis", "mean_n", "mean_m", "g2_n", "g2_m", "g2_nm", "log_neg"]
    if emit_elements:
        cols += list(ELEMENT_KEYS)
    return cols + ["residual", "converged"]


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
            cells = [
                format(row.axis_value, ".17e"),
                _fmt(rec.mean_n),
                _fmt(rec.mean_m),
                _fmt(rec.g2_n),
                _fmt(rec.g2_m),
                _fmt(rec.g2_nm),
                _fmt(rec.log_neg),
            ]
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
        if row.record is not None:
            entry["observables"] = {
                "mean_n": row.record.mean_n,
                "mean_m": row.record.mean_m,
                "g2_n": row.record.g2_n,
                "g2_m": row.record.g2_m,
                "g2_nm": row.record.g2_nm,
                "log_neg": row.record.log_neg,
                "elements": row.record.elements,
            }
            entry["report"] = {
                "residual_norm": row.report.residual_norm,
                "truncation_converged": row.report.truncation_converged,
                "levels_used": list(row.report.levels_used),
                "unknowns": row.report.unknowns,
                "lu_nnz": row.report.lu_nnz,
            }
            entry["converged"] = row.converged
        else:
            entry["observables"] = None
            entry["report"] = None
            entry["converged"] = False
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
