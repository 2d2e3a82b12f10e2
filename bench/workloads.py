"""Workloads of the sweep benchmark and the checks on their outputs.

Each workload is a shipped sweep config.  The seed picks which grid points
an evenly thinned grid keeps; a workload without a row count runs the
shipped grid as is.  Every emitted row is compared with the full-grid
reference under bench/reference/, which the seed code produced.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG_DIR = ROOT / "src" / "pairsim" / "configs"

# Rows must match the reference to 1e-12 relative.  The absolute floor is
# for density-matrix elements near zero, whose rounding noise is set by the
# unit trace rather than by their own size.
REL_TOL = 1e-12
ABS_TOL = 1e-15


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    reference: Path
    rows: int | None = None
    stride: int = 1


def shipped(name: str, config: str, rows: int | None = None, stride: int = 1) -> Workload:
    return Workload(
        name, CONFIG_DIR / f"{config}.yaml", BENCH / "reference" / f"{config}.json", rows, stride
    )


# weak_55: many cheap rows at (5, 5); per-row fixed costs (assembly,
#   trace-row replacement, validation) dominate, plus a (10, 10) doubling.
# thermal_614: few rows at (6, 14) with m_th > 0 and the check off; the LU
#   factorization dominates each row and no truncation check runs.
# strict_68: rows at (6, 8) and one (12, 16) doubling solve that takes most
#   of the run and sets the peak memory.
WORKLOADS = {
    w.name: w
    for w in (
        shipped("weak_55", "fig2_weak"),
        shipped("thermal_614", "fig7", rows=5, stride=12),
        shipped("strict_68", "fig6", rows=20, stride=5),
    )
}


def select(n: int, rows: int | None, stride: int, seed: int) -> list[int]:
    """Grid indices kept: `rows` points `stride` apart from a seeded offset."""
    if rows is None:
        return list(range(n))
    span = stride * (rows - 1)
    if span >= n:
        raise ValueError(f"{rows} rows {stride} apart do not fit a grid of {n}")
    offset = random.Random(seed).randrange(n - span)
    return list(range(offset, offset + span + 1, stride))


@dataclass(frozen=True)
class Prepared:
    config: Path
    expected: list[dict]
    count_points: dict


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Write the workload's sweep config for `seed` into `workdir`."""
    with open(workload.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    picks = select(len(reference["rows"]), workload.rows, workload.stride, seed)
    expected = [reference["rows"][i] for i in picks]
    with open(workload.config, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw.pop("output", None)
    if workload.rows is not None:
        raw["values"] = [row["axis_value"] for row in expected]
    path = workdir / "config.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    if workload.rows is not None:
        reread = yaml.safe_load(path.read_text(encoding="utf-8"))["values"]
        if reread != raw["values"]:
            raise ValueError("grid values did not survive the YAML round trip")
    return Prepared(path, expected, reference["count_points"])


def _close(x, y) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL


def _flat(observables: dict) -> dict:
    flat = {k: v for k, v in observables.items() if k != "elements"}
    flat.update(observables["elements"])
    return flat


def _csv_cell(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    return None if cell == "undef" else float(cell)


def check_outputs(csv_path: Path, json_path: Path, expected: list[dict]) -> tuple[int, list[str]]:
    """Count rows that failed or disagree with the reference or each other.

    The JSON rows are compared with the reference; each CSV cell must equal
    the JSON value it mirrors, since both print full precision.
    """
    with open(json_path, encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    lines = [ln for ln in csv_path.read_text(encoding="utf-8").splitlines() if ln and ln[0] != "#"]
    header, csv_rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    if len(rows) != len(expected) or len(csv_rows) != len(expected):
        return len(expected), [
            f"{len(rows)} JSON and {len(csv_rows)} CSV rows for {len(expected)} grid points"
        ]
    failed, notes = 0, []
    for i, (row, cells, ref) in enumerate(zip(rows, csv_rows, expected)):
        problems = []
        if row["error"] is not None:
            problems.append(f"error: {row['error']}")
        else:
            got, want = _flat(row["observables"]), _flat(ref["observables"])
            if row["axis_value"] != ref["axis_value"]:
                problems.append(f"axis {row['axis_value']!r} != {ref['axis_value']!r}")
            if got.keys() != want.keys():
                problems.append(f"columns {sorted(got)} != {sorted(want)}")
            problems += [f"{k} {got.get(k)!r} != {want[k]!r}" for k in want if not _close(got.get(k), want[k])]
            if row["converged"] != ref["converged"]:
                problems.append(f"converged {row['converged']} != {ref['converged']}")
            mirrored = dict(got, axis=row["axis_value"], residual=row["report"]["residual_norm"],
                            converged=row["converged"])
            try:
                csv_row = dict(zip(header, map(_csv_cell, cells), strict=True))
            except ValueError as exc:
                csv_row = {}
                problems.append(f"CSV row unreadable ({exc})")
            problems += [f"CSV {k} {csv_row.get(k)!r} != {v!r}" for k, v in mirrored.items()
                         if csv_row and csv_row.get(k) != v]
        if problems:
            failed += 1
            notes.append(f"row {i}: " + "; ".join(problems))
    return failed, notes
