"""Regenerate src/pairsim/check_points.json, the points `pairsim check` solves.

    python tests/make_check_points.py

Each shipped config is swept as shipped, with one BLAS thread.  Its first,
middle and last grid rows are kept at the config's truncation, and its
truncation check's point at the doubled levels (a config that runs no
check, fig7, has none).  Each point records its config, its role, the
axis and its value, the truncation, the params and the 14 reported
columns, every float in full precision.  The script prints each cell that
differs from the file it replaces.

Rerun it only for a change that is meant to move numbers, never to make
`pairsim check` pass, and list every moved cell that it prints in
CHANGES.md.  Not collected by pytest.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pairsim"
sys.path.insert(0, str(PACKAGE.parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pairsim  # noqa: E402
from pairsim.observables import ObservableRecord  # noqa: E402
from pairsim.sweep import load_config, run_sweep  # noqa: E402

CONFIGS = ("fig2_weak", "fig2_strong", "fig4", "fig5_weak", "fig5_strong", "fig6", "fig7")
OUT = PACKAGE / "check_points.json"


def points(name: str) -> list[dict]:
    config = load_config(str(PACKAGE / "configs" / f"{name}.yaml"))
    result = run_sweep(config)

    def point(role: str, axis_value: float, truncation, record: ObservableRecord) -> dict:
        return {
            "config": name,
            "role": role,
            "axis": config.axis,
            "axis_value": axis_value,
            "truncation": list(truncation),
            "params": dataclasses.asdict(config.params_at(axis_value)),
            "columns": record.columns(),
        }

    rows = result.rows
    chosen = [
        point(role, row.axis_value, config.truncation, row.record)
        for role, row in (("first", rows[0]), ("middle", rows[len(rows) // 2]), ("last", rows[-1]))
    ]
    check = result.metadata["truncation_check"]
    if check is not None:
        levels = check["report"]["levels_used"]
        record = ObservableRecord(**check["observables"])
        chosen.append(point("check", check["axis_value"], levels, record))
    return chosen


def main() -> None:
    old = json.loads(OUT.read_text(encoding="utf-8"))["points"] if OUT.exists() else []
    old = {(p["config"], p["role"]): p for p in old}
    new = [p for name in CONFIGS for p in points(name)]
    for p in new:
        before = old.get((p["config"], p["role"]))
        if before is None or any(before.get(k) != p[k] for k in p if k != "columns"):
            print(f"{p['config']} {p['role']}: new point {p['axis']} = {p['axis_value']!r}")
            before = {"columns": {}}
        for key, value in p["columns"].items():
            was = before["columns"].get(key, "absent")
            if was != value:
                print(f"{p['config']} {p['role']} {key}: {was!r} -> {value!r}")
    doc = {
        "generated_by": {
            "pairsim": pairsim.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
        },
        "points": new,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{OUT}: {len(new)} points")


if __name__ == "__main__":
    main()
