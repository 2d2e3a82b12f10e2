"""Regenerate the full-grid reference values under bench/reference/.

    python3 bench/make_reference.py [--out DIR] [config ...]

Each config, a shipped config name or a YAML path (default: the three
shipped configs the benchmark uses), is swept over its whole grid with one BLAS thread, and every row's observables are
written with full float precision.  The benchmark compares its rows with
these at 1e-12 relative.  The file also records the parameters of the grid's
first point and of the point the truncation check chose; the benchmark's
exact counts are taken at those two points.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pairsim  # noqa: E402
from pairsim import sweep  # noqa: E402

CONFIGS = ("fig2_weak", "fig6", "fig7")


def make(name: str) -> dict:
    path = ROOT / "src" / "pairsim" / "configs" / f"{name}.yaml"
    config = sweep.load_config(name if name.endswith(".yaml") else str(path))
    checked = []
    original = sweep.check_truncation

    def recording_check(params, *args, **kwargs):
        checked.append(params)
        return original(params, *args, **kwargs)

    sweep.check_truncation = recording_check
    try:
        result = sweep.run_sweep(config)
    finally:
        sweep.check_truncation = original
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        sweep.emit_json(result, path)
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
    return {
        "config": config.name,
        "generated_by": {
            "pairsim": pairsim.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
        },
        "axis": config.axis,
        "truncation": list(config.truncation),
        "count_points": {
            "base": dataclasses.asdict(config.params_at(config.axis_values[0])),
            "doubled": dataclasses.asdict(checked[0]) if checked else None,
        },
        "rows": [
            {
                "axis_value": row["axis_value"],
                "observables": row["observables"],
                "converged": row["converged"],
            }
            for row in rows
        ],
    }


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Write full-grid reference values.")
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent / "reference")
    parser.add_argument("configs", nargs="*", default=list(CONFIGS))
    args = parser.parse_args(argv)
    for name in args.configs:
        doc = make(name)
        out = args.out / f"{Path(name).stem}.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"{out}: {len(doc['rows'])} rows")


if __name__ == "__main__":
    main(sys.argv[1:])
