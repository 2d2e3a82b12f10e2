"""Command-line interface: sweeps, single points, and `pairsim check`, which
solves a packaged set of points of the shipped sweeps again and holds them
to the values committed with the package (check_points.json).

Exit codes: 0 success, 1 configuration or usage error, 2 solver or
convergence failure (including strict-truncation aborts and failed checks),
3 I/O failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, fields, replace
from importlib import resources

from . import __version__
from .errors import ConfigError, PairsimError
from .model import SectorTerms, SystemParams
from .observables import ObservableRecord
from .operators import HilbertSpace
from .steady import SolveReport
from .sweep import (
    SweepConfig,
    _fmt,
    _one_blas_thread,
    emit_csv,
    emit_json,
    load_config,
    point_json,
    run_sweep,
    solve_point,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _packaged_configs() -> dict[str, object]:
    root = resources.files("pairsim").joinpath("configs")
    return {
        entry.name[: -len(".yaml")]: entry
        for entry in root.iterdir()
        if entry.name.endswith(".yaml")
    }


def _load_config_arg(arg: str) -> SweepConfig:
    """Accept either a filesystem path or the bare name of a shipped config."""
    if os.path.isfile(arg):
        return load_config(arg)
    shipped = _packaged_configs()
    if arg in shipped:
        with resources.as_file(shipped[arg]) as path:
            return load_config(str(path))
    known = ", ".join(sorted(shipped))
    raise ConfigError(f"no such config file or shipped config {arg!r} (shipped: {known})")


def _cmd_sweep(args) -> int:
    config = _load_config_arg(args.config)
    if args.truncation is not None:
        config = replace(config, truncation=tuple(args.truncation))
    if args.output is not None:
        config = replace(config, output_path=args.output)

    csv_path, json_path = config.csv_path, config.json_path
    # found before the sweep rather than when its results are written
    if not os.path.isdir(os.path.dirname(csv_path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), csv_path)
    for path in (csv_path, json_path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)

    total = len(config.axis_values)
    print(
        f"{config.name}: sweeping {config.axis} over {total} points "
        f"at truncation {config.truncation}",
        file=sys.stderr,
    )
    stride = max(1, total // 10)

    def progress(done: int, n: int) -> None:
        if done % stride == 0 or done == n:
            print(f"  {done}/{n}", file=sys.stderr)

    result = run_sweep(config, progress=progress)
    check = result.metadata["truncation_check"]
    if check is not None:
        report = ", ".join(
            f"{key} {value:.3g}" if isinstance(value, float) else f"{key} {value}"
            for key, value in check["report"].items()
        )
        print(
            f"truncation check at {config.axis} = {check['axis_value']:g} ({report}): largest "
            f"deviation {check['max_deviation']:.2e} (tolerance {check['tolerance']:g})",
            file=sys.stderr,
        )
    emit_csv(result, csv_path)
    emit_json(result, json_path)
    failed = sum(1 for row in result.rows if row.error is not None)
    print(f"wrote {csv_path} and {json_path} ({total - failed}/{total} points solved)")
    return 0 if failed == 0 else 2


def _cmd_point(args) -> int:
    params = SystemParams(**{f.name: getattr(args, f.name) for f in fields(SystemParams)})
    terms = SectorTerms.build(HilbertSpace(*args.truncation))
    # one BLAS thread, as a sweep's rows have, so the report equals a row's
    with _one_blas_thread():
        record, report = solve_point(params, terms)
    if args.json:
        doc = {"params": asdict(params), "truncation": list(args.truncation)}
        print(json.dumps({**doc, **point_json(record, report)}, indent=1))
        return 0

    def show(name: str, value) -> None:
        print(f"{name:10s} = {'undef' if value is None else format(value, '.12g')}")

    for key, value in record.columns().items():
        show(key, value)
    show("residual", report.residual_norm)
    return 0


# `pairsim check` holds each column of a re-solved point to the value this
# code packaged.  On another machine (SuperLU ordering, BLAS, np.longdouble)
# it moves by its solve's forward error, measured over every row of
# fig2_weak, fig6 and fig7 solved another way, one BLAS thread: unrefined
# complex LU rows (refine_steps 0) moved up to 1.5e-11 relative with
# MMD_ATA in place of COLAMD, 29 cells past 1e-12; refined real rows stayed
# within 1e-12 with MMD_ATA, the complete LU or float64 residuals, cells
# below 1e-3 moving up to 6.4e-16 absolute (fig7's log_neg of 1.27e-6).
CHECK_REL_TOL = 1e-12
CHECK_UNREFINED_REL_TOL = 1e-10
CHECK_ABS_TOL = 1e-14


def _check_points() -> list[dict]:
    """The points `pairsim check` solves, as tests/make_check_points.py wrote them."""
    text = resources.files("pairsim").joinpath("check_points.json").read_text(encoding="utf-8")
    return json.loads(text)["points"]


def mismatches(want: dict, record: ObservableRecord, report: SolveReport) -> list[str]:
    """The reported columns of a solved point that differ from `want`, its
    packaged ones.  Undefined must match undefined; otherwise |got - want|
    <= rel max(|got|, |want|) + CHECK_ABS_TOL, where rel is
    CHECK_UNREFINED_REL_TOL for the unrefined complex LU (refine_steps 0)
    and CHECK_REL_TOL for a refined solve."""
    rel = CHECK_REL_TOL if report.refine_steps else CHECK_UNREFINED_REL_TOL

    def close(x, y) -> bool:
        if x is None or y is None:
            return x is None and y is None
        return abs(x - y) <= rel * max(abs(x), abs(y)) + CHECK_ABS_TOL  # NaN fails

    return [
        f"{key} {_fmt(value)} (packaged {_fmt(want[key])})"
        for key, value in record.columns().items()
        if not close(value, want[key])
    ]


def _cmd_check(args) -> int:
    del args
    points = _check_points()
    terms = None  # the last point's; sorted by truncation, each is built once
    passed = 0
    # one BLAS thread, as the sweeps that made the points had
    with _one_blas_thread():
        for point in sorted(points, key=lambda point: point["truncation"]):
            truncation = tuple(point["truncation"])
            try:
                if terms is None or terms.space != HilbertSpace(*truncation):
                    terms = SectorTerms.build(HilbertSpace(*truncation))
                solved = solve_point(SystemParams(**point["params"]), terms)
                failures = mismatches(point["columns"], *solved)
            except Exception as exc:  # a point that raises fails
                failures = [f"raised {type(exc).__name__}: {exc}"]
            passed += not failures
            print(
                f"{'FAIL' if failures else 'PASS'}  {point['config']:<11s} {point['role']:<6s} "
                f"{point['axis'] + ' = ' + format(point['axis_value'], '.4g'):<18s} on {truncation}"
                + "".join(f"; {failure}" for failure in failures)
            )
    print(f"{passed}/{len(points)} points passed")
    return 0 if passed == len(points) else 2


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pairsim",
        description="Steady-state observables of a driven atom emitting photon-phonon pairs.",
    )
    parser.add_argument("--version", action="version", version=f"pairsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument(
        "config", help="path to a YAML config, or the name of a shipped one"
    )
    p_sweep.add_argument(
        "--truncation",
        nargs=2,
        type=int,
        metavar=("N_C", "N_M"),
        help="override the Fock truncation",
    )
    p_sweep.add_argument("--output", help="override the CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_point = sub.add_parser("point", help="solve a single parameter point")
    for f in fields(SystemParams):
        p_point.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=f.default)
    p_point.add_argument(
        "--truncation", nargs=2, type=int, default=SweepConfig.truncation, metavar=("N_C", "N_M")
    )
    p_point.add_argument("--json", action="store_true", help="print JSON instead of text")
    p_point.set_defaults(func=_cmd_point)

    p_check = sub.add_parser("check", help="re-solve packaged points of the shipped sweeps")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PairsimError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
