"""Command-line interface: sweeps, single points, and a self-check battery.

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
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from typing import Callable

import numpy as np

from . import __version__
from .analytics import pair_subspace_spectrum
from .errors import ConfigError, PairsimError
from .model import SectorTerms, SystemParams, build_liouvillian, trace_functional
from .observables import ELEMENT_KEYS, SCALAR_KEYS, ObservableRecord
from .operators import HilbertSpace
from .steady import null_space_steady, solve_steady
from .sweep import (
    SweepConfig,
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

    for key in SCALAR_KEYS:
        show(key, getattr(record, key))
    for key in ELEMENT_KEYS:
        show(key, record.elements[key])
    show("residual", report.residual_norm)
    return 0


def _record(params: SystemParams, space: HilbertSpace) -> ObservableRecord:
    return solve_point(params, SectorTerms.build(space))[0]


def _fields(case: CheckCase, space: HilbertSpace) -> tuple:
    rec = _record(case.params, space)
    return tuple(rec.elements[k] if k in rec.elements else getattr(rec, k) for k in case.quantities)


@dataclass(frozen=True)
class CheckCase:
    """One case of `pairsim check`.  read(case, space) gives the values of
    `quantities` at `params` and `truncation`; by default (_fields), the
    record's scalars or elements of those names.  Each value must lie within
    its tolerance (one for all, or one each) of the expected value, or be
    undefined where None is expected."""

    params: SystemParams
    truncation: tuple[int, int]
    quantities: tuple[str, ...]
    expected: tuple
    tolerance: float | tuple[float, ...]
    read: Callable[[CheckCase, HilbertSpace], tuple] = _fields


def _doublet(case: CheckCase, space: HilbertSpace) -> tuple:
    return pair_subspace_spectrum(case.params, space).pair_doublet


def _asymmetry(case: CheckCase, space: HilbertSpace) -> tuple:
    rec = _record(case.params, space)
    return rec.mean_n - rec.mean_m, rec.g2_n - rec.g2_m


def _parity(case: CheckCase, space: HilbertSpace) -> tuple:
    plus = _record(case.params, space)
    minus = _record(case.params.with_value("delta", -case.params.delta), space)
    return tuple(getattr(plus, k) - getattr(minus, k) for k in ("mean_n", "g2_n", "log_neg"))


def _trace_of_l(case: CheckCase, space: HilbertSpace) -> tuple:
    lv = build_liouvillian(case.params, space)
    return (float(np.abs(trace_functional(space.dim) @ lv).max()),)


def _sparse_vs_dense(case: CheckCase, space: HilbertSpace) -> tuple:
    terms = SectorTerms.build(space)
    x, _ = solve_steady(case.params, terms)
    dense = null_space_steady(build_liouvillian(case.params, space), space)
    return (float(np.abs(terms.density_matrix(x) - dense).max()),)


_WEAK = SystemParams(delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0)
_RESONANT = SystemParams(delta=1.0, j_coupling=1.0, omega=1.0, gamma_c=10.0, gamma_m=10.0)

# Scaled-down acceptance criteria; tests/test_acceptance.py has the full
# ones, and its criterion 2 runs the thermal and driven-atom cases.
CHECK_CASES = {
    "pair-subspace spectrum": CheckCase(
        SystemParams(delta=5.0, j_coupling=2.0, gamma_c=1.0, gamma_m=1.0), (2, 2),
        ("E-", "E+"), (3.0, 7.0), 1e-10, _doublet,
    ),
    "vacuum fixed point": CheckCase(
        SystemParams(j_coupling=0.3, gamma_c=2.0, gamma_m=3.0), (3, 3),
        ("mean_n", "mean_m", "g2_n", "log_neg"), (0.0, 0.0, None, 0.0),
        (1e-12, 1e-12, 0.0, 1e-10),
    ),
    # the second factorial moment converges like level^2 * (1/3)^level,
    # so the phonon space must be much taller than the mean suggests
    "thermal detailed balance": CheckCase(
        SystemParams(gamma_c=1.0, gamma_m=1.0, m_th=0.5), (2, 24),
        ("mean_m", "g2_m"), (0.5, 2.0), 1e-6,
    ),
    "driven-atom population": CheckCase(
        SystemParams(omega=1.0, gamma_c=1.0, gamma_m=1.0), (2, 2), ("rho22",), (4.0 / 9.0,), 1e-8,
    ),
    "trace preservation": CheckCase(
        _WEAK, (5, 5), ("max |trace . L|",), (0.0,), 1e-12, _trace_of_l,
    ),
    "photon-phonon exchange symmetry": CheckCase(
        _WEAK, (5, 5), ("mean_n - mean_m", "g2_n - g2_m"), (0.0, 0.0), 1e-8, _asymmetry,
    ),
    "detuning parity": CheckCase(
        _RESONANT, (4, 4),
        ("mean_n(d) - mean_n(-d)", "g2_n(d) - g2_n(-d)", "log_neg(d) - log_neg(-d)"),
        (0.0, 0.0, 0.0), 1e-8, _parity,
    ),
    "sparse vs dense solver": CheckCase(
        _RESONANT, (2, 2), ("max |rho_sparse - rho_dense|",), (0.0,), 1e-9, _sparse_vs_dense,
    ),
}


def run_check(case: CheckCase) -> tuple[bool, str]:
    """Whether every value of `case` lies within its tolerance, and a line
    that shows them."""
    values = case.read(case, HilbertSpace(*case.truncation))
    tols = case.tolerance if isinstance(case.tolerance, tuple) else (case.tolerance,) * len(values)
    ok = all(
        value is None if expected is None else value is not None and abs(value - expected) < tol
        for value, expected, tol in zip(values, case.expected, tols)
    )

    def show(value) -> str:
        return "undef" if value is None else format(value, ".10g")

    shown = ", ".join(f"{name} = {show(v)}" for name, v in zip(case.quantities, values))
    expected = ", ".join(map(show, case.expected))
    return ok, f"{shown} (expected {expected}; tolerance {case.tolerance})"


def _cmd_check(args) -> int:
    del args
    width = max(map(len, CHECK_CASES))
    passed = 0
    for name, case in CHECK_CASES.items():
        try:
            ok, detail = run_check(case)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        passed += ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    print(f"{passed}/{len(CHECK_CASES)} checks passed")
    return 0 if passed == len(CHECK_CASES) else 2


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

    p_check = sub.add_parser("check", help="run the built-in invariant battery")
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
