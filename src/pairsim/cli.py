"""Command-line interface: sweeps, single points, and a self-check battery.

Exit codes: 0 success, 1 configuration or usage error, 2 solver or
convergence failure (including strict-truncation aborts and failed checks),
3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace
from importlib import resources

import numpy as np

from . import __version__
from .analytics import pair_subspace_spectrum
from .errors import ConfigError, PairsimError
from .model import SectorTerms, SystemParams, build_liouvillian, trace_functional
from .observables import DEFAULT_FLOOR, ELEMENT_KEYS, SCALAR_KEYS, ObservableRecord
from .operators import HilbertSpace
from .steady import null_space_steady, solve_steady
from .sweep import (
    SweepConfig,
    check_floor,
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
    if os.path.exists(arg):
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
        config = replace(config, truncation=(args.truncation[0], args.truncation[1]))
    if args.no_strict_truncation:
        config = replace(config, strict_truncation=False)
    if args.output is not None:
        config = replace(config, output_path=args.output)

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
        print(
            f"truncation check at {config.axis} = {check['axis_value']:g}, levels "
            f"{tuple(check['levels'])}: {check['unknowns']} unknowns, LU {check['lu_nnz']} "
            f"entries, residual {check['residual_norm']:.2e}, {check['refine_steps']} "
            f"refinement steps, min eigenvalue {check['min_eigenvalue']:.2e}; largest "
            f"deviation {check['max_deviation']:.2e} (tolerance {check['tolerance']:g})",
            file=sys.stderr,
        )
    csv_path = config.output_path or f"{config.name}.csv"
    json_path = os.path.splitext(csv_path)[0] + ".json"
    emit_csv(result, csv_path)
    emit_json(result, json_path)
    failed = sum(1 for row in result.rows if row.error is not None)
    print(f"wrote {csv_path} and {json_path} ({total - failed}/{total} points solved)")
    return 0 if failed == 0 else 2


def _cmd_point(args) -> int:
    check_floor(args.floor)
    params = SystemParams(**{f.name: getattr(args, f.name) for f in fields(SystemParams)})
    space = HilbertSpace(*args.truncation)
    record, report = solve_point(params, SectorTerms.build(space), args.floor)
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


def _check_battery() -> list[tuple[str, bool, str]]:
    """Fast invariant checks, each a scaled-down version of an acceptance
    test; the full suite lives under tests/."""
    results = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))

    def solve(params: SystemParams, n_c: int, n_m: int) -> ObservableRecord:
        return solve_point(params, SectorTerms.build(HilbertSpace(n_c, n_m)))[0]

    def spectrum():
        space = HilbertSpace(2, 2)
        rep = pair_subspace_spectrum(
            SystemParams(delta=5.0, j_coupling=2.0, gamma_c=1.0, gamma_m=1.0), space
        )
        dev = max(abs(rep.pair_doublet[0] - 3.0), abs(rep.pair_doublet[1] - 7.0))
        return dev < 1e-10, f"doublet {rep.pair_doublet}, expected (3, 7)"

    def vacuum():
        rec = solve(SystemParams(j_coupling=0.3, gamma_c=2.0, gamma_m=3.0), 3, 3)
        ok = (
            rec.mean_n < 1e-12
            and rec.mean_m < 1e-12
            and rec.g2_n is None
            and rec.log_neg < 1e-10
        )
        return ok, f"mean_n={rec.mean_n:.2e}, mean_m={rec.mean_m:.2e}"

    def thermal():
        # the second factorial moment converges like level^2 * (1/3)^level,
        # so the phonon space must be much taller than the mean suggests
        rec = solve(SystemParams(gamma_c=1.0, gamma_m=1.0, m_th=0.5), 2, 24)
        dev = max(abs(rec.mean_m - 0.5), abs(rec.g2_m - 2.0))
        return dev < 1e-6, f"mean_m={rec.mean_m:.8f}, g2_m={rec.g2_m:.8f}"

    def driven_atom():
        r22 = solve(SystemParams(omega=1.0, gamma_c=1.0, gamma_m=1.0), 2, 2).elements["rho22"]
        return abs(r22 - 4.0 / 9.0) < 1e-8, f"rho22={r22:.10f}, expected 4/9"

    def trace_null():
        params = SystemParams(
            delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0
        )
        space = HilbertSpace(5, 5)
        lv = build_liouvillian(params, space)
        dev = float(np.abs(trace_functional(space.dim) @ lv).max())
        return dev < 1e-12, f"max |trace . L| = {dev:.2e}"

    def exchange():
        params = SystemParams(
            delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0
        )
        rec = solve(params, 5, 5)
        dev = max(abs(rec.mean_n - rec.mean_m), abs(rec.g2_n - rec.g2_m))
        return dev < 1e-8, f"max photon/phonon asymmetry {dev:.2e}"

    def parity():
        plus, minus = (
            solve(SystemParams(delta=d, j_coupling=1.0, omega=1.0, gamma_c=10.0, gamma_m=10.0), 4, 4)
            for d in (1.0, -1.0)
        )
        dev = max(abs(getattr(plus, k) - getattr(minus, k)) for k in ("mean_n", "g2_n", "log_neg"))
        return dev < 1e-8, f"max |obs(+delta) - obs(-delta)| = {dev:.2e}"

    def dense_oracle():
        params = SystemParams(
            delta=1.0, j_coupling=1.0, omega=1.0, gamma_c=10.0, gamma_m=10.0
        )
        terms = SectorTerms.build(HilbertSpace(2, 2))
        rho_sparse, _ = solve_steady(terms.liouvillian(params), terms)
        rho_dense = null_space_steady(build_liouvillian(params, terms.space), terms.space)
        dev = float(np.abs(rho_sparse - rho_dense).max())
        return dev < 1e-9, f"max elementwise gap sparse vs dense {dev:.2e}"

    run("pair-subspace spectrum", spectrum)
    run("vacuum fixed point", vacuum)
    run("thermal detailed balance", thermal)
    run("driven-atom population", driven_atom)
    run("trace preservation", trace_null)
    run("photon-phonon exchange symmetry", exchange)
    run("detuning parity", parity)
    run("sparse vs dense solver", dense_oracle)
    return results


def _cmd_check(args) -> int:
    del args
    results = _check_battery()
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{status}  {name:<{width}}  {detail}")
    print(f"{sum(ok for _, ok, _ in results)}/{len(results)} checks passed")
    return 0 if all_ok else 2


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
    p_sweep.add_argument(
        "--no-strict-truncation",
        action="store_true",
        help="skip the truncation-doubling check",
    )
    p_sweep.add_argument("--output", help="override the CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_point = sub.add_parser("point", help="solve a single parameter point")
    p_point.add_argument("--delta", type=float, default=0.0)
    p_point.add_argument("--j-coupling", type=float, default=0.0)
    p_point.add_argument("--omega", type=float, default=0.0)
    p_point.add_argument("--kappa", type=float, default=1.0)
    p_point.add_argument("--gamma-c", type=float, default=0.0)
    p_point.add_argument("--gamma-m", type=float, default=0.0)
    p_point.add_argument("--m-th", type=float, default=0.0)
    p_point.add_argument(
        "--truncation", nargs=2, type=int, default=(5, 5), metavar=("N_C", "N_M")
    )
    p_point.add_argument("--floor", type=float, default=DEFAULT_FLOOR)
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
