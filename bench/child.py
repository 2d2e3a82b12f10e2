"""One measured process of the sweep benchmark.

    python3 bench/child.py '<json spec>'

The spec names a mode, the sweep config and an output directory.  Every mode
imports pairsim and loads the config, as `pairsim sweep` does, and prints
the monotonic time at which the config was loaded.  "sweep" then runs the
sweep and writes CSV and JSON, timing each row by its progress callback.
"traced" does the same with spans around the calls into each layer, writes
the spans at exit, and afterwards counts the problem's unknowns and LU fill.
The last line printed is one JSON object.
"""

import json
import os
import sys
import time

from pairsim import sweep
from pairsim.errors import PairsimError


def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info.get('version', '?')}"
        except (TypeError, KeyError):
            return "unknown"

    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def exact_counts(points: dict, truncation: list[int]) -> dict:
    """Unknowns, Liouvillian nonzeros and LU fill of the trace-replaced
    system at the base point, twice, and at the doubling-check point."""
    import scipy.sparse.linalg as spla

    from pairsim.model import SystemParams, build_liouvillian, trace_functional
    from pairsim.operators import HilbertSpace

    def count(params: dict, levels) -> dict:
        space = HilbertSpace(*levels)
        lv = build_liouvillian(SystemParams(**params), space)
        modified = lv.tolil()
        modified[0, :] = trace_functional(space.dim)
        lu = spla.splu(modified.tocsc())
        return {
            "unknowns": space.dim**2,
            "liouvillian_nnz": int(lv.nnz),
            "lu_nnz": int(lu.L.nnz + lu.U.nnz),
        }

    base = count(points["base"], truncation)
    doubled = None
    if points["doubled"] is not None:
        doubled = count(points["doubled"], [2 * t for t in truncation])
    return {"base": base, "base_repeat": count(points["base"], truncation), "doubled": doubled}


def span_cost(tracer, calls: int = 10000) -> float:
    """Seconds a traced call takes around a function that does nothing."""
    from types import SimpleNamespace

    probe = SimpleNamespace(noop=lambda: None)
    tracer.wrap(probe, "noop", "probe")
    start = time.monotonic()
    for _ in range(calls):
        probe.noop()
    return (time.monotonic() - start) / calls


def main(spec: dict) -> dict:
    out_dir = spec["out_dir"]
    traced = spec["mode"] == "traced"
    if traced:
        import atexit

        from pairsim import steady

        import tracing

        tracer = tracing.Tracer()
        for attr, name in (
            ("build_liouvillian", "model.build_liouvillian"),
            ("solve_steady", "steady.solve_steady"),
            ("compute_observables", "observables.compute_observables"),
            ("check_truncation", "steady.check_truncation"),
        ):
            tracer.wrap(sweep, attr, name)
        tracer.wrap(steady, "solve_steady", "steady.solve_steady")
        atexit.register(tracer.dump, os.path.join(out_dir, "spans.json"))
        span = tracer.span
    else:
        from contextlib import nullcontext

        def span(name):
            return nullcontext()

    with span("sweep.load_config"):
        config = sweep.load_config(spec["config"])
    # time.monotonic is CLOCK_MONOTONIC on Linux, one clock for all
    # processes, so the parent subtracts the time it spawned this one.
    report = {"t_loaded": time.monotonic(), "pairsim": os.path.dirname(sweep.__file__)}
    if spec["mode"] == "setup":
        return report

    import resource

    stamps = []

    def progress(done: int, total: int) -> None:
        stamps.append(time.monotonic())

    csv_path = os.path.join(out_dir, "sweep.csv")
    json_path = os.path.join(out_dir, "sweep.json")
    error = None
    start = time.monotonic()
    try:
        with span("sweep.run_sweep"):
            result = sweep.run_sweep(config, progress)
        with span("sweep.emit_csv"):
            sweep.emit_csv(result, csv_path)
        with span("sweep.emit_json"):
            sweep.emit_json(result, json_path)
    except PairsimError as exc:
        error = f"{type(exc).__name__}: {exc}"
    end = time.monotonic()
    edges = [start] + stamps
    report.update(
        sweep_s=end - start,
        row_s=[b - a for a, b in zip(edges, edges[1:])],
        rows=len(config.axis_values),
        error=error,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        output_bytes=None if error else os.path.getsize(csv_path) + os.path.getsize(json_path),
        env=environment(),
    )
    if traced:
        report["counts"] = exact_counts(spec["count_points"], list(config.truncation))
        report["span_cost_s"] = span_cost(tracing.Tracer())
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
