"""Sweep benchmark for pairsim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

The package is imported from the checkout's src/.  Each measured process is
fresh and does what `pairsim sweep` does through the public sweep API:
load_config on a generated YAML, run_sweep with a progress callback, then
emit_csv and emit_json.  Every row is checked against the full-grid
reference values committed under bench/reference/.

--trace 0 measures end to end with tracing off: a few set-up-only processes,
then sweep processes until S seconds have passed (at least one).  --trace 1
runs one untraced and one traced sweep and reports per-layer self times from
the spans, both sweep times (their difference is the tracing overhead), and
exact problem-size counts.

The last line printed is one JSON object: correct, attempted (rows), failed
(error rows plus rows that disagree with the reference) and metrics.  The
lines before it list every metric with its unit, the tail latency, the error
rate and the environment.  The run's record and outputs are left in
bench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import layer_totals
from workloads import BENCH, ROOT, WORKLOADS, Workload, check_outputs, prepare, select

WORK_DIR = BENCH / "_work"

# One BLAS thread in every measured process, which no machine's core count
# is below: on a two-core machine one thread instead of two cut the
# run-to-run spread of weak_55 from about 30% to about 12%.
BLAS_THREADS = 1
SETUP_SAMPLES = 4  # set-up-only processes per end-to-end run, besides the sweeps
DEADLINE_S = 170.0  # a run stops its children and fails past this
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)  # highest with >= 10 rows beyond

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "point_s_p50": "s", "peak_rss_mb": "MiB"}

# Spans whose self time is a per-layer metric; the calls of the first three
# are counted too.
LAYERS = (
    "model.build_liouvillian",
    "steady.solve_steady",
    "steady.check_truncation",
    "observables.compute_observables",
    "sweep.load_config",
    "sweep.emit_csv",
    "sweep.emit_json",
)
COUNTED_LAYERS = LAYERS[:3]


class HarnessError(Exception):
    """A measured process crashed, timed out or broke the harness protocol."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(spec: dict, deadline: float) -> dict:
    """Run bench/child.py with `spec`; return its report plus setup_s."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{spec['mode']} process passed the {DEADLINE_S:g} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise HarnessError(f"{spec['mode']} process exited {proc.returncode}:\n{err[-3000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    if Path(report["pairsim"]).resolve() != ROOT / "src" / "pairsim":
        raise HarnessError(f"imported pairsim from {report['pairsim']}, not this checkout")
    report["setup_s"] = report["t_loaded"] - t_spawn
    return report


class Run:
    """The processes of one benchmark run and the checks on their outputs."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = WORK_DIR / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.prep = prepare(workload, seed, self.work)
        self.spec = {
            "config": str(self.prep.config),
            "out_dir": str(self.work),
            "count_points": self.prep.count_points,
        }
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.record: dict = {"workload": workload.name, "seed": seed}

    def child(self, mode: str) -> dict:
        report = run_child(dict(self.spec, mode=mode), self.deadline)
        if mode == "setup":
            return report
        blas = report["env"]["blas_threads"]
        if any(n != BLAS_THREADS for n in blas.values()):
            raise HarnessError(f"BLAS threads {blas}, expected {BLAS_THREADS} in each library")
        self.attempted += report["rows"]
        if report["error"] is not None:
            self.failed += report["rows"]
            self.notes.append(f"{mode}: sweep failed: {report['error']}")
            return report
        failed, notes = check_outputs(
            self.work / "sweep.csv", self.work / "sweep.json", self.prep.expected
        )
        self.failed += failed
        self.notes += [f"{mode}: {note}" for note in notes]
        return report


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest listed percentile with at least ten
    samples above it, or None when there are too few samples."""
    for p in TAIL_PERCENTILES:
        if len(samples) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return None


def end_to_end(run: Run, seconds: float, lines: list[str]) -> dict:
    setups = [run.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    sweeps: list[dict] = []
    t_measure = time.monotonic()
    while not sweeps or time.monotonic() - t_measure < seconds:
        sweeps.append(run.child("sweep"))
    setups += [s["setup_s"] for s in sweeps]
    rows = [t for s in sweeps for t in s["row_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(s["sweep_s"] for s in sweeps),
        "point_s_p50": statistics.median(rows),
        "peak_rss_mb": max(s["maxrss_kb"] for s in sweeps) / 1024,
    }
    lines.append(
        f"{len(sweeps)} sweeps of {sweeps[0]['rows']} rows; {len(setups)} set-up samples; "
        f"{len(rows)} row latencies"
    )
    found = tail(rows)
    if found:
        lines.append(f"point_s_tail: p{found[0]:g} = {found[1]:.6f} s over {len(rows)} rows")
    else:
        lines.append(f"point_s_tail: omitted, {len(rows)} rows leave < 10 beyond p75")
    run.record.update(
        setup_samples_s=setups,
        sweep_samples_s=[s["sweep_s"] for s in sweeps],
        row_samples_s=rows,
        point_s_tail=found,
        env=sweeps[0]["env"],
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(run: Run, lines: list[str]) -> dict:
    untraced = run.child("sweep")
    traced = run.child("traced")
    with open(run.work / "spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    totals = layer_totals(spans)
    counts = traced["counts"]
    if counts["base"] != counts["base_repeat"]:
        run.failed += 1
        run.notes.append(f"exact counts did not repeat: {counts['base']} vs {counts['base_repeat']}")

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    values: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        values[f"{name}_s"] = (self_s(name), "s")
        if name in COUNTED_LAYERS:
            values[f"{name}_calls"] = (totals.get(name, {}).get("calls", 0), "count")
    values["sweep.run_sweep_self_s"] = (self_s("sweep.run_sweep"), "s")
    values["sweep.output_bytes"] = (traced["output_bytes"], "B")
    values["model.unknowns"] = (counts["base"]["unknowns"], "count")
    values["model.liouvillian_nnz"] = (counts["base"]["liouvillian_nnz"], "count")
    values["steady.lu_nnz"] = (counts["base"]["lu_nnz"], "count")
    doubled = counts["doubled"]
    values["steady.lu_nnz_doubled"] = (doubled["lu_nnz"] if doubled else 0, "count")
    values["trace.sweep_traced_s"] = (traced["sweep_s"], "s")
    values["trace.sweep_untraced_s"] = (untraced["sweep_s"], "s")
    values["trace.spans"] = (len(spans), "count")

    self_sum = sum(entry["self_s"] for name, entry in totals.items() if name != "sweep.load_config")
    overhead = traced["sweep_s"] - untraced["sweep_s"]
    lines.append(
        f"traced sweep {traced['sweep_s']:.4f} s, untraced {untraced['sweep_s']:.4f} s, "
        f"overhead {overhead:+.4f} s; self times sum to {self_sum:.4f} s over {len(spans)} spans"
    )
    lines.append(
        f"one span costs {traced['span_cost_s'] * 1e6:.2f} us, so the spans add about "
        f"{traced['span_cost_s'] * len(spans):.4f} s; the rest of the overhead is run-to-run noise"
    )
    for name in sorted(totals, key=lambda n: -totals[n]["self_s"]):
        entry = totals[name]
        share = "" if name == "sweep.load_config" else f" {100 * entry['self_s'] / traced['sweep_s']:5.1f} %"
        lines.append(f"  {name:32s} {entry['calls']:5d} calls {entry['self_s']:9.4f} s self{share}")
    run.record.update(
        layers=totals,
        counts=counts,
        env=traced["env"],
        tracing_overhead_s=overhead,
        span_cost_s=traced["span_cost_s"],
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def measure(workload: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the lines printed before it."""
    run = Run(workload, seed)
    run.record.update(seconds=seconds, trace=trace)
    # Unmeasured: byte-compiles the package and warms the file cache, a cost
    # a user pays once rather than per sweep.
    run.child("setup")
    lines: list[str] = [f"workload {workload.name}, seed {seed}, trace {trace}"]
    metrics = per_layer(run, lines) if trace else end_to_end(run, seconds, lines)
    env = run.record["env"]
    lines.append(
        f"python {env['python']}, numpy {env['numpy']} ({env['blas_numpy']}), "
        f"scipy {env['scipy']} ({env['blas_scipy']}), nproc {env['nproc']}, "
        f"BLAS threads pinned to {BLAS_THREADS}: {env['blas_threads']}"
    )
    lines.append(f"error_rate: {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} rows)")
    lines += run.notes[:20]
    lines += [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    run.record.update(result=result, notes=run.notes)
    with open(run.work / "record.json", "w", encoding="utf-8") as fh:
        json.dump(run.record, fh, indent=1)
        fh.write("\n")
    return result, lines


SELFTEST_YAML = """\
name: selftest
axis: delta
values: [-0.1, 0.0, 0.1]
params: {j_coupling: 0.1, omega: 0.1, kappa: 1.0, gamma_c: 10.0, gamma_m: 10.0}
truncation: [2, 2]
"""


def self_test() -> list[str]:
    """Check the harness on a 3-point (2, 2) config; return the problems."""
    problems = []
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        config, reference = Path(tmp) / "selftest.yaml", Path(tmp) / "selftest.json"
        config.write_text(SELFTEST_YAML, encoding="utf-8")
        subprocess.run(
            [sys.executable, str(BENCH / "make_reference.py"), "--out", tmp, str(config)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        workload = Workload("selftest", config, reference)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = measure(workload, seed=0, seconds=1, trace=trace)
            if not result["correct"] or result["failed"] or result["attempted"] % 3:
                problems.append(f"trace {trace}: {json.dumps(result)}")
            got = result["metrics"]
            for spec in declared[kind]:
                m = got.get(spec["name"])
                if m is None:
                    problems.append(f"trace {trace}: {spec['name']} missing")
                elif not math.isfinite(m["value"]) or m.get("unit") != spec["unit"]:
                    problems.append(f"trace {trace}: {spec['name']} = {m}, unit {spec['unit']}")
            extra = set(got) - {spec["name"] for spec in declared[kind]}
            if extra:
                problems.append(f"trace {trace}: undeclared metrics {sorted(extra)}")
    shutil.rmtree(WORK_DIR / "selftest", ignore_errors=True)

    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=BENCH) as a, tempfile.TemporaryDirectory(dir=BENCH) as b:
            first, again = prepare(workload, 7, Path(a)), prepare(workload, 7, Path(b))
            if first.config.read_bytes() != again.config.read_bytes() or first.expected != again.expected:
                problems.append(f"{workload.name}: seed 7 selected different points twice")
        with open(workload.reference, encoding="utf-8") as fh:
            n = len(json.load(fh)["rows"])
        picks = {tuple(select(n, workload.rows, workload.stride, seed)) for seed in range(50)}
        want = n if workload.rows is None else workload.rows
        if any(len(p) != want or p[-1] >= n for p in picks):
            problems.append(f"{workload.name}: a selection has the wrong size or leaves the grid")
        if workload.rows is not None and len(picks) < 2:
            problems.append(f"{workload.name}: every seed selects the same points")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pairsim" / "__init__.py").is_file():
        print(f"no pairsim package under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    if args.self_test:
        problems = self_test()
        print("\n".join(problems) or "self-test passed")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
