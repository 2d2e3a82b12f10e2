"""Sweep configuration, execution, serialization, and CLI tests."""

import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from numpy.testing import assert_allclose

import pairsim.sweep
from pairsim.cli import main
from pairsim.errors import ConfigError, TruncationError
from pairsim.model import SectorTerms, SystemParams, sector_index
from pairsim.operators import HilbertSpace
from pairsim.steady import EIG_FLOOR, MAX_REFINE, RESIDUAL_TOL, solve_steady_real
from pairsim.sweep import (
    TRUNCATION_TOL,
    SweepConfig,
    _expand_values,
    _row_workers,
    emit_csv,
    emit_json,
    load_config,
    read_csv,
    run_sweep,
    solve_point,
)

BASE = SystemParams(
    delta=0.1, j_coupling=0.1, omega=1.0, gamma_c=10.0, gamma_m=10.0, m_th=0.0
)


def make_config(**overrides) -> SweepConfig:
    kwargs = dict(
        axis="delta",
        axis_values=(-0.2, 0.0, 0.2),
        base_params=BASE,
        truncation=(3, 3),
        strict_truncation=False,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def write_yaml(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- grids


def test_expand_explicit_list():
    assert _expand_values([1, 2.5, 4], "t") == (1.0, 2.5, 4.0)


def test_expand_linear_and_log_ranges():
    values = _expand_values({"start": 0.0, "stop": 1.0, "points": 5}, "t")
    assert_allclose(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    values = _expand_values(
        {"start": 0.01, "stop": 100.0, "points": 5, "spacing": "log"}, "t"
    )
    assert_allclose(values, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-12)


def test_expand_rejects_bad_input():
    with pytest.raises(ConfigError):
        _expand_values({"start": 0, "stop": 1}, "t")
    with pytest.raises(ConfigError):
        _expand_values({"start": 0, "stop": 1, "points": 5, "step": 0.1}, "t")
    with pytest.raises(ConfigError):
        _expand_values({"start": 0, "stop": 1, "points": 0}, "t")
    with pytest.raises(ConfigError):
        _expand_values({"start": -1, "stop": 1, "points": 5, "spacing": "log"}, "t")
    with pytest.raises(ConfigError):
        _expand_values({"start": 0, "stop": 1, "points": 5, "spacing": "cubic"}, "t")
    with pytest.raises(ConfigError):
        _expand_values("0:1:5", "t")
    with pytest.raises(ConfigError):
        _expand_values(["a", "b"], "t")


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(axis="omega")
    with pytest.raises(ConfigError):
        make_config(axis_values=(0.0, 1.0, 0.5))
    with pytest.raises(ConfigError):
        make_config(axis_values=())
    with pytest.raises(ConfigError):
        make_config(truncation=(1, 5))
    with pytest.raises(ConfigError):
        make_config(axis="delta", couple_delta_to_j=True)


def test_params_at_applies_axis_and_coupling():
    config = make_config(axis="j_coupling", axis_values=(0.5, 2.0), couple_delta_to_j=True)
    params = config.params_at(2.0)
    assert params.j_coupling == 2.0
    assert params.delta == 2.0  # base delta is +0.1, so the sign is +
    negative = make_config(
        axis="j_coupling",
        axis_values=(0.5, 2.0),
        couple_delta_to_j=True,
        base_params=BASE.with_value("delta", -0.1),
    )
    assert negative.params_at(2.0).delta == -2.0


def test_load_config_defaults_and_rejections(tmp_path):
    path = write_yaml(
        tmp_path / "ok.yaml",
        "axis: delta\nvalues: [0.0, 0.5]\nparams: {omega: 1.0, gamma_c: 1.0, gamma_m: 1.0}\n",
    )
    config = load_config(path)
    assert config.axis == "delta"
    assert config.truncation == (5, 5)
    assert config.strict_truncation is True
    assert config.name == "sweep"
    assert config.base_params.omega == 1.0

    bad = write_yaml(tmp_path / "unknown.yaml", "axis: delta\nvalues: [0]\nfrobnicate: 1\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        load_config(bad)
    bad = write_yaml(
        tmp_path / "badparam.yaml",
        "axis: delta\nvalues: [0]\nparams: {qfactor: 3}\n",
    )
    with pytest.raises(ConfigError, match="qfactor"):
        load_config(bad)
    bad = write_yaml(
        tmp_path / "negrate.yaml",
        "axis: delta\nvalues: [0]\nparams: {gamma_c: -1}\n",
    )
    with pytest.raises(ConfigError, match="gamma_c"):
        load_config(bad)
    bad = write_yaml(tmp_path / "notmap.yaml", "- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(bad)
    bad = write_yaml(tmp_path / "noaxis.yaml", "values: [0]\n")
    with pytest.raises(ConfigError, match="axis"):
        load_config(bad)
    bad = write_yaml(tmp_path / "badyaml.yaml", "axis: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(bad)


@pytest.mark.parametrize(
    "line",
    [
        "truncation_tol: .inf",
        "truncation_tol: 0",
        "truncation_tol: -1.0e-6",
        "truncation_tol: .nan",
        "floor: .nan",
        "floor: .inf",
        "floor: -1.0e-12",
        "floor: low",
        "truncation_tol: tight",
        "truncation: [a, 3]",
        "truncation: [2.7, 3]",
        "strict_truncation: \"false\"",
        # a quoted "false" is caught by the delta-axis guard here; 0 is not
        "couple_delta_to_j: 0",
        "emit_elements: \"false\"",
        "output: 5",
        # these replace the file's values list, the later key winning
        "values: {start: a, stop: 1.0, points: 3}",
        "values: {start: 0.0, stop: b, points: 3}",
        "values: {start: 0.0, stop: 1.0, points: many}",
        "values: {start: 0.0, stop: 1.0, points: 2.5}",
        "values: {start: 0.0, stop: 1.0, points: true}",
        # grid points the model rejects; a later axis key replaces delta
        "values: [.nan]",
        "values: [1.0, .inf]\naxis: gamma_m",
        "values: [-0.1, 0.1]\naxis: m_th",
    ],
)
def test_load_config_rejects_tolerances_that_defeat_the_checks(tmp_path, line):
    path = write_yaml(
        tmp_path / "bad.yaml",
        f"axis: delta\nvalues: [0.0, 0.5]\nparams: {{omega: 1.0, gamma_c: 1.0}}\n{line}\n",
    )
    key = line.split(":")[0]
    # the g2 floor, the doubling tolerance and the CSV columns are fixed, so
    # these keys fail as unknown, like any typo
    if key in ("truncation_tol", "floor", "emit_elements"):
        key = rf"unknown keys \['{key}'\]"
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_load_config_rejects_text_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.yaml"
    path.write_bytes(b"\xff\xfe" + "axis: delta\nvalues: [0.0]\n".encode("utf-16-le"))
    with pytest.raises(ConfigError, match="utf16.yaml: not UTF-8"):
        load_config(str(path))
    assert main(["sweep", str(path)]) == 1
    assert f"config error: {path}: not UTF-8" in capsys.readouterr().err


def test_readme_example_config_loads(tmp_path):
    # the documented config names every accepted key, so it cannot drift
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    data = yaml.safe_load(blocks[0])
    assert set(data) == pairsim.sweep._TOP_LEVEL_KEYS
    data["output"] = str(tmp_path / data["output"])
    config = load_config(write_yaml(tmp_path / "example.yaml", yaml.safe_dump(data)))
    assert config.output_path == data["output"]


# ---------------------------------------------------------------- running


def test_sweep_rows_match_direct_solves():
    config = make_config()
    result = run_sweep(config)
    assert [row.axis_value for row in result.rows] == [-0.2, 0.0, 0.2]
    terms = SectorTerms.build(HilbertSpace(3, 3))
    for row in result.rows:
        assert row.error is None
        assert row.converged
        direct, _ = solve_point(config.params_at(row.axis_value), terms)
        assert row.record.mean_n == pytest.approx(direct.mean_n, abs=1e-15)
        assert row.record.g2_nm == pytest.approx(direct.g2_nm, rel=1e-12)
        assert row.record.log_neg == pytest.approx(direct.log_neg, abs=1e-12)
    assert result.metadata["tool"] == "pairsim"
    assert result.metadata["config"]["axis"] == "delta"


def test_failed_points_become_error_rows(tmp_path):
    # at gamma_m = 0 with no drive and no pair coupling the phonon sector
    # is frozen, so that point must fail while the second one solves
    config = SweepConfig(
        axis="gamma_m",
        axis_values=(0.0, 1.0),
        base_params=SystemParams(
            delta=0.0, j_coupling=0.0, omega=0.0, gamma_c=1.0, gamma_m=1.0, m_th=0.5
        ),
        truncation=(2, 8),
        strict_truncation=False,
    )
    result = run_sweep(config)
    assert result.rows[0].error is not None
    assert not result.rows[0].converged
    assert result.rows[1].error is None
    assert result.rows[1].converged

    csv_path = tmp_path / "out.csv"
    emit_csv(result, str(csv_path))
    cols, rows = read_csv(str(csv_path))
    assert rows[0]["mean_n"] == "error"
    assert rows[0]["converged"] is False
    assert rows[1]["converged"] is True
    assert rows[1]["mean_m"] == pytest.approx(result.rows[1].record.mean_m)

    json_path = tmp_path / "out.json"
    emit_json(result, str(json_path))
    doc = json.loads(json_path.read_text())
    assert doc["rows"][0]["observables"] is None
    assert "not unique" in doc["rows"][0]["error"]
    assert doc["rows"][1]["error"] is None
    assert doc["metadata"]["version"]


def test_non_finite_solutions_become_error_rows(tmp_path):
    # at omega = 1e300 the solve overflows to NaN; each point must fail on
    # its own row instead of aborting the sweep with a numpy error
    config = make_config(
        axis_values=(0.0, 0.1),
        base_params=BASE.with_value("omega", 1e300),
        truncation=(2, 2),
        strict_truncation=True,
    )
    result = run_sweep(config)
    assert [row.record for row in result.rows] == [None, None]
    assert all("not finite" in row.error for row in result.rows)
    cfg = write_yaml(
        tmp_path / "overflow.yaml",
        "axis: delta\nvalues: [0.0, 0.1]\ntruncation: [2, 2]\n"
        "params: {j_coupling: 0.1, omega: 1.0e300, gamma_c: 10.0, gamma_m: 10.0}\n",
    )
    out = tmp_path / "overflow.csv"
    assert main(["sweep", cfg, "--output", str(out)]) == 2
    _, rows = read_csv(str(out))
    assert [row["mean_n"] for row in rows] == ["error", "error"]


def test_undefined_correlations_round_trip(tmp_path):
    config = make_config(
        base_params=BASE.with_value("omega", 0.0), axis_values=(0.0, 0.1)
    )
    result = run_sweep(config)
    path = tmp_path / "vacuum.csv"
    emit_csv(result, str(path))
    cols, rows = read_csv(str(path))
    for row in rows:
        assert row["g2_n"] is None
        assert row["g2_m"] is None
        assert row["g2_nm"] is None
        assert row["mean_n"] == pytest.approx(0.0, abs=1e-15)
        assert row["converged"] is True


def test_csv_round_trip_is_lossless(tmp_path):
    result = run_sweep(make_config())
    path = tmp_path / "sweep.csv"
    emit_csv(result, str(path))
    cols, rows = read_csv(str(path))
    assert cols[0] == "axis"
    assert cols[-1] == "converged"
    for row, src in zip(rows, result.rows):
        # .17e formatting round-trips IEEE doubles exactly
        assert row["axis"] == src.axis_value
        assert row["mean_n"] == src.record.mean_n
        assert row["g2_nm"] == src.record.g2_nm
        assert row["log_neg"] == src.record.log_neg
        assert row["rho55"] == src.record.elements["rho55"]
        assert row["residual"] == src.report.residual_norm


def test_csv_is_deterministic_apart_from_timestamp(tmp_path):
    config = make_config()
    paths = []
    for tag in ("a", "b"):
        result = run_sweep(config)
        path = tmp_path / f"{tag}.csv"
        emit_csv(result, str(path))
        paths.append(path)
    lines_a = paths[0].read_text().splitlines()
    lines_b = paths[1].read_text().splitlines()
    assert lines_a[0].startswith("# pairsim ")
    assert lines_a[1:] == lines_b[1:]


def test_strict_truncation_aborts_with_context():
    config = SweepConfig(
        axis="delta",
        axis_values=(0.0,),
        base_params=SystemParams(
            delta=0.0, j_coupling=1.0, omega=100.0, gamma_c=1.0, gamma_m=1.0, m_th=0.0
        ),
        truncation=(2, 2),
        strict_truncation=True,
    )
    with pytest.raises(TruncationError, match="delta = 0"):
        run_sweep(config)


def test_strict_truncation_abort_names_the_deviation():
    config = make_config(
        axis_values=(0.0,),
        base_params=SystemParams(delta=0.0, j_coupling=1.0, omega=100.0, gamma_c=1.0, gamma_m=1.0),
        truncation=(2, 2),
        strict_truncation=True,
    )
    with pytest.raises(TruncationError, match=r"by up to \d\.\d\de[+-]\d+ relative, beyond 1e-06"):
        run_sweep(config)


def test_benchmark_hooks_see_every_layer_call(monkeypatch):
    # the sweep benchmark traces these names on pairsim.sweep, and its
    # reference generator replaces check_truncation there
    for name in ("build_liouvillian", "solve_steady", "compute_observables", "check_truncation"):
        assert callable(getattr(pairsim.sweep, name))
    calls = []  # appended to, since rows may finish together on two threads
    for name in ("solve_steady", "solve_steady_real", "compute_observables", "check_truncation"):
        original = getattr(pairsim.sweep, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pairsim.sweep, name, counting)
    run_sweep(make_config(strict_truncation=True))
    # the check solves its doubled space with the real solve, not solve_steady
    assert Counter(calls) == {
        "solve_steady": 3,
        "solve_steady_real": 1,
        "compute_observables": 3 + 1,
        "check_truncation": 1,
    }


def test_benchmark_self_test_passes():
    # bench/run.py wraps the sweep names above and counts LU fill through
    # the model's API; its self-test runs that harness on a tiny config
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--self-test"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_sweep_metadata_records_the_truncation_check():
    config = make_config(strict_truncation=True)
    check = run_sweep(config).metadata["truncation_check"]
    assert set(check) == {
        "axis_value", "levels", "unknowns", "lu_nnz", "residual_norm",
        "refine_steps", "min_eigenvalue", "max_deviation", "tolerance",
    }
    assert all(math.isfinite(value) for key, value in check.items() if key != "levels")
    assert check["levels"] == [6, 6]
    assert check["axis_value"] in config.axis_values
    assert check["residual_norm"] < RESIDUAL_TOL
    assert check["min_eigenvalue"] >= EIG_FLOOR
    assert 0 < check["max_deviation"] <= check["tolerance"] == TRUNCATION_TOL
    # the count is that of the real factorization the check made
    terms = SectorTerms.build(HilbertSpace(6, 6))
    _, real = solve_steady_real(terms.liouvillian(config.params_at(check["axis_value"])), terms)
    assert (check["unknowns"], check["lu_nnz"]) == (real.unknowns, real.lu_nnz)
    assert run_sweep(make_config()).metadata["truncation_check"] is None


def test_strict_truncation_marks_rows_converged():
    result = run_sweep(make_config(strict_truncation=True))
    for row in result.rows:
        assert row.report.truncation_converged is True
        assert row.converged


# ---------------------------------------------------------------- concurrent rows


def set_cpus(monkeypatch, count: int) -> None:
    """Make count CPUs look available to the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def solve_threads(monkeypatch) -> list[int]:
    """Record the thread of every solve_steady call of a sweep's rows."""
    threads = []
    original = pairsim.sweep.solve_steady

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(pairsim.sweep, "solve_steady", recording)
    return threads


def test_concurrent_rows_equal_the_calling_thread_rows(monkeypatch, tmp_path):
    # more workers than this machine may have cores, and a short switch
    # interval, so that threads interleave within every row
    set_cpus(monkeypatch, 8)
    threads = solve_threads(monkeypatch)
    config = make_config(axis_values=tuple(0.05 * k - 0.3 for k in range(13)))
    strict = replace(config, strict_truncation=True)
    unknowns = sector_index(HilbertSpace(3, 3)).size
    assert _row_workers(strict, unknowns) == 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = run_sweep(strict)
    finally:
        sys.setswitchinterval(interval)
    assert len(set(threads)) > 1 and threading.get_ident() not in threads
    serial = run_sweep(config)
    assert [row.axis_value for row in pooled.rows] == list(config.axis_values)
    for a, b in zip(pooled.rows, serial.rows):
        assert (a.axis_value, a.error, a.record) == (b.axis_value, b.error, b.record)
        assert a.report.truncation_converged is True and b.report.truncation_converged is None
        assert replace(a.report, truncation_converged=None) == b.report
    cells = []
    for result, name in ((pooled, "pooled.csv"), (serial, "serial.csv")):
        emit_csv(result, str(tmp_path / name))
        cells.append((tmp_path / name).read_text().splitlines()[1:])
    assert cells[0] == cells[1]


def test_concurrent_progress_runs_in_order_on_the_calling_thread(monkeypatch):
    set_cpus(monkeypatch, 4)
    config = make_config(axis_values=(-0.2, -0.1, 0.0, 0.1, 0.2), strict_truncation=True)
    calls = []
    run_sweep(config, lambda done, total: calls.append((done, total, threading.get_ident())))
    assert calls == [(done, 5, threading.get_ident()) for done in range(1, 6)]


def test_concurrent_failure_cancels_the_rows_not_started(monkeypatch):
    set_cpus(monkeypatch, 2)
    config = make_config(
        axis_values=tuple(0.02 * k for k in range(12)), truncation=(2, 2), strict_truncation=True
    )
    workers = _row_workers(config, sector_index(HilbertSpace(2, 2)).size)
    assert workers == 2
    k = 3  # the failing row, counted from 1
    terms = SectorTerms.build(HilbertSpace(2, 2))
    failing = terms.liouvillian(config.params_at(config.axis_values[k - 1]))
    started = []
    original = pairsim.sweep.solve_steady

    def failing_at_row_k(liouvillian, terms):
        started.append(liouvillian)
        if (liouvillian != failing).nnz == 0:
            raise RuntimeError("row k")
        time.sleep(0.05)  # the other rows outlast the cancellation
        return original(liouvillian, terms)

    monkeypatch.setattr(pairsim.sweep, "solve_steady", failing_at_row_k)
    with pytest.raises(RuntimeError, match="row k"):
        run_sweep(config)
    assert k <= len(started) <= k + workers < len(config.axis_values)


def test_concurrent_rows_hold_blas_at_one_thread(monkeypatch):
    controls = pairsim.sweep._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS found in this process")
    set_cpus(monkeypatch, 2)
    seen, checked = [], []
    for name, log in (("solve_steady", seen), ("solve_steady_real", checked)):

        def recording(*args, _original=getattr(pairsim.sweep, name), _log=log, **kwargs):
            _log.append([get() for get, _ in controls])
            return _original(*args, **kwargs)

        monkeypatch.setattr(pairsim.sweep, name, recording)
    counts = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        run_sweep(make_config(strict_truncation=True))
        after_pool = [get() for get, _ in controls]
        run_sweep(make_config())
        after_serial = [get() for get, _ in controls]
    finally:
        for (_, put), count in zip(controls, counts):
            put(count)
    ones, twos = [1] * len(controls), [2] * len(controls)
    # the pooled rows, the calling-thread rows and the truncation check alike
    # see one thread, and the count is restored after each sweep
    assert (seen, checked, after_pool, after_serial) == ([ones] * 6, [ones], twos, twos)


def test_rows_without_the_check_run_on_the_calling_thread(monkeypatch):
    set_cpus(monkeypatch, 64)
    threads = solve_threads(monkeypatch)
    config = make_config(axis_values=tuple(0.1 * k for k in range(8)))
    assert _row_workers(config, sector_index(HilbertSpace(3, 3)).size) == 1
    run_sweep(config)
    assert threads == [threading.get_ident()] * 8


def test_worker_count_is_bounded_by_the_unknowns_ratio(monkeypatch):
    set_cpus(monkeypatch, 64)
    sizes = []

    class Recording(pairsim.sweep.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(pairsim.sweep, "ThreadPoolExecutor", Recording)
    config = make_config(axis_values=tuple(0.02 * k for k in range(10)), strict_truncation=True)
    ratio = sector_index(HilbertSpace(6, 6)).size // sector_index(HilbertSpace(3, 3)).size
    assert _row_workers(config, sector_index(HilbertSpace(3, 3)).size) == ratio == 5
    run_sweep(config)
    assert sizes == [ratio]
    # every shipped config has the ratio 6, below its number of rows
    shipped = load_config(str(Path(pairsim.sweep.__file__).parent / "configs" / "fig2_weak.yaml"))
    assert _row_workers(shipped, sector_index(HilbertSpace(5, 5)).size) == 6


# ---------------------------------------------------------------- CLI


MINI_YAML = """\
name: mini
axis: delta
values: {start: -0.2, stop: 0.2, points: 3}
params: {delta: 0.0, j_coupling: 0.1, omega: 1.0, gamma_c: 10.0, gamma_m: 10.0}
truncation: [3, 3]
strict_truncation: false
"""


def test_cli_sweep_writes_csv_and_json(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
    out = tmp_path / "mini.csv"
    assert main(["sweep", cfg, "--output", str(out)]) == 0
    assert out.exists()
    doc = json.loads((tmp_path / "mini.json").read_text())
    assert len(doc["rows"]) == 3
    assert doc["metadata"]["config"]["truncation"] == [3, 3]
    report = doc["rows"][0]["report"]
    assert report["unknowns"] == 176  # n - m sector of (3, 3), of 1024 entries
    assert report["lu_nnz"] > report["unknowns"]
    assert "wrote" in capsys.readouterr().out


def test_cli_sweep_truncation_override(tmp_path):
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
    out = tmp_path / "odd.csv"
    assert main(["sweep", cfg, "--truncation", "2", "4", "--output", str(out)]) == 0
    doc = json.loads((tmp_path / "odd.json").read_text())
    assert doc["metadata"]["config"]["truncation"] == [2, 4]
    assert doc["rows"][0]["report"]["levels_used"] == [2, 4]


def test_cli_sweep_reports_the_truncation_check(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML.replace("strict_truncation: false", ""))
    assert main(["sweep", cfg, "--output", str(tmp_path / "mini.csv")]) == 0
    doc = json.loads((tmp_path / "mini.json").read_text())
    check = doc["metadata"]["truncation_check"]
    assert f"{check['unknowns']} unknowns, LU {check['lu_nnz']} entries" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path):
    # 1: no such config
    assert main(["sweep", str(tmp_path / "missing.yaml")]) == 1
    # 1: usage error (unknown argument)
    assert main(["sweep"]) == 1
    # 1: bad parameter value
    assert main(["point", "--gamma-c", "-2"]) == 1
    # 2: solver failure (degenerate steady state propagates)
    cfg = write_yaml(
        tmp_path / "frozen.yaml",
        "axis: gamma_m\nvalues: [0.0]\n"
        "params: {gamma_c: 1.0}\nstrict_truncation: false\ntruncation: [2, 2]\n",
    )
    out = tmp_path / "frozen.csv"
    assert main(["sweep", cfg, "--output", str(out)]) == 2
    # the error row is still written out rather than dropped
    cols, rows = read_csv(str(out))
    assert rows[0]["mean_n"] == "error"
    # 3: unwritable output path
    cfg = write_yaml(tmp_path / "ok.yaml", MINI_YAML)
    assert main(["sweep", cfg, "--output", str(tmp_path / "no" / "dir.csv")]) == 3


def test_cli_rejects_a_json_output_path_before_solving(tmp_path, monkeypatch, capsys):
    # the JSON mirror would overwrite the CSV at the same path
    solves = solve_threads(monkeypatch)
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
    assert main(["sweep", cfg, "--output", str(tmp_path / "res.json")]) == 1
    in_yaml = f"{MINI_YAML}output: {tmp_path / 'res.JSON'}\n"
    in_yaml = write_yaml(tmp_path / "in_yaml.yaml", in_yaml)
    assert main(["sweep", in_yaml]) == 1
    assert solves == []
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in_yaml.yaml", "mini.yaml"]
    assert capsys.readouterr().err.count("its JSON mirror would overwrite it") == 2


def test_cli_missing_output_directory_fails_before_solving(tmp_path, monkeypatch, capsys):
    solves = solve_threads(monkeypatch)
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
    out = tmp_path / "missing" / "x.csv"
    assert main(["sweep", cfg, "--output", str(out)]) == 3
    assert solves == []
    assert f"io error: [Errno 2] No such file or directory: '{out}'" in capsys.readouterr().err


def test_cli_strict_truncation_abort_exits_2(tmp_path):
    cfg = write_yaml(
        tmp_path / "hot.yaml",
        "axis: delta\nvalues: [0.0]\n"
        "params: {j_coupling: 1.0, omega: 100.0, gamma_c: 1.0, gamma_m: 1.0}\n"
        "truncation: [2, 2]\n",
    )
    assert main(["sweep", cfg, "--output", str(tmp_path / "hot.csv")]) == 2
    assert main(["sweep", cfg, "--no-strict-truncation",
                 "--output", str(tmp_path / "hot.csv")]) == 0


def test_cli_point_json(capsys):
    code = main([
        "point", "--delta", "0.1", "--j-coupling", "0.1", "--omega", "1",
        "--gamma-c", "10", "--gamma-m", "10", "--truncation", "3", "3", "--json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["params", "truncation", "observables", "report"]
    assert doc["params"]["gamma_c"] == 10.0
    assert doc["observables"]["mean_n"] > 0
    assert doc["report"]["residual_norm"] < 1e-10
    assert doc["report"]["levels_used"] == [3, 3]
    direct, _ = solve_point(BASE, SectorTerms.build(HilbertSpace(3, 3)))
    assert doc["observables"]["g2_nm"] == pytest.approx(direct.g2_nm)


def test_cli_point_json_reports_solve_size(capsys):
    assert main(["point", "--omega", "1", "--gamma-c", "10", "--gamma-m", "10", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truncation"] == [5, 5]
    report = doc["report"]
    assert report["unknowns"] == 584  # n - m sector of (5, 5), of 5184 entries
    assert report["lu_nnz"] > report["unknowns"]


def test_reports_carry_refinement_steps_and_smallest_eigenvalue(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    emit_json(run_sweep(make_config()), str(path))
    reports = [row["report"] for row in json.loads(path.read_text())["rows"]]
    assert main(["point", "--omega", "1", "--gamma-c", "10", "--gamma-m", "10",
                 "--truncation", "3", "3", "--json"]) == 0
    reports.append(json.loads(capsys.readouterr().out)["report"])
    assert len(reports) == 4
    for report in reports:
        assert type(report["refine_steps"]) is int
        assert 0 <= report["refine_steps"] <= MAX_REFINE
        assert math.isfinite(report["min_eigenvalue"])
        assert EIG_FLOOR <= report["min_eigenvalue"] <= 1.0


def test_cli_point_failures_exit_codes():
    # 2: a non-finite solution is a solver failure, not a crash
    assert main(["point", "--omega", "1e300", "--j-coupling", "1", "--gamma-c", "1",
                 "--gamma-m", "1", "--truncation", "2", "2"]) == 2
    # 1: the g2 floor is fixed, so --floor is an unknown argument
    assert main(["point", "--gamma-c", "1", "--gamma-m", "1", "--floor", "1e-16"]) == 1


def test_cli_point_text_reports_undef(capsys):
    assert main(["point", "--gamma-c", "1", "--gamma-m", "1",
                 "--truncation", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "g2_nm      = undef" in out
    assert "rho11      = 1" in out


def test_cli_check_battery_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_a_directory_does_not_shadow_a_shipped_config(tmp_path, monkeypatch):
    from pairsim.cli import _load_config_arg

    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig2_weak").mkdir()
    assert _load_config_arg("fig2_weak").name == "fig2_weak"


def test_shipped_configs_parse_and_run_thinned(tmp_path):
    from pairsim.cli import _load_config_arg, _packaged_configs

    names = sorted(_packaged_configs())
    assert names == [
        "fig2_strong", "fig2_weak", "fig4", "fig5_strong", "fig5_weak",
        "fig6", "fig7",
    ]
    for name in names:
        config = _load_config_arg(name)
        assert config.name == name
        values = config.axis_values
        thinned = replace(
            config,
            axis_values=(values[0], values[len(values) // 2], values[-1]),
            strict_truncation=False,
            output_path=None,
        )
        result = run_sweep(thinned)
        for row in result.rows:
            assert row.error is None, f"{name} @ {row.axis_value}: {row.error}"
            assert row.report.residual_norm < 1e-10
