"""Sweep configuration, execution, serialization, and CLI tests."""

import concurrent.futures.process
import fnmatch
import importlib
import io
import json
import math
import multiprocessing
import os
import pkgutil
import re
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml
from helpers import read_csv
from numpy.testing import assert_allclose

import pairsim
import pairsim.steady
import pairsim.sweep
from pairsim import cli
from pairsim.cli import build_parser, main
from pairsim.errors import ConfigError, ConvergenceError, TruncationError
from pairsim.model import SectorTerms, SystemParams, sector_index
from pairsim.observables import ELEMENT_KEYS, SCALAR_KEYS, compute_observables
from pairsim.operators import HilbertSpace
from pairsim.steady import (
    COMPLEX_LU_UNKNOWNS,
    EIG_FLOOR,
    MAX_REFINE,
    RESIDUAL_TOL,
    SolveReport,
    solve_steady,
)
from pairsim.sweep import (
    TRUNCATION_TOL,
    SweepConfig,
    _deviation,
    _expand_values,
    _mirror_sources,
    _one_blas_thread,
    _row_workers,
    check_truncation,
    emit_csv,
    emit_json,
    load_config,
    point_json,
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


def test_truncation_must_be_a_pair(tmp_path):
    with pytest.raises(ConfigError, match=r"truncation must be a pair, got \(3, 3, 3\)"):
        SweepConfig(axis="delta", axis_values=(0.0,), truncation=(3, 3, 3))
    for levels in ("5", "[3, 3, 3]"):
        path = write_yaml(
            tmp_path / "levels.yaml", f"axis: delta\nvalues: [0.0]\ntruncation: {levels}\n"
        )
        assert load_error(path) == f"truncation must be a pair, got {yaml.safe_load(levels)!r}"
        assert main(["sweep", path]) == 1


def test_axis_values_are_stored_as_a_tuple_of_floats(tmp_path):
    config = make_config(axis_values=np.linspace(-0.1, 0.1, 3), truncation=(2, 2))
    assert config.axis_values == (-0.1, 0.0, 0.1)
    assert [type(v) for v in config.axis_values] == [float] * 3
    assert hash(config) == hash(make_config(axis_values=[-0.1, 0.0, 0.1], truncation=(2, 2)))
    path = tmp_path / "linspace.json"
    emit_json(run_sweep(config), str(path))
    assert json.loads(path.read_text())["metadata"]["config"]["axis_values"] == [-0.1, 0.0, 0.1]
    for values in ("0.5", 0.5, (0.0, "x"), (0.0, True)):
        with pytest.raises(ConfigError, match="axis_values must be"):
            make_config(axis_values=values)


def test_a_non_finite_grid_value_is_named():
    # the model rejects it as a grid point, before the grid's order is judged
    for values, shown in (((0.0, math.nan), "nan"), ((0.0, math.inf, 1.0), "inf")):
        named = rf"axis_values: delta = {shown} is invalid \(delta must be finite\)"
        with pytest.raises(ConfigError, match=named):
            make_config(axis_values=values)
    for values in ((0.0, 0.2, 0.1), (0.1, 0.1)):
        with pytest.raises(ConfigError, match="axis_values must be strictly monotone"):
            make_config(axis_values=values)


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


def load_error(path: str) -> str:
    """The message of the ConfigError that loading path raises."""
    with pytest.raises(ConfigError) as info:
        load_config(path)
    return str(info.value)


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
    assert load_error(bad) == f"{bad}: unknown keys ['frobnicate']"
    bad = write_yaml(
        tmp_path / "badparam.yaml",
        "axis: delta\nvalues: [0]\nparams: {qfactor: 3}\n",
    )
    assert load_error(bad) == f"{bad}: unknown params keys ['qfactor']"
    bad = write_yaml(tmp_path / "listparams.yaml", "axis: delta\nvalues: [0]\nparams: [1, 2]\n")
    assert load_error(bad) == f"{bad}: params must be a mapping"
    bad = write_yaml(
        tmp_path / "negrate.yaml",
        "axis: delta\nvalues: [0]\nparams: {gamma_c: -1}\n",
    )
    assert load_error(bad) == "gamma_c must be nonnegative, got -1.0"
    bad = write_yaml(tmp_path / "notmap.yaml", "- 1\n- 2\n")
    assert load_error(bad) == f"{bad}: top level must be a mapping"
    bad = write_yaml(tmp_path / "noaxis.yaml", "values: [0]\n")
    assert load_error(bad) == f"{bad}: missing required key 'axis'"
    bad = write_yaml(tmp_path / "badyaml.yaml", "axis: [unclosed\n")
    assert load_error(bad).startswith(f"{bad}: not valid YAML (")
    # a name becomes the default file names, so it is not coerced with str()
    for name, shown in (("null", "None"), ("[a, b]", "['a', 'b']"), ("''", "''"), ("3", "3")):
        bad = write_yaml(tmp_path / "badname.yaml", f"axis: delta\nvalues: [0]\nname: {name}\n")
        assert load_error(bad) == f"name must be a non-empty string, got {shown}"
        assert main(["sweep", bad]) == 1


def yaml_keys() -> dict[str, str]:
    """SweepConfig's YAML keys, each mapped to the name of its field."""
    return {f.metadata.get("key", f.name): f.name for f in fields(SweepConfig)}


def test_config_keys_follow_the_fields(tmp_path):
    # every field is reached by exactly one key; three keys are not the
    # names of their fields
    keys = yaml_keys()
    assert len(keys) == len(fields(SweepConfig))
    assert {key: name for key, name in keys.items() if key != name} == {
        "values": "axis_values", "params": "base_params", "output": "output_path",
    }
    text = (
        "name: full\naxis: j_coupling\nvalues: [0.5, 1.0]\nparams: {delta: -0.1}\n"
        "couple_delta_to_j: true\ntruncation: [3, 4]\nstrict_truncation: false\n"
        "output: full.dat\n"
    )
    assert set(yaml.safe_load(text)) == set(keys)
    config = load_config(write_yaml(tmp_path / "full.yaml", text))
    # an absent key takes its field's default
    minimal = load_config(write_yaml(tmp_path / "min.yaml", "axis: delta\nvalues: [0.0, 0.5]\n"))
    assert minimal == SweepConfig("delta", (0.0, 0.5))
    for key, name in keys.items():
        assert getattr(config, name) != getattr(minimal, name), key
    assert (minimal.csv_path, minimal.json_path) == ("sweep.csv", "sweep.json")
    assert (config.csv_path, config.json_path) == ("full.dat", "full.json")


@pytest.mark.parametrize("key", ["axis_values: [1.0]", "base_params: {}", "output_path: x.csv"])
def test_field_names_of_renamed_keys_are_unknown_keys(tmp_path, key):
    path = write_yaml(tmp_path / "field.yaml", f"axis: delta\nvalues: [0]\n{key}\n")
    assert load_error(path) == f"{path}: unknown keys ['{key.split(':')[0]}']"


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


def test_readme_python_blocks_run(capsys):
    # Library use, then the truncation check of Choosing truncations, which
    # uses its names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 2
    names: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), names)
    assert capsys.readouterr().out.split() == [
        *(str(getattr(names["obs"], key)) for key in ("g2_n", "g2_nm", "log_neg")),
        "(584,)", "(72,", "72)", "584",
    ]
    assert names["converged"] is True


def test_readme_point_commands_run(capsys):
    # each `pairsim point` line of Command line's example solves
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [line.split("#")[0].split() for line in block.splitlines()]
    commands = [argv for argv in commands if argv[:2] == ["pairsim", "point"]]
    assert len(commands) == 2
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
    assert "solver error" not in capsys.readouterr().err


def test_readme_example_config_loads(tmp_path):
    # the documented config names every accepted key, so it cannot drift
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    data = yaml.safe_load(blocks[0])
    assert set(data) == set(yaml_keys())
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


@pytest.mark.parametrize("levels, real", [((5, 5), False), ((6, 8), True)])
def test_solve_steady_picks_its_factor_by_sector_size(levels, real, monkeypatch):
    # (5, 5)'s 584 unknowns take the unrefined complete complex LU, whose
    # entries the report gives, (6, 8)'s 1316 the refined real solve on its
    # level factors; a row is solve_steady's, bit for bit
    terms = SectorTerms.build(HilbertSpace(*levels))
    assert (terms.index.size > COMPLEX_LU_UNKNOWNS) == real
    factors = []
    complete = pairsim.steady._complete_lu
    monkeypatch.setattr(
        pairsim.steady, "_complete_lu", lambda a: factors.append(lu := complete(a)) or lu
    )
    params = BASE.with_value("gamma_m", 0.1)
    x, report = solve_steady(params, terms)
    assert x.shape == terms.index.shape
    if real:
        assert report.refine_steps >= 1 and factors == []
    else:
        (lu,) = factors
        assert report.refine_steps == 0 and report.lu_nnz == lu.nnz
        assert lu.L.dtype == np.complex128
    assert solve_point(params, terms) == (compute_observables(x, terms), report)


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
    # the record's columns are the header's between axis and residual
    for src in result.rows:
        assert list(src.record.columns()) == [*SCALAR_KEYS, *ELEMENT_KEYS] == cols[1:-2]
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


def test_numpy_levels_write_the_json_of_int_levels(tmp_path):
    # SweepConfig accepts numpy levels and stores them as ints
    docs = []
    for levels in ((2, 2), (np.int64(2), np.int64(2))):
        config = make_config(truncation=levels)
        assert [type(n) for n in config.truncation] == [int, int]
        path = tmp_path / "levels.json"
        emit_json(run_sweep(config), str(path))
        doc = json.loads(path.read_text())
        del doc["metadata"]["generated"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_a_failed_json_dump_leaves_no_file(tmp_path):
    result = run_sweep(make_config(truncation=(2, 2)))
    result.metadata["unwritable"] = object()
    path = tmp_path / "sweep.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        emit_json(result, str(path))
    assert not path.exists()


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
    # reference generator replaces check_truncation there; the tracer wraps
    # them in the calling process, where forked workers' calls never come
    # back, so the rows run serially here, on one CPU
    set_cpus(monkeypatch, 1)
    for name in ("build_liouvillian", "solve_steady", "compute_observables", "check_truncation"):
        assert callable(getattr(pairsim.sweep, name))
    calls = []
    for name in ("solve_steady", "compute_observables", "check_truncation"):
        original = getattr(pairsim.sweep, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pairsim.sweep, name, counting)
    # the rows and the check solve through solve_point, on the complex path
    # at (3, 3) and its (6, 6) check, on the real one at (6, 8) and (12, 16);
    # of the grid (-0.2, 0.0, 0.2), 0.2 takes -0.2's results unsolved, so
    # two rows solve, then the check
    for truncation, real in (((3, 3), False), ((6, 8), True)):
        calls.clear()
        result = run_sweep(make_config(truncation=truncation, strict_truncation=True))
        assert Counter(calls) == {
            "solve_steady": 2 + 1,
            "compute_observables": 2 + 1,
            "check_truncation": 1,
        }
        steps = [row.report.refine_steps for row in result.rows]
        steps.append(result.metadata["truncation_check"]["report"]["refine_steps"])
        assert all((step > 0) == real for step in steps), truncation


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
    # the record holds the doubled point as a JSON row holds it, then the verdict
    config = make_config(strict_truncation=True)
    result = run_sweep(config)
    check = result.metadata["truncation_check"]
    assert list(check) == ["axis_value", "observables", "report", "max_deviation", "tolerance"]
    assert list(check["report"]) == [f.name for f in fields(SolveReport)]
    assert check["report"]["levels_used"] == (6, 6)
    (base,) = [row for row in result.rows if row.axis_value == check["axis_value"]]
    terms = SectorTerms.build(HilbertSpace(6, 6))
    with _one_blas_thread():
        doubled, solved = solve_point(config.params_at(base.axis_value), terms)
    assert {key: check[key] for key in ("observables", "report")} == point_json(doubled, solved)
    assert check["max_deviation"] == max(
        *(_deviation(getattr(base.record, key), getattr(doubled, key)) for key in SCALAR_KEYS),
        *(_deviation(base.record.elements[key], doubled.elements[key]) for key in ELEMENT_KEYS),
    )
    assert 0 < check["max_deviation"] <= check["tolerance"] == TRUNCATION_TOL
    assert solved.residual_norm < RESIDUAL_TOL and solved.min_eigenvalue >= EIG_FLOOR
    assert run_sweep(make_config()).metadata["truncation_check"] is None


@pytest.mark.parametrize("levels", [(3, 3), (5, 5)])
def test_truncation_check_records_the_doubled_row(levels):
    # the check is a row at doubled levels: (6, 6)'s 924 unknowns take the
    # complete complex LU, (10, 10)'s 3564 the real solve, as rows do
    base = solve_point(BASE, SectorTerms.build(HilbertSpace(*levels)))
    check = check_truncation(BASE, base)
    assert check.pop("tolerance") >= check.pop("max_deviation")
    doubled = SectorTerms.build(HilbertSpace(2 * levels[0], 2 * levels[1]))
    assert check == point_json(*solve_point(BASE, doubled))


def test_truncation_check_compares_every_element(monkeypatch):
    # a doubled record in which only rho55 moves by 2e-6 relative fails
    record, report = solve_point(BASE, SectorTerms.build(HilbertSpace(3, 3)))
    rho55 = record.elements["rho55"]
    assert rho55 > 1e-9  # above _deviation's absolute floor
    moved = replace(record, elements={**record.elements, "rho55": rho55 * (1 + 2e-6)})
    monkeypatch.setattr(pairsim.sweep, "compute_observables", lambda x, terms: moved)
    check = check_truncation(BASE, (record, report))
    assert check["max_deviation"] == pytest.approx(2e-6, rel=1e-5)
    assert not check["max_deviation"] <= check["tolerance"]


def test_truncation_check_of_undefined_g2s(monkeypatch):
    # undriven, every g2 is undefined at both levels, which passes with no
    # deviation at all
    result = run_sweep(make_config(base_params=replace(BASE, omega=0.0), strict_truncation=True))
    check = result.metadata["truncation_check"]
    assert check["max_deviation"] == 0.0
    for observables in (*(asdict(row.record) for row in result.rows), check["observables"]):
        assert [observables[key] for key in ("g2_n", "g2_m", "g2_nm")] == [None] * 3
    # a g2 defined at one level and undefined at the other fails the check
    compute = pairsim.sweep.compute_observables

    def undefined_when_doubled(x, terms):
        record = compute(x, terms)
        return replace(record, g2_nm=None) if terms.space == HilbertSpace(6, 6) else record

    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(pairsim.sweep, "compute_observables", undefined_when_doubled)
    with pytest.raises(TruncationError, match="by up to inf relative"):
        run_sweep(make_config(strict_truncation=True))


def test_strict_truncation_rows_pass_the_recorded_check():
    # the check's record is the sweep's one verdict: a checked sweep that
    # returns its rows passed it, and every row it returns solved
    result = run_sweep(make_config(strict_truncation=True))
    check = result.metadata["truncation_check"]
    assert check["max_deviation"] <= check["tolerance"]
    assert all(row.error is None and row.converged for row in result.rows)


def test_truncation_check_stores_an_incomplete_factor(monkeypatch):
    # fig2_weak at delta = 0, checked at (10, 10): the complete LU of the
    # doubled system holds 1,419,742 entries, the level preconditioner's
    # factors 141,518; the only complete LU is the row's complex one
    factored = []
    complete = pairsim.steady._complete_lu
    monkeypatch.setattr(
        pairsim.steady, "_complete_lu", lambda a: factored.append(a.dtype) or complete(a)
    )
    config = make_config(axis_values=(0.0,), truncation=(5, 5), strict_truncation=True)
    check = run_sweep(config).metadata["truncation_check"]
    assert check["report"]["lu_nnz"] < 300_000 and factored == [np.complex128]
    assert check["max_deviation"] <= TRUNCATION_TOL
    # with one BLAS thread the record repeats exactly
    assert run_sweep(config).metadata["truncation_check"] == check


# ---------------------------------------------------------------- concurrent rows


def set_cpus(monkeypatch, count: int) -> None:
    """Make count CPUs look available to the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def solve_log(monkeypatch, path: Path, line=lambda *args: os.getpid(), pause: float = 0.0):
    """Append line(params, terms) to `path` at every sector solve of a
    sweep, then pause (so that a run outlasts the start of every worker);
    return a reader of the lines, none before the first solve.  A file,
    since a forked worker shares no list with the test."""
    original = pairsim.sweep.solve_steady

    def logged(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line(*args, **kwargs)) + "\n")
        time.sleep(pause)
        return original(*args, **kwargs)

    def read() -> list:
        return [json.loads(text) for text in path.read_text().splitlines()] if path.exists() else []

    monkeypatch.setattr(pairsim.sweep, "solve_steady", logged)
    return read


def test_concurrent_rows_equal_the_calling_thread_rows(monkeypatch, tmp_path):
    # more workers than this machine may have cores
    set_cpus(monkeypatch, 8)
    solves = solve_log(
        monkeypatch, tmp_path / "pids", lambda params, terms: [os.getpid(), params.delta], 0.02
    )
    config = make_config(axis_values=tuple(0.05 * k - 0.3 for k in range(13)))
    strict = replace(config, strict_truncation=True)
    # 13 rows make 7 runs of ceil(13 / ROW_RUNS) = 2 rows, so 7 workers
    assert _row_workers(7) == 7
    pooled = run_sweep(strict)
    # the rows solve in several worker processes, the check last, here
    *rows, (check, _) = solves()
    pids = {delta: pid for pid, delta in rows}
    assert len(rows) == len(config.axis_values) and check == os.getpid()
    assert len(set(pids.values())) > 1 and check not in pids.values()
    # each worker takes runs of ceil(13 / ROW_RUNS) = 2 neighbouring rows
    for start in range(0, len(config.axis_values), 2):
        assert len({pids[value] for value in config.axis_values[start : start + 2]}) == 1
    set_cpus(monkeypatch, 1)  # so that the serial sweep solves in this process
    assert _row_workers(7) == 1
    serial = run_sweep(config)
    assert [pid for pid, _ in solves()[len(rows) + 1 :]] == [os.getpid()] * len(rows)
    assert [row.axis_value for row in pooled.rows] == list(config.axis_values)
    for a, b in zip(pooled.rows, serial.rows):
        assert (a.axis_value, a.error, a.record) == (b.axis_value, b.error, b.record)
        assert a.report == b.report
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


def test_concurrent_failure_cancels_the_rows_not_started(monkeypatch, tmp_path):
    set_cpus(monkeypatch, 2)
    config = make_config(
        axis_values=tuple(0.02 * k for k in range(40)), truncation=(2, 2), strict_truncation=True
    )
    workers = _row_workers(pairsim.sweep.ROW_RUNS)  # 40 rows make 8 runs of 5
    assert workers == 2
    run = len(config.axis_values) // pairsim.sweep.ROW_RUNS  # 5 rows a run
    k = 3  # the failing row, counted from 1, in the first run
    failing = config.params_at(config.axis_values[k - 1])
    pause = 0.0
    started = tmp_path / "started"
    original = pairsim.sweep.solve_steady

    def failing_at_row_k(params, terms):
        with open(started, "a", encoding="utf-8") as fh:
            fh.write("row\n")
        if params == failing:
            raise RuntimeError("row k")
        time.sleep(pause if params.delta >= config.axis_values[run] else 0)
        return original(params, terms)

    monkeypatch.setattr(pairsim.sweep, "solve_steady", failing_at_row_k)
    # an exception in a row fails that row alone, and the other 39 rows
    # are solved (without the check, which (2, 2) does not pass)
    rows = run_sweep(replace(config, strict_truncation=False)).rows
    errors = [None] * len(config.axis_values)
    errors[k - 1] = "RuntimeError: row k"
    assert [row.error for row in rows] == errors
    assert sum(row.record is not None for row in rows) == len(config.axis_values) - 1
    assert len(started.read_text().splitlines()) == len(config.axis_values)
    assert multiprocessing.active_children() == []
    # an exception in the calling process, here from progress at the first
    # row, cancels the runs not handed out: handed out are the first run,
    # the workers' next two and the queue of workers + 1, and the rows
    # after the first run outlast the cancellation
    started.unlink()
    failing, pause = None, 0.05

    def stop(done, total):
        raise RuntimeError("progress")

    with pytest.raises(RuntimeError, match="progress"):
        run_sweep(config, stop)
    count = len(started.read_text().splitlines())
    assert run <= count <= (2 * workers + 2) * run < len(config.axis_values)
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_the_sweep(monkeypatch, tmp_path):
    # after a sweep, after failing rows and after a worker that dies: the
    # last returns at once instead of waiting for the row, its unreturned
    # runs as error rows naming BrokenProcessPool
    set_cpus(monkeypatch, 2)
    config = make_config(axis_values=tuple(0.02 * k for k in range(8)), truncation=(2, 2))
    run_sweep(config)
    assert multiprocessing.active_children() == []
    here = os.getpid()
    original = pairsim.sweep.solve_steady
    # a row of the 8 runs of one row, and one of the CLI's grid below
    dies_at = (config.axis_values[3], -0.2)

    def failing(params, terms):
        raise RuntimeError("failing row")

    def dying(params, terms):
        if os.getpid() == here:  # never end the test's own process
            raise AssertionError("rows ran in the calling process")
        if params.delta in dies_at:
            os._exit(1)
        return original(params, terms)

    with monkeypatch.context() as patch:
        patch.setattr(pairsim.sweep, "solve_steady", failing)
        rows = run_sweep(config).rows
    assert [row.error for row in rows] == ["RuntimeError: failing row"] * len(rows)
    assert multiprocessing.active_children() == []
    broken = f"{BrokenProcessPool.__name__}: "
    with monkeypatch.context() as patch:
        patch.setattr(pairsim.sweep, "solve_steady", dying)
        start = time.monotonic()
        rows = run_sweep(config).rows
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        # the CLI writes both files of such a sweep and exits 2; -0.2's
        # mirror at 0.2 copies its error
        cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
        out = tmp_path / "mini.csv"
        assert main(["sweep", cfg, "--output", str(out)]) == 2
    assert multiprocessing.active_children() == []
    # the rows returned before the pool broke stay solved, unchanged
    assert rows[3].record is None and rows[3].error.startswith(broken)
    terms = SectorTerms.build(HilbertSpace(*config.truncation))
    for row in rows:
        if row.error is None:
            with _one_blas_thread():
                fresh = solve_point(config.params_at(row.axis_value), terms)
            assert (row.record, row.report) == fresh
        else:
            assert row.record is row.report is None and row.error.startswith(broken)
    doc = json.loads((tmp_path / "mini.json").read_text())
    assert [row["axis_value"] for row in doc["rows"]] == [-0.2, 0.0, 0.2]
    assert doc["rows"][0]["error"].startswith(broken)
    assert doc["rows"][2]["error"] == doc["rows"][0]["error"]
    assert len(out.read_text().splitlines()) == 2 + 3


def test_pooled_sweep_forks_no_process_with_other_threads(monkeypatch, tmp_path):
    # Python 3.12 and later warn when a process with other threads forks
    set_cpus(monkeypatch, 2)
    solves = solve_log(monkeypatch, tmp_path / "pids")
    config = make_config()
    solved = 2  # -0.2 and 0.0; 0.2 takes -0.2's results, on two workers
    assert _row_workers(solved) == 2  # runs of one row
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        pooled = run_sweep(config)
    assert len(solves()) == solved and os.getpid() not in solves()
    # off Linux, or while another thread is alive, the rows run serially
    # here, and equal the pooled ones
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _row_workers(solved) == 1
        with_thread = run_sweep(config)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "platform", "darwin")
        assert _row_workers(solved) == 1
        off_linux = run_sweep(config)
    assert solves()[solved:] == [os.getpid()] * 2 * solved
    for serial in (with_thread, off_linux):
        assert [(row.record, row.report) for row in serial.rows] == [
            (row.record, row.report) for row in pooled.rows
        ]


def test_concurrent_rows_hold_blas_at_one_thread(monkeypatch, tmp_path):
    controls = pairsim.sweep._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS found in this process")
    set_cpus(monkeypatch, 2)
    seen = solve_log(monkeypatch, tmp_path / "counts", lambda *args: [get() for get, _ in controls])
    counts = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        run_sweep(make_config(strict_truncation=True))
        after_pool = [get() for get, _ in controls]
        set_cpus(monkeypatch, 1)
        run_sweep(make_config())
        after_serial = [get() for get, _ in controls]
    finally:
        for (_, put), count in zip(controls, counts):
            put(count)
    ones, twos = [1] * len(controls), [2] * len(controls)
    # the pooled rows in their workers, the check, and the serial rows
    # alike see one thread, and the count is restored after each sweep; of
    # the grid (-0.2, 0.0, 0.2) two rows solve, since 0.2 takes -0.2's results
    assert (seen(), after_pool, after_serial) == ([ones] * (2 + 1 + 2), twos, twos)


@contextmanager
def blas_counts_at(count: int):
    """Every loaded OpenBLAS's thread control, with its count set to `count`
    and restored after; skips where no OpenBLAS is found."""
    controls = pairsim.sweep._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS found in this process")
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(count)
        yield controls
    finally:
        for (_, put), old in zip(controls, saved):
            put(old)


def test_overlapping_one_blas_thread_holders_keep_the_pin():
    # two sweeps on two threads, or a point solved during a sweep: the
    # count stays 1 until the last holder leaves, which restores it
    first, second = _one_blas_thread(), _one_blas_thread()
    with blas_counts_at(2) as controls:
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        after_first = [get() for get, _ in controls]
        second.__exit__(None, None, None)
        after_second = [get() for get, _ in controls]
    assert (after_first, after_second) == ([1] * len(controls), [2] * len(controls))


def test_one_blas_thread_holders_on_many_threads_keep_the_pin():
    seen = []

    def hold():
        for _ in range(200):
            with _one_blas_thread():
                seen.append([get() for get, _ in controls])

    threads = [threading.Thread(target=hold) for _ in range(8)]
    interval = sys.getswitchinterval()
    with blas_counts_at(2) as controls:
        try:
            sys.setswitchinterval(1e-6)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        after = [get() for get, _ in controls]
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [[1] * len(controls)] * (8 * 200)
    assert after == [2] * len(controls)


def test_openblas_under_a_path_with_a_space_is_pinned(tmp_path, monkeypatch):
    # a maps line ends with the pathname, which may hold spaces
    libs = sorted((Path(scipy.__file__).parents[1] / "scipy.libs").glob("libscipy_openblas*.so"))
    if not libs:
        pytest.skip("no bundled scipy OpenBLAS found")
    link = tmp_path / "my env" / "libscipy_openblas.so"
    link.parent.mkdir()
    link.symlink_to(libs[0])
    maps = f"7f0000000000-7f0000001000 r-xp 00000000 08:01 1234567    {link}\n"

    def fake_open(path, *args, **kwargs):
        return io.StringIO(maps) if path == "/proc/self/maps" else open(path, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(pairsim.sweep, "open", fake_open, raising=False)
        controls = pairsim.sweep._openblas_thread_controls()
    assert len(controls) == 1
    # the link names the loaded library, whose count the real controls set
    with blas_counts_at(2):
        assert controls[0][0]() == 2


def test_real_solve_rows_run_on_worker_processes(monkeypatch, tmp_path):
    # rows above COMPLEX_LU_UNKNOWNS take the real solve, whose triangular
    # solves overlap in processes as the complex rows do: the same workers
    # for either solve, checked or not, one for each of the 8 runs of a row
    set_cpus(monkeypatch, 64)
    solves = solve_log(monkeypatch, tmp_path / "pids", pause=0.02)
    config = make_config(axis_values=tuple(0.1 * k for k in range(8)), truncation=(6, 8))
    assert sector_index(HilbertSpace(6, 8)).size > COMPLEX_LU_UNKNOWNS
    assert _row_workers(8) == 8
    run_sweep(config)
    assert len(solves()) == 8 and len(set(solves())) > 1
    assert os.getpid() not in solves()


def test_the_pool_has_one_worker_a_run_up_to_the_cpus(monkeypatch):
    # a worker solves a run at a time, so a worker beyond the runs would be
    # forked only to wait; the pool gets exactly the runs
    set_cpus(monkeypatch, 64)
    pools = []

    class Recording(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append([max_workers, 0])
            super().__init__(max_workers, **kwargs)

        def submit(self, *args, **kwargs):
            pools[-1][1] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
    # 9 rows make 5 runs of ceil(9 / ROW_RUNS) = 2, and 8 rows 8 runs of 1
    for count, levels, runs in ((9, (5, 5), 5), (8, (3, 3), 8)):
        run_sweep(make_config(axis_values=tuple(0.02 * k for k in range(count)), truncation=levels))
        assert pools.pop() == [runs, runs], levels
    # every shipped config, on a stand-in solve: min(CPUs, runs) workers,
    # and at most ROW_RUNS runs of the rows it solves
    monkeypatch.setattr(pairsim.sweep, "solve_point", lambda params, terms: (params, None))
    for path in sorted((Path(pairsim.sweep.__file__).parent / "configs").glob("*.yaml")):
        shipped = replace(load_config(str(path)), strict_truncation=False)
        solved = _mirror_sources(shipped).count(None)
        runs = len(range(0, solved, -(-solved // pairsim.sweep.ROW_RUNS)))
        assert runs <= pairsim.sweep.ROW_RUNS < solved, path.name
        for cpus in (4, 64):
            set_cpus(monkeypatch, cpus)
            assert len(run_sweep(shipped).rows) == len(shipped.axis_values)
            assert pools.pop() == [min(cpus, runs), runs], (path.name, cpus)


# ---------------------------------------------------------------- detuning parity

SERIAL_POOLED = pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])


@SERIAL_POOLED
@pytest.mark.parametrize("levels", [(5, 5), (6, 8)], ids=["complex", "real"])
def test_a_mirrored_row_equals_a_fresh_solve_at_minus_delta(levels, cpus, monkeypatch, tmp_path):
    # (5, 5)'s rows take the complete complex LU, (6, 8)'s the real solve;
    # -0.3, -0.1 and 0.0 are solved, and 0.1 and 0.3 take the results of
    # -0.1 and -0.3, which equal a solve at 0.1 and 0.3 bit for bit
    terms = SectorTerms.build(HilbertSpace(*levels))
    assert (terms.index.size > COMPLEX_LU_UNKNOWNS) == (levels == (6, 8))
    set_cpus(monkeypatch, cpus)
    solves = solve_log(
        monkeypatch, tmp_path / "solves", lambda params, terms: [os.getpid(), params.delta]
    )
    config = make_config(axis_values=(-0.3, -0.1, 0.0, 0.1, 0.3), truncation=levels)
    result = run_sweep(config)
    pids = {delta: pid for pid, delta in solves()}
    assert sorted(pids) == [-0.3, -0.1, 0.0] and len(solves()) == 3
    if cpus == 1:
        assert set(pids.values()) == {os.getpid()}
    else:
        assert os.getpid() not in pids.values()
    assert [row.axis_value for row in result.rows] == list(config.axis_values)
    assert result.rows[3].record is result.rows[1].record
    assert result.rows[4].report is result.rows[0].report
    for row in result.rows:
        with _one_blas_thread():
            fresh = solve_point(config.params_at(row.axis_value), terms)
        assert row.error is None and (row.record, row.report) == fresh, row.axis_value


def test_a_delta_sweep_solves_each_magnitude_once(monkeypatch):
    # a stand-in solve, on the serial path, whose record names the delta,
    # or the value of the other axis, that it was solved at
    set_cpus(monkeypatch, 1)
    solved = []

    def solve(params, terms):
        solved.append(params)
        return ("solved at", params), None

    monkeypatch.setattr(pairsim.sweep, "solve_point", solve)
    for name, count in (("fig2_weak", 144), ("fig2_strong", 151), ("fig6", 101)):
        solved.clear()
        path = Path(pairsim.sweep.__file__).parent / "configs" / f"{name}.yaml"
        config = replace(load_config(str(path)), strict_truncation=False)
        rows = run_sweep(config).rows
        assert len(solved) == count and len(rows) == len(config.axis_values), name
        assert [row.axis_value for row in rows] == list(config.axis_values)
        # a row not solved holds the results of the row at its negative
        mirrored = [row for row in rows if row.record[1] != config.params_at(row.axis_value)]
        assert len(mirrored) == len(rows) - count
        assert all(row.record[1] == config.params_at(-row.axis_value) for row in mirrored)
    # a gamma_m grid has no negative values; a j_coupling grid that has
    # them solves every row, since the parity is in delta alone
    j_grid = make_config(axis="j_coupling", axis_values=(-0.2, 0.0, 0.2))
    solved.clear()
    run_sweep(j_grid)
    assert [params.j_coupling for params in solved] == [-0.2, 0.0, 0.2]
    # a row at 0.0 solves once, on either side of a grid in either order
    for grid, solves in (
        ((-0.2, 0.0, 0.2), [-0.2, 0.0]),
        ((0.2, 0.0, -0.2), [0.2, 0.0]),
        ((0.0,), [0.0]),
        ((0.0, 0.1), [0.0, 0.1]),
        ((-0.1, 0.0), [-0.1, 0.0]),
    ):
        solved.clear()
        rows = run_sweep(make_config(axis_values=grid)).rows
        assert [params.delta for params in solved] == solves, grid
        assert [row.axis_value for row in rows] == list(grid)


@SERIAL_POOLED
def test_progress_counts_every_grid_row_in_order(cpus, monkeypatch, tmp_path):
    # 0.05 * k and 0.05 * -k are exact negatives: 7 of the 13 rows solve
    set_cpus(monkeypatch, cpus)
    solves = solve_log(monkeypatch, tmp_path / "solves", lambda params, terms: params.delta)
    for grid in (tuple(0.05 * k for k in range(-6, 7)), tuple(0.05 * k for k in range(6, -7, -1))):
        calls = []
        result = run_sweep(make_config(axis_values=grid), lambda *args: calls.append(args))
        assert calls == [(done, 13) for done in range(1, 14)]
        assert [row.axis_value for row in result.rows] == list(grid)
    assert sorted(solves()) == sorted(0.05 * k for k in [*range(-6, 1), *range(0, 7)])


@SERIAL_POOLED
def test_a_failed_source_row_fails_its_mirror_after_one_solve(cpus, monkeypatch, tmp_path):
    set_cpus(monkeypatch, cpus)
    config = make_config(axis_values=(-0.2, -0.1, 0.0, 0.1, 0.2))
    original = pairsim.sweep.solve_steady

    def failing_at_minus_0_1(params, terms):
        if params.delta == -0.1:
            raise raised(f"stalled at delta = {params.delta:g}")
        return original(params, terms)

    monkeypatch.setattr(pairsim.sweep, "solve_steady", failing_at_minus_0_1)
    solves = solve_log(monkeypatch, tmp_path / "solves", lambda params, terms: params.delta)
    # a PairsimError's message is the row's error; any other exception's
    # is prefixed by its type
    for raised, error in (
        (ConvergenceError, "stalled at delta = -0.1"),
        (RuntimeError, "RuntimeError: stalled at delta = -0.1"),
    ):
        result = run_sweep(config)
        assert sorted(solves()[-3:]) == [-0.2, -0.1, 0.0]
        rows = {row.axis_value: row for row in result.rows}
        for value in (-0.1, 0.1):
            assert rows[value].error == error
            assert rows[value].record is rows[value].report is None and not rows[value].converged
        assert all(rows[value].error is None for value in (-0.2, 0.0, 0.2))
    assert len(solves()) == 6 and multiprocessing.active_children() == []


def test_a_grid_of_one_magnitude_forks_nothing(monkeypatch, tmp_path):
    # (-d, d) solves one row, so one worker: in this process, with no pool
    set_cpus(monkeypatch, 64)
    solves = solve_log(monkeypatch, tmp_path / "pids")

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
    config = make_config(axis_values=(-0.2, 0.2))
    assert _row_workers(1) == 1
    first, second = run_sweep(config).rows
    assert solves() == [os.getpid()]
    assert (second.axis_value, second.record, second.report) == (0.2, first.record, first.report)


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
    report = doc["metadata"]["truncation_check"]["report"]
    err = capsys.readouterr().err
    # every field of the doubled point's report, by name
    assert all(f"{key} " in err for key in report)
    assert f"unknowns {report['unknowns']}, lu_nnz {report['lu_nnz']}," in err


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
    solves = solve_log(monkeypatch, tmp_path / "solves")
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
    assert main(["sweep", cfg, "--output", str(tmp_path / "res.json")]) == 1
    in_yaml = f"{MINI_YAML}output: {tmp_path / 'res.JSON'}\n"
    in_yaml = write_yaml(tmp_path / "in_yaml.yaml", in_yaml)
    assert main(["sweep", in_yaml]) == 1
    assert solves() == []
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in_yaml.yaml", "mini.yaml"]
    assert capsys.readouterr().err.count("its JSON mirror would overwrite it") == 2


def test_cli_rejects_an_empty_output_path_before_solving(tmp_path, monkeypatch, capsys):
    # an empty path is not replaced by the default <name>.csv
    solves = solve_log(monkeypatch, tmp_path / "solves")
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
    assert main(["sweep", cfg, "--output", ""]) == 1
    in_yaml = write_yaml(tmp_path / "in_yaml.yaml", f"{MINI_YAML}output: ''\n")
    assert main(["sweep", in_yaml]) == 1
    assert solves() == []
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in_yaml.yaml", "mini.yaml"]
    assert capsys.readouterr().err.count("config error: output must be a file path, got ''") == 2


def test_cli_missing_output_directory_fails_before_solving(tmp_path, monkeypatch, capsys):
    solves = solve_log(monkeypatch, tmp_path / "solves")
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
    out = tmp_path / "missing" / "x.csv"
    assert main(["sweep", cfg, "--output", str(out)]) == 3
    assert solves() == []
    assert f"io error: [Errno 2] No such file or directory: '{out}'" in capsys.readouterr().err


def test_cli_output_directory_fails_before_solving(tmp_path, monkeypatch, capsys):
    solves = solve_log(monkeypatch, tmp_path / "solves")
    cfg = write_yaml(tmp_path / "mini.yaml", MINI_YAML)
    out = tmp_path / "out"
    out.mkdir()
    # with a trailing separator, the JSON mirror would be out/.json
    for path in (str(out), str(out) + os.sep):
        assert main(["sweep", cfg, "--output", path]) == 3
        assert f"io error: [Errno 21] Is a directory: '{path}'" in capsys.readouterr().err
        in_yaml = write_yaml(tmp_path / "in_yaml.yaml", f"{MINI_YAML}output: {path}\n")
        assert main(["sweep", in_yaml]) == 3
        assert f"io error: [Errno 21] Is a directory: '{path}'" in capsys.readouterr().err
    # a directory where the JSON mirror goes
    mirror = tmp_path / "res.json"
    mirror.mkdir()
    assert main(["sweep", cfg, "--output", str(tmp_path / "res.csv")]) == 3
    assert f"io error: [Errno 21] Is a directory: '{mirror}'" in capsys.readouterr().err
    assert solves() == []
    assert not any(out.iterdir()) and not (tmp_path / "res.csv").exists()


def test_cli_strict_truncation_abort_exits_2(tmp_path):
    hot = (
        "axis: delta\nvalues: [0.0]\n"
        "params: {j_coupling: 1.0, omega: 100.0, gamma_c: 1.0, gamma_m: 1.0}\n"
        "truncation: [2, 2]\n"
    )
    cfg = write_yaml(tmp_path / "hot.yaml", hot)
    assert main(["sweep", cfg, "--output", str(tmp_path / "hot.csv")]) == 2
    # the check is waived only in a config, and the JSON metadata records it
    cfg = write_yaml(tmp_path / "waived.yaml", hot + "strict_truncation: false\n")
    assert main(["sweep", cfg, "--output", str(tmp_path / "waived.csv")]) == 0
    metadata = json.loads((tmp_path / "waived.json").read_text())["metadata"]
    assert metadata["config"]["strict_truncation"] is False
    assert metadata["truncation_check"] is None


def test_cli_sweep_cannot_skip_the_truncation_check(monkeypatch, capsys, tmp_path):
    solves = solve_log(monkeypatch, tmp_path / "solves")
    assert main(["sweep", "fig2_weak", "--no-strict-truncation"]) == 1
    assert "unrecognized arguments: --no-strict-truncation" in capsys.readouterr().err
    assert solves() == []
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--truncation", "--output"}


def test_only_fig7_waives_the_truncation_check():
    # a second shipped waiver has to be a visible decision
    configs = Path(pairsim.sweep.__file__).parent / "configs"
    waived = [
        path.name
        for path in sorted(configs.glob("*.yaml"))
        if not load_config(str(path)).strict_truncation
    ]
    assert waived == ["fig7.yaml"]


def test_point_flags_follow_the_system_params():
    parser = build_parser()
    names = [f.name for f in fields(SystemParams)]
    defaults = vars(parser.parse_args(["point"]))
    assert set(defaults) - set(names) == {"command", "func", "truncation", "json"}
    assert defaults["truncation"] == SweepConfig.truncation
    for f in fields(SystemParams):
        assert defaults[f.name] == f.default
        flag = "--" + f.name.replace("_", "-")
        assert getattr(parser.parse_args(["point", flag, "2.5"]), f.name) == 2.5
    assert pairsim.sweep._PARAM_KEYS == set(names)


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


def test_point_report_equals_a_sweep_row_with_a_threaded_blas(tmp_path):
    # the environment asks OpenBLAS for two threads; point solves with one,
    # as a sweep's rows do, so its report equals the row's bit for bit
    if not pairsim.sweep._openblas_thread_controls():
        pytest.skip("no OpenBLAS found in this process")
    src = Path(pairsim.sweep.__file__).parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(src)}

    def cli(*args: str) -> str:
        done = subprocess.run(
            [sys.executable, "-m", "pairsim.cli", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    point = json.loads(cli(
        "point", "--delta", "100", "--j-coupling", "100", "--omega", "1", "--gamma-c", "10",
        "--gamma-m", "10", "--truncation", "6", "8", "--json",
    ))
    cfg = write_yaml(
        tmp_path / "one.yaml",
        "axis: gamma_m\nvalues: [10.0]\ntruncation: [6, 8]\nstrict_truncation: false\n"
        "params: {delta: 100.0, j_coupling: 100.0, omega: 1.0, gamma_c: 10.0}\n",
    )
    cli("sweep", cfg, "--output", str(tmp_path / "one.csv"))
    row = json.loads((tmp_path / "one.json").read_text())["rows"][0]
    assert point["report"] == row["report"]
    assert point["observables"] == row["observables"]


def test_reports_hold_exactly_the_solve_report_fields(tmp_path, capsys):
    # a row's report and point's report are the SolveReport, and the
    # sweep's truncation verdict is in neither
    names = [f.name for f in fields(SolveReport)]
    rows = {}
    for strict in (False, True):
        path = tmp_path / f"strict_{strict}.json"
        emit_json(run_sweep(make_config(strict_truncation=strict)), str(path))
        rows[strict] = json.loads(path.read_text())["rows"]
        assert [list(row["report"]) for row in rows[strict]] == [names] * 3
    assert main(["point", "--delta", "0", "--j-coupling", "0.1", "--omega", "1", "--gamma-c",
                 "10", "--gamma-m", "10", "--truncation", "3", "3", "--json"]) == 0
    point = json.loads(capsys.readouterr().out)
    assert list(point["report"]) == names
    assert rows[True][1]["axis_value"] == 0.0
    assert point["report"] == rows[True][1]["report"] == rows[False][1]["report"]


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
    n = len(cli._check_points())
    assert out.count("PASS  ") == n
    assert "FAIL" not in out
    assert f"{n}/{n} points passed" in out


def _nudged(value: float, rel: float, share: float) -> float:
    """value moved by `share` of the most that `pairsim check` allows at
    relative tolerance rel."""
    return value + share * (rel * abs(value) + cli.CHECK_ABS_TOL) / (1.0 - rel)


def test_check_cases_fail_outside_their_tolerance(monkeypatch, capsys):
    points = cli._check_points()
    at = {(point["config"], point["role"]): point for point in points}
    unrefined, refined = cli.CHECK_UNREFINED_REL_TOL, cli.CHECK_REL_TOL
    # a complex LU point (unrefined) and a real one (refined), each moved
    # just inside and just past its tolerance
    for role, share in (("first", 0.99), ("middle", 1.01)):
        columns = at["fig2_weak", role]["columns"]
        columns["g2_m"] = _nudged(columns["g2_m"], unrefined, share)
        columns = at["fig6", role]["columns"]
        columns["mean_m"] = _nudged(columns["mean_m"], refined, share)
    # a defined value where the packaged one is undefined
    at["fig4", "first"]["columns"]["g2_nm"] = None
    # a point that raises
    at["fig5_strong", "last"]["params"]["gamma_c"] = -1.0
    monkeypatch.setattr(cli, "_check_points", lambda: points)
    assert main(["check"]) == 2
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 4
    assert re.match(r"FAIL  fig2_weak +middle .*; g2_m \S+ \(packaged \S+\)$", failed[0])
    assert re.match(r"FAIL  fig4 +first .*; g2_nm \S+ \(packaged undef\)$", failed[1])
    assert re.match(r"FAIL  fig5_strong +last .*; raised ConfigError: ", failed[2])
    assert re.match(r"FAIL  fig6 +middle .*; mean_m \S+ \(packaged \S+\)$", failed[3])
    assert f"{len(points) - 4}/{len(points)} points passed" in out

    # and an undefined value where a defined one is packaged
    params = SystemParams(omega=0.0, gamma_c=1.0, gamma_m=1.0)
    record, report = solve_point(params, SectorTerms.build(HilbertSpace(2, 2)))
    columns = {**{key: getattr(record, key) for key in SCALAR_KEYS}, **record.elements}
    assert record.g2_n is None and cli.mismatches(columns, record, report) == []
    assert cli.mismatches({**columns, "g2_n": 1.0}, record, report) == [
        "g2_n undef (packaged 1.00000000000000000e+00)"
    ]


def test_a_directory_does_not_shadow_a_shipped_config(tmp_path, monkeypatch):
    from pairsim.cli import _load_config_arg

    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig2_weak").mkdir()
    assert _load_config_arg("fig2_weak").name == "fig2_weak"


# ---------------------------------------------------------------- exports


def test_package_data_globs_ship_every_file_the_package_reads():
    # the tests import pairsim from src/, so they would pass with a data
    # file that pyproject.toml leaves out of the wheel
    root = Path(pairsim.__file__).parent
    text = (root.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[tool\.setuptools\.package-data\]$(.*?)^\[", text, re.M | re.S)
    globs = json.loads(re.search(r"^pairsim = (\[.*\])$", table.group(1), re.M).group(1))
    data = sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc")
    )
    # the shipped configs and `pairsim check`'s points
    configs = [f"configs/{name}.yaml" for name in sorted(cli._packaged_configs())]
    assert data == ["check_points.json", *configs]
    for name in data:
        assert any(fnmatch.fnmatch(name, glob) for glob in globs), name


def test_every_exported_name_resolves():
    modules = [
        importlib.import_module(f"pairsim.{info.name}")
        for info in pkgutil.iter_modules(pairsim.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
    # the package root defines __version__ and re-exports nothing
    public = {name for name in vars(pairsim) if not name.startswith("_")}
    assert public <= {module.__name__.split(".")[1] for module in modules}
