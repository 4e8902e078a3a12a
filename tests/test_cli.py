import collections
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaoslab
from chaoslab import cli
from chaoslab.cli import _load_paths, main, make_grid, make_spec, write_csv, write_json
from chaoslab.kernels import CirculantField, KernelDiscretization, _window_spectra
from chaoslab.regularity import BesovLevel, BesovSeminormReport, PathSample
from chaoslab.tensors import SymTensor


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_cli_import_loads_no_scipy():
    # chaoslab runs on numpy alone; scipy is a reference of the tests
    code = "import sys, chaoslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(chaoslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_expand_counterexample_fixture(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"fixture": "counterexample"})
    out = tmp_path / "out"
    assert main(["expand", "--config", cfg, "--out-dir", str(out)]) == 0
    report = read_json(out / "expand_report.json")
    assert abs(report["rho"]) < 1e-12
    assert report["fourth_moment_covariance"] == pytest.approx(4.0, rel=1e-10)
    assert (out / "resolved_config.json").exists()


def test_expand_tensor_file(tmp_path):
    rng = np.random.default_rng(0)
    tensors = [SymTensor(rng.standard_normal(3)).to_dict() for _ in range(2)]
    tensor_file = tmp_path / "tensors.json"
    tensor_file.write_text(json.dumps(tensors))
    cfg = write_config(tmp_path, "cfg.json", {"tensors": str(tensor_file), "seed": 4})
    out = tmp_path / "out"
    assert main(["expand", "--config", cfg, "--out-dir", str(out)]) == 0
    report = read_json(out / "expand_report.json")
    assert report["relative_gap"] <= 1e-9
    assert report["pointwise_max_error"] <= 1e-9
    expansion = read_json(out / "expansion.json")
    assert sorted(int(k) for k in expansion["terms"]) == [0, 2]


def test_expand_first_order_fixture(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"fixture": "first-order-product"})
    out = tmp_path / "out"
    assert main(["expand", "--config", cfg, "--out-dir", str(out)]) == 0
    expansion = read_json(out / "expansion.json")
    assert sorted(int(k) for k in expansion["terms"]) == [0, 2]


def test_verify_passes_for_fbm(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "kernel": {"type": "fbm", "alpha": 0.75},
            "grid": {"steps": 256, "left_units": 30},
            "upper_levels": [1, 2, 3, 4, 5, 6],
            "coupling_levels": [2, 3, 4, 5],
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 0
    report = read_json(out / "verify_report.json")
    assert report["passed"]
    assert report["coupling"]["epsilon"] > 0
    assert report["truncation"]["relative_tail"] >= 0


def test_verify_zero_kernel_fails(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "kernel": {"type": "zero", "order": 1},
            "grid": {"steps": 128, "left_units": 8},
            "skip_refinement": True,
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
    report = read_json(out / "verify_report.json")
    assert not report["lower_scaling"]["passed"]


def test_simulate_reproducible_and_report(tmp_path):
    sim_cfg = {
        "kernel": {"type": "hermite", "order": 2, "alpha": 0.7},
        "grid": {"steps": 256, "left_units": 10},
        "paths": 4,
        "seed": 9,
    }
    cfg = write_config(tmp_path, "sim.json", sim_cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(out2)]) == 0
    first = (out1 / "path-0000.csv").read_bytes()
    assert first == (out2 / "path-0000.csv").read_bytes()
    assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()
    run = read_json(out1 / "run.json")
    assert run["seed"] == 9 and run["generator"] == "philox"

    rep_cfg = write_config(
        tmp_path,
        "rep.json",
        {
            "paths_dir": str(out1),
            "slope": {"p": 2, "levels": [2, 3, 4, 5]},
            "besov": {"smoothness": 0.7, "orlicz_beta": 1.0},
            "moment_growth": {"alpha": 0.7, "exponents": [1.0, 0.5], "levels": [3, 4, 5]},
            "modulus": {"alpha": 0.7, "log_exponent": 1.0, "subsample_factors": [1, 2]},
        },
    )
    rep_out = tmp_path / "rep"
    code = main(["report", "--config", rep_cfg, "--out-dir", str(rep_out)])
    summary = read_json(rep_out / "report_summary.json")
    assert summary["paths"] == 4
    assert (rep_out / "slopes.csv").exists()
    assert (rep_out / "besov_levels.csv").exists()
    assert (rep_out / "moment_quantiles.csv").exists()
    assert (rep_out / "modulus.csv").exists()
    assert code == 0 if summary["passed"] else 1


def test_report_with_inline_simulation_and_tolerance(tmp_path):
    cfg = write_config(
        tmp_path,
        "rep.json",
        {
            "simulate": {
                "kernel": {"type": "fbm", "alpha": 0.75},
                "grid": {"steps": 1024, "left_units": 30},
                "paths": 8,
                "seed": 21,
            },
            "slope": {
                "p": 2,
                "levels": [3, 4, 5, 6, 7],
                "expected_alpha": 0.75,
                "tolerance": 0.08,
            },
        },
    )
    out = tmp_path / "out"
    assert main(["report", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = read_json(out / "report_summary.json")
    assert summary["checks"]["slope"]["passed"]


def test_simulate_computes_scale_once(tmp_path, monkeypatch):
    # simulate builds the exact norm, the filter response, the window spectra
    # and the circulant root once each, in this process: a worker (forked, so
    # patched too) that builds one fails.  The custom kernel's exact norm
    # reads the path's envelope window, so it builds two windows: that one and
    # the filter's.  The fbm kernel's scale is closed form, and its paths read
    # the root alone.
    caller = os.getpid()
    builds = collections.Counter()

    def counted(name, build):
        def wrapped(*args, **kwargs):
            assert os.getpid() == caller, f"{name} built in a worker"
            builds[name] += 1
            return build(*args, **kwargs)
        return wrapped

    response = functools.cached_property(counted("response", KernelDiscretization.filter_response.func))
    response.__set_name__(KernelDiscretization, "filter_response")
    monkeypatch.setattr(KernelDiscretization, "norm_sq", counted("norm", KernelDiscretization.norm_sq))
    monkeypatch.setattr(KernelDiscretization, "filter_response", response)
    monkeypatch.setattr("chaoslab.kernels._window_spectra", counted("windows", _window_spectra))
    monkeypatch.setattr("chaoslab.kernels.CirculantField", counted("root", CirculantField))
    kernels = {"rosenblatt": ({"type": "hermite", "order": 2, "alpha": 0.7}, dict(norm=1, windows=1)),
               "fbm": ({"type": "fbm", "alpha": 0.3}, dict(root=1)),
               "custom": ({"type": "custom", "order": 2, "beta1": -0.2, "beta2": 0.8},
                          dict(norm=1, response=1, windows=2))}
    grid = {"steps": 128, "left_units": 10}
    scales = {}
    for name, (kernel, expected) in kernels.items():
        cfg = write_config(tmp_path, f"{name}.json", {"kernel": kernel, "grid": grid, "paths": 4, "seed": 2})
        for workers in ("1", "2"):
            builds.clear()
            out = tmp_path / f"{name}-w{workers}"
            assert main(["simulate", "--config", cfg, "--out-dir", str(out), "--workers", workers]) == 0
            assert builds == expected
        scales[name] = read_json(out / "run.json")["scale"]
    monkeypatch.undo()
    for name, (kernel, _) in kernels.items():
        spec = make_spec(kernel)
        assert scales[name].hex() == KernelDiscretization(spec, make_grid(grid, spec)).scale.hex()


def test_verify_levels_finer_than_a_time_step_exit_2(tmp_path, capsys):
    # 256 steps resolve windows down to T/2^8; levels 9-11 are sub-step
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "kernel": {"type": "fbm", "alpha": 0.75},
            "grid": {"steps": 256, "left_units": 30},
            "upper_levels": list(range(1, 12)),
        },
    )
    err = _assert_clean_exit_2(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert "[9, 10, 11]" in err


def test_fuzz_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "fuzz.json",
        {
            "seed": 5,
            "equivalence_instances": 10,
            "inequality_instances": 10,
            "max_total": 8,
            "tolerance": 1e-9,
        },
    )
    out = tmp_path / "out"
    assert main(["fuzz", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = read_json(out / "fuzz_summary.json")
    assert summary["passed"]
    assert (out / "fuzz_equivalence.csv").exists()
    assert (out / "fuzz_inequalities.csv").exists()


def test_config_schema_violation_exits_2(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"kernel": {"type": "fbm"}, "grid": {"steps": -1}})
    assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["expand", "--config", str(tmp_path / "none.json")]) == 2


def test_config_path_is_directory_exits_2(tmp_path, capsys):
    _assert_clean_exit_2(["expand", "--config", str(tmp_path)], capsys)


def _assert_clean_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("chaoslab: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("content", [[], "x", 3, None], ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("argv", [["expand", "--seed", "1"], ["verify", "--set", "a=1"]], ids=["seed", "set"])
def test_config_top_level_not_an_object_exits_2(tmp_path, capsys, content, argv):
    # rejected before any override is applied, and before the output directory is made
    cfg = write_config(tmp_path, "cfg.json", content)
    err = _assert_clean_exit_2([argv[0], "--config", cfg, "--out-dir", str(tmp_path / "o"), *argv[1:]], capsys)
    assert "top level must be a JSON object" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, cfg, extra, message",
    [
        ("simulate", {"kernel": {"type": "fbm"}, "grid": {"steps": 16}, "paths": 1}, [], "fbm kernel needs alpha"),
        ("expand", {"seed": 1}, [], "expand needs 'tensors' or 'fixture'"),
        ("report", {"paths_dir": "."}, [], "no path-*.csv files"),
        ("report", {"slope": {"p": 2, "levels": [1, 2]}}, [], "report needs 'paths_dir' or 'simulate'"),
        ("expand", {"fixture": "counterexample"}, ["--set", "foo"], "--set expects key.path=json_value"),
    ],
    ids=["fbm-without-alpha", "expand-without-input", "paths-dir-without-paths", "report-without-paths",
         "set-without-equals"],
)
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, command, cfg, extra, message):
    monkeypatch.chdir(tmp_path)  # "." holds only the config
    path = write_config(tmp_path, "cfg.json", cfg)
    err = _assert_clean_exit_2([command, "--config", path, "--out-dir", str(tmp_path / "o"), *extra], capsys)
    assert err.startswith("chaoslab: config error: ") and message in err


def test_set_through_scalar_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"fixture": "counterexample", "seed": 1})
    _assert_clean_exit_2(
        ["expand", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--set", "seed.x=1"], capsys
    )


def test_one_row_path_file_exits_2(tmp_path, capsys):
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    (paths_dir / "path-0000.csv").write_text("t,value\n0,0\n")
    cfg = write_config(tmp_path, "cfg.json", {"paths_dir": str(paths_dir), "slope": {"p": 2, "levels": [1, 2]}})
    _assert_clean_exit_2(["report", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)


@pytest.mark.parametrize(
    "content",
    [
        [{"dim": 2}],
        {"order": 1, "dim": 2, "entries": [1.0, 0.0]},
        [{"order": 1, "dim": 2, "entries": {"a": 1}}],
        [{"order": 1, "dim": 1, "entries": [10**400]}, {"order": 1, "dim": 1, "entries": [1.0]}],
    ],
    ids=["entry-without-order", "object-not-list", "entries-object", "entry-beyond-float"],
)
def test_malformed_tensor_file_exits_2(tmp_path, capsys, content):
    tensor_file = tmp_path / "tensors.json"
    tensor_file.write_text(json.dumps(content))
    cfg = write_config(tmp_path, "cfg.json", {"tensors": str(tensor_file)})
    _assert_clean_exit_2(["expand", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)


def test_besov_p_below_one_exits_2(tmp_path, capsys):
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    (paths_dir / "path-0000.csv").write_text("t,value\n0,0\n0.5,1\n1,0.5\n")
    cfg = write_config(
        tmp_path, "cfg.json", {"paths_dir": str(paths_dir), "besov": {"smoothness": 0.5, "p": 0.5}}
    )
    _assert_clean_exit_2(["report", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)


_VALID_TENSORS = [
    {"order": 2, "dim": 2, "entries": [1.0, 0.5, 0.5, -1.0], "symmetric": True},
    {"order": 1, "dim": 2, "entries": [0.3, -0.7]},
]


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-4, 4) | st.text(max_size=3),
    _json_containers,
    max_leaves=6,
)


@st.composite
def _mutated_tensor_files(draw):
    tensors = json.loads(json.dumps(_VALID_TENSORS))
    for _ in range(draw(st.integers(1, 3))):
        entry = tensors[draw(st.integers(0, len(tensors) - 1))]
        key = draw(st.sampled_from(["order", "dim", "entries", "symmetric"]))
        kind = draw(st.sampled_from(["drop", "swap", "dim", "order0", "single", "oversized"]))
        if kind == "drop":
            entry.pop(key, None)
        elif kind == "swap":
            entry[key] = draw(_JSON_VALUES)
        elif kind == "dim":
            entry["dim"] = draw(st.integers(1, 4))
        elif kind == "order0":
            entry.update(order=0, entries=[draw(st.floats(-4, 4))])
        elif kind == "single":
            tensors = [entry]
        else:
            entry["order"] = draw(st.integers(13, 10**12))
    return tensors


@settings(max_examples=60, deadline=None)
@given(content=st.one_of(_mutated_tensor_files(), _JSON_VALUES))
def test_expand_exit_contract_on_mutated_tensor_files(content):
    with tempfile.TemporaryDirectory() as tmp:
        tensor_file = Path(tmp) / "tensors.json"
        tensor_file.write_text(json.dumps(content))
        cfg = write_config(Path(tmp), "cfg.json", {"tensors": str(tensor_file), "pointwise_seeds": 5})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["expand", "--config", cfg, "--out-dir", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_write_json_converts_reports(tmp_path):
    report = BesovSeminormReport(smoothness=0.5, norm_kind="lp:2", levels=[BesovLevel(1, 0.5, 0.25, 0.35)])
    write_json(tmp_path / "out.json", {1: report, 2.5: (1, np.array([0.5, 2.0]))})
    obj = json.loads((tmp_path / "out.json").read_text())
    assert obj == {
        "1": {
            "smoothness": 0.5,
            "norm_kind": "lp:2",
            "levels": [{"level": 1, "lag": 0.5, "increment_norm": 0.25, "weighted": 0.35}],
            "seminorm": 0.0,
        },
        "2.5": [1, [0.5, 2.0]],
    }


def test_config_schemas_are_valid_schemas():
    # the prebuilt validators skip this check, which jsonschema.validate runs on every call
    for schema in [*cli.CONFIG_SCHEMAS.values(), cli.SIMULATE_SCHEMA, cli.RUN_SCHEMA, cli.TENSOR_FILE_SCHEMA]:
        cli._STRICT_INTEGERS.check_schema(schema)


def test_readme_names_every_config_key():
    # a key counts as named when it is a word of a README code span, inline or fenced
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    spans = re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S)
    words = {w for span in spans for w in re.findall(r"\w+", span)}
    keys = set()
    nodes = list(cli.CONFIG_SCHEMAS.values())
    while nodes:
        properties = nodes.pop().get("properties", {})
        keys.update(properties)
        nodes.extend(properties.values())
    assert sorted(keys - words) == []


def test_validate_raises_the_error_jsonschema_validate_raises():
    bad = [
        ("simulate", {**_TINY_FBM, "paths": 2.0}),
        ("simulate", {**_TINY_FBM, "grid": {"steps": 0, "left": 3}}),
        ("verify", {"kernel": {"type": "spline"}, "grid": {"steps": 8}, "upper_levels": []}),
        ("report", {"slope": {"p": 0, "levels": [3, 3]}, "extra": 1}),
        ("fuzz", {"seed": "x", "max_dim": 1}),
    ]
    for command, cfg in bad:
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(cfg, cli.CONFIG_SCHEMAS[command], cls=cli._STRICT_INTEGERS)
        where = "".join(f"[{p!r}]" for p in ref.value.absolute_path)
        with pytest.raises(cli.ConfigError) as ours:
            cli._validate(cfg, cli._CONFIG_VALIDATORS[command], "config")
        assert str(ours.value) == f"config{where}: {ref.value.message}"


@pytest.mark.parametrize(
    "kernel",
    [
        {"type": "fbm", "alpha": 0.75},
        {"type": "hermite", "order": 2, "alpha": 0.7},
        {"type": "custom", "order": 2, "beta1": 0.0, "beta2": 0.7},
        {"type": "zero", "order": 1},
    ],
    ids=["fbm", "hermite", "custom", "zero"],
)
def test_readme_kernel_blocks_run(tmp_path, kernel):
    cfg = write_config(tmp_path, "cfg.json", {**_TINY_FBM, "kernel": kernel})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("order", [1, 2])
def test_zero_kernel_paths_are_positive_zero(tmp_path, order):
    # scale 0 times a negative sum of the draws would be -0.0, written "-0"
    cfg = write_config(tmp_path, "cfg.json",
                       {"kernel": {"type": "zero", "order": order}, "grid": {"steps": 64}, "paths": 2, "seed": 5})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    files = sorted((tmp_path / "o").glob("path-*.csv"))
    assert len(files) == 2
    for f in files:
        assert [row.split(",")[1] for row in f.read_text().splitlines()[1:]] == ["0"] * 65, f.name


@pytest.mark.parametrize(
    "kernel, key",
    [
        ({"type": "hermite", "order": 2, "alpha": 0.7, "beta1": -0.2}, "beta1"),
        ({"type": "hermite", "order": 2, "alpha": 0.7, "beta2": 0.7}, "beta2"),
        ({"type": "fbm", "alpha": 0.75, "beta1": 0.0}, "beta1"),
        ({"type": "fbm", "alpha": 0.75, "order": 2}, "order"),
        ({"type": "custom", "order": 2, "beta1": 0.0, "beta2": 0.7, "alpha": 0.7}, "alpha"),
        ({"type": "zero", "order": 1, "beta1": -0.2}, "beta1"),
        ({"type": "zero", "order": 2, "beta2": 0.7}, "beta2"),
        ({"type": "zero", "order": 1, "scale": 2.0}, "scale"),
    ],
    ids=["hermite-beta1", "hermite-beta2", "fbm-beta1", "fbm-order-2", "custom-alpha", "zero-fbm-beta1",
         "zero-hermite-beta2", "zero-scale"],
)
def test_kernel_key_its_type_ignores_exits_2(tmp_path, capsys, kernel, key):
    cfg = write_config(tmp_path, "cfg.json", {**_TINY_FBM, "kernel": kernel})
    err = _assert_clean_exit_2(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert f"config error: {kernel['type']} kernel takes" in err and key in err


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("verify", {"kernel": {"type": "fbm", "alpha": 0.75}, "grid": {"steps": 64}, "drift_tolerance": 0.2},
         "drift_tolerance"),
        ("report", {"paths_dir": "p", "modulus": {"alpha": 0.5, "log_exponent": 1.0, "growth_tolerance": 3.0}},
         "growth_tolerance"),
        ("fuzz", {"seed": 1, "slack_tolerance": 1e-9}, "slack_tolerance"),
    ],
    ids=["verify-drift", "report-growth", "fuzz-slack"],
)
def test_fixed_tolerance_keys_exit_2(tmp_path, capsys, command, cfg, key):
    # the refinement drift, modulus growth and bound slack tolerances are constants
    path = write_config(tmp_path, "cfg.json", cfg)
    err = _assert_clean_exit_2([command, "--config", path, "--out-dir", str(tmp_path / "o")], capsys)
    assert "config error" in err and key in err


@pytest.mark.parametrize(
    "keys",
    [{"first_stream": 2**64}, {"seed": 3 - 2**64}, {"first_stream": 2**64 - 1, "paths": 2}],
    ids=["stream-2^64", "seed-negative", "last-stream-2^64"],
)
def test_philox_key_outside_64_bits_exits_2(tmp_path, capsys, keys):
    # seed and stream are each one 64-bit word of the Philox key; reduced
    # mod 2^64 they would alias another key's paths under a different run.json
    kernel = {"type": "fbm", "alpha": 0.75}
    cfg = write_config(tmp_path, "cfg.json", {"kernel": kernel, "grid": {"steps": 16}, "paths": 1, **keys})
    err = _assert_clean_exit_2(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert "[0, 2^64)" in err
    assert not list((tmp_path / "o").glob("path-*.csv"))


@pytest.mark.parametrize(
    "kernel",
    [{"type": "hermite", "order": 3, "alpha": 0.99}, {"type": "fbm", "alpha": 0.999}],
    ids=["hermite3-0.99", "fbm-0.999"],
)
def test_default_depth_near_alpha_1_runs(tmp_path, kernel):
    # 2 - 2 alpha is tiny here; the default depth is 300 horizons, as for every alpha >= 1/2
    cfg = write_config(tmp_path, "cfg.json", {"kernel": kernel, "grid": {"steps": 16}, "paths": 1})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert read_json(out / "run.json")["grid"] == {"left": 300.0, "cells": 4816, "steps": 16}


def test_exact_norm_span_cap_names_the_ways_past_it(tmp_path, capsys):
    # order 2 with beta1 != 0: the weights span every cell, 300 horizons deep by default
    kernel = {"type": "custom", "order": 2, "beta1": -0.1, "beta2": 0.8}
    cfg = write_config(tmp_path, "cfg.json", {"kernel": kernel, "grid": {"steps": 1024}, "paths": 1})
    err = _assert_clean_exit_2(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert "support span 308224 exceeds the cap of 65536 cells" in err
    assert "grid.left_units" in err and "kernel.scale" in err


def test_exact_norm_span_cap_at_beta1_zero_names_the_steps(tmp_path, capsys):
    # at beta1 = 0 the norm's support is the time cells, whatever the depth
    kernel = {"type": "hermite", "order": 2, "alpha": 0.7}
    grid = {"steps": 131072, "left_units": 1}
    cfg = write_config(tmp_path, "cfg.json", {"kernel": kernel, "grid": grid, "paths": 1})
    err = _assert_clean_exit_2(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert "support span 131072 exceeds the cap of 65536 cells" in err
    assert "grid.steps" in err and "kernel.scale" in err and "left_units" not in err


@pytest.mark.parametrize(
    "kernel, grid, refusal",
    [
        ({"type": "hermite", "order": 2, "alpha": 0.7}, {"steps": 131072, "left_units": 1},
         "support span 131072 exceeds the cap of 65536 cells; use fewer grid.steps"),
        ({"type": "custom", "order": 2, "beta1": -0.1, "beta2": 0.8}, {"steps": 256},
         "support span 77056 exceeds the cap of 65536 cells; use a smaller grid.left_units"),
    ],
    ids=["hermite", "custom-filter"],
)
def test_scale_refused_without_a_sum_opens_no_pool(tmp_path, capsys, monkeypatch, kernel, grid, refusal):
    # the span cap is told from the weights alone, before any worker is forked
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr("chaoslab.simulate.ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path, "cfg.json", {"kernel": kernel, "grid": grid, "paths": 1})
    err = _assert_clean_exit_2(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert f"{refusal}, or give kernel.scale to skip the norm" in err


@pytest.mark.parametrize("levels", [{}, {"coupling_levels": [2, 3]}], ids=["default-levels", "given-levels"])
def test_verify_reports_the_tail_of_a_custom_kernel_past_the_span_cap(tmp_path, levels):
    # 77,056 cells, past the exact norm's span cap; the given scale skips the
    # norm, and the tail against the closed form needs none of the cap.  The
    # coupling fit's windows pass the contraction cap at any level, given or not
    kernel = {"type": "custom", "order": 2, "beta1": -0.1, "beta2": 0.8, "scale": 1.0}
    cfg = write_config(tmp_path, "cfg.json", {"kernel": kernel, "grid": {"steps": 256}, "skip_refinement": True,
                                              **levels})
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
    report = read_json(out / "verify_report.json")
    assert "middle contractions need compact filter support" in report["coupling"]["unresolved"]
    assert report["grid"]["cells"] == 77_056
    assert report["truncation"]["relative_tail"] == pytest.approx(0.232, abs=2e-3)
    assert len(report["truncation"]["self_similarity"]) == 9


def test_verify_truncation_past_the_span_cap_is_unresolved(tmp_path, monkeypatch):
    # with kernel.scale given, only the truncation report needs an exact norm
    # at order 2; past the cap it is reported unresolved and decides nothing
    monkeypatch.setattr(chaoslab.kernels, "EXACT_SPAN_CAP", 16)
    kernel = {"type": "custom", "order": 2, "beta1": 0.0, "beta2": 0.7, "scale": 1.0}
    cfg = write_config(tmp_path, "cfg.json", {**_VERIFY_BASE, "kernel": kernel})
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 0
    report = read_json(out / "verify_report.json")
    assert "exceeds the cap of 16 cells" in report["truncation"]["unresolved"]
    assert "kernel.scale" not in report["truncation"]["unresolved"]  # the config gives it already


def test_paths_past_10000_load_in_index_order(tmp_path):
    times = np.array([0.0, 0.5, 1.0])
    paths = [PathSample(times=times, values=np.array([0.0, float(i), 0.0])) for i in range(10_001)]
    cli._write_paths(tmp_path, paths)
    assert (tmp_path / "path-00000.csv").exists() and (tmp_path / "path-10000.csv").exists()
    loaded = _load_paths(tmp_path)
    assert [p.values[1] for p in loaded] == list(range(10_001))
    assert [p.stream for p in loaded] == list(range(10_001))


def test_custom_kernel_missing_betas_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"kernel": {"type": "custom", "order": 2}, "grid": {"steps": 64}, "paths": 1},
    )
    _assert_clean_exit_2(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)


def test_seed_and_set_overrides(tmp_path):
    sim_cfg = {
        "kernel": {"type": "fbm", "alpha": 0.6},
        "grid": {"steps": 64, "left_units": 4},
        "paths": 1,
        "seed": 1,
    }
    cfg = write_config(tmp_path, "sim.json", sim_cfg)
    out1 = tmp_path / "o1"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out1), "--seed", "7"]) == 0
    assert read_json(out1 / "run.json")["seed"] == 7
    out2 = tmp_path / "o2"
    assert (
        main(
            [
                "simulate",
                "--config", cfg,
                "--out-dir", str(out2),
                "--set", "kernel.alpha=0.7",
                "--set", "paths=2",
            ]
        )
        == 0
    )
    run = read_json(out2 / "run.json")
    assert run["kernel"]["alpha"] == 0.7
    assert run["paths"] == 2


def test_csv_format_is_plain(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {
            "kernel": {"type": "fbm", "alpha": 0.6},
            "grid": {"steps": 32, "left_units": 4},
            "paths": 1,
            "seed": 0,
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    raw = (out / "path-0000.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "t,value"
    assert len(lines) == 34  # header + 33 grid points
    float(lines[5].split(",")[1])  # parses with '.' decimal


def _path_csv(steps, seed):
    """A random-walk path file on a grid of ``steps`` steps."""
    t = np.linspace(0.0, 1.0, steps + 1)
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(steps)) / math.sqrt(steps)
    values = np.concatenate(([0.0], walk))
    return "t,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), values.tolist()))


def _path_dir(tmp_path, steps=64, count=2):
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    for i in range(count):
        (paths_dir / f"path-{i:04d}.csv").write_text(_path_csv(steps, seed=i))
    return paths_dir


_REPORT_CHECKS = {
    "slope": {"p": 2, "levels": [2, 3, 4]},
    "besov": {"smoothness": 0.3, "orlicz_beta": 1.0},
    "moment_growth": {"alpha": 0.3, "exponents": [1.0, 0.5], "levels": [2, 3], "ells": [2, 4]},
    "modulus": {"alpha": 0.3, "log_exponent": 1.0, "subsample_factors": [1, 2]},
}

_TINY_FBM = {"kernel": {"type": "fbm", "alpha": 0.75}, "grid": {"steps": 32, "left_units": 2}, "paths": 2}


def _fbm_half(scale):
    """An inline simulate block: fBm alpha = 0.5 paths at 64 steps and the given scale."""
    return {"kernel": {"type": "fbm", "alpha": 0.5, "scale": scale}, "grid": {"steps": 64}, "paths": 2}


_VERIFY_BASE = {
    "kernel": {"type": "fbm", "alpha": 0.75},
    "grid": {"steps": 64, "left_units": 4},
    "skip_refinement": True,
}


@pytest.mark.parametrize(
    "command, block",
    [
        ("report", {"slope": {"p": 2, "levels": []}}),
        ("report", {"slope": {"p": 2, "levels": [3]}}),
        ("report", {"slope": {"p": 2, "levels": [3, 3]}}),
        ("report", {"moment_growth": {"alpha": 0.5, "exponents": [1.0], "levels": []}}),
        ("report", {"moment_growth": {"alpha": 0.5, "exponents": [], "levels": [3, 4]}}),
        ("report", {"moment_growth": {"alpha": 0.5, "exponents": [1.0], "ells": []}}),
        ("report", {"modulus": {"alpha": 0.5, "log_exponent": 1.0, "subsample_factors": [0]}}),
        ("report", {"modulus": {"alpha": 0.5, "log_exponent": 1.0, "subsample_factors": []}}),
        ("report", {"modulus": {"alpha": 0.5, "log_exponent": 1.0, "subsample_factors": [2, 2]}}),
        ("verify", {"coupling_levels": []}),
        ("verify", {"coupling_levels": [3]}),
        ("verify", {"coupling_levels": [0, 1]}),
        ("verify", {"coupling_levels": [3, 3]}),
        ("verify", {"overlap_levels": []}),
        ("verify", {"overlap_levels": [3]}),
        ("verify", {"overlap_levels": [3, 3]}),
        ("verify", {"overlap_levels": [-1, 1]}),
        ("verify", {"upper_levels": []}),
    ],
    ids=[
        "slope-empty", "slope-one", "slope-repeated", "moment-levels-empty", "moment-exponents-empty",
        "moment-ells-empty", "subsample-zero", "subsample-empty", "modulus-repeated", "coupling-empty",
        "coupling-one", "coupling-level-zero", "coupling-repeated",
        "overlap-empty", "overlap-one", "overlap-repeated", "overlap-negative", "upper-empty",
    ],
)
def test_short_lists_exit_2(tmp_path, capsys, command, block):
    base = {"paths_dir": str(_path_dir(tmp_path))} if command == "report" else _VERIFY_BASE
    cfg = write_config(tmp_path, "cfg.json", {**base, **block})
    err = _assert_clean_exit_2([command, "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert "config error" in err


@pytest.mark.parametrize("command", ["simulate", "verify", "report"])
@pytest.mark.parametrize(
    "grid",
    [
        {"steps": 64, "left": 3.0},
        {"steps": 64, "left_units": 2, "cells": 7},
        {"steps": 64, "left": 3.0, "cells": 256},
        {"steps": 64, "node_budget": 10**9},
        {"steps": 2**20 + 1},
    ],
    ids=["left", "cells", "left-and-cells", "node-budget", "steps-beyond-2**20"],
)
def test_grid_takes_only_bounded_steps_and_left_units(tmp_path, capsys, monkeypatch, command, grid):
    # a schema error: no discretization is built
    def no_discretization(*args, **kwargs):
        raise AssertionError("a discretization was built")

    monkeypatch.setattr(KernelDiscretization, "__init__", no_discretization)
    cfg = {**_VERIFY_BASE, "grid": grid} if command == "verify" else {**_TINY_FBM, "grid": grid}
    if command == "report":
        cfg = {"simulate": cfg, "slope": {"p": 2, "levels": [1, 2]}}
    path = write_config(tmp_path, "cfg.json", cfg)
    err = _assert_clean_exit_2([command, "--config", path, "--out-dir", str(tmp_path / "o")], capsys)
    assert "config error" in err


@pytest.mark.parametrize("content", ["", "t,value\n"], ids=["empty", "header-only"])
def test_path_file_without_rows_exits_2_with_one_line(tmp_path, capsys, content):
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    (paths_dir / "path-0000.csv").write_text(content)
    cfg = write_config(tmp_path, "cfg.json", {"paths_dir": str(paths_dir), "slope": {"p": 2, "levels": [1, 2]}})
    # a warning would be a second stderr line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _assert_clean_exit_2(["report", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert not caught


@pytest.mark.parametrize("times", ["equal", "reversed", "jittered", "other-horizon"])
def test_path_file_times_must_increase(tmp_path, capsys, times):
    # t increases in uniform steps, and every file has the first file's t
    paths_dir = _path_dir(tmp_path)
    path = paths_dir / ("path-0001.csv" if times == "other-horizon" else "path-0000.csv")
    header, *rows = path.read_text().splitlines()
    t = np.linspace(0.0, 1.0, len(rows))
    if times == "equal":
        t[:] = 0.5
    elif times == "reversed":
        t = t[::-1]
    elif times == "jittered":
        # still increasing, and the first step exact: t from the third on moves
        # by less than half a step
        t[2:-1] += np.random.default_rng(0).uniform(0.004, 0.006, t.size - 3)
    else:
        t *= 2.0
    rows = [f"{a!r},{r.partition(',')[2]}" for a, r in zip(t.tolist(), rows)]
    path.write_text("\n".join([header, *rows]) + "\n")
    cfg = write_config(tmp_path, "cfg.json", {"paths_dir": str(paths_dir), **_REPORT_CHECKS})
    _assert_clean_exit_2(["report", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)


def test_written_csv_files_are_csv_writer_bytes(tmp_path, monkeypatch):
    # every CSV that simulate, report and fuzz write, path files included,
    # goes through write_csv, and is byte for byte what csv.writer writes
    real, written = cli.write_csv, []

    def spy(path, header, columns):
        columns = [list(c) for c in columns]
        written.append((path, header, list(zip(*columns))))
        real(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", spy)
    sim = write_config(tmp_path, "sim.json", {**_TINY_FBM, "grid": {"steps": 256, "left_units": 2}})
    assert main(["simulate", "--config", sim, "--out-dir", str(tmp_path / "sim")]) == 0
    report = {"paths_dir": str(tmp_path / "sim"), "slope": {"p": 2, "levels": [2, 3, 4]},
              "besov": {"smoothness": 0.75, "orlicz_beta": 1.0},
              "moment_growth": {"alpha": 0.75, "exponents": [1.0], "levels": [2, 3, 4]},
              "modulus": {"alpha": 0.75, "log_exponent": 1.0, "subsample_factors": [1, 2]}}
    main(["report", "--config", write_config(tmp_path, "rep.json", report), "--out-dir", str(tmp_path / "rep")])
    fuzz = {"equivalence_instances": 3, "inequality_instances": 30, "seed": 4}
    main(["fuzz", "--config", write_config(tmp_path, "fuzz.json", fuzz), "--out-dir", str(tmp_path / "fuzz")])
    names = {Path(path).name for path, _, _ in written}
    assert {"path-0000.csv", "slopes.csv", "besov_levels.csv", "moment_quantiles.csv", "modulus.csv",
            "fuzz_equivalence.csv", "fuzz_inequalities.csv"} <= names
    assert any(None in row for _, _, rows in written for row in rows)  # composition residual of no survivors
    for path, header, rows in written:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cli._fmt(x) for x in row] for row in rows)
        assert Path(path).read_bytes() == buf.getvalue().encode(), path


def reference_cell(x):
    """A cell's CSV text as the row-wise writer gave it, the reference for
    write_csv's one template: a fuzz row's None empty and its lists as
    lengths joined by 'x', then floats as .17g and anything else as str."""
    if x is None:
        return ""
    if isinstance(x, list):
        return "x".join(map(str, x))
    return format(x, ".17g") if isinstance(x, float) else str(x)


def reference_csv(header, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([reference_cell(x) for x in row] for row in zip(*columns))
    return buf.getvalue().encode()


# one cell of each kind the writer meets: floats at the edges of the format,
# np.float64, ints, bools, strings, None and lists
_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
           0.1, -1 / 3, 1e16, 123456789.0, 1e-7]
_MIXED = [1.5, np.float64(-0.1), 3, True, "1x2", None, [2, 1], math.inf, -math.inf, math.nan, -0.0, "",
          np.float64(math.nan)]


def test_write_csv_matches_the_reference_formatting(tmp_path):
    n = len(_FLOATS)
    tables = {
        "mixed": (["floats", "np", "ints", "bools", "strings", "mixed", "lists"],
                  [_FLOATS, list(map(np.float64, _FLOATS)), list(range(-3, n - 3)), [i % 3 == 0 for i in range(n)],
                   [("a", "", "1x2x3", "nan", "-0")[i % 5] for i in range(n)], _MIXED, [[i, 1] for i in range(n)]]),
        "empty-cells": (["degree", "residual"], [[1.0, 2.0, 3.0, 4.0], [0.25, None, -0.0, None]]),
        "no-rows": (["path", "slope"], [[], []]),
        "no-columns": (["path", "level"], []),
        "ranges": (["path", "slope"], [range(3), (0.5, np.float64(1e-300), 2.0)]),
    }
    for name, (header, columns) in tables.items():
        write_csv(tmp_path / f"{name}.csv", header, columns)
        assert (tmp_path / f"{name}.csv").read_bytes() == reference_csv(header, columns), name


@given(st.lists(st.tuples(st.floats(), st.integers(-10**20, 10**20), st.floats(width=32) | st.none()), max_size=40))
@settings(max_examples=60, deadline=None)
def test_write_csv_matches_the_reference_formatting_property(tmp_path_factory, rows):
    # a float column by one %.17g, an int column and a column of floats and
    # empty cells by _fmt text: every float, nan and inf included
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    columns = [list(c) for c in zip(*rows)] or [[], [], []]
    write_csv(path, ["a", "b", "c"], columns)
    assert path.read_bytes() == reference_csv(["a", "b", "c"], columns)


def test_path_files_are_the_row_wise_text(tmp_path):
    # _write_paths through write_csv: the bytes the per-row "{},{:.17g}" text gave
    times = np.linspace(0.0, 0.3, 9)
    rng = np.random.default_rng(5)
    values = [rng.standard_normal(9), np.array([0.0, -0.0, 1e-310, -1e308, 0.1, 2.0, -1 / 3, 1e16, 5e-324])]
    cli._write_paths(tmp_path, [PathSample(times=times, values=v) for v in values])
    for i, v in enumerate(values):
        text = "".join(map("{},{:.17g}\n".format, map(reference_cell, times.tolist()), v.tolist()))
        assert (tmp_path / f"path-{i:04d}.csv").read_text() == "t,value\n" + text


def test_simulated_time_column_loads_at_2_20_steps(tmp_path):
    # the t column cmd_simulate writes: sample_paths' times, as write_csv formats them
    steps, horizon = 2**20, 0.3
    times = np.arange(steps + 1) * (horizon / steps)
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    write_csv(paths_dir / "path-0000.csv", ["t", "value"], [times.tolist(), [0.0] * (steps + 1)])
    assert np.array_equal(_load_paths(paths_dir)[0].times, times)


@pytest.mark.parametrize("content", [[], "str", {"first_stream": "x"}], ids=["list", "string", "stream-string"])
def test_malformed_run_json_exits_2(tmp_path, capsys, content):
    paths_dir = _path_dir(tmp_path, count=1)
    (paths_dir / "run.json").write_text(json.dumps(content))
    cfg = write_config(tmp_path, "cfg.json", {"paths_dir": str(paths_dir), "slope": {"p": 2, "levels": [1, 2]}})
    err = _assert_clean_exit_2(["report", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)
    assert "run.json" in err


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("simulate", {**_TINY_FBM, "paths": 2.0}),
        ("simulate", {**_TINY_FBM, "grid": {"steps": 32.0, "left_units": 2}}),
        ("fuzz", {"equivalence_instances": 1.0}),
        ("fuzz", {"seed": 2**64}),
        ("fuzz", {"seed": -1}),
        ("verify", {**_VERIFY_BASE, "kernel": {"type": "fbm", "alpha": 0.75, "horizon": 5e-324}}),
        ("verify", {**_VERIFY_BASE, "coupling_levels": [2, 10]}),
        ("report", {"simulate": _TINY_FBM, "besov": {"smoothness": 0.5, "orlicz_beta": 1e-300}}),
        ("report", {"simulate": _TINY_FBM, "moment_growth": {"alpha": 1e3, "exponents": [1.0]}}),
        ("report", {"simulate": _TINY_FBM, "modulus": {"alpha": 1e3, "log_exponent": 1.0}}),
        ("report", {"simulate": _fbm_half(1e-3), "besov": {"smoothness": 0.5, "p": 400}}),
        ("report", {"simulate": _fbm_half(1e3), "besov": {"smoothness": 0.5, "p": 400}}),
        ("report", {"simulate": _fbm_half(1e3), "slope": {"p": 400, "levels": [1, 2, 3]}}),
    ],
    ids=["paths-float", "steps-float", "instances-float", "fuzz-seed-2^64", "fuzz-seed-negative", "horizon-underflows",
         "coupling-sub-step", "orlicz-flat", "moment-alpha-underflows", "modulus-alpha-underflows",
         "besov-lp-underflows", "besov-lp-overflows", "slope-lp-overflows"],
)
def test_degenerate_numbers_exit_2(tmp_path, capsys, command, cfg):
    path = write_config(tmp_path, "cfg.json", cfg)
    _assert_clean_exit_2([command, "--config", path, "--out-dir", str(tmp_path / "o")], capsys)


_NAN_TENSORS = [{"order": 1, "dim": 2, "entries": [math.nan, 1.0]}, {"order": 1, "dim": 2, "entries": [1.0, 0.0]}]


@pytest.mark.parametrize(
    "command, cfg, flags",
    [
        ("expand", {"fixture": "first-order-product"}, ["--tolerance", "nan"]),
        ("expand", {"fixture": "first-order-product"}, ["--set", "tolerance=Infinity"]),
        ("expand", {"tensors": "tensors.json"}, []),
        ("fuzz", {"equivalence_instances": 1, "inequality_instances": 1, "tolerance": math.nan}, []),
        ("report", {"simulate": _TINY_FBM, "slope": {"p": 2, "levels": [1, 2], "expected_alpha": 0.75,
                                                     "tolerance": math.nan}}, []),
    ],
    ids=["tolerance-flag-nan", "set-tolerance-infinity", "tensor-entry-nan", "fuzz-tolerance-nan",
         "report-tolerance-nan"],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, cfg, flags):
    # json.load, --set and --tolerance all take NaN and the infinities; a NaN
    # tolerance fails every comparison and an infinite one passes every gap
    write_config(tmp_path, "tensors.json", _NAN_TENSORS)
    if "tensors" in cfg:
        cfg = {"tensors": str(tmp_path / cfg["tensors"])}
    path = write_config(tmp_path, "cfg.json", cfg)
    _assert_clean_exit_2([command, "--config", path, "--out-dir", str(tmp_path / "o"), *flags], capsys)


@pytest.mark.parametrize("steps, levels", [(64, [1, 2, 3, 4, 5, 6]), (2, [1]), (128, list(range(1, 8)))])
def test_verify_default_upper_levels_follow_the_grid(tmp_path, steps, levels):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"kernel": {"type": "hermite", "order": 2, "alpha": 0.7}, "grid": {"steps": steps, "left_units": 5},
         "skip_refinement": True},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) in (0, 1)
    assert read_json(out / "verify_report.json")["upper_scaling"]["level_sups"].keys() == {
        str(j) for j in levels
    }


def test_verify_one_step_grid_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {**_VERIFY_BASE, "grid": {"steps": 1, "left_units": 4}})
    _assert_clean_exit_2(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "3"],
        ["report", "--seed", "3"],
        ["simulate", "--tolerance", "0.1"],
        ["verify", "--tolerance", "0.1"],
        ["expand", "--workers", "2"],
        ["verify", "--workers", "2"],
        ["fuzz", "--workers", "2"],
        ["simulate", "--workers", "0"],
        ["report", "--workers", "-5"],
    ],
)
def test_flags_only_on_commands_that_read_them(tmp_path, argv):
    cfg = write_config(tmp_path, "cfg.json", {})
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", cfg, "--out-dir", str(tmp_path / "o"), *argv[1:]])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, cfg, report",
    [
        ("expand", {"fixture": "first-order-product"}, "expand_report.json"),
        ("fuzz", {"equivalence_instances": 1, "inequality_instances": 1}, "fuzz_summary.json"),
    ],
)
def test_seed_and_tolerance_flags(tmp_path, command, cfg, report):
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = main([command, "--config", path, "--out-dir", str(out), "--seed", "4", "--tolerance", "1e-8"])
    assert code == 0
    summary = read_json(out / report)
    assert (summary["seed"], summary["tolerance"]) == (4, 1e-8)


# tiny valid configs, one per command
_RERUN_CONFIGS = {
    "expand": {"fixture": "first-order-product", "pointwise_seeds": 10},
    "verify": {
        "kernel": {"type": "hermite", "order": 2, "alpha": 0.7},
        "grid": {"steps": 32, "left_units": 2},
        "upper_levels": [1, 2, 3],
        "coupling_levels": [2, 3],
        "overlap_levels": [1, 2],
    },
    "simulate": {
        "kernel": {"type": "hermite", "order": 2, "alpha": 0.7},
        "grid": {"steps": 32, "left_units": 2},
        "paths": 2,
        "seed": 3,
    },
    "report": {
        "simulate": {"kernel": {"type": "fbm", "alpha": 0.3}, "grid": {"steps": 64, "left_units": 2},
                     "paths": 2, "seed": 5},
        **_REPORT_CHECKS,
    },
    "fuzz": {"seed": 2, "equivalence_instances": 3, "inequality_instances": 3, "max_total": 6},
}


@pytest.mark.parametrize("command", sorted(_RERUN_CONFIGS))
def test_rerun_is_byte_identical(tmp_path, command):
    cfg = write_config(tmp_path, "cfg.json", _RERUN_CONFIGS[command])
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([command, "--config", cfg, "--out-dir", str(out)]) in (0, 1)
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(outputs[0]) > 1
    assert outputs[0] == outputs[1]


# JSON values plus integral, tiny and large floats (no large ints: steps or
# paths that big would only measure memory)
_CONFIG_VALUES = _JSON_VALUES | st.sampled_from([2.0, 1e3, -1e3, 1e-300, 5e-324])
_EXTRA_KEYS = ["horizon", "scale", "order", "beta1", "beta2", "left", "cells", "node_budget", "first_stream",
               "paths_dir", "tolerance", "expected_alpha", "p", "orlicz_beta", "max_dim", "max_blocks"]


@st.composite
def _mutated_configs(draw):
    command = draw(st.sampled_from(["verify", "simulate", "report", "fuzz"]))
    cfg = json.loads(json.dumps(_RERUN_CONFIGS[command]))
    if command == "verify":
        cfg.update(skip_refinement=True)
    for _ in range(draw(st.integers(1, 2))):
        # a random object node of the config, then one change in it (a key
        # outside the node one time in four)
        node = cfg
        while True:
            objects = [v for v in node.values() if isinstance(v, dict)]
            if not objects or draw(st.booleans()):
                break
            node = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(node) if node and draw(st.integers(0, 3)) else _EXTRA_KEYS))
        kind = draw(st.sampled_from(["drop", "swap", "empty", "shorten"]))
        if kind == "drop":
            node.pop(key, None)
        elif kind == "swap" or not isinstance(node.get(key), list):
            node[key] = draw(_CONFIG_VALUES)
        elif kind == "empty":
            node[key] = []
        else:
            node[key] = node[key][: draw(st.integers(0, len(node[key])))]
    return command, cfg


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(case=_mutated_configs())
def test_exit_contract_on_mutated_configs(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), "cfg.json", cfg)
        code, err = _exit_and_stderr([command, "--config", path, "--out-dir", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


_CELL_VALUES = st.sampled_from(["", "nan", "inf", "-inf", "x", "1e999", "0", "-1", "1e-320", "2"])


@st.composite
def _mutated_path_files(draw):
    lines = _path_csv(32, seed=0).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "cell", "column", "truncate", "duplicate", "empty", "times"]))
        if kind == "times":
            # one value for every t (equal times), or the rows in reverse order
            value = draw(_CELL_VALUES | st.none())
            lines = lines[:1] + (
                lines[:0:-1] if value is None else [value + "," + l.partition(",")[2] for l in lines[1:]]
            )
        elif kind == "drop":
            del lines[row]
        elif kind == "cell":
            cells = lines[row].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELL_VALUES)
            lines[row] = ",".join(cells)
        elif kind == "column":
            lines[row] += "," + draw(_CELL_VALUES)
        elif kind == "truncate":
            lines = lines[: draw(st.integers(0, len(lines)))]
        elif kind == "duplicate":
            lines.insert(row, lines[row])
        else:
            lines = []
        if not lines:
            break
    return "\n".join(lines) + ("\n" if lines else "")


@settings(max_examples=100, deadline=None)
@given(content=_mutated_path_files())
@example(content="t,value\ninf,0\ninf,1\n")  # inf - inf would warn
def test_report_exit_contract_on_mutated_path_files(content):
    with tempfile.TemporaryDirectory() as tmp:
        paths_dir = Path(tmp) / "paths"
        paths_dir.mkdir()
        (paths_dir / "path-0000.csv").write_text(content)
        path = write_config(Path(tmp), "cfg.json", {"paths_dir": str(paths_dir), **_REPORT_CHECKS})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _exit_and_stderr(["report", "--config", path, "--out-dir", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert not caught


def _limit_address_space():
    # in the child only: an allocation past 2 GiB fails there, as a MemoryError
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("expand", {"fixture": "first-order-product", "pointwise_seeds": 10**12}, "pointwise_seeds"),
        ("fuzz", {"pointwise_seeds": 10**12}, "pointwise_seeds"),
        ("fuzz", {"max_order": 30, "max_total": 40, "max_dim": 3, "seed": 0}, "max_order"),
        ("fuzz", {"equivalence_instances": 0, "max_order": 30, "max_total": 40, "max_dim": 3, "seed": 0},
         "max_order"),
        # two order-1 factors at d = 3,000 pass every array check, and the
        # oracle's C(3,002, 2) monomials, keys of 3,000 base-3 digits, do not
        ("expand", {"tensors": "wide.json", "pointwise_seeds": 2}, "tensors"),
        ("fuzz", {"max_dim": 900, "max_total": 2, "seed": 0}, "max_dim"),
    ],
    ids=["expand-pointwise-seeds", "fuzz-pointwise-seeds", "fuzz-max-order-30", "fuzz-inequalities-max-order-30",
         "expand-oracle-dim-3000", "fuzz-oracle-max-dim-900"],
)
def test_sizes_are_checked_before_allocation(tmp_path, command, cfg, key):
    # each array an instance can build, and the oracle's monomials, are
    # compared with the dense cap before the first draw: exit 2 naming the
    # key, never a MemoryError traceback
    d = 3000
    wide = [{"order": 1, "dim": d, "entries": np.sin(np.arange(d) + k).tolist()} for k in (1.0, 2.0)]
    (tmp_path / "wide.json").write_text(json.dumps(wide))
    env = {**os.environ, "PYTHONPATH": str(Path(chaoslab.__file__).resolve().parent.parent)}
    argv = [sys.executable, "-m", "chaoslab.cli", command, "--config", write_config(tmp_path, "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=_limit_address_space)
    assert time.monotonic() - start < 60
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert key in done.stderr and "dense cap" in done.stderr


def test_fuzz_refuses_totals_past_the_expansion_cap_before_drawing(tmp_path):
    # total order 10^9 passes the expansion cap, so the sizes are refused
    # before the first draw, which would propose up to 10^9 block lengths
    cfg = {"equivalence_instances": 1, "inequality_instances": 0, "max_blocks": 10**9, "max_total": 10**9,
           "max_order": 1}
    env = {**os.environ, "PYTHONPATH": str(Path(chaoslab.__file__).resolve().parent.parent)}
    argv = [sys.executable, "-m", "chaoslab.cli", "fuzz", "--config", write_config(tmp_path, "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10)
    assert time.monotonic() - start < 10
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert all(key in done.stderr for key in ("max_blocks", "max_order", "max_total", "expansion cap"))
