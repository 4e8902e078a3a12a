"""Batch front-end: expand | verify | simulate | report | fuzz.

Every command reads one JSON config (flags override keys), writes its results
into the output directory with ``resolved_config.json``, the config after
``--seed``, ``--tolerance`` and ``--set`` (without the defaults), and is
bit-for-bit reproducible from (config, seed).  Exit codes: 0 pass, 1 contract
violation, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import fuzzing
from .chaos import DEFAULT_EXPANSION_CAP, moment_oracle, philox_stream
from .kernels import (
    GridSpec,
    HermiteKernelSpec,
    KernelDiscretization,
    coupling_scaling_report,
    lower_scaling_report,
    overlap_scaling_report,
    truncation_report,
    upper_scaling_report,
)
from .regularity import (
    PathSample,
    dyadic_besov_seminorm,
    modulus_holder_statistic,
    moment_growth_report,
    scaling_exponent_fit,
)
from .simulate import sample_paths
from .tensors import MAX_DENSE_ENTRIES, SymTensor, symmetrize, tensor_product

MODULUS_GROWTH_TOL = 2.0  # report.modulus passes while the finest/coarsest mean ratio is below this
FUZZ_SLACK_TOL = 1e-12  # fuzz passes while every bound slack is at least -FUZZ_SLACK_TOL

KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["fbm", "hermite", "custom", "zero"]},
        "order": {"type": "integer", "minimum": 1},
        "alpha": {"type": "number"},
        "beta1": {"type": "number"},
        "beta2": {"type": "number"},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "scale": {"type": ["number", "null"]},
    },
    "required": ["type"],
    "additionalProperties": False,
}

GRID_SCHEMA = {
    "type": "object",
    "properties": {
        # 2**20 steps keep kernels.GRID_CELL_BUDGET a bound on cells
        "steps": {"type": "integer", "minimum": 1, "maximum": 2**20},
        "left_units": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["steps"],
    "additionalProperties": False,
}

SIMULATE_SCHEMA = {
    "type": "object",
    "properties": {
        "kernel": KERNEL_SCHEMA,
        "grid": GRID_SCHEMA,
        "paths": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "first_stream": {"type": "integer", "minimum": 0},
    },
    "required": ["kernel", "grid", "paths"],
    "additionalProperties": False,
}

# the run.json keys report reads; cmd_simulate writes more
RUN_SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "first_stream": {"type": "integer", "minimum": 0},
        "provenance": {"type": "string"},
    },
}

CONFIG_SCHEMAS = {
    "expand": {
        "type": "object",
        "properties": {
            "tensors": {"type": "string"},
            "fixture": {"enum": ["counterexample", "first-order-product"]},
            "seed": {"type": "integer"},
            "pointwise_seeds": {"type": "integer", "minimum": 1},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "kernel": KERNEL_SCHEMA,
            "grid": GRID_SCHEMA,
            "upper_levels": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
            "coupling_levels": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2,
                                "uniqueItems": True},
            "overlap_levels": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 2,
                               "uniqueItems": True},
            "skip_refinement": {"type": "boolean"},
        },
        "required": ["kernel", "grid"],
        "additionalProperties": False,
    },
    "simulate": SIMULATE_SCHEMA,
    "report": {
        "type": "object",
        "properties": {
            "paths_dir": {"type": "string"},
            "simulate": SIMULATE_SCHEMA,
            "slope": {
                "type": "object",
                "properties": {
                    "p": {"type": "number", "minimum": 1},
                    "levels": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "uniqueItems": True},
                    "expected_alpha": {"type": "number"},
                    "tolerance": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["p", "levels"],
                "additionalProperties": False,
            },
            "besov": {
                "type": "object",
                "properties": {
                    "smoothness": {"type": "number"},
                    "p": {"type": "number", "minimum": 1},
                    "orlicz_beta": {"type": "number"},
                },
                "required": ["smoothness"],
                "additionalProperties": False,
            },
            "moment_growth": {
                "type": "object",
                "properties": {
                    "alpha": {"type": "number"},
                    "exponents": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                    "levels": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
                    "ells": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                },
                "required": ["alpha", "exponents"],
                "additionalProperties": False,
            },
            "modulus": {
                "type": "object",
                "properties": {
                    "alpha": {"type": "number"},
                    "log_exponent": {"type": "number"},
                    "subsample_factors": {"type": "array", "items": {"type": "integer", "minimum": 1},
                                          "minItems": 1, "uniqueItems": True},
                },
                "required": ["alpha", "log_exponent"],
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
    "fuzz": {
        "type": "object",
        "properties": {
            # the range simulate, report and expand take, though fuzz seeds numpy's PCG64
            "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
            "equivalence_instances": {"type": "integer", "minimum": 0},
            "inequality_instances": {"type": "integer", "minimum": 0},
            "pointwise_seeds": {"type": "integer", "minimum": 1},
            "max_blocks": {"type": "integer", "minimum": 2},
            "max_order": {"type": "integer", "minimum": 1},
            "max_dim": {"type": "integer", "minimum": 2},
            "max_total": {"type": "integer", "minimum": 2},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
}


# README "Tensor JSON"; the bounds keep dim**order small enough to form
TENSOR_FILE_SCHEMA = {
    "type": "array",
    "minItems": 2,
    "items": {
        "type": "object",
        "properties": {
            "order": {"type": "integer", "minimum": 0, "maximum": DEFAULT_EXPANSION_CAP},
            "dim": {"type": "integer", "minimum": 1, "maximum": MAX_DENSE_ENTRIES},
            "entries": {"type": "array", "items": {"type": "number"}},
            "symmetric": {"type": "boolean"},
        },
        "required": ["order", "dim", "entries"],
        "additionalProperties": False,
    },
}


class ConfigError(Exception):
    pass


# JSON Schema counts 2.0 as an integer, and json.load, --set and --tolerance take NaN
# and the infinities: counts, steps and seeds must be ints, and every number finite
_STRICT_INTEGERS = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, x: isinstance(x, int) and not isinstance(x, bool),
        "number": lambda checker, x: checker.is_type(x, "integer") or isinstance(x, float) and math.isfinite(x),
    }),
)

# built once: jsonschema.validate would check the schema itself on every call
_CONFIG_VALIDATORS = {name: _STRICT_INTEGERS(schema) for name, schema in CONFIG_SCHEMAS.items()}
_RUN_VALIDATOR = _STRICT_INTEGERS(RUN_SCHEMA)
_TENSOR_FILE_VALIDATOR = _STRICT_INTEGERS(TENSOR_FILE_SCHEMA)


def _validate(obj, validator, source):
    """Schema check whose failure is a one-line ConfigError naming the spot;
    the error is the one ``jsonschema.validate`` would raise."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if error is not None:
        where = "".join(f"[{p!r}]" for p in error.absolute_path)
        raise ConfigError(f"{source}{where}: {error.message}")


# keys that a kernel type sets itself: given, they would go unread
_SET_BY_TYPE = {"fbm": ("beta1",), "hermite": ("beta1", "beta2"), "custom": ("alpha",)}


def make_spec(cfg):
    kind = cfg["type"]
    # a zero kernel is the fbm (order 1) or hermite kernel at scale 0
    like = ("fbm" if cfg.get("order", 1) == 1 else "hermite") if kind == "zero" else kind
    unread = [key for key in _SET_BY_TYPE[like] if key in cfg]
    if kind == "zero" and "scale" in cfg:  # its scale is 0
        unread.append("scale")
    if unread:
        raise ConfigError(f"{kind} kernel takes no {unread[0]}")
    if kind == "fbm" and cfg.get("order", 1) != 1:
        raise ConfigError(f"fbm kernel takes order 1 only, got order {cfg['order']}")
    horizon = cfg.get("horizon", 1.0)
    scale = cfg.get("scale")
    if kind == "fbm":
        if "alpha" not in cfg:
            raise ConfigError("fbm kernel needs alpha")
        return HermiteKernelSpec.fbm(cfg["alpha"], beta2=cfg.get("beta2"), horizon=horizon, scale=scale)
    if kind == "hermite":
        if "alpha" not in cfg or "order" not in cfg:
            raise ConfigError("hermite kernel needs order and alpha")
        return HermiteKernelSpec.hermite(cfg["order"], cfg["alpha"], horizon=horizon, scale=scale)
    if kind == "zero":
        base = dict(cfg, type=like, scale=0.0)
        base.setdefault("alpha", 0.5 if like == "fbm" else 0.7)
        return make_spec(base)
    missing = [k for k in ("order", "beta1", "beta2") if k not in cfg]
    if missing:
        raise ConfigError(f"custom kernel needs {', '.join(missing)}")
    return HermiteKernelSpec(
        order=cfg["order"], beta1=cfg["beta1"], beta2=cfg["beta2"], horizon=horizon, scale=scale
    )


def _given(cfg, **keys):
    """Keyword arguments {param: cfg[key]} for the config keys present, so
    that absent keys take the callee's defaults."""
    return {param: cfg[key] for param, key in keys.items() if key in cfg}


def make_grid(cfg, spec):
    return GridSpec.build(spec, steps=cfg["steps"], **_given(cfg, left_units="left_units"))


def _fmt(x):
    """A cell's CSV text: a float as %.17g, None empty, a list (a fuzz row's
    block lengths) as its items joined by 'x', anything else as str."""
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return "x".join(map(str, x)) if isinstance(x, list) else str(x)


def write_csv(path, header, columns):
    """The table of ``columns`` under ``header``, as comma-separated lines:
    the bytes ``csv.writer`` would write unquoted over ``_fmt`` text.

    The rows are formatted by one ``%`` template: a column of floats as
    %.17g, a column of strings as it is, any other column as its cells'
    ``_fmt`` text.  No field needs CSV quoting: every field is a header name,
    an ``_fmt`` number (digits, sign, '.', 'e', inf or nan), lengths joined
    by 'x', or an empty string in a row of several fields.  None holds a
    comma, quote or line break.
    """
    specs, cells = [], []
    for column in columns:
        kinds = set(map(type, column))
        specs.append("%.17g" if kinds <= {float} else "%s")
        cells.append(column if kinds <= {float} or kinds <= {str} else list(map(_fmt, column)))
    rows = min(map(len, cells), default=0)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((",".join(specs) + "\n") * rows % tuple(itertools.chain.from_iterable(zip(*cells))))


def _jsonable(obj):
    """Plain JSON data: dataclasses as dicts of their fields, keys as str,
    tuples and arrays as lists."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- expand --------------------------------------------------------------------


def _counterexample_report():
    """Chaos-2 pair with zero correlation but fourth-moment covariance 4."""
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    h_xi = SymTensor(np.outer(e1, e1) / math.sqrt(2.0), symmetric=True)
    h_eta = symmetrize(tensor_product(SymTensor(e1), SymTensor(e2)))
    cross = moment_oracle([h_xi, h_eta])
    var_xi = moment_oracle([h_xi, h_xi])
    var_eta = moment_oracle([h_eta, h_eta])
    fourth = (
        moment_oracle([h_xi, h_xi, h_eta, h_eta])
        - moment_oracle([h_xi, h_xi])
        - moment_oracle([h_eta, h_eta])
        + 1.0
    )
    rho = cross / math.sqrt(var_xi * var_eta)
    return {
        "rho": rho,
        "cross_moment": cross,
        "var_xi": var_xi,
        "var_eta": var_eta,
        "fourth_moment_covariance": fourth,
        "passed": bool(abs(cross) < 1e-12 and abs(fourth - 4.0) <= 4.0 * 1e-10),
    }


def cmd_expand(cfg, out_dir):
    tol = cfg.get("tolerance", 1e-9)
    if cfg.get("fixture") == "counterexample":
        report = _counterexample_report()
        write_json(out_dir / "expand_report.json", report)
        return 0 if report["passed"] else 1
    if cfg.get("fixture") == "first-order-product":
        tensors = [SymTensor(np.array([1.0, 0.0])), SymTensor(np.array([0.0, 1.0]))]
    elif "tensors" in cfg:
        with open(cfg["tensors"]) as fh:
            objs = json.load(fh)
        _validate(objs, _TENSOR_FILE_VALIDATOR, cfg["tensors"])
        tensors = [SymTensor.from_dict(obj) for obj in objs]
    else:
        raise ConfigError("expand needs 'tensors' or 'fixture'")
    seeds = cfg.get("pointwise_seeds", 100)
    dim, n_total = tensors[0].dim, sum(t.order for t in tensors)
    if n_total <= DEFAULT_EXPANSION_CAP:  # expand_product refuses a larger total before it builds a term
        fuzzing.check_dense(dim, n_total, f"factors of total order {n_total} at dim {dim}")
        fuzzing.check_oracle(dim, n_total, f"tensors of total order {n_total} at dim {dim}")
    fuzzing.check_pointwise_seeds(seeds, dim, min(n_total, DEFAULT_EXPANSION_CAP))
    rng_seed = cfg.get("seed", 0)
    xis = philox_stream(rng_seed).standard_normal((seeds, dim))
    expansion, report = fuzzing.compare_expansion(tensors, xis)
    report.update(
        degrees=sorted(expansion.terms),
        pointwise_seeds=seeds,
        seed=rng_seed,
        tolerance=tol,
        passed=bool(report["relative_gap"] <= tol and report["pointwise_max_error"] <= tol),
    )
    write_json(out_dir / "expansion.json", expansion.to_dict())
    write_json(out_dir / "expand_report.json", report)
    return 0 if report["passed"] else 1


# -- verify --------------------------------------------------------------------


def cmd_verify(cfg, out_dir):
    spec = make_spec(cfg["kernel"])
    grid = make_grid(cfg["grid"], spec)
    kd = KernelDiscretization(spec, grid)
    refined = None if cfg.get("skip_refinement") else kd.refined()
    upper = upper_scaling_report(kd, refined=refined, **_given(cfg, levels="upper_levels"))
    lower = lower_scaling_report(kd)
    degenerate = upper.kappa <= 0.0
    coupling = None
    if not degenerate:
        try:
            fit = coupling_scaling_report(kd, **_given(cfg, levels="coupling_levels"))
        except ValueError as exc:
            if "coupling_levels" in cfg and str(exc).startswith("coupling levels"):
                raise  # a given level whose window is shorter than one time step
            # a grid under 8 steps resolves fewer than the fit's two default levels, and
            # middle contractions past their window cap need compact filter support
            coupling = {"unresolved": str(exc), "passed": False}
        else:
            coupling = dict(vars(fit), epsilon=fit.slope / 2.0, passed=bool(fit.slope > 0))
    overlap = None
    if "overlap_levels" in cfg:
        overlap = overlap_scaling_report(spec, levels=cfg["overlap_levels"])
    trunc = None
    if spec.scale != 0.0:
        try:
            trunc = truncation_report(kd)
        except ValueError as exc:
            # a given kernel.scale lets a grid past the exact norm's span cap get here
            trunc = {"unresolved": str(exc)}
    passed = upper.passed and lower.passed and (degenerate or coupling["passed"])
    report = {
        "kernel": spec.to_dict(),
        "grid": grid,
        "upper_scaling": upper,
        "lower_scaling": lower,
        "coupling": coupling,
        "overlap": overlap,
        "truncation": trunc,
        "passed": bool(passed),
    }
    write_json(out_dir / "verify_report.json", report)
    return 0 if passed else 1


# -- simulate -------------------------------------------------------------------


def _write_paths(out_dir, paths):
    # indices padded to one width, 4 digits at least, so that the sorted
    # names are in index order
    width = max(4, len(str(len(paths) - 1)))
    # sample_paths gives every path one t array: it is formatted once
    t_text = list(map(_fmt, paths[0].times.tolist()))
    for i, path in enumerate(paths):
        write_csv(out_dir / f"path-{i:0{width}d}.csv", ["t", "value"], [t_text, path.values.tolist()])


def _simulate(cfg, workers):
    """Discretization and sampled paths of a config valid under SIMULATE_SCHEMA."""
    spec = make_spec(cfg["kernel"])
    kd = KernelDiscretization(spec, make_grid(cfg["grid"], spec))
    paths = sample_paths(
        spec, kd.grid, cfg["paths"], cfg.get("seed", 0), workers=workers,
        first_stream=cfg.get("first_stream", 0), kd=kd,
    )
    return kd, paths


def cmd_simulate(cfg, out_dir, workers=1):
    kd, paths = _simulate(cfg, workers)
    _write_paths(out_dir, paths)
    write_json(
        out_dir / "run.json",
        {
            "kernel": kd.spec.to_dict(),
            "grid": kd.grid,
            "paths": cfg["paths"],
            "seed": cfg.get("seed", 0),
            "first_stream": cfg.get("first_stream", 0),
            "scale": kd.scale,
            "provenance": paths[0].provenance,
            "generator": "philox",
        },
    )
    return 0


# -- report ---------------------------------------------------------------------


def _load_paths(paths_dir):
    files = sorted(Path(paths_dir).glob("path-*.csv"))
    if not files:
        raise ConfigError(f"no path-*.csv files in {paths_dir}")
    meta = {}
    run = Path(paths_dir) / "run.json"
    if run.exists():
        meta = json.loads(run.read_text())
        _validate(meta, _RUN_VALIDATOR, str(run))
    out = []
    for i, f in enumerate(files):
        # the rows loadtxt reads as data; with none it would warn, not fail
        rows = [r for r in f.read_text().split("\n")[1:] if r.partition("#")[0]]
        data = np.loadtxt(rows, delimiter=",", ndmin=2) if len(rows) >= 2 else None
        # finite cells first, and t compared rather than subtracted, so that no
        # arithmetic warns
        if (data is None or data.shape[1] != 2 or not np.isfinite(data).all()
                or not np.all(data[1:, 0] > data[:-1, 0])):
            raise ConfigError(f"{f}: need a t,value header and at least two finite rows of increasing t")
        t = data[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):  # t near +-1e308 overflows; the checks then fail
            tol = 1e-9 * (t[-1] - t[0])
            uniform = math.isfinite(tol) and np.all(np.abs(np.diff(t) - (t[-1] - t[0]) / (t.size - 1)) <= tol)
            shared = not out or (t.size == out[0].times.size and np.all(np.abs(t - out[0].times) <= tol))
        if not (uniform and shared):
            raise ConfigError(f"{f}: t needs uniform steps (to 1e-9 of its span) and the t column of {files[0].name}")
        out.append(
            PathSample(
                times=t,
                values=data[:, 1],
                seed=meta.get("seed", 0),
                stream=meta.get("first_stream", 0) + i,
                provenance=meta.get("provenance", ""),
            )
        )
    return out


def cmd_report(cfg, out_dir, workers=1):
    if "paths_dir" in cfg:
        paths = _load_paths(cfg["paths_dir"])
    elif "simulate" in cfg:
        _, paths = _simulate(cfg["simulate"], workers)
    else:
        raise ConfigError("report needs 'paths_dir' or 'simulate'")
    summary = {
        "paths": len(paths),
        "seed": paths[0].seed,
        "provenance": paths[0].provenance,
        "checks": {},
    }
    failed = False
    if "slope" in cfg:
        sub = cfg["slope"]
        fit = scaling_exponent_fit(paths, p=sub["p"], levels=sub["levels"])
        write_csv(out_dir / "slopes.csv", ["path", "slope"], [range(len(fit.slopes)), fit.slopes])
        entry = dict(vars(fit))
        if "expected_alpha" in sub:
            tol = sub.get("tolerance", 0.05)
            entry["expected_alpha"] = sub["expected_alpha"]
            entry["tolerance"] = tol
            entry["passed"] = bool(abs(fit.slope_mean - sub["expected_alpha"]) <= tol)
            failed |= not entry["passed"]
        summary["checks"]["slope"] = entry
    if "besov" in cfg:
        sub = cfg["besov"]
        rows = []
        sups = []
        for i, path in enumerate(paths):
            rep = dyadic_besov_seminorm(
                path, sub["smoothness"], p=sub.get("p"), orlicz_beta=sub.get("orlicz_beta")
            )
            sups.append(rep.seminorm)
            rows.extend(
                (i, l.level, l.lag, l.increment_norm, l.weighted) for l in rep.levels
            )
        write_csv(out_dir / "besov_levels.csv", ["path", "level", "lag", "norm", "weighted"], zip(*rows))
        summary["checks"]["besov"] = {
            "smoothness": sub["smoothness"],
            "seminorm_mean": float(np.mean(sups)),
            "seminorm_max": float(np.max(sups)),
        }
    if "moment_growth" in cfg:
        sub = cfg["moment_growth"]
        rep = moment_growth_report(
            paths,
            alpha=sub["alpha"],
            exponents=sub["exponents"],
            **_given(sub, levels="levels", ells="ells"),
        )
        rows = []
        for e, d in rep.by_exponent.items():
            rows.extend((e, ell, q) for ell, q in zip(rep.ells, d["quantiles"]))
        write_csv(out_dir / "moment_quantiles.csv", ["exponent", "ell", "q99"], zip(*rows))
        summary["checks"]["moment_growth"] = rep
    if "modulus" in cfg:
        sub = cfg["modulus"]
        factors = sub.get("subsample_factors", [1])
        rows = []
        by_factor = {}
        for factor in factors:
            vals = [
                modulus_holder_statistic(
                    p.subsample(factor) if factor > 1 else p, sub["alpha"], sub["log_exponent"]
                )
                for p in paths
            ]
            by_factor[factor] = float(np.mean(vals))
            rows.extend((factor, i, v) for i, v in enumerate(vals))
        write_csv(out_dir / "modulus.csv", ["subsample_factor", "path", "statistic"], zip(*rows))
        entry = {"alpha": sub["alpha"], "log_exponent": sub["log_exponent"], "mean_by_factor": by_factor}
        if len(factors) > 1:
            coarse = by_factor[max(factors)]
            fine = by_factor[min(factors)]
            growth = fine / coarse if coarse > 0 else math.inf
            entry["growth"] = growth
            entry["passed"] = bool(growth < MODULUS_GROWTH_TOL)
            failed |= not entry["passed"]
        summary["checks"]["modulus"] = entry
    summary["passed"] = not failed
    write_json(out_dir / "report_summary.json", summary)
    return 0 if not failed else 1


# -- fuzz -----------------------------------------------------------------------


def cmd_fuzz(cfg, out_dir):
    seed = cfg.get("seed", 0)
    tol = cfg.get("tolerance", 1e-9)
    caps = _given(cfg, max_blocks="max_blocks", max_order="max_order", max_dim="max_dim",
                  max_total="max_total")
    eq_kwargs = dict(caps, **_given(cfg, pointwise_seeds="pointwise_seeds"))
    rng = np.random.default_rng(seed)
    eq_rows = [fuzzing.equivalence_case(rng, **eq_kwargs) for _ in range(cfg.get("equivalence_instances", 100))]
    ineq_rows = [fuzzing.inequality_case(rng, **caps) for _ in range(cfg.get("inequality_instances", 100))]
    for name, rows in (("fuzz_equivalence.csv", eq_rows), ("fuzz_inequalities.csv", ineq_rows)):
        if rows:  # the columns are the keys of the case's rows
            write_csv(out_dir / name, list(rows[0]), [[r[key] for r in rows] for key in rows[0]])
    # (summary key, row column, reducer, bound): max columns pass at most their bound, min ones at least it
    checks = [
        ("relative_gap", "relative_gap", max, tol),
        ("pointwise_max_error", "pointwise_max_error", max, tol),
        ("min_norm_bound_slack", "norm_bound_slack", min, -FUZZ_SLACK_TOL),
        ("min_inner_bound_slack", "inner_bound_slack", min, -FUZZ_SLACK_TOL),
        ("max_permutation_residual", "permutation_residual", max, tol),
        ("max_composition_residual", "composition_residual", max, tol),
    ]
    rows, worst, passed = eq_rows + ineq_rows, {}, True
    for key, column, reduce, bound in checks:
        worst[key] = reduce((r[column] for r in rows if r.get(column) is not None), default=0.0)
        passed = passed and (worst[key] <= bound if reduce is max else worst[key] >= bound)
    write_json(
        out_dir / "fuzz_summary.json",
        {"seed": seed, "tolerance": tol, "slack_tolerance": FUZZ_SLACK_TOL, "worst": worst,
         "equivalence_instances": len(eq_rows), "inequality_instances": len(ineq_rows),
         "passed": bool(passed)},
    )
    return 0 if passed else 1


# -- entry point ------------------------------------------------------------------


def _apply_overrides(cfg, pairs):
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key.path=json_value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part!r} is not an object")
        node[parts[-1]] = value
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Chaos-expansion calculus and Hermite-process simulation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes the flags whose config keys it reads
    for name in ("expand", "verify", "simulate", "report", "fuzz"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        if name in ("expand", "simulate", "fuzz"):
            p.add_argument("--seed", type=int, help="override config seed")
        if name in ("expand", "fuzz"):
            p.add_argument("--tolerance", type=float, help="override config tolerance")
        if name in ("simulate", "report"):
            p.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (dotted path, JSON value)")
    args = parser.parse_args(argv)
    workers = getattr(args, "workers", 1)
    if workers < 1:
        sub.choices[args.command].error(f"--workers must be at least 1, got {workers}")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: the top level must be a JSON object")
        for key in ("seed", "tolerance"):
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        _apply_overrides(cfg, args.set)
        _validate(cfg, _CONFIG_VALIDATORS[args.command], "config")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "resolved_config.json", {"command": args.command, "config": cfg})
        if args.command == "expand":
            return cmd_expand(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, workers=workers)
        if args.command == "report":
            return cmd_report(cfg, out_dir, workers=workers)
        return cmd_fuzz(cfg, out_dir)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"chaoslab: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"chaoslab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
