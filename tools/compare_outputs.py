"""Run a fixed list of chaoslab CLI configs in two source trees and list the
output files that differ.

    python3 tools/compare_outputs.py --parent ../parent --change . [--work DIR]

Each tree is a source checkout with ``src/chaoslab``.  The configs are
README's ``expand``, ``verify``, ``simulate``, ``report`` and ``fuzz``
examples (the inline ``report`` given a ``besov`` block at Phi_2), a
``report`` of inline order-3 Hermite paths with ``besov`` at Phi_{2/3}, a
``verify`` of each filter layout the exact norms read (fBm and an order-2
custom kernel with beta1 != 0, the latter also at horizon 2,
where the scale's t_ref = 1 < T), of an order-3 Hermite kernel and of the
order-2 zero kernel (which exits 1 in both trees), an ``expand`` of four
order-3 factors at d = 3, a ``fuzz`` at
total order 12 (the expansion cap, where the oracle, contractions and
symmetrizer work hardest), a ``fuzz`` of inequality instances only, with
blocks up to order 4 (traces, compositions and block permutations of
order-4 blocks), a ``fuzz`` of 2,000 instances of each kind at the
default caps (thousands of CSV rows that mix ints, floats and empty cells),
README's Rosenblatt ``simulate`` again at two workers, a small ``simulate``
of each README kernel block, of an order-2 kernel at horizon 2 (whose scale
reads another window than its paths),
of an order-2 kernel with beta1 != 0 (the windowed filter), of an order-1
custom kernel at T = 1.3 and of an fBm twin that differs only in
``left_units`` (order-1 paths do not read the depth), the zero kernel at
orders 1 and 2, an order-2 kernel at scale -1 (whose paths start at +0.0),
the beta1 != 0 kernel at 1,024 steps and the default depth
(308,224 cells, whose envelope, norms and filter spectra are each built in
two chunks; ``kernel.scale`` 1.0 skips the capped exact norm), and the two
``paths-fine`` configs of ``chaosbench`` (seed 1).  A config runs with one
worker unless its entry gives a count.  Both trees run every config with
the same relative paths, under ``<work>/parent`` and ``<work>/change``: the
config as ``<name>.json``, the outputs in
``out/<name>/`` and the exit code, stdout and stderr in ``logs/<name>.txt``.
The tool prints each file that differs or exists on one side only, with its
first differing line and the largest relative move of a number in it, then
each config's peak RSS in both trees (the ``ru_maxrss`` that ``os.wait4``
reports for the CLI process and the workers it waited for), then each
tree's line counts of ``src/chaoslab/*.py``: the total of ``wc -l``, and
the lines that hold code, without docstrings, comments or blank lines.  It exits 1 if a file differs, else 0.  Without
``--work`` the runs go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

TENSORS = [  # the factors of README's tensor-file expand example
    {"order": 2, "dim": 2, "entries": [1.0, 0.5, 0.5, -1.0], "symmetric": True},
    {"order": 1, "dim": 2, "entries": [0.3, 0.7], "symmetric": True},
    {"order": 1, "dim": 2, "entries": [-0.4, 0.2], "symmetric": True},
]

# four order-3 factors at d = 3: total order 12, the expansion cap; the run
# exits 1 in both trees, as the absolute 1e-9 pointwise check fails on
# rounding alone (ROADMAP item 8)
TENSORS_12 = [
    {"order": 3, "dim": 3, "entries": [round(math.sin(1.0 + k + 27 * i), 6) for k in range(27)]}
    for i in range(4)
]

_SMALL_GRID = {"steps": 256, "left_units": 2}

_CUSTOM_FILTER = {"type": "custom", "order": 2, "beta1": -0.1, "beta2": 0.8}
_CUSTOM_FILTER_VERIFY = {"grid": {"steps": 64, "left_units": 4}, "overlap_levels": [1, 2, 3, 4]}

_ROSENBLATT = {"kernel": {"type": "hermite", "order": 2, "alpha": 0.7},  # README's simulate example
               "grid": {"steps": 8192, "left_units": 30}, "paths": 50, "seed": 31415}


def _bench(label, kernel, alpha, tolerance, steps):
    """The simulate and report configs of one paths-fine case (chaosbench, size full)."""
    top = min(10, steps.bit_length() - 1 - 3)
    simulate = {"kernel": kernel, "grid": {"steps": steps}, "paths": 2, "seed": 1}
    report = {
        "paths_dir": f"out/bench-{label}-simulate",
        "slope": {"p": 2, "levels": list(range(3, top + 1)), "expected_alpha": alpha, "tolerance": tolerance},
        "besov": {"smoothness": alpha, "orlicz_beta": 1.0},
        "moment_growth": {"alpha": alpha, "exponents": [1.0, 0.5], "levels": list(range(top - 5, top + 1))},
        "modulus": {"alpha": alpha, "log_exponent": 1.0, "subsample_factors": [1, 2, 4]},
    }
    return [(f"bench-{label}-simulate", "simulate", simulate), (f"bench-{label}-report", "report", report)]


# (name, command, config[, workers]), run in this order: a report's paths_dir
# is an earlier run's out dir
CONFIGS = [
    ("expand-tensors", "expand", {"tensors": "tensors.json", "seed": 0, "pointwise_seeds": 100, "tolerance": 1e-9}),
    ("expand-counterexample", "expand", {"fixture": "counterexample"}),
    ("expand-total-12", "expand", {"tensors": "tensors-12.json", "seed": 0, "pointwise_seeds": 100,
                                   "tolerance": 1e-9}),
    ("verify-rosenblatt", "verify", {"kernel": {"type": "hermite", "order": 2, "alpha": 0.7},
                                     "grid": {"steps": 256, "left_units": 30},
                                     "upper_levels": [1, 2, 3, 4, 5, 6], "coupling_levels": [2, 3, 4, 5, 6]}),
    ("verify-fbm-filter", "verify", {"kernel": {"type": "fbm", "alpha": 0.3},
                                     "grid": {"steps": 256, "left_units": 30}}),
    ("verify-custom-filter", "verify", {"kernel": _CUSTOM_FILTER, **_CUSTOM_FILTER_VERIFY}),
    ("verify-custom-filter-t2", "verify", {"kernel": {**_CUSTOM_FILTER, "horizon": 2.0}, **_CUSTOM_FILTER_VERIFY}),
    ("verify-hermite-3", "verify", {"kernel": {"type": "hermite", "order": 3, "alpha": 0.7},
                                    "grid": {"steps": 128, "left_units": 10}}),
    ("verify-zero-2", "verify", {"kernel": {"type": "zero", "order": 2}, "grid": {"steps": 64},
                                 "skip_refinement": True}),
    ("simulate-rosenblatt", "simulate", _ROSENBLATT),
    ("simulate-rosenblatt-w2", "simulate", _ROSENBLATT, 2),
    ("report-paths", "report", {"paths_dir": "out/simulate-rosenblatt",
                                "slope": {"p": 2, "levels": [3, 4, 5, 6, 7, 8, 9, 10],
                                          "expected_alpha": 0.7, "tolerance": 0.1},
                                "besov": {"smoothness": 0.7, "orlicz_beta": 1.0},
                                "moment_growth": {"alpha": 0.7, "exponents": [1.0, 0.5],
                                                  "levels": [5, 6, 7, 8, 9, 10]},
                                "modulus": {"alpha": 0.7, "log_exponent": 1.0, "subsample_factors": [1, 2, 4]}}),
    ("report-inline", "report", {"simulate": {"kernel": {"type": "fbm", "alpha": 0.75},
                                              "grid": {"steps": 1024, "left_units": 30}, "paths": 8, "seed": 21},
                                 "slope": {"p": 2, "levels": [3, 4, 5, 6, 7],
                                           "expected_alpha": 0.75, "tolerance": 0.08},
                                 "besov": {"smoothness": 0.75, "orlicz_beta": 2.0}}),
    ("report-hermite-3", "report", {"simulate": {"kernel": {"type": "hermite", "order": 3, "alpha": 0.7},
                                                 "grid": {"steps": 256, "left_units": 10}, "paths": 8, "seed": 7},
                                    "besov": {"smoothness": 0.7, "orlicz_beta": 2 / 3}}),
    ("fuzz", "fuzz", {"seed": 1, "equivalence_instances": 200, "inequality_instances": 200,
                      "max_blocks": 4, "max_order": 3, "max_dim": 3, "max_total": 10}),
    ("fuzz-12", "fuzz", {"seed": 2, "equivalence_instances": 40, "inequality_instances": 20,
                         "max_blocks": 4, "max_order": 3, "max_dim": 3, "max_total": 12}),
    ("fuzz-inequalities", "fuzz", {"seed": 3, "equivalence_instances": 0, "inequality_instances": 300,
                                   "max_order": 4, "max_dim": 2, "max_total": 10}),
    ("fuzz-large", "fuzz", {"seed": 5, "equivalence_instances": 2000, "inequality_instances": 2000}),
    ("simulate-fbm", "simulate", {"kernel": {"type": "fbm", "alpha": 0.75}, "grid": _SMALL_GRID, "paths": 2}),
    ("simulate-hermite", "simulate", {"kernel": {"type": "hermite", "order": 2, "alpha": 0.7},
                                      "grid": _SMALL_GRID, "paths": 2}),
    ("simulate-hermite-t2", "simulate", {"kernel": {"type": "hermite", "order": 2, "alpha": 0.7, "horizon": 2.0},
                                         "grid": {"steps": 4096}, "paths": 2, "seed": 5}),
    ("simulate-custom", "simulate", {"kernel": {"type": "custom", "order": 2, "beta1": 0.0, "beta2": 0.7},
                                     "grid": _SMALL_GRID, "paths": 2}),
    ("simulate-custom-filter", "simulate", {"kernel": _CUSTOM_FILTER, "grid": _SMALL_GRID, "paths": 2}),
    ("simulate-custom-filter-deep", "simulate", {"kernel": {"type": "custom", "order": 2, "beta1": -0.1, "beta2": 0.8,
                                                            "scale": 1.0},
                                                 "grid": {"steps": 1024}, "paths": 2, "seed": 3}),
    ("simulate-custom-1", "simulate", {"kernel": {"type": "custom", "order": 1, "beta1": 0.2, "beta2": 0.5,
                                                  "horizon": 1.3}, "grid": _SMALL_GRID, "paths": 2}),
    ("simulate-fbm-deep", "simulate", {"kernel": {"type": "fbm", "alpha": 0.75},
                                       "grid": {**_SMALL_GRID, "left_units": 30}, "paths": 2}),
    ("simulate-zero-1", "simulate", {"kernel": {"type": "zero", "order": 1}, "grid": {"steps": 64},
                                     "paths": 2, "seed": 5}),
    ("simulate-zero-2", "simulate", {"kernel": {"type": "zero", "order": 2}, "grid": {"steps": 64},
                                     "paths": 2, "seed": 5}),
    ("simulate-negative-scale", "simulate", {"kernel": {"type": "hermite", "order": 2, "alpha": 0.7, "scale": -1.0},
                                             "grid": {"steps": 64}, "paths": 2, "seed": 5}),
    *_bench("rosenblatt", {"type": "hermite", "order": 2, "alpha": 0.7}, 0.7, 0.25, 2**13),
    *_bench("fbm", {"type": "fbm", "alpha": 0.3}, 0.3, 0.1, 2**14),
]


def run_tree(tree, work):
    """Run every config with ``tree``'s chaoslab, with ``work`` as the working
    directory; returns each config's peak RSS in MB."""
    work.mkdir(parents=True)
    (work / "tensors.json").write_text(json.dumps(TENSORS))
    (work / "tensors-12.json").write_text(json.dumps(TENSORS_12))
    (work / "logs").mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    peaks = {}
    for name, command, cfg, *workers in CONFIGS:
        (work / f"{name}.json").write_text(json.dumps(cfg))
        argv = [sys.executable, "-m", "chaoslab.cli", command, "--config", f"{name}.json", "--out-dir", f"out/{name}"]
        argv += [f"--workers={n}" for n in workers]
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)  # wait4, not wait: it reports the peak RSS
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0), err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        peaks[name] = usage.ru_maxrss / 1024
        (work / "logs" / f"{name}.txt").write_text(f"exit {code}\n-- stdout\n{stdout}-- stderr\n{stderr}")
        print(f"{work.name}: {name}: exit {code}", file=sys.stderr)
    return peaks


def first_difference(a, b):
    """The first line that differs between two files' bytes, as 'line n: a | b'."""
    left, right = a.read_bytes().split(b"\n"), b.read_bytes().split(b"\n")
    for n, (x, y) in enumerate(zip(left, right), 1):
        if x != y:
            return f"line {n}: {x[:60].decode(errors='replace')} | {y[:60].decode(errors='replace')}"
    return f"{len(left)} vs {len(right)} lines"


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def largest_move(a, b):
    """The largest |x - y| / max(|x|, |y|) over the numbers at the same place
    in two files, as text, or a note that their counts differ."""
    left, right = (NUMBER.findall(p.read_bytes()) for p in (a, b))
    if len(left) != len(right):
        return f"{len(left)} vs {len(right)} numbers"
    moves = (abs(x - y) / max(abs(x), abs(y)) for x, y in zip(map(float, left), map(float, right)) if x != y)
    return f"largest relative move {max(moves, default=0.0):.1e}"


def compare(parent, change):
    """Lines naming each file under ``out/`` or ``logs/`` that is not the same bytes on both sides."""
    def files(root):
        return {p.relative_to(root) for d in ("out", "logs") for p in (root / d).rglob("*") if p.is_file()}

    left, right = files(parent), files(change)
    lines = [f"only in parent: {p}" for p in sorted(left - right)]
    lines += [f"only in change: {p}" for p in sorted(right - left)]
    for p in sorted(left & right):
        if (parent / p).read_bytes() != (change / p).read_bytes():
            lines.append(f"differs: {p} ({first_difference(parent / p, change / p)}; "
                         f"{largest_move(parent / p, change / p)})")
    return lines, len(left | right)


def code_lines(source):
    """Lines of Python ``source`` that a token other than a comment or a
    docstring (a module's, class's or function's) starts, ends or spans."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def source_lines(tree):
    """(the total ``wc -l`` prints, code lines) of ``src/chaoslab/*.py`` in ``tree``."""
    sources = [p.read_text() for p in (Path(tree) / "src" / "chaoslab").glob("*.py")]
    return sum(s.count("\n") for s in sources), sum(code_lines(s) for s in sources)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, help="keep the runs here (must not exist yet)")
    args = parser.parse_args(argv)
    work = args.work if args.work is not None else Path(tempfile.mkdtemp(prefix="compare-outputs-")) / "runs"
    try:
        before = run_tree(args.parent, work / "parent")
        after = run_tree(args.change, work / "change")
        lines, total = compare(work / "parent", work / "change")
    finally:
        if args.work is None:
            shutil.rmtree(work.parent, ignore_errors=True)
    print("\n".join(lines + [f"{len(lines)} of {total} files differ"]))
    print("peak RSS (MB): parent -> change")
    for name, *_ in CONFIGS:
        print(f"  {name}: {before[name]:.1f} -> {after[name]:.1f} ({after[name] / before[name] - 1:+.1%})")
    for side, tree in (("parent", args.parent), ("change", args.change)):
        total, code = source_lines(tree)
        print(f"{side}: {total} lines ({code} of code) in src/chaoslab/*.py")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
