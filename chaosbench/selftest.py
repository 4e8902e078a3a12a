"""Fast self test of the benchmark harness at tiny input sizes.

    python3 chaosbench/selftest.py

Runs every workload through ``run.py`` with ``--size tiny`` and checks that
every end-to-end metric (``--trace 0``) and every per-layer metric
(``--trace 1``) named in BENCHMARK.json is printed with its unit, that clean
runs pass their gates, that a deliberately corrupted result raises the failed
count above 0, and that the harness refuses to run without the sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that each workload must drive above zero
EXERCISED = {
    "algebra-mix": ["cancellation.cancel.calls", "pairings.pair_sets", "chaos.moment_oracle.calls"],
    "paths-fine": ["cli.bytes_written", "kernels.norm_sq.calls", "simulate.fft.points",
                   "regularity.increment_lp_norm.calls"],
    "paths-coarse": ["simulate.worker.busy_s", "simulate.worker.paths_min",
                     "simulate.parallel_efficiency", "chaos.philox.normals"],
}


def run(root, *args):
    cmd = [sys.executable, str(root / "chaosbench" / "run.py"), "--seed", "3", "--seconds", "1",
           "--size", "tiny", *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(root, *args):
    code, lines, stderr = run(root, *args)
    if code != 0:
        raise AssertionError(f"{args}: exit {code}\n{stderr}")
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{args}: result keys {sorted(out)}")
    if not (isinstance(out["attempted"], int) and out["attempted"] >= 1):
        raise AssertionError(f"{args}: attempted {out['attempted']!r}")
    return out


def check_metrics(out, wanted, label):
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in wanted}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        raise AssertionError(f"{label}: missing {missing}, extra {extra}, wrong units {wrong}")
    for name, m in out["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} = {m['value']!r}")


def main():
    checks = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        clean = result(ROOT, "--workload", workload, "--trace", "0")
        check_metrics(clean, SPEC["end_to_end"], f"{workload} trace 0")
        if not clean["correct"] or clean["failed"]:
            raise AssertionError(f"{workload}: clean run failed {clean['failed']}/{clean['attempted']}")
        traced = result(ROOT, "--workload", workload, "--trace", "1")
        check_metrics(traced, SPEC["per_layer"], f"{workload} trace 1")
        if not traced["correct"]:
            raise AssertionError(f"{workload}: traced run not correct")
        idle = [k for k in EXERCISED[workload] if not traced["metrics"][k]["value"] > 0]
        if idle:
            raise AssertionError(f"{workload}: traced run left {idle} at 0")
        bad = result(ROOT, "--workload", workload, "--trace", "0", "--corrupt")
        if bad["correct"] or not bad["failed"] / bad["attempted"] > 0:
            raise AssertionError(f"{workload}: corrupted run reported fail_ratio 0")
        print(f"selftest: {workload}: metrics and units complete; fail_ratio 0 clean, "
              f"{bad['failed']}/{bad['attempted']} corrupted")
        checks += 1

    bare = ROOT / ".chaosbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "chaosbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines, _ = run(bare, "--workload", "algebra-mix", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if code == 0 or any(line.startswith("{") for line in lines):
        raise AssertionError(f"without sources: exit {code}, output {lines}")
    print(f"selftest: without sources: exit {code}, no result")
    print(f"selftest: ok ({checks} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
