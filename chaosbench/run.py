"""Run one chaoslab benchmark workload and print its metrics.

    python3 chaosbench/run.py --workload algebra-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (``src/chaoslab`` next to ``chaosbench``);
the program is imported from ``src``.  With ``--trace 0`` the workload runs for
``--seconds`` seconds, untraced, and the end-to-end metrics are reported.  With
``--trace 1`` a fixed amount of work runs three times (traced, untraced,
traced) and the per-layer metrics of the last traced pass are reported; the
seconds are not used.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See chaosbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# bench_workloads imports chaoslab, so the names are repeated here for the
# argument parser, which must work before (and without) the program
WORKLOADS = ("algebra-mix", "paths-fine", "paths-coarse")
SETUP_PROBES = {"full": 3, "tiny": 1}

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_PROBES), default="full",
                        help="input sizes; 'tiny' is for the self test")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb one program result before gating it (self test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="import, build the inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def setup(args, work_dir):
    """Import the program and build the inputs; returns (workload, import_s, inputs_s)."""
    t0 = time.perf_counter()
    import chaoslab  # noqa: F401

    if args.workload == "paths-fine":
        import chaoslab.cli  # noqa: F401
    import bench_workloads

    t1 = time.perf_counter()
    workload = bench_workloads.WORKLOADS[args.workload](
        args.seed, work_dir, size=args.size, corrupt=args.corrupt
    )
    workload.prepare()
    return workload, t1 - t0, time.perf_counter() - t1


def probe_setup_s(args):
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


def run_units(workload, seconds=None, count=None):
    """Exactly ``count`` units, or units until ``seconds`` of timed work.

    A timed run stops before a unit that would likely end more than half a
    unit past ``seconds``, so runs end within half a unit of their length.
    Returns the summed ``UnitResult`` and the number of units.
    """
    from bench_workloads import UnitResult

    total = UnitResult()
    i = 0
    last = 0.0
    while (total.wall_s + last / 2 < seconds) if count is None else (i < count):
        res = workload.unit(i)
        total.ops += res.ops
        total.failed += res.failed
        total.wall_s += res.wall_s
        total.op_ms += res.op_ms
        last = res.wall_s
        i += 1
    return total, i


def gate_run(workload, res):
    """Adds the failures of the run-level gates to ``res``."""
    res.failed = min(res.ops, res.failed + workload.check())
    return res


def median_unit(op_ms):
    """(ms per op, ops) of each unit position at its median over the units.

    The machine's speed wanders by tens of percent over seconds, so each
    position reports its median over the run instead of every sample.
    """
    by_position = {}
    for position, ms, ops in op_ms:
        by_position.setdefault(position, ([], ops))[0].append(ms)
    return [(statistics.median(times), ops) for times, ops in by_position.values()]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_run(args, work_dir):
    setups = [probe_setup_s(args) for _ in range(SETUP_PROBES[args.size])]
    workload, _, _ = setup(args, work_dir)
    try:
        res, units = run_units(workload, seconds=args.seconds)
        gate_run(workload, res)
    finally:
        workload.close()
    median = median_unit(res.op_ms)
    unit_s = sum(ms * ops for ms, ops in median) / 1e3
    latencies = sorted(ms for ms, _ in median)
    if len(latencies) > 1:
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    else:
        cuts = latencies * 9
    values = {
        "ops_per_s": sum(ops for _, ops in median) * (1 - res.failed / res.ops) / unit_s,
        "op_ms_p50": cuts[4],
        "op_ms_p90": cuts[8],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    print(f"chaosbench: {args.workload} seed {args.seed}: {res.ops} ops in "
          f"{units} units, {res.wall_s:.3f} s, {len(latencies)} latency positions, "
          f"fail_ratio {res.failed / max(res.ops, 1):.6g} ({res.failed}/{res.ops}), "
          f"setup samples {[round(s, 4) for s in setups]}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return res.ops, res.failed, res.failed == 0, metrics


def traced_run(args, work_dir):
    from bench_trace import EXACT_COUNTS, LAYER_METRICS, Tracer

    workload, import_s, inputs_s = setup(args, work_dir)
    tracer = Tracer(work_dir / "trace-workers")

    def traced_pass():
        tracer.install()
        try:
            res, _ = run_units(workload, count=workload.trace_units)
        finally:
            tracer.uninstall()
            tracer.collect_workers()
        return gate_run(workload, res), tracer.summary()

    try:
        first, counts = traced_pass()
        plain = gate_run(workload, run_units(workload, count=workload.trace_units)[0])
        last, values = traced_pass()
    finally:
        workload.close()
    values["setup.import_s"] = import_s
    values["setup.inputs_s"] = inputs_s
    values["trace.overhead_s"] = last.wall_s - plain.wall_s
    drift = {k: (counts.get(k, 0), values.get(k, 0)) for k in EXACT_COUNTS
             if counts.get(k, 0) != values.get(k, 0)}
    if drift:
        print(f"chaosbench: counts differ between traced passes: {drift}", file=sys.stderr)
    attempted = first.ops + plain.ops + last.ops
    failed = first.failed + plain.failed + last.failed
    print(f"chaosbench: {args.workload} seed {args.seed} traced: {attempted} ops over three passes, "
          f"fail_ratio {failed / max(attempted, 1):.6g} ({failed}/{attempted}), traced "
          f"{last.wall_s:.3f} s vs untraced {plain.wall_s:.3f} s")
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in LAYER_METRICS}
    return attempted, failed, failed == 0 and not drift, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chaoslab" / "__init__.py").is_file():
        print(f"chaosbench: no chaoslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = ROOT / ".chaosbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        if args.setup_probe:
            workload, _, _ = setup(args, work_dir)
            print("ready", flush=True)
            workload.close()
            return 0
        run = traced_run if args.trace else timed_run
        attempted, failed, correct, metrics = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
