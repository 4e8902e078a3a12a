"""Alternated parent/change pairs of chaosbench runs, summarized as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload paths-fine \
        --pairs 10 --first-seed 701 --out BENCH_13.json

Each tree is a source checkout with ``chaosbench/run.py``.  Pair i runs both
trees on seed first_seed + i for the ``run_seconds`` that BENCHMARK.json fixes,
the parent first on even i and the change first on odd i.  Per workload and
end-to-end metric the file holds both sides' medians and quartiles, the pairs
the change won (ties count for neither side), the seeds and every run's value.
A metric is ``unresolved`` when the parent's quartile spread, q3 - q1, is wider
than the metric's BENCHMARK.json bound times the parent's median: its runs
spread too widely to tell a change of that size.  Each side's ``correct`` lists
what every run reported.  A run that exits nonzero stops the pairs: its side,
seed and exit code go under ``failed_run``, the runs made so far are written
(summaries over every run, wins over the whole pairs) and the tool exits 1.
A workload already in ``--out`` is replaced, and the replaced entry, with its
own earlier runs, moves under the new entry's ``earlier_runs``, so every run
made is kept.  Each side's ``tree`` records its ``git rev-parse HEAD`` (null if
the tree is not the top of a git checkout), ``src_lines``, the total of
``wc -l src/chaoslab/*.py``, and ``code_lines``, the lines of code among them
as ``tools/compare_outputs.py`` counts them, so that size is tracked alongside
speed.  ``machine`` records the platform, the CPU count and the Python and
numpy versions the runs used, and ``session`` the UTC start and end of the
pairs, since timings compare only within one machine and session.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

from compare_outputs import source_lines


def run(tree, workload, seed, seconds):
    """(exit code, the run's result line, or None if it failed)."""
    cmd = [sys.executable, "chaosbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return done.returncode, None
    return 0, json.loads(done.stdout.strip().splitlines()[-1])


def tree_facts(tree):
    """{"head": the tree's commit or None, "src_lines": total of wc -l
    src/chaoslab/*.py, "code_lines": the code lines among them}."""
    done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=tree, capture_output=True, text=True)
    top, _, head = done.stdout.strip().partition("\n")
    own = done.returncode == 0 and Path(top).resolve() == Path(tree).resolve()
    lines, code = source_lines(tree)
    return {"head": head if own else None, "src_lines": lines, "code_lines": code}


def utc_now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=701)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metric_specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs = {"parent": [], "change": []}
    failed_run = None
    start = utc_now()
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            code, result = run(getattr(args, side), args.workload, seed, seconds)
            if result is None:
                failed_run = {"side": side, "seed": seed, "exit_code": code}
                print(f"pair {i} seed {seed} {side}: exit {code}", file=sys.stderr)
                break
            runs[side].append(result)
            print(f"pair {i} seed {seed} {side}: {result['metrics']}", file=sys.stderr)
        if failed_run is not None:
            break
    session = {"start_utc": start, "end_utc": utc_now()}
    metrics = {}
    for name, spec in metric_specs.items():
        if not (runs["parent"] and runs["change"]):  # a side failed its first run
            break
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        parent = summary(sides["parent"])
        metrics[name] = {"unit": runs["parent"][0]["metrics"][name]["unit"], "better": spec["better"],
                         "parent": parent, "change": summary(sides["change"]), "change_wins": wins,
                         "unresolved": parent["q3"] - parent["q1"] > spec["bound"] * abs(parent["median"])}
    pairs = min(len(runs["parent"]), len(runs["change"]))
    machine = {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": metadata.version("numpy")}
    entry = {"pairs": pairs, "seeds": seeds[: max(len(r) for r in runs.values())], "seconds": seconds,
             "machine": machine, "session": session,
             "tree": {side: tree_facts(getattr(args, side)) for side in runs},
             "correct": {side: [r["correct"] for r in runs[side]] for side in runs},
             "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
             "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
             "metrics": metrics}
    if failed_run is not None:
        entry["failed_run"] = failed_run
    out = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    earlier = out["workloads"].get(args.workload)
    if earlier is not None:
        entry["earlier_runs"] = earlier.pop("earlier_runs", []) + [earlier]
    out["workloads"][args.workload] = entry
    text = json.dumps(out, indent=1)
    # one line per list of numbers or booleans
    text = re.sub(r"\[\s+([-0-9.a-z+,\s]+?)\s+\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]", text)
    args.out.write_text(text + "\n")
    return 1 if failed_run is not None else 0


if __name__ == "__main__":
    sys.exit(main())
