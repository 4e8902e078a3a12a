"""Spans at chaoslab module boundaries, recorded from outside the program.

The tracer replaces the functions each chaoslab module calls by wrappers that
record a span (name, start, end, parent) in memory.  A function is replaced
wherever a chaoslab module namespace binds it, so calls through an import
(``from .chaos import philox_stream``) and calls within the defining module
(``cmd_simulate`` -> ``write_csv``) are both seen.  Nothing under ``src/`` is
edited: ``uninstall`` puts every original object back.

Pool workers are forked after the wrappers are installed, so they run traced
code too.  Each worker starts with an empty span list and writes its spans,
counters and CPU time to a JSON file in ``worker_dir`` when it exits; the
parent reads them back with ``collect_workers``.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import multiprocessing.util
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path


def _count_pair_sets(counts, args, kwargs, result):
    counts["pairings.pair_sets"] += len(result)


def _count_index_points(counts, args, kwargs, result):
    # one einsum over N - k distinct symbols, each ranging over d values
    pairset, tensors = args[0], args[1]
    n_total = pairset.decomp.total
    counts["cancellation.cancel.index_points"] += tensors[0].dim ** (n_total - len(pairset))


def _count_fft_points(counts, args, kwargs, result):
    counts["simulate.fft.points"] += int(result.size)


def _count_bytes(counts, args, kwargs, result):
    counts["cli.bytes_written"] += os.path.getsize(args[0])


# (defining module, attribute, span name, counter hook)
FUNCTIONS = [
    ("chaoslab.pairings", "enumerate_admissible", "pairings.enumerate_admissible", _count_pair_sets),
    ("chaoslab.cancellation", "cancel", "cancellation.cancel", _count_index_points),
    ("chaoslab.tensors", "symmetrize", "tensors.symmetrize", None),
    ("chaoslab.tensors", "contract", "tensors.contract", None),
    ("chaoslab.chaos", "expand_product", "chaos.expand_product", None),
    ("chaoslab.chaos", "moment_oracle", "chaos.moment_oracle", None),
    ("chaoslab.chaos", "wick_eval_batch", "chaos.wick_eval_batch", None),
    ("chaoslab.chaos", "hermite_he", "chaos.hermite_he", None),
    ("chaoslab.simulate", "sample_paths", "simulate.sample_paths", None),
    ("chaoslab.simulate", "sample_path_values", "simulate.sample_path_values", None),
    ("chaoslab.regularity", "scaling_exponent_fit", "regularity.scaling_exponent_fit", None),
    ("chaoslab.regularity", "dyadic_besov_seminorm", "regularity.dyadic_besov_seminorm", None),
    ("chaoslab.regularity", "moment_growth_report", "regularity.moment_growth_report", None),
    ("chaoslab.regularity", "modulus_holder_statistic", "regularity.modulus_holder_statistic", None),
    ("chaoslab.regularity", "increment_lp_norm", "regularity.increment_lp_norm", None),
    ("chaoslab.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("chaoslab.cli", "cmd_report", "cli.cmd_report", None),
    ("chaoslab.cli", "write_csv", "cli.write_csv", _count_bytes),
    ("chaoslab.cli", "write_json", "cli.write_json", _count_bytes),
    ("chaoslab.cli", "_load_paths", "cli.load_paths", None),
]

# (metric, unit, better); the traced run reports exactly these.
LAYER_METRICS = [
    ("pairings.enumerate_admissible.calls", "count", "lower"),
    ("pairings.enumerate_admissible.self_s", "s", "lower"),
    ("pairings.pair_sets", "count", "lower"),
    ("cancellation.cancel.calls", "count", "lower"),
    ("cancellation.cancel.self_s", "s", "lower"),
    ("cancellation.cancel.index_points", "count", "lower"),
    ("tensors.symmetrize.calls", "count", "lower"),
    ("tensors.symmetrize.self_s", "s", "lower"),
    ("tensors.contract.calls", "count", "lower"),
    ("tensors.contract.self_s", "s", "lower"),
    ("chaos.expand_product.self_s", "s", "lower"),
    ("chaos.moment_oracle.calls", "count", "lower"),
    ("chaos.moment_oracle.self_s", "s", "lower"),
    ("chaos.wick_eval_batch.self_s", "s", "lower"),
    ("chaos.philox.draws", "count", "lower"),
    ("chaos.philox.normals", "count", "lower"),
    ("chaos.philox.draw_s", "s", "lower"),
    ("chaos.hermite_he.self_s", "s", "lower"),
    ("kernels.grid_build.self_s", "s", "lower"),
    ("kernels.discretizations", "count", "lower"),
    ("kernels.discretization.self_s", "s", "lower"),
    ("kernels.norm_sq.calls", "count", "lower"),
    ("kernels.norm_sq.self_s", "s", "lower"),
    ("kernels.cells", "count", "lower"),
    ("kernels.time_cells", "count", "lower"),
    ("simulate.sample_paths.self_s", "s", "lower"),
    ("simulate.sample_path_values.calls", "count", "lower"),
    ("simulate.sample_path_values.self_s", "s", "lower"),
    ("simulate.fft.calls", "count", "lower"),
    ("simulate.fft.points", "count", "lower"),
    ("simulate.fft_s", "s", "lower"),
    ("simulate.pool.wall_s", "s", "lower"),
    ("simulate.pool.workers", "count", "higher"),
    ("simulate.worker.busy_s", "s", "lower"),
    ("simulate.worker.paths_max", "count", "lower"),
    ("simulate.worker.paths_min", "count", "higher"),
    ("simulate.parallel_efficiency", "ratio", "higher"),
    ("regularity.scaling_exponent_fit.self_s", "s", "lower"),
    ("regularity.dyadic_besov_seminorm.self_s", "s", "lower"),
    ("regularity.moment_growth_report.self_s", "s", "lower"),
    ("regularity.modulus_holder_statistic.self_s", "s", "lower"),
    ("regularity.increment_lp_norm.calls", "count", "lower"),
    ("cli.cmd_simulate.self_s", "s", "lower"),
    ("cli.cmd_report.self_s", "s", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.load_paths.self_s", "s", "lower"),
    ("cli.validate_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Counts fixed by the inputs alone; two traced passes over the same inputs must
# reproduce them exactly.  Per-worker path counts are left out: which worker
# takes which chunk is up to the pool.
EXACT_COUNTS = [
    "pairings.pair_sets",
    "cancellation.cancel.calls",
    "cancellation.cancel.index_points",
    "simulate.fft.calls",
    "simulate.fft.points",
    "chaos.philox.draws",
    "chaos.philox.normals",
    "kernels.discretizations",
    "kernels.cells",
    "kernels.time_cells",
    "cli.bytes_written",
]


class _TracedGenerator:
    """Generator proxy that records each ``standard_normal`` draw."""

    def __init__(self, tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("chaos.philox", self._generator.standard_normal, args, kwargs)
        self._tracer.counts["chaos.philox.draws"] += 1
        self._tracer.counts["chaos.philox.normals"] += int(out.size)
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


class _ModuleProxy:
    """Stands in for a module in one namespace, with some attributes replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, worker_dir):
        self.worker_dir = Path(worker_dir)
        self.spans = []  # [name, start, end, parent index]
        self.counts = collections.Counter()
        self.pools = []  # max_workers of each pool opened
        self.workers = []  # records read back from worker files
        self._stack = []
        self._undo = []
        self._active = False
        self._worker_cpu0 = None
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # spans --------------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, args, kwargs, hook=None):
        self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end()
        if hook is not None:
            hook(self.counts, args, kwargs, result)
        return result

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    # installation --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chaoslab" or mod_name.startswith("chaoslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        if self._active:
            raise RuntimeError("tracer already installed")
        self.spans, self.counts, self.pools, self.workers = [], collections.Counter(), [], []
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        for f in self.worker_dir.glob("*.json"):
            f.unlink()
        for mod_name, attr, name, hook in FUNCTIONS:
            mod = sys.modules.get(mod_name)
            if mod is not None:
                self._replace_everywhere(getattr(mod, attr), self.wrap(name, getattr(mod, attr), hook))
        chaos = sys.modules["chaoslab.chaos"]
        philox = chaos.philox_stream

        @functools.wraps(philox)
        def traced_philox(*args, **kwargs):
            return _TracedGenerator(self, self.call("chaos.philox", philox, args, kwargs))

        self._replace_everywhere(philox, traced_philox)

        simulate = sys.modules["chaoslab.simulate"]
        self._set(simulate, "fftconvolve",
                  self.wrap("simulate.fft", simulate.fftconvolve, _count_fft_points))
        self._set(simulate, "ProcessPoolExecutor", self._pool_class())

        kernels = sys.modules["chaoslab.kernels"]
        build = vars(kernels.GridSpec)["build"].__func__
        self._set(kernels.GridSpec, "build", classmethod(self.wrap("kernels.grid_build", build)))
        init = kernels.KernelDiscretization.__init__

        def count_discretization(counts, args, kwargs, result):
            kd = args[0]
            counts["kernels.discretizations"] += 1
            counts["kernels.cells"] += kd.cells
            counts["kernels.time_cells"] += kd.time_cells

        self._set(kernels.KernelDiscretization, "__init__",
                  self.wrap("kernels.discretization", init, count_discretization))
        self._set(kernels.KernelDiscretization, "norm_sq",
                  self.wrap("kernels.norm_sq", kernels.KernelDiscretization.norm_sq))

        cli = sys.modules.get("chaoslab.cli")
        if cli is not None:
            schema = cli.jsonschema
            self._set(cli, "jsonschema",
                      _ModuleProxy(schema, validate=self.wrap("cli.validate", schema.validate)))
        self._active = True

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._active = False

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                tracer.begin("simulate.pool")
                tracer.pools.append(max_workers or os.cpu_count() or 1)
                self._span_open = True
                super().__init__(max_workers, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span_open:
                        self._span_open = False
                        tracer.end()

        return TracedPool

    # pool workers --------------------------------------------------------------

    def _after_fork(self):
        if not self._active:
            return
        self.spans, self._stack, self.counts = [], [], collections.Counter()
        self._worker_cpu0 = time.process_time()
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        record = {
            "pid": os.getpid(),
            "cpu_s": time.process_time() - self._worker_cpu0,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        tmp = self.worker_dir / f"{os.getpid()}.json.tmp"
        tmp.write_text(json.dumps(record))
        tmp.rename(self.worker_dir / f"{os.getpid()}.json")

    def collect_workers(self):
        """Read back the records of every worker that has exited."""
        for f in sorted(self.worker_dir.glob("*.json")):
            record = json.loads(f.read_text())
            f.unlink()
            self.workers.append(record)
            self.counts.update(record["counts"])

    # aggregation ---------------------------------------------------------------

    def summary(self):
        """Per-layer metrics (values only) from the spans of parent and workers."""
        calls = collections.Counter()
        total = collections.Counter()
        self_s = collections.Counter()
        for spans in [self.spans] + [w["spans"] for w in self.workers]:
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for (name, start, end, parent), inner in zip(spans, child_time):
                calls[name] += 1
                total[name] += end - start
                self_s[name] += end - start - inner
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        out["chaos.philox.draw_s"] = self_s["chaos.philox"]
        out["simulate.fft.calls"] = calls["simulate.fft"]
        out["simulate.fft_s"] = self_s["simulate.fft"]
        out["cli.validate_s"] = total["cli.validate"]
        pool_wall = total["simulate.pool"]
        out["simulate.pool.wall_s"] = pool_wall
        out["simulate.pool.workers"] = max(self.pools, default=0)
        busy = sum(w["cpu_s"] for w in self.workers)
        out["simulate.worker.busy_s"] = busy
        per_worker = [
            sum(1 for s in w["spans"] if s[0] == "simulate.sample_path_values") for w in self.workers
        ]
        out["simulate.worker.paths_max"] = max(per_worker, default=0)
        out["simulate.worker.paths_min"] = min(per_worker, default=0)
        # every pool of a run has the same size, so capacity is workers x wall
        capacity = out["simulate.pool.workers"] * pool_wall
        out["simulate.parallel_efficiency"] = busy / capacity if capacity > 0 else 0.0
        for key, value in out.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite layer metric {key}")
        return out
