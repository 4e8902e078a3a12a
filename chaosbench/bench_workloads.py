"""The three benchmark workloads and their correctness gates.

A workload is run in units: a deck of algebra instances, a round of CLI
invocations, or one ``sample_paths`` call.  ``unit(i)`` builds the inputs of
unit ``i`` from the seed (untimed), runs it (timed) and gates every result.
``check()`` runs the gates that need the whole run.  Program functions are
always looked up through their module at call time, so a tracer that has
replaced them sees the calls.

``corrupt=True`` perturbs one program result before it is gated; the self
test uses it to show that the gates count failures.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from chaoslab import chaos, kernels, simulate
from chaoslab.tensors import SymTensor


@dataclass
class UnitResult:
    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    # (position in the unit, ms per operation, operations); every unit runs
    # the same positions on fresh inputs of the same cost
    op_ms: list = field(default_factory=list)


def _report_error(where, exc):
    print(f"chaosbench: {where}: {type(exc).__name__}: {exc}", file=sys.stderr)


class Workload:
    trace_units = 1  # units of the fixed work of a traced pass

    def __init__(self, seed, work_dir, size="full", corrupt=False):
        self.seed = seed
        self.work_dir = work_dir
        self.cfg = self.sizes[size]
        self.corrupt = corrupt

    def prepare(self):
        """Builds what the first timed operation needs."""

    def unit(self, i):
        raise NotImplementedError

    def check(self):
        """Runs the run-level gates; returns failed operations and resets."""
        return 0

    def close(self):
        pass


# -- algebra-mix ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _matchings_by_size(blocks):
    """Admissible pair sets by size k over positions labelled by block."""
    if not blocks:
        return (1,)
    first, rest = blocks[0], blocks[1:]
    out = list(_matchings_by_size(rest)) + [0]
    for j, b in enumerate(rest):
        if b != first:
            for k, c in enumerate(_matchings_by_size(rest[:j] + rest[j + 1 :])):
                out[k + 1] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def shape_table(max_total=10):
    """Shapes (sorted block orders, d) with their probability and cost key.

    The distribution: 2-4 blocks uniformly, each of order 1-3 uniformly,
    redrawn while the total order exceeds ``max_total``; d uniform in {2, 3}.
    Shapes are sorted by cost: admissible pair sets (one contraction each),
    then einsum index points sum_k |E^k| d^(N-k).
    """
    weight = {}
    for blocks in (2, 3, 4):
        for lengths in itertools.product((1, 2, 3), repeat=blocks):
            if sum(lengths) <= max_total:
                for d in (2, 3):
                    key = (tuple(sorted(lengths, reverse=True)), d)
                    weight[key] = weight.get(key, 0.0) + 1.0 / (3 * 3**blocks * 2)
    total = sum(weight.values())
    rows = []
    for (multiset, d), w in weight.items():
        labels = tuple(j for j, n in enumerate(multiset) for _ in range(n))
        counts = _matchings_by_size(labels)
        n_total = sum(multiset)
        points = sum(c * d ** (n_total - k) for k, c in enumerate(counts))
        rows.append(((sum(counts), points, multiset, d), multiset, d, w / total))
    rows.sort()
    return [(multiset, d, p) for _, multiset, d, p in rows]


def deck_shapes(size, max_total=10):
    """One shape per percentile band: slot i takes quantile (i + 1/2) / size.

    The block order of slot i is the (i mod m)-th of the m distinct orders of
    its multiset, because the einsum cost of a heavy product moves by a third
    with the block order.  Every deck thus holds the same cost mix; the seed
    draws entries, draws and the order of the deck.
    """
    table = shape_table(max_total)
    cum = np.cumsum([p for _, _, p in table])
    out = []
    for i in range(size):
        j = min(int(np.searchsorted(cum, (i + 0.5) / size)), len(table) - 1)
        multiset, d = table[j][:2]
        orders = sorted(set(itertools.permutations(multiset)))
        out.append((orders[i % len(orders)], d))
    return out


def random_unit_symmetric(rng, order, d):
    a = rng.standard_normal((d,) * order)
    sym = sum(np.transpose(a, p) for p in itertools.permutations(range(order)))
    sym = sym / np.linalg.norm(sym)
    return SymTensor(sym, dim=d, symmetric=True)


class AlgebraMix(Workload):
    """Criterion-1 instances: expansion, oracle and pointwise check."""

    name = "algebra-mix"
    sizes = {"full": {"deck": 100, "max_total": 10, "draws": 100},
             "tiny": {"deck": 12, "max_total": 6, "draws": 20}}
    tolerance = 1e-9

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shapes = deck_shapes(self.cfg["deck"], self.cfg["max_total"])
        self._decks = {}

    def prepare(self):
        self._deck(0)

    def _deck(self, i):
        if i not in self._decks:
            rng = np.random.default_rng([self.seed, i])
            deck = []
            for slot, (lengths, d) in enumerate(self.shapes):
                tensors = [random_unit_symmetric(rng, n, d) for n in lengths]
                deck.append((slot, tensors, rng.standard_normal((self.cfg["draws"], d))))
            self._decks = {i: [deck[k] for k in rng.permutation(len(deck))]}
        return self._decks[i]

    def unit(self, i):
        res = UnitResult()
        start = time.perf_counter()
        for k, (slot, tensors, xis) in enumerate(self._deck(i)):
            t0 = time.perf_counter()
            try:
                expansion = chaos.expand_product(tensors)
                oracle = chaos.moment_oracle(tensors)
                product = np.ones(xis.shape[0])
                for t in tensors:
                    product *= chaos.wick_eval_batch(t, xis)
                # relative to max(1, |product|) like the degree-0 gap: at
                # |product| ~ 3e4 double rounding alone exceeds 1e-9 absolute
                error = np.abs(product - expansion.evaluate_batch(xis))
                pointwise = float(np.max(error / np.maximum(1.0, np.abs(product))))
                if self.corrupt and i == 0 and k == 0:
                    oracle += 1e-6
                gap = abs(expansion.degree0() - oracle) / max(1.0, abs(oracle))
                ok = gap <= self.tolerance and pointwise <= self.tolerance
                if not ok:
                    print(f"chaosbench: algebra-mix deck {i} slot {slot}: degree-0 gap {gap:.3g}, "
                          f"pointwise error {pointwise:.3g}", file=sys.stderr)
            except Exception as exc:  # a raising operation is a failed operation
                _report_error("algebra-mix", exc)
                ok = False
            res.op_ms.append((slot, (time.perf_counter() - t0) * 1e3, 1))
            res.ops += 1
            res.failed += not ok
        res.wall_s = time.perf_counter() - start
        return res


# -- paths-fine -------------------------------------------------------------------


class PathsFine(Workload):
    """``chaoslab simulate`` then ``chaoslab report``, in-process, one worker."""

    name = "paths-fine"
    # (label, kernel block, expected alpha, slope tolerance); the Rosenblatt
    # slope of two paths scatters with sd ~0.04 around a -0.04 bias
    cases = [
        ("rosenblatt", {"type": "hermite", "order": 2, "alpha": 0.7}, 0.7, 0.25),
        ("fbm", {"type": "fbm", "alpha": 0.3}, 0.3, 0.1),
    ]
    sizes = {"full": {"steps": {"rosenblatt": 2**13, "fbm": 2**14}, "paths": 2, "grid": {}},
             "tiny": {"steps": {"rosenblatt": 2**10, "fbm": 2**10}, "paths": 2,
                      "grid": {"left_units": 30}}}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.work = self.work_dir / "paths-fine"
        self.invocations = 0

    def prepare(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for label, kernel, alpha, tol in self.cases:
            steps = self.cfg["steps"][label]
            top = min(10, int(math.log2(steps)) - 3)
            sim = {"kernel": kernel, "grid": {"steps": steps, **self.cfg["grid"]},
                   "paths": self.cfg["paths"], "seed": self.seed}
            report = {
                "paths_dir": str(self.work / f"{label}-sim"),
                "slope": {"p": 2, "levels": list(range(3, top + 1)),
                          "expected_alpha": alpha, "tolerance": tol},
                "besov": {"smoothness": alpha, "orlicz_beta": 1.0},
                "moment_growth": {"alpha": alpha, "exponents": [1.0, 0.5],
                                  "levels": list(range(top - 5, top + 1))},
                "modulus": {"alpha": alpha, "log_exponent": 1.0, "subsample_factors": [1, 2, 4]},
            }
            (self.work / f"{label}-simulate.json").write_text(json.dumps(sim))
            (self.work / f"{label}-report.json").write_text(json.dumps(report))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _invoke(self, label, alpha, first_stream):
        from chaoslab import cli

        sim_dir = self.work / f"{label}-sim"
        rep_dir = self.work / f"{label}-report"
        for d in (sim_dir, rep_dir):
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        codes = []
        try:
            codes.append(cli.main(["simulate", "--config", str(self.work / f"{label}-simulate.json"),
                                   "--out-dir", str(sim_dir), "--workers", "1",
                                   "--set", f"first_stream={first_stream}"]))
            codes.append(cli.main(["report", "--config", str(self.work / f"{label}-report.json"),
                                   "--out-dir", str(rep_dir), "--workers", "1"]))
        except Exception as exc:
            _report_error(f"paths-fine {label}", exc)
            return time.perf_counter() - t0, False
        elapsed = time.perf_counter() - t0
        try:
            summary = json.loads((rep_dir / "report_summary.json").read_text())
            scale = float(json.loads((sim_dir / "run.json").read_text())["scale"])
            if self.corrupt and self.invocations == 1:
                scale = math.nan
            ok = (
                codes == [0, 0]
                and summary["passed"] is True
                and summary["checks"]["slope"]["expected_alpha"] == alpha
                and math.isfinite(scale)
                and scale > 0
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            _report_error(f"paths-fine {label}", exc)
            ok = False
        if not ok:
            print(f"chaosbench: paths-fine {label}: gate failed (exit codes {codes})", file=sys.stderr)
        return elapsed, ok

    def unit(self, i):
        res = UnitResult()
        k = self.cfg["paths"]
        for label, kernel, alpha, tol in self.cases:
            self.invocations += 1
            elapsed, ok = self._invoke(label, alpha, first_stream=i * k)
            res.wall_s += elapsed
            res.op_ms.append((label, elapsed * 1e3 / k, k))
            res.ops += k
            res.failed += 0 if ok else k
        return res


# -- paths-coarse -----------------------------------------------------------------


class PathsCoarse(Workload):
    """Many short Rosenblatt paths through the library pool, two workers."""

    name = "paths-coarse"
    trace_units = 2
    workers = 2
    sizes = {"full": {"steps": 2**9, "batch": 1000}, "tiny": {"steps": 2**6, "batch": 200}}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._g1 = []
        self._kept = {}

    def prepare(self):
        self.spec = kernels.HermiteKernelSpec.hermite(2, 0.7)
        self.grid = kernels.GridSpec.build(self.spec, steps=self.cfg["steps"], left_units=30)
        batch = self.cfg["batch"]
        # unit 0's first and last two streams; chunks alternate between workers
        self.repro_streams = [0, 1, batch - 2, batch - 1]

    def unit(self, i):
        batch = self.cfg["batch"]
        res = UnitResult(ops=batch)
        t0 = time.perf_counter()
        try:
            paths = simulate.sample_paths(self.spec, self.grid, batch, self.seed,
                                          workers=self.workers, first_stream=i * batch)
        except Exception as exc:
            _report_error("paths-coarse", exc)
            paths = None
        res.wall_s = time.perf_counter() - t0
        res.op_ms.append(("batch", res.wall_s * 1e3 / batch, batch))
        if paths is None or len(paths) != batch:
            res.failed = batch
            return res
        self._g1.extend(p.values[-1] for p in paths)
        for p in paths:
            if p.stream in self.repro_streams:
                self._kept[p.stream] = p.values
        return res

    def check(self):
        """Moment gates on G(1) and the worker-count reproducibility gate."""
        g1, kept = np.array(self._g1), self._kept
        self._g1, self._kept = [], {}
        n = g1.size
        if n < 2:
            return 0
        mean = g1.mean()
        var = g1.var(ddof=1)
        centred = g1 - mean
        se_var = math.sqrt(max(np.mean(centred**4) - var**2, 0.0) / n)
        skew = np.mean(centred**3) / var**1.5
        moments_ok = (
            abs(mean) <= 4 * math.sqrt(var / n)
            and abs(var - 1.0) <= 4 * se_var
            and skew > 3 * math.sqrt(6.0 / n)
        )
        if not moments_ok:
            print(f"chaosbench: paths-coarse: G(1) mean {mean:.4g}, var {var:.4g} "
                  f"(se {se_var:.3g}), skewness {skew:.4g} over {n} paths", file=sys.stderr)
            return n
        if self.corrupt and kept:
            first = min(kept)
            bits = kept[first].copy().view(np.uint64)
            bits[-1] ^= 1
            kept[first] = bits.view(np.float64)
        kd = kernels.KernelDiscretization(self.spec, self.grid)
        mismatched = 0
        for stream, pooled in sorted(kept.items()):
            xi = chaos.philox_stream(self.seed, stream).standard_normal(kd.cells)
            serial = simulate.sample_path_values(kd, xi)
            mismatched += serial.tobytes() != pooled.tobytes()
        if mismatched:
            print(f"chaosbench: paths-coarse: {mismatched} pooled paths differ from serial redraws",
                  file=sys.stderr)
        return mismatched


WORKLOADS = {w.name: w for w in (AlgebraMix, PathsFine, PathsCoarse)}
