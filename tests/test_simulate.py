import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from chaoslab import chaos, kernels
from chaoslab.chaos import philox_stream
from chaoslab.kernels import GridSpec, HermiteKernelSpec, KernelDiscretization, continuum_norm_sq
from chaoslab.simulate import provenance_tag, sample_path_values, sample_paths


def tiny_family(spec, cells_per_unit=16, left=3.0):
    cells = int(round((left + spec.horizon) * cells_per_unit))
    grid = GridSpec(left=left, cells=cells, steps=cells_per_unit)
    return grid, KernelDiscretization(spec, grid)


@pytest.mark.parametrize(
    "spec",
    [
        HermiteKernelSpec.hermite(2, 0.7),
        HermiteKernelSpec.hermite(3, 0.8),
    ],
    ids=["rosenblatt", "hermite3"],
)
def test_simulation_matches_dense_wick_eval(spec):
    # the three evaluation routes agree at order >= 2: path engine, dense
    # tensor, rank-one sum (order 1 draws exact fBm: see the covariance gate)
    grid, kd = tiny_family(spec)
    rng = np.random.default_rng(5)
    xi = rng.standard_normal(kd.cells)
    values = sample_path_values(kd, xi)
    vectors = kd.field.rows()
    for step_index in (0, 3, grid.steps):
        t = step_index * spec.horizon / grid.steps
        w = kd.weights(t)
        dense = kd.dense_from_weights(w)
        by_dense = chaos.wick_eval(dense, xi)
        by_rank_one = chaos.wick_eval_rank_one_sum(w, vectors, spec.order, xi)
        assert values[step_index] == pytest.approx(by_dense, rel=1e-9, abs=1e-12)
        assert by_rank_one == pytest.approx(by_dense, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("steps", [8, 13, 32])
@pytest.mark.parametrize(
    "spec",
    [
        HermiteKernelSpec.fbm(0.3),
        HermiteKernelSpec.fbm(0.75),
        HermiteKernelSpec(order=1, beta1=0.2, beta2=0.5, horizon=1.3, scale=0.7),
    ],
    ids=["fbm30", "fbm75", "custom1"],
)
def test_order_one_paths_have_the_exact_fbm_covariance(spec, steps):
    # X is linear in xi, so its matrix is X of the unit vectors, and
    # Cov(X_t, X_s) = M M^T must be scale^2 c (t^2a + s^2a - |t - s|^2a) / 2,
    # c = continuum_norm_sq at t = 1, with no Monte Carlo; the scale is the
    # given one, or else gives unit variance at t = min(1, T)
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=steps, left_units=2))
    m = np.array([sample_path_values(kd, e) for e in np.eye(kd.path_normals)]).T
    t = np.arange(steps + 1) * (spec.horizon / steps)
    a2 = 2.0 * spec.alpha
    scale_sq = spec.scale**2 if spec.scale is not None else 1.0 / continuum_norm_sq(spec, min(1.0, spec.horizon))
    ref = scale_sq * continuum_norm_sq(spec, 1.0) * 0.5 * (
        t[:, None] ** a2 + t[None, :] ** a2 - np.abs(t[:, None] - t[None, :]) ** a2)
    assert np.all(np.abs(m @ m.T - ref) <= 1e-12 * np.abs(ref))


def direct_path(kd, xi):
    """Path values from linear convolutions (``np.convolve``), so that nothing
    can wrap around; at order 1, from the symmetric square root of the
    circulant embedding by ``eigh``, with no transform at all."""
    n = kd.spec.order
    if n == 1:
        steps, a2 = kd.grid.steps, 2.0 * kd.spec.alpha
        m = np.arange(steps + 1.0)
        rho = 0.5 * ((m + 1) ** a2 - 2 * m**a2 + np.abs(m - 1) ** a2)
        row = np.concatenate((rho, rho[-2:0:-1]))
        lag = np.arange(2 * steps)
        lam, vec = np.linalg.eigh(row[(lag[:, None] - lag) % row.size])
        y = ((vec * np.sqrt(lam)) @ vec.T @ xi)[:steps]
        dt = kd.spec.horizon / steps
        return kd.scale * math.sqrt(continuum_norm_sq(kd.spec, dt)) * np.concatenate(([0.0], np.cumsum(y)))
    z = math.sqrt(kd.h) * np.convolve(xi, kd.field.envelope)[: kd.cells]
    norms = np.sqrt(kd.h * np.cumsum(kd.field.envelope**2))
    b = norms**n * chaos.hermite_he(n, z / norms)
    beta1 = kd.spec.beta1
    if beta1 == 0.0:
        times = np.arange(kd.grid.steps + 1) * (kd.spec.horizon / kd.grid.steps)
        return np.array([kd.weights(t) @ b for t in times])
    # cell integrals of x_+^beta1 by whole-cell offsets: (t - u)_+ at grid
    # time t through the convolution, (-u)_+ on the cells left of 0
    g = beta1 + 1.0
    ghat = np.diff((np.arange(kd.cells + 1) * kd.h) ** g / g, prepend=0.0)
    lam = kd.left_cells
    conv = np.convolve(b, ghat)[lam + np.arange(kd.grid.steps + 1)]
    static = ghat[lam:0:-1] @ b[:lam]
    return (kd.scale / beta1) * (conv - static)


@pytest.mark.parametrize("refinement", [1, 2])
@pytest.mark.parametrize("steps", [12, 16])
@pytest.mark.parametrize(
    "spec",
    [
        HermiteKernelSpec.fbm(0.75),
        HermiteKernelSpec.hermite(2, 0.7),
        HermiteKernelSpec.hermite(3, 0.8),
        HermiteKernelSpec.fbm(0.3),
        HermiteKernelSpec(order=1, beta1=0.2, beta2=0.5),
        HermiteKernelSpec(order=2, beta1=-0.2, beta2=0.8),
    ],
    ids=["order1", "order2", "order3", "beta1-negative", "beta1-positive", "order2-beta1-negative"],
)
def test_short_transforms_do_not_alias(spec, steps, refinement):
    # cells >> time_cells: the short transforms are far shorter than 2 cells.
    # At 60.5 horizons the leftmost block of either window is partial.  At
    # order 1 the one transform is 2 steps long, and the cells do not enter.
    for left_units in (60, 60.5):
        kd = KernelDiscretization(spec, GridSpec.build(spec, steps=steps, left_units=left_units))
        if refinement == 2:  # twice the cells and the steps, as in verify's refinement check
            kd = kd.refined()
        assert kd.time_cells == kd.grid.steps == refinement * steps
        assert kd.cells > 50 * kd.time_cells
        partial = kd.left_cells % kd.time_cells != 0 and kd.left_cells % (kd.time_cells + 1) != 0
        assert partial == (left_units == 60.5)
        xi = np.random.default_rng(steps + refinement).standard_normal(kd.path_normals)
        values = sample_path_values(kd, xi)
        reference = direct_path(kd, xi)
        assert np.max(np.abs(values - reference)) <= 1e-12 * np.max(np.abs(reference)), left_units


# the three sampler layouts: the field window on [0, T] (beta1 = 0), the field
# on every cell and the filter window (order >= 2, beta1 != 0), and the
# circulant on the time steps (order 1)
LAYOUTS = {
    "beta1-zero": HermiteKernelSpec.hermite(2, 0.7),
    "beta1-negative": HermiteKernelSpec.fbm(0.3),
    "order2-beta1-negative": HermiteKernelSpec(order=2, beta1=-0.2, beta2=0.8),
}


@pytest.mark.parametrize("spec", LAYOUTS.values(), ids=LAYOUTS)
def test_gram_rows_are_rows_of_the_dense_gram(spec):
    # row u of gram_rows(lo, hi) is (R R^T)[u, u:hi + 1], R the dense field rows
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=32, left_units=6))
    gram = kd.field.rows() @ kd.field.rows().T
    c = kd.cells
    supports = [(0, c - 1), (kd.left_cells, c - 1), (c // 3, 2 * c // 3), (c // 2, c // 2)]
    if spec.order > 1:
        first, width = kd.path_model.draw.keywords["window"][0][:2]
        assert (first, first + width - 1) in supports
    for lo, hi in supports:
        rows = [row.copy() for row in kd.field.gram_rows(lo, hi)]  # each row is overwritten by the next
        assert len(rows) == hi - lo + 1
        for u, row in zip(range(lo, hi + 1), rows):
            ref = gram[u, u : hi + 1]
            assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref)), (lo, hi, u)


@pytest.mark.parametrize("spec", LAYOUTS.values(), ids=LAYOUTS)
def test_pooled_paths_equal_serial_redraws(spec):
    # the benchmark's reproducibility gate: a fresh discretization, serial
    grid = GridSpec.build(spec, steps=64, left_units=8)
    seed, workers = 17, 2
    pooled = sample_paths(spec, grid, 6, seed, workers=workers, first_stream=5)
    assert [p.stream for p in pooled] == list(range(5, 11))
    kd = KernelDiscretization(spec, grid)
    for chunk in (pooled[w::workers] for w in range(workers)):
        for path in (chunk[0], chunk[-1]):
            xi = philox_stream(seed, path.stream).standard_normal(kd.path_normals)
            assert sample_path_values(kd, xi).tobytes() == path.values.tobytes()
    assert all(p.values[0] == 0.0 for p in pooled)


@pytest.mark.parametrize("spec", [HermiteKernelSpec.hermite(2, 0.7), HermiteKernelSpec.fbm(0.3)],
                         ids=["hermite", "fbm"])
def test_negative_scale_paths_start_at_positive_zero(spec):
    # one weighting step, serial and pooled: at scale -1 the t = 0 entry is
    # +0.0 (-1 times +0.0 is -0.0, written "-0"), and every other entry is -1
    # times the scale-1 path's
    grid = GridSpec.build(spec, steps=64, left_units=4)
    unit, flipped = [sample_paths(replace(spec, scale=s), grid, 2, seed=7, workers=2) for s in (1.0, -1.0)]
    kd = KernelDiscretization(replace(spec, scale=-1.0), grid)
    for a, b in zip(unit, flipped):
        xi = philox_stream(7, b.stream).standard_normal(kd.path_normals)
        assert sample_path_values(kd, xi).tobytes() == b.values.tobytes()
        assert b.values[:1].tobytes() == np.zeros(1).tobytes()
        assert b.values[1:].tobytes() == (-1.0 * a.values[1:]).tobytes()


@pytest.mark.parametrize("spec", [HermiteKernelSpec.fbm(0.5, scale=0.0), HermiteKernelSpec.hermite(2, 0.7, scale=0.0)],
                         ids=["order-1", "order-2"])
def test_zero_kernel_values_are_positive_zero_serial_and_pooled(spec):
    # the zero kernel draws and weighs like any other: 0.0 times a negative
    # value is -0.0, which the weighting step writes +0.0
    grid = GridSpec.build(spec, steps=64, left_units=4)
    kd = KernelDiscretization(spec, grid)
    zeros = np.zeros(grid.steps + 1).tobytes()
    for path in sample_paths(spec, grid, 2, seed=5, workers=2):
        xi = philox_stream(5, path.stream).standard_normal(kd.path_normals)
        assert sample_path_values(kd, xi).tobytes() == path.values.tobytes() == zeros


def test_paths_start_at_zero():
    grid, kd = tiny_family(HermiteKernelSpec.fbm(0.5))
    xi = np.random.default_rng(0).standard_normal(kd.path_normals)
    assert sample_path_values(kd, xi)[0] == pytest.approx(0.0, abs=1e-12)


def test_sample_paths_deterministic_and_stream_keyed():
    spec = HermiteKernelSpec.hermite(2, 0.7)
    grid = GridSpec(left=4.0, cells=160, steps=32)
    a = sample_paths(spec, grid, 3, seed=12)
    b = sample_paths(spec, grid, 3, seed=12)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.values, pb.values)
    # stream keying: path i is the same regardless of how many paths are drawn
    c = sample_paths(spec, grid, 1, seed=12)
    assert np.array_equal(a[0].values, c[0].values)
    d = sample_paths(spec, grid, 1, seed=12, first_stream=2)
    assert np.array_equal(a[2].values, d[0].values)
    assert not np.array_equal(a[0].values, a[1].values)


def _path_values(spec, steps, count, seed, left_units=None):
    grid = GridSpec.build(spec, steps=steps, left_units=left_units)
    return np.array([p.values for p in sample_paths(spec, grid, count, seed=seed)])


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_order_1_horizon_scaling(alpha):
    # fBm is alpha-self-similar and both runs normalize at t = 1: at equal
    # steps the paths on [0, 4] are 2^alpha times those on [0, 2]
    short = _path_values(HermiteKernelSpec.fbm(alpha, horizon=2.0), 256, 4, seed=11)
    long = _path_values(HermiteKernelSpec.fbm(alpha, horizon=4.0), 256, 4, seed=11)
    np.testing.assert_array_max_ulp(long, 2.0**alpha * short, maxulp=2)


def test_order_2_horizon_scaling_misses_by_one_percent():
    """A record of a defect: Rosenblatt paths do not scale with the horizon.

    At alpha = 0.7, ``left_units`` 30, 256 steps and seed 11, the grids at
    T = 2 and T = 4 are the same grid in units of T, and the envelope's cell
    averages scale as a power of h, so the paths before weighting are
    proportional.  Only the normalization breaks the relation: both runs
    normalize at t = 1, which is T/2 on one grid and T/4 on the other, and
    the truncated grid's norm ||A_t||^2 is not proportional to t^(2 alpha)
    (``truncation_report``'s ``self_similarity``).  So the T = 4 paths over
    2^alpha times the T = 2 paths read one ratio, 0.9899981, at every grid
    point after t = 0, spread over 1.1e-10.  Under ROADMAP item 5 (A) the
    weight is h^alpha / sqrt(n!) in closed form, and this test becomes an
    exact gate like ``test_order_1_horizon_scaling``.
    """
    short = _path_values(HermiteKernelSpec.hermite(2, 0.7, horizon=2.0), 256, 4, seed=11, left_units=30)
    long = _path_values(HermiteKernelSpec.hermite(2, 0.7, horizon=4.0), 256, 4, seed=11, left_units=30)
    assert np.all(long[:, 0] == 0.0) and np.all(short[:, 0] == 0.0)
    ratio = long[:, 1:] / (2.0**0.7 * short[:, 1:])
    assert ratio.mean() == pytest.approx(0.9899981, abs=1e-7)
    assert ratio.max() - ratio.min() < 2e-10


def test_order_1_reads_alpha_alone():
    # exact fBm: specs of equal alpha draw the same paths whatever (beta1, beta2)
    paths = _path_values(HermiteKernelSpec.fbm(0.7), 256, 4, seed=11)
    for beta2 in (0.5, 0.6, 0.8, 0.9):
        np.testing.assert_array_max_ulp(_path_values(HermiteKernelSpec.fbm(0.7, beta2=beta2), 256, 4, seed=11),
                                        paths, maxulp=2)


@pytest.mark.parametrize(
    "spec, maxulp",
    [(HermiteKernelSpec.fbm(0.7), 2), (HermiteKernelSpec.hermite(2, 0.7), 0), (HermiteKernelSpec.hermite(3, 0.7), 0)],
    ids=["fbm", "rosenblatt", "hermite3"],
)
def test_scale_linearity(spec, maxulp):
    # kernel.scale c gives c times the paths at scale 1, and +0.0 at t = 0: up to
    # one rounding of the weight at order 1, exactly at beta1 = 0 and order >= 2,
    # where the weight is scale * h and h = 1/64 is a power of two
    unit = _path_values(replace(spec, scale=1.0), 64, 4, seed=11, left_units=10)
    for c in (3.0, -2.5, 1e-3):
        scaled = _path_values(replace(spec, scale=c), 64, 4, seed=11, left_units=10)
        np.testing.assert_array_max_ulp(scaled, c * unit, maxulp=maxulp)
        assert np.all(scaled[:, 0] == 0.0) and not np.signbit(scaled[:, 0]).any()


def test_sample_paths_workers_agree():
    spec = HermiteKernelSpec.fbm(0.6)
    grid = GridSpec(left=4.0, cells=160, steps=32)
    serial = sample_paths(spec, grid, 6, seed=3, workers=1)
    for count, workers in ((6, 3), (6, 4), (3, 4)):  # (3, 4): more workers than paths
        parallel = sample_paths(spec, grid, count, seed=3, workers=workers)
        assert len(parallel) == count
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.values, b.values)


def test_worker_count_defaults_to_one(monkeypatch):
    # the environment sets no worker count: without workers= one worker opens
    opened = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setenv("CHAOSLAB_WORKERS", "2")
    monkeypatch.setattr("chaoslab.simulate.ProcessPoolExecutor", RecordingPool)
    spec = HermiteKernelSpec.fbm(0.6)
    assert len(sample_paths(spec, GridSpec(left=4.0, cells=160, steps=32), 6, seed=3)) == 6
    assert opened == [1]


def test_workers_take_the_callers_discretization(monkeypatch):
    # The caller builds the path model before the pool, with the circulant
    # root (order 1) or the filter response and every window a path reads (a
    # field window builds its norms with its spectra), and sums the scale
    # itself while the workers draw.  Forked workers inherit these patches,
    # so a build in a worker raises there and fails the call.
    caller = os.getpid()

    def caller_only(build):
        def wrapped(*args, **kwargs):
            assert os.getpid() == caller, f"{build.__name__} ran in a worker"
            return build(*args, **kwargs)
        return wrapped

    def no_discretization(*args, **kwargs):
        raise AssertionError("a discretization was built")

    prop = functools.cached_property(caller_only(KernelDiscretization.filter_response.func))
    prop.__set_name__(KernelDiscretization, "filter_response")
    monkeypatch.setattr(KernelDiscretization, "filter_response", prop)
    monkeypatch.setattr("chaoslab.kernels._window_spectra", caller_only(kernels._window_spectra))
    monkeypatch.setattr("chaoslab.kernels.CirculantField", caller_only(kernels.CirculantField))
    monkeypatch.setattr(KernelDiscretization, "norm_sq", caller_only(KernelDiscretization.norm_sq))
    monkeypatch.setattr("chaoslab.simulate.KernelDiscretization", no_discretization)
    for spec in LAYOUTS.values():
        grid = GridSpec.build(spec, steps=32, left_units=4)
        fresh = KernelDiscretization(spec, grid)
        for workers in (1, 2):
            kd = KernelDiscretization(spec, grid)
            paths = sample_paths(spec, grid, 4, seed=9, workers=workers, kd=kd)
            assert {"scale", "path_model"} <= set(vars(kd))
            for path in paths:
                xi = philox_stream(9, path.stream).standard_normal(fresh.path_normals)
                assert sample_path_values(fresh, xi).tobytes() == path.values.tobytes()


_RECORD_WORKER_IMPORTS = """
import functools, json, multiprocessing, os, sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from chaoslab import simulate
from chaoslab.kernels import GridSpec, HermiteKernelSpec

record = Path(sys.argv[1])
drawn = simulate._worker_chunk

def recording_chunk(seed, streams):
    before = set(sys.modules)
    values = drawn(seed, streams)
    (record / f"{streams[0]}.json").write_text(json.dumps(sorted(set(sys.modules) - before)))
    return values

simulate._worker_chunk = recording_chunk
simulate.ProcessPoolExecutor = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
loaded = "numpy.random" in sys.modules
spec = HermiteKernelSpec.fbm(0.6)
simulate.sample_paths(spec, GridSpec.build(spec, steps=32, left_units=4), 4, seed=3, workers=2)
print(json.dumps({"loaded_before": loaded, "gained": {f.stem: json.loads(f.read_text()) for f in record.iterdir()}}))
"""


def test_forked_workers_load_no_module_while_drawing(tmp_path):
    # numpy loads numpy.random at the first draw; sample_paths loads it before
    # the pool opens, so no worker pays for it.  A fresh interpreter, because
    # this one has drawn already.  Each chunk records under its first stream,
    # so one worker that runs both chunks still leaves two records.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _RECORD_WORKER_IMPORTS, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert result == {"loaded_before": False, "gained": {"0": [], "1": []}}


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pickled_workers_draw_the_forked_paths(monkeypatch, method):
    # Under spawn or forkserver (the default on Linux from Python 3.14) each
    # worker unpickles the caller's discretization, windows included.
    fork = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    pickled = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
    for spec in LAYOUTS.values():
        grid = GridSpec.build(spec, steps=64, left_units=8)
        runs = []
        for pool in (fork, pickled):
            monkeypatch.setattr("chaoslab.simulate.ProcessPoolExecutor", pool)
            runs.append([p.values.tobytes() for p in sample_paths(spec, grid, 4, seed=21, workers=2)])
        assert runs[0] == runs[1]


def test_no_pool_for_bad_worker_count_or_no_paths(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr("chaoslab.simulate.ProcessPoolExecutor", no_pool)
    spec = HermiteKernelSpec.fbm(0.6)
    grid = GridSpec(left=4.0, cells=160, steps=32)
    with pytest.raises(ValueError, match="workers=0"):
        sample_paths(spec, grid, 2, seed=3, workers=0)
    with pytest.raises(ValueError, match="count=-1"):
        sample_paths(spec, grid, -1, seed=3)
    assert sample_paths(spec, grid, 0, seed=3, workers=2) == []


def test_scale_is_summed_while_the_workers_draw(monkeypatch):
    # the pool opens before the exact norm of an order-2 scale, which runs
    # once, in the caller (a call in a worker raises there and fails the call)
    caller = os.getpid()
    events = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers, **kwargs)
            events.append("pool")

    norm_sq = KernelDiscretization.norm_sq

    def recording_norm_sq(self, w):
        assert os.getpid() == caller, "norm_sq ran in a worker"
        events.append("norm_sq")
        return norm_sq(self, w)

    monkeypatch.setattr("chaoslab.simulate.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(KernelDiscretization, "norm_sq", recording_norm_sq)
    spec = HermiteKernelSpec.hermite(2, 0.7)
    grid = GridSpec.build(spec, steps=32, left_units=4)
    for workers in (1, 2):
        events.clear()
        assert len(sample_paths(spec, grid, 4, seed=9, workers=workers)) == 4
        assert events == ["pool", "norm_sq"]


def test_degenerate_scale_opens_no_pool(monkeypatch):
    # weights with no support are refused before any sum, and before the pool
    # (the span cap likewise: tests/test_cli.py)
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr("chaoslab.simulate.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("chaoslab.kernels.filter_cell_integrals", lambda beta1, t, edges: np.zeros(edges.size - 1))
    spec = HermiteKernelSpec.hermite(2, 0.7)
    with pytest.raises(ValueError, match="cannot normalize a degenerate kernel"):
        sample_paths(spec, GridSpec.build(spec, steps=32, left_units=4), 1, seed=0)


def test_scale_refused_after_its_sum_leaves_no_worker(monkeypatch):
    # the caller raises what the sum raises, once the workers it overlapped have exited
    opened = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def failing_norm_sq(self, w):
        raise ValueError("the sum failed")

    monkeypatch.setattr("chaoslab.simulate.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(KernelDiscretization, "norm_sq", failing_norm_sq)
    spec = HermiteKernelSpec.hermite(2, 0.7)
    with pytest.raises(ValueError, match="the sum failed"):
        sample_paths(spec, GridSpec.build(spec, steps=32, left_units=4), 4, seed=9, workers=2)
    assert opened == [2]
    assert multiprocessing.active_children() == []


def test_normalization_contract_fbm():
    # variance of G(1) over many paths is 1 within Monte-Carlo error
    spec = HermiteKernelSpec.fbm(0.5)
    grid = GridSpec.build(spec, steps=256, left_units=30)
    paths = sample_paths(spec, grid, 4000, seed=42)
    g1 = np.array([p.values[-1] for p in paths])
    var = g1.var()
    se = math.sqrt(2.0 / g1.size)  # Gaussian variance-estimator SE
    assert abs(var - 1.0) < 4 * se


def test_normalization_contract_rosenblatt():
    spec = HermiteKernelSpec.hermite(2, 0.7)
    grid = GridSpec.build(spec, steps=256, left_units=30)
    paths = sample_paths(spec, grid, 4000, seed=43)
    g1 = np.array([p.values[-1] for p in paths])
    centered_sq = (g1 - g1.mean()) ** 2
    se = centered_sq.std(ddof=1) / math.sqrt(g1.size)
    assert abs(g1.var() - 1.0) < 4 * se


def test_rosenblatt_skewness_positive_and_stable():
    spec = HermiteKernelSpec.hermite(2, 0.7)
    grid = GridSpec.build(spec, steps=256, left_units=30)
    skews = []
    for seed in (1, 2):
        paths = sample_paths(spec, grid, 1500, seed=seed)
        g1 = np.array([p.values[-1] for p in paths])
        skews.append(float(((g1 - g1.mean()) ** 3).mean() / g1.std() ** 3))
    assert all(s > 0.5 for s in skews)  # non-Gaussianity witness, stable sign


def test_provenance_tag_changes_with_inputs():
    spec = HermiteKernelSpec.fbm(0.5)
    grid = GridSpec(left=4.0, cells=160, steps=32)
    tag = provenance_tag(KernelDiscretization(spec, grid))
    assert len(tag) == 16
    assert tag != provenance_tag(KernelDiscretization(HermiteKernelSpec.fbm(0.6), grid))
    paths = sample_paths(spec, grid, 1, seed=0)
    assert paths[0].provenance == tag


@pytest.mark.parametrize("spec", LAYOUTS.values(), ids=LAYOUTS)
def test_provenance_tag_hashes_what_the_paths_read(spec):
    # order 1 reads the spec and the steps, so the depth changes neither the
    # paths nor the tag; order >= 2 reads the whole grid, and the tag follows it
    runs = [sample_paths(spec, GridSpec.build(spec, steps=64, left_units=u), 2, seed=1) for u in (2, 30)]
    same = [a.values.tobytes() == b.values.tobytes() for a, b in zip(*runs)]
    assert same == [spec.order == 1] * 2
    assert (runs[0][0].provenance == runs[1][0].provenance) == (spec.order == 1)


def test_seed_dimension_validation():
    spec = HermiteKernelSpec.fbm(0.5)
    _, kd = tiny_family(spec)
    with pytest.raises(ValueError):
        sample_path_values(kd, np.zeros(kd.path_normals - 1))
