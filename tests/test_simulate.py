import math

import numpy as np
import pytest

from chaoslab import chaos
from chaoslab.kernels import GridSpec, HermiteKernelSpec, KernelDiscretization
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
        HermiteKernelSpec.fbm(0.75),
        HermiteKernelSpec.fbm(0.3),
    ],
    ids=["rosenblatt", "hermite3", "fbm75", "fbm30"],
)
def test_simulation_matches_dense_wick_eval(spec):
    # the three evaluation routes agree: path engine, dense tensor, rank-one sum
    grid, kd = tiny_family(spec)
    rng = np.random.default_rng(5)
    xi = rng.standard_normal(kd.cells)
    values = sample_path_values(kd, xi)
    vectors = kd.rank_one_vectors()
    for step_index in (0, 3, grid.steps):
        t = step_index * spec.horizon / grid.steps
        w = kd.weights(t)
        dense = kd.dense_from_weights(w, cap=10**7)
        by_dense = chaos.wick_eval(dense, xi)
        by_rank_one = chaos.wick_eval_rank_one_sum(w, vectors, spec.order, xi)
        assert values[step_index] == pytest.approx(by_dense, rel=1e-9, abs=1e-12)
        assert by_rank_one == pytest.approx(by_dense, rel=1e-9, abs=1e-12)


def test_paths_start_at_zero():
    grid, kd = tiny_family(HermiteKernelSpec.fbm(0.5))
    xi = np.random.default_rng(0).standard_normal(kd.cells)
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


def test_sample_paths_workers_agree():
    spec = HermiteKernelSpec.fbm(0.6)
    grid = GridSpec(left=4.0, cells=160, steps=32)
    serial = sample_paths(spec, grid, 6, seed=3, workers=1)
    for workers in (3, 4):  # 4 workers for 6 paths falls back to the serial loop
        parallel = sample_paths(spec, grid, 6, seed=3, workers=workers)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.values, b.values)


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
    tag = provenance_tag(spec, grid)
    assert len(tag) == 16
    assert tag != provenance_tag(HermiteKernelSpec.fbm(0.6), grid)
    paths = sample_paths(spec, grid, 1, seed=0)
    assert paths[0].provenance == tag


def test_seed_dimension_validation():
    spec = HermiteKernelSpec.fbm(0.5)
    _, kd = tiny_family(spec)
    with pytest.raises(ValueError):
        sample_path_values(kd, np.zeros(kd.cells - 1))
