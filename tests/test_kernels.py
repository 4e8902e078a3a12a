import math

import numpy as np
import pytest
from scipy.signal import fftconvolve as scipy_fftconvolve
from scipy.special import beta as beta_fn

from chaoslab.kernels import (
    GridSpec,
    HermiteKernelSpec,
    KernelDiscretization,
    coupling_integral,
    coupling_scaling_report,
    envelope_cell_averages,
    fftconvolve,
    filter_cell_integrals,
    filter_overlap_integral,
    fractional_filter,
    increment_coupling,
    lower_scaling_report,
    overlap_scaling_report,
    tail_decay_exponent,
    truncation_report,
    upper_scaling_report,
)
from chaoslab.tensors import contract, inner, norm


def small_rosenblatt(cells_per_unit=14, left=30.0):
    spec = HermiteKernelSpec.hermite(2, 0.7)
    cells = int(round((left + 1.0) * cells_per_unit))
    grid = GridSpec(left=left, cells=cells, steps=cells_per_unit)
    return spec, grid, KernelDiscretization(spec, grid)


# -- filters and envelope -------------------------------------------------------


def test_filter_indicator_branch():
    assert fractional_filter(0.0, 1.0, 0.5) == 1.0
    assert fractional_filter(0.0, 1.0, 1.5) == 0.0
    assert fractional_filter(0.0, 1.0, -0.2) == 0.0


def test_filter_vanishes_at_right_edge():
    assert fractional_filter(0.25, 1.0, 1.0) == pytest.approx(0.0)


def test_filter_negative_exponent_value():
    got = fractional_filter(-0.2, 1.0, -1.0)
    assert got == pytest.approx((2.0**-0.2 - 1.0) / (-0.2))


def test_filter_far_left_decay():
    # |k_t(u)| ~ t |u|^(beta1 - 1) for u -> -inf
    beta1, t = 0.3, 0.5
    u = np.array([-50.0, -100.0, -200.0])
    vals = np.abs(fractional_filter(beta1, t, u))
    ratio = vals[:-1] / vals[1:]
    assert np.allclose(ratio, 2.0 ** (1 - beta1), rtol=0.02)


def test_filter_cell_integrals_match_quadrature():
    import mpmath

    rng = np.random.default_rng(0)
    t = 0.8
    for beta1 in (0.0, 0.3, -0.35):
        edges = np.sort(rng.uniform(-2.0, 1.0, 9))
        got = filter_cell_integrals(beta1, t, edges)
        for i in range(len(edges) - 1):
            lo, hi = edges[i], edges[i + 1]
            # tanh-sinh quadrature split at the filter's singular points
            splits = [lo] + [p for p in (0.0, t) if lo < p < hi] + [hi]
            ref = float(
                mpmath.quad(lambda u: float(fractional_filter(beta1, t, float(u))), splits)
            )
            assert got[i] == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_envelope_cell_average_closed_form():
    h, b2 = 0.1, 0.7
    avg = envelope_cell_averages(b2, h, 5)
    a = b2 / 2
    assert avg[0] == pytest.approx((h / 2) ** a / (a * h))
    xs = np.linspace(0.15, 0.25, 10001)
    assert avg[2] == pytest.approx(np.trapezoid(xs ** (a - 1), xs) / h, rel=1e-4)


def test_grid_autocorr_matches_envelope_correlation():
    # grid autocorrelation = continuum K(w) = B(b2/2, 1 - b2) w^(b2 - 1)
    # minus the analytic truncation tail
    spec, grid, kd = small_rosenblatt(cells_per_unit=64)
    b2 = spec.beta2
    for m in (4, 16, 64):
        w = m * kd.h
        corr = beta_fn(b2 / 2, 1.0 - b2) * w ** (b2 - 1.0)
        domain = (kd.cells - m) * kd.h
        tail = domain ** (b2 - 1.0) / (1.0 - b2)
        assert kd.autocorr[m] == pytest.approx(corr - tail, rel=0.02)


# -- spec objects ----------------------------------------------------------------


def test_spec_alpha_relation():
    spec = HermiteKernelSpec(order=2, beta1=0.1, beta2=0.8, horizon=1.0)
    assert spec.alpha == pytest.approx(0.1 + (2 / 2) * (0.8 - 1) + 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        HermiteKernelSpec(order=2, beta1=0.0, beta2=0.4, horizon=1.0)  # beta2 too small
    with pytest.raises(ValueError):
        HermiteKernelSpec(order=1, beta1=0.5, beta2=0.9, horizon=1.0)  # alpha > 1


def test_hermite_constructor_consistency():
    # beta2 = 1 - 2(1-alpha)/n with beta1 = 0 reproduces alpha
    for n in (2, 3):
        for alpha in (0.6, 0.7, 0.9):
            spec = HermiteKernelSpec.hermite(n, alpha)
            assert spec.beta1 == 0.0
            assert spec.alpha == pytest.approx(alpha)


def test_fbm_constructor_consistency():
    for alpha in (0.3, 0.5, 0.75):
        spec = HermiteKernelSpec.fbm(alpha)
        assert spec.order == 1
        assert spec.alpha == pytest.approx(alpha)


def test_grid_validation():
    spec = HermiteKernelSpec.fbm(0.75)
    grid = GridSpec(left=2.0, cells=96, steps=16)
    h, time_cells = grid.validate(spec.horizon)
    assert h == pytest.approx(3.0 / 96)
    assert time_cells == 32
    with pytest.raises(ValueError):
        GridSpec(left=2.0, cells=97, steps=16).validate(1.0)  # horizon off-grid
    with pytest.raises(ValueError):
        GridSpec(left=2.0, cells=96, steps=5).validate(1.0)  # step not whole cells


def test_grid_build_budget():
    spec = HermiteKernelSpec.hermite(2, 0.7)
    grid = GridSpec.build(spec, steps=128, node_budget=10_000)
    assert grid.cells <= 10_000
    grid.validate(spec.horizon)


# -- discretization ---------------------------------------------------------------


def test_weights_zero_at_time_zero():
    _, _, kd = small_rosenblatt()
    assert np.all(kd.weights(0.0) == 0.0)


def test_increment_weights_are_differences():
    _, _, kd = small_rosenblatt()
    w = kd.increment_weights(0.25, 0.5)
    assert np.allclose(w, kd.weights(0.75) - kd.weights(0.25))
    with pytest.raises(ValueError):
        kd.increment_weights(0.9, 0.2)


def test_normalized_variance_is_one():
    spec, _, kd = small_rosenblatt()
    t_ref = min(1.0, spec.horizon)
    var = math.factorial(spec.order) * kd.norm_sq(kd.weights(t_ref), exact=True)
    assert var == pytest.approx(1.0, rel=1e-12)


def test_zero_scale_kernel():
    spec = HermiteKernelSpec.fbm(0.5, scale=0.0)
    grid = GridSpec(left=4.0, cells=80, steps=16)
    kd = KernelDiscretization(spec, grid)
    assert kd.increment_norm(0.0, 0.5) == 0.0


def test_dense_matches_exact_gram_norm():
    _, _, kd = small_rosenblatt(cells_per_unit=8, left=4.0)
    for t in (0.5, 1.0):
        w = kd.weights(t)
        dense = kd.dense_from_weights(w)
        assert kd.norm_sq(w, exact=True) == pytest.approx(inner(dense, dense), rel=1e-12)


def reference_exact_norm_sq(kd, w):
    """Exact ||A||^2 by the stationary Gram minus per-lag suffix sums of the
    envelope correlation (order >= 2), or by the full-length profile
    convolution (order 1); slow, kept as the reference of ``norm_sq``."""
    support = np.flatnonzero(np.abs(w) > 0)
    lo, hi = support[0], support[-1]
    env = kd.envelope
    if kd.spec.order == 1:
        profile = fftconvolve(w, env[::-1])[kd.cells - 1 :]
        return float(kd.h * np.sum(profile**2))
    total = 0.0
    for m in range(hi - lo + 1):
        u = np.arange(lo, hi + 1 - m)
        ww = w[u] * w[u + m]
        # gram(u, u+m) = autocorr[m] - h * sum_{i > u, i <= cells-1-m} env_i env_{i+m}
        i_hi = kd.cells - 1 - m
        if lo + 1 <= i_hi:
            seg = env[lo + 1 : i_hi + 1] * env[lo + 1 + m : i_hi + 1 + m]
            suffix = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
            tail = suffix[np.minimum(u - lo, seg.size)]
        else:
            tail = 0.0
        gram = kd.autocorr[m] - kd.h * tail
        total += (1.0 if m == 0 else 2.0) * float(np.sum(ww * gram**kd.spec.order))
    return total


@pytest.mark.parametrize(
    "spec, steps, left_units, times",
    [
        (HermiteKernelSpec.hermite(2, 0.7), 2**10, 30, (1.0, 0.5)),
        (HermiteKernelSpec.hermite(3, 0.7), 2**8, 20, (1.0, 0.5)),
        (HermiteKernelSpec(order=2, beta1=-0.1, beta2=0.8), 64, 20, (1.0, 0.5)),
        (HermiteKernelSpec(order=3, beta1=0.1, beta2=0.8), 64, 20, (1.0, 0.5)),
        (HermiteKernelSpec.fbm(0.75), 2**10, 30, (1.0, 0.5)),  # order 1, trimmed weights
        (HermiteKernelSpec.fbm(0.3), 2**10, 30, (1.0, 0.5)),  # order 1, weights from cell 0
    ],
    ids=["rosenblatt", "hermite3", "custom2-neg-beta1", "custom3-pos-beta1", "fbm-compact", "fbm-noncompact"],
)
def test_exact_norm_matches_suffix_sum_reference(spec, steps, left_units, times):
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=steps, left_units=left_units))
    for t in times:
        w = kd._raw_weights(t)
        assert (w[0] != 0) == (spec.beta1 != 0)
        assert kd.norm_sq(w, exact=True) == pytest.approx(reference_exact_norm_sq(kd, w), rel=1e-13)
    w = kd._raw_weights(0.75) - kd._raw_weights(0.25)
    assert kd.norm_sq(w, exact=True) == pytest.approx(reference_exact_norm_sq(kd, w), rel=1e-13)


@pytest.mark.parametrize(
    "spec, steps",
    [
        (HermiteKernelSpec.fbm(0.3), 2**10),
        (HermiteKernelSpec.fbm(0.5), 2**10),
        (HermiteKernelSpec(order=1, beta1=0.1, beta2=0.5), 2**10),
        (HermiteKernelSpec.fbm(0.3, horizon=0.5), 2**10),
        (HermiteKernelSpec.fbm(0.3, horizon=1.3), 13 * 2**6),  # t = 1 is cell 640
        (HermiteKernelSpec.fbm(0.3, horizon=1.5), 3 * 2**9),  # t = 1 is cell 1024
    ],
    ids=["fbm-0.3", "fbm-0.5", "custom1-pos-beta1", "T0.5", "T1.3", "T1.5"],
)
def test_order_one_response_scale_matches_exact_norm(spec, steps):
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=steps, left_units=30))
    var = kd.scale**-2
    assert "filter_response" in vars(kd)  # the scale took the response route
    exact = kd.norm_sq(kd._raw_weights(min(1.0, spec.horizon)), exact=True)
    assert var == pytest.approx(exact, rel=1e-13)


def test_off_edge_scale_takes_the_exact_norm():
    # T = 1.3 on 1024 steps: t = 1 falls inside a cell
    spec = HermiteKernelSpec.fbm(0.3, horizon=1.3)
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=2**10, left_units=30))
    scale = kd.scale
    assert "filter_response" not in vars(kd)
    assert scale == 1.0 / math.sqrt(kd.norm_sq(kd._raw_weights(1.0), exact=True))


def test_dense_vs_gram_contractions_two_path():
    # product-kernel reduction vs dense tensor contraction at order 2
    _, _, kd = small_rosenblatt()
    w1 = kd.increment_weights(0.0, 0.25)
    w2 = kd.increment_weights(0.5, 0.25)
    a = kd.dense_from_weights(w1)
    b = kd.dense_from_weights(w2)
    for j in (1, 2):
        dense_val = norm(contract(a, b, j)) ** 2
        gram_val = kd.contraction_norm_sq(w1, w2, j)
        assert gram_val == pytest.approx(dense_val, rel=0.01)


def test_contraction_consistency_edges():
    _, _, kd = small_rosenblatt()
    w1 = kd.increment_weights(0.0, 0.5)
    w2 = kd.increment_weights(0.25, 0.5)
    # j = n collapses to the squared pair inner product
    assert kd.contraction_norm_sq(w1, w2, 2) == pytest.approx(
        kd.pair_inner(w1, w2) ** 2, rel=1e-10
    )
    # j = 0 is the product of squared norms
    assert kd.contraction_norm_sq(w1, w2, 0) == pytest.approx(
        kd.norm_sq(w1) * kd.norm_sq(w2), rel=1e-10
    )


def test_self_similarity_of_increments():
    # beta1 = 0 family: ||A_{0,s}||^2 / s^(2 alpha) stable over dyadic s
    spec = HermiteKernelSpec.fbm(0.75)
    grid = GridSpec.build(spec, steps=1024, left_units=60)
    kd = KernelDiscretization(spec, grid)
    ratios = [
        kd.norm_sq(kd.increment_weights(0.0, s)) / s ** (2 * spec.alpha)
        for s in (0.25, 0.125, 0.0625)
    ]
    assert max(ratios) / min(ratios) - 1 < 0.02


def test_translation_covariance_on_grid_interior():
    spec, _, _ = small_rosenblatt()
    grid = GridSpec(left=30.0, cells=31 * 32, steps=32)
    kd = KernelDiscretization(spec, grid)
    w1 = kd.increment_weights(0.25, 0.25)
    w2 = kd.increment_weights(0.25 + kd.h, 0.25)
    # shifting x by one cell shifts the weight vector by one index
    assert np.allclose(w1[kd.left_cells :-1], w2[kd.left_cells + 1 :], atol=1e-12)


def test_filter_norm_bound_dyadic():
    # int int |k_s||k_s| K^n <= C s^(2 alpha) across dyadic s
    spec = HermiteKernelSpec.hermite(2, 0.7)
    grid = GridSpec(left=30.0, cells=31 * 64, steps=64)
    kd = KernelDiscretization(spec, grid)
    ratios = []
    for j in (1, 2, 3, 4):
        s = 2.0**-j
        w = np.abs(kd.increment_weights(0.0, s))
        ratios.append(kd.norm_sq(w) / s ** (2 * spec.alpha))
    assert max(ratios) / min(ratios) < 1.25


# -- coupling functional -----------------------------------------------------------


def test_coupling_symmetry():
    _, _, kd = small_rosenblatt()
    a = increment_coupling(kd, 0.25, 0.5, 0.125, 0.25)
    b = increment_coupling(kd, 0.5, 0.25, 0.25, 0.125)
    assert a == pytest.approx(b, rel=1e-10)


def test_coupling_order_one_formula():
    spec = HermiteKernelSpec.fbm(0.75)
    grid = GridSpec(left=6.0, cells=7 * 64, steps=64)
    kd = KernelDiscretization(spec, grid)
    s, t, x, y = 0.25, 0.125, 0.1, 0.4
    a = kd.increment_weights(x, s)
    b = kd.increment_weights(y, t)
    expected = s ** (-2 * spec.alpha) * t ** (-2 * spec.alpha) * kd.pair_inner(a, b) ** 2
    assert increment_coupling(kd, s, t, x, y) == pytest.approx(expected, rel=1e-10)


def test_coupling_integral_symmetric():
    _, _, kd = small_rosenblatt(cells_per_unit=64, left=8.0)
    f_st = coupling_integral(kd, 0.25, 0.125)
    f_ts = coupling_integral(kd, 0.125, 0.25)
    assert f_st == pytest.approx(f_ts, rel=1e-9)


def test_coupling_scaling_positive_eps_rosenblatt():
    _, _, kd = small_rosenblatt(cells_per_unit=256, left=20.0)
    fit = coupling_scaling_report(kd, levels=range(2, 7))
    assert fit.slope > 0


# -- condition reports ---------------------------------------------------------------


def test_upper_scaling_fbm_kappa_near_normalization():
    spec = HermiteKernelSpec.fbm(0.5)
    grid = GridSpec.build(spec, steps=512, left_units=40)
    kd = KernelDiscretization(spec, grid)
    rep = upper_scaling_report(kd, refined=kd.refined())
    # normalized process: s^-alpha ||A_{x,s}|| should hover near 1/sqrt(n!) = 1
    assert rep.passed
    assert rep.kappa == pytest.approx(1.0, rel=0.1)
    assert rep.refinement_drift < 0.05


def test_upper_scaling_flags_wrong_exponent():
    class LinearKernel:
        spec = HermiteKernelSpec.fbm(0.5)  # alpha attribute only used via argument

        def increment_norm(self, x, s):
            return s  # deterministic kernel t*h: alpha = 1 pathological

    lk = LinearKernel()
    lk.spec = HermiteKernelSpec.fbm(0.5)
    lk.grid = GridSpec(left=1.0, cells=256, steps=128)  # resolves levels 1..7
    rep = upper_scaling_report(lk, alpha=0.5, levels=range(1, 8))
    assert rep.diverging and not rep.passed


def test_lower_scaling_zero_kernel_fails():
    class ZeroKernel:
        spec = HermiteKernelSpec.fbm(0.5)
        h = 1.0 / 512
        per_step = 1
        time_cells = 512

        def increment_norm(self, x, s):
            return 0.0

    rep = lower_scaling_report(ZeroKernel())
    assert rep.kappa_prime == 0.0 and not rep.passed


def test_lower_scaling_fbm_positive():
    spec = HermiteKernelSpec.fbm(0.75)
    grid = GridSpec.build(spec, steps=512, left_units=40)
    kd = KernelDiscretization(spec, grid)
    rep = lower_scaling_report(kd)
    assert rep.passed and rep.kappa_prime > 0.5


# -- overlap integral -----------------------------------------------------------------


def test_overlap_symmetric():
    spec = HermiteKernelSpec.fbm(0.5)
    assert filter_overlap_integral(spec, 0.25, 0.5) == pytest.approx(
        filter_overlap_integral(spec, 0.5, 0.25), rel=1e-9
    )


def test_overlap_indicator_scaling():
    spec = HermiteKernelSpec.fbm(0.75)  # beta1 = 0
    ratios = [filter_overlap_integral(spec, s, s) / s**2 for s in (0.5, 0.25, 0.125)]
    assert max(ratios) / min(ratios) < 1.05


def test_overlap_negative_beta1_exponent():
    spec = HermiteKernelSpec(order=1, beta1=-0.1, beta2=0.9, horizon=1.0)
    report = overlap_scaling_report(spec, levels=range(1, 6))
    assert report["slope_per_variable"] >= 1.0 + spec.beta1 - 0.05


def test_tail_decay_exponent_and_truncation_report():
    spec = HermiteKernelSpec.fbm(0.3)
    assert tail_decay_exponent(spec) == pytest.approx(2 - 2 * 0.3)
    rep = truncation_report(spec, left_units=20.0, probe_cells=1024)
    assert 0 <= rep["relative_tail"] < 0.05
    spec2 = HermiteKernelSpec.hermite(2, 0.7)
    rep2 = truncation_report(spec2, left_units=30.0, probe_cells=1024)
    assert rep2["relative_tail"] < 0.5  # heavy tail, honestly reported


def test_fftconvolve_is_bitwise_scipy():
    rng = np.random.default_rng(8)
    sizes = [(1, 1), (1, 9), (9, 1), (2, 2), (600_000, 500_001)]
    sizes += [tuple(int(n) for n in rng.integers(1, 5000, 2)) for _ in range(40)]
    for na, nb in sizes:
        a, b = rng.standard_normal(na), rng.standard_normal(nb)
        # reversed views, as pair_inner, autocorr and norm_sq pass them
        for x, y in ((a, b), (a, b[::-1]), (a[::-1], b)):
            ours, ref = fftconvolve(x, y), scipy_fftconvolve(x, y)
            assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), (na, nb)


def test_coupling_levels_must_be_distinct():
    kd = KernelDiscretization(HermiteKernelSpec.fbm(0.75), GridSpec(left=4.0, cells=320, steps=64))
    with pytest.raises(ValueError, match="distinct"):
        coupling_scaling_report(kd, levels=[3, 3])
