import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.fft import rfft
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.signal import fftconvolve as scipy_fftconvolve
from scipy.special import beta as beta_fn

from chaoslab import kernels
from chaoslab.kernels import (
    GRID_CELL_BUDGET,
    CirculantField,
    EnvelopeField,
    GridSpec,
    HermiteKernelSpec,
    KernelDiscretization,
    _fast_len,
    _window_spectra,
    _windowed,
    continuum_norm_sq,
    coupling_integral,
    coupling_scaling_report,
    envelope_cell_averages,
    fftconvolve,
    fgn_autocorr,
    filter_cell_integrals,
    filter_overlap_integral,
    fractional_filter,
    increment_coupling,
    lower_scaling_report,
    overlap_scaling_report,
    truncation_report,
    upper_scaling_report,
)
from chaoslab.simulate import sample_paths
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
        assert kd.field.autocorr[m] == pytest.approx(corr - tail, rel=0.02)


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
    grid = GridSpec(left=2.0, cells=96, steps=32)
    assert grid.validate(spec.horizon) == pytest.approx(3.0 / 96)
    assert KernelDiscretization(spec, grid).time_cells == 32
    with pytest.raises(ValueError, match="96 cells .* 16 steps"):
        GridSpec(left=2.0, cells=96, steps=16).validate(1.0)  # two cells per step
    with pytest.raises(ValueError):
        GridSpec(left=2.0, cells=97, steps=32).validate(1.0)  # horizon off-grid
    with pytest.raises(ValueError):
        GridSpec(left=2.0, cells=96, steps=5).validate(1.0)  # step not whole cells


def test_grid_build_budget():
    # a deep left_units is cut to the budget; integer arithmetic, no discretization
    spec = HermiteKernelSpec.hermite(2, 0.7)
    grid = GridSpec.build(spec, steps=128, left_units=1e6)
    assert grid.cells == GRID_CELL_BUDGET
    assert grid.steps == 128
    assert grid.validate(spec.horizon) == pytest.approx(spec.horizon / 128)


@pytest.mark.parametrize(
    "spec, steps, left, cells",
    [
        (HermiteKernelSpec.fbm(0.3), 1024, 138.9501953125, 143_309),  # 1e3^(1/1.4) horizons
        (HermiteKernelSpec.hermite(2, 0.7), 1024, 300.0, 308_224),
        (HermiteKernelSpec.fbm(0.5), 2**14, 243.140625, GRID_CELL_BUDGET),  # cut to the budget
        (HermiteKernelSpec.hermite(3, 0.99), 16, 300.0, 4816),
        (HermiteKernelSpec.fbm(0.999), 16, 300.0, 4816),
    ],
    ids=["fbm-0.3", "rosenblatt", "budget", "hermite3-0.99", "fbm-0.999"],
)
def test_default_depth(spec, steps, left, cells):
    # 300 horizons for alpha >= 1/2, else min(1e3^(1/(2 - 2 alpha)), 300), cut to the cell budget;
    # near alpha = 1 the exponent 2 - 2 alpha is tiny and must not overflow the power
    grid = GridSpec.build(spec, steps=steps)
    assert (grid.left, grid.cells, grid.steps) == (left, cells, steps)


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
    var = math.factorial(spec.order) * kd.norm_sq(kd.weights(t_ref))
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
        assert kd.norm_sq(w) == pytest.approx(inner(dense, dense), rel=1e-12)


def reference_exact_norm_sq(kd, w):
    """Exact ||A||^2 by the stationary Gram minus per-lag suffix sums of the
    envelope correlation (order >= 2), or by the full-length profile
    convolution (order 1); slow, kept as the reference of ``norm_sq``."""
    support = np.flatnonzero(np.abs(w) > 0)
    lo, hi = support[0], support[-1]
    env = kd.field.envelope
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
        gram = kd.field.autocorr[m] - kd.h * tail
        total += (1.0 if m == 0 else 2.0) * float(np.sum(ww * gram**kd.spec.order))
    return total


@pytest.mark.parametrize(
    "spec, steps, left_units, times",
    [
        (HermiteKernelSpec.hermite(2, 0.7), 2**10, 30, (1.0, 0.5)),
        (HermiteKernelSpec.hermite(3, 0.7), 2**8, 20, (1.0, 0.5)),
        (HermiteKernelSpec.hermite(4, 0.7), 2**8, 20, (1.0, 0.5)),
        (HermiteKernelSpec(order=2, beta1=-0.1, beta2=0.8), 64, 20, (1.0, 0.5)),
        (HermiteKernelSpec(order=3, beta1=0.1, beta2=0.8), 64, 20, (1.0, 0.5)),
        (HermiteKernelSpec.fbm(0.75), 2**10, 30, (1.0, 0.5)),  # order 1, trimmed weights
        (HermiteKernelSpec.fbm(0.3), 2**10, 30, (1.0, 0.5)),  # order 1, weights from cell 0
    ],
    ids=["rosenblatt", "hermite3", "hermite4", "custom2-neg-beta1", "custom3-pos-beta1", "fbm-compact", "fbm-noncompact"],
)
def test_exact_norm_matches_suffix_sum_reference(spec, steps, left_units, times):
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=steps, left_units=left_units))
    for t in times:
        w = kd._raw_weights(t)
        assert (w[0] != 0) == (spec.beta1 != 0)
        assert kd.norm_sq(w) == pytest.approx(reference_exact_norm_sq(kd, w), rel=1e-13)
    w = kd._raw_weights(0.75) - kd._raw_weights(0.25)
    assert kd.norm_sq(w) == pytest.approx(reference_exact_norm_sq(kd, w), rel=1e-13)


@pytest.mark.parametrize(
    "spec, steps, left_units",
    [
        (HermiteKernelSpec.hermite(2, 0.7), 2**8, 30),
        # the edge at u = 0 rounds to +1.8e-15, so the cell left of it meets (0, t]
        (HermiteKernelSpec.hermite(2, 0.7, horizon=1.3), 100, 10),
        (HermiteKernelSpec.fbm(0.75), 2**8, 30),
        (HermiteKernelSpec.fbm(0.3), 2**8, 30),
        (HermiteKernelSpec(order=2, beta1=-0.1, beta2=0.8, horizon=1.3), 100, 10),
    ],
    ids=["rosenblatt", "rosenblatt-T1.3", "fbm-compact", "fbm-filter", "custom-filter-T1.3"],
)
def test_compact_weights_are_the_integrals_over_every_edge(spec, steps, left_units):
    # only the cells meeting (0, t] (beta1 = 0) or left of t (beta1 != 0) and
    # a margin cell on each side are computed, from their own edges: every
    # byte is still that of the integrals over every cell's edge, where a
    # zero integral reads +0.0 (0.0 / beta1 < 0 gives -0.0 there)
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=steps, left_units=left_units))
    edges = -kd.grid.left + kd.h * np.arange(kd.cells + 1)
    T, h = spec.horizon, kd.h
    for t in (0.0, h / 3, h, 2.5 * h, T / 2, T, 1.0):
        w = kd._raw_weights(t)
        assert w.tobytes() == (filter_cell_integrals(spec.beta1, t, edges) + 0.0).tobytes(), t
        assert not np.signbit(w[w == 0.0]).any(), t


def _held_arrays(*objs):
    """The distinct ndarrays (their bases) reachable from ``objs`` through
    attributes, containers and partials."""
    held, stack = {}, list(objs)
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            held[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, functools.partial):
            stack.extend((obj.args, obj.keywords))
        elif isinstance(obj, (KernelDiscretization, EnvelopeField)):
            stack.append(vars(obj))
    return list(held.values())


def test_order_two_discretization_holds_no_grid_sized_array():
    # after the scale and the path model, what kd keeps is the envelope, the
    # window spectra and arrays as long as the time cells: at 2^10 steps and
    # 300 horizons the grid is 301 times the time cells, so one more
    # grid-long array (cell edges, weights) breaks the bound
    spec = HermiteKernelSpec.hermite(2, 0.7)
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=2**10))
    kd.scale, kd.path_model
    envelope, spectra = kd.field.envelope, kd.field.window(kd.left_cells, kd.time_cells)[0][4]
    held = sum(a.nbytes for a in _held_arrays(kd))
    assert held <= envelope.nbytes + spectra.nbytes + 8 * 8 * kd.time_cells
    assert kd.cells == 301 * kd.time_cells


@pytest.mark.parametrize(
    "spec, steps",
    [
        (HermiteKernelSpec.fbm(0.3), 2**10),
        (HermiteKernelSpec.fbm(0.5), 2**10),
        (HermiteKernelSpec(order=1, beta1=0.1, beta2=0.5), 2**10),
        (HermiteKernelSpec.fbm(0.3, horizon=0.5), 2**10),
        (HermiteKernelSpec.fbm(0.3, horizon=1.3), 13 * 2**6),  # t = 1 is cell 640
        (HermiteKernelSpec.fbm(0.3, horizon=1.3), 2**10),  # t = 1 falls inside a cell
        (HermiteKernelSpec.fbm(0.3, horizon=1.5), 3 * 2**9),  # t = 1 is cell 1024
    ],
    ids=["fbm-0.3", "fbm-0.5", "custom1-pos-beta1", "T0.5", "T1.3", "T1.3-off-edge", "T1.5"],
)
def test_order_one_scale_is_the_closed_form(spec, steps):
    # the sampler draws exact fBm, whose variance at t = min(1, T) is the
    # continuum norm: an order-1 simulate builds no envelope field, filter
    # response or cell edges
    grid = GridSpec.build(spec, steps=steps, left_units=30)
    kd = KernelDiscretization(spec, grid)
    paths = sample_paths(spec, grid, 2, seed=3, kd=kd)
    assert kd.scale == 1.0 / math.sqrt(continuum_norm_sq(spec, min(1.0, spec.horizon)))
    assert not {"field", "filter_response", "edges"} & set(vars(kd))
    assert all(p.values[0] == 0.0 for p in paths)


def naive_fgn_autocorr(alpha, m):
    return 0.5 * (abs(m + 1) ** (2 * alpha) - 2 * abs(m) ** (2 * alpha) + abs(m - 1) ** (2 * alpha))


def test_fgn_autocorr_is_free_of_cancellation():
    # against the second difference at 60 digits, to 1e-13 relative; the
    # naive second difference in doubles misses the same bound
    lags = [0, 1, 2, 3, 5, 10, 100, 10**3, 10**4, 10**5, 10**6]
    naive_worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        for alpha in np.arange(1, 20) * 0.05:
            a2 = 2 * Decimal(float(alpha))
            got = fgn_autocorr(alpha, lags)
            for m, value in zip(lags, got):
                ref = ((m + 1) ** a2 - 2 * Decimal(m) ** a2 + abs(m - 1) ** a2) / 2 if m else Decimal(1)
                assert abs(Decimal(float(value)) - ref) <= Decimal("1e-13") * abs(ref), (alpha, m)
                if ref:
                    naive = Decimal(float(naive_fgn_autocorr(alpha, m)))
                    naive_worst = max(naive_worst, float(abs(naive - ref) / abs(ref)))
    assert naive_worst > 1e-13
    assert np.array_equal(fgn_autocorr(0.3, [-7, 7]), fgn_autocorr(0.3, [7, 7]))


@pytest.mark.parametrize("steps", [8, 13, 32])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.75, 0.95])
def test_circulant_embeds_fgn_and_fbm_variance_exactly(alpha, steps):
    # the embedding's first row is rho_alpha, and Var X_t / (scale^2
    # continuum_norm_sq(t)) = 1 at every grid time, computed from r alone
    spec = HermiteKernelSpec.fbm(alpha, horizon=1.3)
    kd = KernelDiscretization(spec, GridSpec.build(spec, steps=steps, left_units=2))
    r = fgn_autocorr(alpha, np.arange(steps + 1))
    field = CirculantField(fgn_autocorr(spec.alpha, np.arange(steps + 1)))  # spec.alpha may differ by an ulp
    assert np.max(np.abs(np.fft.irfft(field.root**2, 2 * steps)[: steps + 1] - r)) <= 1e-12
    rows = field.rows()  # Y = R xi, with Cov Y = Toeplitz(r_0 .. r_{steps-1})
    lag = np.abs(np.arange(steps)[:, None] - np.arange(steps))
    assert np.max(np.abs(rows @ rows.T - r[lag])) <= 1e-12
    xi = np.random.default_rng(steps).standard_normal(kd.path_normals)
    y, norms = kd.path_model.draw(xi)  # the paths draw this field, with unit norms
    assert y.tobytes() == field.draw(xi)[0].tobytes() and norms == 1.0
    assert np.max(np.abs(rows @ xi - y)) <= 1e-12 * np.max(np.abs(rows @ xi))
    dt = spec.horizon / steps
    for k in range(1, steps + 1):
        lag = np.arange(1 - k, k)
        var = kd.scale**2 * continuum_norm_sq(spec, dt) * np.sum((k - np.abs(lag)) * r[np.abs(lag)])
        assert var / (kd.scale**2 * continuum_norm_sq(spec, k * dt)) == pytest.approx(1.0, rel=1e-12, abs=0)


def test_circulant_eigenvalue_guard():
    # the row [1, 0.9, -0.9, 0.9] has the eigenvalue 1 - 2.7 < 0: refused, not clipped
    with pytest.raises(ValueError, match="positive semidefinite"):
        CirculantField([1.0, 0.9, -0.9])
    for alpha in (0.05, 0.3, 0.5, 0.75, 0.95):
        field = CirculantField(fgn_autocorr(alpha, np.arange(2**12 + 1)))
        assert field.root.min() > 0.0


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


@pytest.mark.parametrize("n", [2, 3])
def test_gram_forms_are_the_four_index_sums_over_a_stationary_row(n):
    # pair_inner and contraction_norm_sq against brute-force sums over
    # gram[u, v] = row[|u - v|], for a positive definite row put in place of
    # the envelope's: a_u b_v gram^n, and a_u a_w b_v b_x gram[u, v]^j
    # gram[w, x]^j gram[u, w]^(n-j) gram[v, x]^(n-j)
    spec = HermiteKernelSpec.hermite(n, 0.7, scale=1.0)
    kd = KernelDiscretization(spec, GridSpec(left=1.0, cells=32, steps=16))
    kd.field.autocorr = 0.3 * fgn_autocorr(0.7, np.arange(kd.cells))
    gram = kd.field.autocorr[np.abs(np.subtract.outer(np.arange(kd.cells), np.arange(kd.cells)))]
    rng = np.random.default_rng(11)
    supports = {"overlapping": ((2, 14), (8, 21)), "nested": ((0, 26), (5, 10)), "disjoint": ((0, 7), (15, 31))}
    for name, spans in supports.items():
        wa, wb = np.zeros(kd.cells), np.zeros(kd.cells)
        for w, (lo, hi) in zip((wa, wb), spans):
            w[lo:hi] = rng.uniform(0.5, 1.5, hi - lo)
        for a, b in ((wa, wb), (wb, wa)):
            inner_sum = np.einsum("u,v,uv->", a, b, gram**n)
            assert kd.pair_inner(a, b) == pytest.approx(inner_sum, rel=1e-12), name
            for j in range(n + 1):
                brute = np.einsum("u,w,v,x,uv,wx,uw,vx->", a, a, b, b, gram**j, gram**j, gram ** (n - j),
                                  gram ** (n - j))
                assert kd.contraction_norm_sq(a, b, j) == pytest.approx(brute, rel=1e-12), (name, j)


def test_contraction_consistency_edges():
    _, _, kd = small_rosenblatt()
    w1 = kd.increment_weights(0.0, 0.5)
    w2 = kd.increment_weights(0.25, 0.5)
    # j = n collapses to the squared pair inner product
    assert kd.contraction_norm_sq(w1, w2, 2) == pytest.approx(
        kd.pair_inner(w1, w2) ** 2, rel=1e-10
    )
    # j = 0 is the product of squared stationary norms
    assert kd.contraction_norm_sq(w1, w2, 0) == pytest.approx(
        kd.pair_inner(w1, w1) * kd.pair_inner(w2, w2), rel=1e-10
    )


def test_self_similarity_of_increments():
    # beta1 = 0 family: ||A_{0,s}||^2 / s^(2 alpha) stable over dyadic s
    spec = HermiteKernelSpec.fbm(0.75)
    grid = GridSpec.build(spec, steps=1024, left_units=60)
    kd = KernelDiscretization(spec, grid)
    ratios = []
    for s in (0.25, 0.125, 0.0625):
        w = kd.increment_weights(0.0, s)
        ratios.append(kd.pair_inner(w, w) / s ** (2 * spec.alpha))
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
        ratios.append(kd.pair_inner(w, w) / s ** (2 * spec.alpha))
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
        spec = HermiteKernelSpec.fbm(0.5)  # the sweep reads alpha = 0.5 from the spec

        def increment_norm(self, x, s):
            return s  # deterministic kernel t*h: alpha = 1 pathological

    lk = LinearKernel()
    lk.grid = GridSpec(left=1.0, cells=256, steps=128)  # resolves levels 1..7
    rep = upper_scaling_report(lk, levels=range(1, 8))
    assert rep.diverging and not rep.passed


def test_lower_scaling_zero_kernel_fails():
    class ZeroKernel:
        spec = HermiteKernelSpec.fbm(0.5)
        h = 1.0 / 512
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


def _truncation(spec, steps, left_units=None):
    return truncation_report(KernelDiscretization(spec, GridSpec.build(spec, steps=steps, left_units=left_units)))


def test_tail_decay_exponent_and_truncation_report():
    spec = HermiteKernelSpec.fbm(0.3)
    # the default depth is 1e3^(1/p) horizons for the tail decay exponent p = 2 - 2 alpha
    assert GridSpec.build(spec, steps=64).left == pytest.approx(1e3 ** (1 / (2 - 2 * 0.3)), rel=1e-3)
    rep = _truncation(spec, 64, 20.0)
    assert 0 <= rep["relative_tail"] < 0.05
    rep2 = _truncation(HermiteKernelSpec.hermite(2, 0.7), 64, 30.0)
    assert rep2["relative_tail"] < 0.5  # heavy tail, honestly reported


def _mandelbrot_van_ness_norm_sq(spec, t):
    """||A_t||^2 by a time-domain reduction, independent of the spectral one.

    |u - v|^g = int psi(u - x) psi(v - x) dx / B(d, -g) with psi = x_+^(d - 1),
    d = (g + 1) / 2, turns the filter into k ((t - x)_+^h - (-x)_+^h) with
    h = alpha - 1/2, whose squared L2 norm is
    t^(2 alpha) (int_0^inf ((1 + s)^h - s^h)^2 ds + 1 / (2 alpha)).
    """
    n, b1, b2, alpha = spec.order, spec.beta1, spec.beta2, spec.alpha
    g = n * (b2 - 1.0)
    h, d = alpha - 0.5, (g + 1.0) / 2.0
    k = 1.0 / d if b1 == 0.0 else beta_fn(b1 + 1.0, d) / b1

    def gap_sq(s):  # ((1 + s)^h - s^h)^2 without cancellation at large s; quad never asks s = 0
        return (s**h * math.expm1(h * math.log1p(1.0 / s))) ** 2

    near = quad(gap_sq, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    far = quad(lambda w: gap_sq(1.0 / w) / w**2, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return beta_fn(b2 / 2, 1 - b2) ** n / beta_fn(d, -g) * k**2 * t ** (2 * alpha) * (near + far + 0.5 / alpha)


@pytest.mark.parametrize(
    "order, beta1, beta2",
    [(1, -0.6, 0.5), (1, -0.2, 0.8), (1, 0.15, 0.5), (2, -0.1, 0.8), (2, 0.0, 0.7), (2, 0.1, 0.8),
     (3, 0.0, 0.8), (3, -0.2, 0.9), (1, 0.0, 0.5)],
)
def test_continuum_norm_matches_time_domain_quadrature(order, beta1, beta2):
    spec = HermiteKernelSpec(order=order, beta1=beta1, beta2=beta2)
    assert abs(spec.alpha - 0.5) > 0.1
    for t in (1.0, 0.3):
        assert continuum_norm_sq(spec, t) == pytest.approx(_mandelbrot_van_ness_norm_sq(spec, t), rel=1e-10)


def test_continuum_norm_at_beta1_zero():
    for spec in (HermiteKernelSpec.hermite(2, 0.7), HermiteKernelSpec.hermite(3, 0.6), HermiteKernelSpec.fbm(0.8)):
        a = spec.alpha
        ref = beta_fn(spec.beta2 / 2, 1 - spec.beta2) ** spec.order * 2 * 0.7 ** (2 * a) / ((2 * a - 1) * 2 * a)
        assert continuum_norm_sq(spec, 0.7) == pytest.approx(ref, rel=1e-13)


def test_brownian_grid_norm_is_the_continuum_norm():
    # fBm at alpha = 1/2 (beta1 = -0.4) has no truncation tail: every depth reads 1
    spec = HermiteKernelSpec.fbm(0.5)
    for left_units in (10, 40, 160):
        rep = _truncation(spec, 256, left_units)
        assert abs(rep["relative_tail"]) < 1e-4
        assert rep["continuum_norm_sq"] == continuum_norm_sq(spec, 1.0)


@pytest.mark.parametrize("spec", [HermiteKernelSpec.hermite(2, 0.7), HermiteKernelSpec.fbm(0.75)],
                         ids=["rosenblatt", "fbm-0.75"])
def test_truncation_tail_converges_at_the_envelope_rate(spec):
    # at beta1 = 0 the tail falls as (L/T)^-(1 - beta2): the ratio of successive
    # differences over L, 2L, 4L tends to 2^(1 - beta2) from below
    tails = [_truncation(spec, 64, L)["relative_tail"] for L in (5, 10, 20, 40, 80, 160)]
    ratios = [(a - b) / (b - c) for a, b, c in zip(tails, tails[1:], tails[2:])]
    limit = 2.0 ** (1.0 - spec.beta2)
    assert all(r1 < r2 < limit for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.95 * limit


def test_hermite_3_self_similarity_at_default_depth():
    # Var X_t / t^(2 alpha) at t = 2^-j on 1,024 steps and 300 horizons; the
    # truncated grid is not self-similar (a record for a sampler to improve on)
    rep = _truncation(HermiteKernelSpec.hermite(3, 0.7), 1024)
    assert rep["left_units"] == 300.0
    assert rep["relative_tail"] == pytest.approx(0.3678, abs=1e-3)
    expected = [1.0, 1.0515, 1.0944, 1.1277, 1.1506, 1.1616, 1.1587, 1.1397, 1.1021]
    assert list(rep["self_similarity"]) == list(range(9))
    assert list(rep["self_similarity"].values()) == pytest.approx(expected, abs=1e-3)


@pytest.mark.parametrize(
    "order, beta1, beta2, recorded",
    [(2, -0.1, 0.8, {(320, 1.0): 1.0134, (1344, 1.0): 1.0025}),
     (3, 0.1, 0.8, {(320, 1.0): 1.0316, (1344, 1.0): 1.0059, (320, 0.25): 1.0443})],
)
def test_truncation_reads_the_stationary_stand_in_at_beta1_nonzero(order, beta1, beta2, recorded):
    # at beta1 != 0 and order >= 2 `truncation` reads pair_inner(w, w), the
    # stationary Gram, not the sampled grid's exact norm_sq(w); the stand-in
    # lies above it by up to 4.4% on these shallow grids at 64 steps, and by
    # 0.02-0.05% at the default depth (19,264 cells, too slow here): a record
    # of the gap for the time-cell model to close
    spec = HermiteKernelSpec(order=order, beta1=beta1, beta2=beta2)
    for (cells, t), ratio in recorded.items():
        kd = KernelDiscretization(spec, GridSpec.build(spec, steps=64, left_units=cells // 64 - 1))
        assert kd.cells == cells
        w = kd._raw_weights(t)
        if t == 1.0:
            assert truncation_report(kd)["norm_sq"] == kd.pair_inner(w, w)
        assert kd.pair_inner(w, w) / kd.norm_sq(w) == pytest.approx(ratio, abs=2e-4), (cells, t)


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


def _window_cases(rng):
    """(first, width, x size, g size) of the windowed convolution tests."""
    cases = [
        (0, 9, 40, 40),  # one block
        (0, 1, 5, 5),
        (3, 8, 40, 40),  # first < width
        (45, 8, 60, 70),  # first not a multiple of width
        (48, 8, 60, 70),  # and a multiple
        (40, 8, 45, 100),  # x ends inside the window
        (40, 8, 30, 100),  # x ends before it
        (64, 8, 100, 20),  # g shorter than first + width
        (64, 16, 100, 5),  # g shorter than width
        (1000, 1, 1001, 1001),  # width 1: 251 blocks of 4 cells
        (200, 8, 300, 300),  # blocks of 33 cells, the leftmost partial
        (231, 8, 300, 300),  # a whole number of blocks
        (500, 9, 400, 700),  # x ends before the window, several blocks
        (300, 8, 250, 40),  # x cannot reach the window: exactly 0
        (900, 20, 1000, 150),  # g reaches back into the leftmost block only in part
    ]
    cases += [tuple(int(v) for v in rng.integers((0, 1, 1, 1), (300, 60, 400, 400))) for _ in range(200)]
    # first >= 4 width: blocks several windows wide
    cases += [tuple(int(v) for v in rng.integers((200, 1, 1, 1), (2000, 50, 2500, 2500))) for _ in range(100)]
    return cases


@pytest.mark.parametrize("chunk_points", [None, 64])
def test_windowed_matches_np_convolve(chunk_points, monkeypatch):
    # outputs first .. first + width - 1 of x (*) g; 64 points per chunk
    # splits the blocks into chunks of one to four
    if chunk_points is not None:
        monkeypatch.setattr("chaoslab.kernels.WINDOW_CHUNK_POINTS", chunk_points)
    rng = np.random.default_rng(21)
    for first, width, nx, ng in _window_cases(rng):
        x, g = rng.standard_normal(nx), rng.standard_normal(ng)
        full = np.concatenate((np.convolve(x, g), np.zeros(first + width)))
        ref = full[first : first + width]
        spectra = _window_spectra(g, first, width)
        out = _windowed(x, spectra)
        assert out.shape == (width,)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref), initial=0.0), (first, width, nx, ng)
        _, _, n, _, hats = spectra
        if first >= 4 * width:  # about 1.25 transform points per cell, not 2
            assert hats.shape[0] * n <= 1.5 * (first + width) + n, (first, width, nx, ng)
    # reversed views, as norm_sq passes env[lo::-1]
    x = rng.standard_normal(50)[::-1]
    out = _windowed(x[30::-1], _window_spectra(x, 30, 12))
    ref = np.convolve(x[30::-1], x)[30:42]
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def _padded_window_spectra(g, first, width):
    """``_window_spectra`` as it was built from one zero-padded copy of g as
    long as the blocks (kept as the reference of the chunked build)."""
    n = _fast_len(min(first + width, 4 * width) + width - 1)
    b = n - width + 1
    count = -(-min(first + width, g.size + width - 1) // b)
    padded = np.zeros((count - 1) * b + n)  # padded[p] = g[p - width + 1]
    reach = min(g.size, padded.size - width + 1)
    padded[width - 1 : width - 1 + reach] = g[:reach]
    segments = np.lib.stride_tricks.sliding_window_view(padded, n)[::b][::-1]
    step = max(1, kernels.WINDOW_CHUNK_POINTS // n)
    hats = np.empty((count, n // 2 + 1), dtype=complex)
    for i in range(0, count, step):
        hats[i : i + step] = rfft(segments[i : i + step], n)
    return n, max(0, first - g.size + 1), hats


@pytest.mark.parametrize("chunk_points", [None, 64])
def test_window_spectra_match_the_padded_build(chunk_points, monkeypatch):
    # each chunk copies its own span of g: the same bytes as transforming
    # views of one padded copy of g, over the windowed convolution's cases
    if chunk_points is not None:
        monkeypatch.setattr("chaoslab.kernels.WINDOW_CHUNK_POINTS", chunk_points)
    rng = np.random.default_rng(22)
    gs = [(first, width, rng.standard_normal(ng)) for first, width, _, ng in _window_cases(rng)]
    gs.append((30, 12, rng.standard_normal(50)[::-1]))  # a reversed view
    for first, width, g in gs:
        f, w, n, start, hats = _window_spectra(g, first, width)
        ref_n, ref_start, ref_hats = _padded_window_spectra(g, first, width)
        assert (f, w, n, start) == (first, width, ref_n, ref_start)
        assert hats.shape == ref_hats.shape and hats.tobytes() == ref_hats.tobytes(), (first, width, g.size)


@pytest.mark.parametrize("chunk_points", [None, 64])
def test_chunked_envelope_and_norms_are_the_one_shot_bytes(chunk_points, monkeypatch):
    # the envelope is elementwise and the norms' chunked cumsum carries its
    # total, so chunks change no bit: 200 cells at 64 a chunk, or 2^19 + 123
    # cells at the default chunk, cross at least two chunk boundaries
    count = 200 if chunk_points else 2 * kernels.WINDOW_CHUNK_POINTS + 123
    if chunk_points is not None:
        monkeypatch.setattr("chaoslab.kernels.WINDOW_CHUNK_POINTS", chunk_points)
    for beta2, h in ((0.7, 1.0 / 1024), (0.85, 0.37)):
        env = envelope_cell_averages(beta2, h, count)
        a, m = beta2 / 2.0, np.arange(count, dtype=float)
        hi, lo = np.maximum(m * h + h / 2.0, 0.0), np.maximum(m * h - h / 2.0, 0.0)
        assert env.tobytes() == ((hi**a - lo**a) / (a * h)).tobytes()
        field = EnvelopeField(beta2, h, count)
        for first, width in ((0, count), (count - 70, 70), (65, 3), (130, 1)):
            norms = field.window(first, width)[1]
            ref = np.sqrt(h * np.cumsum(env[: first + width] ** 2)[first:])
            assert norms.tobytes() == ref.tobytes(), (first, width)


def test_fast_len_is_scipy_next_fast_len():
    ns = list(range(1, 300_001))
    ns += np.random.default_rng(10).integers(1, 2 * 10**7, 20_000, endpoint=True).tolist()
    assert [_fast_len(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]
    n = _fast_len(np.int64(4097))  # norm_sq passes numpy integers
    assert type(n) is int and n == next_fast_len(4097, real=True)


def test_coupling_levels_must_be_distinct():
    kd = KernelDiscretization(HermiteKernelSpec.fbm(0.75), GridSpec(left=4.0, cells=320, steps=64))
    with pytest.raises(ValueError, match="distinct"):
        coupling_scaling_report(kd, levels=[3, 3])
