"""Fractionally filtered product kernels, discretized on uniform grids.

The kernel at time t maps n space arguments to the integral over u of a
fractional time filter times a product of singular envelopes phi(u - x_i).
Discretization replaces space by uniform cells on [-left, T] (one Gaussian
coordinate per cell, scaled by sqrt(spacing) so grid inner products
approximate L2 ones) and the u-integral by the matching cell tiling, with all
singular factors integrated analytically over cells.  The result is a
rank-one-sum tensor family: fixed per-cell envelope vectors with
time-dependent filter weights.

Everything downstream (condition checks, coupling functionals, simulation)
works off three reductions: grid autocorrelation of the envelope (Gram of the
envelope vectors), filter weight vectors per time, and windowed Gram algebra
for partial contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .tensors import MAX_DENSE_ENTRIES, SymTensor

__all__ = [
    "HermiteKernelSpec",
    "GridSpec",
    "KernelDiscretization",
    "fractional_filter",
    "filter_cell_integrals",
    "envelope_cell_averages",
    "increment_coupling",
    "coupling_integral",
    "coupling_scaling_report",
    "filter_overlap_integral",
    "overlap_scaling_report",
    "upper_scaling_report",
    "lower_scaling_report",
    "truncation_report",
]

CONTRACTION_WINDOW_CAP = 4096  # widest weight support (cells) of a middle contraction
COUPLING_RESOLUTION = 16  # coupling quadrature offsets per min(s, t)
COUPLING_MAX_OFFSETS = 257  # and at most in all
UPPER_X_COUNT = 17  # window positions x per level of the upper sweep
UPPER_TREND_TOL = 1.5  # coarsest/finest level sup ratio beyond which the sups trend
LOWER_X_COUNT = 33  # window positions x per level of the lower sweep
LOWER_MIN_KAPPA = 1e-6  # the lower constant must exceed this
LOWER_STABILITY_TOL = 0.25  # and change less than this (relative) between its levels
QUAD_CORE_CELLS = 256  # filter quadrature: linear cells on [-2s, s]
QUAD_TAIL_CELLS = 128  # log-spaced cells left of -2s
QUAD_TAIL_FACTOR = 1e4  # the tail reaches QUAD_TAIL_FACTOR^(1/(1 - beta1)) * s
EDGE_TOL = 1e-14  # t is the cell edge k h when |k h - t| <= EDGE_TOL * t


# -- FFT convolution -------------------------------------------------------------


def _spectrum(x, length):
    """(n, rfft of ``x`` at length n) for the shortest fast n >= ``length``."""
    n = next_fast_len(length, real=True)
    return n, rfft(x, n)


def _circular(x, spectrum):
    """Circular convolution of ``x`` with the filter whose (n, rfft) is given."""
    n, hat = spectrum
    out = rfft(x, n)
    out *= hat
    return irfft(out, n, overwrite_x=True)


def fftconvolve(a, b):
    """Full linear convolution of two 1-D float arrays, bitwise equal to
    ``scipy.signal.fftconvolve(a, b)``, which also multiplies directly when
    an operand has one entry."""
    if a.size == 1 or b.size == 1:
        return a * b
    length = a.size + b.size - 1
    return _circular(a, _spectrum(b, length))[:length]


# -- analytic ingredients -----------------------------------------------------


def fractional_filter(beta1, t, u):
    """Pointwise time filter: indicator of (0, t] at beta1 = 0, else the
    normalized difference of one-sided powers ((t-u)_+^b1 - (-u)_+^b1)/b1."""
    u = np.asarray(u, dtype=float)
    if beta1 == 0.0:
        return ((u > 0) & (u <= t)).astype(float)

    # one-sided power x_+^g: 0 for x <= 0 (also for negative g, where the
    # filter has integrable singularities as x -> 0+)
    def plus_pow(x):
        with np.errstate(divide="ignore"):
            return np.where(x > 0, np.maximum(x, 1e-300) ** beta1, 0.0)

    return (plus_pow(t - u) - plus_pow(-u)) / beta1


def filter_cell_integrals(beta1, t, edges):
    """Exact integrals of the time filter over cells given by ``edges``.

    The filter has integrable singularities at u = 0 and u = t for negative
    exponents; closed-form antiderivatives make the cell integrals exact.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    if beta1 == 0.0:
        return np.clip(np.minimum(b, t), 0.0, None) - np.clip(np.minimum(a, t), 0.0, None)
    g = beta1 + 1.0
    part_t = (np.maximum(t - a, 0.0) ** g - np.maximum(t - b, 0.0) ** g) / g
    part_0 = (np.maximum(-a, 0.0) ** g - np.maximum(-b, 0.0) ** g) / g
    return (part_t - part_0) / beta1


def envelope_cell_averages(beta2, spacing, count):
    """Cell averages of the envelope x_+^(beta2/2 - 1) at separations m*spacing.

    Entry m averages the envelope over [m*spacing - spacing/2,
    m*spacing + spacing/2); the m = 0 cell integrates through the
    singularity analytically, preserving the small-separation power law.
    """
    a = beta2 / 2.0
    m = np.arange(count, dtype=float)
    hi = np.maximum(m * spacing + spacing / 2.0, 0.0)
    lo = np.maximum(m * spacing - spacing / 2.0, 0.0)
    return (hi**a - lo**a) / (a * spacing)


# -- spec objects --------------------------------------------------------------


@dataclass(frozen=True)
class HermiteKernelSpec:
    """Parameters of a fractionally filtered product kernel.

    ``order`` is the chaos order n, ``beta1`` the filter exponent, ``beta2``
    the envelope correlation exponent, ``horizon`` the time horizon T, and
    ``scale`` the overall factor (None requests normalization to unit process
    variance at t = min(1, T); 0 gives the zero kernel).
    """

    order: int
    beta1: float
    beta2: float
    horizon: float = 1.0
    scale: float | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if not 1.0 - 1.0 / self.order < self.beta2 < 1.0:
            raise ValueError(
                f"beta2 = {self.beta2} outside (1 - 1/n, 1) = ({1 - 1/self.order}, 1)"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha = {self.alpha} outside (0, 1)")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def alpha(self):
        return self.beta1 + 0.5 * self.order * (self.beta2 - 1.0) + 1.0

    @classmethod
    def fbm(cls, alpha, beta2=None, horizon=1.0, scale=None):
        """Order-1 spec with the given increment-scaling exponent.

        For alpha > 0.55 the compact-support filter (beta1 = 0) is used;
        otherwise a negative filter exponent with a mildly singular envelope.
        """
        if beta2 is None:
            beta2 = 2.0 * alpha - 1.0 if alpha > 0.55 else 0.8
        beta1 = alpha - 0.5 * (beta2 + 1.0)
        if abs(beta1) < 1e-12:
            beta1 = 0.0
        return cls(order=1, beta1=beta1, beta2=beta2, horizon=horizon, scale=scale)

    @classmethod
    def hermite(cls, order, alpha, horizon=1.0, scale=None):
        """Order-n Hermite spec: compact filter, envelope tied to alpha."""
        if order < 2:
            raise ValueError("hermite() is for order >= 2; use fbm() for order 1")
        beta2 = 1.0 - 2.0 * (1.0 - alpha) / order
        return cls(order=order, beta1=0.0, beta2=beta2, horizon=horizon, scale=scale)

    def to_dict(self):
        return {
            "order": self.order,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "horizon": self.horizon,
            "scale": self.scale,
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization: space domain [-left, horizon] split into
    ``cells`` equal cells, time grid of ``steps`` steps on [0, horizon]."""

    left: float
    cells: int
    steps: int

    def __post_init__(self):
        if self.left <= 0 or self.cells < 2 or self.steps < 1:
            raise ValueError(f"invalid grid {self}")

    def spacing(self, horizon):
        return (self.left + horizon) / self.cells

    def validate(self, horizon):
        h = self.spacing(horizon)
        time_cells = round(horizon / h)
        if abs(time_cells * h - horizon) > 1e-9 * horizon:
            raise ValueError("horizon is not an integer number of cells")
        if time_cells % self.steps:
            raise ValueError(
                f"time step must be a whole number of cells ({time_cells} cells per horizon, {self.steps} steps)"
            )
        return h, time_cells

    @classmethod
    def build(cls, spec, steps, left_units=None, per_step=1, node_budget=4_000_000):
        """Grid with one u-cell per ``1/per_step`` time step and a left tail.

        ``left_units`` is the truncation depth in units of the horizon; when
        omitted a default is chosen from the kernel's tail decay (heavier
        tails get more, capped by the node budget).
        """
        if left_units is None:
            p = tail_decay_exponent(spec)
            # aim at ~1e-3 relative tail assuming an O(1) constant
            left_units = min(max(4.0, 1e3 ** (1.0 / p)), 300.0)
        time_cells = steps * per_step
        h = spec.horizon / time_cells
        left_cells = int(math.ceil(left_units * spec.horizon / h))
        left_cells = min(left_cells, max(node_budget - time_cells, time_cells))
        return cls(left=left_cells * h, cells=left_cells + time_cells, steps=steps)


def tail_decay_exponent(spec):
    """Decay exponent p of the relative left-tail mass ~ (L/T)^-p."""
    if spec.beta1 == 0.0:
        return 1.0 - spec.beta2
    return 2.0 - 2.0 * spec.alpha


# -- discretization ------------------------------------------------------------


class KernelDiscretization:
    """Shared envelope vectors plus per-time filter weights on one grid.

    The order-n kernel tensor at time t is sum_u w_u(t) phi_u^{(x)n} with
    phi_u the (fixed) envelope vector of u-cell u and w_u(t) the exact cell
    integral of the time filter times the overall scale.
    """

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        self.h, self.time_cells = grid.validate(spec.horizon)
        self.cells = grid.cells
        self.left_cells = self.cells - self.time_cells
        self.per_step = self.time_cells // grid.steps
        self.edges = -grid.left + self.h * np.arange(self.cells + 1)
        self.envelope = envelope_cell_averages(spec.beta2, self.h, self.cells)
        # ||phi_u||^2 = h * sum_{m<=u} envelope[m]^2
        self.envelope_norm_sq = self.h * np.cumsum(self.envelope**2)

    # weights -----------------------------------------------------------------

    @cached_property
    def scale(self):
        """1 / sqrt(n! ||A_t||^2) at t = min(1, T): unit process variance
        there, unless the spec fixes the scale.

        At order 1 with beta1 != 0 and t a cell edge t = k h (every T <= 1),
        X_t = sum_i xi_i (F[lam + k - i] - F[lam - i]) / beta1 for the
        folded response F = ``filter_response`` and lam = left_cells, with
        F[r] = 0 for r < 0; the variance is then an O(cells) sum over F,
        which the sampler's spectrum is built from.  Every other kernel and
        horizon takes the exact norm (``norm_sq``).
        """
        if self.spec.scale is not None:
            return float(self.spec.scale)
        t_ref = min(1.0, self.spec.horizon)
        k = round(t_ref / self.h)
        beta1 = self.spec.beta1
        if self.spec.order == 1 and beta1 != 0.0 and abs(k * self.h - t_ref) <= EDGE_TOL * t_ref:
            lam = self.left_cells
            response = self.filter_response
            # F[lam + k - i] for i < cells: the reversed slice stops at F[0],
            # so the terms with lam + k - i < 0 (T > 1) are left out, not wrapped
            diff = response[lam + k :: -1][: self.cells].copy()
            diff[: lam + 1] -= response[lam::-1]
            var = float(diff @ diff) / beta1**2
        else:
            var = math.factorial(self.spec.order) * self.norm_sq(self._raw_weights(t_ref), exact=True)
        if var <= 0:
            raise ValueError("cannot normalize a degenerate kernel")
        return 1.0 / math.sqrt(var)

    def _raw_weights(self, t):
        return filter_cell_integrals(self.spec.beta1, t, self.edges)

    def weights(self, t):
        """Filter weight vector of the kernel at time t (scale applied)."""
        if not 0.0 <= t <= self.spec.horizon + 1e-12:
            raise ValueError(f"t = {t} outside [0, {self.spec.horizon}]")
        return self.scale * self._raw_weights(t)

    def increment_weights(self, x, s):
        """Weights of the increment kernel between times x and x + s."""
        if s <= 0 or x < 0 or x + s > self.spec.horizon + 1e-12:
            raise ValueError(f"invalid increment window x = {x}, s = {s}")
        return self.scale * (self._raw_weights(x + s) - self._raw_weights(x))

    # Gram reductions ----------------------------------------------------------

    @cached_property
    def autocorr(self):
        """Stationary envelope Gram: entry m is h * sum_j env[j] env[j+m]."""
        return self.h * fftconvolve(self.envelope, self.envelope[::-1])[self.cells - 1 :]

    # path-sampling spectra ------------------------------------------------------

    @cached_property
    def envelope_spectrum(self):
        """(n, rfft of the envelope at length n) for the sampler's envelope
        convolution with one value per cell.

        The circular convolution equals the linear one on every u-cell a path
        reads: the cells in [0, T] at beta1 = 0 (n >= cells + time_cells - 1),
        all cells otherwise (n >= 2 cells - 1).
        """
        read = self.time_cells if self.spec.beta1 == 0.0 else self.cells
        return _spectrum(self.envelope, self.cells + read - 1)

    @cached_property
    def filter_response(self):
        """The cell vector of the sampler's filter convolution (beta1 != 0).

        Entry r is the integral of x_+^beta1 over [(r-1)h, rh],
        ((rh)^g - ((r-1)h)^g) / g with g = beta1 + 1, for r = 0..cells.
        Convolved with a cell vector, output left_cells + k is the vector's
        integral against (t - u)_+^beta1 at t = k h, and output left_cells
        the t-independent (-u)_+^beta1 half.  At order 1 the Hermite
        transform is the identity, so the envelope convolution (times
        sqrt(h)) is folded in and the vector is the cell Gaussians; the
        scale reads this folded response too, so it is built once, where
        the scale is.
        """
        g = self.spec.beta1 + 1.0
        filt = np.diff((np.arange(self.cells + 1) * self.h) ** g / g, prepend=0.0)
        if self.spec.order == 1:
            filt = math.sqrt(self.h) * fftconvolve(self.envelope, filt)[: self.cells + 1]
        return filt

    @cached_property
    def filter_spectrum(self):
        """(n, rfft of ``filter_response`` at length n).  At n >= cells +
        time_cells the outputs left_cells + k, k = 0..time_cells, are free
        of wrap-around."""
        return _spectrum(self.filter_response, self.cells + self.time_cells)

    def pair_inner(self, wa, wb):
        """<A, B> for two weight vectors, via the stationary Gram."""
        n = self.spec.order
        sa = np.flatnonzero(wa)
        sb = np.flatnonzero(wb)
        if sa.size == 0 or sb.size == 0:
            return 0.0
        a = wa[sa[0] : sa[-1] + 1]
        b = wb[sb[0] : sb[-1] + 1]
        cross = fftconvolve(a, b[::-1])
        offsets = sa[0] - sb[0] + np.arange(-(b.size - 1), a.size)
        return float(np.sum(cross * self.autocorr[np.abs(offsets)] ** n))

    def norm_sq(self, w, exact=False):
        """||A||^2 for a weight vector.

        The stationary Gram ignores that cells near the left edge see a
        shorter envelope; ``exact=True`` sums the exact Gram over the weight
        support [lo, hi] instead, with FFTs only as long as that support
        needs.  At order 1 the norm is h * sum_i profile_i^2, profile_i =
        sum_u w_u env[u - i], one convolution of the support with
        env[:hi + 1].  At order n >= 2 the exact Gram
        gram(u, u + m) = h * sum_{k <= u} env[k] env[k + m] is Q_m, the sum
        over k <= lo (one correlation of env[lo::-1] with env[:lo + span],
        wrap-free at length lo + span), plus a prefix sum over k in (lo, u]
        read inside the support; this needs a compact support.
        """
        if not exact:
            return self.pair_inner(w, w)
        support = np.flatnonzero(np.abs(w) > 0)
        if support.size == 0:
            return 0.0
        lo, hi = support[0], support[-1]
        span = hi - lo + 1
        ws = w[lo : hi + 1]
        env = self.envelope
        if self.spec.order == 1:
            profile = fftconvolve(ws, env[hi::-1])[span - 1 :]
            return float(self.h * np.sum(profile**2))
        if span > 65536:
            raise ValueError(f"exact norm: support span {span} too large")
        n = self.spec.order
        q = self.h * _circular(env[lo::-1], _spectrum(env[: lo + span], lo + span))[lo : lo + span]
        total = 0.0
        for m in range(span):
            seg = env[lo + 1 : hi + 1 - m] * env[lo + 1 + m : hi + 1]
            gram = q[m] + self.h * np.concatenate(([0.0], np.cumsum(seg)))
            factor = 1.0 if m == 0 else 2.0
            total += factor * float(np.sum(ws[: span - m] * ws[m:] * gram**n))
        return total

    def increment_norm(self, x, s):
        """||A_{x+s} - A_x|| via the stationary Gram."""
        return math.sqrt(max(self.norm_sq(self.increment_weights(x, s)), 0.0))

    def contraction_norm_sq(self, wa, wb, j):
        """||A (x)_j B||^2 for weight vectors wa, wb and 0 <= j <= n.

        The rank-one structure collapses the contraction to a four-index
        Gram sum; for 0 < j < n it is evaluated as two window matmuls, which
        requires compact weight supports.
        """
        n = self.spec.order
        if not 0 <= j <= n:
            raise ValueError(f"j = {j} outside 0..{n}")
        if j == 0:
            return self.norm_sq(wa) * self.norm_sq(wb)
        if j == n:
            return self.pair_inner(wa, wb) ** 2
        sa = np.flatnonzero(np.abs(wa) > 0)
        sb = np.flatnonzero(np.abs(wb) > 0)
        if sa.size == 0 or sb.size == 0:
            return 0.0
        ia = np.arange(sa[0], sa[-1] + 1)
        ib = np.arange(sb[0], sb[-1] + 1)
        if ia.size > CONTRACTION_WINDOW_CAP or ib.size > CONTRACTION_WINDOW_CAP:
            raise ValueError(
                f"middle contractions need compact filter support "
                f"(windows {ia.size} x {ib.size} exceed cap {CONTRACTION_WINDOW_CAP}); "
                f"only available for beta1 = 0 kernels at this resolution"
            )
        gram_ab = self.autocorr[np.abs(ia[:, None] - ib[None, :])]
        gram_aa = self.autocorr[np.abs(ia[:, None] - ia[None, :])]
        gram_bb = self.autocorr[np.abs(ib[:, None] - ib[None, :])]
        cross = wa[ia][:, None] * gram_ab**j * wb[ib][None, :]
        mixed = gram_aa ** (n - j) @ cross @ gram_bb ** (n - j)
        return float(np.sum(cross * mixed))

    # dense assembly -----------------------------------------------------------

    def dense_from_weights(self, w):
        """Dense order-n tensor over the cell grid (slow; cross-check path)."""
        n = self.spec.order
        if self.cells**n > MAX_DENSE_ENTRIES:
            raise ValueError(f"dense tensor would have {self.cells**n} entries (cap {MAX_DENSE_ENTRIES})")
        operands = [w] + [self.rank_one_vectors()] * n
        letters = "ijklmn"[:n]
        spec_str = "u," + ",".join("u" + c for c in letters) + "->" + letters
        return SymTensor(np.einsum(spec_str, *operands, optimize=True), dim=self.cells)

    def rank_one_vectors(self):
        """Envelope vectors as rows (small grids; feeds the Wick fast path)."""
        shift = np.zeros((self.cells, self.cells))
        for u in range(self.cells):
            shift[u, : u + 1] = self.envelope[u::-1]
        return shift * math.sqrt(self.h)

    def refined(self):
        """Same spec and domain, twice as many cells (same scale resolution
        convention, re-normalized on the finer grid)."""
        grid = GridSpec(left=self.grid.left, cells=self.grid.cells * 2, steps=self.grid.steps)
        return KernelDiscretization(self.spec, grid)


# -- coupling functionals ------------------------------------------------------


def increment_coupling(kd, s, t, x, y):
    """Weighted combination of increment contraction norms at (x, s), (y, t).

    The first piece is the squared norm of the single-slot contraction scaled
    by (st)^-2a; the remaining piece sums the j = 2..n contraction norms
    scaled by (st)^-a.  At order 1 only the first piece exists.
    """
    spec = kd.spec
    if x < 0 or y < 0 or s <= 0 or t <= 0 or x + s > spec.horizon + 1e-12 or y + t > spec.horizon + 1e-12:
        raise ValueError("increment windows must lie inside [0, horizon]")
    a = spec.alpha
    wa = kd.increment_weights(x, s)
    wb = kd.increment_weights(y, t)
    first = s ** (-2 * a) * t ** (-2 * a) * kd.contraction_norm_sq(wa, wb, 1)
    rest = 0.0
    for j in range(2, spec.order + 1):
        rest += math.sqrt(max(kd.contraction_norm_sq(wa, wb, j), 0.0))
    return first + s**-a * t**-a * rest


def coupling_integral(kd, s, t):
    """Double integral of the increment coupling over admissible (x, y).

    The discretized coupling depends on x and y only through x - y (the
    stationary Gram is translation invariant), so the double integral
    collapses to a single integral against the overlap length, sampled at
    about COUPLING_RESOLUTION offsets per min(s, t) and at most
    COUPLING_MAX_OFFSETS offsets in all.
    """
    T = kd.spec.horizon
    h = kd.h
    stride = max(1, round(min(s, t) / (COUPLING_RESOLUTION * h)))
    while (2 * T - s - t) / (stride * h) > COUPLING_MAX_OFFSETS - 1:
        stride *= 2
    step = stride * h
    # symmetric offset range so that swapping (s, t) mirrors the quadrature
    k_neg = math.floor((T - t) / step)
    k_pos = math.floor((T - s) / step)
    total = 0.0
    for k in range(-k_neg, k_pos + 1):
        delta = k * step
        x, y = (delta, 0.0) if delta >= 0 else (0.0, -delta)
        length = min(T - s, T - t + delta) - max(0.0, delta)
        if length <= 0:
            continue
        total += increment_coupling(kd, s, t, x, y) * length * step
    return total


@dataclass
class ScalingFitReport:
    """Log-log slope fit of a positive functional against dyadic scales."""

    levels: list
    scales: list
    values: list
    slope: float
    intercept: float


def _loglog_fit(scales, values):
    xs = np.log(np.asarray(scales))
    ys = np.log(np.asarray(values))
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def _resolved_levels(kd, levels, first, last, fewest, name):
    """Dyadic levels j, by default first..last cut at the finest level the time
    grid resolves; a level whose window T 2^-j is shorter than one time step
    is rejected, and fewer than ``fewest`` distinct levels are too."""
    steps = kd.grid.steps
    if levels is None:
        levels = range(first, min(last, int(steps).bit_length() - 1) + 1)
    levels = [int(j) for j in levels]
    unresolved = [j for j in levels if 2.0**j > steps]
    if unresolved:
        raise ValueError(f"{name} levels {unresolved}: window T*2^-j is shorter than one time step (T/{steps})")
    if len(set(levels)) < fewest:
        raise ValueError(f"{name} levels {levels}: need {fewest} distinct levels resolved by {steps} time step(s)")
    return levels


def coupling_scaling_report(kd, levels=None):
    """Fit F(s, s) ~ s^(2 eps) over dyadic s; eps > 0 supports the summability
    condition the regularity theorem needs.  Levels default to 2..6 (see
    ``_resolved_levels``); the fit needs two."""
    T = kd.spec.horizon
    levels = _resolved_levels(kd, levels, 2, 6, 2, "coupling")
    scales = [T * 2.0**-j for j in levels]
    values = [coupling_integral(kd, s, s) for s in scales]
    slope, intercept = _loglog_fit(scales, values)
    return ScalingFitReport(
        levels=levels, scales=scales, values=values, slope=slope, intercept=intercept
    )


# -- condition checks ----------------------------------------------------------


@dataclass
class UpperScalingReport:
    """Sweep of s^-alpha ||A_{x,s}|| over dyadic scales (upper bound check)."""

    kappa: float
    worst_x: float
    worst_s: float
    level_sups: dict
    refinement_drift: float | None
    diverging: bool
    passed: bool


def _scaling_sweep(increment_norm, alpha, T, levels, x_count):
    level_stats = {}
    for j in levels:
        s = T * 2.0**-j
        xs = np.linspace(0.0, T - s, x_count)
        vals = [increment_norm(x, s) * s**-alpha for x in xs]
        level_stats[j] = (max(vals), min(vals), xs[int(np.argmax(vals))], xs[int(np.argmin(vals))])
    return level_stats


def upper_scaling_report(kd, alpha=None, levels=None, refined=None, drift_tol=0.10):
    """Estimate the constant in ||A_{x,s}|| <= kappa s^alpha over a dyadic sweep.

    ``refined`` (a finer discretization of the same spec) measures grid
    sensitivity; a monotone blow-up or collapse of the per-level sups flags a
    mismatched exponent.  Levels default to 1..7, cut at the finest level
    the time grid resolves; levels whose window T 2^-j is shorter than one
    time step are rejected (``_resolved_levels``).
    """
    alpha = kd.spec.alpha if alpha is None else alpha
    T = kd.spec.horizon
    levels = _resolved_levels(kd, levels, 1, 7, 1, "upper scaling")
    stats = _scaling_sweep(kd.increment_norm, alpha, T, levels, UPPER_X_COUNT)
    sups = {j: v[0] for j, v in stats.items()}
    worst_j = max(sups, key=sups.get)
    kappa = sups[worst_j]
    js = sorted(sups)
    lo, hi = sups[js[0]], sups[js[-1]]
    if kappa <= 0:
        diverging = False
    else:
        ratio = hi / lo if lo > 0 else math.inf
        diverging = ratio > UPPER_TREND_TOL or ratio < 1.0 / UPPER_TREND_TOL
    drift = None
    if refined is not None:
        stats2 = _scaling_sweep(refined.increment_norm, alpha, T, levels, UPPER_X_COUNT)
        kappa2 = max(v[0] for v in stats2.values())
        drift = abs(kappa2 - kappa) / kappa if kappa > 0 else 0.0
    passed = math.isfinite(kappa) and not diverging and (drift is None or drift < drift_tol)
    return UpperScalingReport(
        kappa=kappa,
        worst_x=stats[worst_j][2],
        worst_s=T * 2.0**-worst_j,
        level_sups=sups,
        refinement_drift=drift,
        diverging=diverging,
        passed=passed,
    )


@dataclass
class LowerScalingReport:
    """Infimum of s^-alpha ||A_{x,s}|| at the finest resolvable scales."""

    kappa_prime: float
    level_infs: dict
    stability: float
    passed: bool


def lower_scaling_report(kd):
    """Estimate the lower scaling constant at the two finest dyadic scales."""
    T = kd.spec.horizon
    # finest dyadic level still containing a few u-cells
    j_max = int(math.floor(math.log2(kd.time_cells / 4))) if kd.time_cells >= 8 else 1
    stats = _scaling_sweep(kd.increment_norm, kd.spec.alpha, T, [j_max - 1, j_max], LOWER_X_COUNT)
    infs = {j: v[1] for j, v in stats.items()}
    vals = [infs[j] for j in sorted(infs)]
    kappa_prime = vals[-1]
    top = max(vals)
    stability = abs(vals[-1] - vals[0]) / top if top > 0 else 0.0
    passed = kappa_prime > LOWER_MIN_KAPPA and stability < LOWER_STABILITY_TOL
    return LowerScalingReport(
        kappa_prime=kappa_prime, level_infs=infs, stability=stability, passed=passed
    )


# -- filter overlap integral (coarse bookkeeping bound) -------------------------


def _filter_quad_edges(beta1, s):
    """u-cell edges for filter quadrature: linear core, log tail to the left.

    Edges include 0 and s so the filter keeps one sign per cell.
    """
    core = np.linspace(-2.0 * s, s, QUAD_CORE_CELLS + 1)
    core = np.unique(np.concatenate((core, [0.0, s])))
    if beta1 == 0.0:
        return core
    reach = QUAD_TAIL_FACTOR ** (1.0 / max(1.0 - beta1, 1e-9))
    tail = -s * np.geomspace(2.0, reach, QUAD_TAIL_CELLS + 1)[::-1]
    return np.concatenate((tail[:-1], core))


def filter_overlap_integral(spec, s, t):
    """Double integral of |filter_s| |filter_t| against the capped separation
    power |u - v|^(0 inside 1, n(beta2-1) outside)."""
    if s <= 0 or t <= 0:
        raise ValueError("s and t must be positive")
    exponent = spec.order * (spec.beta2 - 1.0)
    edges_u = _filter_quad_edges(spec.beta1, t)
    edges_v = _filter_quad_edges(spec.beta1, s)
    ku = np.abs(filter_cell_integrals(spec.beta1, t, edges_u))
    kv = np.abs(filter_cell_integrals(spec.beta1, s, edges_v))
    mid_u = 0.5 * (edges_u[:-1] + edges_u[1:])
    mid_v = 0.5 * (edges_v[:-1] + edges_v[1:])
    sep = np.abs(mid_u[:, None] - mid_v[None, :])
    weight = np.where(sep < 1.0, 1.0, np.maximum(sep, 1e-300) ** exponent)
    return float(ku @ weight @ kv)


def overlap_scaling_report(spec, levels=range(1, 7)):
    """Dyadic scaling of the overlap integral; the coarse bound predicts
    exponent 1 + min(beta1, 0) per variable (so twice that on the diagonal)."""
    T = spec.horizon
    levels = [int(j) for j in levels]
    scales = [T * 2.0**-j for j in levels]
    diag = [filter_overlap_integral(spec, s, s) for s in scales]
    slope_diag, intercept = _loglog_fit(scales, diag)
    t0 = T / 2.0
    col = [filter_overlap_integral(spec, s, t0) for s in scales]
    slope_s, _ = _loglog_fit(scales, col)
    return {
        "diagonal": ScalingFitReport(
            levels=levels, scales=scales, values=diag, slope=slope_diag, intercept=intercept
        ),
        "slope_per_variable": float(slope_s),
        "predicted_per_variable": 1.0 + min(spec.beta1, 0.0),
    }


# -- truncation bookkeeping ------------------------------------------------------


def truncation_report(spec, left_units, probe_cells=2048):
    """Estimated relative left-tail mass of ||A_t||^2 lost to truncation at
    t = min(1, T), the time the scale normalizes.

    Measures the norm gain from doubling the domain on a coarse probe grid
    and extrapolates the geometric tail with the kernel's decay exponent.
    """
    t_ref = min(1.0, spec.horizon)
    p = tail_decay_exponent(spec)
    probe = replace(spec, scale=1.0)

    def norm_at(lu):
        cells_per_T = max(64, int(probe_cells / (lu + 1)))
        grid = GridSpec.build(probe, steps=cells_per_T, left_units=lu, node_budget=10_000_000)
        kd = KernelDiscretization(probe, grid)
        return kd.norm_sq(kd.weights(t_ref), exact=(probe.beta1 == 0.0 or probe.order == 1))

    n1 = norm_at(left_units)
    n2 = norm_at(2.0 * left_units)
    gain = max(n2 - n1, 0.0)
    tail = gain / (1.0 - 2.0**-p) / n2 if n2 > 0 else 0.0
    return {
        "left_units": float(left_units),
        "decay_exponent": p,
        "norm_sq": n1,
        "norm_sq_doubled": n2,
        "relative_tail": tail,
    }
