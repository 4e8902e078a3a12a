"""Fractionally filtered product kernels, discretized on uniform grids.

The kernel at time t maps n space arguments to the integral over u of a
fractional time filter times a product of singular envelopes phi(u - x_i).
Discretization replaces space by uniform cells on [-left, T] (one Gaussian
coordinate per cell, scaled by sqrt(spacing) so grid inner products
approximate L2 ones) and the u-integral by the matching cell tiling, with all
singular factors integrated analytically over cells.  The result is a
rank-one-sum tensor family: fixed per-cell envelope vectors with
time-dependent filter weights.

Everything downstream (condition checks, coupling functionals, simulation at
order >= 2) works off the Gaussian field of the envelope vectors
(``EnvelopeField``: its draws, its Grams and the windows they read) and filter
weight vectors per time; ``KernelDiscretization.path_model`` says how the
sampler draws each order (exact fBm at order 1, by ``CirculantField``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.fft import irfft, rfft

from .tensors import MAX_DENSE_ENTRIES, SymTensor

__all__ = [
    "HermiteKernelSpec",
    "GridSpec",
    "KernelDiscretization",
    "EnvelopeField",
    "CirculantField",
    "fgn_autocorr",
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
    "continuum_norm_sq",
    "truncation_report",
]

CONTRACTION_WINDOW_CAP = 4096  # widest weight support (cells) of a middle contraction
EXACT_SPAN_CAP = 65536  # widest weight support (cells) of an exact norm at order >= 2
COUPLING_RESOLUTION = 16  # coupling quadrature offsets per min(s, t)
COUPLING_MAX_OFFSETS = 257  # and at most in all
UPPER_X_COUNT = 17  # window positions x per level of the upper sweep
UPPER_TREND_TOL = 1.5  # coarsest/finest level sup ratio beyond which the sups trend
UPPER_DRIFT_TOL = 0.10  # the upper constant must change less than this (relative) under refinement
LOWER_X_COUNT = 33  # window positions x per level of the lower sweep
LOWER_MIN_KAPPA = 1e-6  # the lower constant must exceed this
LOWER_STABILITY_TOL = 0.25  # and change less than this (relative) between its levels
QUAD_CORE_CELLS = 256  # filter quadrature: linear cells on [-2s, s]
QUAD_TAIL_CELLS = 128  # log-spaced cells left of -2s
QUAD_TAIL_FACTOR = 1e4  # the tail reaches QUAD_TAIL_FACTOR^(1/(1 - beta1)) * s
FGN_SERIES_TERMS = 40  # binomial-series terms of the fGn autocorrelation at lags >= 2
GRID_CELL_BUDGET = 4_000_000  # most cells GridSpec.build puts on a grid
WINDOW_CHUNK_POINTS = 1 << 18  # points per chunk: a windowed convolution's transform points, or cells of a grid-long computation


# -- FFT convolution -------------------------------------------------------------


def _fast_len(n):
    """The smallest 2^a 3^b 5^c >= n, a length pocketfft transforms fast."""
    n = int(n)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two >= n / p35
            m = p35 << ((n - 1) // p35).bit_length()
            if m < best:
                best = m
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve(a, b):
    """Full linear convolution of two 1-D float arrays, bitwise equal to
    ``scipy.signal.fftconvolve(a, b)``, which also multiplies directly when
    an operand has one entry."""
    if a.size == 1 or b.size == 1:
        return a * b
    length = a.size + b.size - 1
    n = _fast_len(length)
    out = rfft(a, n)
    out *= rfft(b, n)
    return irfft(out, n)[:length]


def _window_spectra(g, first, width):
    """(first, width, n, start, block spectra) for outputs first .. first +
    width - 1 of x (*) g, by overlap-save with blocks about four windows wide.

    x is cut into blocks of b = n - width + 1 cells ending at first + width,
    n = _fast_len(min(first + width, 4 width) + width - 1), so a window
    costs about (1 + width / b) transform points per cell read.  Block j,
    counted leftwards from 0, meets only g[j b - width + 1 : (j + 1) b]
    (zero outside g), whose rfft at n the spectra hold per block, in the
    blocks' order in x: a block's circular product is then wrap-free at
    [b - 1, n), where the window is read.  Blocks left of x[0] or meeting
    only zeros of g are left out, and so are the entries of x below
    ``start`` = max(0, first - g.size + 1), which meet only zeros of g, so a
    window that x cannot reach reads exactly 0.  The blocks are transformed
    about WINDOW_CHUNK_POINTS points at a time, each chunk from a copy of its
    own span of g, so nothing longer than a chunk is built beside the spectra.
    """
    n = _fast_len(min(first + width, 4 * width) + width - 1)
    b = n - width + 1
    count = -(-min(first + width, g.size + width - 1) // b)
    step = max(1, WINDOW_CHUNK_POINTS // n)
    hats = np.empty((count, n // 2 + 1), dtype=complex)
    for i in range(0, count, step):
        k = min(step, count - i)
        # blocks i .. i + k - 1 read g[o : o + span], zero outside g
        o, span = (count - i - k) * b - width + 1, (k - 1) * b + n
        lo, hi = max(o, 0), min(o + span, g.size)
        buf = np.zeros(span)
        buf[lo - o : hi - o] = g[lo:hi]
        hats[i : i + k] = rfft(np.lib.stride_tricks.sliding_window_view(buf, n)[::b][::-1], n)
    return first, width, n, max(0, first - g.size + 1), hats


def _windowed(x, spectra):
    """Outputs first .. first + width - 1 of the linear convolution x (*) g,
    for ``spectra`` = ``_window_spectra(g, first, width)``: the block spectra
    of x times those of g, summed, then one inverse transform."""
    first, width, n, start, hats = spectra
    count = hats.shape[0]
    b = n - width + 1
    lo = first + width - count * b  # x index where the leftmost block starts
    step = max(1, WINDOW_CHUNK_POINTS // n)
    total = np.zeros(n // 2 + 1, dtype=complex)
    for i in range(0, count, step):
        k = min(step, count - i)
        a, e = lo + i * b, lo + (i + k) * b
        s = min(max(a, start), e)
        seg = x[s : max(min(e, x.size), s)]
        if seg.size < k * b:  # the chunk starts left of start, or x ends inside it
            seg = np.concatenate((np.zeros(s - a), seg, np.zeros(e - s - seg.size)))
        part = rfft(seg.reshape(k, b), n)
        part *= hats[i : i + k]
        total += part.sum(axis=0)
    return irfft(total, n)[b - 1 :]


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
    out = np.empty(count)
    for start in range(0, count, WINDOW_CHUNK_POINTS):  # elementwise, so chunks change no float
        m = np.arange(start, min(start + WINDOW_CHUNK_POINTS, count), dtype=float)
        hi = np.maximum(m * spacing + spacing / 2.0, 0.0)
        lo = np.maximum(m * spacing - spacing / 2.0, 0.0)
        out[start : start + m.size] = (hi**a - lo**a) / (a * spacing)
    return out


def fgn_autocorr(alpha, lags):
    """rho(m) = (|m + 1|^(2 alpha) - 2 |m|^(2 alpha) + |m - 1|^(2 alpha)) / 2 at
    the integer ``lags`` m: the autocorrelation of unit fractional Gaussian noise.

    The second difference cancels all but about m^(2 alpha - 2) of m^(2 alpha)
    (2e-4 relative lost at m = 10^6), so it is never formed: rho(1) is
    2^(2 alpha - 1) - 1 by expm1, and for |m| >= 2 rho(m) is the binomial
    series |m|^(2 alpha) sum_{k >= 1} C(2 alpha, 2k) m^(-2k), whose terms share
    one sign and shrink by at least 4 per term, summed to FGN_SERIES_TERMS terms.
    """
    a = 2.0 * alpha
    j = np.arange(1.0, 2 * FGN_SERIES_TERMS + 1)
    coef = np.cumprod((a - j + 1) / j)[1::2]  # C(a, 2k), k = 1 .. FGN_SERIES_TERMS
    m = np.abs(np.asarray(lags, dtype=float))
    far = np.maximum(m, 2.0)
    y = far**-2.0
    series = np.zeros_like(y)
    for c in reversed(coef):  # Horner in m^-2
        series = (series + c) * y
    return np.select([m == 0, m == 1], [1.0, math.expm1((a - 1.0) * math.log(2.0))], far**a * series)


def _support(w):
    """(lo, w[lo : hi + 1]) for the first and last nonzero entries lo, hi of a
    weight vector, or None if it has none."""
    nonzero = np.flatnonzero(w)
    return (nonzero[0], w[nonzero[0] : nonzero[-1] + 1]) if nonzero.size else None


def _check_span(span, remedy=""):
    """Refuse an exact norm at order >= 2 over more than EXACT_SPAN_CAP cells."""
    if span > EXACT_SPAN_CAP:
        raise ValueError(f"exact norm: support span {span} exceeds the cap of {EXACT_SPAN_CAP} cells{remedy}")


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
        return dict(vars(self), alpha=self.alpha)


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization: space domain [-left, horizon] split into
    ``cells`` equal cells, of which the last ``steps`` are the time steps on
    [0, horizon], one u-cell per step."""

    left: float
    cells: int
    steps: int

    def __post_init__(self):
        if self.left <= 0 or self.cells < 2 or self.steps < 1:
            raise ValueError(f"invalid grid {self}")

    def validate(self, horizon):
        """The cell width h, once steps h = horizon to 1e-9: one cell per time step."""
        h = (self.left + horizon) / self.cells
        if abs(self.steps * h - horizon) > 1e-9 * horizon:
            raise ValueError(f"a time step must be one cell: {self.cells} cells on [-{self.left}, {horizon}] "
                             f"give {horizon / h:.6g} cells per horizon, for {self.steps} steps")
        return h

    @classmethod
    def build(cls, spec, steps, left_units=None):
        """Grid with one u-cell per time step and a left tail of ``left_units``
        horizons, cut to GRID_CELL_BUDGET cells.

        The default depth is 300 horizons for alpha >= 1/2 and
        min(1e3^(1/(2 - 2 alpha)), 300) below: the left tail's relative mass
        falls as (L/T)^-(2 - 2 alpha) in the depth L.
        """
        if left_units is None:
            # every beta1 = 0 kernel has alpha > 1/2 and gets 300, where order >= 2 keeps
            # a large tail (truncation_report): 0.12 of ||A_1||^2 for Rosenblatt at
            # alpha = 0.7 (0.2 at 30 horizons), 0.37 for Hermite n = 3
            left_units = min(1e3 ** (1.0 / max(2.0 - 2.0 * spec.alpha, 1.0)), 300.0)
        h = spec.horizon / steps
        left_cells = int(math.ceil(left_units * spec.horizon / h))
        left_cells = min(left_cells, max(GRID_CELL_BUDGET - steps, steps))
        return cls(left=left_cells * h, cells=left_cells + steps, steps=steps)


# -- discretization ------------------------------------------------------------


class EnvelopeField:
    """The Gaussian field z_u = <phi_u, xi>, phi_u = sqrt(h) env[u - i] on the
    cells i <= u, of one grid: its norms ||phi_u||, its Grams and its windows.

    Paths at order >= 2 and exact norms read the field on a window of
    u-cells: the sampler on the u-cells in [0, T] at beta1 = 0, which the
    compact filter's cumulative sum reads (as does the exact scale at t = T),
    and on every u-cell otherwise (as does the exact scale at T <= 1).  A
    window holds the overlap-save spectra of xi (*) env there
    (``_window_spectra``) and the norms.  Only the last window built is kept:
    the scale and the sampler share it, and a sweep of supports holds one.
    """

    def __init__(self, beta2, h, cells):
        self.h = h
        self.cells = cells
        self.envelope = envelope_cell_averages(beta2, h, cells)
        self._window = ((None, None), None)

    @cached_property
    def autocorr(self):
        """Stationary Gram: entry m is h * sum_j env[j] env[j+m]."""
        return self.h * fftconvolve(self.envelope, self.envelope[::-1])[self.cells - 1 :]

    def window(self, first, width):
        """(spectra, ||phi_u||) for the u-cells first .. first + width - 1,
        where ||phi_u||^2 = h * sum_{m<=u} env[m]^2.

        The sums run over WINDOW_CHUNK_POINTS cells at a time, each chunk's
        cumsum started from the total so far, which adds in np.cumsum's order
        over the whole prefix: the same bits, with only the width kept.
        """
        if self._window[0][:2] != (first, width):
            sums = np.empty(width)
            total = 0.0
            for a in range(0, first + width, WINDOW_CHUNK_POINTS):
                part = self.envelope[a : min(a + WINDOW_CHUNK_POINTS, first + width)] ** 2
                part[0] += total
                np.cumsum(part, out=part)
                total, end = part[-1], a + part.size
                if end > first:
                    sums[max(a - first, 0) : end - first] = part[max(first - a, 0) :]
            self._window = (_window_spectra(self.envelope, first, width), np.sqrt(self.h * sums))
        return self._window

    def draw(self, xi, window):
        """(z_u, ||phi_u||) on the u-cells of ``window``."""
        spectra, norms = window
        return math.sqrt(self.h) * _windowed(xi, spectra), norms

    def gram_rows(self, lo, hi):
        """Rows gram(u, u + m) = <phi_u, phi_{u+m}>, m = 0 .. hi - u, for u = lo .. hi.

        Row lo is Q_m = h * sum_{k <= lo} env[k] env[k + m], output lo + m of
        env[lo::-1] (*) env, the window (lo, hi - lo + 1); row u + 1 is row u
        without its last lag plus h env[u + 1] env[u + 1 + m], added in place,
        so each row yielded is overwritten by the next.
        """
        spectra, _ = self.window(lo, hi - lo + 1)
        row = self.h * _windowed(self.envelope[lo::-1], spectra)
        for u in range(lo, hi + 1):
            if u > lo:
                row = row[:-1]
                row += (self.h * self.envelope[u]) * self.envelope[u : hi + 1]
            yield row

    def rows(self):
        """The vectors phi_u as the rows of a dense R, so z = R xi (small grids)."""
        u = np.arange(self.cells)
        return math.sqrt(self.h) * np.tril(self.envelope[np.abs(u[:, None] - u)])


class CirculantField:
    """A stationary Gaussian sequence Y_0 .. Y_{N-1} with autocorrelation
    r = (r_0 .. r_N), drawn exactly by circulant embedding (Davies & Harte,
    Biometrika 74, 1987; Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1997).

    The circulant of first row [r_0 .. r_N, r_{N-1} .. r_1], of size M = 2N,
    has the eigenvalues lam = rfft of that row.  For xi of M standard
    normals, Y = irfft(sqrt(lam) rfft(xi))[:N] has covariance Toeplitz(r_0 ..
    r_{N-1}).  A negative eigenvalue means r has no such embedding: it raises,
    and no eigenvalue is ever clipped.
    """

    def __init__(self, r):
        r = np.asarray(r, dtype=float)
        self.size = r.size - 1
        self.normals = 2 * self.size  # Gaussians a draw reads
        lam = rfft(np.concatenate((r, r[-2:0:-1]))).real
        if lam.min() < 0.0:
            raise ValueError(f"circulant embedding is not positive semidefinite: eigenvalue {lam.min():.3g}")
        self.root = np.sqrt(lam)

    def draw(self, xi):
        """(Y, unit norms) for ``normals`` standard normals xi, as ``EnvelopeField.draw``."""
        return irfft(self.root * rfft(xi), self.normals)[: self.size], 1.0

    def rows(self):
        """The dense R, N x M, with Y = R xi (small grids)."""
        kernel = irfft(self.root, self.normals)
        lag = np.arange(self.size)[:, None] - np.arange(self.normals)
        return kernel[lag % self.normals]


PathModel = namedtuple("PathModel", "normals draw filter reads")


def _partial_sums(b):
    """[0, cumsum(b)]: a compact filter's outputs at the time cells."""
    return np.concatenate(([0.0], np.cumsum(b)))


def _from_start(b, spectra):
    """values[0] - values of b's windowed filter convolution: +0.0 (not -0.0) at 0 for beta1 < 0."""
    values = _windowed(b, spectra)
    return values[0] - values


class KernelDiscretization:
    """Shared envelope vectors plus per-time filter weights on one grid.

    The order-n kernel tensor at time t is sum_u w_u(t) phi_u^{(x)n} with
    phi_u the (fixed) envelope vector of u-cell u and w_u(t) the exact cell
    integral of the time filter times the overall scale.
    """

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        self.h = grid.validate(spec.horizon)
        self.cells = grid.cells
        self.time_cells = grid.steps
        self.left_cells = self.cells - self.time_cells
        self.t_ref = min(1.0, spec.horizon)  # where the scale normalizes

    @cached_property
    def field(self):
        """The envelope vectors' Gaussian field (``EnvelopeField``)."""
        return EnvelopeField(self.spec.beta2, self.h, self.cells)

    # weights -----------------------------------------------------------------

    @cached_property
    def scale(self):
        """1 / sqrt(n! ||A_t||^2) at t = t_ref = min(1, T): unit process variance
        there, unless the spec fixes the scale.

        At order 1 ||A_t||^2 is ``continuum_norm_sq``, the variance of the
        exact fBm that the sampler draws; at order >= 2 it is the exact grid
        norm (``norm_sq``), after ``check_scale``.
        """
        if self.spec.scale is not None:
            return float(self.spec.scale)
        if self.spec.order == 1:
            return 1.0 / math.sqrt(continuum_norm_sq(self.spec, self.t_ref))
        self.check_scale()
        var = math.factorial(self.spec.order) * self.norm_sq(self._raw_weights(self.t_ref))
        if var <= 0:
            raise ValueError("cannot normalize a degenerate kernel")
        return 1.0 / math.sqrt(var)

    def check_scale(self):
        """Refuse what ``scale`` refuses before its exact norm sums anything:
        weights at t_ref with no support (a degenerate kernel) or
        with a support past EXACT_SPAN_CAP cells.  At beta1 = 0 that support
        is the time cells, and no depth helps."""
        spec = self.spec
        if spec.scale is not None or spec.order == 1:
            return
        support = _support(self._cell_integrals(self.t_ref)[1])
        if support is None:
            raise ValueError("cannot normalize a degenerate kernel")
        fewer = "fewer grid.steps" if spec.beta1 == 0.0 else "a smaller grid.left_units"
        _check_span(support[1].size, f"; use {fewer}, or give kernel.scale to skip the norm")

    def _cell_integrals(self, t):
        """(lo, v): the filter's cell integrals at time t, at scale 1, are v
        on u-cells lo .. lo + v.size - 1 and +0.0 on every other cell.

        The edges are -left + h k, built for those cells only: the cells
        meeting (0, t] at beta1 = 0, every cell left of t otherwise, up to
        u-cell left_cells + ceil(t / h) - 1, and one more on each side against
        rounding in the edges.  On every other cell the filter is 0.  A zero
        integral is +0.0 in v too, where 0.0 / beta1 < 0 gives -0.0.
        """
        lo = max(self.left_cells - 1, 0) if self.spec.beta1 == 0.0 else 0
        hi = min(self.left_cells + math.ceil(t / self.h) + 1, self.cells)
        v = filter_cell_integrals(self.spec.beta1, t, -self.grid.left + self.h * np.arange(lo, hi + 1))
        v += 0.0
        return lo, v

    def _raw_weights(self, t):
        """The filter's cell integrals at time t, at scale 1, over every cell
        (``_cell_integrals``)."""
        lo, v = self._cell_integrals(t)
        if v.size == self.cells:
            return v
        w = np.zeros(self.cells)
        w[lo : lo + v.size] = v
        return w

    def weights(self, t):
        """Filter weight vector of the kernel at time t (scale applied), over
        every cell; ``_raw_weights`` says which cells are computed."""
        if not 0.0 <= t <= self.spec.horizon + 1e-12:
            raise ValueError(f"t = {t} outside [0, {self.spec.horizon}]")
        return self.scale * self._raw_weights(t)

    def increment_weights(self, x, s):
        """Weights of the increment kernel between times x and x + s."""
        if s <= 0 or x < 0 or x + s > self.spec.horizon + 1e-12:
            raise ValueError(f"invalid increment window x = {x}, s = {s}")
        return self.scale * (self._raw_weights(x + s) - self._raw_weights(x))

    # path sampling ----------------------------------------------------------------

    @property
    def path_normals(self):
        """The Gaussians a path draws (``path_model``)."""
        return self.path_model.normals

    @cached_property
    def filter_response(self):
        """The cell vector of the sampler's filter convolution (beta1 != 0).

        Entry r is the integral of x_+^beta1 over [(r-1)h, rh],
        ((rh)^g - ((r-1)h)^g) / g with g = beta1 + 1, for r = 0..cells.
        Convolved with a cell vector, output left_cells + k is the vector's
        integral against (t - u)_+^beta1 at t = k h, and output left_cells
        the t-independent (-u)_+^beta1 half.
        """
        g = self.spec.beta1 + 1.0
        return np.diff((np.arange(self.cells + 1) * self.h) ** g / g, prepend=0.0)

    @cached_property
    def path_model(self):
        """How a path is drawn (``PathModel``); the one place that picks it.

        A path is ``path_weight`` * filter(|phi|^n He_n(z / |phi|)), (z, |phi|)
        = draw(xi) for ``normals`` standard normals xi; filter output k is the
        path at time step k, +0.0 at k = 0.  The model does not read the
        scale, so paths can be drawn while it is summed.  ``reads`` is what
        the paths depend on besides xi (``simulate.provenance_tag`` hashes it).

        Order 1 is fractional Brownian motion whatever beta1 and beta2 are,
        drawn exactly on the time steps: unit fGn z (``CirculantField``, 2
        steps normals, unit norms) and its partial sums.  It reads spec and
        steps.

        Order n >= 2 is the order-n integral of the kernel family along the
        time grid for one Gaussian per cell.  By the rank-one structure it is
        the field z_u = <phi_u, xi> on the u-cells the filter reads (an
        ``EnvelopeField`` window), a Hermite transform per u-cell, then the
        partial sums (beta1 = 0) or the windowed convolution with
        ``filter_response`` less its t-independent (-u)_+ half, output
        left_cells.  It reads spec and grid.
        """
        spec, grid = self.spec, self.grid
        if spec.order == 1:
            fgn = CirculantField(fgn_autocorr(spec.alpha, np.arange(grid.steps + 1)))
            return PathModel(fgn.normals, fgn.draw, _partial_sums, {"spec": spec.to_dict(), "steps": grid.steps})
        if spec.beta1 == 0.0:
            window, response = self.field.window(self.left_cells, self.time_cells), _partial_sums
        else:
            window = self.field.window(0, self.cells)
            spectra = _window_spectra(self.filter_response, self.left_cells, self.time_cells + 1)
            response = partial(_from_start, spectra=spectra)
        return PathModel(self.cells, partial(self.field.draw, window=window), response,
                         {"spec": spec.to_dict(), "grid": vars(grid)})

    @cached_property
    def path_weight(self):
        """The factor of ``path_model``'s filter output in a path: at order 1
        scale sqrt(continuum_norm_sq(T / steps)), so Var X_t = scale^2
        ||A_t||^2 of the continuum kernel at every grid time; at order >= 2
        scale h for the partial sums (beta1 = 0), else scale / -beta1."""
        spec, scale = self.spec, self.scale
        if spec.order == 1:
            return scale * math.sqrt(continuum_norm_sq(spec, spec.horizon / self.grid.steps))
        if spec.beta1 == 0.0:
            return scale * self.h
        return scale / -spec.beta1

    def _gram(self, lags, j):
        """The stationary Gram's entries at integer ``lags``, to the power j:
        the one read of ``EnvelopeField.autocorr``."""
        return self.field.autocorr[np.abs(lags)] ** j

    def pair_inner(self, wa, wb):
        """<A, B> for two weight vectors, via the stationary Gram."""
        sa, sb = _support(wa), _support(wb)
        if sa is None or sb is None:
            return 0.0
        (la, a), (lb, b) = sa, sb
        cross = fftconvolve(a, b[::-1])
        return float(np.sum(cross * self._gram(la - lb + np.arange(-(b.size - 1), a.size), self.spec.order)))

    def norm_sq(self, w):
        """||A||^2 for a weight vector: the sampled grid's exact Gram summed over
        the weight support [lo, hi].  ``pair_inner(w, w)`` is the stationary
        form, which ignores that cells near the left edge see a shorter
        envelope.  At order 1 this is h * sum_i profile_i^2, profile_i = sum_u
        w_u env[u - i], one convolution of the support with env[:hi + 1]; at
        order n >= 2 it is the sum over u of w_u (2 sum_m w_{u+m} gram^n - w_u
        gram(u, u)^n) over ``EnvelopeField.gram_rows``.
        """
        support = _support(w)
        if support is None:
            return 0.0
        lo, ws = support
        hi = lo + ws.size - 1
        if self.spec.order == 1:
            profile = fftconvolve(ws, self.field.envelope[hi::-1])[ws.size - 1 :]
            return float(self.h * np.sum(profile**2))
        _check_span(ws.size)
        total = 0.0
        for i, row in enumerate(self.field.gram_rows(lo, hi)):
            p = row**self.spec.order
            total += ws[i] * (2.0 * np.dot(ws[i:], p) - ws[i] * p[0])
        return float(total)

    def increment_norm(self, x, s):
        """||A_{x+s} - A_x|| via the stationary Gram."""
        w = self.increment_weights(x, s)
        return math.sqrt(max(self.pair_inner(w, w), 0.0))

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
            return self.pair_inner(wa, wa) * self.pair_inner(wb, wb)
        if j == n:
            return self.pair_inner(wa, wb) ** 2
        sa, sb = _support(wa), _support(wb)
        if sa is None or sb is None:
            return 0.0
        (la, a), (lb, b) = sa, sb
        if a.size > CONTRACTION_WINDOW_CAP or b.size > CONTRACTION_WINDOW_CAP:
            raise ValueError(
                f"middle contractions need compact filter support "
                f"(windows {a.size} x {b.size} exceed cap {CONTRACTION_WINDOW_CAP}); "
                f"only available for beta1 = 0 kernels at this resolution"
            )
        ka, kb = np.arange(a.size), np.arange(b.size)
        cross = a[:, None] * self._gram(la - lb + ka[:, None] - kb, j) * b
        mixed = self._gram(ka[:, None] - ka, n - j) @ cross @ self._gram(kb[:, None] - kb, n - j)
        return float(np.sum(cross * mixed))

    # dense assembly -----------------------------------------------------------

    def dense_from_weights(self, w):
        """Dense order-n tensor over the cell grid (slow; cross-check path)."""
        n = self.spec.order
        if self.cells**n > MAX_DENSE_ENTRIES:
            raise ValueError(f"dense tensor would have {self.cells**n} entries (cap {MAX_DENSE_ENTRIES})")
        operands = [w] + [self.field.rows()] * n
        letters = "ijklmn"[:n]
        spec_str = "u," + ",".join("u" + c for c in letters) + "->" + letters
        return SymTensor(np.einsum(spec_str, *operands, optimize=True), dim=self.cells)

    def refined(self):
        """Same spec and domain, twice as many cells and time steps (same scale
        resolution convention, re-normalized on the finer grid)."""
        grid = GridSpec(left=self.grid.left, cells=self.grid.cells * 2, steps=self.grid.steps * 2)
        return KernelDiscretization(self.spec, grid)


# -- coupling functionals ------------------------------------------------------


def increment_coupling(kd, s, t, x, y):
    """Weighted combination of increment contraction norms at (x, s), (y, t).

    The first piece is the squared norm of the single-slot contraction scaled
    by (st)^-2a; the remaining piece sums the j = 2..n contraction norms
    scaled by (st)^-a.  At order 1 only the first piece exists.
    """
    spec = kd.spec
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


def _loglog_fit(levels, scales, values):
    """The least-squares line through (log scale, log value)."""
    slope, intercept = np.polyfit(np.log(np.asarray(scales)), np.log(np.asarray(values)), 1)
    return ScalingFitReport(levels=levels, scales=scales, values=values, slope=float(slope),
                            intercept=float(intercept))


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
    return _loglog_fit(levels, scales, [coupling_integral(kd, s, s) for s in scales])


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
        level_stats[j] = (max(vals), min(vals), xs[int(np.argmax(vals))])
    return level_stats


def upper_scaling_report(kd, levels=None, refined=None):
    """Estimate the constant in ||A_{x,s}|| <= kappa s^alpha over a dyadic sweep.

    ``refined`` (a finer discretization of the same spec) measures grid
    sensitivity, which must stay under UPPER_DRIFT_TOL; a monotone blow-up
    or collapse of the per-level sups flags a mismatched exponent.  Levels
    default to 1..7, cut at the finest level the time grid resolves; levels
    whose window T 2^-j is shorter than one time step are rejected
    (``_resolved_levels``).
    """
    alpha, T = kd.spec.alpha, kd.spec.horizon
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
    passed = math.isfinite(kappa) and not diverging and (drift is None or drift < UPPER_DRIFT_TOL)
    return UpperScalingReport(kappa=kappa, worst_x=stats[worst_j][2], worst_s=T * 2.0**-worst_j, level_sups=sups,
                              refinement_drift=drift, diverging=diverging, passed=passed)


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


def overlap_scaling_report(spec, levels):
    """Dyadic scaling of the overlap integral; the coarse bound predicts
    exponent 1 + min(beta1, 0) per variable (so twice that on the diagonal)."""
    T = spec.horizon
    levels = [int(j) for j in levels]
    scales = [T * 2.0**-j for j in levels]
    diagonal = _loglog_fit(levels, scales, [filter_overlap_integral(spec, s, s) for s in scales])
    column = _loglog_fit(levels, scales, [filter_overlap_integral(spec, s, T / 2.0) for s in scales])
    return {
        "diagonal": diagonal,
        "slope_per_variable": column.slope,
        "predicted_per_variable": 1.0 + min(spec.beta1, 0.0),
    }


# -- continuum reference and truncation -------------------------------------------


def continuum_norm_sq(spec, t):
    """||A_t||^2 of the continuum kernel at scale 1, in closed form.

    Per factor <phi_u, phi_v> = B(beta2/2, 1 - beta2) |u - v|^g, g = n (beta2 - 1).
    In the spectral representation the filter has |hat f_t|^2 = c |e^{iwt} - 1|^2
    |w|^(-2 beta1 - 2) with c = Gamma(beta1)^2 (1 at beta1 = 0), |x|^g has
    2 Gamma(g + 1) sin(-pi g / 2) |w|^(-g - 1), and what is left is the
    Mandelbrot-Van Ness integral 2 pi / (Gamma(2 alpha + 1) sin(pi alpha)).
    """
    n, beta1, beta2, alpha = spec.order, spec.beta1, spec.beta2, spec.alpha
    g = n * (beta2 - 1.0)
    envelope = math.gamma(beta2 / 2.0) * math.gamma(1.0 - beta2) / math.gamma(1.0 - beta2 / 2.0)
    c = 1.0 if beta1 == 0.0 else math.gamma(beta1) ** 2
    separation = 2.0 * math.gamma(g + 1.0) * math.sin(-math.pi * g / 2.0)
    mvn = math.gamma(2.0 * alpha + 1.0) * math.sin(math.pi * alpha)
    return envelope**n * c * separation / mvn * t ** (2.0 * alpha)


def truncation_report(kd):
    """Grid norms at scale 1 against ``continuum_norm_sq``; r(t) is their ratio.

    ``relative_tail`` is 1 - r(t_ref) at t_ref = min(1, T), where the scale
    normalizes.  It mixes the mass the left truncation loses with the
    discretization error, so it can be slightly negative.  ``self_similarity``
    maps j = 0..min(8, log2 steps) to r(t_ref 2^-j) / r(t_ref), which is
    Var X_t / t^(2 alpha) of the normalized grid process: 1 if it is
    self-similar.  The sampler draws the grid process at order >= 2 only; at
    order 1 it draws exact fBm, whose ratio is 1 at every grid time.
    """
    spec = kd.spec
    t_ref = kd.t_ref
    times = [t_ref * 2.0**-j for j in range(min(8, int(kd.grid.steps).bit_length() - 1) + 1)]
    # at beta1 != 0 and order >= 2 the weights span the whole grid, where each exact norm costs
    # O(span^2) and refuses spans past EXACT_SPAN_CAP: the stationary Gram stands in (README)
    norm_sq = kd.norm_sq if spec.beta1 == 0.0 or spec.order == 1 else lambda w: kd.pair_inner(w, w)
    norms = [norm_sq(kd._raw_weights(t)) for t in times]
    ratios = [norm / continuum_norm_sq(spec, t) for norm, t in zip(norms, times)]
    return {"left_units": kd.grid.left / spec.horizon, "norm_sq": norms[0],
            "continuum_norm_sq": continuum_norm_sq(spec, t_ref), "relative_tail": 1.0 - ratios[0],
            "self_similarity": {j: r / ratios[0] for j, r in enumerate(ratios)}}
