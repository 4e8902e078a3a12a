"""Path statistics: increment norms, Orlicz/Besov machinery, scaling fits.

All estimators act on sampled trajectories over a uniform time grid and are
pure functions; multi-path statistics reduce associatively over paths.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PathSample",
    "OrliczFunction",
    "increment_lp_norm",
    "luxemburg_norm",
    "psup_norm",
    "dyadic_besov_seminorm",
    "scaling_exponent_fit",
    "moment_growth_report",
    "modulus_holder_statistic",
]

LUXEMBURG_TOL = 1e-12  # luxemburg_norm: last Newton step in log(max|f|/lambda), relative to max(1, |that|)
LUXEMBURG_MAX_ITER = 100  # and step limit
PSUP_RATIO = 1.25  # ratio of consecutive exponents p in psup_norm's grid
MOMENT_QUANTILE = 0.99  # pooled quantile of moment_growth_report (q99 in moment_quantiles.csv)
BOOTSTRAP_SEED = 0  # moment_growth_report: seed of the path resampling
BOOTSTRAP_BLOCK_ENTRIES = 1 << 22  # and resampled ratios held at once
MODULUS_MAX_GAP = 0.5  # modulus_holder_statistic: pairs 0 < |s - t| < this (< 1: positive log weight)
MODULUS_LEAF_LAGS = 8  # and the search scans lag intervals this short one lag at a time
MODULUS_DENOM_SLACK = 1e-9  # and lowers its vectorized denominators by this, relative


@dataclass(frozen=True)
class PathSample:
    """One trajectory on a uniform grid, with the seed that produced it."""

    times: np.ndarray
    values: np.ndarray
    seed: int = 0
    stream: int = 0
    provenance: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1 or times.size < 2:
            raise ValueError("times and values must be equal-length vectors")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def step(self):
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self):
        return float(self.times[-1] - self.times[0])

    def subsample(self, factor):
        """Every ``factor``-th point: the same path on a coarser grid."""
        if (self.times.size - 1) % factor:
            raise ValueError(f"cannot subsample {self.times.size - 1} steps by {factor}")
        return PathSample(
            times=self.times[::factor],
            values=self.values[::factor],
            seed=self.seed,
            stream=self.stream,
            provenance=self.provenance,
        )


@dataclass(frozen=True)
class OrliczFunction:
    """Young function of exponential type: x -> exp(x^beta) - 1.

    Used unmodified on all of [0, inf) even for beta < 1: ``luxemburg_norm``
    needs no convexity near 0, only monotonicity.
    """

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return np.expm1(np.abs(x) ** self.beta)


def _lag_steps(path, lag):
    r = lag / path.step
    r_int = round(r)
    if abs(r - r_int) > 1e-8 or r_int < 1 or lag >= path.horizon:
        raise ValueError(f"lag {lag} is not a usable multiple of the grid step {path.step}")
    return r_int


def increment_lp_norm(path, lag, p):
    """Riemann L^p norm of t -> G(t + lag) - G(t) over [0, horizon - lag].

    Left-endpoint cells t_i = i * step for i < (steps - lag_steps), so the
    total measure is exactly horizon - lag.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _lp_norm(_increment_sizes(path, lag), path.step, p)


def _increment_sizes(path, lag):
    """|G(t + lag) - G(t)| at the left endpoints of ``increment_lp_norm``."""
    r = _lag_steps(path, lag)
    return np.abs(path.values[r:-1] - path.values[: -r - 1])


def _lp_norm(sizes, step, p):
    """(sum |x|^p * step)^(1/p); a sum that overflows, or that underflows
    below the smallest normal float while some |x| is nonzero, raises ValueError."""
    with np.errstate(over="ignore"):  # refused below
        total = np.sum(sizes**p)
    if not np.isfinite(total) or (total < np.finfo(float).tiny and sizes.any()):
        raise ValueError(f"L^p norm at p = {p}: the sum of |increment|^p leaves the float range")
    return float((total * step) ** (1.0 / p))


def luxemburg_norm(values, cell_measure, orlicz):
    """inf{lambda : sum Phi(|f|/lambda) * cell <= 1} by Newton's method.

    With g = |f| / max|f| and s = log(max|f| / lambda), Newton runs on
    L(s) = log(sum expm1(g^beta e^(beta s)) * cell).  L is convex and
    increasing (a log-sum-exp of the convex u -> log expm1(e^(u + a))), so
    from its start, where the largest term alone reaches 1, the iterates
    fall monotonically onto the root.  They stop once a step is at most
    LUXEMBURG_TOL * max(1, |s|), which leaves the norm accurate to about
    1e-12 relative.  Zero input gives 0; scaling f changes g, and so s, by
    rounding at most.  Non-finite values, a cell measure that is not
    positive and finite, sums that overflow (a cell measure near the float
    limit) and a norm past the largest float raise ValueError; running out
    of steps raises ArithmeticError.
    """
    f = np.abs(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(f)):
        raise ValueError("Luxemburg norm of non-finite values")
    if not 0.0 < cell_measure < math.inf:
        raise ValueError(f"cell measure must be positive and finite, got {cell_measure}")
    top = float(f.max(initial=0.0))
    if top == 0.0:
        return 0.0
    beta = orlicz.beta
    g_beta = (f / top) ** beta
    s = math.log(math.log1p(1.0 / cell_measure)) / beta
    for _ in range(LUXEMBURG_MAX_ITER):
        with np.errstate(over="ignore", invalid="ignore"):  # sums that overflow are refused below
            y = g_beta * math.exp(beta * s)  # not (g e^s)^beta: e^s underflows where beta is small
            grow = np.expm1(y)
            total = float(np.sum(grow))
            slope = beta * float(np.dot(y, grow) + np.sum(y))  # dL/ds times total
        if not (math.isfinite(total) and math.isfinite(slope)):
            raise ValueError(f"Luxemburg norm: the Orlicz sums overflow at cell measure {cell_measure}")
        step = math.log(total * cell_measure) * total / slope
        s -= step
        if abs(step) <= LUXEMBURG_TOL * max(1.0, abs(s)):
            try:
                return math.exp(math.log(top) - s)
            except OverflowError:
                raise ValueError("Luxemburg norm is not finite: the Young function is too flat near 0") from None
    raise ArithmeticError(f"Luxemburg norm: Newton's method did not converge in {LUXEMBURG_MAX_ITER} steps")


def psup_norm(values, beta, cell_measure):
    """sup over a geometric p-grid of p^(-1/beta) ||f||_{L^p}.

    The grid runs from 1 to ln(sample count) in PSUP_RATIO steps (the cap is
    where discrete L^p norms saturate towards the max).
    """
    f = np.abs(np.asarray(values, dtype=float))
    if f.size == 0 or f.max(initial=0.0) == 0.0:
        return 0.0
    p_max = max(1.0, math.log(f.size))
    grid = [1.0]
    while grid[-1] * PSUP_RATIO < p_max:
        grid.append(grid[-1] * PSUP_RATIO)
    if grid[-1] < p_max:
        grid.append(p_max)
    return max(p ** (-1.0 / beta) * _lp_norm(f, cell_measure, p) for p in grid)


@dataclass
class BesovLevel:
    level: int
    lag: float
    increment_norm: float
    weighted: float


@dataclass
class BesovSeminormReport:
    smoothness: float
    norm_kind: str
    levels: list = field(default_factory=list)
    seminorm: float = 0.0


def dyadic_besov_seminorm(path, smoothness, p=None, orlicz_beta=None):
    """sup over dyadic levels of 2^(j s) * (norm of lag-2^-j increments).

    Lags are horizon * 2^-j, down to one grid step; the per-level norm is
    ``increment_lp_norm`` when ``p`` is given (so p >= 1), Luxemburg with the
    exponential Young function otherwise.  Returns the per-level breakdown
    alongside the sup.
    """
    if not 0.0 < smoothness < 1.0:
        raise ValueError("smoothness must lie in (0, 1)")
    if (p is None) == (orlicz_beta is None):
        raise ValueError("give exactly one of p, orlicz_beta")
    T = path.horizon
    steps = path.times.size - 1
    orlicz = OrliczFunction(orlicz_beta) if orlicz_beta is not None else None
    report = BesovSeminormReport(
        smoothness=smoothness,
        norm_kind=f"lp:{p}" if p is not None else f"orlicz:{orlicz_beta}",
    )
    j = 1
    while True:
        cells = steps * 2.0**-j
        if cells < 1 or abs(cells - round(cells)) > 1e-9:
            break
        lag = T * 2.0**-j
        if p is not None:
            level_norm = increment_lp_norm(path, lag, p)
        else:
            level_norm = luxemburg_norm(_increment_sizes(path, lag), path.step, orlicz)
        weighted = 2.0 ** (j * smoothness) * level_norm
        report.levels.append(BesovLevel(j, lag, level_norm, weighted))
        j += 1
    report.seminorm = max((l.weighted for l in report.levels), default=0.0)
    return report


@dataclass
class SlopeFitReport:
    levels: list
    lags: list
    p: float
    slopes: list
    slope_mean: float
    slope_sd: float
    ci95: tuple


def scaling_exponent_fit(paths, p, levels):
    """Per-path least-squares slope of log Y_{p, lag} against log lag.

    ``levels`` are dyadic level indices j (lag = horizon * 2^-j); the report
    aggregates the per-path slopes.  The integration domain (0, T - lag)
    shrinks with the lag, so each level is normalized by measure^(1/p)
    before fitting; a deterministic linear path then fits slope 1 exactly.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("need at least one path")
    levels = [int(j) for j in levels]
    T = paths[0].horizon
    lags = [T * 2.0**-j for j in levels]
    slopes = []
    for path in paths:
        ys = [
            increment_lp_norm(path, lag, p) / (T - lag) ** (1.0 / p) for lag in lags
        ]
        if any(y <= 0 for y in ys):
            raise ValueError("nonpositive increment norm; cannot fit log-log slope")
        slope = np.polyfit(np.log(lags), np.log(ys), 1)[0]
        slopes.append(float(slope))
    mean = float(np.mean(slopes))
    sd = float(np.std(slopes, ddof=1)) if len(slopes) > 1 else 0.0
    half = 1.96 * sd / math.sqrt(len(slopes)) if len(slopes) > 1 else 0.0
    return SlopeFitReport(
        levels=levels,
        lags=lags,
        p=float(p),
        slopes=slopes,
        slope_mean=mean,
        slope_sd=sd,
        ci95=(mean - half, mean + half),
    )


def _kendall(xs, ys):
    """Kendall's tau-b by ``scipy.stats.kendalltau``'s arithmetic on direct pair
    counts, (concordant - discordant) / sqrt(x-untied pairs) / sqrt(y-untied
    pairs) clipped to [-1, 1]; 0.0 when either side is constant or has a nan."""
    return float(_kendall_rows(xs, [ys])[0])


def _kendall_rows(xs, rows):
    """``_kendall(xs, row)`` for every row of a 2-d array, in one array pass."""
    x, y = np.asarray(xs, dtype=float), np.asarray(rows, dtype=float)
    i, j = np.triu_indices(x.size, 1)
    sx = (x[j] > x[i]).astype(np.int64) - (x[j] < x[i])
    sy = (y[:, j] > y[:, i]).astype(np.int64) - (y[:, j] < y[:, i])
    untied_x, untied_y = np.count_nonzero(sx), np.count_nonzero(sy, axis=1)
    valid = (untied_x > 0) & (untied_y > 0) & ~np.isnan(x).any() & ~np.isnan(y).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (sy @ sx) / np.sqrt(untied_x) / np.sqrt(untied_y)
    return np.where(valid, np.clip(tau, -1.0, 1.0), 0.0)


@dataclass
class MomentGrowthReport:
    ells: list
    levels: list
    alpha: float
    quantile: float
    by_exponent: dict


def moment_growth_report(
    paths,
    alpha,
    exponents,
    levels=range(5, 11),
    ells=(2, 4, 6, 8),
    bootstrap=200,
):
    """Quantiles of Y_{l, lag} / (lag^alpha l^e) across paths and dyadic lags.

    For each moment-scaling exponent e, reports the per-l pooled quantile,
    its Kendall trend over l, and a bootstrap (over paths) standard error of
    the trend.  The chaos-order exponent should show no upward trend; an
    undersized exponent should.  Each lag's |increments| are computed once
    and shared by every l, and the bootstrap takes the Kendall tau of a
    block of resamples in one array pass (``_kendall_rows``, ``_kendall``'s
    integer arithmetic); both give the same floats as ``increment_lp_norm``
    per (l, lag) and ``_kendall`` per resample.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("moment_growth_report needs at least one path")
    levels = [int(j) for j in levels]
    ells = [float(l) for l in ells]
    T = paths[0].horizon
    lags = [T * 2.0**-j for j in levels]
    for ell in ells:
        if ell < 1:
            raise ValueError(f"p must be >= 1, got {ell}")
    raw = np.empty((len(paths), len(ells), len(lags)))
    for i, path in enumerate(paths):
        for b, lag in enumerate(lags):
            sizes = _increment_sizes(path, lag)  # shared by every l
            for a, ell in enumerate(ells):
                raw[i, a, b] = _lp_norm(sizes, path.step, ell) / lag**alpha
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    block = max(1, BOOTSTRAP_BLOCK_ENTRIES // max(raw.size, 1))  # resamples per quantile call
    by_exponent = {}
    for e in exponents:
        ratios = raw / np.asarray(ells)[None, :, None] ** e
        q = [float(np.quantile(ratios[:, a, :], MOMENT_QUANTILE)) for a in range(len(ells))]
        tau = _kendall(ells, q)
        picks = rng.integers(0, len(paths), size=(bootstrap, len(paths)))
        # one quantile per block of resamples, shaped (resamples, ells, paths * lags)
        taus = []
        for first in range(0, bootstrap, block):
            pooled = ratios[picks[first : first + block]].transpose(0, 2, 1, 3)
            qbs = np.quantile(pooled.reshape(pooled.shape[0], len(ells), -1), MOMENT_QUANTILE, axis=-1)
            taus.extend(_kendall_rows(ells, qbs).tolist())
        by_exponent[float(e)] = {
            "quantiles": q,
            "kendall_tau": tau,
            "tau_bootstrap_se": float(np.std(taus, ddof=1)) if bootstrap > 1 else 0.0,
        }
    return MomentGrowthReport(
        ells=ells, levels=levels, alpha=float(alpha), quantile=MOMENT_QUANTILE, by_exponent=by_exponent
    )


def modulus_holder_statistic(path, alpha, log_exponent):
    """sup over grid pairs of |G(s) - G(t)| / (|s-t|^alpha |log|s-t||^e).

    Pairs are restricted to 0 < |s - t| < MODULUS_MAX_GAP.  The search is
    best-first branch and bound over intervals of lags r.  An interval's
    bound is its largest increment |v[i + r] - v[i]| over its least
    denominator; the largest increment is exact, from sparse tables of
    running maxima and minima over each start's window of partners (suffix
    maxima and minima where the path ends inside the window).  The least
    denominators come from numpy's power and log, lowered by
    MODULUS_DENOM_SLACK, which covers their few-ulp difference from the
    scalar math of the ratios; rounding is monotone, so the bound dominates
    every computed ratio in the interval.  The interval of highest bound is
    split in two until at most MODULUS_LEAF_LAGS lags remain, which are
    scanned one by one, and the search stops once no bound exceeds the best
    ratio found.  The result is bitwise the maximum over every lag's ratio.
    """
    step = path.step
    r_max = int(math.ceil(MODULUS_MAX_GAP / step)) - 1
    if r_max < 1:
        raise ValueError("grid too coarse for the gap window")
    v = path.values
    lags = min(r_max, v.size - 1)
    gaps = np.arange(lags + 1) * step
    with np.errstate(divide="ignore", invalid="ignore"):  # gap 0 is never read
        lower = gaps**alpha * np.abs(np.log(gaps)) ** log_exponent * (1.0 - MODULUS_DENOM_SLACK)
    highs, lows = [v], [v]  # level k: max / min of v[i : i + 2^k]
    while 2 ** len(highs) <= lags:
        k = 2 ** (len(highs) - 1)
        highs.append(np.maximum(highs[-1][:-k], highs[-1][k:]))
        lows.append(np.minimum(lows[-1][:-k], lows[-1][k:]))
    suffix_high = np.maximum.accumulate(v[::-1])[::-1]  # max / min of v[i:]
    suffix_low = np.minimum.accumulate(v[::-1])[::-1]

    def bound(a, b):
        """(largest increment over lags a..b) / (least denominator), with the interval."""
        width = b - a + 1
        k = width.bit_length() - 1  # window v[i + a : i + b + 1] as two overlapping 2^k windows
        full = v.size - b  # starts i whose window ends inside the path
        shift = a + width - 2**k
        top = np.maximum(highs[k][a : a + full], highs[k][shift : shift + full])
        bottom = np.minimum(lows[k][a : a + full], lows[k][shift : shift + full])
        head, tail = v[:full], v[full : v.size - a]  # the tail's windows run past the end
        peak = max(np.max(top - head), np.max(head - bottom))
        if tail.size:
            peak = max(peak, np.max(suffix_high[full + a :] - tail), np.max(tail - suffix_low[full + a :]))
        return (-float(peak) / float(np.min(lower[a : b + 1])), a, b)

    best = 0.0
    heap = [bound(1, lags)]
    while heap and -heap[0][0] > best:
        _, a, b = heapq.heappop(heap)
        if b - a < MODULUS_LEAF_LAGS:
            for r in range(a, b + 1):
                peak = float(np.max(np.abs(v[r:] - v[:-r])))
                best = max(best, peak / ((r * step) ** alpha * abs(math.log(r * step)) ** log_exponent))
        else:
            mid = (a + b) // 2
            heapq.heappush(heap, bound(a, mid))
            heapq.heappush(heap, bound(mid + 1, b))
    return best
