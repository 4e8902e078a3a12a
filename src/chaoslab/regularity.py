"""Path statistics: increment norms, Orlicz/Besov machinery, scaling fits.

All estimators act on sampled trajectories over a uniform time grid and are
pure functions; multi-path statistics reduce associatively over paths.
"""

from __future__ import annotations

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

LUXEMBURG_REL_TOL = 1e-12  # luxemburg_norm bisection: relative bracket width
LUXEMBURG_MAX_ITER = 200  # and step limit
PSUP_RATIO = 1.25  # ratio of consecutive exponents p in psup_norm's grid
MOMENT_QUANTILE = 0.99  # pooled quantile of moment_growth_report (q99 in moment_quantiles.csv)
BOOTSTRAP_BLOCK_ENTRIES = 1 << 22  # moment_growth_report: resampled ratios held at once


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

    Used unmodified on all of [0, inf) even for beta < 1 (convexity near 0
    is not needed by the bisection, only monotonicity).
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
    r = _lag_steps(path, lag)
    diffs = path.values[r:-1] - path.values[: -r - 1]
    return float((np.sum(np.abs(diffs) ** p) * path.step) ** (1.0 / p))


def luxemburg_norm(values, cell_measure, orlicz):
    """inf{lambda : sum Phi(|f|/lambda) * cell <= 1} by bisection.

    Zero input gives 0; the norm is absolutely homogeneous to bisection
    accuracy.
    """
    f = np.abs(np.asarray(values, dtype=float))
    if cell_measure <= 0:
        raise ValueError("cell measure must be positive")
    top = float(f.max(initial=0.0))
    if top == 0.0:
        return 0.0

    def excess(lam):
        return float(np.sum(orlicz(f / lam)) * cell_measure) - 1.0

    hi = top
    while excess(hi) > 0:
        hi *= 2.0
    if hi == math.inf:
        raise ValueError("Luxemburg norm is not finite: the Young function is too flat near 0")
    lo = hi / 2.0
    while excess(lo) < 0:
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    for _ in range(LUXEMBURG_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= LUXEMBURG_REL_TOL * hi:
            break
    return hi


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
    best = 0.0
    for p in grid:
        lp = float((np.sum(f**p) * cell_measure) ** (1.0 / p))
        best = max(best, p ** (-1.0 / beta) * lp)
    return best


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
            r = int(round(cells))
            diffs = path.values[r:-1] - path.values[: -r - 1]
            level_norm = luxemburg_norm(diffs, path.step, orlicz)
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
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    i, j = np.triu_indices(x.size, 1)
    sx, sy = ((v[j] > v[i]).astype(np.int64) - (v[j] < v[i]) for v in (x, y))
    untied_x, untied_y = np.count_nonzero(sx), np.count_nonzero(sy)
    if not untied_x or not untied_y or np.isnan(x).any() or np.isnan(y).any():
        return 0.0
    return min(1.0, max(-1.0, int(sx @ sy) / math.sqrt(untied_x) / math.sqrt(untied_y)))


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
    bootstrap_seed=0,
):
    """Quantiles of Y_{l, lag} / (lag^alpha l^e) across paths and dyadic lags.

    For each moment-scaling exponent e, reports the per-l pooled quantile,
    its Kendall trend over l, and a bootstrap (over paths) standard error of
    the trend.  The chaos-order exponent should show no upward trend; an
    undersized exponent should.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("moment_growth_report needs at least one path")
    levels = [int(j) for j in levels]
    ells = [float(l) for l in ells]
    T = paths[0].horizon
    lags = [T * 2.0**-j for j in levels]
    raw = np.empty((len(paths), len(ells), len(lags)))
    for i, path in enumerate(paths):
        for a, ell in enumerate(ells):
            for b, lag in enumerate(lags):
                raw[i, a, b] = increment_lp_norm(path, lag, ell) / lag**alpha
    rng = np.random.default_rng(bootstrap_seed)
    block = max(1, BOOTSTRAP_BLOCK_ENTRIES // max(raw.size, 1))  # resamples per quantile call
    by_exponent = {}
    for e in exponents:
        ratios = raw / np.asarray(ells)[None, :, None] ** e
        q = [float(np.quantile(ratios[:, a, :], MOMENT_QUANTILE)) for a in range(len(ells))]
        tau = _kendall(ells, q)
        picks = [rng.integers(0, len(paths), size=len(paths)) for _ in range(bootstrap)]
        picks = np.asarray(picks, dtype=np.intp).reshape(bootstrap, len(paths))
        # one quantile per block of resamples, shaped (resamples, ells, paths * lags)
        taus = []
        for first in range(0, bootstrap, block):
            pooled = ratios[picks[first : first + block]].transpose(0, 2, 1, 3)
            qbs = np.quantile(pooled.reshape(pooled.shape[0], len(ells), -1), MOMENT_QUANTILE, axis=-1)
            taus.extend(_kendall(ells, qb) for qb in qbs)
        by_exponent[float(e)] = {
            "quantiles": q,
            "kendall_tau": tau,
            "tau_bootstrap_se": float(np.std(taus, ddof=1)) if bootstrap > 1 else 0.0,
        }
    return MomentGrowthReport(
        ells=ells, levels=levels, alpha=float(alpha), quantile=MOMENT_QUANTILE, by_exponent=by_exponent
    )


def modulus_holder_statistic(path, alpha, log_exponent, max_gap=0.5):
    """sup over grid pairs of |G(s) - G(t)| / (|s-t|^alpha |log|s-t||^e).

    Pairs are restricted to 0 < |s - t| < ``max_gap`` (< 1 so the log weight
    is positive).
    """
    if not 0 < max_gap < 1:
        raise ValueError("max_gap must lie in (0, 1)")
    step = path.step
    r_max = int(math.ceil(max_gap / step)) - 1
    if r_max < 1:
        raise ValueError("grid too coarse for the gap window")
    v = path.values
    best = 0.0
    for r in range(1, min(r_max, v.size - 1) + 1):
        gap = r * step
        peak = float(np.max(np.abs(v[r:] - v[:-r])))
        denom = gap**alpha * abs(math.log(gap)) ** log_exponent
        best = max(best, peak / denom)
    return best
