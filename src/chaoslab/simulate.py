"""Sampling of chaos-process trajectories from discretized kernels.

At order 1 the kernel's process is Gaussian, self-similar with index alpha
and has stationary increments: it is fractional Brownian motion, whatever
beta1 and beta2 are.  A path is then drawn exactly on the time grid, as the
partial sums of fractional Gaussian noise (``kernels.CirculantField``) from
2 steps Gaussians, scaled so that Var X_t = scale^2 ||A_t||^2 of the continuum
kernel (``kernels.continuum_norm_sq``) at every grid time.

At order n >= 2 a path is the order-n integral of the kernel family evaluated
along the time grid for one draw of the cell Gaussians.  The rank-one
structure reduces each path to the Gaussian field z_u = <phi_u, xi> on the
u-cells that the filter reads (one windowed envelope convolution;
``kernels.EnvelopeField`` gives the layout), a Hermite transform per u-cell,
and one windowed filter convolution read at the grid times, a cumulative sum
for compact filters.  The t-independent (-u)_+ half of a non-compact filter
is the t = 0 output of the same convolution, so every path starts at
exactly 0.

Every call samples in ``min(workers, count)`` worker processes.  The caller
finishes the discretization first, its scale and the circulant root or every
window a path reads, and the workers inherit it and only draw and transform.
Each path owns stream ``(seed, stream_index)`` of a counter-based generator,
so a path is bitwise the same for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .chaos import _philox_key, hermite_he, philox_stream
from .kernels import KernelDiscretization, continuum_norm_sq
from .kernels import fftconvolve  # noqa: F401  (chaosbench/bench_trace.py hooks this name)
from .regularity import PathSample

__all__ = ["provenance_tag", "sample_path_values", "sample_paths"]


def provenance_tag(spec, grid):
    payload = json.dumps({"spec": spec.to_dict(), "grid": vars(grid)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def sample_path_values(kd, xi):
    """Process values at all grid time points for one draw of
    ``kd.path_normals`` Gaussians."""
    xi = np.asarray(xi, dtype=float)
    if xi.size != kd.path_normals:
        raise ValueError(f"need {kd.path_normals} Gaussians per path, got {xi.size}")
    if kd.scale == 0.0:  # +0.0 throughout, where 0.0 times a negative sum would give -0.0
        return np.zeros(kd.grid.steps + 1)
    n = kd.spec.order
    if n == 1:  # exact fBm: partial sums of unit fGn, times the sd of one step
        step_sd = kd.scale * math.sqrt(continuum_norm_sq(kd.spec, kd.spec.horizon / kd.grid.steps))
        return step_sd * np.concatenate(([0.0], np.cumsum(kd.circulant.draw(xi))))
    offsets = kd.per_step * np.arange(kd.grid.steps + 1)  # grid times, in cells
    envelope, filt = kd.path_windows
    # |phi_u|^n He_n(<phi_u, xi>/|phi_u|) on the u-cells of the window
    z, norms = kd.field.draw(xi, envelope)
    b = norms**n * hermite_he(n, z / norms)
    if filt is None:  # beta1 = 0
        csum = np.concatenate(([0.0], np.cumsum(b)))
        return kd.scale * kd.h * csum[offsets]
    # output 0 of the window is the t-independent (-u)_+ half of the filter;
    # subtracted as values[0] - values, so that t = 0 gives +0.0 (not -0.0)
    # for beta1 < 0
    values = filt(b)[offsets]
    return (kd.scale / -kd.spec.beta1) * (values[0] - values)


_WORKER_KD = None


def _init_worker(kd):
    global _WORKER_KD
    _WORKER_KD = kd


def _worker_chunk(seed, streams):
    """Path values of ``streams``, in order; each path draws its own stream."""
    kd = _WORKER_KD
    return [sample_path_values(kd, philox_stream(seed, s).standard_normal(kd.path_normals)) for s in streams]


def sample_paths(spec, grid, count, seed, workers=1, first_stream=0, kd=None):
    """Draw ``count`` independent trajectories; deterministic given ``seed``.

    Path ``i`` uses generator stream ``(seed, first_stream + i)`` and is drawn
    by one of ``min(workers, count)`` worker processes that take ``kd`` (built
    here if not given), so output does not depend on the worker count.
    """
    if workers < 1 or count < 0:
        raise ValueError(f"need workers >= 1 and count >= 0, got workers={workers}, count={count}")
    if kd is None:
        kd = KernelDiscretization(spec, grid)
    elif (kd.spec, kd.grid) != (spec, grid):
        raise ValueError("kd is a discretization of another spec or grid")
    if count == 0:
        return []
    streams = range(first_stream, first_stream + count)
    _philox_key(seed, streams[0]), _philox_key(seed, streams[-1])  # before any work
    workers = min(workers, count)
    # The caller finishes kd; the workers inherit it, under fork without a
    # copy, under spawn or forkserver pickled once each with its root or windows.
    kd.scale
    kd.circulant if spec.order == 1 else kd.path_windows
    values = [None] * count
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(kd,)) as pool:
        chunks = pool.map(_worker_chunk, [seed] * workers, [streams[w::workers] for w in range(workers)])
        for w, chunk in enumerate(chunks):
            values[w::workers] = chunk
    tag = provenance_tag(spec, grid)
    times = np.arange(grid.steps + 1) * (spec.horizon / grid.steps)
    return [PathSample(times=times, values=v, seed=seed, stream=stream, provenance=tag)
            for stream, v in zip(streams, values)]
