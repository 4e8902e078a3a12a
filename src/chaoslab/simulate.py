"""Sampling of chaos-process trajectories from discretized kernels.

A path is the order-n integral of the kernel family evaluated along the time
grid for one draw of the cell Gaussians.  The rank-one structure reduces each
path to one envelope convolution (all inner products at once), a Hermite
transform per u-cell, and one filter convolution (all time points at once);
the filter convolution degenerates to a cumulative sum for compact filters.

Each path owns stream ``(seed, stream_index)`` of a counter-based generator,
so results are independent of worker scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.signal import fftconvolve

from .chaos import hermite_he, philox_stream
from .kernels import GridSpec, KernelDiscretization
from .regularity import PathSample

__all__ = ["provenance_tag", "sample_path_values", "sample_paths", "default_workers"]


def default_workers():
    try:
        return max(1, int(os.environ.get("CHAOSLAB_WORKERS", "1")))
    except ValueError:
        return 1


def provenance_tag(spec, grid):
    payload = json.dumps({"spec": spec.to_dict(), "grid": vars(grid)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _wick_profile(kd, xi):
    """Per-u-cell Hermite transform |phi_u|^n He_n(<phi_u, xi>/|phi_u|)."""
    n = kd.spec.order
    z = math.sqrt(kd.h) * fftconvolve(xi, kd.envelope)[: kd.cells]
    norms = np.sqrt(kd.envelope_norm_sq)
    return norms**n * hermite_he(n, z / norms)


def sample_path_values(kd, xi):
    """Process values at all grid time points for one coordinate draw."""
    xi = np.asarray(xi, dtype=float)
    if xi.size != kd.cells:
        raise ValueError(f"need one Gaussian per cell ({kd.cells}), got {xi.size}")
    b = _wick_profile(kd, xi)
    lam = kd.left_cells
    idx = lam + kd.per_step * np.arange(kd.grid.steps + 1)
    beta1 = kd.spec.beta1
    if beta1 == 0.0:
        csum = np.concatenate(([0.0], np.cumsum(b)))
        return kd.scale * kd.h * (csum[idx] - csum[lam])
    gamma = beta1 + 1.0
    r = np.arange(lam + kd.time_cells + 1, dtype=float)
    antider = (r * kd.h) ** gamma / gamma
    ghat = np.diff(np.concatenate(([0.0], antider)))
    conv = fftconvolve(b, ghat)
    # the (-u)_+ half of the filter does not depend on t
    lo, hi = kd.edges[:-1], kd.edges[1:]
    static = (np.maximum(-lo, 0.0) ** gamma - np.maximum(-hi, 0.0) ** gamma) / gamma
    return (kd.scale / beta1) * (conv[idx] - float(static @ b))


_WORKER_KD = None


def _init_worker(spec, grid, scale):
    global _WORKER_KD
    _WORKER_KD = KernelDiscretization(spec, grid)
    _WORKER_KD._scale = scale


def _sample_streams(kd, seed, streams):
    """Path values for each stream, in order; every path draws its own stream."""
    return [
        sample_path_values(kd, philox_stream(seed, stream).standard_normal(kd.cells))
        for stream in streams
    ]


def _worker_chunk(args):
    seed, streams = args
    return _sample_streams(_WORKER_KD, seed, streams)


def sample_paths(spec, grid, count, seed, workers=None, first_stream=0):
    """Draw ``count`` independent trajectories; deterministic given ``seed``.

    Path ``i`` uses generator stream ``(seed, first_stream + i)``, so output
    does not depend on the worker count.
    """
    if isinstance(grid, int):
        grid = GridSpec.build(spec, steps=grid)
    kd = KernelDiscretization(spec, grid)
    tag = provenance_tag(spec, grid)
    times = np.arange(grid.steps + 1) * (spec.horizon / grid.steps)
    streams = [first_stream + i for i in range(count)]
    workers = default_workers() if workers is None else max(1, int(workers))
    if workers == 1 or count < 2 * workers:
        values = _sample_streams(kd, seed, streams)
    else:
        chunks = [(seed, streams[i::workers]) for i in range(workers)]
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(spec, grid, kd.scale)
        ) as pool:
            results = list(pool.map(_worker_chunk, chunks))
        values = [None] * count
        for i, chunk_values in enumerate(results):
            values[i::workers] = chunk_values
    return [
        PathSample(times=times, values=v, seed=seed, stream=stream, provenance=tag)
        for stream, v in zip(streams, values)
    ]
