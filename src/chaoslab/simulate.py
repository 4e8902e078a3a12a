"""Sampling of chaos-process trajectories from discretized kernels.

A path is the order-n integral of the kernel family evaluated along the time
grid for one draw of the cell Gaussians.  The rank-one structure reduces each
path to one envelope convolution (all inner products at once), a Hermite
transform per u-cell, and one filter convolution (all time points at once);
the filter convolution degenerates to a cumulative sum for compact filters.

Both convolutions are circular, against spectra the discretization computes
once (``KernelDiscretization.envelope_spectrum`` and ``filter_spectrum``), at
the shortest fast length that keeps every output a path reads free of
wrap-around: a compact filter reads only the u-cells in [0, T], and the
filter convolution is read only at the grid times.  A path thus costs two
real transforms per convolution.  At order 1 the Hermite transform is the
identity, so for a non-compact filter the two convolutions fold into one
against a precomputed envelope-filter response.  The t-independent (-u)_+
half of a non-compact filter is the t = 0 output of the same convolution,
so every path starts at exactly 0.

Each path owns stream ``(seed, stream_index)`` of a counter-based generator,
so results are independent of worker scheduling: a path is bitwise the same
whether drawn serially or by any number of pool workers.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
from scipy.fft import irfft, rfft
from scipy.signal import fftconvolve  # noqa: F401  (chaosbench/bench_trace.py hooks this name)

from .chaos import hermite_he, philox_stream
from .kernels import KernelDiscretization
from .regularity import PathSample

__all__ = ["provenance_tag", "sample_path_values", "sample_paths"]


def provenance_tag(spec, grid):
    payload = json.dumps({"spec": spec.to_dict(), "grid": vars(grid)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _circular(x, spectrum):
    """Circular convolution of ``x`` with the filter whose (n, rfft) is given."""
    n, hat = spectrum
    out = rfft(x, n)
    out *= hat
    return irfft(out, n, overwrite_x=True)


def _wick_profile(kd, xi, first):
    """Per-u-cell Hermite transform |phi_u|^n He_n(<phi_u, xi>/|phi_u|) for
    the u-cells from ``first`` on."""
    n = kd.spec.order
    z = _circular(xi, kd.envelope_spectrum)[first : kd.cells]
    z *= math.sqrt(kd.h)
    norms = np.sqrt(kd.envelope_norm_sq[first:])
    return norms**n * hermite_he(n, z / norms)


def sample_path_values(kd, xi):
    """Process values at all grid time points for one coordinate draw."""
    xi = np.asarray(xi, dtype=float)
    if xi.size != kd.cells:
        raise ValueError(f"need one Gaussian per cell ({kd.cells}), got {xi.size}")
    scale = kd.scale  # before the spectra, so the exact norm runs without them
    offsets = kd.per_step * np.arange(kd.grid.steps + 1)  # grid times, in cells
    lam = kd.left_cells
    beta1 = kd.spec.beta1
    if beta1 == 0.0:
        csum = np.concatenate(([0.0], np.cumsum(_wick_profile(kd, xi, lam))))
        return scale * kd.h * csum[offsets]
    # at order 1 the envelope is folded into the filter spectrum
    b = xi if kd.spec.order == 1 else _wick_profile(kd, xi, 0)
    conv = _circular(b, kd.filter_spectrum)
    # conv[lam] is the t-independent (-u)_+ half of the filter; subtracted
    # as values[0] - values, so that t = 0 gives +0.0 (not -0.0) for beta1 < 0
    values = conv[lam + offsets]
    return (scale / -beta1) * (values[0] - values)


_WORKER_KD = None


def _init_worker(spec, grid):
    global _WORKER_KD
    _WORKER_KD = KernelDiscretization(spec, grid)


def _sample_streams(kd, seed, streams):
    """Path values for each stream, in order; every path draws its own stream."""
    return [
        sample_path_values(kd, philox_stream(seed, stream).standard_normal(kd.cells))
        for stream in streams
    ]


def _worker_chunk(args):
    seed, streams = args
    return _sample_streams(_WORKER_KD, seed, streams)


def sample_paths(spec, grid, count, seed, workers=1, first_stream=0, kd=None):
    """Draw ``count`` independent trajectories; deterministic given ``seed``.

    Path ``i`` uses generator stream ``(seed, first_stream + i)``, so output
    does not depend on the worker count.  ``kd`` reuses a discretization of
    (spec, grid), with its scale and spectra; pool workers get its scale as
    the spec's, so they never recompute it.
    """
    if kd is None:
        kd = KernelDiscretization(spec, grid)
    elif (kd.spec, kd.grid) != (spec, grid):
        raise ValueError("kd is a discretization of another spec or grid")
    tag = provenance_tag(spec, grid)
    times = np.arange(grid.steps + 1) * (spec.horizon / grid.steps)
    streams = [first_stream + i for i in range(count)]
    workers = max(1, int(workers))
    if workers == 1 or count < 2 * workers:
        values = _sample_streams(kd, seed, streams)
    else:
        chunks = [(seed, streams[i::workers]) for i in range(workers)]
        initargs = (replace(spec, scale=kd.scale), grid)
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=initargs) as pool:
            results = list(pool.map(_worker_chunk, chunks))
        values = [None] * count
        for i, chunk_values in enumerate(results):
            values[i::workers] = chunk_values
    return [
        PathSample(times=times, values=v, seed=seed, stream=stream, provenance=tag)
        for stream, v in zip(streams, values)
    ]
