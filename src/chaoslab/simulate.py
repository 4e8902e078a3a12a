"""Sampling of chaos-process trajectories from discretized kernels.

A path is the order-n integral of the kernel family evaluated along the time
grid for one draw of the cell Gaussians.  The rank-one structure reduces each
path to one envelope convolution (all inner products at once), a Hermite
transform per u-cell, and one filter convolution (all time points at once);
the filter convolution degenerates to a cumulative sum for compact filters.

Both convolutions are circular, against spectra the discretization computes
once per process (``KernelDiscretization.envelope_spectrum`` and
``filter_spectrum``).  The spectra and the circular convolution
(``_circular``) live in the FFT layer of ``kernels``, which also serves the
Gram sums.  Each spectrum has the shortest fast length that keeps every output
a path reads free of wrap-around: a compact filter reads only the u-cells in
[0, T], and the filter convolution is read only at the grid times.  A path
thus costs two real transforms per convolution.  At order 1 the Hermite
transform is the identity, so for a non-compact filter the two convolutions
fold into one against the envelope-filter response
``KernelDiscretization.filter_response``.  The t-independent (-u)_+ half of a
non-compact filter is the t = 0 output of the same convolution, so every path
starts at exactly 0.

Every call samples in ``min(workers, count)`` worker processes that inherit
the caller's discretization.  The caller computes the scale first: at order 1
with a non-compact filter it reads the folded response, which the workers then
inherit and only transform; the spectra are built in the workers alone.  Each
path owns stream ``(seed, stream_index)`` of a counter-based generator, so a
path is bitwise the same for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .chaos import hermite_he, philox_stream
from .kernels import KernelDiscretization, _circular
from .kernels import fftconvolve  # noqa: F401  (chaosbench/bench_trace.py hooks this name)
from .regularity import PathSample

__all__ = ["provenance_tag", "sample_path_values", "sample_paths"]


def provenance_tag(spec, grid):
    payload = json.dumps({"spec": spec.to_dict(), "grid": vars(grid)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


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
    scale = kd.scale  # before the spectra, so the scale is computed without them in memory
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


def _init_worker(kd):
    global _WORKER_KD
    _WORKER_KD = kd


def _worker_chunk(seed, streams):
    """Path values of ``streams``, in order; each path draws its own stream."""
    kd = _WORKER_KD
    return [sample_path_values(kd, philox_stream(seed, s).standard_normal(kd.cells)) for s in streams]


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
    workers = min(workers, count)
    # Workers inherit kd: under fork without a copy, under spawn or forkserver
    # pickled once each.  Its scale is computed first so that every worker
    # gets it, with the folded response it may build; the spectra are built
    # only in the workers.
    kd.scale
    values = [None] * count
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(kd,)) as pool:
        chunks = pool.map(_worker_chunk, [seed] * workers, [streams[w::workers] for w in range(workers)])
        for w, chunk in enumerate(chunks):
            values[w::workers] = chunk
    tag = provenance_tag(spec, grid)
    times = np.arange(grid.steps + 1) * (spec.horizon / grid.steps)
    return [PathSample(times=times, values=v, seed=seed, stream=stream, provenance=tag)
            for stream, v in zip(streams, values)]
