"""Sampling of chaos-process trajectories from discretized kernels.

A path draws a Gaussian field, takes its Hermite transform, filters it in
time and weights it, as ``KernelDiscretization.path_model`` and
``path_weight`` say for each order.  Every call samples in
``min(workers, count)`` worker processes.  The caller finishes the path
model and makes the scale's refusals that need no sum, then opens the pool;
the workers inherit the model and only draw and transform, at weight 1,
while the caller sums the scale.  One step (``_weigh``) weights every path,
serial or pooled, in place, and writes a zero product as +0.0.  Each path
owns stream ``(seed, stream_index)`` of a counter-based generator, so a path
is bitwise the same for any worker count.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .chaos import _philox_key, hermite_he, philox_stream
from .kernels import KernelDiscretization
from .kernels import fftconvolve  # noqa: F401  (chaosbench/bench_trace.py hooks this name)
from .regularity import PathSample

__all__ = ["provenance_tag", "sample_path_values", "sample_paths"]


def provenance_tag(kd):
    """Hash of what ``kd``'s paths read (``path_model.reads``)."""
    payload = json.dumps(kd.path_model.reads, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _weigh(values, weight):
    """``values`` times ``weight`` in place, a zero product +0.0 (-0.0 + 0.0 is +0.0)."""
    values *= weight
    values += 0.0
    return values


def sample_path_values(kd, xi, weight=None):
    """Process values at all grid time points for one draw of
    ``kd.path_normals`` Gaussians, at ``weight`` (``kd.path_weight`` if None)."""
    model = kd.path_model
    xi = np.asarray(xi, dtype=float)
    if xi.size != model.normals:
        raise ValueError(f"need {model.normals} Gaussians per path, got {xi.size}")
    n = kd.spec.order
    z, norms = model.draw(xi)
    return _weigh(model.filter(norms**n * hermite_he(n, z / norms)), kd.path_weight if weight is None else weight)


_WORKER_KD = None


def _init_worker(kd):
    global _WORKER_KD
    _WORKER_KD = kd


def _worker_chunk(seed, streams):
    """Path values of ``streams`` at weight 1 (an exact product), in order;
    each path draws its own stream."""
    kd = _WORKER_KD
    return [sample_path_values(kd, philox_stream(seed, s).standard_normal(kd.path_normals), 1.0) for s in streams]


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
    # The caller refuses a scale it cannot sum, then builds the path model
    # that the workers inherit: under fork without a copy, under spawn or
    # forkserver pickled once each, before the scale exists.
    kd.check_scale()
    kd.path_model
    # numpy loads numpy.random at the first draw; loaded here, forked workers
    # inherit it instead of each loading it on its first philox_stream
    import numpy.random  # noqa: F401
    values = [None] * count
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(kd,)) as pool:
        chunks = pool.map(_worker_chunk, [seed] * workers, [streams[w::workers] for w in range(workers)])
        weight = kd.path_weight  # the scale's sum, while the workers draw
        for w, chunk in enumerate(chunks):
            values[w::workers] = chunk
    tag = provenance_tag(kd)
    times = np.arange(grid.steps + 1) * (spec.horizon / grid.steps)
    return [PathSample(times=times, values=_weigh(v, weight), seed=seed, stream=stream, provenance=tag)
            for stream, v in zip(streams, values)]
