"""Distance primitives with order-independent (exact) accumulation.

The paper claims that PROCLUS, FAST-PROCLUS, FAST*-PROCLUS and all GPU
variants "produce the same clustering" when they take the same random
decisions.  Making that claim *bitwise testable* requires care: the
FAST variants build the per-dimension sums ``H`` incrementally
(Theorem 3.2) and the GPU kernels accumulate with atomics in arbitrary
thread order, so naive floating-point summation would differ between
variants and could flip discrete choices (dimension selection, argmin
assignment).

The trick used throughout this module: every summed *term* is a float32
value in ``[0, 2)`` (datasets are min-max normalized to ``[0, 1]``), and
the accumulator is float64.  A float64 accumulation of float32 terms in
that range is **exact** (no rounding) as long as the partial sums stay
below ``2^29`` — the terms carry 24-bit mantissas with granularity
``>= 2^-24``, so any partial sum needs at most ``29 + 24 = 53``
mantissa bits, precisely what float64 provides.  Exact sums are
order-independent, so the incremental ``H`` updates, the baseline's
full recomputation, and any GPU atomic ordering all yield identical
float64 values, and every downstream discrete choice matches.

This holds for up to ``2^28`` points per sum — far beyond the paper's
largest dataset (8.4 M points).  Strictly, the granularity bound holds
for coordinates on the ``2^-24`` grid of ``[0, 1]``; there the absolute
differences are multiples of ``2^-24`` and the squared differences of
the Euclidean distance multiples of ``2^-48``, so a squared distance
over up to 32 dimensions is exact as well.  Off the grid a sum is exact
unless its terms span more than 53 binary orders, which the pipeline
identity tests and the benchmark's digest checks watch on real data.

**Host data layout.**  An engine keeps one C-contiguous column-major
copy of its data per fit, ``columns = np.ascontiguousarray(data.T)`` of
shape ``(d, n)`` (see :func:`to_columns`), and the hot kernels stream
one dimension across all points at a time, like the paper's kernels:

* :func:`euclidean_to_point_columns` squares ``columns - p[:, None]``
  in float32 and sums down the dimensions in float64;
* :func:`segmental_distances_columns` accumulates ``|columns[j] - m_j|``
  over ``j in D_i`` into one float64 row per medoid.

These sum each point's float32 terms dimension by dimension, not in
the order a row-wise reduction would, so their agreement with every
other summation order (row-wise, per-thread in the emulated kernels)
rests on the exactness invariant above, as the GPU atomics and the
fleet's ``tree_merge`` do.  :func:`euclidean_to_point` and
:func:`segmental_distances` keep the row-major signatures as thin
adapters that build the column copy and call the column kernel; there
is one arithmetic implementation of each.

:func:`repro.core.phases.evaluate_clusters` does *not* use the column
layout: its centroid-relative terms ``|x - c|`` are not exactly
representable, so its float64 sums depend on order.  It keeps each
cluster's row-major member array, in ascending row order, and its
``axis=0`` reductions unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "to_columns",
    "euclidean_distances",
    "euclidean_to_point",
    "euclidean_to_point_columns",
    "abs_diff_dim_sums",
    "segmental_distances",
    "segmental_distances_columns",
    "MAX_EXACT_POINTS",
]

#: Sums of this many float32 terms in [0, 2) are exact in float64.
MAX_EXACT_POINTS = 2**28

#: Points (column slices of the ``(d, n)`` copy) processed per chunk:
#: bounds the temporary diff buffer to ~`_CHUNK_ROWS * d * 4` bytes
#: (16 MiB at d = 15), so million-point datasets never allocate a
#: full-size scratch diff.  Chunking cannot change any result — every
#: chunk's arithmetic is element-wise and the accumulation is exact.
_CHUNK_ROWS = 262_144


def to_columns(data: np.ndarray) -> np.ndarray:
    """The ``(d, n)`` C-contiguous column-major copy of ``(n, d)`` data."""
    return np.ascontiguousarray(data.T)


def euclidean_to_point_columns(columns: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Full-dimensional Euclidean distances from every point to ``point``.

    ``columns`` is the ``(d, n)`` column-major data (a column slice
    ``columns[:, start:stop]`` works too).  Terms ``(a - b)^2`` are
    computed and rounded in float32 (as CUDA kernels would), accumulated
    exactly in float64, square-rooted in float64 and finally rounded
    once to float32.  Every algorithm variant calls this same function,
    so stored distances are identical across variants.  Large inputs
    are processed in fixed-size chunks of points to bound temporary
    memory.

    Returns a float32 array of shape ``(n,)``.
    """
    point = np.asarray(point, dtype=np.float32)[:, None]
    n = columns.shape[1]
    out = np.empty(n, dtype=np.float32)
    for start in range(0, n, _CHUNK_ROWS):
        diff = columns[:, start : start + _CHUNK_ROWS] - point
        np.multiply(diff, diff, out=diff)
        sq = np.sum(diff, axis=0, dtype=np.float64)
        out[start : start + _CHUNK_ROWS] = np.sqrt(sq)
    return out


def euclidean_to_point(data: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Row-major adapter of :func:`euclidean_to_point_columns`.

    Returns a float32 array of shape ``(n,)``.
    """
    return euclidean_to_point_columns(to_columns(data), point)


def euclidean_distances(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances from every row of ``data`` to every row of ``points``.

    Returns a float32 array of shape ``(len(points), n)``.
    """
    points = np.atleast_2d(points)
    columns = to_columns(data)
    out = np.empty((points.shape[0], data.shape[0]), dtype=np.float32)
    for i, point in enumerate(points):
        out[i] = euclidean_to_point_columns(columns, point)
    return out


def abs_diff_dim_sums(points: np.ndarray, medoid: np.ndarray) -> np.ndarray:
    """Per-dimension sums ``sum_p |p_j - m_j|`` over ``points``.

    This is the quantity the ``H`` matrix stores (Eq. 5).  The absolute
    differences are float32 terms; the sum is exact in float64, so the
    incremental update of Theorem 3.2 reproduces the full sum bit for
    bit.

    Returns a float64 array of shape ``(d,)``.
    """
    if points.shape[0] == 0:
        return np.zeros(points.shape[1], dtype=np.float64)
    medoid = medoid.astype(np.float32)
    total = np.zeros(points.shape[1], dtype=np.float64)
    for start in range(0, points.shape[0], _CHUNK_ROWS):
        chunk = points[start : start + _CHUNK_ROWS]
        total += np.sum(np.abs(chunk - medoid), axis=0, dtype=np.float64)
    return total


def segmental_distances_columns(
    columns: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> np.ndarray:
    """Manhattan segmental distances from all points to each medoid.

    ``dist[p, i] = sum_{j in D_i} |p_j - m_{i,j}| / |D_i|`` — the
    measure AssignPoints and RemoveOutliers use.  ``columns`` is the
    ``(d, n)`` column-major data (or a column slice of it); each
    medoid's float32 terms ``|columns[j] - m_{i,j}|`` are accumulated
    into one float64 row of a ``(k, n)`` buffer.

    Returns the ``(n, k)`` float64 transpose view of that buffer.
    """
    n = columns.shape[1]
    out = np.zeros((len(dimensions), n), dtype=np.float64)
    term = np.empty(min(n, _CHUNK_ROWS), dtype=np.float32)
    for i, dims in enumerate(dimensions):
        medoid = medoid_points[i].astype(np.float32)
        for start in range(0, n, _CHUNK_ROWS):
            row = out[i, start : start + _CHUNK_ROWS]
            buf = term[: row.size]
            for j in dims:
                np.subtract(columns[j, start : start + _CHUNK_ROWS], medoid[j], out=buf)
                np.abs(buf, out=buf)
                np.add(row, buf, out=row)
        out[i] /= len(dims)
    return out.T


def segmental_distances(
    data: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> np.ndarray:
    """Row-major adapter of :func:`segmental_distances_columns`.

    Returns a float64 array of shape ``(n, k)``.
    """
    return segmental_distances_columns(to_columns(data), medoid_points, dimensions)
