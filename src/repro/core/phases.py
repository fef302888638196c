"""Shared phase mathematics: FindDimensions, AssignPoints, EvaluateClusters.

These functions implement the parts of PROCLUS that are *identical*
across the baseline, FAST, FAST* and GPU variants.  The variants differ
only in how they obtain the per-medoid/per-dimension average distances
``X`` (full recomputation vs. the incremental ``H`` of Theorem 3.2);
everything downstream of ``X`` is shared, which — together with the
exact accumulation in :mod:`repro.core.distance` — guarantees identical
clusterings across variants.

All discrete choices break ties deterministically (lowest index), the
convention the emulated GPU kernels follow as well.
"""

from __future__ import annotations

import numpy as np

from .distance import segmental_distances, segmental_distances_columns, to_columns

__all__ = [
    "find_dimensions",
    "assign_points",
    "assign_points_columns",
    "evaluate_clusters",
    "compute_bad_medoids",
    "find_outliers",
    "cluster_sizes_from_labels",
]


def find_dimensions(x: np.ndarray, l: int) -> tuple[tuple[int, ...], ...]:
    """Select the projected subspaces ``D_i`` from the spread matrix ``X``.

    Implements the paper's FindDimensions: for each medoid compute the
    mean ``Y_i`` and standard deviation ``sigma_i`` of its row of ``X``,
    standardize into ``Z_{i,j} = (X_{i,j} - Y_i) / sigma_i``, then pick
    the two lowest-``Z`` dimensions per medoid and distribute the
    remaining ``k*l - 2k`` picks greedily by lowest ``Z`` overall.

    Parameters
    ----------
    x:
        ``(k, d)`` float64 matrix of average distances ``X_{i,j}``.
    l:
        Average subspace size; ``k*l`` dimensions are selected in total.

    Returns
    -------
    tuple of k sorted dimension tuples.
    """
    k, d = x.shape
    y = x.mean(axis=1)
    deviation = x - y[:, None]
    if d > 1:
        sigma = np.sqrt(np.sum(deviation**2, axis=1) / (d - 1))
    else:  # pragma: no cover - guarded by l >= 2 <= d
        sigma = np.zeros(k)
    z = np.zeros_like(deviation)
    np.divide(deviation, sigma[:, None], out=z, where=sigma[:, None] > 0)

    picked = np.zeros((k, d), dtype=bool)
    # Two lowest-Z dimensions per medoid (stable sort: ties -> lowest j).
    for i in range(k):
        order = np.argsort(z[i], kind="stable")
        picked[i, order[:2]] = True

    remaining = k * l - 2 * k
    if remaining > 0:
        flat_i, flat_j = np.nonzero(~picked)
        flat_z = z[flat_i, flat_j]
        # Lowest Z first; ties -> lowest medoid, then lowest dimension.
        order = np.lexsort((flat_j, flat_i, flat_z))[:remaining]
        picked[flat_i[order], flat_j[order]] = True

    return tuple(
        tuple(int(j) for j in np.flatnonzero(picked[i])) for i in range(k)
    )


def assign_points_columns(
    columns: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to the medoid with the smallest Manhattan
    segmental distance within that medoid's subspace.

    ``columns`` is the ``(d, n)`` column-major data (see
    :mod:`repro.core.distance`).  Returns ``(labels, seg)`` where
    ``labels`` is the ``(n,)`` cluster assignment (ties -> lowest
    cluster index) and ``seg`` the ``(n, k)`` segmental-distance matrix,
    which the refinement phase reuses for outlier detection.
    """
    seg = segmental_distances_columns(columns, medoid_points, dimensions)
    labels = np.argmin(seg, axis=1).astype(np.int64)
    return labels, seg


def assign_points(
    data: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Row-major adapter of :func:`assign_points_columns`."""
    return assign_points_columns(to_columns(data), medoid_points, dimensions)


def cluster_sizes_from_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """Size of each of the ``k`` clusters (ignores negative labels)."""
    sizes = np.zeros(k, dtype=np.int64)
    valid = labels >= 0
    np.add.at(sizes, labels[valid], 1)
    return sizes


def evaluate_clusters(
    data: np.ndarray,
    labels: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> float:
    """Weighted clustering cost (Eq. 2): the size-weighted average
    Manhattan segmental distance of points to their cluster *centroid*
    within the cluster's subspace.

    Empty clusters contribute zero.  Points with negative labels
    (outliers, during refinement re-evaluation) are excluded from both
    the sums and the denominator's weights but ``|Data|`` stays the full
    dataset size, matching Eq. 2.
    """
    n = data.shape[0]
    k = len(dimensions)
    # One stable sort lays every cluster's members out as a contiguous
    # run of ``order`` in ascending row order, so each member array is
    # the one a ``labels == i`` mask would select: the centroid-relative
    # sums below are order-sensitive (see repro.core.distance).  Labels
    # outside [0, k) clip to -1 or k, which no cluster reads; the
    # narrowest signed key holding [-1, k] makes the sort a radix sort.
    key = np.clip(labels, -1, k).astype(np.min_scalar_type(-k - 1))
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(k + 1))
    total = 0.0
    for i in range(k):
        size = int(bounds[i + 1] - bounds[i])
        if size == 0:
            continue
        rows = data.take(order[bounds[i] : bounds[i + 1]], axis=0)
        members = rows[:, list(dimensions[i])]
        centroid = np.sum(members, axis=0, dtype=np.float64) / size
        v = np.sum(np.abs(members - centroid), axis=0, dtype=np.float64) / size
        w = float(v.mean())
        total += size * w
    return total / n


def compute_bad_medoids(
    sizes: np.ndarray, n: int, min_deviation: float, rule: str = "paper"
) -> np.ndarray:
    """Indices of the bad medoids of the best clustering.

    ``rule="paper"`` (this paper's Section 2.1): a medoid is bad when
    its cluster holds fewer than ``n/k * min_deviation`` points; if no
    medoid is that starved, the single smallest cluster's medoid is bad
    (ties -> lowest index).

    ``rule="original"`` (Aggarwal et al. 1999): the smallest cluster's
    medoid is *always* bad, in addition to every below-threshold one.
    """
    k = len(sizes)
    threshold = n / k * min_deviation
    bad = np.flatnonzero(sizes < threshold)
    if rule == "original":
        smallest = int(np.argmin(sizes))
        if smallest not in bad:
            bad = np.sort(np.append(bad, smallest))
    elif bad.size == 0:
        bad = np.array([int(np.argmin(sizes))], dtype=np.int64)
    return bad


def find_outliers(
    seg: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> np.ndarray:
    """Boolean outlier mask for the refinement phase.

    For each medoid ``m_i`` the sphere radius is
    ``Delta_i = min_{j != i} ||m_i - m_j||_1^{D_i} / |D_i|`` (segmental
    distance to the closest other medoid in ``m_i``'s own subspace).  A
    point is an outlier when it lies outside every medoid's sphere.
    With ``k == 1`` there is no other medoid, the radius is infinite and
    no point is an outlier.

    Parameters
    ----------
    seg:
        ``(n, k)`` segmental distances from :func:`assign_points`.
    medoid_points:
        ``(k, d)`` medoid coordinates.
    dimensions:
        The k subspaces.
    """
    k = medoid_points.shape[0]
    medoid_seg = segmental_distances(medoid_points, medoid_points, dimensions)
    np.fill_diagonal(medoid_seg, np.inf)
    delta = medoid_seg.min(axis=0)  # delta[i] = min_j seg(m_j -> m_i in D_i)
    return np.all(seg > delta[None, :], axis=1)
