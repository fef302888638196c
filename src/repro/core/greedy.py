"""Greedy selection of potential medoids (initialization phase).

PROCLUS greedily picks ``B*k`` potential medoids from the sample
``Data'``: starting from a random seed point, it repeatedly adds the
point whose distance to the already-picked set is largest (a maximin /
farthest-first traversal), which spreads the potential medoids far
apart — the property the FAST strategies later exploit ("the set L_i
only changes for a fraction of the points between iterations since the
potential medoids are selected to be far apart").

Ties in the arg-max are broken toward the lowest index.  CUDA's
Algorithm 2 resolves ties by racing writes; fixing a deterministic rule
lets every variant (and the SIMT-emulated kernel, which adopts the same
rule) produce identical medoid sets.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from .distance import euclidean_to_point_columns, to_columns

__all__ = ["greedy_select"]


def greedy_select(sample: np.ndarray, count: int, seed_index: int) -> np.ndarray:
    """Greedily pick ``count`` far-apart points from ``sample``.

    Parameters
    ----------
    sample:
        ``(s, d)`` float32 array (the random sample ``Data'``).
    count:
        Number of potential medoids ``B*k`` to pick.
    seed_index:
        Index into ``sample`` of the randomly chosen first medoid.

    Returns
    -------
    numpy.ndarray
        ``(count,)`` int64 indices into ``sample``; the first entry is
        ``seed_index``.
    """
    s = sample.shape[0]
    if not 0 < count <= s:
        raise ParameterError(f"cannot pick {count} medoids from a sample of {s}")
    if not 0 <= seed_index < s:
        raise ParameterError(f"seed index {seed_index} out of range [0, {s})")

    chosen = np.empty(count, dtype=np.int64)
    chosen[0] = seed_index
    columns = to_columns(sample)
    # Distance from every sample point to its closest chosen medoid.
    min_dist = euclidean_to_point_columns(columns, sample[seed_index])
    for i in range(1, count):
        nxt = int(np.argmax(min_dist))  # ties -> lowest index
        chosen[i] = nxt
        np.minimum(
            min_dist, euclidean_to_point_columns(columns, sample[nxt]), out=min_dist
        )
    return chosen
