"""Tests for the exact-accumulation distance primitives.

The order-independence (exactness) of these sums is the property that
makes the paper's "all variants produce the same clustering" claim
bitwise-testable; these tests exercise it directly.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import distance, phases
from repro.core.distance import (
    MAX_EXACT_POINTS,
    abs_diff_dim_sums,
    euclidean_distances,
    euclidean_to_point,
    segmental_distances,
)
from repro.core.greedy import greedy_select

unit_floats = st.floats(0.0, 1.0, width=32)


def unit_matrix(max_n=40, max_d=8):
    return hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                               max_side=max_n).filter(lambda s: s[1] <= max_d),
        elements=unit_floats,
    )


class TestEuclidean:
    def test_distance_to_self_is_zero(self):
        data = np.random.default_rng(0).random((50, 6), dtype=np.float32)
        d = euclidean_to_point(data, data[13])
        assert d[13] == 0.0

    def test_matches_numpy_reference(self):
        data = np.random.default_rng(1).random((100, 5), dtype=np.float32)
        point = data[0]
        ref = np.linalg.norm(data.astype(np.float64) - point.astype(np.float64), axis=1)
        got = euclidean_to_point(data, point)
        assert np.allclose(got, ref, atol=1e-5)

    def test_returns_float32(self):
        data = np.random.default_rng(2).random((10, 3), dtype=np.float32)
        assert euclidean_to_point(data, data[0]).dtype == np.float32

    def test_euclidean_distances_stacks_rows(self):
        data = np.random.default_rng(3).random((30, 4), dtype=np.float32)
        points = data[:5]
        full = euclidean_distances(data, points)
        assert full.shape == (5, 30)
        for i in range(5):
            assert np.array_equal(full[i], euclidean_to_point(data, points[i]))

    def test_single_point_promoted_to_2d(self):
        data = np.random.default_rng(4).random((10, 3), dtype=np.float32)
        out = euclidean_distances(data, data[2])
        assert out.shape == (1, 10)

    @given(unit_matrix())
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, data):
        d_ab = euclidean_to_point(data, data[0])
        d_from_each = np.array(
            [euclidean_to_point(data[i : i + 1], data[0])[0] for i in range(len(data))]
        )
        assert np.array_equal(d_ab, d_from_each)


class TestExactness:
    """Sums of f32 terms in [0, 2) accumulate exactly in f64."""

    def test_dim_sums_order_independent(self):
        rng = np.random.default_rng(5)
        points = rng.random((500, 6), dtype=np.float32)
        medoid = points[0]
        full = abs_diff_dim_sums(points, medoid)
        # Any permutation must give the bitwise-identical sum.
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(points))
            assert np.array_equal(abs_diff_dim_sums(points[perm], medoid), full)

    def test_dim_sums_split_and_recombine(self):
        """The incremental-H identity: sum(A ∪ B) == sum(A) + sum(B)."""
        rng = np.random.default_rng(6)
        points = rng.random((301, 4), dtype=np.float32)
        medoid = rng.random(4, dtype=np.float32)
        for cut in (1, 57, 150, 300):
            a = abs_diff_dim_sums(points[:cut], medoid)
            b = abs_diff_dim_sums(points[cut:], medoid)
            assert np.array_equal(a + b, abs_diff_dim_sums(points, medoid))

    def test_dim_sums_removal_is_exact(self):
        """sum(A ∪ B) - sum(B) == sum(A): the shrink branch of Thm 3.2."""
        rng = np.random.default_rng(7)
        points = rng.random((200, 5), dtype=np.float32)
        medoid = rng.random(5, dtype=np.float32)
        whole = abs_diff_dim_sums(points, medoid)
        part = abs_diff_dim_sums(points[120:], medoid)
        assert np.array_equal(whole - part, abs_diff_dim_sums(points[:120], medoid))

    def test_empty_set_sums_to_zero(self):
        out = abs_diff_dim_sums(np.zeros((0, 4), dtype=np.float32), np.zeros(4, dtype=np.float32))
        assert out.shape == (4,)
        assert np.all(out == 0.0)

    @given(unit_matrix(max_n=30, max_d=5), st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_property_split_identity(self, points, cut):
        cut = min(cut, points.shape[0])
        medoid = points[0]
        a = abs_diff_dim_sums(points[:cut], medoid)
        b = abs_diff_dim_sums(points[cut:], medoid)
        assert np.array_equal(a + b, abs_diff_dim_sums(points, medoid))

    def test_max_exact_points_documented_bound(self):
        assert MAX_EXACT_POINTS == 2**28


class TestSegmental:
    def test_segmental_is_mean_abs_difference(self):
        data = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], dtype=np.float32)
        medoids = np.array([[0.0, 0.0, 0.0]], dtype=np.float32)
        seg = segmental_distances(data, medoids, ((0, 2),))
        assert seg.shape == (2, 1)
        assert seg[0, 0] == 0.0
        assert seg[1, 0] == pytest.approx(1.0)

    def test_uses_only_selected_dimensions(self):
        data = np.array([[0.0, 9.0], [0.0, 0.0]], dtype=np.float32)
        medoids = np.array([[0.0, 0.0]], dtype=np.float32)
        seg = segmental_distances(data, medoids, ((0,),))
        assert seg[0, 0] == 0.0  # dim 1's big difference is ignored

    def test_normalizes_by_subspace_size(self):
        data = np.array([[1.0, 1.0, 1.0, 1.0]], dtype=np.float32)
        medoids = np.array([[0.0, 0.0, 0.0, 0.0]], dtype=np.float32)
        one = segmental_distances(data, medoids, ((0,),))[0, 0]
        four = segmental_distances(data, medoids, ((0, 1, 2, 3),))[0, 0]
        assert one == pytest.approx(four)

    def test_multiple_medoids_different_subspaces(self):
        data = np.random.default_rng(8).random((20, 5), dtype=np.float32)
        medoids = data[:2]
        seg = segmental_distances(data, medoids, ((0, 1), (2, 3, 4)))
        assert seg.shape == (20, 2)
        assert seg[0, 0] == 0.0
        assert seg[1, 1] == 0.0


# ----------------------------------------------------------------------
# Column kernels vs the row-major loops they replaced
# ----------------------------------------------------------------------
# The oracle below is a test-only copy of the row-major arithmetic the
# column kernels replaced.  The kernels reorder the float64 sums, so
# they are bit-identical only where the exactness invariant holds:
# float32 coordinates on the 2^-24 grid of [0, 1] (squared terms are
# multiples of 2^-48, so up to 32 dimensions sum exactly).


def _rows_euclidean_to_point(data, point):
    diff = data - point.astype(np.float32)
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.sum(diff, axis=1, dtype=np.float64)).astype(np.float32)


def _rows_segmental_distances(data, medoid_points, dimensions):
    out = np.empty((data.shape[0], medoid_points.shape[0]), dtype=np.float64)
    for i, dims in enumerate(dimensions):
        dims = list(dims)
        diff = np.abs(data[:, dims] - medoid_points[i, dims].astype(np.float32))
        out[:, i] = np.sum(diff, axis=1, dtype=np.float64) / len(dims)
    return out


def _rows_greedy_select(sample, count, seed_index):
    chosen = np.empty(count, dtype=np.int64)
    chosen[0] = seed_index
    min_dist = _rows_euclidean_to_point(sample, sample[seed_index])
    for i in range(1, count):
        nxt = int(np.argmax(min_dist))
        chosen[i] = nxt
        np.minimum(min_dist, _rows_euclidean_to_point(sample, sample[nxt]),
                   out=min_dist)
    return chosen


def _mask_evaluate_clusters(data, labels, dimensions):
    total = 0.0
    for i, dims in enumerate(dimensions):
        members = data[labels == i][:, list(dims)]
        size = members.shape[0]
        if size == 0:
            continue
        centroid = np.sum(members, axis=0, dtype=np.float64) / size
        v = np.sum(np.abs(members - centroid), axis=0, dtype=np.float64) / size
        total += size * float(v.mean())
    return total / data.shape[0]


#: Coordinates on the 2^-24 grid of [0, 1], exact 0 and 1 included; a
#: coarse share makes ties between medoids common.
grid_floats = st.one_of(
    st.integers(0, 2**24).map(lambda i: i / 2**24),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)


@st.composite
def grid_problem(draw, max_n=24, max_d=32, max_k=4):
    """(data, medoid_points, dimensions, chunk) on the 2^-24 grid."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    data = draw(hnp.arrays(np.float32, (n, d), elements=grid_floats))
    k = draw(st.integers(1, max_k))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    dimensions = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))))
        for _ in range(k)
    )
    chunk = draw(st.integers(1, n + 1))
    return data, data[rows], dimensions, chunk


def _shard_bounds(n, cuts):
    bounds = sorted({0, n, *(min(cut, n) for cut in cuts)})
    return list(zip(bounds[:-1], bounds[1:]))


GRID_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


@given(grid_problem(), st.lists(st.integers(0, 24), max_size=3))
@GRID_SETTINGS
def test_columns_euclidean_matches_rows(problem, cuts):
    data, medoids, _, chunk = problem
    columns = distance.to_columns(data)
    with mock.patch.object(distance, "_CHUNK_ROWS", chunk):
        for point in medoids:
            expected = _rows_euclidean_to_point(data, point)
            got = distance.euclidean_to_point_columns(columns, point)
            assert got.dtype == np.float32
            assert np.array_equal(got, expected)
            assert np.array_equal(
                distance.euclidean_to_point(data, point), expected
            )
            for start, stop in _shard_bounds(len(data), cuts):
                assert np.array_equal(
                    distance.euclidean_to_point_columns(
                        columns[:, start:stop], point
                    ),
                    expected[start:stop],
                )


@given(grid_problem(), st.lists(st.integers(0, 24), max_size=3))
@GRID_SETTINGS
def test_columns_segmental_and_assignment_match_rows(problem, cuts):
    data, medoids, dims, chunk = problem
    columns = distance.to_columns(data)
    expected = _rows_segmental_distances(data, medoids, dims)
    with mock.patch.object(distance, "_CHUNK_ROWS", chunk):
        seg = distance.segmental_distances_columns(columns, medoids, dims)
        assert seg.shape == expected.shape
        assert np.array_equal(seg, expected)
        assert np.array_equal(
            distance.segmental_distances(data, medoids, dims), expected
        )
        for start, stop in _shard_bounds(len(data), cuts):
            labels, part = phases.assign_points_columns(
                columns[:, start:stop], medoids, dims
            )
            assert np.array_equal(part, expected[start:stop])
            assert np.array_equal(
                labels, np.argmin(expected[start:stop], axis=1)
            )


@given(grid_problem(max_n=40, max_k=1), st.data())
@GRID_SETTINGS
def test_columns_greedy_matches_rows(problem, extra):
    data, _, _, chunk = problem
    count = extra.draw(st.integers(1, len(data)))
    seed_index = extra.draw(st.integers(0, len(data) - 1))
    with mock.patch.object(distance, "_CHUNK_ROWS", chunk):
        assert np.array_equal(
            greedy_select(data, count, seed_index),
            _rows_greedy_select(data, count, seed_index),
        )


@given(grid_problem(max_k=1), st.integers(1, 5), st.data())
@GRID_SETTINGS
def test_evaluate_clusters_matches_masks(problem, k, extra):
    data, _, _, _ = problem
    n, d = data.shape
    # Labels from a prefix of the clusters, so later ones stay empty.
    used = extra.draw(st.integers(0, k))
    labels = np.array(
        extra.draw(st.lists(st.integers(-1, used - 1), min_size=n,
                           max_size=n)),
        dtype=np.int64,
    )
    dims = tuple(
        tuple(sorted(extra.draw(st.sets(st.integers(0, d - 1), min_size=1))))
        for _ in range(k)
    )
    assert phases.evaluate_clusters(data, labels, dims) == (
        _mask_evaluate_clusters(data, labels, dims)
    )


# Negative controls: the differential tests above must catch a kernel
# that accumulates in float32 or breaks argmin ties toward the highest
# medoid index.


def _float32_euclidean(columns, point):
    diff = columns - np.asarray(point, dtype=np.float32)[:, None]
    return np.sqrt(np.sum(diff * diff, axis=0, dtype=np.float32))


def _float32_segmental(columns, medoid_points, dimensions):
    out = np.zeros((len(dimensions), columns.shape[1]), dtype=np.float32)
    for i, dims in enumerate(dimensions):
        medoid = medoid_points[i].astype(np.float32)
        for j in dims:
            out[i] += np.abs(columns[j] - medoid[j])
        out[i] /= len(dims)
    return out.astype(np.float64).T


def _highest_index_assignment(columns, medoid_points, dimensions):
    seg = distance.segmental_distances_columns(columns, medoid_points, dimensions)
    k = seg.shape[1]
    return (k - 1 - np.argmin(seg[:, ::-1], axis=1)).astype(np.int64), seg


@pytest.mark.parametrize("module, name, mutant, test", [
    (distance, "euclidean_to_point_columns", _float32_euclidean,
     test_columns_euclidean_matches_rows),
    (distance, "segmental_distances_columns", _float32_segmental,
     test_columns_segmental_and_assignment_match_rows),
    (phases, "assign_points_columns", _highest_index_assignment,
     test_columns_segmental_and_assignment_match_rows),
], ids=["float32-euclidean", "float32-segmental", "highest-index-ties"])
def test_differential_tests_catch_mutant(module, name, mutant, test,
                                         monkeypatch):
    monkeypatch.setattr(module, name, mutant)
    with pytest.raises(AssertionError):
        test()
