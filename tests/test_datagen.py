import numpy as np
import pytest
from scipy import stats

from dpjoin import ValidationError
from dpjoin.datagen import (DEMO_DIMENSION, DEMO_PAGE_SIZE, GENERATORS,
                            gen_demo, gen_matrix, gen_skewed, gen_uniform)
from dpjoin.sparse_data import page_request_set


class TestUniform:
    def test_shapes_and_validity(self):
        ds = gen_uniform(50, 1000, 8, seed=3)
        ds.validate()
        assert len(ds) == 50
        assert ds.dimension == 1000
        for v in ds:
            assert v.nnz == 8
            assert v.label in (-1.0, 1.0)
            assert (np.diff(v.indexes.astype(np.int64)) > 0).all()

    def test_deterministic(self):
        a = gen_uniform(20, 500, 5, seed=11)
        b = gen_uniform(20, 500, 5, seed=11)
        for va, vb in zip(a, b):
            assert np.array_equal(va.indexes, vb.indexes)
            assert np.array_equal(va.values, vb.values)
            assert va.label == vb.label

    def test_seed_changes_output(self):
        a = gen_uniform(20, 500, 5, seed=1)
        b = gen_uniform(20, 500, 5, seed=2)
        assert any(not np.array_equal(va.indexes, vb.indexes)
                   for va, vb in zip(a, b))

    def test_labels_not_constant(self):
        ds = gen_uniform(200, 1000, 8, seed=5)
        labels = {v.label for v in ds}
        assert labels == {-1.0, 1.0}


class TestSkewed:
    def test_validity_and_mean_nnz(self):
        ds = gen_skewed(400, 10_000, 12, s=1.0, seed=7)
        ds.validate()
        mean_nnz = sum(v.nnz for v in ds) / len(ds)
        assert 10.5 < mean_nnz < 13.5

    def test_nnz_avg_above_d_saturates(self):
        ds = gen_skewed(20, 5, 10, seed=3)
        assert max(v.nnz for v in ds) == 5
        with pytest.raises(ValidationError):
            gen_skewed(20, 5, 2**62, seed=3)

    @pytest.mark.parametrize("s", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_skew_exponent_that_is_not_finite_and_positive(self, s):
        with pytest.raises(ValidationError, match="skew exponent"):
            gen_skewed(50, 1000, 8, s=s, seed=1)

    def test_deterministic(self):
        a = gen_skewed(50, 5000, 6, seed=13)
        b = gen_skewed(50, 5000, 6, seed=13)
        for va, vb in zip(a, b):
            assert np.array_equal(va.indexes, vb.indexes)

    def test_frequency_follows_power_law(self):
        """Log-log regression of hit count against popularity rank.

        With exponent 1.0 the slope should sit near -1; the fit is noisy
        at the tail so only the best-sampled head ranks are used.
        """
        ds = gen_skewed(3000, 100_000, 20, s=1.0, seed=17)
        counts = np.zeros(100_000)
        for v in ds:
            counts[v.indexes.astype(np.int64)] += 1
        head = np.sort(counts)[::-1][:50]
        assert head[0] > 100
        ranks = np.arange(1, 51)
        slope = stats.linregress(np.log(ranks), np.log(head)).slope
        assert -1.25 < slope < -0.75

    def test_hot_indexes_contiguous_by_default(self):
        ds = gen_skewed(2000, 100_000, 10, s=1.0, seed=19)
        counts = np.zeros(100_000)
        for v in ds:
            counts[v.indexes.astype(np.int64)] += 1
        # rank r is index r-1, so the most popular index is index 0
        assert counts.argmax() == 0
        assert counts[:100].sum() > 0.3 * counts.sum()

    def test_rejection_path_beyond_table_limit(self):
        # d above the cumulative-table cutoff takes the rejection sampler
        ds = gen_skewed(30, 20_000_001, 5, s=1.0, seed=23)
        ds.validate()
        again = gen_skewed(30, 20_000_001, 5, s=1.0, seed=23)
        for va, vb in zip(ds, again):
            assert np.array_equal(va.indexes, vb.indexes)


class TestMatrix:
    def test_shapes_and_coverage(self):
        ds = gen_matrix(15, 9, 60, 4, seed=3)
        ds.validate()
        assert ds.matrix_shape == (15, 9, 4)
        assert ds.dimension == (15 + 9) * 4
        assert len(ds) == 60
        rows, cols, cells = set(), set(), set()
        for v in ds:
            assert v.nnz == 8
            assert (v.values == 1.0).all()
            assert np.isfinite(v.label)
            i = int(v.indexes[0]) // 4
            j = (int(v.indexes[4]) - 15 * 4) // 4
            rows.add(i)
            cols.add(j)
            assert (i, j) not in cells
            cells.add((i, j))
        assert rows == set(range(15))
        assert cols == set(range(9))

    def test_cell_count_bounds(self):
        with pytest.raises(ValidationError):
            gen_matrix(10, 10, 9, 2)           # fewer cells than rows
        with pytest.raises(ValidationError):
            gen_matrix(3, 3, 10, 2)            # more cells than the grid

    def test_ratings_carry_signal(self):
        # planted factors plus small noise: ratings must not be constant
        ds = gen_matrix(20, 20, 100, 6, seed=9)
        ratings = np.array([v.label for v in ds])
        assert ratings.std() > 0.1


def test_demo_corpus_frozen():
    ds = gen_demo()
    assert ds.dimension == DEMO_DIMENSION == 6
    assert DEMO_PAGE_SIZE == 2
    assert [v.tid for v in ds] == [1, 2, 3, 4, 5, 6, 7, 8]
    sets = [page_request_set(v, DEMO_PAGE_SIZE) for v in ds]
    assert sets == [(0, 1), (1, 2), (0, 1), (1, 2),
                    (0, 1), (0, 2), (0, 2), (1, 2)]
    # dot products against the all-ones model, fixed forever
    expected = {1: 13.0, 2: 3.0, 3: 3.0, 4: 6.0, 5: 4.0, 6: 4.0, 7: 5.0, 8: 4.0}
    ones = np.ones(6)
    for v in ds:
        dp = float(sum(float(x) * ones[int(i)] for i, x in
                       zip(v.indexes, v.values)))
        assert dp == expected[v.tid]


def test_generator_registry():
    assert set(GENERATORS) == {"uniform", "skewed", "matrix", "demo"}
