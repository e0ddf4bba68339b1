import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import Dataset, SparseVector, ValidationError
from dpjoin.sparse_data import (load_dataset, page_request_set,
                                set_diff_cardinality, store_dataset)


def vec(tid, indexes, values=None, label=None):
    if values is None:
        values = [1.0] * len(indexes)
    return SparseVector(tid, label, np.array(indexes, dtype=np.uint64),
                        np.array(values, dtype=np.float64))


class TestSparseVector:
    def test_valid(self):
        vec(1, [0, 5, 9], [1.0, -2.0, 3.0]).validate(10)

    def test_descending_rejected(self):
        with pytest.raises(ValidationError):
            vec(1, [5, 2]).validate(10)

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            vec(1, [3, 3]).validate(10)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError):
            vec(1, [0, 10]).validate(10)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            vec(1, []).validate(10)

    def test_length_mismatch_rejected(self):
        v = SparseVector(1, None, np.array([1, 2], dtype=np.uint64),
                         np.array([1.0]))
        with pytest.raises(ValidationError):
            v.validate(10)

    def test_nnz(self):
        assert vec(1, [2, 4, 6]).nnz == 3


def test_page_request_set():
    v = vec(1, [0, 1, 5, 6, 11])
    assert page_request_set(v, 2) == (0, 2, 3, 5)
    assert page_request_set(v, 4) == (0, 1, 2)
    assert page_request_set(v, 100) == (0,)


def test_set_diff_cardinality():
    assert set_diff_cardinality((0, 1, 2), (1, 2, 3)) == 1
    assert set_diff_cardinality((0, 1), (0, 1)) == 0
    assert set_diff_cardinality((4, 5), ()) == 2


def test_dataset_duplicate_tid_rejected():
    ds = Dataset(dimension=10, vectors=[vec(1, [0]), vec(1, [1])])
    with pytest.raises(ValidationError):
        ds.validate()


def test_iter_upages():
    ds = Dataset(dimension=10, vectors=[vec(i, [i]) for i in range(7)])
    chunks = list(ds.iter_upages(3))
    assert [start for start, _ in chunks] == [0, 3, 6]
    assert [len(c) for _, c in chunks] == [3, 3, 1]
    flat = [v.tid for _, c in chunks for v in c]
    assert flat == [v.tid for v in ds]


@pytest.mark.parametrize("fmt", ["bin", "txt"])
def test_round_trip(tmp_path, fmt):
    vectors = [
        vec(1, [0, 3, 7], [0.5, -1.25, 3.0], label=1.0),
        vec(2, [2], [1e-30], label=-1.0),
        vec(9, [0, 9], [123456.789, -0.001]),
    ]
    ds = Dataset(dimension=10, vectors=vectors)
    path = str(tmp_path / f"d.{fmt}")
    store_dataset(ds, path, fmt=fmt)
    back = load_dataset(path, fmt=fmt)
    assert back.dimension == 10
    assert back.matrix_shape is None
    assert len(back) == 3
    for a, b in zip(ds, back):
        assert a.tid == b.tid
        assert a.label == b.label
        assert np.array_equal(a.indexes, b.indexes)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("fmt", ["bin", "txt"])
def test_round_trip_matrix_shape(tmp_path, fmt):
    ds = Dataset(dimension=16, vectors=[vec(1, [0, 8], [1.0, 1.0], label=2.5)],
                 matrix_shape=(2, 2, 4))
    path = str(tmp_path / f"m.{fmt}")
    store_dataset(ds, path, fmt=fmt)
    back = load_dataset(path, fmt=fmt)
    assert back.matrix_shape == (2, 2, 4)


@pytest.mark.parametrize("fmt", ["bin", "txt"])
def test_load_closes_the_file(tmp_path, fmt):
    path = str(tmp_path / f"d.{fmt}")
    store_dataset(Dataset(dimension=4, vectors=[vec(1, [0, 3], label=1.0)]), path, fmt=fmt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        load_dataset(path, fmt=fmt)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_load_rejects_garbage(tmp_path):
    from dpjoin import StoreError
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 40)
    with pytest.raises(StoreError):
        load_dataset(str(path), fmt="bin")


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sets(st.integers(0, 499), min_size=1, max_size=12),
              st.floats(allow_nan=False, allow_infinity=False, width=64),
              st.sampled_from([None, -1.0, 1.0])),
    min_size=1, max_size=10))
def test_binary_round_trip_property(tmp_path_factory, rows):
    vectors = []
    for i, (idx, val, label) in enumerate(rows):
        idx = sorted(idx)
        vectors.append(vec(i + 1, idx, [val] * len(idx), label))
    ds = Dataset(dimension=500, vectors=vectors)
    path = str(tmp_path_factory.mktemp("rt") / "d.bin")
    store_dataset(ds, path, fmt="bin")
    back = load_dataset(path, fmt="bin")
    for a, b in zip(ds, back):
        assert a.tid == b.tid
        assert np.array_equal(a.indexes, b.indexes)
        # bit-exact, including signed zero and subnormals
        assert a.values.tobytes() == b.values.tobytes()
        assert a.label == b.label


@pytest.mark.parametrize("text, named", [
    ("# d=abc\n1 1.0 0:1.0\n", "d=abc"),
    ("# matrix=1,2\n1 1.0 0:1.0\n", "matrix=1,2"),
    ("1 1.0 -3:1.0\n", "index -3"),
    ("1 1.0 99999999999999999999999:1.0\n", "index 99999999999999999999999"),
])
def test_load_text_rejects_bad_input_naming_the_line(tmp_path, text, named):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        load_dataset(str(path), fmt="txt")
    message = str(err.value)
    assert f"{path}:1:" in message
    assert named in message
    assert "18446744073709551613" not in message
