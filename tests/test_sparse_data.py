import gc
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import Dataset, SparseVector, StoreError, ValidationError, datagen
from dpjoin.sparse_data import load_dataset, page_request_set, store_dataset


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


@pytest.mark.parametrize("tid", [-1, 2**64])
def test_a_tid_outside_64_bits_is_refused(tmp_path, tid):
    with pytest.raises(ValidationError, match=rf"^tid {tid} out of range \[0, 2\*\*64\)$"):
        Dataset(10, [vec(5, [2]), vec(tid, [1])])
    path = tmp_path / "t.txt"
    path.write_text(f"# d=10\n5 1.0 2:1.0\n{tid} 1.0 1:2.0\n")
    with pytest.raises(ValidationError) as err:
        load_dataset(str(path), fmt="txt")
    assert str(err.value) == f"{path}:3: tid {tid} out of range [0, 2**64)"


def test_text_tids_keep_all_64_bits(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(f"# d=10\n{2**64 - 1} 1.0 1:2.0\n{2**63} 1.0 1:2.0\n5 1.0 2:1.0\n")
    ds = load_dataset(str(path), fmt="txt")
    assert ds.tids.dtype == np.uint64
    assert [v.tid for v in ds] == [2**64 - 1, 2**63, 5]
    store_dataset(ds, str(tmp_path / "t.bin"))
    assert load_dataset(str(tmp_path / "t.bin")).tids.tolist() == [2**64 - 1, 2**63, 5]


# -- the binary layout: a header, then the CSR arrays ----------------------------

_HEADER = struct.Struct("<8sIQQQQQQ")
_COUNT, _ENTRIES, _INDPTR = 20, 28, 60  # byte offsets in a binary dataset file


def pack_columns(records, dimension=1000, version=3, matrix=(0, 0, 0)):
    """A binary dataset file of `records`, each (tid, label bits, indexes,
    value bits), the label and values given as uint64 patterns: the header,
    then indptr, tids, labels, indices and values."""
    indptr = np.zeros(len(records) + 1, dtype="<i8")
    np.cumsum([len(indexes) for _, _, indexes, _ in records], out=indptr[1:])
    columns = ([tid for tid, _, _, _ in records], [label for _, label, _, _ in records],
               [i for _, _, indexes, _ in records for i in indexes],
               [v for _, _, _, values in records for v in values])
    return b"".join([_HEADER.pack(b"DPJDATA\x00", version, dimension, len(records),
                                  int(indptr[-1]), *matrix), indptr.tobytes()]
                    + [np.array(column, dtype="<u8").tobytes() for column in columns])


_bits = st.integers(0, 2**64 - 1)


@st.composite
def _datasets(draw):
    """(records, dimension, matrix shape or (0, 0, 0)): any 64-bit tids,
    labels and values as bit patterns (NaN payloads and signed zeros
    included), possibly no vector at all."""
    matrix = draw(st.sampled_from([(0, 0, 0), None]) | st.tuples(
        st.integers(1, 60), st.integers(1, 60), st.integers(1, 8)))
    if matrix is None:
        matrix, dimension = (0, 0, 0), draw(st.integers(1, 2**64 - 1))
    elif matrix == (0, 0, 0):
        dimension = draw(st.integers(1, 1000))
    else:
        dimension = (matrix[0] + matrix[1]) * matrix[2]
    rows = draw(st.lists(st.tuples(_bits, _bits, st.sets(
        st.integers(0, dimension - 1), min_size=1, max_size=40)),
        max_size=12, unique_by=lambda row: row[0]))
    records = [(tid, label, sorted(indexes),
                draw(st.lists(_bits, min_size=len(indexes), max_size=len(indexes))))
               for tid, label, indexes in rows]
    return records, dimension, matrix


@settings(max_examples=60, deadline=None)
@given(_datasets())
def test_store_then_load_is_bit_identical(tmp_path_factory, drawn):
    records, dimension, matrix = drawn
    raw = pack_columns(records, dimension, matrix=matrix)
    path = tmp_path_factory.mktemp("rt") / "d.bin"
    path.write_bytes(raw)
    loaded = load_dataset(str(path))
    assert loaded.dimension == dimension
    assert loaded.matrix_shape == (None if matrix == (0, 0, 0) else matrix)
    assert loaded.tids.tolist() == [tid for tid, _, _, _ in records]
    assert all(type(vector.tid) is int for vector in loaded)
    assert loaded.labels.view("<u8").tolist() == [label for _, label, _, _ in records]
    assert loaded.indices.tolist() == [i for _, _, indexes, _ in records for i in indexes]
    assert loaded.values.view("<u8").tolist() == [v for _, _, _, values in records
                                                  for v in values]
    again = path.with_name("again.bin")
    store_dataset(loaded, str(again))
    assert again.read_bytes() == raw


@pytest.mark.parametrize("dataset", [
    datagen.gen_uniform(50, 300, 5, seed=1), datagen.gen_skewed(50, 300, 6, seed=1),
    datagen.gen_matrix(6, 5, 20, 3, seed=1), datagen.gen_demo()], ids=datagen.GENERATORS)
def test_generated_datasets_store_and_load_bit_identically(tmp_path, dataset):
    path = tmp_path / "d.bin"
    store_dataset(dataset, str(path))
    loaded = load_dataset(str(path))
    assert (loaded.dimension, loaded.matrix_shape) == (dataset.dimension, dataset.matrix_shape)
    for name in ("indptr", "tids", "labels", "indices", "values"):
        assert getattr(loaded, name).tobytes() == getattr(dataset, name).tobytes()


def _ones(n):
    return [0x3FF0000000000000] * n  # bit pattern of 1.0


def _with(raw, at, value, fmt="<Q"):
    """`raw` with the field of format `fmt` at byte `at` set to `value`."""
    return raw[:at] + struct.pack(fmt, value) + raw[at + struct.calcsize(fmt):]


def _size(count, entries):
    """The size of a binary dataset file of `count` vectors and `entries` entries."""
    return _HEADER.size + 8 * (count + 1) + 16 * count + 16 * entries


_ONE = [(4, 0, [1, 2], _ones(2))]
_THREE = _ONE + [(5, 0, [3, 4], _ones(2)), (6, 0, [5, 6], _ones(2))]
_BAD_FILES = {
    "short header": (b"DPJDATA\x00" + b"\x00" * 4, StoreError, "truncated dataset header"),
    "magic": (b"XXXXXXXX" + pack_columns(_ONE)[8:], StoreError, "bad magic b'XXXXXXXX'"),
    # Cut inside the matrix shape, the header's last fields.
    "short matrix header": (pack_columns([], 16, matrix=(2, 2, 4))[:44], StoreError,
                            "truncated dataset header"),
    "version": (_with(pack_columns(_ONE), 8, 7, "<I"), StoreError,
                "unsupported dataset version 7"),
    # The record formats: their version field sits where this one's does.
    "version 1": (_with(pack_columns(_ONE), 8, 1, "<I"), StoreError,
                  "unsupported dataset version 1"),
    "version 2": (_with(pack_columns(_ONE), 8, 2, "<I"), StoreError,
                  "unsupported dataset version 2"),
    "short payload": (pack_columns(_ONE)[:-3], StoreError,
                      f"the header's 1 vectors and 2 entries need {_size(1, 2)} bytes,"
                      f" the file has {_size(1, 2) - 3}"),
    # Cut inside the tids.
    "short record head": (pack_columns(_ONE)[:_INDPTR + 16 + 4], StoreError,
                          f"the header's 1 vectors and 2 entries need {_size(1, 2)} bytes,"
                          f" the file has {_INDPTR + 20}"),
    "trailing": (pack_columns(_ONE) + b"\x01\x02", StoreError,
                 f"the header's 1 vectors and 2 entries need {_size(1, 2)} bytes,"
                 f" the file has {_size(1, 2) + 2}"),
    # The second vector's end claims more entries than the file holds.
    "short middle payload": (_with(pack_columns(_THREE), _INDPTR + 16, 7), StoreError,
                             "vector offsets do not ascend from 0 to the entry count 6"),
    "huge middle payload": (_with(pack_columns(_THREE), _INDPTR + 16, 2**63 - 1), StoreError,
                            "vector offsets do not ascend from 0 to the entry count 6"),
    "negative middle offset": (_with(pack_columns(_THREE), _INDPTR + 16, -1, "<q"), StoreError,
                               "vector offsets do not ascend from 0 to the entry count 6"),
    "offsets start": (_with(pack_columns(_ONE), _INDPTR, 1), StoreError,
                      "vector offsets do not ascend from 0 to the entry count 2"),
    "offsets end": (_with(pack_columns(_ONE), _INDPTR + 8, 1), StoreError,
                    "vector offsets do not ascend from 0 to the entry count 2"),
    # Sizes are compared in Python integers, so nothing is allocated from them.
    "count beyond the records": (_with(pack_columns(_ONE), _COUNT, 2**63), StoreError,
                                 f"the header's {2**63} vectors and 2 entries need"
                                 f" {_size(2**63, 2)} bytes, the file has {_size(1, 2)}"),
    "huge entry count": (_with(pack_columns(_ONE), _ENTRIES, 2**64 - 1), StoreError,
                         f"the header's 1 vectors and {2**64 - 1} entries need"
                         f" {_size(1, 2**64 - 1)} bytes, the file has {_size(1, 2)}"),
    "repeated index": (pack_columns(_ONE + [(5, 0, [3, 3], _ones(2))]), ValidationError,
                       "tid 5: indexes not strictly ascending"),
    "descending": (pack_columns([(4, 0, [2, 1], _ones(2))]), ValidationError,
                   "tid 4: indexes not strictly ascending"),
    "range": (pack_columns([(4, 0, [1, 1000], _ones(2))]), ValidationError,
              "tid 4: index 1000 out of range [0, 1000)"),
    "empty": (pack_columns([(4, 0, [], [])]), ValidationError, "tid 4: empty vector"),
    "duplicate": (pack_columns([(4, 0, [1], _ones(1))] * 2), ValidationError, "duplicate tid 4"),
    # The first bad vector in file order is reported, whatever its fault.
    "duplicate first": (pack_columns([(4, 0, [1], _ones(1))] * 2 + [(6, 0, [5, 3], _ones(2))]),
                        ValidationError, "duplicate tid 4"),
    "order first": (pack_columns([(4, 0, [1], _ones(1)), (6, 0, [5, 3], _ones(2)),
                                  (4, 0, [1], _ones(1))]),
                    ValidationError, "tid 6: indexes not strictly ascending"),
    "range first": (pack_columns([(4, 0, [7, 1000], _ones(2)), (6, 0, [], [])]),
                    ValidationError, "tid 4: index 1000 out of range [0, 1000)"),
    "dimension": (pack_columns(_ONE, dimension=0), ValidationError,
                  "dimension must be >= 1, got 0"),
    "matrix shape": (pack_columns(_ONE, matrix=(10, 10, 4)), ValidationError,
                     "matrix shape (10, 10, 4) inconsistent with dimension 1000"),
    # Only (0, 0, 0) means no matrix.
    "partial matrix shape": (pack_columns(_ONE, matrix=(0, 0, 4)), ValidationError,
                             "bad matrix shape (0, 0, 4)"),
}


@pytest.mark.parametrize("raw, error, message", _BAD_FILES.values(), ids=_BAD_FILES.keys())
def test_bad_binary_files_keep_their_messages(tmp_path, raw, error, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(raw)
    with pytest.raises(error) as err:
        load_dataset(str(path))
    assert type(err.value) is error
    text = str(err.value)
    assert text in (message, f"{path}: {message}")


def test_a_file_that_shrinks_after_the_size_check_is_refused(tmp_path, monkeypatch):
    """A read that comes up short leaves no uninitialised array in the dataset."""
    raw = pack_columns(_THREE)
    path = tmp_path / "d.bin"
    path.write_bytes(raw[:-8])
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        (*real_fstat(fd)[:6], len(raw), *real_fstat(fd)[7:])))
    with pytest.raises(StoreError, match="truncated values array$"):
        load_dataset(str(path))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 5000), min_size=1, max_size=40), min_size=1, max_size=30),
       st.integers(1, 700), st.data())
def test_page_sets_equal_page_request_sets(rows, page_size, data):
    ds = Dataset(5001, [vec(i, sorted(idx)) for i, idx in enumerate(rows)])
    start = data.draw(st.integers(0, len(rows)))
    stop = data.draw(st.integers(start, len(rows)))
    assert ds.page_sets(start, stop, page_size) == [
        page_request_set(ds[row], page_size) for row in range(start, stop)]


def test_take_copies_a_permutation_and_shares_a_run():
    ds = Dataset(10, [vec(i, [i, 9], [float(i), -1.0], label=1.0) for i in range(5)])
    taken = ds.take([3, 0, 4])
    assert [v.tid for v in taken] == [3, 0, 4]
    assert [v.indexes.tolist() for v in taken] == [[3, 9], [0, 9], [4, 9]]
    run = ds.take([1, 2, 3])
    assert [v.tid for v in run] == [1, 2, 3]
    assert np.shares_memory(run.values, ds.values)


def write_large_binary(path, n=32768, seed=0):
    """About 7 MiB: n vectors of 1 to 24 ascending indexes, built as arrays."""
    rng = np.random.default_rng(seed)
    nnz = rng.integers(1, 25, size=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    position = np.arange(indptr[-1]) - np.repeat(indptr[:-1], nnz)
    indices = (np.repeat(rng.integers(0, 10**6, size=n), nnz) + 7 * position).astype(np.uint64)
    ds = Dataset.from_arrays(2 * 10**6, indptr, indices, rng.normal(size=indptr[-1]),
                             np.arange(n), np.where(rng.random(n) < 0.5, -1.0, 1.0))
    store_dataset(ds, str(path))
    return path.stat().st_size


def test_load_memory_follows_the_file_size(tmp_path):
    path = tmp_path / "large.bin"
    size = write_large_binary(path)
    assert size > 6 * 2**20
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == 32768
    assert kept - before <= 1.5 * size
    # The arrays are read in place: about 1.35x at peak (validate's
    # temporaries), where a loader that holds the raw file beside them
    # takes about 2.15x.
    assert peak - before <= 1.6 * size
