import gc
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import Dataset, SparseVector, StoreError, ValidationError
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


# -- the CSR binary loader against a per-record reference decode ---------------

_HEADER = struct.Struct("<8sIQQ")
_HEAD = struct.Struct("<QdI")


def pack_records(records, dimension=1000, version=1, matrix=None):
    """A binary dataset file, built record by record: (tid, label bits,
    indexes, value bits) with the label and values given as uint64 patterns."""
    out = [_HEADER.pack(b"DPJDATA\x00", version, dimension, len(records))]
    if matrix is not None:
        out.append(struct.pack("<QQQ", *matrix))
    for tid, label_bits, indexes, value_bits in records:
        label = struct.unpack("<d", struct.pack("<Q", label_bits))[0]
        out.append(_HEAD.pack(tid, label, len(indexes)))
        out.append(np.array(indexes, dtype="<u8").tobytes())
        out.append(np.array(value_bits, dtype="<u8").tobytes())
    return b"".join(out)


def reference_decode(raw):
    """(tid, label, indexes, values) per record, one record at a time."""
    count = _HEADER.unpack_from(raw, 0)[3]
    offset = _HEADER.size + (24 if _HEADER.unpack_from(raw, 0)[1] == 2 else 0)
    records = []
    for _ in range(count):
        tid, label, nnz = _HEAD.unpack_from(raw, offset)
        offset += _HEAD.size
        indexes = np.frombuffer(raw, dtype="<u8", count=nnz, offset=offset)
        values = np.frombuffer(raw, dtype="<f8", count=nnz, offset=offset + 8 * nnz)
        offset += 16 * nnz
        records.append((tid, None if math.isnan(label) else label, indexes, values))
    return records


_bits = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(_bits, _bits, st.sets(st.integers(0, 999), min_size=1, max_size=70),
              st.data()),
    min_size=0, max_size=12, unique_by=lambda r: r[0]))
def test_csr_loader_matches_per_record_decode(tmp_path_factory, rows):
    records = []
    for tid, label_bits, indexes, data in rows:
        value_bits = data.draw(st.lists(_bits, min_size=len(indexes), max_size=len(indexes)))
        records.append((tid, label_bits, sorted(indexes), value_bits))
    raw = pack_records(records)
    path = tmp_path_factory.mktemp("csr") / "d.bin"
    path.write_bytes(raw)
    loaded = load_dataset(str(path))
    expected = reference_decode(raw)
    assert len(loaded) == len(expected)
    for got, (tid, label, indexes, values) in zip(loaded, expected):
        assert got.tid == tid and type(got.tid) is int
        if label is None:
            assert got.label is None
        else:
            assert struct.pack("<d", got.label) == struct.pack("<d", label)
        assert got.indexes.tobytes() == indexes.tobytes()
        assert got.values.tobytes() == values.tobytes()


def _ones(n):
    return [0x3FF0000000000000] * n  # bit pattern of 1.0


def _with_nnz(raw, at, nnz):
    """`raw` with the nnz field of the record header at byte `at` set to `nnz`."""
    return raw[: at + 16] + struct.pack("<I", nnz) + raw[at + 20 :]


_ONE = [(4, 0, [1, 2], _ones(2))]
_THREE = _ONE + [(5, 0, [3, 4], _ones(2)), (6, 0, [5, 6], _ones(2))]
_BAD_FILES = {
    "short header": (b"DPJDATA\x00" + b"\x00" * 4, StoreError, "truncated dataset header"),
    "magic": (b"XXXXXXXX" + b"\x00" * 20, StoreError, "bad magic b'XXXXXXXX'"),
    "short matrix header": (_HEADER.pack(b"DPJDATA\x00", 2, 16, 0) + b"\x00" * 8, StoreError,
                            "truncated matrix header"),
    "version": (_HEADER.pack(b"DPJDATA\x00", 7, 16, 0), StoreError,
                "unsupported dataset version 7"),
    "short payload": (pack_records(_ONE)[:-3], StoreError, "truncated record payload for tid 4"),
    "short record head": (pack_records(_ONE)[:28 + 10], StoreError,
                          "truncated record header at byte 28"),
    "trailing": (pack_records(_ONE) + b"\x01\x02", StoreError, "2 trailing bytes"),
    # The second record (at byte 80) claims more entries than the file holds.
    "short middle payload": (_with_nnz(pack_records(_THREE), 80, 7), StoreError,
                             "truncated record payload for tid 5"),
    "huge middle payload": (_with_nnz(pack_records(_THREE), 80, 2**32 - 1), StoreError,
                            "truncated record payload for tid 5"),
    "count beyond the records": (pack_records(_ONE)[:20] + struct.pack("<Q", 2**63)
                                 + pack_records(_ONE)[28:], StoreError,
                                 "truncated record header at byte 80"),
    "repeated index": (pack_records(_ONE + [(5, 0, [3, 3], _ones(2))]), ValidationError,
                       "tid 5: indexes not strictly ascending"),
    "descending": (pack_records([(4, 0, [2, 1], _ones(2))]), ValidationError,
                   "tid 4: indexes not strictly ascending"),
    "range": (pack_records([(4, 0, [1, 1000], _ones(2))]), ValidationError,
              "tid 4: index 1000 out of range [0, 1000)"),
    "empty": (pack_records([(4, 0, [], [])]), ValidationError, "tid 4: empty vector"),
    "duplicate": (pack_records([(4, 0, [1], _ones(1))] * 2), ValidationError, "duplicate tid 4"),
    # The first bad vector in file order is reported, whatever its fault.
    "duplicate first": (pack_records([(4, 0, [1], _ones(1))] * 2 + [(6, 0, [5, 3], _ones(2))]),
                        ValidationError, "duplicate tid 4"),
    "order first": (pack_records([(4, 0, [1], _ones(1)), (6, 0, [5, 3], _ones(2)),
                                  (4, 0, [1], _ones(1))]),
                    ValidationError, "tid 6: indexes not strictly ascending"),
    "range first": (pack_records([(4, 0, [7, 1000], _ones(2)), (6, 0, [], [])]),
                    ValidationError, "tid 4: index 1000 out of range [0, 1000)"),
    "dimension": (pack_records(_ONE, dimension=0), ValidationError,
                  "dimension must be >= 1, got 0"),
    "matrix shape": (pack_records(_ONE, version=2, matrix=(10, 10, 4)), ValidationError,
                     "matrix shape (10, 10, 4) inconsistent with dimension 1000"),
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
    """About 6.4 MiB: n vectors of 1 to 24 ascending indexes, built as arrays."""
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
    assert peak - before <= 3.5 * size
