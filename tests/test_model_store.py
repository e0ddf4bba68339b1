from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import ModelStore, StoreError
from dpjoin.model_store import HEADER_SIZE


def test_create_zeros_and_read(tmp_store):
    store = tmp_store(10, 4)
    assert store.num_pages == 3
    for pid in range(3):
        values = store.read_page(pid)
        assert values.shape == (4,)
        assert not values.any()
    out = np.ones(4)
    assert store.read_page(1, out=out) is out
    assert not out.any()


def test_tail_page_zero_padded(tmp_store):
    store = tmp_store(10, 4, init=("uniform", 2.5, 2.5))
    tail = store.read_page(2)
    # only entries 8 and 9 are real; the rest is padding
    assert list(tail) == [2.5, 2.5, 0.0, 0.0]
    dense = store.load_dense()
    assert dense.shape == (10,)
    assert (dense == 2.5).all()


def test_uniform_init_deterministic(tmp_path):
    a = ModelStore.create(str(tmp_path / "a.model"), 100, 16,
                          init=("uniform", -1.0, 1.0), seed=7)
    b = ModelStore.create(str(tmp_path / "b.model"), 100, 16,
                          init=("uniform", -1.0, 1.0), seed=7)
    try:
        da, db = a.load_dense(), b.load_dense()
        assert np.array_equal(da, db)
        assert da.min() >= -1.0 and da.max() < 1.0
        assert len(np.unique(da)) > 90
    finally:
        a.close()
        b.close()


def test_write_page_persists(tmp_path):
    path = str(tmp_path / "m.model")
    with ModelStore.create(path, 8, 4) as store:
        values = store.read_page(1)
        values[:] = [1.0, 2.0, 3.0, 4.0]
        store.write_page(1, values)
    with ModelStore.open(path) as again:
        assert again.dimension == 8
        assert again.page_size == 4
        assert list(again.read_page(1)) == [1.0, 2.0, 3.0, 4.0]
        assert not again.read_page(0).any()


def test_write_page_converts_what_is_not_a_contiguous_f8_row(tmp_store):
    """A list, a strided view, big-endian and float32 values are written as
    the little-endian float64 page they equal; a contiguous `<f8` row is
    written as it is."""
    store = tmp_store(8, 4)
    wide = np.arange(8.0)
    for page, values in ((0, [1.0, 2.0, 3.0, 4.0]), (1, wide[::2]), (0, wide[4:].astype(">f8")),
                         (1, np.float32([0.5, 1.5, 2.5, 3.5])), (0, wide[:4])):
        store.write_page(page, values)
        assert store.read_page(page).tolist() == list(map(float, values))
    assert store.writes == 5


def test_page_size_above_the_dimension_writes_one_unpadded_page(tmp_path):
    path = tmp_path / "m.model"
    with ModelStore.create(str(path), 100, 2**40, init=("uniform", -1.0, 1.0)) as store:
        assert (store.num_pages, store.page_size) == (1, 100)
    assert path.stat().st_size == HEADER_SIZE + 100 * 8
    with ModelStore.open(str(path)) as again:
        assert again.page_size == 100
        assert len(np.unique(again.load_dense())) == 100


def test_write_page_checks_page_id_and_length(tmp_store):
    from dpjoin import ValidationError
    store = tmp_store(8, 4)
    with pytest.raises(ValidationError):
        store.write_page(2, np.zeros(4))
    with pytest.raises(ValidationError):
        store.write_page(0, np.zeros(3))
    assert store.writes == 0


def test_read_page_out_of_range(tmp_store):
    from dpjoin import ValidationError
    store = tmp_store(10, 4)
    with pytest.raises(ValidationError):
        store.read_page(3)
    with pytest.raises(ValidationError):
        store.read_page(-1)


def test_open_rejects_garbage(tmp_path):
    path = tmp_path / "junk.model"
    path.write_bytes(b"not a model file at all")
    with pytest.raises(StoreError):
        ModelStore.open(str(path))


def test_open_rejects_truncated(tmp_path):
    path = str(tmp_path / "t.model")
    ModelStore.create(path, 64, 8).close()
    data = Path(path).read_bytes()
    with open(path, "wb") as f:
        f.write(data[:-16])
    with pytest.raises(StoreError):
        ModelStore.open(path)


def test_access_counters(tmp_store):
    store = tmp_store(32, 8)
    store.read_page(0)
    store.read_page(1)
    store.write_page(2, store.read_page(2))
    assert store.reads == 3
    assert store.writes == 1


def test_large_dimension_create_is_chunked(tmp_path):
    # bigger than one init chunk; checks the chunk loop, not performance
    path = str(tmp_path / "big.model")
    with ModelStore.create(path, 5_000_000, 1024, init=("uniform", 1.0, 1.0)) as store:
        assert store.num_pages == 4883
        assert (store.read_page(4882)[:832] == 1.0).all()
        assert not store.read_page(4882)[832:].any()


def test_open_rejects_zero_page_size_and_dimension(tmp_path):
    from dpjoin.model_store import _HEADER, MAGIC
    path = tmp_path / "z.model"
    for dimension, page_size in ((8, 0), (0, 8)):
        path.write_bytes(_HEADER.pack(MAGIC, 1, dimension, page_size))
        with pytest.raises(StoreError):
            ModelStore.open(str(path))


def test_open_rejects_unsupported_version(tmp_path):
    from dpjoin.model_store import _HEADER, MAGIC
    path = tmp_path / "v.model"
    path.write_bytes(_HEADER.pack(MAGIC, 2, 8, 4) + bytes(8 * 8))
    with pytest.raises(StoreError, match="unsupported model version 2"):
        ModelStore.open(str(path))


@settings(max_examples=200, deadline=None)
@given(dimension=st.integers(0, 2**64 - 1) | st.integers(0, 64),
       page_size=st.integers(0, 2**64 - 1) | st.integers(0, 16),
       length=st.none() | st.integers(0, 1300))
def test_open_any_v1_header_succeeds_or_raises_store_error(tmp_path_factory, dimension,
                                                          page_size, length):
    """Valid magic and version 1, any dimension and page size, any file
    length (None: the length a consistent file would have, capped)."""
    from dpjoin.model_store import _HEADER, HEADER_SIZE, MAGIC
    if length is None:
        pages = -(-dimension // page_size) if page_size else 0
        length = HEADER_SIZE + min(pages * page_size * 8, 1300)
    path = tmp_path_factory.mktemp("hdr") / "h.model"
    path.write_bytes((_HEADER.pack(MAGIC, 1, dimension, page_size) + bytes(1300))[:length])
    try:
        store = ModelStore.open(str(path))
    except StoreError:
        return
    with store:
        assert HEADER_SIZE + store.num_pages * store.page_size * 8 == length
        assert store.load_dense().shape == (dimension,)


def test_short_read_and_short_write_raise_store_error(tmp_path, monkeypatch):
    from dpjoin import model_store
    path = str(tmp_path / "s.model")
    ModelStore.create(path, 64, 8).close()
    with ModelStore.open(path) as store:
        with open(path, "r+b") as fh:   # shrink the file under the open store
            fh.truncate(fh.seek(0, 2) - 16)
        with pytest.raises(StoreError):
            store.read_page(7)
        values = store.read_page(0)
        real_pwrite = model_store.os.pwrite

        def half_pwrite(fd, data, offset):
            return real_pwrite(fd, memoryview(data).cast("B")[: memoryview(data).nbytes // 2],
                               offset)

        monkeypatch.setattr(model_store.os, "pwrite", half_pwrite)
        with pytest.raises(StoreError):
            store.write_page(0, values)


def test_closed_store_raises_even_when_its_descriptor_is_reused(tmp_path):
    path = str(tmp_path / "c.model")
    store = ModelStore.create(path, 64, 8)
    values = store.read_page(0)
    store.close()
    with open(path, "rb"):   # likely takes the descriptor number the store gave up
        with pytest.raises(StoreError):
            store.read_page(0)
        with pytest.raises(StoreError):
            store.write_page(0, values)


def _free_space(monkeypatch, free):
    """Make every directory report `free` bytes free."""
    import shutil

    monkeypatch.setattr(shutil, "disk_usage", lambda path: shutil._ntuple_diskusage(
        total=2 * free, used=free, free=free))


def test_create_refuses_a_model_larger_than_the_free_space(tmp_path, monkeypatch):
    """A model whose file would not fit its directory's free space is
    refused before the file is created; one that fits exactly is made."""
    path = tmp_path / "big.model"
    size = HEADER_SIZE + 3 * 4 * 8          # dimension 10, page size 4: 3 pages
    _free_space(monkeypatch, size - 1)
    with pytest.raises(StoreError, match=f"needs {size} bytes"):
        ModelStore.create(str(path), 10, 4)
    assert not path.exists()
    _free_space(monkeypatch, size)
    ModelStore.create(str(path), 10, 4).close()
    assert path.stat().st_size == size


def test_a_create_that_fails_removes_its_file(tmp_path, monkeypatch):
    from dpjoin import model_store

    path = tmp_path / "torn.model"
    calls = []
    real_pwrite = model_store.os.pwrite

    def failing_pwrite(fd, data, offset):   # the header is written, the pages are not
        calls.append(offset)
        return real_pwrite(fd, data, offset) if len(calls) == 1 else 0

    monkeypatch.setattr(model_store.os, "pwrite", failing_pwrite)
    with pytest.raises(StoreError, match="short write"):
        ModelStore.create(str(path), 64, 8)
    assert len(calls) == 2
    assert not path.exists()
