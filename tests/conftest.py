"""Shared fixtures and small instance builders."""

from collections import Counter

import numpy as np
import pytest

from dpjoin import Dataset, ModelStore, SparseVector
from dpjoin.reorder import _scramble


@pytest.fixture
def tmp_store(tmp_path):
    """Factory for throwaway model stores, closed on teardown."""
    opened = []

    def make(dimension, page_size, init="zeros", seed=0, name="m.model"):
        store = ModelStore.create(str(tmp_path / name), dimension, page_size,
                                  init=init, seed=seed)
        opened.append(store)
        return store

    yield make
    for store in opened:
        store.close()


def make_vector(tid, indexes, values=None, label=None):
    indexes = np.asarray(sorted(indexes), dtype=np.uint64)
    if values is None:
        values = np.ones(len(indexes))
    return SparseVector(tid, label, indexes, np.asarray(values, dtype=np.float64))


def random_dataset(rng, n, d, nnz_max=8, labeled=True):
    """Uniform random instance. nnz varies per vector, at least 1."""
    vectors = []
    for i in range(n):
        nnz = int(rng.integers(1, nnz_max + 1))
        idx = rng.choice(d, size=min(nnz, d), replace=False)
        vals = rng.normal(size=len(idx))
        label = float(rng.choice([-1.0, 1.0])) if labeled else None
        vectors.append(SparseVector(i + 1, label,
                                    np.sort(idx).astype(np.uint64), vals))
    return Dataset(dimension=d, vectors=vectors)


def random_sets(rng, n, universe, max_size):
    """Page-request sets only, for reorder/batcher tests."""
    out = []
    for _ in range(n):
        size = int(rng.integers(1, max_size + 1))
        pages = rng.choice(universe, size=min(size, universe), replace=False)
        out.append(tuple(sorted(int(p) for p in pages)))
    return out


def total_requests(batches):
    return sum(b.request_count for b in batches)


def page_frequency_order(sets):
    """Pages sorted by descending request frequency, ties by lower page id,
    and the frequencies: the page ranks radix order is built on."""
    freq = Counter()
    for s in sets:
        freq.update(s)
    return sorted(freq, key=lambda p: (-freq[p], p)), freq


def minwise_signature(pages, params):
    """Minimum image of the page set under each hash function, one set at
    a time: the reference for `reorder.signature_matrix`."""
    if len(pages) == 0:
        raise ValueError("cannot sign an empty page set")
    keys = _scramble(np.fromiter(pages, dtype=np.uint64, count=len(pages)))
    with np.errstate(over="ignore"):
        images = params[:, 0, None] * keys[None, :] + params[:, 1, None]
    return tuple(int(v) for v in images.min(axis=1))
