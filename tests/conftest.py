"""Shared fixtures and small instance builders."""

from collections import Counter

import numpy as np
import pytest

from dpjoin import BufferManager, Dataset, ModelStore, SparseVector, ValidationError, operator
from dpjoin.batcher import fitting_sets
from dpjoin.reorder import _scramble

BRUTE_FORCE_LIMIT = 20


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


def request_count(batch):
    """Page requests of `batch`: the size of its page union."""
    return len(batch.pages)


def total_requests(batches):
    return sum(request_count(b) for b in batches)


def total_nnz(dataset):
    """Entries of every vector of `dataset`."""
    return int(dataset.indptr[-1])


def brute_force_batches(ordered_sets, budget):
    """Exact minimum of the total page requests over every feasible
    split of the sequence into consecutive batches. Exponential in n;
    refuses n > 20."""
    n = len(ordered_sets)
    if n > BRUTE_FORCE_LIMIT:
        raise ValidationError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}, got {n}")
    fsets = [s for _, s in fitting_sets(ordered_sets, budget)]
    if n == 0:
        return 0
    best = None
    # Each of the 2^(n-1) cut masks encodes one split into consecutive runs.
    for mask in range(1 << (n - 1)):
        total = 0
        union = set(fsets[0])
        feasible = True
        for j in range(1, n):
            if mask & (1 << (j - 1)):
                total += len(union)
                union = set(fsets[j])
            else:
                union |= fsets[j]
                if len(union) > budget:
                    feasible = False
                    break
        if not feasible:
            continue
        total += len(union)
        if best is None or total < best:
            best = total
    return best


def resident_pages(manager):
    """The pages resident in `manager`: the keys of its residency map."""
    return set(manager._resident)


def pinned_pages(manager):
    """The pages of the set `manager` has pinned, if any."""
    return set(manager._pinned or ())


class PageRecorder:
    """Page traffic in windows, recorded outside the library while the
    recorder is entered: each page `store` reads (one read per miss) and
    the size of each page set a buffer manager requests, in the last window
    opened (a first one is opened if none is). `window(**labels)` opens the
    next window; with `upages`, each call of `operator.plan_upage` opens one
    labelled with its U-page's `start` and `vectors`, so the windows of a
    batched `run` are its U-pages. `requests` keeps every requested page
    set, ascending, in request order."""

    def __init__(self, store, upages=False):
        self.store, self.upages, self.windows, self.requests = store, upages, [], []

    def window(self, **labels):
        self.windows.append({**labels, "page_requests": 0, "misses_by_page": Counter()})

    def _last(self):
        if not self.windows:
            self.window()
        return self.windows[-1]

    @property
    def misses_by_page(self):
        """Reads per page over every window."""
        return sum((w["misses_by_page"] for w in self.windows), Counter())

    def __enter__(self):
        read_page, request_set = self.store.read_page, BufferManager.request_set
        plan_upage = operator.plan_upage

        def recording_read(page_id, out=None):
            page = read_page(page_id, out=out)
            self._last()["misses_by_page"][page_id] += 1
            return page

        def recording_request(manager, pages):
            request_set(manager, pages)
            self.requests.append(sorted({int(p) for p in pages}))
            self._last()["page_requests"] += len(self.requests[-1])

        def opening_plan(dataset, start, stop, *args, **kwargs):
            self.window(start=start, vectors=stop - start)
            return plan_upage(dataset, start, stop, *args, **kwargs)

        self._patch = pytest.MonkeyPatch()
        self._patch.setattr(self.store, "read_page", recording_read)
        self._patch.setattr(BufferManager, "request_set", recording_request)
        if self.upages:
            self._patch.setattr(operator, "plan_upage", opening_plan)
        return self

    def __exit__(self, *exc):
        self._patch.undo()


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
