import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import BufferManager, PreconditionError


def manager(tmp_store, capacity, num_pages=8, page_size=4):
    store = tmp_store(num_pages * page_size, page_size)
    return BufferManager(store, capacity)


def test_cold_misses_then_hits(tmp_store):
    bm = manager(tmp_store, 4)
    views = bm.request_set([0, 1, 2])
    assert sorted(views) == [0, 1, 2]
    bm.unpin_set([0, 1, 2])
    assert bm.page_misses == 3
    assert bm.page_requests == 3
    bm.request_set([1, 2])
    bm.unpin_set([1, 2])
    assert bm.page_misses == 3
    assert bm.page_requests == 5


def test_request_dedups_and_sorts(tmp_store):
    bm = manager(tmp_store, 4)
    views = bm.request_set([3, 1, 3, 1])
    bm.unpin_set([1, 3])
    assert sorted(views) == [1, 3]
    assert bm.page_requests == 2


def test_set_larger_than_capacity_rejected(tmp_store):
    bm = manager(tmp_store, 2)
    with pytest.raises(PreconditionError):
        bm.request_set([0, 1, 2])


def test_lru_eviction_order(tmp_store):
    # lower page id of a request is refreshed as more recent
    bm = manager(tmp_store, 2)
    bm.request_set([0, 1])
    bm.unpin_set([0, 1])
    bm.request_set([2])
    bm.unpin_set([2])
    assert bm.resident_pages() == {0, 2}


def test_pinned_never_evicted(tmp_store):
    bm = manager(tmp_store, 3)
    bm.request_set([0, 1])
    # 0 and 1 stay pinned; loading 2 then 3 must evict 2, not them
    bm.request_set([2])
    bm.unpin_set([2])
    bm.request_set([3])
    bm.unpin_set([3])
    assert {0, 1} <= bm.resident_pages()
    assert 2 not in bm.resident_pages()
    bm.unpin_set([0, 1])


def test_all_pinned_rejected(tmp_store):
    bm = manager(tmp_store, 2)
    bm.request_set([0, 1])
    with pytest.raises(PreconditionError):
        bm.request_set([2])


def test_unpin_unknown_page_rejected(tmp_store):
    bm = manager(tmp_store, 2)
    with pytest.raises(PreconditionError):
        bm.unpin_set([5])


def test_dirty_eviction_writes_back(tmp_store):
    bm = manager(tmp_store, 2)
    views = bm.request_set([0, 1])
    views[1].values[:] = 9.0
    bm.unpin_set([1], dirty=True)
    bm.unpin_set([0])
    bm.request_set([2, 3])          # evicts both, page 1 is dirty
    bm.unpin_set([2, 3])
    assert bm.write_backs == 1
    assert list(bm.store.read_page(1).values) == [9.0] * 4


def test_flush_all(tmp_store):
    bm = manager(tmp_store, 4)
    views = bm.request_set([2, 0])
    views[0].values[:] = 1.0
    views[2].values[:] = 2.0
    bm.unpin_set([0, 2], dirty=True)
    bm.flush_all()
    assert bm.write_backs == 2
    assert (bm.store.read_page(0).values == 1.0).all()
    assert (bm.store.read_page(2).values == 2.0).all()
    bm.flush_all()                   # clean now, nothing to write
    assert bm.write_backs == 2


def test_misses_by_page_and_distinct(tmp_store):
    bm = manager(tmp_store, 2)
    for pages in ([0, 1], [2], [0, 1]):
        bm.request_set(pages)
        bm.unpin_set(pages)
    counts = bm.misses_by_page
    assert counts[2] == 1
    assert counts[0] + counts[1] >= 2
    assert bm.distinct_pages == 3


@st.composite
def traces(draw):
    n = draw(st.integers(2, 30))
    return [sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=4)))
            for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(trace=traces(), capacity=st.integers(4, 8))
def test_trace_invariants(tmp_path_factory, trace, capacity):
    """Replay determinism plus basic accounting on random traces."""
    from dpjoin import ModelStore

    def replay(cap):
        path = str(tmp_path_factory.mktemp("bm") / "m.model")
        with ModelStore.create(path, 32, 4) as store:
            bm = BufferManager(store, cap)
            for pages in trace:
                bm.request_set(pages)
                bm.unpin_set(pages)
                assert len(bm.resident_pages()) <= cap
        return bm

    got = replay(capacity)
    assert got.page_requests == sum(len(p) for p in trace)
    assert got.page_misses <= got.page_requests
    assert got.page_misses >= len({p for req in trace for p in req})
    assert got.page_misses == sum(got.misses_by_page.values())
    again = replay(capacity)
    assert again.page_misses == got.page_misses
    assert again.misses_by_page == got.misses_by_page
    # a bigger buffer never misses more on the same trace
    bigger = replay(capacity + 1)
    assert bigger.page_misses <= got.page_misses


def test_evicted_view_raises(tmp_store):
    bm = manager(tmp_store, 1)
    stale = bm.request_set([0])[0]
    bm.unpin_set([0])
    bm.request_set([1])              # reuses page 0's frame
    with pytest.raises(TypeError):
        stale.values[0]
    bm.unpin_set([1])


def test_frame_pool_is_capped_at_the_model_pages(tmp_store):
    bm = manager(tmp_store, 50, num_pages=8)
    assert bm.frames.shape == (8, 4)
    views = bm.request_set(range(8))
    assert bm.page_misses == 8
    assert all(view.values.base is bm.frames for view in views.values())
    bm.unpin_set(range(8))


class RecordingManager(BufferManager):
    """Records the id of every page it evicts, in eviction order."""

    def __init__(self, store, capacity):
        super().__init__(store, capacity)
        self.evicted = []

    def _evict_one(self):
        before = self.resident_pages()
        frame = super()._evict_one()
        self.evicted.extend(before - self.resident_pages())
        return frame


class ReferenceLru:
    """Plain-list LRU with pin counts and the set-refresh rule: a request
    pins its resident pages, loads its missing pages in ascending id order
    (each evicting the least recent unpinned page when full), then refreshes
    the whole set with the lowest id most recent."""

    def __init__(self, disk, capacity):
        self.disk = disk                 # page_id -> list of values
        self.capacity = capacity
        self.order = []                  # least recent first
        self.pins = {}
        self.cached = {}                 # resident page_id -> list of values
        self.dirty = set()
        self.evicted = []
        self.misses_by_page = {}
        self.write_backs = 0

    def request(self, pages):
        pages = sorted(set(pages))
        for page_id in pages:
            if page_id in self.cached:
                self.pins[page_id] += 1
        for page_id in pages:
            if page_id in self.cached:
                continue
            if len(self.cached) >= self.capacity:
                victim = next(p for p in self.order if self.pins[p] == 0)
                self.order.remove(victim)
                if victim in self.dirty:
                    self.disk[victim] = self.cached[victim]
                    self.dirty.discard(victim)
                    self.write_backs += 1
                del self.cached[victim], self.pins[victim]
                self.evicted.append(victim)
            self.cached[page_id] = list(self.disk[page_id])
            self.pins[page_id] = 1
            self.order.append(page_id)
            self.misses_by_page[page_id] = self.misses_by_page.get(page_id, 0) + 1
        for page_id in reversed(pages):
            self.order.remove(page_id)
            self.order.append(page_id)

    def unpin(self, pages):
        for page_id in set(pages):
            self.pins[page_id] -= 1

    def write(self, page_id, slot, value):
        self.cached[page_id][slot] = value
        self.dirty.add(page_id)

    def flush(self):
        for page_id in sorted(self.dirty):
            self.disk[page_id] = self.cached[page_id]
            self.write_backs += 1
        self.dirty.clear()


@st.composite
def pinning_traces(draw):
    """Steps: ("request", pages), ("unpin", k) or ("write", k, slot, value);
    k picks one of the requests still pinned."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["request", "request", "unpin", "write"]))
        if kind == "request":
            steps.append(("request", draw(st.sets(st.integers(0, 7), min_size=1, max_size=4))))
        elif kind == "unpin":
            steps.append(("unpin", draw(st.integers(0, 99))))
        else:
            steps.append(("write", draw(st.integers(0, 99)), draw(st.integers(0, 3)),
                          float(len(steps) + 1)))
    return steps


@settings(max_examples=150, deadline=None)
@given(steps=pinning_traces(), capacity=st.integers(4, 8))
def test_matches_reference_lru(tmp_path_factory, steps, capacity):
    """Random traces with overlapping pins and writes: the frame pool evicts
    the same pages in the same order as a plain-list LRU, and leaves the same
    bytes on disk. The reference marks a page dirty when it is written; the
    buffer manager learns it when the writing request unpins the page."""
    from dpjoin import ModelStore

    def release(request):
        pages, _, written = request
        bm.unpin_set(written, dirty=True)
        bm.unpin_set(pages - written)
        ref.unpin(pages)

    path = str(tmp_path_factory.mktemp("bm") / "m.model")
    with ModelStore.create(path, 32, 4, init=("uniform", -1.0, 1.0), seed=3) as store:
        ref = ReferenceLru({p: list(store.read_page(p).values) for p in range(8)}, capacity)
        bm = RecordingManager(store, capacity)
        pinned = []                      # (pages, views, pages written) of outstanding requests
        for step in steps:
            if step[0] == "request":
                pages = step[1]
                # keep every request servable: unpin the oldest requests
                # until the pinned pages and this request fit the budget
                while len(set(pages).union(*(p for p, _, _ in pinned))) > capacity:
                    release(pinned.pop(0))
                pinned.append((pages, bm.request_set(pages), set()))
                ref.request(pages)
            elif pinned and step[0] == "unpin":
                release(pinned.pop(step[1] % len(pinned)))
            elif pinned:
                pages, views, written = pinned[step[1] % len(pinned)]
                page_id = min(pages)
                views[page_id].values[step[2]] = step[3]
                written.add(page_id)
                ref.write(page_id, step[2], step[3])
            assert bm.evicted == ref.evicted
            assert bm.resident_pages() == set(ref.cached)
            assert bm.pinned_pages() == {p for p, c in ref.pins.items() if c > 0}
        assert bm.misses_by_page == ref.misses_by_page
        for request in pinned:
            release(request)
        bm.flush_all()
        ref.flush()
        assert bm.write_backs == ref.write_backs
        on_disk = store.load_dense()
    assert on_disk.tolist() == [v for p in range(8) for v in ref.disk[p]]
