import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import BufferManager, ModelStore, PreconditionError, StoreError, ValidationError

from conftest import PageRecorder, pinned_pages, resident_pages


def manager(tmp_store, capacity, num_pages=8, page_size=4):
    store = tmp_store(num_pages * page_size, page_size)
    return BufferManager(store, capacity)


def test_cold_misses_then_hits(tmp_store):
    bm = manager(tmp_store, 4)
    assert bm.request_set([0, 1, 2]) is None
    assert pinned_pages(bm) == {0, 1, 2}
    bm.unpin_set([0, 1, 2])
    assert bm.page_misses == 3
    assert bm.page_requests == 3
    bm.request_set([1, 2])
    bm.unpin_set([1, 2])
    assert bm.page_misses == 3
    assert bm.page_requests == 5


def test_request_dedups_and_sorts(tmp_store):
    bm = manager(tmp_store, 4)
    bm.request_set([3, 1, 3, 1])
    assert pinned_pages(bm) == {1, 3}
    bm.unpin_set([1, 3])
    assert pinned_pages(bm) == set()
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
    assert resident_pages(bm) == {0, 2}


def test_pinned_never_evicted(tmp_store):
    bm = manager(tmp_store, 3)
    for pages in ([0, 1], [2]):          # least recent first: 1, 0, 2
        bm.request_set(pages)
        bm.unpin_set(pages)
    # page 1 is the least recent, but this request pins it: its two misses
    # evict 0 and 2
    bm.request_set([1, 3, 4])
    assert resident_pages(bm) == pinned_pages(bm) == {1, 3, 4}
    bm.unpin_set([1, 3, 4])


def test_all_pinned_rejected(tmp_store):
    bm = manager(tmp_store, 2)
    bm.request_set([0, 1])
    with pytest.raises(PreconditionError, match="a set of 2 pages is still pinned"):
        bm.request_set([2])


def test_refused_request_changes_nothing(tmp_store):
    bm = manager(tmp_store, 3)
    bm.request_set([0, 1])
    with pytest.raises(PreconditionError):
        bm.request_set([2, 3])   # one set at a time
    assert pinned_pages(bm) == {0, 1}
    assert resident_pages(bm) == {0, 1}
    assert (bm.page_requests, bm.page_misses, bm.store.reads) == (2, 2, 2)
    bm.unpin_set([0, 1])
    bm.request_set([2, 3, 4])
    assert pinned_pages(bm) == {2, 3, 4}
    bm.unpin_set([2, 3, 4])


def test_refused_request_counts_its_unpinned_hits_as_taken(tmp_store):
    """While a set is pinned, a request that needs no frame is refused too,
    and its hits, pinned or only resident, are neither counted nor
    refreshed."""
    bm = manager(tmp_store, 3)
    bm.request_set([0])
    bm.unpin_set([0])
    bm.request_set([1])
    for pages in ([1], [0], [0, 1]):
        with pytest.raises(PreconditionError):
            bm.request_set(pages)
    assert pinned_pages(bm) == {1}
    assert (bm.page_requests, bm.page_misses) == (2, 2)
    bm.unpin_set([1])
    bm.request_set([2, 3])       # page 0 is still the least recent: 3 evicts it
    assert resident_pages(bm) == {1, 2, 3}
    bm.unpin_set([2, 3])


def test_refused_unpin_changes_nothing(tmp_store):
    bm = manager(tmp_store, 2)
    bm.request_set([0, 1])
    for pages in ([0], [1, 5, 0], [0, 5]):   # part of the set, more than it, another
        with pytest.raises(PreconditionError, match="not the pinned set"):
            bm.unpin_set(pages, dirty=pages)
    with pytest.raises(PreconditionError, match="page 2 is not being unpinned"):
        bm.unpin_set([0, 1], dirty=[1, 2])
    assert pinned_pages(bm) == {0, 1}
    bm.unpin_set([0, 1])
    bm.flush_all()
    assert bm.write_backs == 0


def test_unpin_unknown_page_rejected(tmp_store):
    bm = manager(tmp_store, 2)
    with pytest.raises(PreconditionError):
        bm.unpin_set([5])


def test_dirty_eviction_writes_back(tmp_store):
    bm = manager(tmp_store, 2)
    bm.request_set([0, 1])
    bm.frames.reshape(-1)[bm.positions(range(4, 8))] = 9.0
    bm.unpin_set([0, 1], dirty=[1])
    bm.request_set([2, 3])          # evicts both, page 1 is dirty
    bm.unpin_set([2, 3])
    assert bm.write_backs == 1
    assert list(bm.store.read_page(1)) == [9.0] * 4


def test_flush_all(tmp_store):
    bm = manager(tmp_store, 4)
    bm.request_set([2, 0])
    flat = bm.frames.reshape(-1)
    flat[bm.positions(range(0, 4))] = 1.0
    flat[bm.positions(range(8, 12))] = 2.0
    bm.unpin_set([0, 2], dirty=[0, 2])
    bm.flush_all()
    assert bm.write_backs == 2
    assert (bm.store.read_page(0) == 1.0).all()
    assert (bm.store.read_page(2) == 2.0).all()
    bm.flush_all()                   # clean now, nothing to write
    assert bm.write_backs == 2


def test_misses_by_page_and_distinct(tmp_store):
    bm = manager(tmp_store, 2)
    with PageRecorder(bm.store) as recorder:
        for pages in ([0, 1], [2], [0, 1]):
            bm.request_set(pages)
            bm.unpin_set(pages)
    counts = recorder.misses_by_page
    assert sum(counts.values()) == bm.page_misses
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
        with ModelStore.create(path, 32, 4) as store, PageRecorder(store) as recorder:
            bm = BufferManager(store, cap)
            for pages in trace:
                bm.request_set(pages)
                bm.unpin_set(pages)
                assert len(resident_pages(bm)) <= cap
        return bm, recorder.misses_by_page

    got, got_misses = replay(capacity)
    assert got.page_requests == sum(len(p) for p in trace)
    assert got.page_misses <= got.page_requests
    assert got.page_misses >= len({p for req in trace for p in req})
    assert got.page_misses == sum(got_misses.values())
    again, again_misses = replay(capacity)
    assert again.page_misses == got.page_misses
    assert again_misses == got_misses
    # a bigger buffer never misses more on the same trace
    bigger, _ = replay(capacity + 1)
    assert bigger.page_misses <= got.page_misses


def test_positions_of_a_page_that_is_not_pinned_raise(tmp_store):
    bm = manager(tmp_store, 1)
    with pytest.raises(PreconditionError, match="page 0 is not pinned"):
        bm.positions([1])                # nothing pinned at all
    bm.request_set([0])
    bm.unpin_set([0])
    bm.request_set([1])                  # evicts page 0 and reuses its frame
    assert bm.positions([4, 7]).tolist() == [0, 3]
    with pytest.raises(PreconditionError, match="page 0 is not pinned"):
        bm.positions([5, 2])
    bm.unpin_set([1])
    with pytest.raises(PreconditionError, match="page 1 is not pinned"):
        bm.positions([4])                # resident, but no longer pinned
    assert bm.positions([]).tolist() == []


def test_frame_pool_is_capped_at_the_model_pages(tmp_store):
    bm = manager(tmp_store, 50, num_pages=8)
    assert bm.frames.shape == (8, 4)
    bm.request_set(range(8))
    assert bm.page_misses == 8
    # every index of the model has its own place inside the pool
    assert sorted(bm.positions(range(32)).tolist()) == list(range(bm.frames.size))
    bm.unpin_set(range(8))


def test_a_page_outside_the_model_is_refused_up_front(tmp_store):
    """A page id outside [0, num_pages) is refused before the request counts,
    reads or pins anything, also when the budget exceeds the model's pages."""
    bm = manager(tmp_store, 50, num_pages=8)
    for pages in (range(10), [8], [-1, 3]):
        with pytest.raises(ValidationError, match="outside the model's 8 pages"):
            bm.request_set(pages)
    assert (bm.page_requests, bm.page_misses, bm.store.reads) == (0, 0, 0)
    assert resident_pages(bm) == pinned_pages(bm) == set()
    bm.request_set(range(8))
    assert pinned_pages(bm) == set(range(8))
    bm.unpin_set(range(8))


def test_a_request_while_a_set_is_pinned_changes_nothing(tmp_store):
    """Whatever it asks for, a request made while a set is pinned raises
    and leaves counters, residency, LRU order and the pinned set as they
    were."""
    bm = manager(tmp_store, 4)
    bm.request_set([0, 1])
    # the pinned set itself, part of it, an overlap, a page outside the model
    for pages in ([0, 1], [1], [1, 2, 3], [9]):
        with pytest.raises(PreconditionError, match="still pinned"):
            bm.request_set(pages)
    assert (bm.page_requests, bm.page_misses, bm.store.reads) == (2, 2, 2)
    assert list(bm._resident) == [1, 0]  # least recent first
    assert pinned_pages(bm) == {0, 1}
    bm.unpin_set([0, 1])


def test_failed_read_releases_the_requests_pins(tmp_path):
    path = str(tmp_path / "t.model")
    with ModelStore.create(path, 64, 8) as store:
        with open(path, "r+b") as fh:    # shrink the file under the open store
            fh.truncate(fh.seek(0, 2) - 16)
        bm = BufferManager(store, 2)
        with pytest.raises(StoreError):
            bm.request_set([0, 7])       # page 7 is cut short
        assert pinned_pages(bm) == set()
        assert resident_pages(bm) == {0}
        assert bm.page_misses == store.reads == bm.distinct_pages == 1
        bm.request_set([1, 2])           # both frames are free to take
        assert pinned_pages(bm) == {1, 2}
        bm.unpin_set([1, 2])


def test_failed_write_back_keeps_the_page_resident_and_dirty(tmp_store, monkeypatch):
    bm = manager(tmp_store, 2)
    bm.request_set([0, 1])
    bm.frames.reshape(-1)[bm.positions([0])] = 5.0
    bm.unpin_set([0, 1], dirty=[0])
    real_write = bm.store.write_page

    def failing_write(page_id, values):
        raise StoreError("disk full")

    monkeypatch.setattr(bm.store, "write_page", failing_write)
    with pytest.raises(StoreError):
        bm.request_set([2, 3])           # page 2 evicts clean page 1, page 3 dirty page 0
    assert pinned_pages(bm) == set()
    assert resident_pages(bm) == {0, 2}
    assert bm.write_backs == 0
    monkeypatch.setattr(bm.store, "write_page", real_write)
    bm.request_set([2, 3])
    bm.unpin_set([2, 3])
    assert bm.write_backs == 1
    assert bm.store.read_page(0)[0] == 5.0


class RecordingManager(BufferManager):
    """Records the id of every page it evicts, in eviction order: a miss
    that reads into a frame some page held when the request began evicted
    that page."""

    def __init__(self, store, capacity):
        super().__init__(store, capacity)
        self.evicted = []
        self._held_by = {}
        read_page = store.read_page

        def recording_read(page_id, out=None):
            if out is not None and out.base is self.frames:
                frame = (out.ctypes.data - self.frames.ctypes.data) // self.frames.strides[0]
                if frame in self._held_by:
                    self.evicted.append(self._held_by.pop(frame))
            return read_page(page_id, out=out)

        store.read_page = recording_read

    def request_set(self, pages):
        self._held_by = {frame: page_id for page_id, frame in self._resident.items()}
        super().request_set(pages)


class ReferenceLru:
    """Plain-list LRU with the set-refresh rule, one set pinned at a time: a
    request loads its missing pages in ascending id order (each evicting
    the least recent page outside the request when full), then refreshes
    the whole set with the lowest id most recent."""

    def __init__(self, disk, capacity):
        self.disk = disk                 # page_id -> list of values
        self.capacity = capacity
        self.order = []                  # least recent first
        self.cached = {}                 # resident page_id -> list of values
        self.dirty = set()
        self.evicted = []
        self.misses_by_page = {}
        self.write_backs = 0

    def request(self, pages):
        pages = sorted(set(pages))
        for page_id in pages:
            if page_id in self.cached:
                continue
            if len(self.cached) >= self.capacity:
                victim = next(p for p in self.order if p not in pages)
                self.order.remove(victim)
                if victim in self.dirty:
                    self.disk[victim] = self.cached[victim]
                    self.dirty.discard(victim)
                    self.write_backs += 1
                del self.cached[victim]
                self.evicted.append(victim)
            self.cached[page_id] = list(self.disk[page_id])
            self.order.append(page_id)
            self.misses_by_page[page_id] = self.misses_by_page.get(page_id, 0) + 1
        for page_id in reversed(pages):
            self.order.remove(page_id)
            self.order.append(page_id)

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
    """Steps: ("request", pages), ("unpin",) or ("write", k, slot, value);
    k picks a page of the pinned set."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["request", "request", "unpin", "write"]))
        if kind == "request":
            steps.append(("request", draw(st.sets(st.integers(0, 7), min_size=1, max_size=4))))
        elif kind == "unpin":
            steps.append(("unpin",))
        else:
            steps.append(("write", draw(st.integers(0, 99)), draw(st.integers(0, 3)),
                          float(len(steps) + 1)))
    return steps


@settings(max_examples=150, deadline=None)
@given(steps=pinning_traces(), capacity=st.integers(1, 8))
def test_matches_reference_lru(tmp_path_factory, steps, capacity):
    """Random traces of one pinned request at a time, with writes: the frame
    pool evicts the same pages in the same order as a plain-list LRU, misses
    each page as often and leaves the same bytes on disk. The reference
    marks a page dirty when it is written; the buffer manager learns it
    when the writing request unpins its set."""
    from dpjoin import ModelStore

    def release():
        pages, written = pinned.pop()
        bm.unpin_set(pages, dirty=written)

    path = str(tmp_path_factory.mktemp("bm") / "m.model")
    with ModelStore.create(path, 32, 4, init=("uniform", -1.0, 1.0), seed=3) as store:
        ref = ReferenceLru({p: list(store.read_page(p)) for p in range(8)}, capacity)
        bm = RecordingManager(store, capacity)
        flat = bm.frames.reshape(-1)
        pinned = []                      # (pages, pages written) of the pinned set, if any
        with PageRecorder(store) as recorder:
            for step in steps:
                if step[0] == "request":
                    pages = sorted(step[1])[:capacity]
                    if pinned:           # one set at a time
                        release()
                    bm.request_set(pages)
                    pinned.append((pages, set()))
                    ref.request(pages)
                elif pinned and step[0] == "unpin":
                    release()
                elif pinned:
                    pages, written = pinned[0]
                    page_id = pages[step[1] % len(pages)]
                    flat[bm.positions([page_id * 4 + step[2]])] = step[3]
                    written.add(page_id)
                    ref.write(page_id, step[2], step[3])
                assert bm.evicted == ref.evicted
                assert resident_pages(bm) == set(ref.cached)
                assert pinned_pages(bm) == set(pinned[0][0] if pinned else ())
        assert recorder.misses_by_page == ref.misses_by_page
        if pinned:
            release()
        bm.flush_all()
        ref.flush()
        assert bm.write_backs == ref.write_backs
        on_disk = store.load_dense()
    assert on_disk.tolist() == [v for p in range(8) for v in ref.disk[p]]
