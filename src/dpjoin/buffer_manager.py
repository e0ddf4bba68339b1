"""Buffer manager with set-granular pinned requests over a page store.

Requests arrive as page sets, not single pages. A request is served in two
stages: first every requested page that is already resident is pinned, then
the missing pages are loaded one by one (ascending page id), each time
evicting the least-recently-used unpinned page if the pool is full. Because
the whole request is pinned before any caller code runs, no page of the
request can be evicted by the request itself; this is what makes a batch of
vectors safe to process against a fixed set of resident pages.

Replacement is strict LRU over request sets: after a request completes, all
its pages become the most recently used, with the lower page id placed most
recent. Dirty pages are written back when evicted and on flush_all.

Pages live in a frame pool allocated once: one row of `frames` per page
the budget can hold (at most the model's page count). A miss reads the page
in place into a free frame, or into the frame of the page it evicts. The
pool is allocated lazily by the operating system, so resident memory grows
only with the frames actually used. A returned PageView's `values` is that
frame's row, so a view is valid only while its page is pinned: once the page
is evicted the frame holds another page, and the old view's `values` is
None, so using it raises instead of reading the other page's data.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, ValidationError


@dataclass
class MetricsSnapshot:
    element_requests: int = 0
    page_requests: int = 0
    page_misses: int = 0
    write_backs: int = 0
    misses_by_page: Counter = field(default_factory=Counter)

    def delta(self, earlier):
        """Counter difference self - earlier (for per-chunk reporting)."""
        by_page = self.misses_by_page - earlier.misses_by_page
        return MetricsSnapshot(
            self.element_requests - earlier.element_requests,
            self.page_requests - earlier.page_requests,
            self.page_misses - earlier.page_misses,
            self.write_backs - earlier.write_backs,
            by_page,
        )


class BufferManager:
    def __init__(self, store, capacity):
        if capacity < 1:
            raise ValidationError(f"memory budget must be >= 1 page, got {capacity}")
        self.store = store
        self.capacity = capacity
        count = min(capacity, store.num_pages)
        self.frames = np.empty((count, store.page_size), dtype="<f8")
        self._rows = list(self.frames)  # one view per frame, made once
        self._free = list(range(count - 1, -1, -1))  # frame 0 is used first
        self._resident = {}            # page_id -> PageView
        self._recency = OrderedDict()  # page_id -> frame, least recent first
        self._pins = {}                # page_id -> pin count, pinned pages only
        self.element_requests = 0
        self.page_requests = 0
        self.page_misses = 0
        self.write_backs = 0
        self.misses_by_page = Counter()

    # -- requests ------------------------------------------------------------

    def request_set(self, pages):
        """Pin `pages` as one unit and return {page_id: PageView}.

        Counts len(pages) page requests and one miss per page actually
        loaded. The caller must unpin_set the same pages when done.
        """
        pages = sorted({int(p) for p in pages})
        if len(pages) > self.capacity:
            raise PreconditionError(
                f"request of {len(pages)} pages exceeds budget of {self.capacity}"
            )
        self.page_requests += len(pages)
        resident, recency, pins = self._resident, self._recency, self._pins
        # Hits are pinned and refreshed highest id first, so the eviction
        # scan below never walks them and, when nothing is missing, the set
        # already sits at the recent end in its final order.
        missing = []
        for page_id in reversed(pages):
            if page_id in resident:
                pins[page_id] = pins.get(page_id, 0) + 1
                recency.move_to_end(page_id)
            else:
                missing.append(page_id)
        for page_id in reversed(missing):
            frame = self._free.pop() if self._free else self._evict_one()
            try:
                view = self.store.read_page(page_id, out=self._rows[frame])
            except BaseException:
                self._free.append(frame)
                raise
            self.page_misses += 1
            self.misses_by_page[page_id] = self.misses_by_page.get(page_id, 0) + 1
            resident[page_id] = view
            recency[page_id] = frame
            pins[page_id] = 1
        if missing:
            # The whole set becomes most recently used; lower page ids are
            # refreshed last so the lowest id ends up the single most recent.
            for page_id in reversed(pages):
                recency.move_to_end(page_id)
        return {page_id: resident[page_id] for page_id in pages}

    def unpin_set(self, pages):
        pins = self._pins
        for page_id in sorted({int(p) for p in pages}):
            count = pins.get(page_id, 0)
            if count == 0:
                raise PreconditionError(f"page {page_id} is not pinned")
            if count == 1:
                del pins[page_id]
            else:
                pins[page_id] = count - 1

    def _evict_one(self):
        """Evict the least recently used unpinned page; return its frame."""
        pins = self._pins
        for victim in self._recency:
            if victim not in pins:
                break
        else:
            raise PreconditionError("all resident pages are pinned; cannot evict")
        frame = self._recency.pop(victim)
        view = self._resident.pop(victim)
        if view.dirty:
            self.store.write_page(view)
            self.write_backs += 1
            view.dirty = False
        view.values = None
        return frame

    # -- updates ---------------------------------------------------------------

    def mark_dirty(self, page_id):
        view = self._resident.get(page_id)
        if view is None:
            raise PreconditionError(f"page {page_id} is not resident; cannot mark dirty")
        view.dirty = True

    def flush_all(self):
        """Write back every dirty resident page (ascending id); keep residency."""
        for page_id in sorted(self._resident):
            view = self._resident[page_id]
            if view.dirty:
                self.store.write_page(view)
                self.write_backs += 1
                view.dirty = False

    # -- bookkeeping -------------------------------------------------------------

    def add_element_requests(self, count):
        self.element_requests += count

    def resident_pages(self):
        return set(self._resident)

    def pinned_pages(self):
        return set(self._pins)

    def stats(self):
        return MetricsSnapshot(
            self.element_requests,
            self.page_requests,
            self.page_misses,
            self.write_backs,
            Counter(self.misses_by_page),
        )

    @property
    def distinct_pages(self):
        """Distinct pages ever requested (first request is always a miss)."""
        return len(self.misses_by_page)
