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
recent. A caller that modified a set's pages says so when it unpins them
(`unpin_set(pages, dirty=True)`); dirty pages are written back when evicted
and on flush_all.

Pages live in a frame pool allocated once: one row of `frames` per page
the budget can hold (at most the model's page count). A miss reads the page
in place into a free frame row, or into the row the evicted page gives up.
The pool is allocated lazily by the operating system, so resident memory
grows only with the frames actually used. A returned PageView's `values` is
that frame's row, so a view is valid only while its page is pinned: once the
page is evicted the row holds another page, and the old view's `values` is
None, so using it raises instead of reading the other page's data.
"""

from __future__ import annotations

from collections import Counter, OrderedDict

import numpy as np

from .errors import PreconditionError, ValidationError


class BufferManager:
    def __init__(self, store, capacity):
        if capacity < 1:
            raise ValidationError(f"memory budget must be >= 1 page, got {capacity}")
        self.store = store
        self.capacity = capacity
        self.frames = np.empty((min(capacity, store.num_pages), store.page_size), dtype="<f8")
        self._free = list(self.frames)[::-1]  # free frame rows; frame 0 is used first
        self._views = OrderedDict()  # resident page_id -> PageView, least recent first
        self._pins = {}              # page_id -> pin count, pinned pages only
        self._dirty = set()          # resident pages modified since they were read
        self.page_requests = 0
        self.page_misses = 0
        self.write_backs = 0
        self.misses_by_page = Counter()
        self.store_io_at_start = store.io_time  # so a report counts only its own I/O

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
        views, pins = self._views, self._pins
        # Hits are pinned and refreshed highest id first, so the eviction
        # scan below never walks them and, when nothing is missing, the set
        # already sits at the recent end in its final order.
        missing = []
        for page_id in reversed(pages):
            if page_id in views:
                pins[page_id] = pins.get(page_id, 0) + 1
                views.move_to_end(page_id)
            else:
                missing.append(page_id)
        for page_id in reversed(missing):
            row = self._free.pop() if self._free else self._evict_one()
            try:
                views[page_id] = self.store.read_page(page_id, out=row)
            except BaseException:
                self._free.append(row)
                raise
            self.page_misses += 1
            self.misses_by_page[page_id] = self.misses_by_page.get(page_id, 0) + 1
            pins[page_id] = 1
        if missing:
            # The whole set becomes most recently used; lower page ids are
            # refreshed last so the lowest id ends up the single most recent.
            for page_id in reversed(pages):
                views.move_to_end(page_id)
        return {page_id: views[page_id] for page_id in pages}

    def unpin_set(self, pages, dirty=False):
        """Release one pin on each of `pages`. With `dirty`, the caller
        declares that it modified every one of them, and each is written
        back when it is evicted or flushed."""
        pins = self._pins
        for page_id in sorted({int(p) for p in pages}):
            count = pins.get(page_id, 0)
            if count == 0:
                raise PreconditionError(f"page {page_id} is not pinned")
            if count == 1:
                del pins[page_id]
            else:
                pins[page_id] = count - 1
            if dirty:
                self._dirty.add(page_id)

    def _evict_one(self):
        """Evict the least recently used unpinned page; return its frame row."""
        pins = self._pins
        for victim in self._views:
            if victim not in pins:
                break
        else:
            raise PreconditionError("all resident pages are pinned; cannot evict")
        view = self._views.pop(victim)
        if victim in self._dirty:
            self.store.write_page(view)
            self.write_backs += 1
            self._dirty.remove(victim)
        row, view.values = view.values, None
        return row

    def flush_all(self):
        """Write back every dirty resident page (ascending id); keep residency."""
        for page_id in sorted(self._dirty):
            self.store.write_page(self._views[page_id])
            self.write_backs += 1
            self._dirty.remove(page_id)

    # -- bookkeeping -------------------------------------------------------------

    def resident_pages(self):
        return set(self._views)

    def pinned_pages(self):
        return set(self._pins)

    @property
    def distinct_pages(self):
        """Distinct pages ever requested (first request is always a miss)."""
        return len(self.misses_by_page)
