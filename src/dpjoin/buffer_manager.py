"""Buffer manager with set-granular pinned requests over a page store.

Requests arrive as page sets, not single pages, and one set is pinned at
a time: `request_set` pins a set, `unpin_set` releases exactly that set,
and a request made while a set is pinned is refused. A request refreshes
its resident pages, then loads the missing ones one by one (ascending page
id), each time evicting the least-recently-used page if the pool is full.
Since nothing outside the request is pinned and the set fits the pool, the
least recent page is never one of the request's; this is what makes a batch
of vectors safe to process against a fixed set of resident pages.

Replacement is strict LRU over request sets: after a request completes, all
its pages become the most recently used, with the lower page id placed most
recent. A caller that modified some of a set's pages names them when it
unpins the set (`unpin_set(pages, dirty=modified)`); dirty pages are
written back when evicted and on flush_all.

Pages live in a frame pool allocated once: one row of `frames` per page
the budget can hold (at most the model's page count). A miss reads the page
in place into a free frame, or into the frame the evicted page gives up.
The pool is allocated lazily by the operating system, so resident memory
grows only with the frames actually used. One ordered map of resident page
to frame row is at once the residency map, the LRU order and where each
page lives; `positions` turns the model indexes of the pinned set into
places in `frames.reshape(-1)`, so a caller gathers or updates a whole
pinned batch's values in one step. A row holds a page only while it is
resident, so positions are good only while the set stays pinned.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .errors import PreconditionError, ValidationError


class BufferManager:
    def __init__(self, store, capacity):
        if capacity < 1:
            raise ValidationError(f"memory budget must be >= 1 page, got {capacity}")
        self.store = store
        self.capacity = capacity
        self.frames = np.empty((min(capacity, store.num_pages), store.page_size), dtype="<f8")
        self._free = list(range(len(self.frames)))[::-1]  # free frames; frame 0 is used first
        self._resident = OrderedDict()  # page_id -> its row of `frames`, least recent first
        self._pinned = []               # the pinned set's pages, ascending; [] when none is
        self._dirty = set()             # resident pages modified since they were read
        self.page_requests = 0
        self.page_misses = 0
        self.write_backs = 0
        self._ever_read = set()         # every page read at least once
        self.store_io_at_start = store.io_time  # so a report counts only its own I/O

    # -- requests ------------------------------------------------------------

    def request_set(self, pages):
        """Pin `pages` as one unit; no other set may be pinned.

        Counts len(pages) page requests and one miss per page actually
        loaded. The caller must unpin_set the same pages when done. A
        refused request counts, reads and pins nothing. If a page cannot be
        read or an evicted page written back, nothing is left pinned; the
        pages the request read stay resident and counted.
        """
        pages = sorted({int(p) for p in pages})
        if self._pinned:
            raise PreconditionError(f"a set of {len(self._pinned)} pages is still pinned")
        num_pages = self.store.num_pages
        if pages and not (0 <= pages[0] and pages[-1] < num_pages):
            stray = pages[0] if pages[0] < 0 else pages[-1]
            raise ValidationError(f"page {stray} is outside the model's {num_pages} pages")
        if len(pages) > self.capacity:
            raise PreconditionError(
                f"request of {len(pages)} pages exceeds budget of {self.capacity}"
            )
        resident = self._resident
        missing = [page_id for page_id in pages if page_id not in resident]
        self.page_requests += len(pages)
        # Hits are refreshed highest id first, so the least recent page, the
        # next victim, is never one of the request's, and, when nothing is
        # missing, the set already sits at the recent end in its final order.
        for page_id in reversed(pages):
            if page_id in resident:
                resident.move_to_end(page_id)
        frames, free, store, dirty = self.frames, self._free, self.store, self._dirty
        for k, page_id in enumerate(missing):
            frame = None
            try:
                if free:
                    frame = free.pop()
                else:
                    victim = next(iter(resident))
                    if victim in dirty:
                        # A failed write-back leaves the page resident and dirty.
                        store.write_page(victim, frames[resident[victim]])
                        self.write_backs += 1
                        dirty.remove(victim)
                    frame = resident.pop(victim)
                store.read_page(page_id, out=frames[frame])
            except BaseException:
                if frame is not None:
                    free.append(frame)
                self.page_misses += k
                self._ever_read.update(missing[:k])
                raise
            resident[page_id] = frame
        if missing:
            self.page_misses += len(missing)
            self._ever_read.update(missing)
            # The whole set becomes most recently used; lower page ids are
            # refreshed last so the lowest id ends up the single most recent.
            for page_id in reversed(pages):
                resident.move_to_end(page_id)
        self._pinned = pages

    def unpin_set(self, pages, dirty=()):
        """Release the pinned set, which `pages` must name. `dirty` names
        those of them the caller modified; each is written back when it is
        evicted or flushed."""
        pages = sorted({int(p) for p in pages})
        dirty = {int(p) for p in dirty}
        if pages != self._pinned:
            raise PreconditionError(f"the {len(pages)} pages to unpin are not the pinned set")
        if not dirty.issubset(pages):
            raise PreconditionError(f"page {min(dirty.difference(pages))} is not being unpinned")
        self._pinned = []
        self._dirty.update(dirty)

    def positions(self, indexes):
        """Where each model index of `indexes` sits in `frames.reshape(-1)`.
        Every index's page must be pinned, and the positions are good only
        until the set is unpinned."""
        page_size = self.store.page_size
        pinned = self._pinned
        # Each pinned page's first index, after a page's worth below index 0
        # that no index may fall in. The positions are computed in place: a
        # pinned batch may hold most of a U-page's entries.
        first = np.array([-1] + pinned, dtype=np.int64) * page_size
        position = np.array(indexes, dtype=np.int64)
        at = np.searchsorted(first, position, side="right")
        at -= 1  # the last page starting at or below each index
        position -= first[at]  # its offset in that page
        unpinned = (at < 1) | (position >= page_size)
        if unpinned.any():
            k = np.argmax(unpinned)
            raise PreconditionError(f"page {int(position[k] + first[at[k]]) // page_size}"
                                    " is not pinned")
        frame = np.fromiter(map(self._resident.__getitem__, pinned), dtype=np.int64,
                            count=len(pinned))
        position += np.append(0, frame * page_size)[at]
        return position

    def flush_all(self):
        """Write back every dirty resident page (ascending id); keep residency."""
        for page_id in sorted(self._dirty):
            self.store.write_page(page_id, self.frames[self._resident[page_id]])
            self.write_backs += 1
            self._dirty.remove(page_id)

    # -- bookkeeping -------------------------------------------------------------

    @property
    def distinct_pages(self):
        """Distinct pages ever requested (first request is always a miss)."""
        return len(self._ever_read)
