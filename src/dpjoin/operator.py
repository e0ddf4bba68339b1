"""The out-of-core dot-product join operator.

Streams a dataset of sparse vectors against a paged dense model: vectors
are taken one chunk (U-page) at a time, reordered within the chunk, cut
into batches whose page unions fit the memory budget, and each batch's
pages are requested from the buffer manager as one pinned set. The batch's
model indexes are turned into frame-pool positions once
(`BufferManager.positions`), and its dot products are computed together
from the pinned frames and emitted before the next batch issues any page
request.

Bit equality with the oracles' scalar per-vector loop (`dot_product`) is
kept by one rule: every sum adds its terms one at a time, in entry order,
starting from +0.0. `row_sums` vectorises across vectors, not along a
vector; np.sum, np.dot and reduceat sum pairwise or in blocks and would
change the last bits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .batcher import Batch, fitting_sets, greedy_batches
from .buffer_manager import BufferManager
from .errors import OversizedVectorError, ValidationError
from .metrics import MetricsReport
from .reorder import HEURISTICS, MAX_LSH_HASHES, reorder, walk_order


@dataclass
class OperatorConfig:
    budget: int                 # memory budget in pages
    reorder: str = "none"
    batching: bool = True
    upage: int = 4096           # vectors per reorder scope
    seed: int = 0
    lsh_m: int = 16
    lsh_b: int = 4
    kcenter_k: int | None = None

    def describe(self):
        """Every field, by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def check(self, num_pages):
        """Reject a budget outside [1, num_pages], a negative seed, an unknown
        heuristic and options no heuristic accepts, whichever is chosen;
        `run`, `train` and the CLI check here, before any page is read."""
        if self.reorder not in HEURISTICS:
            raise ValidationError(f"unknown reorder heuristic {self.reorder!r}")
        if not 1 <= self.budget <= num_pages:
            raise ValidationError(f"budget must be 1 to {num_pages} pages, got {self.budget}")
        if self.upage < 1:
            raise ValidationError(f"upage size must be >= 1, got {self.upage}")
        if not 1 <= self.lsh_b <= self.lsh_m <= MAX_LSH_HASHES:
            raise ValidationError(f"need 1 <= LSH bands ({self.lsh_b}) <= hashes"
                                  f" ({self.lsh_m}) <= {MAX_LSH_HASHES}")
        if self.kcenter_k is not None and self.kcenter_k < 2:
            raise ValidationError(f"k-center k must be >= 2, got {self.kcenter_k}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class DotProductResult:
    tid: int
    dp: float


def dot_product(vector, model):
    """Sum of value * model entry over the vector's entries, added one at a
    time in entry order from +0.0, against the in-memory array `model`: the
    oracles' scalar loop, which `row_sums` reproduces for a whole batch."""
    dp = 0.0
    for k in range(vector.nnz):
        dp += float(vector.values[k]) * float(model[int(vector.indexes[k])])
    return dp


def oracle_dot_products(dataset, dense_model):
    """In-memory reference: dot_product of each vector, no paging, no
    reordering. Returns results in dataset order."""
    return [DotProductResult(vector.tid, dot_product(vector, dense_model))
            for vector in dataset]


def plan_order(sets, config, path):
    """Permutation of a U-page's positions, per config, seeded by
    `[config.seed, *path]` (`none` and `radix` read no seed); `path` names the
    U-page: `(upage_index,)` in the join, `(iteration, upage_index)` in training."""
    return reorder(
        config.reorder, sets, config.budget, seed=[config.seed, *path],
        lsh_m=config.lsh_m, lsh_b=config.lsh_b, kcenter_k=config.kcenter_k,
    )


def make_batches(ordered_sets, config, union=None):
    """One batch of every vector when `union`, the page union of the sets,
    is given; else greedy batches when batching is on, single-vector
    batches otherwise."""
    if union is not None:
        return [Batch(list(range(len(ordered_sets))), frozenset(union))]
    if config.batching:
        return greedy_batches(ordered_sets, config.budget)
    return [Batch([position], pages)
            for position, pages in fitting_sets(ordered_sets, config.budget)]


def plan_upage(dataset, start, stop, page_size, config, path, ordered=False):
    """Rows [start, stop) of `dataset`, a U-page, in processing order and
    their batches. Every vector's page set is checked against the budget in
    file order first, so the error for one that cannot fit names the first
    such vector's tid, whatever the heuristic. With batching on, a U-page
    whose page union fits the budget is one batch in any order, so no order
    changes its counters, and greedy batching does not run. With `ordered`
    (the update passes, which `train_oracle` replays) the vectors run in
    `plan_order`'s order, seeded by `path`; else (the join, training's loss
    passes) a U-page of one batch runs in file order, so no reorder runs,
    and any other in `plan_order`'s."""
    sets = dataset.page_sets(start, stop, page_size)
    for position, pages in enumerate(sets):
        if len(pages) > config.budget:
            tid = int(dataset.tids[start + position])
            raise OversizedVectorError(f"vector tid {tid} needs {len(pages)} pages, budget"
                                       f" is {config.budget}", position=position, tid=tid)
    union = None
    if config.batching:
        union = set()
        for pages in sets:  # given up as soon as it exceeds the budget
            union.update(pages)
            if len(union) > config.budget:
                union = None
                break
    rows = np.arange(start, stop)
    if ordered or union is None:
        perm = plan_order(sets, config, path)
        rows, sets = start + np.asarray(perm, dtype=np.int64), [sets[p] for p in perm]
    return rows, make_batches(sets, config, union)


def walk_batches(batches):
    """A U-page's `batches`, as cut, in `walk_order`; their positions still
    index the rows in the order they were cut, which `execute` reads."""
    return [batches[index] for index in walk_order([batch.pages for batch in batches])]


def execute(manager, data, batches, visit, report, dirty=False):
    """Pin each batch's pages as one set, call `visit(data, start, stop,
    at)` once for its vectors, rows [start, stop) of `data` (a batch's
    positions are consecutive; the batches come in any order), and unpin
    the set, declaring it modified when `dirty` (a visit that writes every
    index of its vectors writes every page of its batch). `at` holds, for each of
    the batch's entries, where its model value sits in
    `manager.frames.reshape(-1)`. The set is unpinned even when resolving
    `at` or the visit raises. Adds the batches, the vectors' element
    requests and the time spent visiting to `report`."""
    report.batch_count += len(batches)
    indptr = data.indptr
    for batch in batches:
        start, stop = batch.positions[0], batch.positions[-1] + 1
        lo, hi = indptr[start], indptr[stop]
        manager.request_set(batch.pages)
        try:
            started = time.perf_counter()
            report.element_requests += int(hi - lo)
            visit(data, start, stop, manager.positions(data.indices[lo:hi]))
            report.compute_time += time.perf_counter() - started
        finally:
            manager.unpin_set(batch.pages, dirty=dirty)


def row_sums(terms, bounds):
    """Per-vector sums of `terms`, vector i owning terms[bounds[i]:bounds[i+1]],
    each added in entry order from +0.0 exactly as `dot_product` adds them.
    The terms are laid out in a grid by entry position k, zero padded, and
    the grid is added up column by column, vectorised across vectors. The
    padding adds +0.0, which changes no sum: a sum started at +0.0 is never
    -0.0."""
    nnz = bounds[1:] - bounds[:-1]
    grid = np.zeros((int(nnz.max()), len(nnz)))
    vector = np.repeat(np.arange(len(nnz)), nnz)
    grid[np.arange(len(terms)) - bounds[vector], vector] = terms
    sums = np.zeros(len(nnz))
    for column in grid:
        sums += column
    return sums


def batch_dot_products(flat, data, start, stop, at):
    """Dot products of rows [start, stop) of `data` against the frame pool
    `flat`: the batch's model values are gathered from their positions
    `at` in one step and summed by `row_sums`."""
    lo, hi = data.indptr[start], data.indptr[stop]
    return row_sums(data.values[lo:hi] * flat[at], data.indptr[start : stop + 1] - lo)


def finish_report(manager, report):
    """Write back dirty pages, then copy the storage counters into `report`;
    its I/O time is the store's since `manager` was created."""
    manager.flush_all()
    report.page_requests = manager.page_requests
    report.page_misses = manager.page_misses
    report.write_backs = manager.write_backs
    report.distinct_pages = manager.distinct_pages
    report.io_time = manager.store.io_time - manager.store_io_at_start
    return report


def check_inputs(dataset, store, config):
    """Reject a dataset whose dimension is not the model's and whatever
    `config.check` rejects for the model's page count; shared by the join
    (an OperatorConfig) and training (a TrainConfig)."""
    if dataset.dimension != store.dimension:
        raise ValidationError(
            f"dataset dimension {dataset.dimension} != model dimension {store.dimension}"
        )
    config.check(store.num_pages)


def run(dataset, store, config, sink=None):
    """Execute the join; emit DotProductResult per vector to `sink` in
    processing (post-reorder) order and return a MetricsReport. With
    batching on, a U-page whose page union fits the budget is one batch in
    file order: it is neither reordered nor greedily batched, since no
    order changes its requests."""
    check_inputs(dataset, store, config)
    emit = sink if sink is not None else (lambda result: None)
    manager = BufferManager(store, config.budget)
    report = MetricsReport(config=config.describe())

    flat = manager.frames.reshape(-1)

    def visit(data, start, stop, at):
        dps = batch_dot_products(flat, data, start, stop, at)
        for tid, dp in zip(data.tids[start:stop].tolist(), dps.tolist()):
            emit(DotProductResult(tid, dp))

    for upage_index, (start, stop) in enumerate(dataset.upage_bounds(config.upage)):
        report.upage_count += 1
        started = time.perf_counter()
        rows, batches = plan_upage(dataset, start, stop, store.page_size, config,
                                    (upage_index,))
        report.reorder_time += time.perf_counter() - started
        execute(manager, dataset.take(rows), batches, visit, report)
    return finish_report(manager, report)


class CollectSink:
    """Sink that keeps every result in arrival order."""

    def __init__(self):
        self.results = []

    def __call__(self, result):
        self.results.append(result)
