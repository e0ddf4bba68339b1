"""The out-of-core dot-product join operator.

Streams a dataset of sparse vectors against a paged dense model, one
chunk (U-page) of vectors at a time, under one of three plans:

- `gather` (the default): the U-page's entries are sorted by model index,
  its distinct pages are requested once each, in ascending groups of the
  budget, and each entry's model value is copied into place (`gather`);
  the dot products are then computed together and emitted in file order.
  This is a sort-merge join of the entries against the model.
- `batched`: the paper's operator. Vectors are reordered within the
  chunk, cut into batches whose page unions fit the memory budget, and
  each batch's pages are requested from the buffer manager as one pinned
  set; its dot products are emitted before the next batch issues any page
  request.
- `single`: as `batched`, one vector per batch.

Every pinned batch's model indexes are turned into frame-pool positions
once (`BufferManager.positions`).

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
from .model_store import page_count
from .reorder import HEURISTICS, MAX_LSH_HASHES, reorder
from .sparse_data import Dataset

PLANS = ("gather", "batched", "single")


@dataclass
class OperatorConfig:
    """The join's and training's operator settings. `plan` and the ordering
    options (`reorder`, `seed`, `lsh_m`, `lsh_b`, `kcenter_k`) shape the
    join: the `gather` join reads each U-page in file order. Training reads
    every U-page by gather under every plan; the ordering options order
    `sgd`'s updates alone."""

    budget: int                 # memory budget in pages
    reorder: str = "none"
    plan: str = "gather"        # one of PLANS
    upage: int = 4096           # vectors per reorder scope
    seed: int = 0
    lsh_m: int = 16
    lsh_b: int = 4
    kcenter_k: int | None = None

    @property
    def batches_greedily(self):
        """Whether the batched join cuts vectors into greedy batches: every
        plan but `single`; the `gather` join cuts none."""
        return self.plan != "single"

    def describe(self):
        """Every field, by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def check(self, num_pages, dataset=None):
        """Reject a budget outside [1, num_pages], a negative seed, an unknown
        heuristic or plan and options no heuristic accepts, whichever is
        chosen. The join takes any `dataset`. Called by `check_inputs` only."""
        if self.reorder not in HEURISTICS:
            raise ValidationError(f"unknown reorder heuristic {self.reorder!r}")
        if self.plan not in PLANS:
            raise ValidationError(f"unknown plan {self.plan!r}")
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
    is given; else greedy batches, or single-vector batches under the
    `single` plan."""
    if union is not None:
        return [Batch(list(range(len(ordered_sets))), frozenset(union))]
    if config.batches_greedily:
        return greedy_batches(ordered_sets, config.budget)
    return [Batch([position], pages)
            for position, pages in fitting_sets(ordered_sets, config.budget)]


def plan_upage(dataset, start, stop, page_size, config, path):
    """Rows [start, stop) of `dataset`, a U-page, in processing order and
    their batches, from its `Dataset.page_sets`; it checks nothing, as
    `check_inputs` has checked every vector against the budget. Unless the
    plan is `single`, a U-page whose page union fits the budget is one batch
    in file order: no order changes its counters, so it is not reordered,
    and greedy batching does not run. Any other U-page runs in
    `plan_order`'s order, seeded by `path`."""
    sets = dataset.page_sets(start, stop, page_size)
    union = None
    if config.batches_greedily:
        union = set()
        for pages in sets:  # given up as soon as it exceeds the budget
            union.update(pages)
            if len(union) > config.budget:
                union = None
                break
    rows = np.arange(start, stop)
    if union is None:
        perm = plan_order(sets, config, path)
        rows, sets = start + np.asarray(perm, dtype=np.int64), [sets[p] for p in perm]
    return rows, make_batches(sets, config, union)


def execute(manager, data, batches, visit, report, dirty=None):
    """Pin each batch's pages as one set, call `visit(data, start, stop,
    at)` once for its vectors, rows [start, stop) of `data` (a batch's
    positions are consecutive; the batches come in any order), and unpin
    the set, declaring modified the pages that `dirty`, when given, holds
    for that batch (one collection of pages per batch). `at` holds, for each of
    the batch's entries, where its model value sits in
    `manager.frames.reshape(-1)`. The set is unpinned even when resolving
    `at` or the visit raises. Adds the batches, the vectors' element
    requests and the time spent visiting to `report`."""
    report.batch_count += len(batches)
    indptr = data.indptr
    for k, batch in enumerate(batches):
        start, stop = batch.positions[0], batch.positions[-1] + 1
        lo, hi = indptr[start], indptr[stop]
        manager.request_set(batch.pages)
        try:
            started = time.perf_counter()
            report.element_requests += int(hi - lo)
            visit(data, start, stop, manager.positions(data.indices[lo:hi]))
            report.compute_time += time.perf_counter() - started
        finally:
            manager.unpin_set(batch.pages, dirty=() if dirty is None else dirty[k])


def page_groups(pages, budget):
    """Consecutive groups of `budget` of the distinct, ascending list
    `pages`: the page sets `greedy_batches` cuts of their one-page sets."""
    return [frozenset(pages[k : k + budget]) for k in range(0, len(pages), budget)]


def page_starts(pages):
    """The distinct values of the ascending page ids `pages`, and where each
    one's run starts, with len(pages) appended."""
    first = np.flatnonzero(pages[1:] != pages[:-1]) + 1
    first = np.concatenate(([0], first)) if len(pages) else first
    return pages[first], np.append(first, len(pages))


def gather(manager, data, start, stop, report, write=None):
    """The model value of every entry of rows [start, stop) of `data`, in
    entry order, read by one ascending scan: the entries are sorted by
    model index, their distinct pages requested once each through
    `execute`, in ascending `page_groups` of the budget, and each value
    copied into place from its pinned page. The copy writes each value at
    its own entry, so the order of equal indexes changes nothing.

    `write`, when given, is a pending write `(touched, new)`: distinct,
    ascending model indexes and the value to assign to each. The same scan
    carries it: the union of both streams' pages is requested, each page
    once, and in each pinned group the values are assigned before the
    entries are copied, so the read sees the written model. Only the pages
    that hold a written index are unpinned dirty."""
    indices = data.indices[data.indptr[start] : data.indptr[stop]]
    order = np.argsort(indices)
    touched, new = write if write is not None else (indices[:0], np.empty(0))
    page_size = np.uint64(manager.store.page_size)
    write_pages, write_starts = page_starts(touched // page_size)
    read_pages = indices[order]
    read_pages //= page_size  # in place, to hold one entries-sized array fewer
    read_pages, read_starts = page_starts(read_pages)
    # The union of the page lists, not by np.union1d: it imports numpy.ma
    # (about 1 MiB) on first use.
    pages = page_starts(np.sort(np.concatenate((write_pages, read_pages))))[0]
    firsts = pages[:: manager.capacity]
    written = np.append(np.searchsorted(write_pages, firsts), len(write_pages))
    write_cuts = write_starts[written]
    read_cuts = read_starts[np.append(np.searchsorted(read_pages, firsts), len(read_pages))]
    # Row 2g holds the model indexes of group g's write, row 2g + 1 its reads'.
    indptr = np.empty(2 * len(firsts) + 1, dtype=np.int64)
    indptr[0::2] = write_cuts + read_cuts
    indptr[1::2] = write_cuts[1:] + read_cuts[:-1]
    if len(touched):
        merged = np.empty(indptr[-1], dtype=indices.dtype)
        for g in range(len(firsts)):
            merged[indptr[2 * g] : indptr[2 * g + 1]] = touched[write_cuts[g] : write_cuts[g + 1]]
            merged[indptr[2 * g + 1] : indptr[2 * g + 2]] = indices[
                order[read_cuts[g] : read_cuts[g + 1]]]
    else:  # every write row is empty
        merged = indices[order]
    groups = Dataset.from_arrays(manager.store.dimension, indptr, merged, None,
                                 np.arange(len(indptr) - 1), np.full(len(indptr) - 1, np.nan))
    batches = [Batch([2 * g, 2 * g + 1], group)
               for g, group in enumerate(page_groups(pages.tolist(), manager.capacity))]
    values = np.empty(len(indices))
    flat = manager.frames.reshape(-1)

    def write_and_copy(groups, row, _, at):
        g, split = row // 2, indptr[row + 1] - indptr[row]
        flat[at[:split]] = new[write_cuts[g] : write_cuts[g + 1]]
        values[order[read_cuts[g] : read_cuts[g + 1]]] = flat[at[split:]]

    execute(manager, groups, batches, write_and_copy, report,
            dirty=[write_pages[a:b] for a, b in zip(written, written[1:])])
    return values


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


def dot_products(data, start, stop, model_values):
    """Dot products of rows [start, stop) of `data`, given the model value
    of each of their entries, summed by `row_sums`."""
    lo, hi = data.indptr[start], data.indptr[stop]
    return row_sums(data.values[lo:hi] * model_values, data.indptr[start : stop + 1] - lo)


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


def check_inputs(dataset, dimension, page_size, config):
    """The one input check of the CLI, `run`, `train` and `train_oracle`,
    made before any model file is created and any page is read.
    Rejects a dataset whose dimension is not the model's (`dimension`
    entries, `page_size` to a page), whatever `config.check` rejects (a
    TrainConfig adds training's options and `check_dataset`), and, per
    U-page in file order, a vector whose distinct pages outnumber the
    budget: the error names the first, by its tid and its offset in its
    U-page, whatever the plan or heuristic."""
    if dataset.dimension != dimension:
        raise ValidationError(
            f"dataset dimension {dataset.dimension} != model dimension {dimension}")
    config.check(page_count(dimension, page_size), dataset)
    op = getattr(config, "operator", config)  # a TrainConfig's operator settings
    for start, stop in dataset.upage_bounds(op.upage):
        counts = np.diff(dataset.page_runs(start, stop, page_size)[1])
        over = np.flatnonzero(counts > op.budget)
        if len(over):
            position = int(over[0])
            tid = int(dataset.tids[start + position])
            raise OversizedVectorError(f"vector tid {tid} needs {int(counts[position])} pages,"
                                       f" budget is {op.budget}", position=position, tid=tid)


def run(dataset, store, config, sink=None):
    """Execute the join under `config.plan`; emit DotProductResult per
    vector to `sink` and return a MetricsReport.

    `check_inputs` runs before any page is read. `gather` then gathers each
    U-page and emits its results in file order. `batched` and `single` emit
    in processing (post-reorder) order; under `batched`, a U-page whose page
    union fits the budget is one batch in file order: it is neither
    reordered nor greedily batched, since no order changes its requests."""
    check_inputs(dataset, store.dimension, store.page_size, config)
    emit = sink if sink is not None else (lambda result: None)
    manager = BufferManager(store, config.budget)
    report = MetricsReport(config=config.describe())
    flat = manager.frames.reshape(-1)

    def visit(data, start, stop, model_values):
        dps = dot_products(data, start, stop, model_values)
        for tid, dp in zip(data.tids[start:stop].tolist(), dps.tolist()):
            emit(DotProductResult(tid, dp))

    def visit_pinned(data, start, stop, at):
        visit(data, start, stop, flat[at])

    for upage_index, (start, stop) in enumerate(dataset.upage_bounds(config.upage)):
        report.upage_count += 1
        if config.plan == "gather":
            values = gather(manager, dataset, start, stop, report)
            started = time.perf_counter()
            visit(dataset, start, stop, values)
            report.compute_time += time.perf_counter() - started
        else:
            started = time.perf_counter()
            rows, batches = plan_upage(dataset, start, stop, store.page_size, config,
                                        (upage_index,))
            report.reorder_time += time.perf_counter() - started
            execute(manager, dataset.take(rows), batches, visit_pinned, report)
    return finish_report(manager, report)


class CollectSink:
    """Sink that keeps every result in arrival order."""

    def __init__(self):
        self.results = []

    def __call__(self, result):
        self.results.append(result)
