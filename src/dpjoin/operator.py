"""The out-of-core dot-product join operator.

Streams a dataset of sparse vectors against a paged dense model, one
chunk (U-page) of vectors at a time, under one of three plans:

- `gather` (the default): the U-page's entries are sorted by model index,
  its distinct pages are requested once each, in groups of the budget cut
  from the ascending page list, and the value at each distinct index is
  copied once (`gather`); the dot products are then computed together and
  emitted in file order. This is a sort-merge join of the entries against
  the model. Odd-numbered U-pages run their groups in descending order, so
  each gather starts on the pages the last one left resident (an elevator
  scan), not on the pages it evicted first.
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
from .reorder import DEFAULT_LSH_BANDS, DEFAULT_LSH_HASHES, HEURISTICS, MAX_LSH_HASHES, reorder

PLANS = ("gather", "batched", "single")


@dataclass
class OperatorConfig:
    """The join's and training's operator settings. The join's plan is an
    argument of `run`, not a setting: training reads every U-page by
    gather. The ordering options (`reorder`, `seed`, `lsh_m`, `lsh_b`,
    `kcenter_k`) order the `batched` and `single` joins and `sgd`'s updates;
    the `gather` join reads each U-page in file order."""

    budget: int                 # memory budget in pages
    reorder: str = "none"
    upage: int = 4096           # vectors per reorder scope
    seed: int = 0
    lsh_m: int = DEFAULT_LSH_HASHES
    lsh_b: int = DEFAULT_LSH_BANDS
    kcenter_k: int | None = None

    def describe(self):
        """Every field, by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def check(self, num_pages, dataset=None):
        """Reject a budget outside [1, num_pages], a negative seed, an unknown
        heuristic and options no heuristic accepts, whichever is chosen. The
        join takes any `dataset`. Called by `check_inputs` only."""
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


def make_batches(ordered_sets, config, plan, union=None):
    """One batch of every vector when `union`, the page union of the sets,
    is given; else greedy batches under the `batched` plan, single-vector
    batches under `single`."""
    if union is not None:
        return [Batch(list(range(len(ordered_sets))), frozenset(union))]
    if plan == "batched":
        return greedy_batches(ordered_sets, config.budget)
    return [Batch([position], pages)
            for position, pages in fitting_sets(ordered_sets, config.budget)]


def plan_upage(dataset, start, stop, page_size, config, plan, path):
    """Rows [start, stop) of `dataset`, a U-page, in processing order and
    their batches under `plan` (`batched` or `single`), from its
    `Dataset.page_sets`; it checks nothing, as `check_inputs` has checked
    every vector against the budget. Under `batched`, a U-page whose page
    union fits the budget is one batch in file order: no order changes its
    counters, so it is not reordered, and greedy batching does not run. Any
    other U-page runs in `plan_order`'s order, seeded by `path`."""
    sets = dataset.page_sets(start, stop, page_size)
    union = None
    if plan == "batched":
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
    return rows, make_batches(sets, config, plan, union)


def execute(manager, groups, visit, report):
    """For the k-th group `(pages, indexes, dirty)`, pin `pages` as one set,
    call `visit(k, at)`, `at` holding where the value at each of `indexes`
    sits in `manager.frames.reshape(-1)`, and unpin the set, the pages of
    `dirty` modified, even when resolving `at` or the visit raises. Adds
    the groups and the time spent visiting to `report`."""
    report.batch_count += len(groups)
    for k, (pages, indexes, dirty) in enumerate(groups):
        manager.request_set(pages)
        try:
            started = time.perf_counter()
            visit(k, manager.positions(indexes))
            report.compute_time += time.perf_counter() - started
        finally:
            manager.unpin_set(pages, dirty=dirty)


def page_groups(pages, budget):
    """Consecutive groups of `budget` of the distinct, ascending list
    `pages`: the page sets `greedy_batches` cuts of their one-page sets."""
    return [frozenset(pages[k : k + budget]) for k in range(0, len(pages), budget)]


def runs(keys):
    """The distinct values of the ascending array `keys`, and where each
    one's run starts, with len(keys) appended."""
    first = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    first = np.concatenate(([0], first)) if len(keys) else first
    return keys[first], np.append(first, len(keys))


def gather(manager, data, start, stop, report, write=None, descending=False):
    """The model slice `(touched, slots, local)` of rows [start, stop) of
    `data`: their entries' distinct model indexes, ascending, each entry's
    slot in `touched` (the narrowest unsigned dtype holding len(touched))
    and the value at each index, so entry e's value is `local[slots[e]]`.
    One sort of the entries gives the slice; one scan through `execute`
    reads it, each distinct page requested once, in `page_groups` of the
    budget, run in reverse if `descending`. Callers alternate the direction,
    so each gather starts on the pages the last one left resident; no value
    depends on it, as each page's values are assigned and copied apart.

    `write`, when given, is a pending write `(touched, new)`: distinct,
    ascending model indexes and the value to assign to each. The same scan
    carries it: the union of both streams' pages is requested, each page
    once, and in each pinned group the values are assigned before the
    slice is copied, so the read sees the written model. Only the pages
    that hold a written index are unpinned dirty. Counts the entries and
    the written indexes as element requests."""
    indices = data.indices[data.indptr[start] : data.indptr[stop]]
    order = np.argsort(indices)
    touched, starts = runs(indices[order])
    slots = np.empty(len(indices), dtype=np.min_scalar_type(len(touched)))
    slots[order] = np.repeat(np.arange(len(touched), dtype=slots.dtype), np.diff(starts))
    written, new = write if write is not None else (touched[:0], np.empty(0))
    report.element_requests += len(indices) + len(written)
    page_size = np.uint64(manager.store.page_size)
    write_pages, write_starts = runs(written // page_size)
    read_pages, read_starts = runs(touched // page_size)
    # The pages' union; np.union1d would import numpy.ma (about 1 MiB).
    pages = runs(np.sort(np.concatenate((write_pages, read_pages))))[0]
    firsts = pages[:: manager.capacity]
    dirty = np.append(np.searchsorted(write_pages, firsts), len(write_pages))
    write_cuts = write_starts[dirty]
    read_cuts = read_starts[np.append(np.searchsorted(read_pages, firsts), len(read_pages))]

    def indexes(g):  # a view when the group writes nothing: `positions` copies it
        writes = written[write_cuts[g] : write_cuts[g + 1]]
        reads = touched[read_cuts[g] : read_cuts[g + 1]]
        return np.concatenate((writes, reads)) if len(writes) else reads

    groups = [(group, indexes(g), write_pages[dirty[g] : dirty[g + 1]])
              for g, group in enumerate(page_groups(pages.tolist(), manager.capacity))]
    local = np.empty(len(touched))
    flat = manager.frames.reshape(-1)

    def write_and_copy(g, at):
        split = write_cuts[g + 1] - write_cuts[g]
        flat[at[:split]] = new[write_cuts[g] : write_cuts[g + 1]]
        local[read_cuts[g] : read_cuts[g + 1]] = flat[at[split:]]

    order = range(len(groups))[:: -1 if descending else 1]
    execute(manager, [groups[g] for g in order], lambda k, at: write_and_copy(order[k], at),
            report)
    return touched, slots, local


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


def check_inputs(dataset, dimension, page_size, config, plan="gather"):
    """The one input check of the CLI, `run`, `train` and `train_oracle`,
    made before any model file is created and any page is read.
    Rejects a dataset whose dimension is not the model's (`dimension`
    entries, `page_size` to a page), a `plan` not in PLANS (training reads
    by `gather`), whatever `config.check` rejects (a TrainConfig adds
    training's options and `check_dataset`), and, per U-page in file order,
    a vector whose distinct pages outnumber the budget: the error names the
    first, by its tid and its offset in its U-page, whatever the plan or
    heuristic."""
    if dataset.dimension != dimension:
        raise ValidationError(
            f"dataset dimension {dataset.dimension} != model dimension {dimension}")
    if plan not in PLANS:
        raise ValidationError(f"unknown plan {plan!r}")
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


def run(dataset, store, config, sink=None, plan="gather"):
    """Execute the join under `plan`, one of PLANS; emit DotProductResult
    per vector to `sink` and return a MetricsReport, whose `config` lists
    the plan with `config`'s fields.

    `check_inputs` runs before any page is read. `gather` then gathers each
    U-page, odd-numbered ones in descending page order, and emits its
    results in file order. `batched` and `single` emit
    in processing (post-reorder) order; under `batched`, a U-page whose page
    union fits the budget is one batch in file order: it is neither
    reordered nor greedily batched, since no order changes its requests."""
    check_inputs(dataset, store.dimension, store.page_size, config, plan)
    emit = sink if sink is not None else (lambda result: None)
    manager = BufferManager(store, config.budget)
    report = MetricsReport(config={**config.describe(), "plan": plan})
    flat = manager.frames.reshape(-1)

    def visit(data, start, stop, model_values):
        dps = dot_products(data, start, stop, model_values)
        for tid, dp in zip(data.tids[start:stop].tolist(), dps.tolist()):
            emit(DotProductResult(tid, dp))

    def gathered_values(touched, slots, local):  # the slice dies before the dot products
        return local[slots]

    for upage_index, (start, stop) in enumerate(dataset.upage_bounds(config.upage)):
        report.upage_count += 1
        if plan == "gather":
            values = gathered_values(*gather(manager, dataset, start, stop, report,
                                             descending=upage_index % 2 == 1))
            started = time.perf_counter()
            visit(dataset, start, stop, values)
            report.compute_time += time.perf_counter() - started
        else:
            started = time.perf_counter()
            rows, batches = plan_upage(dataset, start, stop, store.page_size, config, plan,
                                       (upage_index,))
            report.reorder_time += time.perf_counter() - started
            data = dataset.take(rows)
            bounds = [(batch.positions[0], batch.positions[-1] + 1) for batch in batches]
            report.element_requests += int(data.indptr[-1])
            execute(manager, [(batch.pages, data.indices[data.indptr[a] : data.indptr[b]], ())
                              for batch, (a, b) in zip(batches, bounds)],
                    lambda k, at: visit(data, *bounds[k], flat[at]), report)
    return finish_report(manager, report)


class CollectSink:
    """Sink that keeps every result in arrival order."""

    def __init__(self):
        self.results = []

    def __call__(self, result):
        self.results.append(result)
