"""The out-of-core dot-product join operator.

Streams a dataset of sparse vectors against a paged dense model: vectors
are taken one chunk (U-page) at a time, reordered within the chunk, cut
into batches whose page unions fit the memory budget, and each batch's
pages are requested from the buffer manager as one pinned set. Every
vector's dot product is computed against the pinned pages and emitted
before the next batch issues any page request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .batcher import Batch, fitting_sets, greedy_batches
from .buffer_manager import BufferManager
from .errors import OversizedVectorError, PreconditionError, ValidationError
from .metrics import MetricsReport
from .reorder import reorder
from .sparse_data import page_request_set


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
    per_upage_metrics: bool = False

    def describe(self):
        return {
            "budget": self.budget,
            "reorder": self.reorder,
            "batching": self.batching,
            "upage": self.upage,
            "seed": self.seed,
            "lsh_m": self.lsh_m,
            "lsh_b": self.lsh_b,
            "kcenter_k": self.kcenter_k,
        }


@dataclass
class DotProductResult:
    tid: int
    dp: float


def dot_product(vector, views, page_size):
    """Sum of value * model entry, accumulated in ascending index order.

    `views` must hold a pinned PageView for every page the vector touches.
    """
    dp = 0.0
    for k in range(vector.nnz):
        index = int(vector.indexes[k])
        page_id = index // page_size
        try:
            page = views[page_id]
        except KeyError:
            raise PreconditionError(f"page {page_id} not pinned for tid {vector.tid}")
        dp += float(vector.values[k]) * float(page.values[index - page_id * page_size])
    return dp


def oracle_dot_products(dataset, dense_model):
    """In-memory reference: same per-vector accumulation order as
    dot_product, no paging, no reordering. Returns results in dataset order."""
    results = []
    for vector in dataset:
        dp = 0.0
        for k in range(vector.nnz):
            dp += float(vector.values[k]) * float(dense_model[int(vector.indexes[k])])
        results.append(DotProductResult(vector.tid, dp))
    return results


def plan_order(sets, config, path):
    """Permutation of a U-page's positions, per config. `none` and `radix`
    take `config.seed`, the others `[config.seed, *path]`; `path` names the
    U-page: `(upage_index,)` in the join, `(iteration, upage_index)` in training."""
    seed = config.seed if config.reorder in ("none", "radix") else [config.seed, *path]
    return reorder(
        config.reorder, sets, config.budget, seed=seed,
        lsh_m=config.lsh_m, lsh_b=config.lsh_b, kcenter_k=config.kcenter_k,
    )


def make_batches(ordered_sets, config, ordered_vectors):
    """Greedy batches when batching is on, single-vector batches otherwise.
    The error for a vector that cannot fit the budget carries its tid."""
    try:
        if config.batching:
            return greedy_batches(ordered_sets, config.budget)
        return [Batch([position], pages)
                for position, pages in fitting_sets(ordered_sets, config.budget)]
    except OversizedVectorError as exc:
        exc.tid = ordered_vectors[exc.position].tid
        exc.args = (f"vector tid {exc.tid} needs {len(set(ordered_sets[exc.position]))}"
                    f" pages, budget is {config.budget}",)
        raise


def execute(manager, vectors, batches, visit, report):
    """Pin each batch's pages as one set, call `visit(vector, views)` for
    the batch's vectors (positions into `vectors`) in order, unpin the set.
    Adds the batches and the time spent visiting to `report`."""
    report.batch_count += len(batches)
    for batch in batches:
        views = manager.request_set(batch.pages)
        started = time.perf_counter()
        for position in batch.positions:
            vector = vectors[position]
            manager.add_element_requests(vector.nnz)
            visit(vector, views)
        report.compute_time += time.perf_counter() - started
        manager.unpin_set(batch.pages)


def finish_report(manager, store, report):
    """Write back dirty pages, then copy the storage counters into `report`."""
    manager.flush_all()
    snapshot = manager.stats()
    report.element_requests = snapshot.element_requests
    report.page_requests = snapshot.page_requests
    report.page_misses = snapshot.page_misses
    report.write_backs = snapshot.write_backs
    report.distinct_pages = manager.distinct_pages
    report.io_time = store.io_time
    return report


def check_inputs(dataset, store, config):
    """Reject a dataset whose dimension is not the model's and a budget
    outside [1, model pages]; shared by the join and training."""
    if dataset.dimension != store.dimension:
        raise ValidationError(
            f"dataset dimension {dataset.dimension} != model dimension {store.dimension}"
        )
    if config.budget < 1:
        raise ValidationError(f"memory budget must be >= 1 page, got {config.budget}")
    if config.budget > store.num_pages:
        raise ValidationError(
            f"memory budget {config.budget} exceeds the {store.num_pages} model pages"
        )


def run(dataset, store, config, sink=None):
    """Execute the join; emit DotProductResult per vector to `sink` in
    processing (post-reorder) order and return a MetricsReport."""
    check_inputs(dataset, store, config)
    emit = sink if sink is not None else (lambda result: None)
    manager = BufferManager(store, config.budget)
    page_size = store.page_size
    report = MetricsReport(
        config=config.describe(), per_upage=[] if config.per_upage_metrics else None,
    )

    def visit(vector, views):
        emit(DotProductResult(vector.tid, dot_product(vector, views, page_size)))

    for upage_index, (start, vectors) in enumerate(dataset.iter_upages(config.upage)):
        report.upage_count += 1
        before = manager.stats() if report.per_upage is not None else None
        sets = [page_request_set(v, page_size) for v in vectors]
        started = time.perf_counter()
        perm = plan_order(sets, config, (upage_index,))
        report.reorder_time += time.perf_counter() - started
        ordered = [vectors[p] for p in perm]
        batches = make_batches([sets[p] for p in perm], config, ordered)
        execute(manager, ordered, batches, visit, report)
        if report.per_upage is not None:
            window = manager.stats().delta(before)
            report.per_upage.append({
                "upage": upage_index,
                "start": start,
                "vectors": len(vectors),
                "page_requests": window.page_requests,
                "page_misses": window.page_misses,
                "misses_by_page": dict(window.misses_by_page),
            })
    return finish_report(manager, store, report)


class CollectSink:
    """Sink that keeps every result in arrival order."""

    def __init__(self):
        self.results = []

    def __call__(self, result):
        self.results.append(result)

    def as_tid_map(self):
        return {r.tid: r.dp for r in self.results}
