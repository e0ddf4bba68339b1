"""Gradient descent executed through the paged operator machinery.

Two tasks share one driver: logistic regression (sparse examples against
the whole model vector) and low-rank matrix factorization (cells against a
packed factor layout: all row blocks, then all column blocks). Three update
schedules are supported: per-example updates while the example's pages are
pinned ("sgd"), one accumulated update per U-page ("sgd-page"), and one
update per full pass ("bgd").

train_oracle replays the exact same plan on an in-memory array with the
same accumulation order, so its per-iteration losses are bit-identical to
the out-of-core path; it is the reference the paged path is tested against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .buffer_manager import BufferManager
from .errors import ValidationError
from .metrics import MetricsReport
from .operator import (OperatorConfig, check_inputs, dot_product, execute,
                       finish_report, make_batches, plan_order)
from .sparse_data import page_request_set

_TAG_UPAGE_ORDER = 7


@dataclass
class LmfLayout:
    """Where each factor block lives in the packed model vector."""

    rows: int
    cols: int
    rank: int

    @classmethod
    def from_dataset(cls, dataset):
        if dataset.matrix_shape is None:
            raise ValidationError("dataset carries no matrix shape; cannot train lmf")
        return cls(*dataset.matrix_shape)

    @property
    def dimension(self):
        return (self.rows + self.cols) * self.rank


@dataclass
class TrainConfig:
    operator: OperatorConfig
    task: str = "lr"
    mode: str = "sgd"
    alpha: float = 0.1
    iterations: int = 10
    shuffle_upages: bool = True

    def describe(self):
        out = self.operator.describe()
        out.update(
            task=self.task, mode=self.mode, alpha=self.alpha,
            iterations=self.iterations,
            shuffle_upages=self.shuffle_upages,
        )
        return out


@dataclass
class TrainReport:
    losses: list
    diverged: bool
    config: dict
    metrics: MetricsReport | None = None
    final_model: np.ndarray | None = None


# -- logistic regression pieces ------------------------------------------------


def lr_scale(label, dp):
    """Per-example gradient scale: the example's gradient is scale * x.

    Computed as -label * sigmoid(-label * dp) without overflow for any dp.
    """
    t = -label * dp
    if t >= 0:
        sig = 1.0 / (1.0 + math.exp(-t))
    else:
        ex = math.exp(t)
        sig = ex / (1.0 + ex)
    return -label * sig


def lr_loss(dataset, dense_model):
    """Log-loss over the dataset against an in-memory model."""
    loss = 0.0
    for vector in dataset:
        dp = 0.0
        for k in range(vector.nnz):
            dp += float(vector.values[k]) * float(dense_model[int(vector.indexes[k])])
        loss += float(np.logaddexp(0.0, -vector.label * dp))
    return loss


# -- matrix factorization pieces --------------------------------------------------


def lmf_cell_gradient(rating, row_vec, col_vec):
    """Gradients of 0.5 * (row . col - rating)^2 for one cell."""
    e = 0.0
    for t in range(len(row_vec)):
        e += float(row_vec[t]) * float(col_vec[t])
    e -= rating
    return e * col_vec, e * row_vec


def lmf_loss(dataset, dense_model, layout):
    loss = 0.0
    rank = layout.rank
    for vector in dataset:
        start_l = int(vector.indexes[0])
        start_r = int(vector.indexes[rank])
        e = 0.0
        for t in range(rank):
            e += float(dense_model[start_l + t]) * float(dense_model[start_r + t])
        e -= vector.label
        loss += 0.5 * e * e
    return loss


# -- shared plan ---------------------------------------------------------------------


def _plan_inputs(dataset, upage, page_size):
    """U-pages as (start, vectors), the page-request sets of all vectors,
    and the same sets split by U-page."""
    sets_all = [page_request_set(v, page_size) for v in dataset.vectors]
    upages = list(dataset.iter_upages(upage))
    return upages, sets_all, [sets_all[start : start + len(chunk)] for start, chunk in upages]


def iteration_plan(sets_by_upage, config, iteration):
    """Visit order of U-pages plus the permutation inside each one.

    Depends only on the page-request sets and the seeds, never on model
    values, so the paged path and the in-memory oracle derive identical
    plans.
    """
    op = config.operator
    order = list(range(len(sets_by_upage)))
    if config.shuffle_upages and len(order) > 1:
        rng = np.random.default_rng([op.seed, _TAG_UPAGE_ORDER, iteration])
        order = [int(i) for i in rng.permutation(len(order))]
    return [
        (upage_index, plan_order(sets_by_upage[upage_index], op, (iteration, upage_index)))
        for upage_index in order
    ]


# -- the paged trainer -------------------------------------------------------------


def gather(views, start, count, page_size):
    out = np.empty(count)
    for t in range(count):
        index = start + t
        page_id = index // page_size
        out[t] = views[page_id].values[index - page_id * page_size]
    return out


def axpy(views, vector, step, page_size):
    """values -= step * vector.values, elementwise."""
    for k in range(vector.nnz):
        index = int(vector.indexes[k])
        page_id = index // page_size
        views[page_id].values[index - page_id * page_size] -= step * float(vector.values[k])


def block_update(views, start, delta, page_size):
    for t in range(len(delta)):
        index = start + t
        page_id = index // page_size
        views[page_id].values[index - page_id * page_size] -= delta[t]


def _apply_gradient(manager, grad, alpha, page_size, budget):
    """w[i] -= alpha * grad[i] for every coordinate of the sparse gradient
    `grad` ({index: sum}) whose sum is not exactly zero, in ascending index
    order, requesting at most `budget` pages at a time (every page of a chunk
    holds a touched coordinate, so each chunk is unpinned dirty); then clears
    `grad`."""
    touched = sorted(index for index, g in grad.items() if g != 0.0)
    pages = sorted({index // page_size for index in touched})
    k = 0
    for chunk_start in range(0, len(pages), budget):
        chunk = pages[chunk_start : chunk_start + budget]
        views = manager.request_set(chunk)
        high = (chunk[-1] + 1) * page_size
        while k < len(touched) and touched[k] < high:
            index = touched[k]
            page_id = index // page_size
            views[page_id].values[index - page_id * page_size] -= alpha * grad[index]
            k += 1
        manager.unpin_set(chunk, dirty=True)
    grad.clear()


def _validated(dataset, config):
    if config.task not in ("lr", "lmf"):
        raise ValidationError(f"unknown task {config.task!r}")
    if config.mode not in ("sgd", "sgd-page", "bgd"):
        raise ValidationError(f"unknown training mode {config.mode!r}")
    if config.iterations < 0:
        raise ValidationError(f"iterations must be >= 0, got {config.iterations}")
    if config.task == "lmf":
        return LmfLayout.from_dataset(dataset)
    return None


def train(dataset, store, config):
    """Run gradient descent against the paged model in `store`. Every pass,
    loss passes included, is the join's execution loop (`operator.execute`)
    with an update or a loss term as the visit."""
    op = config.operator
    check_inputs(dataset, store, op)
    layout = _validated(dataset, config)
    rank = layout.rank if layout is not None else 0
    page_size = store.page_size
    manager = BufferManager(store, op.budget)
    report = MetricsReport(config=config.describe())
    vectors = dataset.vectors
    upages, sets_all, sets_by_upage = _plan_inputs(dataset, op.upage, page_size)
    loss_batches = make_batches(sets_all, op, vectors)
    grad = {}  # index -> gradient sum, for sgd-page and bgd
    loss = 0.0

    def lr_loss_term(vector, views):
        nonlocal loss
        dp = dot_product(vector, views, page_size)
        loss += float(np.logaddexp(0.0, -vector.label * dp))

    def lmf_loss_term(vector, views):
        nonlocal loss
        row = gather(views, int(vector.indexes[0]), rank, page_size)
        col = gather(views, int(vector.indexes[rank]), rank, page_size)
        e = 0.0
        for t in range(rank):
            e += float(row[t]) * float(col[t])
        e -= vector.label
        loss += 0.5 * e * e

    def lr_update(vector, views):
        scale = lr_scale(vector.label, dot_product(vector, views, page_size))
        if config.mode == "sgd":
            axpy(views, vector, config.alpha * scale, page_size)
        else:
            for k in range(vector.nnz):
                index = int(vector.indexes[k])
                grad[index] = grad.get(index, 0.0) + scale * float(vector.values[k])

    def lmf_update(vector, views):
        start_l = int(vector.indexes[0])
        start_r = int(vector.indexes[rank])
        row = gather(views, start_l, rank, page_size)
        col = gather(views, start_r, rank, page_size)
        grad_row, grad_col = lmf_cell_gradient(vector.label, row, col)
        if config.mode == "sgd":
            block_update(views, start_l, config.alpha * grad_row, page_size)
            block_update(views, start_r, config.alpha * grad_col, page_size)
        else:
            for start, block in ((start_l, grad_row), (start_r, grad_col)):
                for t in range(rank):
                    grad[start + t] = grad.get(start + t, 0.0) + block[t]

    if config.task == "lr":
        loss_term, update = lr_loss_term, lr_update
    else:
        loss_term, update = lmf_loss_term, lmf_update

    def loss_pass():
        nonlocal loss
        loss = 0.0
        execute(manager, vectors, loss_batches, loss_term, report)
        return loss

    losses = [loss_pass()]
    diverged = not math.isfinite(losses[0])
    iteration = 0
    while not diverged and iteration < config.iterations:
        started = time.perf_counter()
        plan = iteration_plan(sets_by_upage, config, iteration)
        report.reorder_time += time.perf_counter() - started
        report.upage_count += len(plan)
        for upage_index, perm in plan:
            chunk = upages[upage_index][1]
            sets = sets_by_upage[upage_index]
            ordered = [chunk[p] for p in perm]
            batches = make_batches([sets[p] for p in perm], op, ordered)
            execute(manager, ordered, batches, update, report, dirty=config.mode == "sgd")
            if config.mode == "sgd-page":
                _apply_gradient(manager, grad, config.alpha, page_size, op.budget)
        if config.mode == "bgd":
            _apply_gradient(manager, grad, config.alpha, page_size, op.budget)
        losses.append(loss_pass())
        diverged = not math.isfinite(losses[-1])
        iteration += 1
    metrics = finish_report(manager, report)
    return TrainReport(losses, diverged, config.describe(), metrics=metrics)


# -- the in-memory oracle --------------------------------------------------------------


def train_oracle(dataset, initial_model, config, page_size):
    """Same plan, same arithmetic, no paging. `page_size` only shapes the
    page-request sets that drive reordering and batching decisions."""
    layout = _validated(dataset, config)
    op = config.operator
    model = np.array(initial_model, dtype=np.float64, copy=True)
    if len(model) < dataset.dimension:
        raise ValidationError("initial model smaller than the dataset dimension")
    upages, _, sets_by_upage = _plan_inputs(dataset, op.upage, page_size)

    def loss_now():
        if config.task == "lr":
            return lr_loss(dataset, model)
        return lmf_loss(dataset, model, layout)

    losses = [loss_now()]
    diverged = not math.isfinite(losses[0])
    grad = None
    if config.mode in ("bgd", "sgd-page"):
        grad = np.zeros(dataset.dimension)

    def apply_grad():
        nonzero = np.nonzero(grad)[0]
        for index in nonzero:
            model[index] -= config.alpha * grad[index]

    iteration = 0
    while not diverged and iteration < config.iterations:
        plan = iteration_plan(sets_by_upage, config, iteration)
        if config.mode == "bgd":
            grad.fill(0.0)
        for upage_index, perm in plan:
            chunk = upages[upage_index][1]
            if config.mode == "sgd-page":
                grad.fill(0.0)
            for position in perm:
                vector = chunk[position]
                if config.task == "lr":
                    dp = 0.0
                    for k in range(vector.nnz):
                        dp += float(vector.values[k]) * float(model[int(vector.indexes[k])])
                    scale = lr_scale(vector.label, dp)
                    if config.mode == "sgd":
                        step = config.alpha * scale
                        for k in range(vector.nnz):
                            model[int(vector.indexes[k])] -= step * float(vector.values[k])
                    else:
                        for k in range(vector.nnz):
                            grad[int(vector.indexes[k])] += scale * float(vector.values[k])
                else:
                    rank = layout.rank
                    start_l = int(vector.indexes[0])
                    start_r = int(vector.indexes[rank])
                    row = model[start_l : start_l + rank].copy()
                    col = model[start_r : start_r + rank].copy()
                    grad_row, grad_col = lmf_cell_gradient(vector.label, row, col)
                    if config.mode == "sgd":
                        for t in range(rank):
                            model[start_l + t] -= config.alpha * grad_row[t]
                            model[start_r + t] -= config.alpha * grad_col[t]
                    else:
                        grad[start_l : start_l + rank] += grad_row
                        grad[start_r : start_r + rank] += grad_col
            if config.mode == "sgd-page":
                apply_grad()
        if config.mode == "bgd":
            apply_grad()
        losses.append(loss_now())
        diverged = not math.isfinite(losses[-1])
        iteration += 1
    return TrainReport(losses, diverged, config.describe(), final_model=model)
