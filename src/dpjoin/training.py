"""Gradient descent executed through the paged operator machinery.

Two tasks share one driver: logistic regression (sparse examples against
the whole model vector) and low-rank matrix factorization (cells against a
packed factor layout: all row blocks, then all column blocks). Three update
schedules are supported: per-example updates ("sgd"), one accumulated
update per U-page ("sgd-page") and one per full pass ("bgd"). Every pass
reads each U-page's model slice with one `operator.gather`, which also
carries the previous pass's write.

train_oracle derives the same update order as `iteration_plan` on its own
and follows it on an in-memory array with the same accumulation order, so
its per-iteration losses are bit-identical to the out-of-core path; it is
the reference the paged path is tested against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .buffer_manager import BufferManager
from .errors import ValidationError
from .metrics import PHASE_COUNTERS, MetricsReport
from .operator import (OperatorConfig, check_inputs, dot_product, dot_products, finish_report,
                       gather, plan_order, row_sums)
from .reorder import reorder_shuffle
from .sparse_data import page_request_set

_TAG_UPAGE_ORDER = 7


def check_dataset(dataset, task):
    """Reject a dataset with a label that is not finite (an unlabeled
    vector's is NaN), naming the first such vector's tid, and, for lmf, one
    without a matrix shape or with a vector that is not a factorization
    cell (`check_matrix_cells`)."""
    bad = np.flatnonzero(~np.isfinite(dataset.labels))
    if len(bad):
        raise ValidationError(f"vector tid {int(dataset.tids[bad[0]])} has label"
                              f" {float(dataset.labels[bad[0]])}; training needs finite labels")
    if task == "lmf":
        if dataset.matrix_shape is None:
            raise ValidationError("dataset carries no matrix shape; cannot train lmf")
        dataset.check_matrix_cells()


@dataclass
class TrainConfig:
    operator: OperatorConfig
    task: str = "lr"
    mode: str = "sgd"
    alpha: float = 0.1
    iterations: int = 10
    shuffle_upages: bool = True

    def describe(self):
        """The operator's description plus every field of this config."""
        out = self.operator.describe()
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "operator")
        return out

    def check(self, num_pages, dataset):
        """`OperatorConfig.check`, then reject an unknown task or mode, a
        step size that is not finite, a negative iteration count and what
        `check_dataset` rejects. Called by `check_inputs` only."""
        self.operator.check(num_pages)
        if self.task not in ("lr", "lmf"):
            raise ValidationError(f"unknown task {self.task!r}")
        if self.mode not in ("sgd", "sgd-page", "bgd"):
            raise ValidationError(f"unknown training mode {self.mode!r}")
        if not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite, got {self.alpha}")
        if self.iterations < 0:
            raise ValidationError(f"iterations must be >= 0, got {self.iterations}")
        check_dataset(dataset, self.task)


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
        loss += float(np.logaddexp(0.0, -vector.label * dot_product(vector, dense_model)))
    return loss


# -- matrix factorization pieces --------------------------------------------------


def lmf_cell_gradient(rating, row_vec, col_vec):
    """Gradients of 0.5 * (row . col - rating)^2 for one cell."""
    e = 0.0
    for term in (row_vec * col_vec).tolist():
        e += term
    e -= rating
    return e * col_vec, e * row_vec


def lmf_loss(dataset, dense_model):
    loss = 0.0
    rank = dataset.matrix_shape[2]
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


def _upage_order(count, config, iteration):
    """The order in which an iteration visits `count` U-pages: shuffled,
    seeded by the iteration, when `config.shuffle_upages`."""
    if config.shuffle_upages and count > 1:  # one U-page imports no numpy.random
        return reorder_shuffle(count, [config.operator.seed, _TAG_UPAGE_ORDER, iteration])
    return list(range(count))


class PageSets:
    """`Dataset.page_sets` of rows [start, stop), built on first use."""

    def __init__(self, dataset, start, stop, page_size):
        self.dataset, self.args = dataset, (start, stop, page_size)

    def __len__(self):
        return self.args[1] - self.args[0]

    def __getitem__(self, position):
        return self.sets[position]

    def __iter__(self):
        return iter(self.sets)

    @cached_property
    def sets(self):
        return self.dataset.page_sets(*self.args)


def iteration_plan(dataset, page_size, config, iteration):
    """An iteration's plan: `(upage_index, order)` for each U-page of
    `dataset` in `_upage_order`. Under `sgd`, `order` is the U-page's
    `plan_order` permutation of its positions, seeded by `(iteration,
    upage_index)`: the order its updates visit its vectors in. Under
    `sgd-page` and `bgd`, which read each U-page in file order, it is None.

    Depends only on the page-request sets at `page_size` and the seeds,
    never on model values, so `train_oracle` can derive the same order.
    `none` and `shuffle` read only the count of the `PageSets`."""
    op = config.operator
    bounds = dataset.upage_bounds(op.upage)
    order = _upage_order(len(bounds), config, iteration)
    if config.mode != "sgd":
        return [(upage_index, None) for upage_index in order]
    return [(upage_index, plan_order(PageSets(dataset, *bounds[upage_index], page_size), op,
                                     (iteration, upage_index)))
            for upage_index in order]


# -- the paged trainer -------------------------------------------------------------


def gradient_sums(touched, slots, terms, values):
    """A sparse gradient from the slices of one or more update reads, chunk
    c being `touched[c]`, `slots[c]`, `terms[c]` (each entry's gradient
    term) and `values[c]` (`gather`'s `local`): the distinct indexes of all
    chunks, ascending, each one's sum of terms, added one at a time in
    chunk and entry order from +0.0 (an unbuffered `np.add.at`), as
    `train_oracle` adds them, and its value; an index whose sum is exactly
    0.0 is dropped, since its step changes nothing."""
    distinct, inverse = np.unique(np.concatenate(touched), return_inverse=True)
    sums = np.zeros(len(distinct))
    ends = np.cumsum([len(chunk) for chunk in touched])
    for at, chunk_slots, chunk_terms in zip(np.split(inverse, ends[:-1]), slots, terms):
        np.add.at(sums, at[chunk_slots], chunk_terms)
    olds = np.empty(len(distinct))
    olds[inverse] = np.concatenate(values)
    keep = sums != 0.0
    return distinct[keep], sums[keep], olds[keep]


@np.errstate(over="ignore", invalid="ignore")  # divergence shows as a non-finite loss
def train(dataset, store, config):
    """Run gradient descent against the paged model in `store`.

    Every pass reads a U-page in file order, in place, with one
    `operator.gather` (the join's default plan), then calls each of the
    task's residual and loss-term kernels at most once on the gathered
    values (which ones, below). Its loss
    terms go to their file rows, and a loss adds them in file order, as
    `train_oracle` does. An update pass keeps its slice for the apply, with
    its gradient terms under `sgd-page` and `bgd`. Memory follows the
    entries of a U-page, or of a `bgd` pass, never the model's dimension.

    Every mode runs one schedule. The initial and the final loss have
    passes of their own. Loss i >= 1 is computed in iteration i before its
    first apply, by the update passes that read its model (every U-page's
    under `bgd`, the first U-page's under `sgd` and `sgd-page`) and by
    loss-only gathers of the other U-pages; if it is not finite, training
    stops with what was read from that model unapplied. An apply follows
    each update pass (under `bgd`, the pass) and leaves a pending write
    `(touched, new)`: under `sgd`, the slice after the per-vector steps,
    taken in `iteration_plan`'s order; else `old - alpha * g[i]` from the
    slices since the last apply (`gradient_sums`), `old` being the value
    the update read, with no apply between. The next gather, whatever its
    phase, carries the write in its scan, assigning each page's values
    before it reads it and unpinning dirty only the pages that hold one, so
    every write is carried. Gathers alternate their scan direction, every
    second one descending, so each starts on the pages the last one left
    resident. Only the update reads before iteration i's first apply, at
    i >= 1, write loss terms; under `sgd` the other update reads run no
    kernel, under `sgd-page` and `bgd` only their residual and gradient-term
    kernels.

    `check_inputs` runs before any page is read; nothing after it checks.
    `iteration_plan` is called once per iteration, after the initial loss
    pass.

    The report's `batch_count`, `element_requests` and `compute_time` count
    every scan and the kernels, and `phases` splits page requests, misses
    and write-backs between the loss-only gathers (the initial and the final
    pass included), the update passes and the applies. A gather counts in
    its read's phase, the write it carries included, so `apply` holds only
    the closing flush. A write-back counts in the phase whose request
    evicted its page."""
    op = config.operator
    check_inputs(dataset, store.dimension, store.page_size, config)
    rank = dataset.matrix_shape[2] if config.task == "lmf" else 0
    manager = BufferManager(store, op.budget)
    report = MetricsReport(config=config.describe(), phases={
        phase: dict.fromkeys(PHASE_COUNTERS, 0) for phase in ("loss", "update", "apply")})
    bounds = dataset.upage_bounds(op.upage)
    pending = []  # (touched, slots, terms, local) of each update read since the last apply
    write = None  # (touched, new), until a gather carries it
    loss_by_row = np.empty(len(dataset))  # the loss terms of each read, at their file rows

    def cell_errors(data, start, stop, values):
        """Each cell's row block . column block - rating, the dot products
        added as `lmf_cell_gradient` adds them, and its blocks (cells, 2, rank)."""
        blocks = values.reshape(stop - start, 2, rank)
        e = row_sums((blocks[:, 0] * blocks[:, 1]).reshape(-1), rank * np.arange(stop - start + 1))
        return e - data.labels[start:stop], blocks

    def lr_loss_terms(data, start, stop, dps):
        return np.logaddexp(0.0, -data.labels[start:stop] * dps)

    def lmf_loss_terms(data, start, stop, residuals):
        e, _ = residuals
        return 0.5 * e * e

    def lr_gradient_terms(data, start, stop, dps):
        scales = [lr_scale(label, dp) for label, dp in
                  zip(data.labels[start:stop].tolist(), dps.tolist())]
        entries = slice(data.indptr[start], data.indptr[stop])
        return np.repeat(scales, np.diff(data.indptr[start : stop + 1])) * data.values[entries]

    def lmf_gradient_terms(data, start, stop, residuals):
        e, blocks = residuals
        return (e[:, None, None] * blocks[:, ::-1]).reshape(-1)

    def lr_sgd(start, stop, slots, local, order):
        lo = dataset.indptr[start]
        values = dataset.values[lo : dataset.indptr[stop]].tolist()
        cuts = (dataset.indptr[start : stop + 1] - lo).tolist()
        labels = dataset.labels[start:stop].tolist()
        at, model = slots.tolist(), local.tolist()  # numpy's per-call cost exceeds a step's
        for p in order:
            entries = range(cuts[p], cuts[p + 1])
            dp = 0.0
            for k in entries:
                dp += values[k] * model[at[k]]
            step = config.alpha * lr_scale(labels[p], dp)
            for k in entries:
                model[at[k]] -= step * values[k]
        local[:] = model

    def lmf_sgd(start, stop, slots, local, order):
        """A cell's row and column blocks each take `rank` consecutive slots,
        as `touched` is ascending; each step is `train_oracle`'s, on floats."""
        rows, cols = slots[:: 2 * rank].tolist(), slots[rank :: 2 * rank].tolist()
        labels = dataset.labels[start:stop].tolist()
        model, alpha = local.tolist(), config.alpha
        for p in order:
            r, c = rows[p], cols[p]
            row, col = model[r : r + rank], model[c : c + rank]
            e = 0.0
            for a, b in zip(row, col):
                e += a * b
            e -= labels[p]
            model[r : r + rank] = [a - alpha * (e * b) for a, b in zip(row, col)]
            model[c : c + rank] = [b - alpha * (e * a) for a, b in zip(row, col)]
        local[:] = model

    residuals, loss_terms, gradient_terms, sgd = (
        (dot_products, lr_loss_terms, lr_gradient_terms, lr_sgd) if config.task == "lr" else
        (cell_errors, lmf_loss_terms, lmf_gradient_terms, lmf_sgd))

    gathers = 0  # counted to alternate the scan direction, gather by gather

    def read(start, stop, update=False, order=None, loss=True):
        """`gather` rows [start, stop), carrying the pending write, in the
        direction opposite to the last gather's, and, if `loss`, write their
        loss terms; if `update`, keep the slice and its gradient terms or,
        under `sgd`, its rows and `order`. An `sgd` update read that writes no
        loss terms runs no kernel."""
        nonlocal write, gathers
        touched, slots, local = gather(manager, dataset, start, stop, report, write,
                                       descending=gathers % 2 == 1)
        write, gathers = None, gathers + 1
        started = time.perf_counter()
        if loss or order is None:
            values = local[slots]
            if not update:
                del touched, slots, local  # a loss-only read drops its slice before its kernels
            residual = residuals(dataset, start, stop, values)
            del values
            if loss:
                loss_by_row[start:stop] = loss_terms(dataset, start, stop, residual)
        if update:
            terms = (start, stop, order) if order is not None else gradient_terms(
                dataset, start, stop, residual)
            pending.append((touched, slots, terms, local))
        report.compute_time += time.perf_counter() - started

    def apply():
        """Leave the kept slices' write: `sgd`'s after its steps, else `old - alpha * g`."""
        nonlocal write
        started = time.perf_counter()
        if config.mode == "sgd":
            [(touched, slots, (start, stop, order), local)] = pending  # one update read
            sgd(start, stop, slots, local, order)
            write = touched, local
        else:
            touched, sums, olds = gradient_sums(*zip(*pending))
            write = touched, olds - config.alpha * sums
        pending.clear()
        report.compute_time += time.perf_counter() - started

    def charged(phase, work, *args, **kwargs):
        """Run `work` and add the storage counters it moved to `phase`."""
        before = [getattr(manager, name) for name in PHASE_COUNTERS]
        result = work(*args, **kwargs)
        for name, value in zip(PHASE_COUNTERS, before):
            report.phases[phase][name] += getattr(manager, name) - value
        return result

    def loss_pass(skip=()):
        """Loss-only gathers of the U-pages but those in `skip`, whose terms
        fused update passes wrote, then the loss of all terms."""
        for upage_index, (start, stop) in enumerate(bounds):
            if upage_index not in skip:
                read(start, stop)
        # cumsum adds one term at a time, from the leading +0.0, in file order.
        return float(np.cumsum(np.append(0.0, loss_by_row))[-1])

    losses = [charged("loss", loss_pass)]
    for iteration in range(config.iterations):
        if not math.isfinite(losses[-1]):
            break
        started = time.perf_counter()
        plan = iteration_plan(dataset, store.page_size, config, iteration)
        report.reorder_time += time.perf_counter() - started
        report.upage_count += len(plan)
        # At i >= 1 the update passes before the first apply read the model of losses[i];
        # every other update read's loss terms are overwritten before a loss adds them.
        fused = plan if config.mode == "bgd" else plan[:1]
        for upage, order in fused:
            charged("update", read, *bounds[upage], update=True, order=order, loss=iteration > 0)
        if iteration > 0:
            losses.append(charged("loss", loss_pass, {upage for upage, _ in fused}))
            if not math.isfinite(losses[-1]):
                break  # the steps or gradient read from that model are never applied
        for position, (upage, order) in enumerate(plan):
            if position >= len(fused):
                charged("update", read, *bounds[upage], update=True, order=order, loss=False)
            if config.mode != "bgd" or position == len(plan) - 1:
                apply()
        if iteration == config.iterations - 1:
            losses.append(charged("loss", loss_pass))
    charged("apply", manager.flush_all)
    metrics = finish_report(manager, report)
    return TrainReport(losses, not math.isfinite(losses[-1]), config.describe(), metrics=metrics)


# -- the in-memory oracle --------------------------------------------------------------


def train_oracle(dataset, initial_model, config, page_size):
    """Same plan, same arithmetic, no paging. `page_size` only shapes the
    page-request sets that order `sgd`'s updates.
    `check_inputs` rejects what it rejects for `train`, with the same error,
    taking `initial_model`'s length as the model's dimension.

    The update order is `iteration_plan`'s, derived afresh at every
    iteration: `_upage_order`, then each U-page in file order but under
    `sgd`, where it is the U-page's `plan_order` permutation."""
    check_inputs(dataset, len(initial_model), page_size, config)
    op = config.operator
    model = np.array(initial_model, dtype=np.float64, copy=True)
    upages = [chunk for _, chunk in dataset.iter_upages(op.upage)]
    upage_sets = [[page_request_set(v, page_size) for v in chunk] for chunk in upages]

    def update_order(upage_index, iteration):
        sets = upage_sets[upage_index]
        if config.mode != "sgd":
            return range(len(sets))
        return plan_order(sets, op, (iteration, upage_index))

    task_loss = lr_loss if config.task == "lr" else lmf_loss
    losses = [task_loss(dataset, model)]
    grad = np.zeros(dataset.dimension)  # sgd-page and bgd

    def apply_grad():
        for index in np.flatnonzero(grad):
            model[index] -= config.alpha * grad[index]

    for iteration in range(config.iterations):
        if not math.isfinite(losses[-1]):
            break
        if config.mode == "bgd":
            grad.fill(0.0)
        for upage_index in _upage_order(len(upages), config, iteration):
            chunk = upages[upage_index]
            if config.mode == "sgd-page":
                grad.fill(0.0)
            for position in update_order(upage_index, iteration):
                vector = chunk[position]
                if config.task == "lr":
                    scale = lr_scale(vector.label, dot_product(vector, model))
                    if config.mode == "sgd":
                        step = config.alpha * scale
                        for k in range(vector.nnz):
                            model[int(vector.indexes[k])] -= step * float(vector.values[k])
                    else:
                        for k in range(vector.nnz):
                            grad[int(vector.indexes[k])] += scale * float(vector.values[k])
                else:
                    rank = dataset.matrix_shape[2]
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
        losses.append(task_loss(dataset, model))
    return TrainReport(losses, not math.isfinite(losses[-1]), config.describe(), final_model=model)
