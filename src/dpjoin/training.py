"""Gradient descent executed through the paged operator machinery.

Two tasks share one driver: logistic regression (sparse examples against
the whole model vector) and low-rank matrix factorization (cells against a
packed factor layout: all row blocks, then all column blocks). Three update
schedules are supported: per-example updates while the example's pages are
pinned ("sgd"), one accumulated update per U-page ("sgd-page"), and one
update per full pass ("bgd"), applied through the same execution loop.

train_oracle derives the same update order as `iteration_plan` on its own
and replays it on an in-memory array with the same accumulation order, so
its per-iteration losses are bit-identical to the out-of-core path; it is
the reference the paged path is tested against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .batcher import greedy_batches
from .buffer_manager import BufferManager
from .errors import ValidationError
from .metrics import PHASE_COUNTERS, MetricsReport
from .operator import (OperatorConfig, check_inputs, dot_product, dot_products, execute,
                       finish_report, gather, plan_order, plan_upage, row_sums, walk_batches)
from .reorder import SEEDLESS
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
    order = list(range(count))
    if config.shuffle_upages and count > 1:
        rng = np.random.default_rng([config.operator.seed, _TAG_UPAGE_ORDER, iteration])
        order = [int(i) for i in rng.permutation(count)]
    return order


def iteration_plan(dataset, page_size, config, iteration, plans=None):
    """An update pass's plan: `(upage_index, rows, batches)` for each U-page
    of `dataset` in `_upage_order`. Under `sgd`, `plan_upage` orders the
    U-page's vectors by `plan_order` (seeded by `(iteration, upage_index)`)
    into `rows` and cuts them into batches, and unless the plan is `single`
    the batches, as cut, run in `walk_order` (`walk_batches`); `rows` stay
    in the order they were cut. Under `sgd-page` and `bgd`, which read each
    U-page in place, in file order, `rows` and `batches` are None.

    Depends only on the page-request sets at `page_size` and the seeds,
    never on model values, so `train_oracle` can derive the same order. A
    U-page's plan under a reorder that reads no seed is the same at every
    iteration: it is kept in `plans`, when given, and replayed from there.
    """
    op = config.operator
    bounds = dataset.upage_bounds(op.upage)
    order = _upage_order(len(bounds), config, iteration)
    if config.mode != "sgd":
        return [(upage_index, None, None) for upage_index in order]
    if plans is None or op.reorder not in SEEDLESS:
        plans = {}
    for upage_index in order:
        if upage_index not in plans:
            rows, batches = plan_upage(dataset, *bounds[upage_index], page_size, op,
                                       (iteration, upage_index), ordered=True)
            plans[upage_index] = rows, walk_batches(batches) if op.batches_greedily else batches
    return [(upage_index, *plans[upage_index]) for upage_index in order]


# -- the paged trainer -------------------------------------------------------------


def gradient_sums(indices, terms):
    """A sparse gradient from its entries: the distinct `indices`, ascending,
    and each one's sum of `terms`, added one at a time in entry order from
    +0.0 (an unbuffered `np.add.at`), as `train_oracle` adds them; an index
    whose sum is exactly 0.0 is dropped, since its step changes nothing."""
    touched, inverse = np.unique(indices, return_inverse=True)
    sums = np.zeros(len(touched))
    np.add.at(sums, inverse, terms)
    keep = sums != 0.0
    return touched[keep], sums[keep]


@np.errstate(over="ignore", invalid="ignore")  # divergence shows as a non-finite loss
def train(dataset, store, config):
    """Run gradient descent against the paged model in `store`.

    Only `sgd` changes model values between vectors, so only its update
    passes run `iteration_plan`'s batches through `operator.execute`, each
    vector seeing all its pages at once. Every other pass reads a U-page in
    file order, in place, with `operator.gather` (the join's default plan),
    then calls the task's residual, loss-term and gradient-term kernels once
    on the gathered values. Its loss terms go to their file rows, and a loss
    adds them in file order, as `train_oracle` does. An `sgd-page` or `bgd`
    update pass keeps its entries' indices and gradient terms in file order:
    memory follows the entries read since the last apply, never the model's
    dimension. An apply reduces them (`gradient_sums`) to the steps
    alpha * g[i] and scans nothing: the next `read`'s gather carries them,
    stepping each page before it reads it, in the same ascending scan, and
    unpins dirty only the pages that hold a step. The final loss pass
    follows the last apply, and a loss that stops training is computed
    after the pending steps were carried, so every apply is carried.

    `check_inputs` runs before any page is read; the update planners check
    nothing. `iteration_plan` is called once per iteration, after the
    initial loss pass; under `sgd` with `none` or `radix`, which read no
    seed, a U-page's update plan is built once and replayed.

    The initial and the final loss have passes of their own, as every loss
    has under `sgd`. Under `sgd-page` and `bgd`, loss i >= 1 is computed in
    iteration i before its first apply, by the update passes that read its
    model (every U-page's under `bgd`, the first U-page's under `sgd-page`)
    and by loss-only gathers of the other U-pages. A loss that is not finite
    stops training with that gradient unapplied.

    The report's `batch_count`, `element_requests` and `compute_time` count
    every scan and the kernels, and `phases` splits page requests, misses
    and write-backs between the loss-only gathers (the initial and the final
    pass included), the update passes and the applies. A gather counts in
    its read's phase, the steps it carries included, so `apply` holds only
    the closing flush. A write-back counts in the phase whose request
    evicted its page; the closing flush in the phase of `sgd`'s updates or,
    under the other modes, `apply`."""
    op = config.operator
    check_inputs(dataset, store.dimension, store.page_size, config)
    rank = dataset.matrix_shape[2] if config.task == "lmf" else 0
    manager = BufferManager(store, op.budget)
    flat = manager.frames.reshape(-1)
    report = MetricsReport(config=config.describe(), phases={
        phase: dict.fromkeys(PHASE_COUNTERS, 0) for phase in ("loss", "update", "apply")})
    bounds = dataset.upage_bounds(op.upage)
    pending = []  # (indices, terms) of each update pass since the last apply
    steps = None  # the last apply's (touched, alpha * sums), until a gather carries it
    update_plans = {}  # sgd: upage_index -> (rows, batches), under a reorder that reads no seed
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

    def lr_sgd(data, start, stop, at):
        lo, hi = data.indptr[start], data.indptr[stop]
        values = data.values[lo:hi]
        cuts = (data.indptr[start : stop + 1] - lo).tolist()
        for label, a, b in zip(data.labels[start:stop].tolist(), cuts, cuts[1:]):
            dp = 0.0
            for term in (values[a:b] * flat[at[a:b]]).tolist():
                dp += term
            flat[at[a:b]] -= config.alpha * lr_scale(label, dp) * values[a:b]

    def lmf_sgd(data, start, stop, at):
        blocks = at.reshape(stop - start, 2, rank)
        for (row_at, col_at), label in zip(blocks, data.labels[start:stop].tolist()):
            grad_row, grad_col = lmf_cell_gradient(label, flat[row_at], flat[col_at])
            flat[row_at] -= config.alpha * grad_row
            flat[col_at] -= config.alpha * grad_col

    residuals, loss_terms, gradient_terms, sgd = (
        (dot_products, lr_loss_terms, lr_gradient_terms, lr_sgd) if config.task == "lr" else
        (cell_errors, lmf_loss_terms, lmf_gradient_terms, lmf_sgd))

    def read(start, stop, update=False):
        """`gather` rows [start, stop) of the dataset, then run the kernels
        once: write the loss terms at those rows and, if `update`, keep the
        gradient terms for the apply to add in turn. The gather carries the
        pending steps."""
        nonlocal steps
        values = gather(manager, dataset, start, stop, report, steps)
        steps = None
        started = time.perf_counter()
        residual = residuals(dataset, start, stop, values)
        loss_by_row[start:stop] = loss_terms(dataset, start, stop, residual)
        if update:
            indices = dataset.indices[dataset.indptr[start] : dataset.indptr[stop]]
            pending.append((indices, gradient_terms(dataset, start, stop, residual)))
        report.compute_time += time.perf_counter() - started

    def apply_gradient():
        nonlocal steps
        touched, sums = gradient_sums(*map(np.concatenate, zip(*pending)))
        pending.clear()
        steps = touched, config.alpha * sums

    def update_pass(upage_index, rows, batches):
        """`sgd`'s batches, or an updating `read` of the U-page in place."""
        if config.mode == "sgd":
            execute(manager, dataset.take(rows), batches, sgd, report,
                    dirty=[batch.pages for batch in batches])
        else:
            read(*bounds[upage_index], update=True)

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
        plan = iteration_plan(dataset, store.page_size, config, iteration, update_plans)
        report.reorder_time += time.perf_counter() - started
        report.upage_count += len(plan)
        fused = []
        if iteration > 0 and config.mode != "sgd":
            # losses[iteration] is the loss of the model that the update
            # passes before this iteration's first apply read.
            fused = plan if config.mode == "bgd" else plan[:1]
            for upage in fused:
                charged("update", update_pass, *upage)
            losses.append(charged("loss", loss_pass, {upage for upage, _, _ in fused}))
            if not math.isfinite(losses[-1]):
                break  # the gradient accumulated on that model is never applied
        for position, upage in enumerate(plan):
            if position >= len(fused):
                charged("update", update_pass, *upage)
            if config.mode == "sgd-page":
                apply_gradient()
        if config.mode == "bgd" and pending:  # an empty dataset accumulates nothing
            apply_gradient()
        if config.mode == "sgd" or iteration == config.iterations - 1:
            losses.append(charged("loss", loss_pass))
    charged("update" if config.mode == "sgd" else "apply", manager.flush_all)
    metrics = finish_report(manager, report)
    return TrainReport(losses, not math.isfinite(losses[-1]), config.describe(), metrics=metrics)


# -- the in-memory oracle --------------------------------------------------------------


def train_oracle(dataset, initial_model, config, page_size):
    """Same plan, same arithmetic, no paging. `page_size` only shapes the
    page-request sets that drive reordering and batching decisions.
    `check_inputs` rejects what it rejects for `train`, with the same error,
    taking `initial_model`'s length as the model's dimension.

    The update order is `iteration_plan`'s, derived afresh at every
    iteration and without `plan_upage`: `_upage_order`, then each U-page in
    file order but under `sgd`: its `plan_order` permutation and, unless the
    plan is `single`, its greedy batches in `walk_order` (one batch if its
    union fits, as in `plan_upage`). So a replayed plan is checked against
    a new one."""
    check_inputs(dataset, len(initial_model), page_size, config)
    op = config.operator
    model = np.array(initial_model, dtype=np.float64, copy=True)
    upages = [chunk for _, chunk in dataset.iter_upages(op.upage)]
    upage_sets = [[page_request_set(v, page_size) for v in chunk] for chunk in upages]

    def update_order(upage_index, iteration):
        sets = upage_sets[upage_index]
        if config.mode != "sgd":
            return range(len(sets))
        perm = plan_order(sets, op, (iteration, upage_index))
        if op.batches_greedily:
            batches = walk_batches(greedy_batches([sets[p] for p in perm], op.budget))
            perm = [perm[p] for batch in batches for p in batch.positions]
        return perm

    def loss_now():
        if config.task == "lr":
            return lr_loss(dataset, model)
        return lmf_loss(dataset, model)

    losses = [loss_now()]
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
        losses.append(loss_now())
    return TrainReport(losses, not math.isfinite(losses[-1]), config.describe(), final_model=model)
