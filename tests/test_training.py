import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpjoin import (BufferManager, Dataset, OperatorConfig, OversizedVectorError,
                    PreconditionError, ValidationError, run)
from dpjoin.datagen import gen_matrix, gen_uniform
from dpjoin.metrics import PHASE_COUNTERS
from dpjoin.operator import plan_order
from dpjoin.reorder import HEURISTICS
from dpjoin.training import (TrainConfig, _upage_order, check_dataset, gradient_sums,
                             iteration_plan, lmf_cell_gradient, lr_loss, lr_scale, train,
                             train_oracle)

from conftest import make_vector, pinned_pages


def small_op(budget=8, reorder="none", seed=3, upage=32):
    return OperatorConfig(budget=budget, reorder=reorder, upage=upage, seed=seed)


class TestLrPieces:
    def test_scale_at_zero(self):
        # sigmoid(0) = 1/2, pulled toward the label
        assert lr_scale(1.0, 0.0) == pytest.approx(-0.5)
        assert lr_scale(-1.0, 0.0) == pytest.approx(0.5)

    def test_scale_is_stable_at_extremes(self):
        assert lr_scale(1.0, 1000.0) == pytest.approx(0.0)
        assert lr_scale(1.0, -1000.0) == pytest.approx(-1.0)
        assert math.isfinite(lr_scale(-1.0, -745.0))

    def test_loss_matches_closed_form(self):
        ds = gen_uniform(20, 50, 3, seed=1)
        model = np.random.default_rng(2).normal(size=50)
        total = 0.0
        for v in ds:
            dp = sum(float(v.values[k]) * model[int(v.indexes[k])]
                     for k in range(v.nnz))
            total += math.log1p(math.exp(-abs(v.label * dp))) + \
                max(0.0, -v.label * dp)
        assert lr_loss(ds, model) == pytest.approx(total, rel=1e-12)


class TestLmfPieces:
    def test_layout_blocks(self):
        # the model is a row block then a column block, rank values per factor
        ds = gen_matrix(3, 2, 6, 4, seed=1)
        assert ds.dimension == (3 + 2) * 4
        with pytest.raises(ValidationError, match="inconsistent with dimension"):
            Dataset(ds.dimension + 1, list(ds), matrix_shape=(3, 2, 4)).validate()

    def test_layout_from_dataset(self):
        ds = gen_matrix(5, 4, 12, 3, seed=2)
        assert ds.matrix_shape == (5, 4, 3)
        check_dataset(ds, "lmf")

    def test_check_dataset_needs_a_matrix_shape(self):
        ds = gen_matrix(5, 4, 12, 3, seed=2)
        ds.matrix_shape = None
        check_dataset(ds, "lr")
        with pytest.raises(ValidationError, match="no matrix shape"):
            check_dataset(ds, "lmf")

    def test_cell_gradient_direction(self):
        row = np.array([1.0, 0.0])
        col = np.array([0.5, 0.5])
        grad_row, grad_col = lmf_cell_gradient(2.0, row, col)
        # prediction 0.5 under rating 2.0: gradient pushes both factors up
        assert (grad_row < 0).any() and not (grad_row > 0).any()
        assert np.allclose(grad_row, (0.5 - 2.0) * col)
        assert np.allclose(grad_col, (0.5 - 2.0) * row)


def task_instance(tmp_store, task, name="m.model"):
    """A small dataset and model of `task`, their budget and step size."""
    init = ("uniform", -0.2, 0.2)
    if task == "lr":
        ds = gen_uniform(48, 256, 5, seed=4)
        return ds, tmp_store(256, 16, init=init, seed=6, name=name), 8, 0.3
    ds = gen_matrix(10, 8, 40, 4, seed=5)
    return ds, tmp_store((10 + 8) * 4, 8, init=init, seed=6, name=name), 6, 0.05


def spread_instance(tmp_store, name="spread.model"):
    """An lr dataset and model like `task_instance`'s, their budget and step
    size, whose U-pages touch different page sets (each U-page of
    `task_instance`'s touches all 16 pages), so a pending write's pages are
    not all the next read's."""
    ds = gen_uniform(48, 1024, 3, seed=4)
    return ds, tmp_store(1024, 16, init=("uniform", -0.2, 0.2), seed=6, name=name), 8, 0.3


# Two lr instances, each made by a call `make(tmp_store, name)`.
LR_INSTANCES = (lambda tmp_store, name: task_instance(tmp_store, "lr", name), spread_instance)


@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_gather_and_batched_plans_train_alike(tmp_store, task, mode):
    """Training reads every U-page by gather and takes no plan. Under `sgd`
    the heuristic orders the updates; under `sgd-page` and `bgd`, which read
    each U-page in file order, it changes no loss, final model or counter."""
    ds, _, budget, alpha = task_instance(tmp_store, task)
    results = {}
    for heuristic in HEURISTICS:
        _, store, _, _ = task_instance(tmp_store, task, name=f"{heuristic}.model")
        report = train(ds, store, TrainConfig(small_op(budget=budget, reorder=heuristic),
                                              task=task, mode=mode, alpha=alpha, iterations=2))
        results[heuristic] = ([loss.hex() for loss in report.losses],
                              report.metrics.counters(), store.load_dense().tobytes())
    same_as_none = {results[heuristic] == results["none"] for heuristic in HEURISTICS}
    assert same_as_none == ({True, False} if mode == "sgd" else {True})


# `unbatched` (an id from when training took a plan) runs at a budget of every page.
@pytest.mark.parametrize("task,mode,tight,heuristic", [
    ("lr", "sgd", True, "radix"), ("lr", "sgd-page", True, "radix"),
    ("lr", "bgd", True, "radix"), ("lmf", "sgd", True, "shuffle"),
    ("lmf", "sgd-page", True, "shuffle"), ("lmf", "bgd", True, "shuffle"),
    ("lr", "sgd-page", False, "radix"), ("lr", "sgd", True, "none"),
    ("lmf", "sgd", True, "none"),
], ids=["lr-sgd", "lr-sgd-page", "lr-bgd", "lmf-sgd", "lmf-sgd-page", "lmf-bgd",
        "lr-sgd-page-unbatched", "lr-sgd-none", "lmf-sgd-none"])
def test_paged_training_matches_dense_oracle(tmp_store, task, mode, tight, heuristic):
    """Dual route: the paged trainer and the in-memory trainer must agree
    bit for bit, losses and final model both. Under `sgd` and a reorder
    other than `none` the update passes visit the vectors in an order that
    is not file order here; an accumulated update reads its U-page in file
    order whatever the reorder."""
    ds, store, budget, alpha = task_instance(tmp_store, task)
    op = small_op(budget=budget if tight else store.num_pages, reorder=heuristic)
    config = TrainConfig(op, task=task, mode=mode, alpha=alpha, iterations=4)
    if mode == "sgd" and heuristic != "none":
        orders = [order for _, order in iteration_plan(ds, store.page_size, config, 0)]
        assert any(order != sorted(order) for order in orders)
    initial = store.load_dense()
    paged = train(ds, store, config)
    oracle = train_oracle(ds, initial, config, page_size=store.page_size)
    assert paged.losses == oracle.losses
    assert np.array_equal(store.load_dense(), oracle.final_model)
    assert not paged.diverged


def accumulated_gathers(ds, page_size, config):
    """Every gather `train` runs when no loss diverges and no gradient sum
    cancels, in run order, as (phase, pages of the write it carries, pages
    it reads), derived from the page sets alone. The initial and the final
    loss gather every U-page in the `loss` phase. Iteration i updates the
    U-pages in `_upage_order`.

    Every mode follows one schedule: for i >= 1 the update passes that read
    the model of loss i come first (every U-page's under `bgd`, the first
    U-page's under `sgd` and `sgd-page`), then loss-only gathers of the
    other U-pages; an apply (after each update pass under `sgd` and
    `sgd-page`, after the pass under `bgd`) writes the pages the updates
    since the last apply read: `sgd`'s writes every index its U-page read.
    The next gather, whatever its phase, carries the write."""
    upages = range(len(ds.upage_bounds(config.operator.upage)))
    pages = [set(scan_pages(ds, start, stop, page_size))
             for start, stop in ds.upage_bounds(config.operator.upage)]
    gathers, pending, carried = [], set(), set()

    def read(phase, upage):
        nonlocal carried
        gathers.append((phase, carried, pages[upage]))
        carried = set()
        if phase == "update":
            pending.update(pages[upage])

    def apply():
        nonlocal carried
        carried = set(pending)
        pending.clear()

    for upage in upages:
        read("loss", upage)
    for iteration in range(config.iterations):
        plan = [upage for upage, _ in iteration_plan(ds, page_size, config, iteration)]
        fused = [] if iteration == 0 else plan if config.mode == "bgd" else plan[:1]
        for upage in fused:
            read("update", upage)
        for upage in upages if iteration > 0 else ():
            if upage not in fused:
                read("loss", upage)
        for position in range(len(fused), len(plan)):
            if config.mode != "bgd" and position:
                apply()  # the previous U-page's
            read("update", plan[position])
        if plan:  # the last apply of the iteration; an empty dataset has none
            apply()
    for upage in upages if config.iterations else ():
        read("loss", upage)
    return gathers


@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_one_upage_takes_two_gathers_more_than_its_iterations(tmp_store, monkeypatch, task,
                                                              mode):
    """With one U-page, loss i >= 1 comes from iteration i's update read
    under every mode: T >= 1 iterations take T + 2 gathers (the initial
    loss pass, T update passes and the final loss pass), and T = 0 one."""
    from dpjoin import operator

    ds, _, budget, alpha = task_instance(tmp_store, task)
    gathers, real_execute = [], operator.execute
    monkeypatch.setattr(operator, "execute",  # one call per gather
                        lambda *args: gathers.append(1) or real_execute(*args))
    for iterations in (0, 1, 2, 3, 5):
        _, store, _, _ = task_instance(tmp_store, task, name=f"{iterations}.model")
        config = TrainConfig(small_op(budget=budget, upage=len(ds)), task=task, mode=mode,
                             alpha=alpha, iterations=iterations)
        oracle = train_oracle(ds, store.load_dense(), config, store.page_size)
        gathers.clear()
        assert train(ds, store, config).losses == oracle.losses
        expected = iterations + 2 if iterations else 1
        assert len(gathers) == len(accumulated_gathers(ds, store.page_size, config)) == expected


@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_alternating_gathers_of_one_upage_each_hit_a_budget_of_pages(tmp_store, task, mode):
    """With one U-page of P distinct pages, P above the budget B, every
    gather requests its P pages once and every gather after the first starts
    on the B pages the last one left resident: G gathers miss
    P + (G - 1)(P - B) pages of G * P requests (train-lmf-sgd: 50 + 11 * 37
    = 457 of 600), where a scan that always ascends misses all G * P."""
    ds, _, tight, alpha = task_instance(tmp_store, task)
    distinct = len(scan_pages(ds, 0, len(ds), 16 if task == "lr" else 8))
    for budget in (tight, distinct - 1):
        for iterations in (1, 2, 5):
            _, store, _, _ = task_instance(tmp_store, task, name=f"{budget}-{iterations}.model")
            assert store.num_pages == distinct > budget
            config = TrainConfig(small_op(budget=budget, upage=len(ds)), task=task, mode=mode,
                                 alpha=alpha, iterations=iterations)
            oracle = train_oracle(ds, store.load_dense(), config, store.page_size)
            report = train(ds, store, config)
            assert report.losses == oracle.losses
            gathers = iterations + 2
            assert report.metrics.page_requests == gathers * distinct
            assert report.metrics.page_misses == distinct + (gathers - 1) * (distinct - budget)


def test_an_sgd_update_read_computes_only_the_loss_terms_a_loss_adds(tmp_store, monkeypatch):
    """lr `sgd`, T = 2, 4 U-pages: the loss passes' 4 + 3 + 4 loss-only reads
    and iteration 1's first update read each make one residual call, 12 in
    all; the other 7 update reads, whose loss terms a later read would
    overwrite before any loss adds them, make none. Every loss and the final
    model stay bit-identical to the oracle's."""
    from dpjoin import training
    from dpjoin.datagen import gen_skewed

    ds = gen_skewed(8192, 100000, 12, seed=1)
    store = tmp_store(100000, 1024, init=("uniform", -0.2, 0.2), seed=6)
    config = TrainConfig(OperatorConfig(budget=40, upage=2048, seed=3), task="lr", mode="sgd",
                         alpha=0.1, iterations=2)
    calls, real_dot_products = [], training.dot_products
    monkeypatch.setattr(training, "dot_products",
                        lambda *args: calls.append(1) or real_dot_products(*args))
    oracle = train_oracle(ds, store.load_dense(), config, store.page_size)
    report = train(ds, store, config)
    assert len(calls) == 12
    assert report.losses == oracle.losses
    assert np.array_equal(store.load_dense(), oracle.final_model)


def gathered_requests(gathers, phase):
    """The page requests of the `gathers` of `phase`: each its write's and
    its read's pages, once each."""
    return sum(len(write | reads) for kind, write, reads in gathers if kind == phase)


def scan_pages(ds, start, stop, page_size):
    """The pages a gather of rows [start, stop) requests, each once, ascending."""
    return np.unique(ds.indices[ds.indptr[start] : ds.indptr[stop]] // page_size).tolist()


def gather_requests(ds, page_size, op):
    """Each U-page's page requests in one gather: its distinct pages."""
    return [len(scan_pages(ds, start, stop, page_size)) for start, stop in ds.upage_bounds(op.upage)]


# The ids of the `tight` axis date from when training took a plan; they name a
# budget, which changes the page groups: the task's (`batched`) or every page.
@pytest.mark.parametrize("shuffle_upages", [True, False], ids=["shuffled", "fixed"])
@pytest.mark.parametrize("tight", [True, False], ids=["batched", "unbatched"])
@pytest.mark.parametrize("upages", [1, 2, 3])
@pytest.mark.parametrize("iterations", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("mode", ["sgd-page", "bgd"])
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_fused_loss_visits_match_the_oracle(tmp_store, task, mode, iterations, upages,
                                            tight, shuffle_upages):
    """Under `sgd-page` and `bgd`, loss i >= 1 takes the terms of the update
    visits that read its model before iteration i's first apply (the first
    U-page's under `sgd-page`, every U-page's under `bgd`) and loss-only
    visits of the other U-pages. A term depends only on its vector and that
    model, whatever pass computes it, so every loss and the final model
    equal the oracle's bit for bit; the loss phase requests the pages of the
    loss-only gathers alone, each U-page's distinct pages and those of the
    write it carries once."""
    ds, store, budget, alpha = task_instance(tmp_store, task)
    op = small_op(budget=budget if tight else store.num_pages, reorder="shuffle",
                  upage=-(-len(ds) // upages))
    config = TrainConfig(op, task=task, mode=mode, alpha=alpha, iterations=iterations,
                         shuffle_upages=shuffle_upages)
    assert len(ds.upage_bounds(op.upage)) == upages
    initial = store.load_dense()
    paged = train(ds, store, config)
    oracle = train_oracle(ds, initial, config, page_size=store.page_size)
    assert not paged.diverged
    assert paged.losses == oracle.losses
    assert np.array_equal(store.load_dense(), oracle.final_model)
    gathers = accumulated_gathers(ds, store.page_size, config)
    assert paged.metrics.phases["loss"]["page_requests"] == gathered_requests(gathers, "loss")


@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
def test_divergence_applies_no_fused_gradient(tmp_store, mode):
    """A loss i that is not finite stops training before the steps or the
    gradient that iteration i's update visits read from its model are
    applied: losses, divergence and the model on disk equal the oracle's
    and those of a run of i iterations, and a second `train` on the same
    store starts from that model. With 3 U-pages, `sgd` keeps the first
    updated U-page's slice across the other U-pages' loss-only gathers."""
    ds = gen_matrix(8, 8, 30, 3, seed=7)
    make = lambda name: tmp_store((8 + 8) * 3, 8, init=("uniform", -0.5, 0.5), seed=2, name=name)
    store = make("m.model")
    config = TrainConfig(small_op(budget=6, upage=10), task="lmf", mode=mode,
                         alpha=5.0, iterations=10)
    assert len(ds.upage_bounds(config.operator.upage)) == 3
    initial = store.load_dense()
    with np.errstate(all="ignore"):
        paged = train(ds, store, config)
        oracle = train_oracle(ds, initial, config, page_size=store.page_size)
        again = train(ds, store, config)
        shorter = make("shorter.model")
        stopped = train(ds, shorter, dataclasses.replace(config, iterations=len(paged.losses) - 1))
    assert paged.diverged and oracle.diverged
    assert 2 <= len(paged.losses) <= config.iterations  # loss i, 1 <= i < T, is not finite
    assert np.array_equal(paged.losses, oracle.losses, equal_nan=True)
    assert np.array_equal(store.load_dense(), oracle.final_model, equal_nan=True)
    assert np.array_equal(stopped.losses, paged.losses, equal_nan=True)
    assert np.array_equal(shorter.load_dense(), oracle.final_model, equal_nan=True)
    assert np.array_equal(again.losses[:1], oracle.losses[-1:], equal_nan=True)


def test_training_is_deterministic(tmp_path):
    from dpjoin import ModelStore

    def once():
        path = str(tmp_path / "d.model")
        with ModelStore.create(path, 128, 16, init=("uniform", -0.1, 0.1),
                               seed=1) as store:
            ds = gen_uniform(32, 128, 4, seed=9)
            config = TrainConfig(small_op(reorder="shuffle", seed=17),
                                 task="lr", alpha=0.2, iterations=3)
            return train(ds, store, config).losses

    assert once() == once()


def test_lmf_requires_matrix_dataset(tmp_store):
    ds = gen_uniform(40, 100, 4, seed=8)
    store = tmp_store(100, 10, init=("uniform", -0.5, 0.5), seed=2)
    config = TrainConfig(small_op(budget=10), task="lmf", mode="sgd",
                         alpha=0.1, iterations=8)
    with pytest.raises(ValidationError):
        train(ds, store, config)


@pytest.mark.parametrize("label", [math.nan, math.inf])
def test_a_label_that_is_not_finite_is_rejected(tmp_store, label):
    """An unlabeled vector (NaN label) or an infinite label is rejected,
    by its tid, before any pass runs, rather than read as divergence."""
    ds = gen_uniform(20, 100, 4, seed=8)
    ds.labels[[6, 9]] = label
    store = tmp_store(100, 10, init=("uniform", -0.5, 0.5), seed=2)
    config = TrainConfig(small_op(budget=10), iterations=2)
    with pytest.raises(ValidationError, match=f"tid {ds.tids[6]} has label"):
        train(ds, store, config)
    with pytest.raises(ValidationError, match=f"tid {ds.tids[6]} has label"):
        train_oracle(ds, store.load_dense(), config, page_size=10)
    assert store.reads == 10 and store.writes == 0   # only load_dense read the model


def test_lmf_divergence_detected(tmp_store):
    ds = gen_matrix(8, 8, 30, 3, seed=7)
    store = tmp_store((8 + 8) * 3, 8, init=("uniform", -0.5, 0.5), seed=2)
    config = TrainConfig(small_op(budget=6), task="lmf", mode="sgd",
                         alpha=50.0, iterations=10)
    with np.errstate(over="ignore", invalid="ignore"):
        report = train(ds, store, config)
    assert report.diverged
    assert len(report.losses) < 11


def sets_dataset(sets_by_upage):
    """A dataset whose vector i indexes the pages of its set at page size 1."""
    vectors = [make_vector(tid, pages, label=1.0)
               for tid, pages in enumerate(s for sets in sets_by_upage for s in sets)]
    return Dataset(dimension=4, vectors=vectors)


def test_iteration_plan_is_permutation():
    sets_by_upage = [
        [(0,), (1,), (0, 1)],
        [(2,), (2, 3)],
    ]
    config = TrainConfig(small_op(budget=4, reorder="shuffle", seed=5, upage=3),
                         iterations=2)
    plan = iteration_plan(sets_dataset(sets_by_upage), 1, config, iteration=1)
    upage_ids = [u for u, _ in plan]
    assert sorted(upage_ids) == [0, 1]
    for upage_id, order in plan:
        assert sorted(order) == list(range(len(sets_by_upage[upage_id])))


def test_iteration_plan_fixed_scan_when_disabled():
    sets_by_upage = [[(0,)], [(1,)], [(2,)]]
    config = TrainConfig(small_op(reorder="none", upage=1), shuffle_upages=False)
    for iteration in range(3):
        plan = iteration_plan(sets_dataset(sets_by_upage), 1, config, iteration)
        assert [u for u, _ in plan] == [0, 1, 2]


def test_the_upage_order_stream_is_pinned():
    """`_upage_order` shuffles through `reorder_shuffle`, seeded by the
    config's seed, its tag and the iteration. `train_oracle` shares it, so
    only these literals catch a change of stream."""
    config = TrainConfig(small_op(seed=5))
    assert [[_upage_order(count, config, iteration) for count in (2, 3, 5, 8)]
            for iteration in range(3)] == [
        [[1, 0], [1, 0, 2], [1, 4, 2, 3, 0], [7, 1, 5, 3, 2, 4, 0, 6]],
        [[1, 0], [1, 2, 0], [3, 1, 4, 2, 0], [5, 3, 2, 7, 1, 4, 6, 0]],
        [[0, 1], [0, 2, 1], [0, 4, 1, 2, 3], [7, 0, 4, 6, 1, 2, 3, 5]]]
    fixed = dataclasses.replace(config, shuffle_upages=False)
    assert _upage_order(5, fixed, 1) == [0, 1, 2, 3, 4]


def test_one_upage_orders_without_numpy_random():
    """With one U-page nothing is shuffled, so `numpy.random` (about 6 MiB
    of resident memory) is never imported."""
    import os
    import subprocess
    import sys

    code = ("import sys; from dpjoin import OperatorConfig;"
            " from dpjoin.training import TrainConfig, _upage_order;"
            " assert _upage_order(1, TrainConfig(OperatorConfig(budget=1)), 0) == [0];"
            " assert 'numpy.random' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_sgd_plans_build_page_sets_only_for_a_heuristic_that_reads_them(monkeypatch,
                                                                       heuristic):
    """Under `sgd`, `iteration_plan` orders each U-page by `plan_order` of its
    page sets, and builds them (`Dataset.page_sets`) only for a heuristic
    that reads more than their count: never under `none` and `shuffle`,
    once per U-page under the others."""
    ds, page_size = gen_uniform(50, 200, 4, seed=6), 16
    config = TrainConfig(small_op(budget=13, reorder=heuristic, upage=16), mode="sgd")
    calls, page_sets = [], Dataset.page_sets

    def spy(self, *args):
        calls.append(args)
        return page_sets(self, *args)

    monkeypatch.setattr(Dataset, "page_sets", spy)
    plan = iteration_plan(ds, page_size, config, 1)
    bounds = ds.upage_bounds(16)
    assert len(calls) == (0 if heuristic in ("none", "shuffle") else len(bounds))
    assert [order for _, order in plan] == [
        plan_order(page_sets(ds, *bounds[upage], page_size), config.operator, (1, upage))
        for upage, _ in plan]


def test_loss_decreases_on_small_lr_problem(tmp_store):
    ds = gen_uniform(100, 200, 5, seed=12)
    store = tmp_store(200, 16)
    config = TrainConfig(small_op(budget=13), task="lr", alpha=0.5,
                         iterations=5)
    report = train(ds, store, config)
    assert report.losses[-1] < report.losses[0]


@pytest.mark.parametrize("mode", ["sgd-page", "bgd", "sgd"])
def test_gradient_memory_scales_with_touched_coordinates(tmp_store, mode):
    """sgd-page and bgd hold only the coordinates a U-page or pass touched,
    and sgd only the values at its U-page's distinct indexes, never an
    array of the model's dimension (16 MB here)."""
    d = 2_000_000
    ds = gen_uniform(64, d, 5, seed=4)
    store = tmp_store(d, 4096, init=("uniform", -0.1, 0.1), seed=6)
    config = TrainConfig(small_op(budget=16, upage=16), task="lr", mode=mode,
                         alpha=0.3, iterations=2)
    tracemalloc.start()
    try:
        report = train(ds, store, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.losses) == 3
    assert peak < 4 * 2**20


@pytest.mark.parametrize("batching", [True, False])
def test_oversized_vector_error_names_the_tid(tmp_store, batching):
    """Vector tid 103, at file position 3, spans 3 pages of a 2-page budget."""
    vectors = [make_vector(100 + i, [8 * i], label=1.0) for i in range(6)]
    vectors[3] = make_vector(103, [0, 8, 16], label=1.0)
    ds = Dataset(dimension=64, vectors=vectors)
    store = tmp_store(64, 8)
    op = OperatorConfig(budget=2, upage=4)
    with pytest.raises(OversizedVectorError) as err:
        run(ds, store, op, plan="batched" if batching else "single")
    assert err.value.tid == 103
    assert "103" in str(err.value)
    # `train`, which plans its update passes, names it at its offset in the U-page.
    with pytest.raises(OversizedVectorError) as err:
        train(ds, store, TrainConfig(op, task="lr", iterations=1))
    assert err.value.position == 3
    assert err.value.tid == 103
    assert "103" in str(err.value)


def test_train_report_counts_batches_and_upages(tmp_store):
    ds = gen_uniform(40, 256, 5, seed=4)
    store = tmp_store(256, 16, init=("uniform", -0.2, 0.2), seed=6)
    op = OperatorConfig(budget=8, upage=16, seed=3)
    iterations = 3
    config = TrainConfig(op, task="lr", mode="sgd", alpha=0.1, iterations=iterations)
    metrics = train(ds, store, config).metrics
    # Every pass gathers each U-page in groups of `budget` of its pages and
    # of those of the write it carries.
    gathers = accumulated_gathers(ds, 16, config)
    upages = len(ds.upage_bounds(op.upage))
    # Loss i >= 1 takes the first updated U-page's terms from its update read.
    assert len(gathers) == upages * (2 * iterations + 1) - (iterations - 1)
    assert metrics.batch_count == sum(math.ceil(len(write | reads) / op.budget)
                                      for _, write, reads in gathers)
    assert metrics.upage_count == iterations * upages == iterations * math.ceil(len(ds) / op.upage)
    scans = sum(math.ceil(pages / op.budget) for pages in gather_requests(ds, 16, op))
    # A loss pass alone reads the model and never dirties a page.
    loss_only = train(ds, store, TrainConfig(op, task="lr", mode="sgd", iterations=0))
    assert loss_only.metrics.batch_count == scans
    assert loss_only.metrics.write_backs == 0


@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_a_loss_pass_costs_what_the_radix_join_costs(tmp_store, monkeypatch, task, heuristic):
    """Whatever orders the update passes, a loss pass requests each U-page's
    distinct pages once, in groups of `budget` cut from its ascending pages,
    and reads every entry once, as the radix join does: never more page
    requests than the join's, fewer when a U-page's pages do not fit, and
    exactly the join's when they all do. Its gathers alternate direction,
    odd-numbered ones running their groups descending, as the default join's
    U-pages do, so the join executes the same page groups."""
    from dpjoin import operator

    ds, store, budget, _ = task_instance(tmp_store, task)
    executed, real_execute = [], operator.execute

    def execute(manager, groups, *args, **kwargs):
        executed.append([sorted(pages) for pages, _, _ in groups])
        return real_execute(manager, groups, *args, **kwargs)

    monkeypatch.setattr(operator, "execute", execute)  # every gather's scan
    for budget in (budget, store.num_pages):
        op = OperatorConfig(budget=budget, reorder=heuristic, upage=16, seed=3)
        executed.clear()
        loss_pass = train(ds, store, TrainConfig(op, task=task, iterations=0)).metrics
        pages = [scan_pages(ds, start, stop, store.page_size)
                 for start, stop in ds.upage_bounds(op.upage)]
        ascending = [[upage[i : i + budget] for i in range(0, len(upage), budget)]
                     for upage in pages]
        assert executed == [groups[::-1] if k % 2 else groups
                            for k, groups in enumerate(ascending)]
        loss_groups = list(executed)
        executed.clear()
        run(ds, store, op)
        assert executed == loss_groups
        join = run(ds, store, dataclasses.replace(op, reorder="radix"), plan="batched")
        assert loss_pass.page_requests == sum(map(len, pages))
        assert loss_pass.element_requests == join.element_requests == len(ds.indices)
        if budget == store.num_pages:
            assert loss_pass.page_requests == join.page_requests
        else:
            assert loss_pass.page_requests < join.page_requests


def test_train_rejects_a_budget_run_rejects(tmp_store, tmp_path):
    """Budget 20 on an 8-page model: `run` and `train` both refuse it."""
    from dpjoin.cli import main
    from dpjoin.sparse_data import store_dataset

    ds = gen_uniform(20, 64, 4, seed=5)
    store = tmp_store(64, 8)
    op = OperatorConfig(budget=20)
    with pytest.raises(ValidationError):
        run(ds, store, op)
    with pytest.raises(ValidationError):
        train(ds, store, TrainConfig(op, task="lr", iterations=1))
    data = str(tmp_path / "d.bin")
    store_dataset(ds, data)
    assert main(["train", "--data", data, "--model", str(tmp_path / "cli.model"),
                 "--page-size", "8", "--task", "lr", "--iterations", "1",
                 "--budget", "20"]) == 2


def test_an_unknown_heuristic_is_rejected_before_any_read(tmp_store):
    """Every U-page fits the budget, so no pass calls `reorder`: only the
    operator's check sees the name, before the model is read."""
    ds = gen_uniform(40, 160, 4, seed=5)
    store = tmp_store(160, 16)
    op = OperatorConfig(budget=10, reorder="bogus", upage=16)
    with pytest.raises(ValidationError, match="unknown reorder heuristic 'bogus'"):
        run(ds, store, op)
    with pytest.raises(ValidationError, match="unknown reorder heuristic 'bogus'"):
        train(ds, store, TrainConfig(op, task="lr", iterations=1))
    assert store.reads == 0


@pytest.mark.parametrize("cell", [
    "0:1 1:1",              # 2 indexes, not 2 * rank
    "0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1",      # 2 * rank, all in the row region
    "0:1 1:1 2:1 4:1 20:1 21:1 22:1 23:1",  # row block not consecutive
    "2:1 3:1 4:1 5:1 20:1 21:1 22:1 23:1",  # row block not rank-aligned
    "0:1 1:1 2:1 3:1 22:1 23:1 24:1 25:1",  # column block not rank-aligned
])
def test_lmf_rejects_a_cell_that_is_not_two_blocks(tmp_path, cell):
    """Under `# matrix=5,5,4` (d=40) a cell must be a row block of 4 inside
    [0, 20) and a column block of 4 inside [20, 40); anything else exits 2."""
    from dpjoin.cli import main
    from dpjoin.sparse_data import load_dataset

    data = tmp_path / "cells.txt"
    data.write_text(f"# d=40\n# matrix=5,5,4\n1 3.0 {cell}\n")
    ds = load_dataset(str(data), fmt="txt")
    with pytest.raises(ValidationError, match="tid 1: matrix cell"):
        check_dataset(ds, "lmf")
    assert main(["train", "--data", str(data), "--data-format", "txt", "--task", "lmf",
                 "--model", str(tmp_path / "m.model"), "--page-size", "4",
                 "--budget", "4"]) == 2


def test_lmf_accepts_well_formed_cells(tmp_path):
    from dpjoin.cli import main

    data = tmp_path / "cells.txt"
    data.write_text("# d=40\n# matrix=5,5,4\n1 3.0 4:1 5:1 6:1 7:1 36:1 37:1 38:1 39:1\n")
    assert main(["train", "--data", str(data), "--data-format", "txt", "--task", "lmf",
                 "--model", str(tmp_path / "m.model"), "--page-size", "4", "--budget", "4",
                 "--iterations", "1"]) == 0


@pytest.mark.parametrize("heuristic, losses", [
    ("shuffle", [28.758443087323407, 21.48248301568782, 17.288929695929852, 14.562903115019832]),
    ("lsh", [28.758443087323407, 21.470928482809605, 17.28961390336254, 14.568016447023163]),
])
def test_fitting_upages_keep_the_update_order(tmp_store, monkeypatch, heuristic, losses):
    """Every U-page fits the budget, and training cuts no batches: greedy
    batching never runs. The sgd updates run in `iteration_plan`'s order,
    `plan_order`'s, which the oracle follows, and the loss passes in file
    order. The literals pin the losses, so a change of order that moves the
    oracle with the paged path still fails."""
    from dpjoin import operator, training

    ds = gen_uniform(40, 160, 4, seed=5)
    store = tmp_store(160, 16, init=("uniform", -0.2, 0.2), seed=1)
    dense = store.load_dense()
    config = TrainConfig(small_op(budget=10, reorder=heuristic, upage=16), task="lr",
                         mode="sgd", alpha=0.5, iterations=3)
    monkeypatch.setattr(operator, "greedy_batches", lambda *args: pytest.fail("greedy ran"))
    orders = [(iteration, upage) for iteration in range(3)
              for upage, _ in iteration_plan(ds, 16, config, iteration)]
    planned = []

    def spy(sets, config, path):
        planned.append(path)
        return plan_order(sets, config, path)

    monkeypatch.setattr(training, "plan_order", spy)
    result = train(ds, store, config)
    assert result.losses == train_oracle(ds, dense, config, 16).losses == losses
    assert planned == orders * 2  # the paged run's orders, then the oracle's
    # 3 U-pages, 4 loss passes and 3 update passes, a gather per U-page in
    # each, which carries the previous gather's write, less the loss-only
    # gathers of the U-pages whose update reads give losses 1 and 2
    gathers = accumulated_gathers(ds, 16, config)
    assert len(gathers) == 3 * (4 + 3) - 2
    assert result.metrics.batch_count == sum(math.ceil(len(write | reads) / 10)
                                             for _, write, reads in gathers)


def check_reads_in_place(tmp_store, monkeypatch, heuristic, budget, mode, iterations):
    """Train lr under `mode` for `iterations` with no `Dataset.take`, no
    `plan_upage`, no `make_batches` and, but for `sgd`'s update orders, no
    `reorder` allowed, and return the dataset and the report's metrics."""
    from dpjoin import operator

    ds = gen_uniform(40, 160, 4, seed=5)
    store = tmp_store(160, 16, init=("uniform", -0.2, 0.2), seed=1)
    op = small_op(budget=budget, reorder=heuristic, upage=16)
    fits = [pages <= budget for pages in gather_requests(ds, 16, op)]
    assert fits == [budget == 10] * 3
    banned = [(Dataset, "take"), (operator, "plan_upage"), (operator, "make_batches")]
    if mode != "sgd" or iterations == 0:
        banned.append((operator, "reorder"))
    for module, name in banned:
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: pytest.fail(name))
    config = TrainConfig(op, task="lr", mode=mode, alpha=0.5, iterations=iterations)
    return ds, train(ds, store, config).metrics


@pytest.mark.parametrize("budget", [10, 4], ids=["fitting", "not-fitting"])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_a_loss_pass_reads_the_dataset_in_place(tmp_store, monkeypatch, heuristic, budget):
    """A loss pass reads each U-page in file order, whatever the heuristic
    and whether or not the U-page's pages fit the budget: it takes no rows
    and plans nothing, and it reads every entry once."""
    ds, metrics = check_reads_in_place(tmp_store, monkeypatch, heuristic, budget, "sgd", 0)
    assert metrics.element_requests == len(ds.indices)


@pytest.mark.parametrize("mode", ["sgd-page", "bgd"])
@pytest.mark.parametrize("budget", [10, 4], ids=["fitting", "not-fitting"])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_an_accumulated_update_pass_reads_the_dataset_in_place(tmp_store, monkeypatch,
                                                               heuristic, budget, mode):
    """An `sgd-page` or `bgd` update pass reads its U-page in file order, in
    place, as a loss pass does, whatever the heuristic: no pass takes rows,
    plans a U-page or reorders."""
    _, metrics = check_reads_in_place(tmp_store, monkeypatch, heuristic, budget, mode, 2)
    assert metrics.upage_count == 2 * 3


@pytest.mark.parametrize("budget", [10, 4], ids=["fitting", "not-fitting"])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_an_sgd_update_pass_reads_the_dataset_in_place(tmp_store, monkeypatch, heuristic,
                                                       budget):
    """An `sgd` update pass gathers its U-page in place, whatever the
    heuristic and whether or not its pages fit the budget: it takes no rows
    and cuts no batches; the heuristic only orders its updates. Each pass
    reads every entry once and carries one write of the U-page's distinct
    indexes, the last one carried by the final loss pass. The loss pass
    between the two iterations reads all but the U-page whose update read
    writes its terms."""
    ds, metrics = check_reads_in_place(tmp_store, monkeypatch, heuristic, budget, "sgd", 2)
    bounds = ds.upage_bounds(16)
    distinct = sum(len(np.unique(ds.indices[ds.indptr[start] : ds.indptr[stop]]))
                   for start, stop in bounds)
    first, _ = iteration_plan(ds, 16, TrainConfig(small_op(upage=16), mode="sgd-page"), 1)[0]
    fused = int(ds.indptr[bounds[first][1]] - ds.indptr[bounds[first][0]])
    assert metrics.upage_count == 2 * 3
    assert metrics.element_requests == 5 * len(ds.indices) - fused + 2 * distinct


@pytest.mark.parametrize("task,mode", [("lr", "sgd"), ("lr", "sgd-page"), ("lr", "bgd"),
                                       ("lmf", "sgd"), ("lmf", "bgd")])
def test_phases_sum_to_the_totals(tmp_store, task, mode):
    """Loss passes, update passes and gradient applies split the storage
    counters. No pass writes the model itself: the next gather, an update
    or a loss gather, carries the pending write of an `sgd` update pass or
    of an apply and counts in its own phase, so `apply` requests nothing and
    holds only the closing flush's write-backs. Either pass writes back the
    dirty pages it evicts."""
    ds, store, budget, alpha = task_instance(tmp_store, task)
    config = TrainConfig(small_op(budget=budget, reorder="radix"), task=task, mode=mode,
                         alpha=alpha, iterations=3)
    metrics = train(ds, store, config).metrics
    phases = metrics.phases
    assert sorted(phases) == ["apply", "loss", "update"]
    for name in PHASE_COUNTERS:
        assert sum(counts[name] for counts in phases.values()) == getattr(metrics, name), name
    assert phases["loss"]["page_requests"] > 0 and phases["update"]["page_requests"] > 0
    assert phases["apply"]["page_requests"] == phases["apply"]["page_misses"] == 0
    assert phases["update"]["write_backs"] > 0 and phases["loss"]["write_backs"] > 0
    assert metrics.to_dict()["phases"] == phases


def test_a_run_without_iterations_is_all_loss(tmp_store):
    ds, store, budget, _ = task_instance(tmp_store, "lr")
    metrics = train(ds, store, TrainConfig(small_op(budget=budget), task="lr",
                                           mode="sgd-page", iterations=0)).metrics
    assert metrics.phases["loss"] == {name: getattr(metrics, name) for name in PHASE_COUNTERS}
    assert metrics.phases["loss"]["page_misses"] > 0
    for phase in ("update", "apply"):
        assert metrics.phases[phase] == dict.fromkeys(PHASE_COUNTERS, 0)


@pytest.mark.parametrize("mode, writer", [("sgd", "apply"), ("bgd", "apply")])
def test_the_closing_flush_counts_in_the_phase_that_dirties(tmp_store, mode, writer):
    """With every page resident nothing is evicted, so every write-back is
    the closing flush's. It counts in `apply` under every mode, whether the
    pages hold the writes of `sgd`'s update passes or of the applies."""
    ds, store, _, alpha = task_instance(tmp_store, "lr")
    config = TrainConfig(small_op(budget=store.num_pages), task="lr", mode=mode,
                         alpha=alpha, iterations=2)
    metrics = train(ds, store, config).metrics
    assert metrics.write_backs == store.num_pages
    assert metrics.phases[writer]["write_backs"] == metrics.write_backs


# The ids of the `tight` axis date from when training took a plan; they name a
# budget: the task's tight one (`batched`) or every page.
@pytest.mark.parametrize("tight", [True, False], ids=["batched", "unbatched"])
@pytest.mark.parametrize("heuristic", ["none", "radix", "shuffle"])
@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_walked_update_passes_match_the_oracle(tmp_store, task, mode, heuristic, tight):
    """No update pass walks batches: each gathers its U-page, in groups of
    the budget, and `train_oracle` follows `iteration_plan`'s order; losses
    and final model agree bit for bit. The update passes request each
    U-page's distinct pages and those of the write they carry once
    (`accumulated_gathers`), `sgd`'s included, whatever the budget."""
    ds, store, _, alpha = task_instance(tmp_store, task)
    op = small_op(budget=(8 if task == "lr" else 4) if tight else store.num_pages,
                  reorder=heuristic)
    config = TrainConfig(op, task=task, mode=mode, alpha=alpha, iterations=3)
    initial = store.load_dense()
    paged = train(ds, store, config)
    oracle = train_oracle(ds, initial, config, page_size=store.page_size)
    assert not paged.diverged
    assert paged.losses == oracle.losses
    assert np.array_equal(store.load_dense(), oracle.final_model)
    gathers = accumulated_gathers(ds, store.page_size, config)
    for phase in ("update", "loss"):
        assert paged.metrics.phases[phase]["page_requests"] == gathered_requests(gathers, phase)


def test_train_asks_for_each_iteration_plan_after_the_initial_loss_pass(tmp_store,
                                                                      monkeypatch):
    """`train` calls `training.iteration_plan`, looked up on the module, once
    per iteration, the first time after the initial loss pass, and orders no
    update before that call. The benchmark times a training run's first
    result at that call by wrapping the module attribute. Iteration i's call
    follows iteration i - 1's last update pass, under every mode. The passes
    after the call compute loss i before the iteration's first apply: every
    U-page's update under `bgd`; under `sgd` and `sgd-page` the first
    U-page's update and the other U-pages' loss-only gathers. Every pass
    gathers each U-page in place, with no `Dataset.take`; only `sgd` orders
    its updates, in the call. No pass writes the model: the gather after an
    apply (`sgd`'s steps included) carries its write and dirties pages, the
    first gather of the next iteration or of the final loss pass too."""
    from dpjoin import operator, training

    ds, _, budget, alpha = task_instance(tmp_store, "lr")
    op = small_op(budget=budget, reorder="none", upage=16)
    count, iterations = len(ds.upage_bounds(op.upage)), 3
    events = []
    original_plan, original_execute, original_take, original_order = (
        training.iteration_plan, operator.execute, Dataset.take, training.plan_order)

    def iteration_plan(*args):
        events.append(("iteration_plan", args[3]))
        return original_plan(*args)

    def execute(manager, groups, visit, report):
        # A gather's groups dirty the pages of the write it carries.
        events.append(("carry",) if any(len(dirty) for _, _, dirty in groups) else ("gather",))
        return original_execute(manager, groups, visit, report)

    def take(self, rows):
        events.append(("take",))
        return original_take(self, rows)

    def plan_order(*args):
        events.append(("update order",))
        return original_order(*args)

    monkeypatch.setattr(training, "iteration_plan", iteration_plan)
    monkeypatch.setattr(operator, "execute", execute)  # every gather's scan
    monkeypatch.setattr(Dataset, "take", take)
    monkeypatch.setattr(training, "plan_order", plan_order)
    loss, carry = [("gather",)] * count, [("carry",)]
    for mode in ("sgd", "sgd-page", "bgd"):
        events.clear()
        _, store, _, _ = task_instance(tmp_store, "lr", name=f"{mode}.model")
        train(ds, store, TrainConfig(op, task="lr", mode=mode, alpha=alpha,
                                     iterations=iterations))
        assert ("take",) not in events
        expected = list(loss)
        for iteration in range(iterations):
            expected.append(("iteration_plan", iteration))
            if mode == "sgd":
                expected += [("update order",)] * count
            if mode == "bgd":
                expected += (loss[:1] if iteration == 0 else carry) + loss[1:]
            elif iteration == 0:
                expected += loss[:1] + carry * (count - 1)
            else:
                expected += carry + loss[1:] + carry * (count - 1)
        expected += carry + loss[1:]
        assert events == expected, mode


@pytest.mark.parametrize("one_upage", [True, False])
@pytest.mark.parametrize("heuristic", ["none", "radix", "shuffle"])
def test_an_oversized_vector_in_an_update_plan_keeps_its_tid(tmp_store, heuristic, one_upage):
    """Vector tid 103 spans 3 pages of a 2-page budget; `train`, through
    which the update passes are planned, names it at its offset in its
    U-page: 3 in one U-page of all six vectors, 1 in U-pages of two."""
    vectors = [make_vector(100 + i, [8 * i], label=1.0) for i in range(6)]
    vectors[3] = make_vector(103, [0, 8, 16], label=1.0)
    ds = Dataset(dimension=64, vectors=vectors)
    op = OperatorConfig(budget=2, reorder=heuristic, upage=6 if one_upage else 2)
    with pytest.raises(OversizedVectorError) as err:
        train(ds, tmp_store(64, 8), TrainConfig(op, task="lr"))
    assert (err.value.tid, err.value.position) == (103, 3 if one_upage else 1)
    assert "103" in str(err.value)


@pytest.mark.parametrize("batching", [True, False])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_the_first_oversized_vector_in_file_order_is_named(tmp_store, monkeypatch, heuristic,
                                                           batching):
    """Tids 101 and 104 each span 3 pages of a 2-page budget. Whatever order
    the heuristic would give, `run` and `train` (which reaches the update
    planners) name 101, the first in file order, at its offset in the
    U-page, before any reorder runs or any page is read."""
    from dpjoin import operator

    vectors = [make_vector(100 + i, [8 * i], label=1.0) for i in range(6)]
    vectors[1] = make_vector(101, [0, 8, 16], label=1.0)
    vectors[4] = make_vector(104, [24, 32, 40], label=1.0)
    ds = Dataset(dimension=64, vectors=vectors)
    store = tmp_store(64, 8)
    reordered, real_reorder = [], operator.reorder

    def reorder(*args, **kwargs):
        reordered.append(args[0])
        return real_reorder(*args, **kwargs)

    monkeypatch.setattr(operator, "reorder", reorder)
    for seed in range(4):
        op = OperatorConfig(budget=2, reorder=heuristic, upage=8, seed=seed)
        config = TrainConfig(op, task="lr", iterations=1)
        for plan in (lambda: run(ds, store, op, plan="batched" if batching else "single"),
                     lambda: train(ds, store, config)):
            with pytest.raises(OversizedVectorError) as err:
                plan()
            assert (err.value.tid, err.value.position) == (101, 1)
            assert "vector tid 101 needs 3 pages, budget is 2" in str(err.value)
    assert reordered == []
    assert store.reads == 0


@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
def test_the_oracle_rejects_an_oversized_vector_as_train_does(tmp_store, mode):
    """Tid 103, at offset 3 of its U-page, spans 3 pages of a 2-page
    budget: `train_oracle` raises the error `train` raises, with its tid,
    position and message, under every mode."""
    vectors = [make_vector(100 + i, [8 * i], label=1.0) for i in range(6)]
    vectors[3] = make_vector(103, [0, 8, 16], label=1.0)
    ds = Dataset(dimension=64, vectors=vectors)
    store = tmp_store(64, 8)
    config = TrainConfig(OperatorConfig(budget=2, upage=4), task="lr", mode=mode, iterations=1)
    errors = []
    for attempt in (lambda: train(ds, store, config),
                    lambda: train_oracle(ds, np.zeros(64), config, page_size=8)):
        with pytest.raises(OversizedVectorError) as err:
            attempt()
        errors.append((err.value.tid, err.value.position, str(err.value)))
    assert errors[0] == errors[1] == (103, 3, "vector tid 103 needs 3 pages, budget is 2")
    assert store.reads == 0


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_a_non_finite_alpha_moves_no_page(tmp_store, tmp_path, capsys, alpha):
    """A step size that is not finite is rejected before any page moves:
    `train` raises, and `dpjoin train` exits 2 leaving an existing model's
    bytes as they were."""
    from dpjoin.cli import main

    ds, store, budget, _ = task_instance(tmp_store, "lr")
    config = TrainConfig(small_op(budget=budget), task="lr", alpha=float(alpha), iterations=2)
    with pytest.raises(ValidationError, match="alpha must be finite"):
        train(ds, store, config)
    assert store.reads == store.writes == 0

    data, model = str(tmp_path / "d.bin"), tmp_path / "m.bin"
    assert main(["gen", "--kind", "skewed", "--n", "200", "--d", "2000", "--nnz", "5",
                 "--out", data]) == 0
    argv = ["train", "--data", data, "--model", str(model), "--page-size", "64",
            "--budget", "50%"]
    assert main(argv + ["--iterations", "0"]) == 0
    before = model.read_bytes()
    capsys.readouterr()
    assert main(argv + ["--iterations", "2", f"--alpha={alpha}"]) == 2
    assert capsys.readouterr().err.startswith("error: alpha must be finite")
    assert model.read_bytes() == before


@pytest.mark.parametrize("fault", ["positions", "visit"])
def test_an_apply_that_raises_leaves_nothing_pinned(tmp_store, monkeypatch, fault):
    """The gather that carries a gradient apply runs through `execute`: when
    resolving its positions or its step raises, its pins are released."""
    from dpjoin import training

    managers = []

    class Spy(BufferManager):
        fail_at = None  # the positions call to fail, counted from 1

        def __init__(self, *args):
            super().__init__(*args)
            self.calls, self.first_dirty_unpin = 0, None
            managers.append(self)

        def positions(self, indexes):
            self.calls += 1
            at = super().positions(indexes)
            if self.calls == self.fail_at:
                if fault == "positions":
                    raise PreconditionError("positions failed")
                return at + self.frames.size  # outside the pool: the step raises
            return at

        def unpin_set(self, pages, dirty=()):
            if len(dirty) and self.first_dirty_unpin is None:
                self.first_dirty_unpin = self.calls
            super().unpin_set(pages, dirty)

    monkeypatch.setattr(training, "BufferManager", Spy)
    ds, store, budget, alpha = task_instance(tmp_store, "lr")
    config = TrainConfig(small_op(budget=budget, reorder="radix"), task="lr",
                         mode="sgd-page", alpha=alpha, iterations=1)
    train(ds, store, config)
    # Only a gather that carries a write unpins dirty pages; fail the first such batch.
    Spy.fail_at = managers[0].first_dirty_unpin
    _, fresh, _, _ = task_instance(tmp_store, "lr", name="fresh.model")
    with pytest.raises(PreconditionError if fault == "positions" else IndexError):
        train(ds, fresh, config)
    assert managers[1].calls == Spy.fail_at
    assert pinned_pages(managers[1]) == set()


@pytest.mark.parametrize("mode", ["sgd-page", "bgd"])
def test_the_counters_count_the_applies(tmp_store, mode):
    """An apply scans nothing: the gather after it carries its write, the
    coordinates its U-page (`sgd-page`) or its pass (`bgd`) touched. A
    gather is one scan of the union of its write's and its read's pages: one
    batch per `budget` of them and one page request per page. It makes one
    element request per written coordinate and one per entry it reads, so
    the element requests are those of separate scans. The loss phase counts
    what `sgd`'s counts, whose schedule is `sgd-page`'s, less the loss-only
    gathers that the further fused update passes of `bgd` replace (at
    iteration 1 of 2, every U-page's but the first updated one), less the
    pages of `sgd`'s last write and plus those of the last apply, which the
    final loss pass's first gather carries: each beyond the pages of
    U-page 0, which that gather reads. Both lr instances are checked; only
    `spread_instance`'s carried writes add requests."""
    iterations = 2
    for k, make in enumerate(LR_INSTANCES):
        ds, store, budget, alpha = make(tmp_store, f"{k}.model")
        _, sgd_store, _, _ = make(tmp_store, f"{k}-sgd.model")
        op = small_op(budget=budget, reorder="radix", upage=16)
        sgd_config = TrainConfig(op, task="lr", mode="sgd", alpha=alpha, iterations=iterations)
        config = dataclasses.replace(sgd_config, mode=mode)
        sgd = train(ds, sgd_store, sgd_config).metrics
        metrics = train(ds, store, config).metrics
        bounds = ds.upage_bounds(op.upage) if mode == "sgd-page" else [(0, len(ds))]
        touched = [np.unique(ds.indices[ds.indptr[start] : ds.indptr[stop]])
                   for start, stop in bounds]
        upage_pages = [set(scan_pages(ds, start, stop, store.page_size))
                       for start, stop in ds.upage_bounds(op.upage)]
        plans = [[upage for upage, _ in iteration_plan(ds, store.page_size, config, iteration)]
                 for iteration in range(iterations)]
        skipped = plans[1] if mode == "bgd" else plans[1][:1]
        last_write = set().union(*upage_pages) if mode == "bgd" else upage_pages[plans[-1][-1]]
        upage_nnz = [int(ds.indptr[stop] - ds.indptr[start])
                     for start, stop in ds.upage_bounds(op.upage)]
        gathers = accumulated_gathers(ds, store.page_size, config)
        assert metrics.batch_count == sum(math.ceil(len(write | reads) / budget)
                                          for _, write, reads in gathers)
        # iterations + 1 loss-only passes, less the skipped gathers, and iterations update passes
        assert metrics.element_requests == (2 * iterations + 1) * len(ds.indices) - sum(
            upage_nnz[upage] for upage in skipped) + iterations * sum(map(len, touched))
        assert metrics.phases["apply"]["page_requests"] == 0
        assert metrics.phases["update"]["page_requests"] == gathered_requests(gathers, "update")
        assert metrics.phases["loss"]["page_requests"] == gathered_requests(gathers, "loss")
        sgd_write = len(upage_pages[plans[-1][-1]] - upage_pages[0])
        assert metrics.phases["loss"]["page_requests"] == sgd.phases["loss"]["page_requests"] - sum(
            len(upage_pages[upage]) for upage in skipped[1:]) - sgd_write + len(
            last_write - upage_pages[0])
        assert any(write - reads for _, write, reads in gathers) == (make is spread_instance)


@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
def test_the_loss_phase_counts_the_loss_only_visits(tmp_store, mode):
    """The initial and the final loss are passes of their own, each U-page's
    distinct pages requested once, and the gathers count the pages of the
    writes they carry beyond those they read (`accumulated_gathers`). Under
    `bgd` no loss between is: its loss phase requests two passes' pages at
    T = 2, 3 and 5. Under `sgd` and `sgd-page` loss i >= 1 skips the first
    updated U-page's loss-only gather. Under all three, the final pass's
    first gather carries the last apply's write. On `task_instance`'s lr
    data, where every U-page reads all 16 pages, no carried write adds a
    request; on `spread_instance`'s, some do."""
    for k, make in enumerate(LR_INSTANCES):
        ds, _, budget, alpha = make(tmp_store, f"{k}.model")
        op = small_op(budget=budget, reorder="radix", upage=16)
        page_size = 16
        per_upage = gather_requests(ds, page_size, op)
        pages = [set(scan_pages(ds, start, stop, page_size))
                 for start, stop in ds.upage_bounds(op.upage)]
        requests, configs = {}, {}
        for iterations in (0, 2, 3, 5):
            _, store, _, _ = make(tmp_store, f"{k}-{iterations}.model")
            configs[iterations] = TrainConfig(op, task="lr", mode=mode, alpha=alpha,
                                              iterations=iterations)
            requests[iterations] = train(ds, store, configs[iterations]).metrics.phases[
                "loss"]["page_requests"]
        one_pass = requests[0]
        assert one_pass == sum(per_upage) and len(per_upage) == 3
        assert (one_pass == 3 * 16) == (make is not spread_instance)
        carried = []
        for iterations in (2, 3, 5):
            assert requests[iterations] == gathered_requests(
                accumulated_gathers(ds, page_size, configs[iterations]), "loss")
            plans = [[upage for upage, _ in iteration_plan(ds, page_size, configs[iterations],
                                                           iteration)]
                     for iteration in range(iterations)]
            firsts = [plan[0] for plan in plans[1:]]
            if mode == "bgd":
                carried.append(len(set().union(*pages) - pages[0]))
                expected = 2 * one_pass
            else:
                carried.append(len(pages[plans[-1][-1]] - pages[0]))
                expected = (iterations + 1) * one_pass - sum(per_upage[u] for u in firsts)
            assert requests[iterations] == expected + carried[-1]
        assert (max(carried) > 0) == (make is spread_instance)
        assert len(set(firsts)) > 1  # the shuffle moves the first U-page


@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
def test_an_empty_dataset_trains(tmp_store, mode):
    """No U-page, so no update visit computes a loss: every loss is the sum
    of no terms, as the oracle's."""
    ds = gen_uniform(0, 64, 4, seed=1)
    store = tmp_store(64, 8)
    for iterations in (0, 1, 2, 3, 5):
        config = TrainConfig(OperatorConfig(budget=4), mode=mode, iterations=iterations)
        report = train(ds, store, config)
        assert report.losses == [0.0] * (iterations + 1)
        assert report.losses == train_oracle(ds, np.zeros(64), config, 8).losses
        assert report.metrics.page_requests == report.metrics.batch_count == 0


def test_a_gradient_that_cancels_is_not_applied(tmp_store, monkeypatch):
    """At a zero model, tids 1 and 2 put terms -0.5 and +0.5 on index 5,
    which cancel to exactly 0.0: under `bgd` the apply writes index 20 alone,
    so the final loss pass's gather, which carries the write, unpins only
    page 2 dirty, page 0 is not written back, and the apply requests no page
    of its own."""
    from dpjoin import training

    dirtied = []

    class Spy(BufferManager):
        def unpin_set(self, pages, dirty=()):
            dirtied.extend(int(page) for page in dirty)
            super().unpin_set(pages, dirty)

    monkeypatch.setattr(training, "BufferManager", Spy)
    ds = Dataset(dimension=32, vectors=[make_vector(1, [5], label=1.0),
                                        make_vector(2, [5], label=-1.0),
                                        make_vector(3, [20], label=1.0)])
    store = tmp_store(32, 8)
    config = TrainConfig(OperatorConfig(budget=4), task="lr", mode="bgd", alpha=0.5,
                         iterations=1)
    metrics = train(ds, store, config).metrics
    assert dirtied == [2]
    assert metrics.phases["apply"]["page_requests"] == 0
    assert metrics.write_backs == 1
    model = store.load_dense()
    assert model[5] == 0.0 and model[20] == 0.25
    assert np.array_equal(model, train_oracle(ds, np.zeros(32), config, 8).final_model)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.sampled_from(
    [0.1, -0.1, 0.2, -0.3, 0.5, -0.5, 1.0, -1.0, 1e16, -1e16, 3.7e-5, 0.0, -0.0])),
    max_size=60), st.lists(st.integers(0, 60), max_size=2))
@example([(3, 0.5), (3, -0.5), (1, 0.25)], [])     # index 3 cancels to 0.0
@example([(2, 0.1), (2, 0.2), (2, -0.3)], [1])     # (0.1 + 0.2) - 0.3 != 0.1 + (0.2 - 0.3)
@example([(4, 1e16), (4, 1.0), (4, -1e16)], [1, 2])  # 0.0 in visit order, 1.0 in another
def test_gradient_sums_match_a_sequential_dict_sum(entries, cuts):
    """Each index adds its terms one at a time, in entry order, from +0.0,
    as a dict filled entry by entry does, and is given with its value; an
    exact 0.0 sum is dropped. The entries come in 1 to 3 chunks, cut at
    `cuts`, each given as a gathered slice (its distinct indexes, each
    entry's slot among them, the value at each index), and an index may
    recur across chunks, as it does across the U-pages of a `bgd` pass."""
    expected = {}
    for index, term in entries:
        expected[index] = expected.get(index, 0.0) + term
    expected = {index: g for index, g in sorted(expected.items()) if g != 0.0}
    indices = np.array([index for index, _ in entries], dtype=np.uint64)
    terms = np.array([term for _, term in entries], dtype=np.float64)
    chunks = np.split(np.arange(len(entries)), sorted(min(cut, len(entries)) for cut in cuts))
    slices = [np.unique(indices[chunk], return_inverse=True) for chunk in chunks]
    touched, sums, olds = gradient_sums([distinct for distinct, _ in slices],
                                        [slots for _, slots in slices],
                                        [terms[chunk] for chunk in chunks],
                                        [distinct / 4.0 for distinct, _ in slices])
    assert touched.tolist() == list(expected)
    assert sums.tolist() == list(expected.values())
    assert olds.tolist() == [index / 4.0 for index in expected]
