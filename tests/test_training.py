import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpjoin import (BufferManager, Dataset, OperatorConfig, OversizedVectorError,
                    PreconditionError, ValidationError, run)
from dpjoin.datagen import gen_matrix, gen_uniform
from dpjoin.metrics import PHASE_COUNTERS
from dpjoin.operator import make_batches, plan_order, plan_upage
from dpjoin.reorder import HEURISTICS, walk_order
from dpjoin.training import (TrainConfig, check_dataset, gradient_sums, iteration_plan,
                             lmf_cell_gradient, lr_loss, lr_scale, train, train_oracle)

from conftest import make_vector, pinned_pages, request_count


def small_op(budget=8, reorder="none", seed=3, upage=32):
    return OperatorConfig(budget=budget, reorder=reorder, batching=True,
                          upage=upage, seed=seed)


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


@pytest.mark.parametrize("task,mode,batching,heuristic", [
    ("lr", "sgd", True, "radix"), ("lr", "sgd-page", True, "radix"),
    ("lr", "bgd", True, "radix"), ("lmf", "sgd", True, "shuffle"),
    ("lmf", "sgd-page", True, "shuffle"), ("lmf", "bgd", True, "shuffle"),
    ("lr", "sgd-page", False, "radix"), ("lr", "sgd", True, "none"),
    ("lmf", "sgd", True, "none"),
], ids=["lr-sgd", "lr-sgd-page", "lr-bgd", "lmf-sgd", "lmf-sgd-page", "lmf-bgd",
        "lr-sgd-page-unbatched", "lr-sgd-none", "lmf-sgd-none"])
def test_paged_training_matches_dense_oracle(tmp_store, task, mode, batching, heuristic):
    """Dual route: the paged trainer and the in-memory trainer must agree
    bit for bit, losses and final model both. Under a reorder other than
    `none` the update passes visit the vectors in an order that is not file
    order here, so an accumulated update gathers a reordered copy of its
    U-page."""
    ds, store, budget, alpha = task_instance(tmp_store, task)
    op = small_op(budget=budget, reorder=heuristic)
    config = TrainConfig(op, task=task, mode=mode, alpha=alpha, iterations=4)
    config.operator.batching = batching
    if heuristic != "none":
        visits = [rows[[p for batch in batches for p in batch.positions]].tolist()
                  for _, rows, batches in iteration_plan(ds, store.page_size, config, 0)]
        assert any(visit != sorted(visit) for visit in visits)
    initial = store.load_dense()
    paged = train(ds, store, config)
    oracle = train_oracle(ds, initial, config, page_size=store.page_size)
    assert paged.losses == oracle.losses
    assert np.array_equal(store.load_dense(), oracle.final_model)
    assert not paged.diverged


def loss_only_upages(ds, page_size, config):
    """The U-pages, in run order, that `train` gives a loss-only visit when
    it runs `config` without diverging: every U-page for the initial loss,
    for each loss under `sgd` and for the final loss; under `sgd-page`, for
    loss i >= 1, every U-page but the first one iteration i updates; under
    `bgd`, none for the losses between, which the update passes compute."""
    upages = range(len(ds.upage_bounds(config.operator.upage)))
    out = list(upages)
    for iteration in range(1, config.iterations + 1):
        if config.mode == "sgd" or iteration == config.iterations:
            out += upages
        elif config.mode == "sgd-page":
            first = iteration_plan(ds, page_size, config, iteration)[0][0]
            out += [upage for upage in upages if upage != first]
    return out


def scan_pages(ds, start, stop, page_size):
    """The pages a gather of rows [start, stop) requests, each once, ascending."""
    return np.unique(ds.indices[ds.indptr[start] : ds.indptr[stop]] // page_size).tolist()


def gather_requests(ds, page_size, op):
    """Each U-page's page requests in one gather: its distinct pages."""
    return [len(scan_pages(ds, start, stop, page_size)) for start, stop in ds.upage_bounds(op.upage)]


@pytest.mark.parametrize("shuffle_upages", [True, False], ids=["shuffled", "fixed"])
@pytest.mark.parametrize("batching", [True, False], ids=["batched", "unbatched"])
@pytest.mark.parametrize("upages", [1, 2, 3])
@pytest.mark.parametrize("iterations", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("mode", ["sgd-page", "bgd"])
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_fused_loss_visits_match_the_oracle(tmp_store, task, mode, iterations, upages,
                                            batching, shuffle_upages):
    """Under `sgd-page` and `bgd`, loss i >= 1 takes the terms of the update
    visits that read its model before iteration i's first apply (the first
    U-page's under `sgd-page`, every U-page's under `bgd`) and loss-only
    visits of the other U-pages. A term depends only on its vector and that
    model, whatever pass computes it, so every loss and the final model
    equal the oracle's bit for bit; the loss phase requests the pages of the
    loss-only gathers alone, each U-page's distinct pages once."""
    ds, store, budget, alpha = task_instance(tmp_store, task)
    op = small_op(budget=budget, reorder="shuffle", upage=-(-len(ds) // upages))
    op.batching = batching
    config = TrainConfig(op, task=task, mode=mode, alpha=alpha, iterations=iterations,
                         shuffle_upages=shuffle_upages)
    assert len(ds.upage_bounds(op.upage)) == upages
    initial = store.load_dense()
    paged = train(ds, store, config)
    oracle = train_oracle(ds, initial, config, page_size=store.page_size)
    assert not paged.diverged
    assert paged.losses == oracle.losses
    assert np.array_equal(store.load_dense(), oracle.final_model)
    requests = gather_requests(ds, store.page_size, op)
    assert paged.metrics.phases["loss"]["page_requests"] == sum(
        requests[upage] for upage in loss_only_upages(ds, store.page_size, config))


@pytest.mark.parametrize("mode", ["sgd-page", "bgd"])
def test_divergence_applies_no_fused_gradient(tmp_store, mode):
    """A loss that is not finite stops training before the gradient its
    update visits accumulated is applied: losses, divergence and the model
    on disk equal the oracle's, and a second `train` on the same store
    starts from that model."""
    ds = gen_matrix(8, 8, 30, 3, seed=7)
    store = tmp_store((8 + 8) * 3, 8, init=("uniform", -0.5, 0.5), seed=2)
    config = TrainConfig(small_op(budget=6, upage=10), task="lmf", mode=mode,
                         alpha=5.0, iterations=10)
    initial = store.load_dense()
    with np.errstate(all="ignore"):
        paged = train(ds, store, config)
        oracle = train_oracle(ds, initial, config, page_size=store.page_size)
        again = train(ds, store, config)
    assert paged.diverged and oracle.diverged
    assert 2 <= len(paged.losses) <= config.iterations  # loss i, 1 <= i < T, is not finite
    assert np.array_equal(paged.losses, oracle.losses, equal_nan=True)
    assert np.array_equal(store.load_dense(), oracle.final_model, equal_nan=True)
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
    upage_ids = [u for u, _, _ in plan]
    assert sorted(upage_ids) == [0, 1]
    for upage_id, rows, _ in plan:
        start = 3 * upage_id
        assert sorted(rows) == list(range(start, start + len(sets_by_upage[upage_id])))


def test_iteration_plan_fixed_scan_when_disabled():
    sets_by_upage = [[(0,)], [(1,)], [(2,)]]
    config = TrainConfig(small_op(reorder="none", upage=1), shuffle_upages=False)
    for iteration in range(3):
        plan = iteration_plan(sets_dataset(sets_by_upage), 1, config, iteration)
        assert [u for u, _, _ in plan] == [0, 1, 2]


def test_loss_decreases_on_small_lr_problem(tmp_store):
    ds = gen_uniform(100, 200, 5, seed=12)
    store = tmp_store(200, 16)
    config = TrainConfig(small_op(budget=13), task="lr", alpha=0.5,
                         iterations=5)
    report = train(ds, store, config)
    assert report.losses[-1] < report.losses[0]


@pytest.mark.parametrize("mode", ["sgd-page", "bgd"])
def test_gradient_memory_scales_with_touched_coordinates(tmp_store, mode):
    """sgd-page and bgd hold only the coordinates a U-page or pass touched,
    never an array of the model's dimension (16 MB here)."""
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
    op = OperatorConfig(budget=2, batching=batching, upage=4)
    with pytest.raises(OversizedVectorError) as err:
        run(ds, store, op)
    assert err.value.tid == 103
    assert "103" in str(err.value)
    with pytest.raises(OversizedVectorError) as err:
        train(ds, store, TrainConfig(op, task="lr", iterations=1))
    assert err.value.tid == 103
    assert "103" in str(err.value)
    # An update pass's plan names it at its offset in the U-page.
    with pytest.raises(OversizedVectorError) as err:
        plan_upage(ds, 0, 4, 8, op, (0, 0), ordered=True)
    assert err.value.position == 3
    assert err.value.tid == 103


def test_train_report_counts_batches_and_upages(tmp_store):
    ds = gen_uniform(40, 256, 5, seed=4)
    store = tmp_store(256, 16, init=("uniform", -0.2, 0.2), seed=6)
    op = OperatorConfig(budget=8, batching=False, upage=16, seed=3)
    iterations = 3
    report = train(ds, store, TrainConfig(op, task="lr", mode="sgd",
                                          alpha=0.1, iterations=iterations))
    metrics = report.metrics
    # A loss pass gathers each U-page in groups of `budget` of its pages.
    scans = sum(math.ceil(pages / op.budget) for pages in gather_requests(ds, 16, op))
    assert metrics.batch_count == len(ds) * iterations + scans * (iterations + 1)
    assert metrics.upage_count == iterations * math.ceil(len(ds) / op.upage)
    # A loss pass alone reads the model and never dirties a page.
    loss_only = train(ds, store, TrainConfig(op, task="lr", mode="sgd", iterations=0))
    assert loss_only.metrics.batch_count == scans
    assert loss_only.metrics.write_backs == 0


@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_a_loss_pass_costs_what_the_radix_join_costs(tmp_store, monkeypatch, task, heuristic):
    """Whatever orders the update passes, a loss pass requests each U-page's
    distinct pages once, in ascending groups of `budget`, and reads every
    entry once, as the radix join does: never more page requests than the
    join's, fewer when a U-page's pages do not fit, and exactly the join's
    when they all do."""
    from dpjoin import operator, training

    ds, store, budget, _ = task_instance(tmp_store, task)
    executed = []

    def execute(manager, data, batches, *args, **kwargs):
        executed.append([sorted(batch.pages) for batch in batches])
        return operator.execute(manager, data, batches, *args, **kwargs)

    monkeypatch.setattr(training, "execute", execute)
    for budget in (budget, store.num_pages):
        op = OperatorConfig(budget=budget, reorder=heuristic, upage=16, seed=3)
        executed.clear()
        loss_pass = train(ds, store, TrainConfig(op, task=task, iterations=0)).metrics
        pages = [scan_pages(ds, start, stop, store.page_size)
                 for start, stop in ds.upage_bounds(op.upage)]
        assert executed == [[upage[i : i + budget] for i in range(0, len(upage), budget)]
                            for upage in pages]
        join = run(ds, store, dataclasses.replace(op, reorder="radix"))
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
    """Every U-page fits the budget, so each pass is one batch per U-page
    and greedy batching never runs; the sgd updates still run in
    `iteration_plan`'s order, which the oracle replays, and the loss passes
    in file order. The literals pin the losses, so a change of order that
    moves the oracle with the paged path still fails."""
    from dpjoin import operator, training

    ds = gen_uniform(40, 160, 4, seed=5)
    store = tmp_store(160, 16, init=("uniform", -0.2, 0.2), seed=1)
    dense = store.load_dense()
    config = TrainConfig(small_op(budget=10, reorder=heuristic, upage=16), task="lr",
                         mode="sgd", alpha=0.5, iterations=3)
    monkeypatch.setattr(operator, "greedy_batches", lambda *args: pytest.fail("greedy ran"))
    planned = []

    def spy(dataset, start, stop, page_size, config, path, ordered=False):
        rows, batches = plan_upage(dataset, start, stop, page_size, config, path, ordered)
        order = plan_order(dataset.page_sets(start, stop, page_size), config, path)
        planned.append((start + np.asarray(order), rows))
        assert len(batches) == 1
        return rows, batches

    monkeypatch.setattr(training, "plan_upage", spy)
    result = train(ds, store, config)
    assert result.losses == train_oracle(ds, dense, config, 16).losses == losses
    # 3 U-pages, 4 loss passes (a gather of 10 pages or fewer, one batch) and 3 update passes
    assert result.metrics.batch_count == 3 * (4 + 3)
    assert len(planned) == 3 * 3
    for expected, rows in planned:
        assert rows.tolist() == expected.tolist()


@pytest.mark.parametrize("budget", [10, 4], ids=["fitting", "not-fitting"])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_a_loss_pass_reads_the_dataset_in_place(tmp_store, monkeypatch, heuristic, budget):
    """A loss pass reads each U-page in file order, whatever the heuristic
    and whether or not the U-page's pages fit the budget: any rows it takes
    are the dataset's own arrays, not a reordered copy, and it reads every
    entry once."""
    ds = gen_uniform(40, 160, 4, seed=5)
    store = tmp_store(160, 16, init=("uniform", -0.2, 0.2), seed=1)
    op = small_op(budget=budget, reorder=heuristic, upage=16)
    fits = [pages <= budget for pages in gather_requests(ds, 16, op)]
    assert fits == [budget == 10] * 3
    taken = []
    real_take = Dataset.take

    def take(self, rows):
        taken.append(real_take(self, rows))
        return taken[-1]

    monkeypatch.setattr(Dataset, "take", take)
    metrics = train(ds, store, TrainConfig(op, task="lr", iterations=0)).metrics
    assert metrics.element_requests == len(ds.indices)
    for part in taken:
        assert np.shares_memory(part.indices, ds.indices)
        assert np.shares_memory(part.values, ds.values)


def test_walked_update_passes_read_the_dataset_in_place(tmp_store, monkeypatch):
    """Under `none` an update pass's rows stay in file order and the walk
    reorders only its batches, so the pass reads the dataset's own arrays,
    not a reordered copy."""
    from dpjoin import operator, training

    ds, store, budget, alpha = task_instance(tmp_store, "lr")
    op = small_op(budget=budget, reorder="none")
    updates = []

    def execute(manager, data, batches, *args, dirty=False):
        if dirty:  # an sgd update pass
            updates.append((data, [batch.positions[0] for batch in batches]))
        return operator.execute(manager, data, batches, *args, dirty=dirty)

    monkeypatch.setattr(training, "execute", execute)
    train(ds, store, TrainConfig(op, task="lr", mode="sgd", alpha=alpha, iterations=2))
    assert len(updates) == 2 * len(ds.upage_bounds(op.upage))
    for data, _ in updates:
        assert np.shares_memory(data.indices, ds.indices)
        assert np.shares_memory(data.values, ds.values)
    assert any(firsts != sorted(firsts) for _, firsts in updates)  # the walk reorders


def test_run_never_walks_and_train_walks_each_plan_once(tmp_store, monkeypatch):
    """`run` runs its batches in greedy order. `train` walks each U-page's
    batches only for its update plan, under `radix`, which reads no seed,
    once for the plan it replays on every pass; with batching off it does
    not walk at all."""
    from dpjoin import operator, training

    calls = []

    def spy(sets, start=0):
        calls.append(len(sets))
        return walk_order(sets, start)

    for module in (operator, training):  # k-center's walk over centers stays out
        if hasattr(module, "walk_order"):
            monkeypatch.setattr(module, "walk_order", spy)
    ds, store, budget, alpha = task_instance(tmp_store, "lr")
    op = small_op(budget=budget, reorder="radix")
    upages = len(list(ds.upage_bounds(op.upage)))
    run(ds, store, op)
    assert calls == []
    for mode in ("sgd", "sgd-page"):
        train(ds, store, TrainConfig(op, task="lr", mode=mode, alpha=alpha, iterations=3))
        assert len(calls) == upages
        calls.clear()
    unbatched = dataclasses.replace(op, batching=False)
    train(ds, store, TrainConfig(unbatched, task="lr", alpha=alpha, iterations=1))
    assert calls == []


@pytest.mark.parametrize("task,mode", [("lr", "sgd"), ("lr", "sgd-page"), ("lr", "bgd"),
                                       ("lmf", "sgd"), ("lmf", "bgd")])
def test_phases_sum_to_the_totals(tmp_store, task, mode):
    """Loss passes, update passes and gradient applies split the storage
    counters. Only the applies dirty pages under `sgd-page` and `bgd`, only
    the update passes under `sgd`, which has no apply traffic at all; a loss
    pass writes back the dirty pages it evicts."""
    ds, store, budget, alpha = task_instance(tmp_store, task)
    config = TrainConfig(small_op(budget=budget, reorder="radix"), task=task, mode=mode,
                         alpha=alpha, iterations=3)
    metrics = train(ds, store, config).metrics
    phases = metrics.phases
    assert sorted(phases) == ["apply", "loss", "update"]
    for name in PHASE_COUNTERS:
        assert sum(counts[name] for counts in phases.values()) == getattr(metrics, name), name
    assert phases["loss"]["page_requests"] > 0 and phases["update"]["page_requests"] > 0
    if mode == "sgd":
        assert phases["apply"] == dict.fromkeys(PHASE_COUNTERS, 0)
        assert phases["update"]["write_backs"] > 0
    else:
        assert phases["apply"]["page_requests"] > 0 and phases["apply"]["write_backs"] > 0
    assert metrics.to_dict()["phases"] == phases


def test_a_run_without_iterations_is_all_loss(tmp_store):
    ds, store, budget, _ = task_instance(tmp_store, "lr")
    metrics = train(ds, store, TrainConfig(small_op(budget=budget), task="lr",
                                           mode="sgd-page", iterations=0)).metrics
    assert metrics.phases["loss"] == {name: getattr(metrics, name) for name in PHASE_COUNTERS}
    assert metrics.phases["loss"]["page_misses"] > 0
    for phase in ("update", "apply"):
        assert metrics.phases[phase] == dict.fromkeys(PHASE_COUNTERS, 0)


@pytest.mark.parametrize("mode, writer", [("sgd", "update"), ("bgd", "apply")])
def test_the_closing_flush_counts_in_the_phase_that_dirties(tmp_store, mode, writer):
    """With every page resident nothing is evicted, so every write-back is
    the closing flush's, and it counts in the one phase that dirties pages."""
    ds, store, _, alpha = task_instance(tmp_store, "lr")
    config = TrainConfig(small_op(budget=store.num_pages), task="lr", mode=mode,
                         alpha=alpha, iterations=2)
    metrics = train(ds, store, config).metrics
    assert metrics.write_backs == store.num_pages
    assert metrics.phases[writer]["write_backs"] == metrics.write_backs


def greedy_update_batches(ds, page_size, op, iterations):
    """Every update pass's batches before the walk, U-page by U-page in file
    order: `plan_order`'s permutation cut by `make_batches`."""
    out = []
    for iteration in range(iterations):
        for upage_index, (start, stop) in enumerate(ds.upage_bounds(op.upage)):
            sets = ds.page_sets(start, stop, page_size)
            perm = plan_order(sets, op, (iteration, upage_index))
            out.append(make_batches([sets[p] for p in perm], op))
    return out


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "unbatched"])
@pytest.mark.parametrize("heuristic", ["none", "radix", "shuffle"])
@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
@pytest.mark.parametrize("task", ["lr", "lmf"])
def test_walked_update_passes_match_the_oracle(tmp_store, task, mode, heuristic, batching):
    """With batching on, an update pass runs each U-page's greedy batches in
    `walk_order`, which is not greedy order here, and `train_oracle` derives
    the same walk: losses and final model agree bit for bit. The walk
    reorders the batches and adds no request: the update passes request the
    pages of the greedy batches under `sgd`, and, under `sgd-page` and `bgd`,
    which gather each U-page in that order, its distinct pages once."""
    ds, store, _, alpha = task_instance(tmp_store, task)
    op = small_op(budget=8 if task == "lr" else 4, reorder=heuristic)
    op.batching = batching
    config = TrainConfig(op, task=task, mode=mode, alpha=alpha, iterations=3)
    planned = greedy_update_batches(ds, store.page_size, op, config.iterations)
    if batching:
        assert any(walk_order([b.pages for b in batches]) != list(range(len(batches)))
                   for batches in planned)
    initial = store.load_dense()
    paged = train(ds, store, config)
    oracle = train_oracle(ds, initial, config, page_size=store.page_size)
    assert not paged.diverged
    assert paged.losses == oracle.losses
    assert np.array_equal(store.load_dense(), oracle.final_model)
    if mode == "sgd":
        expected = sum(request_count(batch) for batches in planned for batch in batches)
    else:
        expected = config.iterations * sum(gather_requests(ds, store.page_size, op))
    assert paged.metrics.phases["update"]["page_requests"] == expected


@pytest.mark.parametrize("heuristic, plans_per_upage",
                         [("none", 1), ("radix", 1), ("shuffle", 3), ("lsh", 3)])
def test_seedless_update_plans_are_built_once(tmp_store, monkeypatch, heuristic,
                                              plans_per_upage):
    """`none` and `radix` read no seed, so `train` plans each U-page's update
    pass once and replays the plan; a seeded reorder plans it at every
    iteration. Replaying changes nothing: losses and counters equal those of
    a run that plans every iteration."""
    from dpjoin import training

    ds, store, budget, alpha = task_instance(tmp_store, "lr")
    config = TrainConfig(small_op(budget=budget, reorder=heuristic, upage=16), task="lr",
                         alpha=alpha, iterations=3)
    starts = [start for start, _ in ds.upage_bounds(config.operator.upage)]
    update_plans = Counter()

    def spy(dataset, start, stop, page_size, config, path, ordered=False):
        if ordered:  # an update plan; the loss plan is not ordered
            update_plans[start] += 1
        return plan_upage(dataset, start, stop, page_size, config, path, ordered)

    monkeypatch.setattr(training, "plan_upage", spy)
    replayed = train(ds, store, config)
    assert update_plans == dict.fromkeys(starts, plans_per_upage)

    update_plans.clear()
    original = training.iteration_plan
    monkeypatch.setattr(training, "iteration_plan",
                        lambda dataset, page_size, config, iteration, plans: original(
                            dataset, page_size, config, iteration))
    _, fresh, _, _ = task_instance(tmp_store, "lr", name="fresh.model")
    every = train(ds, fresh, config)
    assert update_plans == dict.fromkeys(starts, config.iterations)
    assert replayed.losses == every.losses
    assert replayed.metrics.counters() == every.metrics.counters()
    assert replayed.metrics.phases == every.metrics.phases


def test_train_asks_for_each_iteration_plan_after_the_initial_loss_pass(tmp_store,
                                                                      monkeypatch):
    """`train` calls `training.iteration_plan`, looked up on the module, once
    per iteration, the first time after the initial loss pass, and builds no
    update plan before that call. The benchmark times a training run's first
    result at that call by wrapping the module attribute. Iteration i's call
    follows iteration i - 1's last pass: its loss pass under `sgd`, its
    last apply under `sgd-page` and `bgd`. Under those two, the passes after
    the call compute loss i before the iteration's first apply: every
    U-page's update under `bgd`; under `sgd-page` the first U-page's update
    and the other U-pages' loss-only gathers. A loss pass gathers each
    U-page in place; an update pass takes its rows first."""
    from dpjoin import training

    ds, _, budget, alpha = task_instance(tmp_store, "lr")
    op = small_op(budget=budget, reorder="none", upage=16)
    count, iterations = len(ds.upage_bounds(op.upage)), 3
    events = []
    original_plan, original_execute, original_take = (training.iteration_plan,
                                                      training.execute, Dataset.take)

    def iteration_plan(*args):
        events.append(("iteration_plan", args[3]))
        return original_plan(*args)

    def execute(manager, data, batches, visit, report, dirty=False):
        # A gather scans unlabeled vectors, one per page; so does an apply,
        # which dirties them; an sgd update visits the dataset's vectors.
        kind = ("update" if not np.isnan(data.labels).all() else
                "apply" if dirty else "gather")
        events.append((kind,))
        return original_execute(manager, data, batches, visit, report, dirty=dirty)

    def take(self, rows):
        events.append(("take",))
        return original_take(self, rows)

    def spy(dataset, start, stop, page_size, config, path, ordered=False):
        events.append(("update plan",))
        return plan_upage(dataset, start, stop, page_size, config, path, ordered)

    monkeypatch.setattr(training, "iteration_plan", iteration_plan)
    monkeypatch.setattr(training, "execute", execute)
    monkeypatch.setattr(Dataset, "take", take)
    monkeypatch.setattr(training, "plan_upage", spy)
    loss, apply = [("gather",)] * count, [("apply",)]
    for mode in ("sgd", "sgd-page", "bgd"):
        events.clear()
        _, store, _, _ = task_instance(tmp_store, "lr", name=f"{mode}.model")
        train(ds, store, TrainConfig(op, task="lr", mode=mode, alpha=alpha,
                                     iterations=iterations))
        assert events[: count + 2] == loss + [("iteration_plan", 0), ("update plan",)]
        update = [("take",), ("update",) if mode == "sgd" else ("gather",)]
        expected = list(loss)
        for iteration in range(iterations):
            expected.append(("iteration_plan", iteration))
            if mode == "sgd":
                expected += update * count + loss
            elif mode == "bgd":
                expected += update * count + apply
            elif iteration == 0:
                expected += (update + apply) * count
            else:
                expected += update + loss[1:] + apply + (update + apply) * (count - 1)
        if mode != "sgd":
            expected += loss
        assert [event for event in events if event != ("update plan",)] == expected, mode


@pytest.mark.parametrize("batching", [True, False])
@pytest.mark.parametrize("heuristic", ["none", "radix", "shuffle"])
def test_an_oversized_vector_in_an_update_plan_keeps_its_tid(heuristic, batching):
    """Vector tid 103 spans 3 pages of a 2-page budget; planning an update
    pass names it."""
    vectors = [make_vector(100 + i, [8 * i], label=1.0) for i in range(6)]
    vectors[3] = make_vector(103, [0, 8, 16], label=1.0)
    ds = Dataset(dimension=64, vectors=vectors)
    op = OperatorConfig(budget=2, reorder=heuristic, batching=batching, upage=4)
    with pytest.raises(OversizedVectorError) as err:
        iteration_plan(ds, 8, TrainConfig(op, task="lr"), 0, {})
    assert err.value.tid == 103
    assert "103" in str(err.value)


@pytest.mark.parametrize("batching", [True, False])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_the_first_oversized_vector_in_file_order_is_named(tmp_store, monkeypatch, heuristic,
                                                           batching):
    """Tids 101 and 104 each span 3 pages of a 2-page budget. Whatever order
    the heuristic would give, `run`, `train` and `iteration_plan` name 101,
    the first in file order, at its offset in the U-page, before any reorder
    runs or any page is read."""
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
        op = OperatorConfig(budget=2, reorder=heuristic, batching=batching, upage=8, seed=seed)
        config = TrainConfig(op, task="lr", iterations=1)
        for plan in (lambda: run(ds, store, op), lambda: train(ds, store, config),
                     lambda: iteration_plan(ds, 8, config, 0)):
            with pytest.raises(OversizedVectorError) as err:
                plan()
            assert (err.value.tid, err.value.position) == (101, 1)
            assert "vector tid 101 needs 3 pages, budget is 2" in str(err.value)
    assert reordered == []
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
    """The gradient apply runs through `execute`: when resolving its
    positions or its step raises, the apply's pins are released."""
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

        def unpin_set(self, pages, dirty=False):
            if dirty and self.first_dirty_unpin is None:
                self.first_dirty_unpin = self.calls
            super().unpin_set(pages, dirty)

    monkeypatch.setattr(training, "BufferManager", Spy)
    ds, store, budget, alpha = task_instance(tmp_store, "lr")
    config = TrainConfig(small_op(budget=budget, reorder="radix"), task="lr",
                         mode="sgd-page", alpha=alpha, iterations=1)
    train(ds, store, config)
    # Only an apply unpins dirty under sgd-page; fail the first apply's first batch.
    Spy.fail_at = managers[0].first_dirty_unpin
    _, fresh, _, _ = task_instance(tmp_store, "lr", name="fresh.model")
    with pytest.raises(PreconditionError if fault == "positions" else IndexError):
        train(ds, fresh, config)
    assert managers[1].calls == Spy.fail_at
    assert pinned_pages(managers[1]) == set()


@pytest.mark.parametrize("mode", ["sgd-page", "bgd"])
def test_the_counters_count_the_applies(tmp_store, mode):
    """An apply is one more scan of the coordinates its U-page (`sgd-page`)
    or its pass (`bgd`) touched: one batch per `budget` of their pages, one
    page request per page and one element request per coordinate. An update
    pass gathers its U-page as a loss-only pass does: one batch per `budget`
    of its distinct pages, one request per page and one element request per
    entry. The loss phase counts what `sgd`'s counts, less the loss-only
    gathers the fused update passes replace: at iteration 1 of 2, every
    U-page's under `bgd` and the first updated U-page's under `sgd-page`."""
    ds, store, budget, alpha = task_instance(tmp_store, "lr")
    _, sgd_store, _, _ = task_instance(tmp_store, "lr", name="sgd.model")
    op = small_op(budget=budget, reorder="radix")
    iterations = 2
    sgd_config = TrainConfig(op, task="lr", mode="sgd", alpha=alpha, iterations=iterations)
    config = dataclasses.replace(sgd_config, mode=mode)
    sgd = train(ds, sgd_store, sgd_config).metrics
    metrics = train(ds, store, config).metrics
    bounds = ds.upage_bounds(op.upage) if mode == "sgd-page" else [(0, len(ds))]
    touched = [np.unique(ds.indices[ds.indptr[start] : ds.indptr[stop]])
               for start, stop in bounds]
    pages = [len(np.unique(indices // store.page_size)) for indices in touched]
    upage_pages = gather_requests(ds, store.page_size, op)
    groups = [math.ceil(count / budget) for count in upage_pages]
    skipped = (list(range(len(upage_pages))) if mode == "bgd"
               else [iteration_plan(ds, store.page_size, config, 1)[0][0]])
    upage_nnz = [int(ds.indptr[stop] - ds.indptr[start])
                 for start, stop in ds.upage_bounds(op.upage)]
    # iterations + 1 loss-only passes, less the skipped gathers, and iterations update passes
    assert metrics.batch_count == (2 * iterations + 1) * sum(groups) - sum(
        groups[upage] for upage in skipped) + iterations * sum(
        math.ceil(count / budget) for count in pages)
    assert metrics.element_requests == (2 * iterations + 1) * len(ds.indices) - sum(
        upage_nnz[upage] for upage in skipped) + iterations * sum(map(len, touched))
    assert metrics.phases["apply"]["page_requests"] == iterations * sum(pages)
    assert metrics.phases["update"]["page_requests"] == iterations * sum(upage_pages)
    assert metrics.phases["loss"]["page_requests"] == sgd.phases["loss"]["page_requests"] - sum(
        upage_pages[upage] for upage in skipped)


@pytest.mark.parametrize("mode", ["sgd", "sgd-page", "bgd"])
def test_the_loss_phase_counts_the_loss_only_visits(tmp_store, mode):
    """The initial and the final loss are passes of their own, each U-page's
    distinct pages requested once. Under `sgd` every loss is: T iterations
    request (T + 1) times one loss pass's pages. Under `bgd` no loss between
    is: its loss phase requests two passes' pages at T = 2 and at T = 5.
    Under `sgd-page` loss i >= 1 skips the first updated U-page's loss-only
    gather."""
    ds, _, budget, alpha = task_instance(tmp_store, "lr")
    op = small_op(budget=budget, reorder="radix", upage=16)
    per_upage = gather_requests(ds, 16, op)
    requests, configs = {}, {}
    for iterations in (0, 2, 5):
        _, store, _, _ = task_instance(tmp_store, "lr", name=f"{iterations}.model")
        configs[iterations] = TrainConfig(op, task="lr", mode=mode, alpha=alpha,
                                          iterations=iterations)
        requests[iterations] = train(ds, store, configs[iterations]).metrics.phases[
            "loss"]["page_requests"]
    one_pass = requests[0]
    assert one_pass == sum(per_upage) and len(per_upage) == 3
    if mode == "sgd":
        assert (requests[2], requests[5]) == (3 * one_pass, 6 * one_pass)
    elif mode == "bgd":
        assert requests[2] == requests[5] == 2 * one_pass
    else:
        for iterations in (2, 5):
            firsts = [iteration_plan(ds, 16, configs[iterations], iteration)[0][0]
                      for iteration in range(1, iterations)]
            assert requests[iterations] == (iterations + 1) * one_pass - sum(
                per_upage[upage] for upage in firsts)
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


def test_a_gradient_that_cancels_is_not_applied(tmp_store):
    """At a zero model, tids 1 and 2 put terms -0.5 and +0.5 on index 5,
    which cancel to exactly 0.0: under `bgd` the apply steps index 20 alone,
    so page 0 is neither requested by it nor written back."""
    ds = Dataset(dimension=32, vectors=[make_vector(1, [5], label=1.0),
                                        make_vector(2, [5], label=-1.0),
                                        make_vector(3, [20], label=1.0)])
    store = tmp_store(32, 8)
    config = TrainConfig(OperatorConfig(budget=4), task="lr", mode="bgd", alpha=0.5,
                         iterations=1)
    metrics = train(ds, store, config).metrics
    assert metrics.phases["apply"]["page_requests"] == 1
    assert metrics.write_backs == 1
    model = store.load_dense()
    assert model[5] == 0.0 and model[20] == 0.25
    assert np.array_equal(model, train_oracle(ds, np.zeros(32), config, 8).final_model)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.sampled_from(
    [0.1, -0.1, 0.2, -0.3, 0.5, -0.5, 1.0, -1.0, 1e16, -1e16, 3.7e-5, 0.0, -0.0])),
    max_size=60))
@example([(3, 0.5), (3, -0.5), (1, 0.25)])     # index 3 cancels to 0.0
@example([(2, 0.1), (2, 0.2), (2, -0.3)])      # (0.1 + 0.2) - 0.3 != 0.1 + (0.2 - 0.3)
@example([(4, 1e16), (4, 1.0), (4, -1e16)])    # 0.0 in visit order, 1.0 in another
def test_gradient_sums_match_a_sequential_dict_sum(entries):
    """Each index adds its terms one at a time, in entry order, from +0.0,
    as a dict filled entry by entry does; an exact 0.0 sum is dropped."""
    expected = {}
    for index, term in entries:
        expected[index] = expected.get(index, 0.0) + term
    expected = {index: g for index, g in sorted(expected.items()) if g != 0.0}
    indices = np.array([index for index, _ in entries], dtype=np.uint64)
    terms = np.array([term for _, term in entries], dtype=np.float64)
    touched, sums = gradient_sums(indices, terms)
    assert touched.tolist() == list(expected)
    assert sums.tolist() == list(expected.values())
