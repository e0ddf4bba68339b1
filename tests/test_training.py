import math
import tracemalloc

import numpy as np
import pytest

from dpjoin import (Dataset, OperatorConfig, OversizedVectorError, ValidationError,
                    run)
from dpjoin.datagen import gen_matrix, gen_uniform
from dpjoin.training import (LmfLayout, TrainConfig, iteration_plan,
                             lmf_cell_gradient, lmf_loss, lr_loss, lr_scale,
                             train, train_oracle)

from conftest import make_vector


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
        layout = LmfLayout(rows=3, cols=2, rank=4)
        assert layout.dimension == (3 + 2) * 4

    def test_layout_from_dataset(self):
        ds = gen_matrix(5, 4, 12, 3, seed=2)
        layout = LmfLayout.from_dataset(ds)
        assert (layout.rows, layout.cols, layout.rank) == (5, 4, 3)

    def test_cell_gradient_direction(self):
        row = np.array([1.0, 0.0])
        col = np.array([0.5, 0.5])
        grad_row, grad_col = lmf_cell_gradient(2.0, row, col)
        # prediction 0.5 under rating 2.0: gradient pushes both factors up
        assert (grad_row < 0).any() and not (grad_row > 0).any()
        assert np.allclose(grad_row, (0.5 - 2.0) * col)
        assert np.allclose(grad_col, (0.5 - 2.0) * row)


@pytest.mark.parametrize("task,mode,batching", [
    ("lr", "sgd", True), ("lr", "sgd-page", True), ("lr", "bgd", True),
    ("lmf", "sgd", True), ("lmf", "sgd-page", True), ("lmf", "bgd", True),
    ("lr", "sgd-page", False),
], ids=["lr-sgd", "lr-sgd-page", "lr-bgd", "lmf-sgd", "lmf-sgd-page", "lmf-bgd",
        "lr-sgd-page-unbatched"])
def test_paged_training_matches_dense_oracle(tmp_store, task, mode, batching):
    """Dual route: the paged trainer and the in-memory trainer must agree
    bit for bit, losses and final model both."""
    if task == "lr":
        ds = gen_uniform(48, 256, 5, seed=4)
        store = tmp_store(256, 16, init=("uniform", -0.2, 0.2), seed=6)
        config = TrainConfig(small_op(reorder="radix"), task="lr", mode=mode,
                             alpha=0.3, iterations=4)
    else:
        ds = gen_matrix(10, 8, 40, 4, seed=5)
        store = tmp_store((10 + 8) * 4, 8, init=("uniform", -0.2, 0.2), seed=6)
        config = TrainConfig(small_op(budget=6, reorder="shuffle"), task="lmf",
                             mode=mode, alpha=0.05, iterations=4)
    config.operator.batching = batching
    initial = store.load_dense()
    paged = train(ds, store, config)
    oracle = train_oracle(ds, initial, config, page_size=store.page_size)
    assert paged.losses == oracle.losses
    assert np.array_equal(store.load_dense(), oracle.final_model)
    assert not paged.diverged


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


def test_lmf_divergence_detected(tmp_store):
    ds = gen_matrix(8, 8, 30, 3, seed=7)
    store = tmp_store((8 + 8) * 3, 8, init=("uniform", -0.5, 0.5), seed=2)
    config = TrainConfig(small_op(budget=6), task="lmf", mode="sgd",
                         alpha=50.0, iterations=10)
    with np.errstate(over="ignore", invalid="ignore"):
        report = train(ds, store, config)
    assert report.diverged
    assert len(report.losses) < 11


def test_iteration_plan_is_permutation():
    sets_by_upage = [
        [(0,), (1,), (0, 1)],
        [(2,), (2, 3)],
    ]
    config = TrainConfig(small_op(budget=4, reorder="shuffle", seed=5),
                         iterations=2)
    plan = iteration_plan(sets_by_upage, config, iteration=1)
    upage_ids = [u for u, _ in plan]
    assert sorted(upage_ids) == [0, 1]
    for upage_id, order in plan:
        assert sorted(order) == list(range(len(sets_by_upage[upage_id])))


def test_iteration_plan_fixed_scan_when_disabled():
    sets_by_upage = [[(0,)], [(1,)], [(2,)]]
    config = TrainConfig(small_op(reorder="none"), shuffle_upages=False)
    for iteration in range(3):
        plan = iteration_plan(sets_by_upage, config, iteration)
        assert [u for u, _ in plan] == [0, 1, 2]


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


def test_train_report_counts_batches_and_upages(tmp_store):
    ds = gen_uniform(40, 256, 5, seed=4)
    store = tmp_store(256, 16, init=("uniform", -0.2, 0.2), seed=6)
    op = OperatorConfig(budget=8, batching=False, upage=16, seed=3)
    iterations = 3
    report = train(ds, store, TrainConfig(op, task="lr", mode="sgd",
                                          alpha=0.1, iterations=iterations))
    metrics = report.metrics
    assert metrics.batch_count == len(ds) * (2 * iterations + 1)
    assert metrics.upage_count == iterations * math.ceil(len(ds) / op.upage)
    # A loss pass alone reads the model and never dirties a page.
    loss_only = train(ds, store, TrainConfig(op, task="lr", mode="sgd", iterations=0))
    assert loss_only.metrics.batch_count == len(ds)
    assert loss_only.metrics.write_backs == 0


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
