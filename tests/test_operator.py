import numpy as np
import pytest

from dpjoin import (CollectSink, OperatorConfig, OversizedVectorError,
                    PreconditionError, ValidationError, oracle_dot_products,
                    run)
from dpjoin.datagen import gen_demo, gen_uniform
from dpjoin.reorder import HEURISTICS

from conftest import random_dataset


def test_results_match_oracle_exactly(tmp_store):
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, n=60, d=400)
    store = tmp_store(400, 32, init=("uniform", -1.0, 1.0), seed=8)
    expected = {r.tid: r.dp for r in oracle_dot_products(ds, store.load_dense())}
    for heuristic in HEURISTICS:
        sink = CollectSink()
        run(ds, store, OperatorConfig(budget=8, reorder=heuristic, seed=2),
            sink=sink)
        got = sink.as_tid_map()
        assert got.keys() == expected.keys()
        for tid, dp in got.items():
            assert dp == expected[tid], (heuristic, tid)


def test_demo_counters_plain(tmp_store):
    from dpjoin.datagen import DEMO_DIMENSION, DEMO_PAGE_SIZE
    ds = gen_demo()
    store = tmp_store(DEMO_DIMENSION, DEMO_PAGE_SIZE, init=("constant", 1.0))
    report = run(ds, store, OperatorConfig(budget=2, batching=False))
    assert report.element_requests == 19
    assert report.page_requests == 16
    assert report.page_misses == 8


def test_reorder_restores_file_order_in_results(tmp_store):
    ds = gen_uniform(40, 200, 4, seed=5)
    store = tmp_store(200, 16)
    sink = CollectSink()
    run(ds, store, OperatorConfig(budget=6, reorder="none"), sink=sink)
    assert [r.tid for r in sink.results] == [v.tid for v in ds]


def test_shuffled_processing_emits_all_tids(tmp_store):
    ds = gen_uniform(64, 200, 4, seed=6)
    store = tmp_store(200, 16)
    sink = CollectSink()
    run(ds, store, OperatorConfig(budget=6, reorder="shuffle", seed=1),
        sink=sink)
    assert sorted(r.tid for r in sink.results) == [v.tid for v in ds]
    assert [r.tid for r in sink.results] != [v.tid for v in ds]


def test_batching_off_one_batch_per_vector(tmp_store):
    ds = gen_uniform(30, 300, 5, seed=7)
    store = tmp_store(300, 16)
    report = run(ds, store, OperatorConfig(budget=8, batching=False))
    assert report.batch_count == 30
    assert report.element_requests == ds.total_nnz()
    assert report.page_requests == sum(
        len({int(i) // 16 for i in v.indexes}) for v in ds)


def test_batching_reduces_page_requests(tmp_store):
    ds = gen_uniform(30, 300, 5, seed=7)
    store = tmp_store(300, 16)
    plain = run(ds, store, OperatorConfig(budget=8, batching=False))
    batched = run(ds, store, OperatorConfig(budget=8, batching=True))
    assert batched.batch_count < plain.batch_count
    assert batched.page_requests < plain.page_requests
    assert batched.element_requests == plain.element_requests


def test_distinct_pages_is_union_size(tmp_store):
    ds = gen_uniform(25, 256, 6, seed=9)
    store = tmp_store(256, 16)
    report = run(ds, store, OperatorConfig(budget=16))
    union = {int(i) // 16 for v in ds for i in v.indexes}
    assert report.distinct_pages == len(union)
    assert report.write_backs == 0


def test_per_upage_metrics(tmp_store):
    ds = gen_uniform(50, 200, 4, seed=11)
    store = tmp_store(200, 16)
    report = run(ds, store, OperatorConfig(budget=8, upage=16,
                                           per_upage_metrics=True))
    assert report.upage_count == 4
    assert len(report.per_upage) == 4
    assert [w["vectors"] for w in report.per_upage] == [16, 16, 16, 2]
    assert sum(w["page_misses"] for w in report.per_upage) == report.page_misses
    assert sum(w["page_requests"] for w in report.per_upage) == report.page_requests
    for window in report.per_upage:
        assert sum(window["misses_by_page"].values()) == window["page_misses"]
    missed = set().union(*(w["misses_by_page"] for w in report.per_upage))
    assert len(missed) == report.distinct_pages


def test_io_time_counts_only_this_run(tmp_store, monkeypatch):
    """With a clock that advances by 1 per call, each page read takes
    exactly 1; a second join on the same store reports only its own reads."""
    import itertools
    from dpjoin import model_store
    ds = gen_uniform(50, 200, 4, seed=11)
    store = tmp_store(200, 16)
    monkeypatch.setattr(model_store.time, "perf_counter", itertools.count().__next__)
    for _ in range(2):
        report = run(ds, store, OperatorConfig(budget=4))
        assert report.page_misses > 0
        assert report.io_time == report.page_misses


def test_counters_are_deterministic(tmp_store):
    ds = gen_uniform(40, 300, 5, seed=13)
    store = tmp_store(300, 16)
    config = OperatorConfig(budget=8, reorder="lsh", seed=21)
    a = run(ds, store, config).counters()
    b = run(ds, store, config).counters()
    assert a == b


def test_dimension_mismatch_rejected(tmp_store):
    ds = gen_uniform(5, 100, 3, seed=1)
    store = tmp_store(200, 16)
    with pytest.raises(ValidationError):
        run(ds, store, OperatorConfig(budget=4))


def test_bad_budget_rejected(tmp_store):
    ds = gen_uniform(5, 100, 3, seed=1)
    store = tmp_store(100, 10)
    with pytest.raises(ValidationError):
        run(ds, store, OperatorConfig(budget=0))
    with pytest.raises(ValidationError):
        run(ds, store, OperatorConfig(budget=11))


def test_oversized_vector_carries_tid(tmp_store):
    ds = gen_uniform(10, 400, 8, seed=2)
    store = tmp_store(400, 8)          # 50 pages, sets up to 8 pages
    with pytest.raises(OversizedVectorError) as err:
        run(ds, store, OperatorConfig(budget=2, batching=False))
    assert err.value.tid == 0


def test_results_are_streamed_not_buffered(tmp_store):
    """The sink sees each result before the next batch is requested."""
    ds = gen_uniform(12, 100, 3, seed=4)
    store = tmp_store(100, 10)
    seen = []
    run(ds, store, OperatorConfig(budget=4, batching=False),
        sink=lambda result: seen.append(result.tid))
    assert seen == [v.tid for v in ds]
