import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import (CollectSink, OperatorConfig, OversizedVectorError,
                    PreconditionError, ValidationError, oracle_dot_products,
                    run)
from dpjoin.datagen import gen_demo, gen_uniform
from dpjoin.operator import PLANS
from dpjoin.reorder import HEURISTICS

from conftest import PageRecorder, pinned_pages, random_dataset, total_nnz


def test_results_match_oracle_exactly(tmp_store):
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, n=60, d=400)
    store = tmp_store(400, 32, init=("uniform", -1.0, 1.0), seed=8)
    expected = {r.tid: r.dp for r in oracle_dot_products(ds, store.load_dense())}
    for plan in PLANS:
        for heuristic in HEURISTICS:
            sink = CollectSink()
            run(ds, store, OperatorConfig(budget=8, reorder=heuristic, seed=2), sink=sink,
                plan=plan)
            got = {r.tid: r.dp for r in sink.results}
            assert got.keys() == expected.keys()
            for tid, dp in got.items():
                assert dp == expected[tid], (plan, heuristic, tid)


def test_demo_counters_plain(tmp_store):
    from dpjoin.datagen import DEMO_DIMENSION, DEMO_PAGE_SIZE
    ds = gen_demo()
    store = tmp_store(DEMO_DIMENSION, DEMO_PAGE_SIZE, init=("uniform", 1.0, 1.0))
    report = run(ds, store, OperatorConfig(budget=2), plan="single")
    assert report.element_requests == 19
    assert report.page_requests == 16
    assert report.page_misses == 8


def test_reorder_restores_file_order_in_results(tmp_store):
    ds = gen_uniform(40, 200, 4, seed=5)
    store = tmp_store(200, 16)
    for plan in PLANS:
        sink = CollectSink()
        run(ds, store, OperatorConfig(budget=6, reorder="none"), sink=sink, plan=plan)
        assert [r.tid for r in sink.results] == [v.tid for v in ds], plan


def test_shuffled_processing_emits_all_tids(tmp_store):
    ds = gen_uniform(64, 200, 4, seed=6)
    store = tmp_store(200, 16)
    sink = CollectSink()
    run(ds, store, OperatorConfig(budget=6, reorder="shuffle", seed=1), sink=sink,
        plan="batched")
    assert sorted(r.tid for r in sink.results) == [v.tid for v in ds]
    assert [r.tid for r in sink.results] != [v.tid for v in ds]


def test_batching_off_one_batch_per_vector(tmp_store):
    ds = gen_uniform(30, 300, 5, seed=7)
    store = tmp_store(300, 16)
    report = run(ds, store, OperatorConfig(budget=8), plan="single")
    assert report.batch_count == 30
    assert report.element_requests == total_nnz(ds)
    assert report.page_requests == sum(
        len({int(i) // 16 for i in v.indexes}) for v in ds)


def test_batching_reduces_page_requests(tmp_store):
    ds = gen_uniform(30, 300, 5, seed=7)
    store = tmp_store(300, 16)
    plain = run(ds, store, OperatorConfig(budget=8), plan="single")
    batched = run(ds, store, OperatorConfig(budget=8), plan="batched")
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
    """The report's totals are the sums of the U-pages' traffic, recorded
    from the store's reads and the buffer manager's requests."""
    ds = gen_uniform(50, 200, 4, seed=11)
    store = tmp_store(200, 16)
    with PageRecorder(store, upages=True) as recorder:
        report = run(ds, store, OperatorConfig(budget=8, upage=16), plan="batched")
    windows = recorder.windows
    assert report.upage_count == 4
    assert len(windows) == 4
    assert [w["vectors"] for w in windows] == [16, 16, 16, 2]
    assert sum(w["page_requests"] for w in windows) == report.page_requests
    assert sum(recorder.misses_by_page.values()) == report.page_misses
    assert len(recorder.misses_by_page) == report.distinct_pages


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
    for plan in PLANS:
        config = OperatorConfig(budget=8, reorder="lsh", seed=21)
        a = run(ds, store, config, plan=plan).counters()
        b = run(ds, store, config, plan=plan).counters()
        assert a == b, plan


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


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_oversized_vector_carries_tid(tmp_store, heuristic):
    ds = gen_uniform(10, 400, 8, seed=2)
    store = tmp_store(400, 8)          # 50 pages, sets up to 8 pages
    with pytest.raises(OversizedVectorError) as err:
        run(ds, store, OperatorConfig(budget=2, reorder=heuristic), plan="single")
    assert err.value.tid in ds.tids
    assert f"tid {err.value.tid} " in str(err.value)
    if heuristic in ("none", "kcenter"):  # both find the first in file order
        assert err.value.tid == 0


def test_results_are_streamed_not_buffered(tmp_store):
    """The sink sees each result before the next batch is requested."""
    ds = gen_uniform(12, 100, 3, seed=4)
    store = tmp_store(100, 10)
    seen = []
    run(ds, store, OperatorConfig(budget=4), sink=lambda result: seen.append(result.tid),
        plan="single")
    assert seen == [v.tid for v in ds]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def test_batch_kernel_is_bit_identical_to_the_oracle(tmp_store):
    """Sums that depend on the order of their terms, signed zeros, nnz of 1
    and above 64, and pinned pages whose frames do not ascend with their
    page ids: the batch kernel's dot products equal the scalar oracle's."""
    from dpjoin import BufferManager, Dataset
    from dpjoin.operator import dot_products

    from conftest import make_vector

    page_size, pages = 8, 12
    d = page_size * pages
    store = tmp_store(d, page_size)
    model = np.random.default_rng(5).normal(size=d) * 10.0 ** np.arange(-8, 16)[np.arange(d) % 24]
    model[[0, 1, 2]] = [1e16, 1.0, -1e16]
    model[3] = -0.0
    for page in range(pages):
        store.write_page(page, model[page * page_size : (page + 1) * page_size])
    dense = store.load_dense()

    rng = np.random.default_rng(9)
    vectors = [
        make_vector(1, [1, 0, 2], [1.0, 1.0, 1.0]),          # 1 + 1e16 - 1e16, in order
        make_vector(2, [0, 1, 2] + list(range(8, 24)), np.ones(19)),
        make_vector(3, [3], [1.0]),                            # a single -0.0 term
        make_vector(4, [5], [-0.0]),
        make_vector(5, [3, 5], [2.0, -0.0]),                   # only signed zeros
        make_vector(6, range(0, d, 1), rng.normal(size=d)),   # nnz 96
        make_vector(7, range(2, d, 3), rng.normal(size=len(range(2, d, 3)))),
    ]
    data = Dataset(d, vectors).validate()
    oracle = [r.dp for r in oracle_dot_products(data, dense)]
    # The data must tell orders apart: pairwise summation changes some sums.
    pairwise = [float(np.sum(v.values * dense[v.indexes.astype(np.int64)])) for v in data]
    assert _bits(pairwise) != _bits(oracle)

    manager = BufferManager(store, pages)
    for page in reversed(range(pages)):       # frame 0 holds the highest page
        manager.request_set([page])
        manager.unpin_set([page])
    manager.request_set(range(pages))
    firsts = manager.positions(np.arange(pages) * page_size).tolist()
    assert firsts != sorted(firsts)
    flat = manager.frames.reshape(-1)
    got = dot_products(data, 0, len(data), flat[manager.positions(data.indices)])
    assert _bits(got) == _bits(oracle)
    for start in range(len(data)):             # one-vector batches too
        at = manager.positions(data.indices[data.indptr[start] : data.indptr[start + 1]])
        assert _bits(dot_products(data, start, start + 1, flat[at])) \
            == _bits(oracle[start : start + 1])


def test_kernel_rejects_a_page_that_is_not_pinned(tmp_store):
    """A batch whose pages miss one its vectors touch is refused before any
    visit reads the frame pool."""
    from dpjoin import BufferManager, Dataset, MetricsReport
    from dpjoin.operator import execute

    from conftest import make_vector

    store = tmp_store(64, 8)
    data = Dataset(64, [make_vector(1, [3, 20])])
    manager = BufferManager(store, 4)
    visited = []
    with pytest.raises(PreconditionError, match="page 2 is not pinned"):
        execute(manager, [((0,), data.indices, ())], lambda *args: visited.append(args),
                MetricsReport(config={}))
    assert visited == []
    assert pinned_pages(manager) == set()


@pytest.mark.parametrize("dirty", [False, True])
def test_a_visit_that_raises_leaves_nothing_pinned(tmp_store, dirty):
    """The batch's set is unpinned, the pages the pass writes as modified."""
    from dpjoin import BufferManager, Dataset, MetricsReport
    from dpjoin.operator import execute

    from conftest import make_vector

    def visit(*args):
        raise ValueError("visit failed")

    store = tmp_store(64, 8)
    manager = BufferManager(store, 4)
    data = Dataset(64, [make_vector(1, [3, 20])])
    with pytest.raises(ValueError, match="visit failed"):
        execute(manager, [((0, 2), data.indices, (0, 2) if dirty else ())], visit,
                MetricsReport(config={}))
    assert pinned_pages(manager) == set()
    manager.flush_all()
    assert manager.write_backs == (2 if dirty else 0)


def test_describe_lists_every_field():
    from dataclasses import fields

    from dpjoin import TrainConfig

    op = OperatorConfig(budget=3)
    assert list(op.describe()) == [f.name for f in fields(op)]
    assert len(op.describe()) == 7
    config = TrainConfig(op)
    assert list(config.describe()) == list(op.describe()) + [
        f.name for f in fields(config) if f.name != "operator"]


def test_report_config_is_unchanged(tmp_store):
    from dpjoin import TrainConfig, train

    ds = gen_uniform(20, 64, 3, seed=2)
    store = tmp_store(64, 8)
    op = OperatorConfig(budget=4, reorder="lsh", upage=8, seed=5, kcenter_k=3)
    expected = [("budget", 4), ("reorder", "lsh"), ("upage", 8), ("seed", 5), ("lsh_m", 16),
                ("lsh_b", 4), ("kcenter_k", 3)]
    # The join's report lists its plan; training takes none.
    assert list(run(ds, store, op).config.items()) == expected + [("plan", "gather")]
    assert run(ds, store, op, plan="single").config["plan"] == "single"
    result = train(ds, store, TrainConfig(op, mode="bgd", alpha=0.5, iterations=1,
                                          shuffle_upages=False))
    expected += [("task", "lr"), ("mode", "bgd"), ("alpha", 0.5), ("iterations", 1),
                 ("shuffle_upages", False)]
    assert list(result.config.items()) == expected
    assert list(result.metrics.config.items()) == expected


def test_run_and_train_build_no_sparse_vectors(tmp_store, monkeypatch):
    """The paged path reads the CSR arrays; no per-vector object is made."""
    from dpjoin import SparseVector, TrainConfig, train

    ds = gen_uniform(60, 256, 5, seed=3)
    store = tmp_store(256, 16, init=("uniform", -0.2, 0.2), seed=1)
    made = []
    real = SparseVector.__post_init__
    monkeypatch.setattr(SparseVector, "__post_init__",
                        lambda self: (made.append(self.tid), real(self)))
    for plan in PLANS:
        for heuristic in ("none", "radix", "lsh"):
            run(ds, store, OperatorConfig(budget=6, reorder=heuristic, upage=16), plan=plan)
    for mode in ("sgd", "sgd-page", "bgd"):
        train(ds, store, TrainConfig(OperatorConfig(budget=6, upage=16), task="lr", mode=mode,
                                     iterations=1))
    assert made == []
    next(iter(ds))
    assert made == [0]


def reference_run(ds, store, config, plan):
    """The join with every U-page planned in full: ordered by `plan_order`
    and cut by `make_batches` without a union, and the batches replayed
    through a fresh BufferManager. Returns the counters, the per-U-page
    windows of a `PageRecorder` and the sorted (tid, dp) pairs."""
    from dpjoin import BufferManager, dot_product
    from dpjoin.operator import make_batches, plan_order

    dense = store.load_dense()
    manager = BufferManager(store, config.budget)
    counters = dict.fromkeys(("element_requests", "batch_count", "upage_count"), 0)
    results = []
    with PageRecorder(store) as recorder:
        for upage_index, (start, stop) in enumerate(ds.upage_bounds(config.upage)):
            recorder.window(start=start, vectors=stop - start)
            sets = ds.page_sets(start, stop, store.page_size)
            perm = plan_order(sets, config, (upage_index,))
            batches = make_batches([sets[p] for p in perm], config, plan)
            for batch in batches:
                manager.request_set(batch.pages)
                for position in batch.positions:
                    vector = ds[start + perm[position]]
                    results.append((vector.tid, dot_product(vector, dense)))
                    counters["element_requests"] += vector.nnz
                manager.unpin_set(batch.pages)
            counters["batch_count"] += len(batches)
            counters["upage_count"] += 1
    counters.update(page_requests=manager.page_requests, page_misses=manager.page_misses,
                    write_backs=manager.write_backs, distinct_pages=manager.distinct_pages)
    return counters, recorder.windows, sorted(results)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.sampled_from([3, 8, 25, 200]), st.sampled_from(HEURISTICS),
       st.sampled_from([-1, 0, 1]), st.booleans(), st.integers(0, 2**16))
def test_fitting_upages_keep_the_planned_counters(tmp_path_factory, n, upage, heuristic,
                                                  delta, batching, seed):
    """Budgets one page under, at and one page over the largest U-page
    union: `run` gives the counters, windows and results of the planned
    reference, whichever U-pages take the one-batch path."""
    from dpjoin import Dataset, ModelStore

    from conftest import random_dataset

    # Entries touch the first 15 of 30 pages, so a budget one over any union fits the model.
    ds = Dataset(480, random_dataset(np.random.default_rng(seed), n=n, d=240, nnz_max=6))
    path = tmp_path_factory.mktemp("fit") / "m.model"
    with ModelStore.create(str(path), 480, 16, init=("uniform", -1.0, 1.0), seed=seed) as store:
        sets = [ds.page_sets(start, stop, 16) for start, stop in ds.upage_bounds(upage)]
        largest = max(len(set().union(*upage_sets)) for upage_sets in sets)
        widest = max(len(s) for upage_sets in sets for s in upage_sets)
        config = OperatorConfig(budget=max(widest, largest + delta), reorder=heuristic,
                                upage=upage, seed=seed)
        plan = "batched" if batching else "single"
        sink = CollectSink()
        with PageRecorder(store, upages=True) as recorder:
            report = run(ds, store, config, sink, plan)
        counters, windows, results = reference_run(ds, store, config, plan)
    assert report.counters() == counters
    assert recorder.windows == windows
    assert sorted((r.tid, r.dp) for r in sink.results) == results


def test_a_fitting_upage_runs_in_file_order(tmp_store, monkeypatch):
    """A U-page whose union fits is one batch in file order, with no reorder
    and no greedy pass. A U-page that does not fit, or any U-page under the
    `single` plan, runs in `plan_order`'s order."""
    from dpjoin import operator
    from dpjoin.operator import plan_order

    ds = gen_uniform(40, 160, 4, seed=5)
    store = tmp_store(160, 16)
    tids = [v.tid for v in ds]
    sets = ds.page_sets(0, len(ds), 16)
    assert len(set().union(*sets)) == 10
    calls = []
    for name in ("reorder", "greedy_batches"):
        def spy(*args, real=getattr(operator, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(operator, name, spy)

    config = OperatorConfig(budget=10, reorder="shuffle", seed=1)
    sink = CollectSink()
    report = run(ds, store, config, sink, "batched")
    assert [r.tid for r in sink.results] == tids
    assert report.batch_count == 1
    assert calls == []

    for budget, batching in ((9, True), (10, False)):
        config = OperatorConfig(budget=budget, reorder="shuffle", seed=1)
        order = plan_order(sets, config, (0,))
        calls.clear()
        sink = CollectSink()
        run(ds, store, config, sink, "batched" if batching else "single")
        assert [r.tid for r in sink.results] == [tids[p] for p in order] != tids
        assert calls == ["reorder", "greedy_batches"][: 1 + batching]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 400), unique=True, max_size=60), st.integers(1, 70))
def test_scan_cuts_what_greedy_batching_cuts_of_one_page_sets(pages, budget):
    """A scan's groups are `budget` consecutive pages of its ascending
    distinct pages, as greedy batching cuts their one-page sets."""
    from dpjoin.batcher import greedy_batches
    from dpjoin.operator import page_groups

    pages = sorted(pages)
    assert page_groups(pages, budget) \
        == [batch.pages for batch in greedy_batches([[p] for p in pages], budget)]


def _one_page_dataset(rng, n, pages, page_size):
    """Vectors whose entries all lie on one page each, so a budget of one
    page holds any of them."""
    from dpjoin import Dataset, SparseVector

    vectors = []
    for i in range(n):
        page = int(rng.integers(pages))
        nnz = int(rng.integers(1, page_size + 1))
        idx = page * page_size + np.sort(rng.choice(page_size, size=nnz, replace=False))
        vectors.append(SparseVector(i + 1, None, idx.astype(np.uint64), rng.normal(size=nnz)))
    return Dataset(pages * page_size, vectors)


@pytest.mark.parametrize("upage", [1, 16, 60])
@pytest.mark.parametrize("budget", ["one", "middle", "all"])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_gather_join_matches_the_oracle(tmp_store, heuristic, budget, upage):
    """Under the default `gather` plan, whatever the heuristic, budget and
    U-page size, every dot product is bit-identical to the oracle's and the
    results come in file order."""
    rng = np.random.default_rng(21)
    if budget == "one":
        ds, pages = _one_page_dataset(rng, 60, 13, 32), 1
    else:
        ds = random_dataset(rng, n=60, d=13 * 32)
        pages = 8 if budget == "middle" else 13
    store = tmp_store(13 * 32, 32, init=("uniform", -1.0, 1.0), seed=8)
    config = OperatorConfig(budget=pages, reorder=heuristic, upage=upage, seed=2)
    sink = CollectSink()
    report = run(ds, store, config, sink=sink)
    assert report.config["plan"] == "gather"
    expected = oracle_dot_products(ds, store.load_dense())
    assert [r.tid for r in sink.results] == [r.tid for r in expected]
    assert _bits([r.dp for r in sink.results]) == _bits([r.dp for r in expected])
    assert report.element_requests == total_nnz(ds)
    assert report.upage_count == len(ds.upage_bounds(upage))


@pytest.mark.parametrize("upage,budget", [(1, 1), (16, 3), (16, 8), (50, 2), (50, 13)])
def test_gather_join_requests_each_upage_pages_once_alternating(tmp_store, upage, budget):
    """The gather join requests each U-page's distinct pages once, in U-page
    order, in groups of `budget` cut from its ascending pages: the groups run
    ascending in even-numbered U-pages and descending in odd-numbered ones,
    so each U-page starts on the pages the last one left resident."""
    rng = np.random.default_rng(4)
    if budget == 1:
        ds = _one_page_dataset(rng, 50, 13, 32)
    else:  # a vector of at most `budget` entries touches at most `budget` pages
        ds = random_dataset(rng, 50, 13 * 32, nnz_max=min(budget, 8))
    store = tmp_store(13 * 32, 32)
    with PageRecorder(store) as recorder:
        report = run(ds, store, OperatorConfig(budget=budget, upage=upage))
    expected = []
    for upage_index, (start, stop) in enumerate(ds.upage_bounds(upage)):
        pages = np.unique(ds.indices[ds.indptr[start] : ds.indptr[stop]] // 32).tolist()
        groups = [pages[k : k + budget] for k in range(0, len(pages), budget)]
        expected += groups[::-1] if upage_index % 2 else groups
    assert recorder.requests == expected
    assert report.page_requests == sum(map(len, expected))
    assert report.batch_count == len(expected)


def test_gather_join_names_an_oversized_vector_before_any_read(tmp_store):
    """Tid 9, in the last U-page, spans 3 pages of a 2-page budget: the
    join names it before it requests or reads any page or emits any
    result, under every plan."""
    from conftest import make_vector
    from dpjoin import Dataset

    vectors = [make_vector(i, [8 * (i % 8)]) for i in range(12)]
    vectors[9] = make_vector(9, [0, 8, 16])
    ds = Dataset(dimension=64, vectors=vectors)
    store = tmp_store(64, 8)
    for plan in PLANS:
        sink = CollectSink()
        with PageRecorder(store) as recorder, pytest.raises(OversizedVectorError) as err:
            run(ds, store, OperatorConfig(budget=2, upage=4), sink, plan)
        assert (err.value.tid, err.value.position) == (9, 1), plan
        assert "vector tid 9 needs 3 pages, budget is 2" in str(err.value)
        assert recorder.requests == [], plan
        assert not recorder.misses_by_page, plan
        assert sink.results == [], plan


def test_an_unknown_plan_is_rejected(tmp_store):
    """The plan is an argument of the join alone: `check_inputs` and `run`
    reject an unknown one before any page is read, and no operator setting
    (so no training config) takes a plan."""
    from dpjoin.operator import check_inputs

    ds = gen_uniform(10, 64, 3, seed=1)
    store = tmp_store(64, 8)
    config = OperatorConfig(budget=4)
    with pytest.raises(ValidationError, match="unknown plan 'hash'"):
        check_inputs(ds, 64, 8, config, "hash")
    with PageRecorder(store) as recorder, pytest.raises(ValidationError,
                                                        match="unknown plan 'hash'"):
        run(ds, store, config, plan="hash")
    assert recorder.requests == []
    assert store.reads == 0
    assert "plan" not in config.describe()
    with pytest.raises(TypeError):
        OperatorConfig(budget=4, plan="batched")


def test_gather_join_peaks_no_higher_than_the_batched_join(tmp_store):
    """On the README's skewed instance (8192 vectors, d = 1e6, pages of
    512, budget 1%, radix), the gather join's `tracemalloc` peak is no
    higher than the batched join's: its sort-merge intermediate is one
    U-page's entries, as the batched plan's reordered copy of the U-page is."""
    import tracemalloc

    from dpjoin.datagen import gen_skewed

    ds = gen_skewed(8192, 1_000_000, 12, seed=0)
    store = tmp_store(1_000_000, 512, init=("uniform", -1.0, 1.0), seed=1)
    peaks = {}
    for plan in ("gather", "batched"):
        tracemalloc.start()
        try:
            run(ds, store, OperatorConfig(budget=20, reorder="radix"), plan=plan)
            peaks[plan] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["gather"] <= peaks["batched"], peaks


@pytest.mark.parametrize("streams", ["both", "no steps", "empty steps", "no reads"])
@pytest.mark.parametrize("budget", [1, 2, 4])
def test_a_gather_carries_pending_steps_in_its_own_scan(tmp_store, monkeypatch, budget,
                                                        streams):
    """A pending write (steps, as assigned values) on pages 0 and 1 rides a
    read of pages 1 and 2 (page 3 is touched by neither): the union of the
    two streams' pages is requested in one ascending scan, each page once,
    in groups of the budget; the read's model slice is the entries'
    distinct indexes, each entry's slot among them and the written model's
    value at each; only the written pages are written back, and the model
    on disk is the written model. Either stream may be empty."""
    from dpjoin import BufferManager, Dataset, MetricsReport
    from dpjoin.operator import gather

    from conftest import make_vector

    store = tmp_store(32, 8, init=("uniform", -1.0, 1.0), seed=4)
    model = store.load_dense()
    data = Dataset(32, [make_vector(1, [9, 17]), make_vector(2, [9, 10])])
    touched, new = np.array([2, 9, 12], dtype=np.uint64), np.array([0.5, 0.25, -1.0])
    write = {"both": (touched, new), "no steps": None, "no reads": (touched, new),
             "empty steps": (touched[:0], new[:0])}[streams]
    stop = 0 if streams == "no reads" else 2
    stepped = model.copy()
    if streams in ("both", "no reads"):
        stepped[touched.astype(np.int64)] = new
    step_pages = {0, 1} if streams in ("both", "no reads") else set()
    read_pages = {1, 2} if stop else set()
    written = []
    monkeypatch.setattr(store, "write_page", lambda page, values, write=store.write_page: (
        written.append(page), write(page, values)))
    manager, report = BufferManager(store, budget), MetricsReport(config={})
    with PageRecorder(store) as recorder:
        touched, slots, local = gather(manager, data, 0, stop, report, write)
    pages = sorted(step_pages | read_pages)
    assert recorder.requests == [pages[k : k + budget] for k in range(0, len(pages), budget)]
    assert recorder.misses_by_page == dict.fromkeys(pages, 1)
    distinct, inverse = np.unique(data.indices[: 2 * stop], return_inverse=True)
    assert touched.tolist() == distinct.tolist() and slots.tolist() == inverse.tolist()
    assert slots.dtype == np.uint8  # the narrowest that holds every slot
    assert _bits(local) == _bits(stepped[touched.astype(np.int64)])
    assert report.batch_count == len(recorder.requests)
    assert report.element_requests == 2 * stop + 3 * bool(step_pages)
    assert pinned_pages(manager) == set()
    manager.flush_all()
    assert sorted(written) == sorted(step_pages)
    assert _bits(store.load_dense()) == _bits(stepped)
