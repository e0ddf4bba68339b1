"""Acceptance criteria, one test per criterion.

Each test is self-contained and uses frozen seeds so reruns are exact.
Tolerances are pinned in the asserts themselves; counter comparisons are
exact. `-v` shows one pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from dpjoin import ModelStore, OperatorConfig, oracle_dot_products, run
from dpjoin.batcher import greedy_batches
from dpjoin.cli import parse_budget
from dpjoin.datagen import (DEMO_DIMENSION, DEMO_PAGE_SIZE, gen_demo,
                            gen_matrix, gen_skewed, gen_uniform)
from dpjoin.reorder import HEURISTICS, minwise_params
from dpjoin.sparse_data import page_request_set
from dpjoin.training import (TrainConfig, lmf_cell_gradient, lmf_loss, lr_loss,
                             lr_scale, train)

from conftest import (PageRecorder, brute_force_batches, minwise_signature,
                      page_frequency_order, total_requests)


def make_store(tmp_path, dimension, page_size, init="zeros", seed=0,
               name="m.model"):
    return ModelStore.create(str(tmp_path / name), dimension, page_size,
                             init=init, seed=seed)


def max_pages_per_vector(dataset, page_size):
    return max(len(page_request_set(v, page_size)) for v in dataset)


def test_c01_demo_corpus_exact_counters(tmp_path):
    """Eight frozen vectors over three pages: every counter is exact."""
    started = time.perf_counter()
    ds = gen_demo()
    with make_store(tmp_path, DEMO_DIMENSION, DEMO_PAGE_SIZE) as store:
        plain = run(ds, store, OperatorConfig(budget=2, reorder="none"),
                    plan="single")
        radix = run(ds, store, OperatorConfig(budget=2, reorder="radix"),
                    plan="single")
        batched = run(ds, store, OperatorConfig(budget=2, reorder="radix"),
                      plan="batched")
    assert plain.element_requests == 19
    assert plain.page_requests == 16
    assert plain.page_misses == 8
    assert radix.page_misses == 4
    assert batched.batch_count == 3
    assert batched.page_requests == 6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: all six demo counters exact ({elapsed:.3f}s)")


def test_c02_oracle_equivalence_over_config_grid(tmp_path):
    """1000 random instances, the batched and single joins' grid applied
    round-robin, then 300 more over the gather join, which reads no
    heuristic, one cell per budget; (tid, dp) multisets must be
    bit-identical to the in-memory oracle."""
    started = time.perf_counter()
    grid = [(m, h, p)
            for m in ("fit", "25%", "100%")
            for h in HEURISTICS
            for p in ("batched", "single")]
    gather_grid = [(m, "none", "gather") for m in ("fit", "25%", "100%")]
    rng = np.random.default_rng(2024)
    checked = 0
    for instance in range(1300):
        n = int(rng.integers(20, 121))
        d = int(rng.integers(200, 2001))
        page_size = int(rng.choice([8, 16, 32, 64]))
        ds = gen_uniform(n, d, int(rng.integers(1, 7)),
                         seed=int(rng.integers(2**31)))
        if instance < 1000:
            m_kind, heuristic, plan = grid[instance % len(grid)]
        else:
            m_kind, heuristic, plan = gather_grid[instance % len(gather_grid)]
        with make_store(tmp_path, d, page_size,
                        init=("uniform", -1.0, 1.0),
                        seed=int(rng.integers(2**31)),
                        name=f"i{instance}.model") as store:
            fit = max_pages_per_vector(ds, page_size)
            if m_kind == "fit":
                budget = fit
            else:
                budget = max(fit, parse_budget(m_kind, store.num_pages))
            results = []
            run(ds, store,
                OperatorConfig(budget=budget, reorder=heuristic, upage=64,
                               seed=int(rng.integers(2**31))),
                sink=results.append, plan=plan)
            expected = oracle_dot_products(ds, store.load_dense())
        got = sorted((r.tid, r.dp) for r in results)
        want = sorted((r.tid, r.dp) for r in expected)
        assert got == want, (instance, m_kind, heuristic, plan)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 2: {checked} instances bit-identical across "
          f"{len(grid) + len(gather_grid)} configs ({elapsed:.1f}s)")


def exhaustive_min_batch_count(sets, budget):
    """Fewest batches over every split of `sets` into consecutive runs
    whose page unions fit in `budget`; enumerates all 2^(n-1) cut masks."""
    n = len(sets)
    best = None
    for mask in range(1 << (n - 1)):
        count = 1
        union = set(sets[0])
        for j in range(1, n):
            if mask & (1 << (j - 1)):
                count += 1
                union = set(sets[j])
            else:
                union |= set(sets[j])
            if len(union) > budget:
                break
        else:
            if best is None or count < best:
                best = count
    return best


def test_c03_greedy_batching_matches_exhaustive_minimum():
    """Greedy batching vs exhaustive search on 500 random ordered
    instances. Greedy must reach the exhaustive minimum number of
    batches, and its total page requests can never fall below the
    exhaustive minimum of requests (`brute_force_batches`). Greedy is not
    request-optimal, so the instances where it requests more than that
    minimum are counted and reported, not asserted."""
    rng = np.random.default_rng(77)
    count_mismatches = []
    request_gaps = []
    for instance in range(500):
        n = int(rng.integers(2, 13))
        budget = int(rng.integers(2, 7))
        sets = []
        for _ in range(n):
            size = int(rng.integers(1, min(4, budget) + 1))
            sets.append(tuple(sorted(int(p) for p in
                                     rng.choice(8, size=size, replace=False))))
        batches = greedy_batches(sets, budget)
        fewest = exhaustive_min_batch_count(sets, budget)
        if len(batches) != fewest:
            count_mismatches.append((instance, sets, budget, len(batches),
                                     fewest))
        greedy = total_requests(batches)
        brute = brute_force_batches(sets, budget)
        assert greedy >= brute, (
            f"instance {instance}: greedy makes {greedy} page requests, below "
            f"the exhaustive minimum {brute}; sets={sets} budget={budget}")
        if greedy > brute:
            request_gaps.append((instance, sets, budget, greedy, brute))
    detail = ""
    if request_gaps:
        instance, sets, budget, greedy, brute = request_gaps[0]
        detail = (f"; first: sets={sets} budget={budget} greedy={greedy} "
                  f"exhaustive={brute}")
    print(f"criterion 3: greedy batch count equals the exhaustive minimum on "
          f"{500 - len(count_mismatches)}/500 instances; greedy requests "
          f"exceed the exhaustive minimum on {len(request_gaps)}/500{detail}")
    assert not count_mismatches, (
        f"{len(count_mismatches)}/500 instances where greedy makes more "
        f"batches than the exhaustive minimum; first (instance, sets, budget, "
        f"greedy, exhaustive): {count_mismatches[0]}")


def test_c04_radix_per_page_miss_bound(tmp_path):
    """Under radix order, a page at frequency rank r (0-based) misses at
    most min(2^r, freq) times inside each reorder window."""
    rng = np.random.default_rng(41)
    zero_based_violations = []
    one_based_violations = []
    windows = 0
    for instance in range(100):
        n = int(rng.integers(64, 257))
        d = int(rng.integers(2000, 10001))
        page_size = int(rng.choice([32, 64, 128]))
        upage = int(rng.choice([64, 128]))
        ds = gen_skewed(n, d, int(rng.integers(4, 13)), s=1.0,
                        seed=int(rng.integers(2**31)))
        with make_store(tmp_path, d, page_size,
                        name=f"c4_{instance}.model") as store:
            fit = max_pages_per_vector(ds, page_size)
            budget = max(fit, math.ceil(store.num_pages * 0.15))
            with PageRecorder(store, upages=True) as recorder:
                report = run(ds, store,
                             OperatorConfig(budget=budget, reorder="radix",
                                            upage=upage),
                             plan="single")
        assert len(recorder.windows) == report.upage_count
        for window, (start, vectors) in zip(recorder.windows,
                                            ds.iter_upages(upage)):
            windows += 1
            sets = [page_request_set(v, page_size) for v in vectors]
            ranked, freq = page_frequency_order(sets)
            rank_of = {page: r for r, page in enumerate(ranked)}
            for page, misses in window["misses_by_page"].items():
                r = rank_of[page]
                if misses > min(2 ** r, freq[page]):
                    zero_based_violations.append((instance, page, r, misses))
                if misses > min(2 ** (r + 1), freq[page]):
                    one_based_violations.append((instance, page, r, misses))
    print(f"criterion 4: bound held in {windows} reorder windows; "
          f"0-based violations: {len(zero_based_violations)}, "
          f"1-based violations: {len(one_based_violations)} "
          f"(0-based rank is the correct reading)")
    assert not zero_based_violations, zero_based_violations[:5]
    assert not one_based_violations, one_based_violations[:5]


def test_c05_minwise_collision_rate_tracks_jaccard():
    """Collision rate over 1000 hash functions within 0.05 of Jaccard."""
    pairs = {
        0.2: (tuple(range(20)) + tuple(range(100, 140)),
              tuple(range(20)) + tuple(range(200, 240))),
        0.5: (tuple(range(50)) + tuple(range(100, 125)),
              tuple(range(50)) + tuple(range(200, 225))),
        0.8: (tuple(range(80)) + tuple(range(100, 110)),
              tuple(range(80)) + tuple(range(200, 210))),
    }
    params = minwise_params(1000, seed=13)
    report = []
    for jaccard, (a, b) in pairs.items():
        inter = len(set(a) & set(b))
        union = len(set(a) | set(b))
        assert inter / union == jaccard  # the pair is constructed exactly
        sig_a = minwise_signature(a, params)
        sig_b = minwise_signature(b, params)
        rate = sum(x == y for x, y in zip(sig_a, sig_b)) / 1000.0
        report.append(f"J={jaccard}: rate={rate:.3f}")
        assert abs(rate - jaccard) <= 0.05, (jaccard, rate)
    print("criterion 5: " + ", ".join(report))


def test_c06_reorder_gains_on_skewed_data_at_one_percent_budget(tmp_path):
    """Desk-scale skewed run: radix and LSH each cut misses by >= 10%
    against file order, and LSH stays within 5 points of radix."""
    started = time.perf_counter()
    ds = gen_skewed(8192, 1_000_000, 12, s=1.0, seed=61)
    with make_store(tmp_path, 1_000_000, 512,
                    init=("uniform", -0.5, 0.5), seed=1) as store:
        budget = parse_budget("1%", store.num_pages)
        assert budget == math.ceil(store.num_pages / 100)
        assert max_pages_per_vector(ds, 512) <= budget
        misses = {}
        for heuristic in ("none", "radix", "lsh"):
            report = run(ds, store,
                         OperatorConfig(budget=budget, reorder=heuristic,
                                        upage=4096, seed=5, lsh_m=16, lsh_b=8),
                         plan="single")
            misses[heuristic] = report.page_misses
    radix_cut = 100.0 * (misses["none"] - misses["radix"]) / misses["none"]
    lsh_cut = 100.0 * (misses["none"] - misses["lsh"]) / misses["none"]
    elapsed = time.perf_counter() - started
    print(f"criterion 6: misses none={misses['none']} "
          f"radix={misses['radix']} ({radix_cut:.1f}%) "
          f"lsh={misses['lsh']} ({lsh_cut:.1f}%) in {elapsed:.1f}s")
    assert radix_cut >= 10.0
    assert lsh_cut >= 10.0
    assert lsh_cut >= radix_cut - 5.0
    assert elapsed < 300.0


def test_c07_analytic_gradients_match_finite_differences():
    """Central differences vs the closed-form gradients, 50 instances
    per task, relative error at most 1e-5."""
    rng = np.random.default_rng(55)
    h = 1e-6

    def check(loss, grad, model, coords):
        for t in coords:
            step = h * max(1.0, abs(model[t]))
            up = model.copy()
            up[t] += step
            down = model.copy()
            down[t] -= step
            numeric = (loss(up) - loss(down)) / (2 * step)
            analytic = grad[t]
            assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(analytic),
                                                         abs(numeric)), \
                (t, analytic, numeric)

    for _ in range(50):
        ds = gen_uniform(int(rng.integers(3, 9)), 30,
                         int(rng.integers(1, 6)), seed=int(rng.integers(2**31)))
        model = rng.normal(size=30)
        grad = np.zeros(30)
        for v in ds:
            dp = sum(float(v.values[k]) * model[int(v.indexes[k])]
                     for k in range(v.nnz))
            scale = lr_scale(v.label, dp)
            for k in range(v.nnz):
                grad[int(v.indexes[k])] += scale * float(v.values[k])
        coords = sorted({int(i) for v in ds for i in v.indexes})
        check(lambda w: lr_loss(ds, w), grad, model, coords)

    for _ in range(50):
        rows, cols, rank = 4, 3, 3
        cells = int(rng.integers(max(rows, cols), rows * cols + 1))
        ds = gen_matrix(rows, cols, cells, rank, seed=int(rng.integers(2**31)))
        model = rng.normal(size=ds.dimension) * 0.5
        grad = np.zeros(ds.dimension)
        for v in ds:
            start_l = int(v.indexes[0])
            start_r = int(v.indexes[rank])
            grad_row, grad_col = lmf_cell_gradient(
                v.label, model[start_l:start_l + rank],
                model[start_r:start_r + rank])
            grad[start_l:start_l + rank] += grad_row
            grad[start_r:start_r + rank] += grad_col
        check(lambda w: lmf_loss(ds, w), grad, model, range(ds.dimension))
    print("criterion 7: 50 logistic and 50 factorization instances, "
          "analytic == numeric within 1e-5")


def test_c08_training_converges_and_reorder_does_not_hurt(tmp_path):
    """Ten SGD iterations halve the logistic loss; radix ordering lands
    within 5% of a random-order run; factorization loss is strictly
    decreasing."""
    ds = gen_uniform(5000, 10_000, 10, seed=21)
    finals = {}
    for heuristic in ("shuffle", "radix"):
        with make_store(tmp_path, 10_000, 128,
                        name=f"lr_{heuristic}.model") as store:
            op = OperatorConfig(budget=32, reorder=heuristic, upage=1024,
                                seed=9)
            report = train(ds, store, TrainConfig(op, task="lr", mode="sgd",
                                                  alpha=0.2, iterations=10))
        assert not report.diverged
        finals[heuristic] = report.losses
    initial = finals["shuffle"][0]
    final_shuffle = finals["shuffle"][-1]
    final_radix = finals["radix"][-1]
    assert final_shuffle < 0.5 * initial
    assert abs(final_radix - final_shuffle) <= 0.05 * final_shuffle

    mds = gen_matrix(200, 200, 4000, 8, seed=33)
    with make_store(tmp_path, (200 + 200) * 8, 64,
                    init=("uniform", -0.1, 0.1), seed=3,
                    name="lmf.model") as store:
        op = OperatorConfig(budget=16, reorder="shuffle", upage=1024,
                            seed=9)
        mreport = train(mds, store, TrainConfig(op, task="lmf", mode="sgd",
                                                alpha=0.05, iterations=10))
    assert not mreport.diverged
    diffs = np.diff(mreport.losses)
    assert (diffs < 0).all()
    print(f"criterion 8: lr loss {initial:.1f} -> {final_shuffle:.1f} "
          f"(radix {final_radix:.1f}); lmf strictly decreasing "
          f"{mreport.losses[0]:.1f} -> {mreport.losses[-1]:.1f}")


def test_c09_misses_shrink_as_budget_grows(tmp_path):
    """Fixed dataset and order: page misses never increase with budget,
    and a full-size buffer misses each distinct page exactly once."""
    ds = gen_skewed(1200, 50_000, 10, s=1.0, seed=29)
    with make_store(tmp_path, 50_000, 64) as store:
        fit = max_pages_per_vector(ds, 64)
        trail = []
        distinct = None
        for pct in (10, 20, 40, 60, 100):
            budget = parse_budget(f"{pct}%", store.num_pages)
            assert budget >= fit
            report = run(ds, store,
                         OperatorConfig(budget=budget, reorder="none",
                                        upage=4096),
                         plan="single")
            trail.append(report.page_misses)
            distinct = report.distinct_pages
    assert all(a >= b for a, b in zip(trail, trail[1:])), trail
    assert trail[-1] == distinct
    print(f"criterion 9: misses {trail} over budgets 10..100%, "
          f"{distinct} distinct pages")


def test_c10_full_scale_comparisons_declared_out_of_scope():
    """Wall-clock engine comparisons and the original billion-dimension
    datasets are documented as out of scope, replaced by the counter and
    property checks above."""
    from pathlib import Path
    readme_path = Path(__file__).resolve().parent.parent / "README.md"
    readme = readme_path.read_text().lower()
    assert "out of scope" in readme
    assert "wall-clock" in readme or "wall clock" in readme
    assert "counter" in readme
    print("criterion 10: scope declaration present in README")
