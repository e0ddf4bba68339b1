import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpjoin import ValidationError
from dpjoin.batcher import greedy_batches
from dpjoin.datagen import DEMO_PAGE_SIZE, gen_demo, gen_skewed
from dpjoin.reorder import (HEURISTICS, LshIndex, _nearest_neighbor_walk,
                            default_kcenter_k, kcenter_clusters,
                            minwise_params, objective, reorder, reorder_kcenter,
                            reorder_lsh, reorder_none, reorder_radix,
                            reorder_shuffle, signature_matrix, walk_order)
from dpjoin.sparse_data import page_request_set

from conftest import minwise_signature, page_frequency_order

# The package exports the function `reorder` under the module's name.
reorder_module = importlib.import_module("dpjoin.reorder")

DEMO_SETS = [page_request_set(v, DEMO_PAGE_SIZE) for v in gen_demo()]


def test_demo_page_sets():
    assert DEMO_SETS == [(0, 1), (1, 2), (0, 1), (1, 2),
                         (0, 1), (0, 2), (0, 2), (1, 2)]


def test_objective_on_demo_file_order():
    # cold start excluded: first vector contributes nothing
    assert objective(list(range(8)), DEMO_SETS) == 6


def test_objective_counts_new_pages_only():
    sets = [(0,), (0, 1), (2, 3)]
    assert objective([0, 1, 2], sets) == 1 + 2
    assert objective([2, 1, 0], sets) == 2 + 0


def test_objective_rejects_non_permutation():
    with pytest.raises(ValidationError):
        objective([0, 0, 1], [(0,), (1,), (2,)])
    with pytest.raises(ValidationError):
        objective([0, 1], [(0,), (1,), (2,)])


def reference_objective(order, sets):
    """`objective` by its definition, on frozenset differences."""
    fsets = [frozenset(s) for s in sets]
    return sum(len(fsets[b] - fsets[a]) for a, b in zip(order, order[1:]))


# Pages from a narrow range make ties likely; ids past 64 and 128 cross the
# bit rows' words, and a large id checks that pages are compacted.
page_ids = st.integers(0, 9) | st.integers(60, 140) | st.just(10**9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(page_ids, max_size=12), min_size=1, max_size=30), st.randoms())
@example(sets=[()], random=None)
@example(sets=[(3, 3, 3), (3,), (), (3, 64)], random=None)  # repeated pages, an empty set
def test_objective_matches_reference(sets, random):
    order = list(range(len(sets)))
    if random is not None:
        random.shuffle(order)
    assert objective(order, sets) == reference_objective(order, sets)


def test_page_frequency_order():
    # page 1 appears 6 times, pages 0 and 2 five each; ties break low
    ranked, counts = page_frequency_order(DEMO_SETS)
    assert ranked == [1, 0, 2]
    assert counts[1] == 6
    assert counts[0] == counts[2] == 5


def test_radix_demo_order():
    order = reorder_radix(DEMO_SETS)
    assert order == [0, 2, 4, 1, 3, 7, 5, 6]
    assert objective(order, DEMO_SETS) < objective(list(range(8)), DEMO_SETS)


def test_radix_is_stable():
    sets = [(3,), (0, 1), (3,), (0, 1)]
    order = reorder_radix(sets)
    first = order.index(1), order.index(3)
    second = order.index(0), order.index(2)
    assert first[0] < first[1]
    assert second[0] < second[1]


def reference_radix(sets):
    """`reorder_radix` as first written: one integer key per set with a bit
    per page, the most frequent page highest, sorted descending and stably."""
    if not sets:
        return []
    ranked, _ = page_frequency_order(sets)
    weight = {page: len(ranked) - 1 - rank for rank, page in enumerate(ranked)}
    keys = []
    for s in sets:
        key = 0
        for page in s:
            key |= 1 << weight[page]
        keys.append(key)
    return sorted(range(len(sets)), key=keys.__getitem__, reverse=True)


@st.composite
def page_set_lists(draw):
    """Lists of page sets over a narrow range (many identical sets and
    singletons), a middle one, or a wide one."""
    top = draw(st.sampled_from([2, 40, 10**12]))
    return draw(st.lists(st.sets(st.integers(0, top), min_size=1, max_size=8)
                         .map(sorted).map(tuple), min_size=1, max_size=60))


@settings(max_examples=200, deadline=None)
@given(page_set_lists())
@example(sets=[(4,)])                                        # one set
@example(sets=[(1, 2)] * 20)                                 # all sets identical
@example(sets=[(i % 7,) for i in range(30)])                 # singletons
@example(sets=[(0, 10**12), (5, 10**9), (0,), (10**12,), (5,)])  # wide page ids
@example(sets=[(0, 1), (0,), (0, 1, 2), (1,), (0, 2)])       # prefixes of each other
def test_radix_matches_reference(sets):
    assert reorder_radix(sets) == reference_radix(sets)


@pytest.mark.parametrize("d", [1_000_000, 10_000_000])
def test_radix_matches_reference_on_a_skewed_upage(d):
    sets = gen_skewed(4096, d, 12, s=1.0, seed=1).page_sets(0, 4096, 512)
    assert reorder_radix(sets) == reference_radix(sets)


def test_none_and_shuffle():
    assert reorder_none(5) == [0, 1, 2, 3, 4]
    a = reorder_shuffle(50, seed=1)
    b = reorder_shuffle(50, seed=1)
    c = reorder_shuffle(50, seed=2)
    assert a == b
    assert a != c
    assert sorted(a) == list(range(50))


class TestMinwise:
    def test_signature_shape_and_determinism(self):
        params = minwise_params(16, seed=4)
        sig = minwise_signature((3, 17, 99), params)
        assert len(sig) == 16
        assert sig == minwise_signature((3, 17, 99), params)

    def test_equal_sets_equal_signatures(self):
        params = minwise_params(8, seed=0)
        assert minwise_signature((1, 2, 5), params) == \
            minwise_signature((1, 2, 5), params)

    def test_subset_minimum_carries_over(self):
        # the min over a union is the min of the two mins
        params = minwise_params(32, seed=9)
        a = minwise_signature((1, 2), params)
        b = minwise_signature((7, 9), params)
        u = minwise_signature((1, 2, 7, 9), params)
        assert all(m == min(x, y) for m, x, y in zip(u, a, b))

    def test_collision_rate_tracks_jaccard(self):
        params = minwise_params(600, seed=11)
        a = minwise_signature(tuple(range(0, 60)), params)
        b = minwise_signature(tuple(range(30, 90)), params)
        rate = sum(x == y for x, y in zip(a, b)) / 600
        assert abs(rate - 1 / 3) < 0.07


class TestLshIndex:
    def test_band_collision_yields_candidate(self):
        sigs = np.array([(1, 2, 3, 4), (1, 2, 9, 9), (5, 6, 3, 4)], dtype=np.uint64)
        index = LshIndex(sigs, bands=2)
        nobody = [False, False, False]
        assert set(index.candidates(0, visited=nobody)) == {1, 2}
        assert set(index.candidates(1, visited=nobody)) == {0}
        assert set(index.candidates(0, visited=[False, False, True])) == {1}

    def test_no_collision_no_candidates(self):
        sigs = np.array([(1, 2), (3, 4), (5, 6)], dtype=np.uint64)
        index = LshIndex(sigs, bands=2)
        assert index.buckets == []       # buckets of one vector are not kept
        assert set(index.candidates(0, visited=[False] * 3)) == set()

    def test_walk_visits_nearest_candidate_first(self):
        sets = [(0, 1), (8, 9), (0, 1, 2), (0, 5)]
        fsets = [frozenset(s) for s in sets]
        # positions 0, 2, 3 collide in band 0; walk starts at 0
        sigs = np.array([(7, 1), (6, 2), (7, 1), (7, 3)], dtype=np.uint64)
        order = _nearest_neighbor_walk(fsets, LshIndex(sigs, bands=2), 0)
        # |{0,1,2} \ {0,1}| = 1 beats |{0,5} \ {0,1}| = 1? equal, position
        # tie-break picks 2; then 3; stranded 1 comes last
        assert order == [0, 2, 3, 1]


class ReferenceLshIndex:
    """The index as first written: one dict per band from the tuple of the
    band's signature values to the positions holding it, in order."""

    def __init__(self, signatures, bands):
        width = len(signatures[0]) // bands
        self.bands = bands
        self.keys = []
        self.tables = [dict() for _ in range(bands)]
        for position, signature in enumerate(signatures):
            row = []
            for band in range(bands):
                key = tuple(signature[band * width : (band + 1) * width])
                row.append(key)
                self.tables[band].setdefault(key, []).append(position)
            self.keys.append(row)

    def candidates(self, position, visited):
        found = set()
        for band in range(self.bands):
            bucket = self.tables[band][self.keys[position][band]]
            live = [p for p in bucket if not visited[p]]
            if len(live) != len(bucket):
                self.tables[band][self.keys[position][band]] = live
            found.update(live)
        found.discard(position)
        return found


def reference_lsh_walk(fsets, index, start):
    """Nearest-neighbor walk: score every candidate in ascending position,
    keep the first strictly smaller difference, stop at 0; at a dead end take
    the lowest unvisited position."""
    n = len(fsets)
    visited = [False] * n
    order = [start]
    visited[start] = True
    current = start
    for _ in range(n - 1):
        best = None
        best_diff = None
        for position in sorted(index.candidates(current, visited)):
            diff = len(fsets[position] - fsets[current])
            if best_diff is None or diff < best_diff:
                best, best_diff = position, diff
                if diff == 0:
                    break
        if best is None:
            best = visited.index(False)
        order.append(best)
        visited[best] = True
        current = best
    return order


def reference_reorder_lsh(sets, m, b, seed):
    params = minwise_params(m, seed)
    index = ReferenceLshIndex([minwise_signature(s, params) for s in sets], b)
    start = int(np.random.default_rng(seed).integers(len(sets)))
    return reference_lsh_walk([frozenset(s) for s in sets], index, start)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.integers(0, 15), min_size=1, max_size=6).map(sorted).map(tuple),
                min_size=1, max_size=48),
       st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
@example(sets=[(4,)], m=16, b=4, seed=0)                           # n = 1
@example(sets=[(1, 2)] * 30, m=16, b=4, seed=5)                    # all sets identical
@example(sets=[(i % 5, 7) for i in range(30)], m=17, b=4, seed=1)  # m % b != 0
@example(sets=[(i % 5, 7) for i in range(30)], m=8, b=8, seed=2)   # b == m
def test_lsh_matches_reference(sets, m, b, seed):
    b = min(b, m)
    assert reorder_lsh(sets, m, b, seed) == reference_reorder_lsh(sets, m, b, seed)


@pytest.fixture(scope="module")
def skewed_upage():
    """One 4096-vector U-page of the skewed generator at 512 values per page."""
    return gen_skewed(4096, 1_000_000, 12, s=1.0, seed=1).page_sets(0, 4096, 512)


@pytest.mark.parametrize("m, b", [(16, 4), (16, 16), (64, 32)])
def test_lsh_matches_reference_on_a_skewed_upage(skewed_upage, m, b):
    assert reorder_lsh(skewed_upage, m, b, [1, 0]) == \
        reference_reorder_lsh(skewed_upage, m, b, [1, 0])


def test_lsh_demo_is_permutation_and_helps():
    order = reorder_lsh(DEMO_SETS, m=16, b=8, seed=3)
    assert sorted(order) == list(range(8))
    assert objective(order, DEMO_SETS) <= objective(list(range(8)), DEMO_SETS)


def reference_walk(sets, start):
    """The nearest-neighbour walk by its definition: from `start`, each step
    takes the frozenset difference with every unvisited set and goes to
    the smallest, ties to the lower position."""
    fsets = [frozenset(s) for s in sets]
    order = [start]
    unvisited = [position for position in range(len(sets)) if position != start]
    while unvisited:
        current = fsets[order[-1]]
        step = min(unvisited, key=lambda position: (len(fsets[position] - current), position))
        order.append(step)
        unvisited.remove(step)
    return order


def test_walk_breaks_ties_to_the_lower_index():
    # From {1, 2}: {1} adds no page, so it is next; from {1}, {3} and {4}
    # each add one page, and the lower index goes first.
    sets = [{1, 2}, {3}, {4}, {1}]
    assert walk_order(sets) == [0, 3, 1, 2]
    # From {4}: {3} and {1} each add one page, and {3} is the lower.
    assert walk_order(sets, start=2) == [2, 1, 3, 0]


@pytest.mark.parametrize("sets", [[], [{5}], [{1, 2}, {1}], [set(), {3}]])
def test_walk_keeps_two_sets_or_fewer_in_order(sets):
    assert walk_order(sets) == list(range(len(sets)))
    if len(sets) == 2:
        assert walk_order(sets, start=1) == [1, 0]


@settings(max_examples=200, deadline=None)
@given(sets=st.lists(st.sets(page_ids, max_size=12), min_size=1, max_size=14))
def test_walk_matches_reference(sets):
    for start in range(len(sets)):
        assert walk_order(sets, start) == reference_walk(sets, start)


def reference_kcenter(sets, budget, k=None, seed=0):
    """`kcenter_clusters` as first written, on frozensets: each member goes
    to the center with the fewest of its pages outside it, ties to the
    lower center, and the live centers are chained greedily from a
    randomly drawn one, each step to the center with the fewest pages
    outside the current one, ties to the lower center."""
    fsets = [frozenset(s) for s in sets]
    if k is None:
        k = default_kcenter_k(len(sets), max(map(len, fsets)), budget)

    def split(positions, depth):
        if len(positions) <= 1 or len(frozenset().union(*(fsets[p] for p in positions))) <= budget:
            return [list(positions)]
        if depth >= reorder_module._KCENTER_MAX_DEPTH:
            batches = greedy_batches([fsets[p] for p in positions], budget)
            return [[positions[i] for i in batch.positions] for batch in batches]
        rng = np.random.default_rng([seed, depth, positions[0], len(positions)])
        count = min(k, len(positions))
        centers = sorted(positions[i] for i in rng.choice(len(positions), size=count, replace=False))
        members = {c: [] for c in centers}
        for p in positions:
            members[min(centers, key=lambda c: (len(fsets[p] - fsets[c]), c))].append(p)
        remaining = [c for c in centers if members[c]]
        chain = [remaining.pop(int(rng.integers(len(remaining))) if len(remaining) > 1 else 0)]
        while remaining:
            step = min(remaining, key=lambda c: (len(fsets[c] - fsets[chain[-1]]), c))
            remaining.remove(step)
            chain.append(step)
        return [cluster for c in chain for cluster in split(members[c], depth + 1)]

    return split(list(range(len(sets))), 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(page_ids, min_size=1, max_size=6), min_size=1, max_size=40),
       st.integers(0, 12), st.none() | st.integers(2, 12),
       st.integers(0, 2**32 - 1) | st.lists(st.integers(0, 9), min_size=1, max_size=3))
@example(sets=[{i} for i in range(40)], slack=0, k=2, seed=0)  # reaches the depth cap
@example(sets=[{1, 2}] * 20, slack=0, k=None, seed=5)         # all sets identical
@example(sets=[{i % 5, 7} for i in range(30)], slack=1, k=30, seed=1)  # k = n
def test_kcenter_matches_reference(sets, slack, k, seed):
    budget = max(map(len, sets)) + slack
    assert kcenter_clusters(sets, budget, k, seed) == reference_kcenter(sets, budget, k, seed)


@pytest.mark.parametrize("budget", [20, 98, 391])
def test_kcenter_matches_reference_on_a_skewed_upage(skewed_upage, budget):
    order = reorder_kcenter(skewed_upage, budget, seed=[0, 1])
    assert order == [p for cluster in reference_kcenter(skewed_upage, budget, seed=[0, 1])
                     for p in cluster]
    assert objective(order, skewed_upage) == reference_objective(order, skewed_upage)


class TestKcenter:
    def test_cluster_unions_fit_budget(self):
        rng = np.random.default_rng(5)
        sets = [tuple(sorted(rng.choice(40, size=4, replace=False)))
                for _ in range(60)]
        clusters = kcenter_clusters(sets, budget=12, seed=2)
        seen = []
        for cluster in clusters:
            union = set()
            for pos in cluster:
                union |= set(sets[pos])
            assert len(union) <= 12
            seen.extend(cluster)
        assert sorted(seen) == list(range(60))

    def test_default_k_grows_with_pressure(self):
        assert default_kcenter_k(1000, 8, 1000) >= 2
        assert default_kcenter_k(1000, 8, 16) > default_kcenter_k(1000, 8, 500)

    def test_depth_cap_falls_back_to_chunks(self, monkeypatch):
        # Two centers per level rarely split forty disjoint singletons into
        # pairs before depth 32, so some clusters end in `_chunk_split`.
        chunked = []

        def chunk_split(positions, fsets, budget):
            chunked.append(list(positions))
            return original(positions, fsets, budget)

        original = reorder_module._chunk_split
        monkeypatch.setattr(reorder_module, "_chunk_split", chunk_split)
        sets = [(i,) for i in range(40)]
        clusters = kcenter_clusters(sets, budget=2, k=2)
        assert chunked
        assert sorted(p for cluster in clusters for p in cluster) == list(range(40))
        assert all(len({page for p in cluster for page in sets[p]}) <= 2 for cluster in clusters)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        sets = [tuple(sorted(rng.choice(30, size=3, replace=False)))
                for _ in range(40)]
        a = reorder("kcenter", sets, budget=9, seed=4)
        assert a == reorder("kcenter", sets, budget=9, seed=4)
        assert sorted(a) == list(range(40))


def test_reorder_dispatch_unknown_name():
    with pytest.raises(ValidationError):
        reorder("sorted-by-vibes", DEMO_SETS, budget=2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_heuristic_returns_permutation(data):
    n = data.draw(st.integers(1, 24))
    sets = [tuple(sorted(data.draw(st.sets(st.integers(0, 9), min_size=1,
                                           max_size=3))))
            for _ in range(n)]
    seed = data.draw(st.integers(0, 2**32 - 1))
    for name in HEURISTICS:
        order = reorder(name, sets, budget=4, seed=seed)
        assert sorted(order) == list(range(n)), name


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.integers(0, 10**6), min_size=1, max_size=30), min_size=1,
                max_size=40),
       st.integers(1, 24), st.integers(0, 2**32))
def test_one_pass_signatures_equal_per_set_signatures(sets, m, seed):
    sets = [tuple(sorted(s)) for s in sets]
    params = minwise_params(m, seed)
    assert [tuple(row) for row in signature_matrix(sets, params).tolist()] == \
        [minwise_signature(s, params) for s in sets]


def test_one_pass_signatures_reject_an_empty_set():
    with pytest.raises(ValidationError):
        signature_matrix([(1, 2), ()], minwise_params(4))
