import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import OversizedVectorError, ValidationError
from dpjoin.batcher import Batch, brute_force_batches, greedy_batches, walk_order
from dpjoin.datagen import DEMO_PAGE_SIZE, gen_demo
from dpjoin.reorder import reorder_radix
from dpjoin.sparse_data import page_request_set

from conftest import total_requests


def demo_sets_radix_order():
    sets = [page_request_set(v, DEMO_PAGE_SIZE) for v in gen_demo()]
    return [sets[i] for i in reorder_radix(sets)]


def test_greedy_on_demo_radix_order():
    batches = greedy_batches(demo_sets_radix_order(), budget=2)
    assert len(batches) == 3
    assert [b.positions for b in batches] == [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert [sorted(b.pages) for b in batches] == [[0, 1], [1, 2], [0, 2]]
    assert total_requests(batches) == 6


def test_single_batch_when_everything_fits():
    batches = greedy_batches([(0,), (1,), (2,)], budget=3)
    assert len(batches) == 1
    assert batches[0].request_count == 3


def test_oversized_vector_reported_with_position():
    with pytest.raises(OversizedVectorError) as err:
        greedy_batches([(0,), (1, 2, 3)], budget=2)
    assert err.value.position == 1


def test_batch_request_count():
    assert Batch(positions=(0, 1), pages=frozenset({4, 7, 9})).request_count == 3


def test_brute_force_matches_by_hand():
    # the greedy split [{1},{2}] [{2,3}] costs 4; [{1}] [{2},{2,3}] costs 3
    sets = [(1,), (2,), (2, 3)]
    greedy = greedy_batches(sets, budget=2)
    assert total_requests(greedy) == 4
    assert brute_force_batches(sets, budget=2) == 3


def test_brute_force_size_cap():
    sets = [(0,)] * 21
    with pytest.raises(ValidationError):
        brute_force_batches(sets, budget=1)


@st.composite
def ordered_sets(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    return [tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=1,
                                      max_size=3))))
            for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(sets=ordered_sets(), budget=st.integers(3, 8))
def test_greedy_batches_are_valid_and_maximal(sets, budget):
    batches = greedy_batches(sets, budget)
    flat = [p for b in batches for p in b.positions]
    assert flat == list(range(len(sets)))
    for b in batches:
        union = set().union(*(sets[p] for p in b.positions))
        assert b.pages == union
        assert len(union) <= budget
    # maximality: the next vector would not have fit
    for cur, nxt in zip(batches, batches[1:]):
        merged = set(cur.pages) | set(sets[nxt.positions[0]])
        assert len(merged) > budget


@settings(max_examples=80, deadline=None)
@given(sets=ordered_sets(), budget=st.integers(3, 8))
def test_greedy_never_beats_brute_force(sets, budget):
    greedy = greedy_batches(sets, budget)
    assert brute_force_batches(sets, budget) <= total_requests(greedy)


@settings(max_examples=80, deadline=None)
@given(sets=ordered_sets(), budget=st.integers(3, 8))
def test_greedy_minimizes_batch_count(sets, budget):
    """No consecutive partition obeying the budget has fewer batches."""
    greedy = greedy_batches(sets, budget)
    n = len(sets)
    best = n
    for mask in range(1 << (n - 1)):
        count, start, ok = 1, 0, True
        union = set(sets[0])
        for i in range(1, n):
            if mask & (1 << (i - 1)):
                count += 1
                union = set(sets[i])
            else:
                union |= set(sets[i])
            if len(union) > budget:
                ok = False
                break
        if ok:
            best = min(best, count)
    assert len(greedy) == best


def reference_walk(batches):
    """The nearest-neighbour walk by its definition: from batch 0, each step
    takes the frozenset difference with every unvisited batch and goes to
    the smallest, ties to the lower index."""
    order = [0] if batches else []
    unvisited = list(range(1, len(batches)))
    while unvisited:
        current = batches[order[-1]].pages
        step = min(unvisited, key=lambda index: (len(batches[index].pages - current), index))
        order.append(step)
        unvisited.remove(step)
    return order


def as_batches(unions):
    return [Batch([position], frozenset(pages)) for position, pages in enumerate(unions)]


def test_walk_breaks_ties_to_the_lower_index():
    # From {1, 2}: {1} adds no page, so it is next; from {1}, {3} and {4}
    # each add one page, and the lower index goes first.
    assert walk_order(as_batches([{1, 2}, {3}, {4}, {1}])) == [0, 3, 1, 2]


@pytest.mark.parametrize("unions", [[], [{5}], [{1, 2}, {1}], [set(), {3}]])
def test_walk_keeps_two_batches_or_fewer_in_order(unions):
    assert walk_order(as_batches(unions)) == list(range(len(unions)))


# Pages from a narrow range make ties likely; ids past 64 and 128 cross the
# walk's bit words, and a large id checks that pages are compacted.
page_ids = st.integers(0, 9) | st.integers(60, 140) | st.just(10**9)


@settings(max_examples=200, deadline=None)
@given(unions=st.lists(st.sets(page_ids, max_size=12), max_size=14))
def test_walk_matches_reference(unions):
    batches = as_batches(unions)
    assert walk_order(batches) == reference_walk(batches)
