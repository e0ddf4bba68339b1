import pytest
from hypothesis import given, settings, strategies as st

from dpjoin import OversizedVectorError, ValidationError
from dpjoin.batcher import Batch, greedy_batches
from dpjoin.datagen import DEMO_PAGE_SIZE, gen_demo
from dpjoin.reorder import reorder_radix
from dpjoin.sparse_data import page_request_set

from conftest import brute_force_batches, request_count, total_requests


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
    assert request_count(batches[0]) == 3


def test_oversized_vector_reported_with_position():
    with pytest.raises(OversizedVectorError) as err:
        greedy_batches([(0,), (1, 2, 3)], budget=2)
    assert err.value.position == 1


def test_batch_request_count():
    assert request_count(Batch(positions=(0, 1), pages=frozenset({4, 7, 9}))) == 3


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
