"""Vector reordering heuristics over page-request sets.

Processing order determines how often the buffer manager has to go to
secondary storage: consecutive vectors that share pages reuse what is
already resident. The quantity being minimized is

    objective(order) = sum over consecutive pairs of |pages(next) - pages(cur)|

i.e. the pages each step still has to bring in. Finding the true minimum is
a minimum Hamiltonian path problem, so three heuristics are provided:

* radix   -- sort vectors by their page-membership bit patterns, pages
             ordered by descending request frequency (ties: lower page id).
             MSB-first, set bit sorts before clear bit, stable: one lexsort
             of each set's page ranks. Cheap, and bounds how often each page
             can be reloaded.
* lsh     -- minwise-hash signatures, one (n, m) uint64 array built in one
             pass over the pages, split into b bands of m // b columns. Each
             band is bucketed by one stable lexsort of its columns: a bucket
             is a run of equal keys, cut where the key changes, and holds
             its positions in ascending order; each vector keeps the integer
             ids of its buckets. A nearest-neighbor walk then scores only the
             unvisited vectors sharing a bucket with the current one.
* kcenter -- recursive clustering around randomly seeded centers until each
             cluster's page union fits the memory budget; at each level the
             clusters run in a nearest-neighbour walk over their centers.

Set differences are taken on `page_bits` rows, |A - B| = |A| - popcount(A & B),
by `objective`, k-center and `walk_order`, which orders k-center's centers;
LSH scores its few candidates on frozensets.

All heuristics are deterministic given their seed and return a permutation
of positions 0..n-1. They take their options as given: the name, 1 <= b
<= m and k >= 2 are checked once, by `operator.OperatorConfig.check`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .batcher import greedy_batches
from .errors import OversizedVectorError, ValidationError

DEFAULT_LSH_HASHES = 16
DEFAULT_LSH_BANDS = 4
MAX_LSH_HASHES = 1024  # signatures hold upage x m uint64 values, one pass per hash
_KCENTER_MAX_DEPTH = 32


def objective(order, sets):
    """Pages each consecutive step still needs; the first vector's own set
    is not counted (cold-start misses are a boundary term, not an ordering
    property)."""
    if len(order) != len(sets) or sorted(order) != list(range(len(sets))):
        raise ValidationError("order must be a permutation of range(len(sets))")
    bits, sizes = page_bits(sets)
    order = np.asarray(order, dtype=np.int64)
    following, current = order[1:], order[:-1]
    return int((sizes[following] - _popcount(bits[following] & bits[current])).sum())


def page_bits(sets):
    """`sets` as rows of bits over their distinct pages (uint64 words) and
    the number of pages in each, so that |A - B| = |A| - popcount(A & B).
    The rows take len(sets) x pages / 8 bytes."""
    counts, pages = _flatten(sets)
    distinct, column = np.unique(pages, return_inverse=True)
    bits = np.zeros((len(sets), len(distinct) // 64 + 1), dtype=np.uint64)
    np.bitwise_or.at(bits, (np.repeat(np.arange(len(sets)), counts), column // 64),
                     np.left_shift(np.uint64(1), (column % 64).astype(np.uint64)))
    return bits, _popcount(bits)


def _flatten(sets):
    """The size of each of `sets` and all their pages, concatenated."""
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    pages = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64,
                        count=int(sizes.sum()))
    return sizes, pages


def _popcount(rows):
    """Set bits in each row of `rows` (in the one row, for a 1-d array)."""
    return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)


def walk_order(sets, start=0):
    """A nearest-neighbour walk over `sets` (Rosenkrantz, Stearns & Lewis,
    1977): from position `start`, each step goes to the unvisited set with
    the fewest pages outside the current one, |S_next - S_cur|, ties to the
    lower position. A step is one AND and popcount per unvisited set on
    their `page_bits` rows."""
    if not sets:
        return []
    unvisited = np.delete(np.arange(len(sets)), start)
    bits, sizes = page_bits(sets)
    order = [start]
    while len(unvisited):
        outside = sizes[unvisited] - _popcount(bits[unvisited] & bits[order[-1]])
        step = int(np.argmin(outside))  # the first minimum: the lower position
        order.append(int(unvisited[step]))
        unvisited = np.delete(unvisited, step)
    return order


def reorder_none(n):
    return list(range(n))


def reorder_shuffle(n, seed=0):
    """Uniform random permutation; the baseline order for convergence runs."""
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.permutation(n)]


# -- radix ---------------------------------------------------------------------


def reorder_radix(sets):
    """Radix order of `sets` (each of distinct pages) on arrays. Ranking
    pages by descending request frequency, ties to the lower page id, a
    set's bit pattern is its ranks in ascending order; comparing two
    patterns MSB first, set bit first, is comparing those rank lists
    lexicographically, where a list that runs out sorts after the lists it
    is a prefix of. So each row of a grid
    holds a set's ranks ascending, padded past the last rank, and one
    stable lexsort of the grid, first column most significant, keeps equal
    patterns in input order."""
    if not sets:
        return []
    sizes, pages = _flatten(sets)
    _, page_index, counts = np.unique(pages, return_inverse=True, return_counts=True)
    # Pages ascend in `counts`, so a stable sort by descending count breaks
    # ties to the lower page.
    rank = np.empty(len(counts), dtype=np.int64)
    rank[np.argsort(-counts, kind="stable")] = np.arange(len(counts))
    grid = np.full((len(sets), int(sizes.max())), len(counts), dtype=np.int64)
    owner = np.repeat(np.arange(len(sets)), sizes)
    starts = np.cumsum(sizes) - sizes
    grid[owner, np.arange(len(pages)) - starts[owner]] = rank[page_index]
    grid.sort(axis=1)
    return np.lexsort(grid.T[::-1]).tolist()


# -- minwise hashing / LSH -------------------------------------------------------


def _scramble(page_ids):
    """Fixed 64-bit mixing bijection applied to page ids before hashing.

    Page ids are small consecutive integers; an affine hash alone keeps
    their linear structure and visibly biases min-collision rates. One
    round of multiply-xorshift mixing removes it.
    """
    with np.errstate(over="ignore"):
        z = page_ids + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def minwise_params(m, seed=0):
    """(multiplier, offset) pairs; x -> (a*x + b) mod 2^64 with odd a is a
    bijection, so each pair behaves like a random permutation of the domain."""
    rng = np.random.default_rng(seed)
    mult = rng.integers(0, 1 << 63, size=m, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    offset = rng.integers(0, 1 << 64, size=m, dtype=np.uint64)
    return np.stack([mult, offset], axis=1)


def signature_matrix(sets, params):
    """Minwise signatures of `sets`, the minimum image of each set under
    each hash function, as one (len(sets), m) uint64 array, in one pass
    over all their pages: the images of the concatenated pages, one hash
    function at a time, reduced to each set's minimum by
    `np.minimum.reduceat` (a minimum is exact in any order)."""
    sizes, pages = _flatten(sets)
    if not sizes.all():
        raise ValidationError("cannot sign an empty page set")
    starts = np.cumsum(sizes) - sizes
    keys = _scramble(pages.astype(np.uint64))
    signatures = np.empty((len(sets), len(params)), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for h, (mult, offset) in enumerate(params):
            signatures[:, h] = np.minimum.reduceat(mult * keys + offset, starts)
    return signatures


class LshIndex:
    """Banded minwise signatures: vectors sharing any band bucket are candidates.

    Band k of the (n, m) `signatures` is columns [k*r, (k+1)*r), r = m // bands
    (the trailing m % bands columns are unused). `buckets` holds every bucket
    of two or more vectors, over all bands, as a list of positions in
    ascending order; `buckets_of[p]` holds the ids of those containing p. A
    bucket of one vector offers no candidate, so it is not kept.
    """

    def __init__(self, signatures, bands):
        n, m = signatures.shape
        width = m // bands
        self.buckets = []
        self.buckets_of = [[] for _ in range(n)]
        for band in range(bands):
            columns = signatures[:, band * width : (band + 1) * width]
            order = np.lexsort(columns.T)
            key = columns[order]
            changes = np.flatnonzero(np.any(key[1:] != key[:-1], axis=1)) + 1
            ranked = order.tolist()
            bounds = [0, *changes.tolist(), n]
            for start, stop in zip(bounds[:-1], bounds[1:]):
                if stop - start > 1:
                    bucket = ranked[start:stop]
                    for position in bucket:
                        self.buckets_of[position].append(len(self.buckets))
                    self.buckets.append(bucket)

    def candidates(self, position, visited):
        """Unvisited vectors co-located with `position` in any band bucket,
        ascending, as a list the caller must not modify."""
        buckets = self.buckets
        lives = []
        for bucket_id in self.buckets_of[position]:
            bucket = buckets[bucket_id]
            live = [p for p in bucket if not visited[p]]
            # Buckets shrink as the walk visits their members; compacting
            # here keeps repeat scans of hot buckets from going quadratic.
            if len(live) != len(bucket):
                buckets[bucket_id] = live
            if live:
                lives.append(live)
        if not lives:
            return []
        found = lives[0] if len(lives) == 1 else sorted(set().union(*lives))
        if not visited[position]:
            found = [p for p in found if p != position]
        return found


def _nearest_neighbor_walk(fsets, index, start):
    """From `start`, step to the candidate that adds the fewest pages (the
    lowest position among ties), or to the lowest unvisited position when
    there is none."""
    n = len(fsets)
    sizes = [len(s) for s in fsets]
    above_any_diff = max(sizes) + 1
    visited = [False] * n
    order = [start]
    visited[start] = True
    current = start
    unvisited_floor = 0
    for _ in range(n - 1):
        pages = fsets[current]
        size = sizes[current]
        best = None
        best_diff = above_any_diff
        for position in index.candidates(current, visited):
            # |A - B| >= |A| - |B|: a set this much larger cannot win.
            if sizes[position] - size < best_diff:
                diff = len(fsets[position] - pages)
                if diff < best_diff:
                    best, best_diff = position, diff
                    if diff == 0:
                        break  # cannot be beaten; lowest position among zeros wins
        if best is None:
            # Dead end: no unvisited neighbor shares a bucket. Fall back to
            # the lowest-position unvisited vector.
            while visited[unvisited_floor]:
                unvisited_floor += 1
            best = unvisited_floor
        order.append(best)
        visited[best] = True
        current = best
    return order


def reorder_lsh(sets, m=DEFAULT_LSH_HASHES, b=DEFAULT_LSH_BANDS, seed=0):
    n = len(sets)
    if n == 0:
        return []
    index = LshIndex(signature_matrix(sets, minwise_params(m, seed)), b)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))
    fsets = [frozenset(s) for s in sets]
    return _nearest_neighbor_walk(fsets, index, start)


# -- k-center --------------------------------------------------------------------


def default_kcenter_k(n, max_set_size, budget):
    return max(2, math.ceil(n * max_set_size / budget / 4))


def kcenter_clusters(sets, budget, k=None, seed=0):
    """Final clusters, each with a page union that fits the budget (or a
    singleton), concatenated in the order of a `walk_order` over their
    centers. Distances and unions are taken on the sets' `page_bits` rows."""
    n = len(sets)
    if n == 0:
        return []
    bits, sizes = page_bits(sets)
    if sizes.max() > budget:
        position = int(np.argmax(sizes > budget))
        raise OversizedVectorError(f"vector at position {position} needs {sizes[position]}"
                                   f" pages, budget is {budget}", position=position)
    if k is None:
        k = default_kcenter_k(n, int(sizes.max()), budget)

    def split(positions, depth):
        rows = bits[positions]
        if len(positions) <= 1 or _popcount(np.bitwise_or.reduce(rows)) <= budget:
            return [positions.tolist()]
        if depth >= _KCENTER_MAX_DEPTH:
            return _chunk_split(positions.tolist(), sets, budget)
        rng = np.random.default_rng([seed, depth, int(positions[0]), len(positions)])
        count = min(k, len(positions))
        centers = np.sort(positions[rng.choice(len(positions), size=count, replace=False)])
        # Each position's nearest center, the fewest pages outside it, kept
        # as the centers ascend: the strict `<` leaves ties with the lower
        # center, and no positions x centers array is built.
        own = sizes[positions]
        nearest, least = np.empty_like(positions), np.full(len(positions), budget + 1)
        for center in centers.tolist():
            outside = own - _popcount(rows & bits[center])
            closer = outside < least
            nearest[closer], least[closer] = center, outside[closer]
        # A level that puts every member under one center makes no progress;
        # the depth cap bounds such recursion.
        live, counts = np.unique(nearest, return_counts=True)
        members = np.split(positions[np.argsort(nearest, kind="stable")], np.cumsum(counts)[:-1])
        start = int(rng.integers(len(live))) if len(live) > 1 else 0
        return [cluster for index in walk_order([sets[c] for c in live.tolist()], start)
                for cluster in split(members[index], depth + 1)]

    return split(np.arange(n), 0)


def reorder_kcenter(sets, budget, k=None, seed=0):
    return [p for cluster in kcenter_clusters(sets, budget, k, seed) for p in cluster]


def _chunk_split(positions, sets, budget):
    """Order-preserving fallback: cut into consecutive chunks whose unions fit."""
    batches = greedy_batches([sets[p] for p in positions], budget)
    return [[positions[i] for i in batch.positions] for batch in batches]


# -- dispatch ----------------------------------------------------------------------

HEURISTICS = ("none", "shuffle", "radix", "lsh", "kcenter")


def reorder(name, sets, budget, seed=0, lsh_m=DEFAULT_LSH_HASHES,
            lsh_b=DEFAULT_LSH_BANDS, kcenter_k=None):
    if name == "none":
        return reorder_none(len(sets))
    if name == "shuffle":
        return reorder_shuffle(len(sets), seed)
    if name == "radix":
        return reorder_radix(sets)
    if name == "lsh":
        return reorder_lsh(sets, lsh_m, lsh_b, seed)
    if name == "kcenter":
        return reorder_kcenter(sets, budget, kcenter_k, seed)
    raise ValidationError(f"unknown reorder heuristic {name!r}")
