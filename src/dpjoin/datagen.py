"""Synthetic dataset generators.

All generators are deterministic: the master seed is combined with each
example's position, so example i has the same content no matter how or in
what order the rest of the dataset is produced.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .sparse_data import Dataset, SparseVector

_ZIPF_TABLE_LIMIT = 10_000_000

# Stream tags keep the per-purpose generators independent of each other.
_TAG_MODEL = 1
_TAG_EXAMPLE = 2
_TAG_MATRIX = 4


def _planted_model(d, seed):
    return np.random.default_rng([seed, _TAG_MODEL]).normal(size=d)


def _sample_distinct(rng, d, count):
    """Up to `count` distinct indexes drawn uniformly, without materializing
    range(d)."""
    if count >= d:
        return np.arange(d, dtype=np.uint64)
    chosen = np.unique(rng.integers(0, d, size=count, dtype=np.uint64))
    while len(chosen) < count:
        extra = rng.integers(0, d, size=count - len(chosen), dtype=np.uint64)
        chosen = np.unique(np.concatenate([chosen, extra]))
    return chosen[:count]


def _label_for(indexes, values, planted):
    margin = float(np.dot(values, planted[indexes.astype(np.int64)]))
    return 1.0 if margin >= 0.0 else -1.0


def _check_size(n, d):
    if n < 0 or not 1 <= d < 2**63:
        raise ValidationError(f"need n >= 0 vectors and dimension 1 <= d < 2**63,"
                              f" got n={n}, d={d}")


def gen_uniform(n, d, nnz, seed=0):
    """Each vector has exactly nnz distinct uniform indexes, values in
    [-1, 1], and a label planted by a hidden dense model."""
    _check_size(n, d)
    if nnz < 1 or nnz > d:
        raise ValidationError(f"nnz must be in [1, {d}], got {nnz}")
    planted = _planted_model(d, seed)
    vectors = []
    for i in range(n):
        rng = np.random.default_rng([seed, _TAG_EXAMPLE, i])
        indexes = np.sort(_sample_distinct(rng, d, nnz))
        values = rng.uniform(-1.0, 1.0, size=len(indexes))
        vectors.append(SparseVector(i, _label_for(indexes, values, planted), indexes, values))
    return Dataset(d, vectors).validate()


# -- zipf-skewed ------------------------------------------------------------------


def _zipf_cdf_table(d, s):
    weights = np.arange(1, d + 1, dtype=np.float64) ** (-s)
    table = np.cumsum(weights)
    table /= table[-1]
    return table


def _zipf_ranks_by_table(rng, table, count):
    return np.searchsorted(table, rng.random(count), side="left")


def _zipf_ranks_by_rejection(rng, d, s, count):
    """Truncated discrete power law via a continuous envelope; used past the
    table size cutoff. Returns 0-based ranks."""
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        need = count - filled
        u = rng.random(need)
        if s == 1.0:
            x = np.exp(u * np.log(d + 1.0))
        else:
            top = (d + 1.0) ** (1.0 - s) - 1.0
            x = (u * top + 1.0) ** (1.0 / (1.0 - s))
        k = np.floor(x).astype(np.int64)
        k = np.clip(k, 1, d)
        accept = rng.random(need) <= (k / x) ** s
        good = k[accept]
        out[filled : filled + len(good)] = good - 1
        filled += len(good)
    return out


def gen_skewed(n, d, nnz_avg, s=1.0, seed=0):
    """Index popularity follows rank^(-s). Per-vector nnz is Poisson around
    nnz_avg (minimum 1), duplicates removed.

    Rank r maps to index r-1, so popular indexes are contiguous at the low
    end (the usual layout when feature ids are assigned by frequency).
    """
    _check_size(n, d)
    # An average above d is drawn too (its vectors saturate); 2**62 stays
    # below numpy's Poisson ceiling (about 9.2e18).
    if not 1 <= nnz_avg < 2**62:
        raise ValidationError(f"nnz_avg must be in [1, 2**62), got {nnz_avg}")
    if not 0 < s < np.inf:  # NaN fails both
        raise ValidationError(f"skew exponent must be finite and > 0, got {s}")
    table = _zipf_cdf_table(d, s) if d <= _ZIPF_TABLE_LIMIT else None
    planted = _planted_model(d, seed)
    vectors = []
    for i in range(n):
        rng = np.random.default_rng([seed, _TAG_EXAMPLE, i])
        nnz = max(1, int(rng.poisson(nnz_avg)))
        if table is not None:
            ranks = _zipf_ranks_by_table(rng, table, nnz)
        else:
            ranks = _zipf_ranks_by_rejection(rng, d, s, nnz)
        indexes = np.unique(ranks.astype(np.uint64))
        values = rng.uniform(-1.0, 1.0, size=len(indexes))
        vectors.append(SparseVector(i, _label_for(indexes, values, planted), indexes, values))
    return Dataset(d, vectors).validate()


# -- matrix cells -------------------------------------------------------------------


def gen_matrix(rows, cols, cells, rank, seed=0):
    """Cells of a planted low-rank matrix, every row and column covered.

    Each cell (i, j, rating) becomes a vector whose indexes cover the row's
    factor block and the column's factor block in the packed model layout
    (row blocks first, then column blocks)."""
    if cells < max(rows, cols):
        raise ValidationError(
            f"need at least max(rows, cols) = {max(rows, cols)} cells to cover "
            f"every row and column, got {cells}"
        )
    if cells > rows * cols:
        raise ValidationError(f"at most {rows * cols} distinct cells exist, got {cells}")
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    d = (rows + cols) * rank
    _check_size(cells, d)
    rng = np.random.default_rng([seed, _TAG_MATRIX])
    left = rng.normal(size=(rows, rank)) / np.sqrt(rank)
    right = rng.normal(size=(rank, cols)) / np.sqrt(rank)
    # Diagonal pairing covers every row and column with max(rows, cols)
    # cells exactly; the remainder is filled with random distinct cells.
    chosen = {(i % rows, i % cols) for i in range(max(rows, cols))}
    while len(chosen) < cells:
        need = cells - len(chosen)
        pairs = zip(
            rng.integers(0, rows, size=need * 2), rng.integers(0, cols, size=need * 2)
        )
        for i, j in pairs:
            chosen.add((int(i), int(j)))
            if len(chosen) >= cells:
                break
    vectors = []
    for tid, (i, j) in enumerate(sorted(chosen)):
        rating = float(left[i] @ right[:, j]) + 0.05 * float(rng.normal())
        row_block = np.arange(i * rank, (i + 1) * rank, dtype=np.uint64)
        col_block = np.arange(
            rows * rank + j * rank, rows * rank + (j + 1) * rank, dtype=np.uint64
        )
        indexes = np.concatenate([row_block, col_block])
        vectors.append(SparseVector(tid, rating, indexes, np.ones(2 * rank)))
    return Dataset(d, vectors, matrix_shape=(rows, cols, rank)).validate()


# -- fixed demo corpus ----------------------------------------------------------------

# Eight vectors over six model entries (three pages of two entries each).
# The exact storage counters of this corpus are known and frozen in tests:
# 19 element requests, 16 grouped page requests, 8 LRU misses at a budget of
# two pages in file order, 4 misses after radix reordering, 3 batches.
_DEMO_RECORDS = (
    # tid, label, indexes, values            page set
    (1, 1.0, (0, 2, 3), (1.0, 3.0, 9.0)),  # {0, 1}
    (2, -1.0, (3, 4), (2.0, 1.0)),         # {1, 2}
    (3, 1.0, (1, 2), (1.0, 2.0)),          # {0, 1}
    (4, -1.0, (2, 4, 5), (3.0, 1.0, 2.0)), # {1, 2}
    (5, 1.0, (0, 3), (2.0, 2.0)),          # {0, 1}
    (6, -1.0, (1, 4), (1.0, 3.0)),         # {0, 2}
    (7, 1.0, (0, 5), (4.0, 1.0)),          # {0, 2}
    (8, -1.0, (2, 3, 5), (1.0, 1.0, 2.0)), # {1, 2}
)

DEMO_DIMENSION = 6
DEMO_PAGE_SIZE = 2


def gen_demo():
    vectors = [
        SparseVector(tid, label, np.array(idx, dtype=np.uint64), np.array(val))
        for tid, label, idx, val in _DEMO_RECORDS
    ]
    return Dataset(DEMO_DIMENSION, vectors).validate()


GENERATORS = ("uniform", "skewed", "matrix", "demo")
