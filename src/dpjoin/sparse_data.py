"""Sparse input vectors, datasets, and their page-request sets.

A sparse vector is (tid, label, indexes, values) with strictly ascending
indexes. Its page-request set is the set of model pages its indexes touch;
everything downstream (buffer manager traffic, reordering, batching) is
driven by these sets.

A dataset is stored column-wise, in CSR form: one array of all indexes,
one of all values, the offsets where each vector starts, and arrays of the
tids and labels. `SparseVector` objects are only views for callers that
want one vector at a time (tests, the in-memory oracles).

Two dataset encodings are supported:

* binary: a fixed header (magic, version 3, dimension, vector count, entry
  count, matrix shape or (0, 0, 0)) followed by the CSR arrays as they sit
  in memory: ``indptr`` (<i8), ``tids`` (<u8), ``labels`` (<f8, NaN when
  unlabeled), ``indices`` (<u8) and ``values`` (<f8); lossless;
* text: one record per line, ``tid label idx:val idx:val ...``; lines
  starting with ``#`` are comments (the writer emits ``# d=<dim>`` and,
  for matrix datasets, ``# matrix=<rows>,<cols>,<rank>`` so round trips
  keep the metadata).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import StoreError, ValidationError

DATA_MAGIC = b"DPJDATA\x00"
DATA_VERSION = 3

_DATA_HEADER = struct.Struct("<8sIQQQQQQ")
# The arrays of a binary dataset, in file order, with their element types.
_COLUMNS = (("indptr", "<i8"), ("tids", "<u8"), ("labels", "<f8"),
            ("indices", "<u8"), ("values", "<f8"))


@dataclass
class SparseVector:
    tid: int
    label: float
    indexes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indexes = np.asarray(self.indexes, dtype=np.uint64)
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def nnz(self):
        return len(self.indexes)

    def validate(self, dimension):
        if self.nnz == 0:
            raise ValidationError(f"tid {self.tid}: empty vector")
        if len(self.values) != self.nnz:
            raise ValidationError(
                f"tid {self.tid}: {self.nnz} indexes but {len(self.values)} values"
            )
        idx = self.indexes
        if np.any(idx[1:] <= idx[:-1]):
            raise ValidationError(f"tid {self.tid}: indexes not strictly ascending")
        if int(idx[-1]) >= dimension:
            raise ValidationError(
                f"tid {self.tid}: index {int(idx[-1])} out of range [0, {dimension})"
            )


def page_request_set(vector, page_size):
    """Distinct pages touched by the vector, as an ascending tuple."""
    pages = np.unique(vector.indexes // np.uint64(page_size))
    return tuple(int(p) for p in pages)


class Dataset:
    """An ordered collection of sparse vectors sharing one model dimension,
    as CSR arrays: vector i's indexes and values are
    `indices[indptr[i]:indptr[i+1]]` and `values[...]` (uint64, float64),
    its tid is `tids[i]` (uint64) and its label `labels[i]` (float64, NaN
    when the vector has none).

    `Dataset(dimension, vectors)` packs SparseVector objects; indexing and
    iterating give SparseVector views over slices of the arrays.
    matrix_shape is (rows, cols, rank) for factorization cell datasets and
    None otherwise.
    """

    def __init__(self, dimension, vectors=(), matrix_shape=None):
        vectors = list(vectors)
        for vector in vectors:
            if len(vector.values) != vector.nnz:
                raise ValidationError(
                    f"tid {vector.tid}: {vector.nnz} indexes but {len(vector.values)} values"
                )
        tids = [v.tid for v in vectors]
        low, high = (min(tids), max(tids)) if tids else (0, 0)
        if low < 0 or high >= 2**64:
            raise ValidationError(f"tid {low if low < 0 else high} out of range [0, 2**64)")
        self.dimension = dimension
        self.matrix_shape = None if matrix_shape is None else tuple(matrix_shape)
        self.indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum(np.array([v.nnz for v in vectors], dtype=np.int64), out=self.indptr[1:])
        self.indices = np.concatenate([v.indexes for v in vectors] or [np.empty(0, np.uint64)])
        self.values = np.concatenate([v.values for v in vectors] or [np.empty(0)])
        self.tids = np.array(tids, dtype=np.uint64)
        self.labels = np.array([math.nan if v.label is None else v.label for v in vectors],
                               dtype=np.float64)

    @classmethod
    def from_arrays(cls, dimension, indptr, indices, values, tids, labels, matrix_shape=None):
        dataset = cls(dimension, (), matrix_shape)
        dataset.indptr, dataset.indices, dataset.values = indptr, indices, values
        dataset.tids, dataset.labels = tids, labels
        return dataset

    def __len__(self):
        return len(self.tids)

    def __getitem__(self, row):
        lo, hi = self.indptr[row], self.indptr[row + 1]
        label = float(self.labels[row])
        return SparseVector(int(self.tids[row]), None if math.isnan(label) else label,
                            self.indices[lo:hi], self.values[lo:hi])

    def __iter__(self):
        return (self[row] for row in range(len(self)))

    def take(self, rows):
        """A dataset of the vectors at `rows`, in that order; a run of
        consecutive rows shares this dataset's arrays instead of copying."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (np.diff(rows) == 1).all():
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
            entries = slice(self.indptr[rows.start], self.indptr[rows.stop])
            indptr = self.indptr[rows.start : rows.stop + 1] - entries.start
        else:
            nnz = self.indptr[rows + 1] - self.indptr[rows]
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(nnz, out=indptr[1:])
            entries = np.arange(indptr[-1]) + np.repeat(self.indptr[rows] - indptr[:-1], nnz)
        return Dataset.from_arrays(
            self.dimension, indptr, self.indices[entries], self.values[entries],
            self.tids[rows], self.labels[rows], self.matrix_shape,
        )

    def validate(self):
        """Check every vector and the matrix metadata on the arrays; raise
        the first vector's error in dataset order, as SparseVector.validate
        and the duplicate-tid check report it."""
        if self.dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.dimension}")
        indptr, indices = self.indptr, self.indices
        n = len(self)
        nnz = np.diff(indptr)
        bad = nnz == 0
        # An entry not above its predecessor, inside one vector.
        starts = np.zeros(len(indices), dtype=bool)
        starts[indptr[:-1][~bad]] = True
        unsorted = np.flatnonzero((indices[1:] <= indices[:-1]) & ~starts[1:]) + 1
        bad[np.searchsorted(indptr, unsorted, side="right") - 1] = True
        bad[~bad] = indices[indptr[1:][~bad] - 1] >= self.dimension
        if n:
            _, first, inverse = np.unique(self.tids, return_index=True, return_inverse=True)
            bad |= first[inverse] != np.arange(n)
        if bad.any():
            row = int(np.argmax(bad))
            self[row].validate(self.dimension)
            raise ValidationError(f"duplicate tid {int(self.tids[row])}")
        if self.matrix_shape is not None:
            rows, cols, rank = self.matrix_shape
            if rank < 1 or rows < 1 or cols < 1:
                raise ValidationError(f"bad matrix shape {self.matrix_shape}")
            if (rows + cols) * rank != self.dimension:
                raise ValidationError(
                    f"matrix shape {self.matrix_shape} inconsistent with dimension {self.dimension}"
                )
        return self

    def check_matrix_cells(self):
        """Check that every vector of a matrix dataset is one factorization
        cell: a rank-aligned row block of `rank` consecutive indexes inside
        [0, rows*rank), then a rank-aligned column block inside
        [rows*rank, (rows+cols)*rank). Training lmf needs this; `validate`
        does not ask it, so any vectors can carry matrix metadata."""
        rows, cols, rank = self.matrix_shape
        nnz = np.diff(self.indptr)
        wrong = np.flatnonzero(nnz != 2 * rank)
        if len(wrong):
            row = int(wrong[0])
            raise ValidationError(
                f"tid {int(self.tids[row])}: matrix cell has {int(nnz[row])} indexes,"
                f" expected 2*rank = {2 * rank}"
            )
        blocks = self.indices.reshape(len(self), 2, rank).astype(np.int64)
        starts = blocks[:, :, 0] - np.array([0, rows * rank])
        bad = (
            (blocks - blocks[:, :, :1] != np.arange(rank)).any(axis=(1, 2))
            | (starts % rank != 0).any(axis=1)
            | (starts < 0).any(axis=1)
            | (starts[:, 0] >= rows * rank)
            | (starts[:, 1] >= cols * rank)
        )
        if bad.any():
            row = int(np.argmax(bad))
            raise ValidationError(
                f"tid {int(self.tids[row])}: matrix cell is not a row block and a column"
                f" block of rank {rank} for shape {self.matrix_shape}"
            )

    def upage_bounds(self, upage):
        """(start, stop) row ranges of at most `upage` vectors, in order."""
        return [(start, min(start + upage, len(self))) for start in range(0, len(self), upage)]

    def iter_upages(self, upage):
        """Yield (start, vectors) chunks of at most `upage` vectors, in order."""
        for start, stop in self.upage_bounds(upage):
            yield start, [self[row] for row in range(start, stop)]

    def page_runs(self, start, stop, page_size):
        """The distinct pages of the vectors in rows [start, stop), as one
        array, and where each vector's pages start in it (one bound more than
        vectors), from one pass over the indexes: they ascend within a
        vector, so its pages are where `index // page_size` changes, plus
        its first entry."""
        bounds = self.indptr[start : stop + 1] - self.indptr[start]
        pages = self.indices[self.indptr[start] : self.indptr[stop]] // np.uint64(page_size)
        first = np.ones(len(pages), dtype=bool)
        np.not_equal(pages[1:], pages[:-1], out=first[1:])
        first[bounds[:-1][bounds[:-1] < len(pages)]] = True
        cuts = np.zeros(len(pages) + 1, dtype=np.int64)
        np.cumsum(first, out=cuts[1:])
        return pages[first], cuts[bounds]

    def page_sets(self, start, stop, page_size):
        """`page_request_set` of each vector in rows [start, stop), from
        `page_runs`."""
        pages, cuts = (array.tolist() for array in self.page_runs(start, stop, page_size))
        return [tuple(pages[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


# -- binary encoding ---------------------------------------------------------


def store_dataset(dataset, path, fmt="bin"):
    if fmt == "bin":
        _store_binary(dataset, path)
    elif fmt == "txt":
        _store_text(dataset, path)
    else:
        raise ValidationError(f"unknown dataset format {fmt!r}")


def load_dataset(path, fmt="bin"):
    if fmt == "bin":
        return _load_binary(path)
    if fmt == "txt":
        return _load_text(path)
    raise ValidationError(f"unknown dataset format {fmt!r}")


def _store_binary(dataset, path):
    arrays = [np.ascontiguousarray(getattr(dataset, name), dtype) for name, dtype in _COLUMNS]
    try:
        out = open(path, "wb")
    except OSError as exc:
        raise StoreError(f"cannot create dataset file {path}: {exc}") from exc
    with out:
        out.write(_DATA_HEADER.pack(DATA_MAGIC, DATA_VERSION, dataset.dimension, len(dataset),
                                    len(dataset.indices), *(dataset.matrix_shape or (0, 0, 0))))
        for array in arrays:
            out.write(array)


def _load_binary(path):
    """Check the header and the file size it implies, then read each array
    with one `readinto` into its final buffer."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_DATA_HEADER.size)
            if len(head) < _DATA_HEADER.size:
                raise StoreError(f"{path}: truncated dataset header")
            magic, version, dimension, count, entries, *shape = _DATA_HEADER.unpack(head)
            if magic != DATA_MAGIC:
                raise StoreError(f"{path}: bad magic {magic!r}")
            if version != DATA_VERSION:
                raise StoreError(f"{path}: unsupported dataset version {version}")
            # In Python integers, so a huge count is refused before any allocation.
            lengths = (count + 1, count, count, entries, entries)
            expected = _DATA_HEADER.size + 8 * sum(lengths)
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise StoreError(f"{path}: the header's {count} vectors and {entries} entries"
                                 f" need {expected} bytes, the file has {size}")
            arrays = {name: np.empty(n, dtype) for (name, dtype), n in zip(_COLUMNS, lengths)}
            for name, array in arrays.items():
                if fh.readinto(array) != array.nbytes:
                    raise StoreError(f"{path}: truncated {name} array")
    except OSError as exc:
        raise StoreError(f"cannot read dataset file {path}: {exc}") from exc
    indptr = arrays["indptr"]
    if indptr[0] != 0 or indptr[-1] != entries or (indptr[1:] < indptr[:-1]).any():
        raise StoreError(f"{path}: vector offsets do not ascend from 0 to the entry count"
                         f" {entries}")
    matrix_shape = None if shape == [0, 0, 0] else tuple(shape)
    return Dataset.from_arrays(dimension, **arrays, matrix_shape=matrix_shape).validate()


# -- text encoding ------------------------------------------------------------


def _store_text(dataset, path):
    try:
        out = open(path, "w")
    except OSError as exc:
        raise StoreError(f"cannot create dataset file {path}: {exc}") from exc
    with out:
        out.write(f"# d={dataset.dimension}\n")
        if dataset.matrix_shape is not None:
            rows, cols, rank = dataset.matrix_shape
            out.write(f"# matrix={rows},{cols},{rank}\n")
        for vector in dataset:
            # repr of a plain float round-trips exactly; np.float64 does not
            pairs = " ".join(
                f"{int(i)}:{float(v)!r}" for i, v in zip(vector.indexes, vector.values)
            )
            label = math.nan if vector.label is None else float(vector.label)
            out.write(f"{vector.tid} {label!r} {pairs}\n")


def _load_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise StoreError(f"cannot read dataset file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    dimension = None
    matrix_shape = None
    vectors = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            try:
                if body.startswith("d="):
                    dimension = int(body[2:])
                elif body.startswith("matrix="):
                    rows, cols, rank = (int(x) for x in body[7:].split(","))
                    matrix_shape = (rows, cols, rank)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad header {body!r}: {exc}") from exc
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ValidationError(f"{path}:{lineno}: need tid, label and at least one idx:val")
        try:
            tid = int(fields[0])
            label = float(fields[1])
            if math.isnan(label):
                label = None
            indexes = []
            values = []
            for pair in fields[2:]:
                idx, _, val = pair.partition(":")
                indexes.append(int(idx))
                values.append(float(val))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if not 0 <= tid < 2**64:
            raise ValidationError(f"{path}:{lineno}: tid {tid} out of range [0, 2**64)")
        low, high = min(indexes), max(indexes)
        if low < 0 or high >= 2**64:
            bad = low if low < 0 else high
            raise ValidationError(f"{path}:{lineno}: index {bad} out of range [0, 2**64)")
        vectors.append(SparseVector(tid, label, np.array(indexes, dtype=np.uint64),
                                    np.array(values)))
    if dimension is None:
        # No header comment: the smallest dimension covering all indexes.
        dimension = 1 + max(int(v.indexes[-1]) for v in vectors) if vectors else 1
    return Dataset(dimension, vectors, matrix_shape).validate()
