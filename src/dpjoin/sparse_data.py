"""Sparse input vectors, datasets, and their page-request sets.

A sparse vector is (tid, label, indexes, values) with strictly ascending
indexes. Its page-request set is the set of model pages its indexes touch;
everything downstream (buffer manager traffic, reordering, batching) is
driven by these sets.

Two dataset encodings are supported:

* binary: fixed header followed by one packed record per vector, lossless;
* text: one record per line, ``tid label idx:val idx:val ...``; lines
  starting with ``#`` are comments (the writer emits ``# d=<dim>`` and,
  for matrix datasets, ``# matrix=<rows>,<cols>,<rank>`` so round trips
  keep the metadata).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import StoreError, ValidationError

DATA_MAGIC = b"DPJDATA\x00"
DATA_VERSION_PLAIN = 1
DATA_VERSION_MATRIX = 2

_DATA_HEADER = struct.Struct("<8sIQQ")
_MATRIX_EXTRA = struct.Struct("<QQQ")
_RECORD_HEAD = struct.Struct("<QdI")

_IDX_DTYPE = np.dtype("<u8")
_VAL_DTYPE = np.dtype("<f8")


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


@dataclass
class Dataset:
    """An ordered collection of sparse vectors sharing one model dimension.

    matrix_shape is (rows, cols, rank) for factorization cell datasets and
    None otherwise.
    """

    dimension: int
    vectors: list = field(default_factory=list)
    matrix_shape: tuple | None = None

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def validate(self):
        if self.dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.dimension}")
        seen = set()
        for vector in self.vectors:
            vector.validate(self.dimension)
            if vector.tid in seen:
                raise ValidationError(f"duplicate tid {vector.tid}")
            seen.add(vector.tid)
        if self.matrix_shape is not None:
            rows, cols, rank = self.matrix_shape
            if rank < 1 or rows < 1 or cols < 1:
                raise ValidationError(f"bad matrix shape {self.matrix_shape}")
            if (rows + cols) * rank != self.dimension:
                raise ValidationError(
                    f"matrix shape {self.matrix_shape} inconsistent with dimension {self.dimension}"
                )
        return self

    def iter_upages(self, upage):
        """Yield (start, vectors) chunks of at most `upage` vectors, in order."""
        if upage < 1:
            raise ValidationError(f"upage size must be >= 1, got {upage}")
        for start in range(0, len(self.vectors), upage):
            yield start, self.vectors[start : start + upage]

    def total_nnz(self):
        return sum(v.nnz for v in self.vectors)


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
    version = DATA_VERSION_PLAIN if dataset.matrix_shape is None else DATA_VERSION_MATRIX
    try:
        out = open(path, "wb")
    except OSError as exc:
        raise StoreError(f"cannot create dataset file {path}: {exc}") from exc
    with out:
        out.write(_DATA_HEADER.pack(DATA_MAGIC, version, dataset.dimension, len(dataset.vectors)))
        if version == DATA_VERSION_MATRIX:
            out.write(_MATRIX_EXTRA.pack(*dataset.matrix_shape))
        for vector in dataset.vectors:
            # unlabeled vectors travel as NaN; real labels are always finite
            label = math.nan if vector.label is None else vector.label
            out.write(_RECORD_HEAD.pack(vector.tid, label, vector.nnz))
            out.write(vector.indexes.astype(_IDX_DTYPE, copy=False).tobytes())
            out.write(vector.values.astype(_VAL_DTYPE, copy=False).tobytes())


def _load_binary(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise StoreError(f"cannot read dataset file {path}: {exc}") from exc
    if len(raw) < _DATA_HEADER.size:
        raise StoreError(f"{path}: truncated dataset header")
    magic, version, dimension, count = _DATA_HEADER.unpack_from(raw, 0)
    if magic != DATA_MAGIC:
        raise StoreError(f"{path}: bad magic {magic!r}")
    offset = _DATA_HEADER.size
    matrix_shape = None
    if version == DATA_VERSION_MATRIX:
        if len(raw) < offset + _MATRIX_EXTRA.size:
            raise StoreError(f"{path}: truncated matrix header")
        matrix_shape = _MATRIX_EXTRA.unpack_from(raw, offset)
        offset += _MATRIX_EXTRA.size
    elif version != DATA_VERSION_PLAIN:
        raise StoreError(f"{path}: unsupported dataset version {version}")
    vectors = []
    for _ in range(count):
        if len(raw) < offset + _RECORD_HEAD.size:
            raise StoreError(f"{path}: truncated record header at byte {offset}")
        tid, label, nnz = _RECORD_HEAD.unpack_from(raw, offset)
        if math.isnan(label):
            label = None
        offset += _RECORD_HEAD.size
        need = nnz * (_IDX_DTYPE.itemsize + _VAL_DTYPE.itemsize)
        if len(raw) < offset + need:
            raise StoreError(f"{path}: truncated record payload for tid {tid}")
        indexes = np.frombuffer(raw, dtype=_IDX_DTYPE, count=nnz, offset=offset).copy()
        offset += nnz * _IDX_DTYPE.itemsize
        values = np.frombuffer(raw, dtype=_VAL_DTYPE, count=nnz, offset=offset).copy()
        offset += nnz * _VAL_DTYPE.itemsize
        vectors.append(SparseVector(tid, label, indexes, values))
    if offset != len(raw):
        raise StoreError(f"{path}: {len(raw) - offset} trailing bytes")
    return Dataset(dimension, vectors, matrix_shape).validate()


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
        for vector in dataset.vectors:
            # repr of a plain float round-trips exactly; np.float64 does not
            pairs = " ".join(
                f"{int(i)}:{float(v)!r}" for i, v in zip(vector.indexes, vector.values)
            )
            label = math.nan if vector.label is None else float(vector.label)
            out.write(f"{vector.tid} {label!r} {pairs}\n")


def _load_text(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise StoreError(f"cannot read dataset file {path}: {exc}") from exc
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
        low, high = min(indexes), max(indexes)
        if low < 0 or high >= 2**64:
            bad = low if low < 0 else high
            raise ValidationError(f"{path}:{lineno}: index {bad} out of range [0, 2**64)")
        vectors.append(SparseVector(tid, label, np.array(indexes, dtype=_IDX_DTYPE),
                                    np.array(values)))
    if dimension is None:
        # No header comment: the smallest dimension covering all indexes.
        dimension = 1 + max(int(v.indexes[-1]) for v in vectors) if vectors else 1
    return Dataset(dimension, vectors, matrix_shape).validate()
