"""Paged secondary storage for the dense model vector.

The model is a flat sequence of float64 values split into fixed-size pages.
Page k holds the entries with indexes [k*P, min((k+1)*P, d)); the last page
is zero padded on disk so every page has identical byte length. The file
starts with a fixed header (magic, version, dimension, page size) followed
by num_pages * P little-endian float64 values.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np

from .errors import StoreError, ValidationError

MAGIC = b"DPJMODEL"
VERSION = 1

_HEADER = struct.Struct("<8sIQQ")
HEADER_SIZE = _HEADER.size

_DTYPE = np.dtype("<f8")
_CREATE_CHUNK_PAGES = 4096


@dataclass
class PageView:
    """One resident model page: a mutable array of exactly P values."""

    page_id: int
    values: np.ndarray


class ModelStore:
    """Fixed-page file backing a model vector too large to keep in memory.

    All reads and writes move whole pages. The store counts physical page
    reads/writes and the wall-clock time spent in them over its lifetime;
    higher layers treat those counters as ground truth for storage traffic.
    """

    def __init__(self, path, file, dimension, page_size):
        self.path = path
        self._file = file
        self.dimension = dimension
        self.page_size = page_size
        self.num_pages = -(-dimension // page_size)
        self.reads = 0
        self.writes = 0
        self.io_time = 0.0

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, path, dimension, page_size, init="zeros", seed=0):
        """Create a model file and return the opened store.

        init is "zeros", ("constant", c), or ("uniform", lo, hi); uniform
        fill is drawn sequentially from a generator seeded with `seed`, so
        identical arguments produce byte-identical files.
        """
        if dimension < 1:
            raise ValidationError(f"model dimension must be >= 1, got {dimension}")
        if page_size < 1:
            raise ValidationError(f"page size must be >= 1, got {page_size}")
        num_pages = -(-dimension // page_size)
        rng = np.random.default_rng(seed)
        try:
            file = open(path, "w+b", buffering=0)
        except OSError as exc:
            raise StoreError(f"cannot create model file {path}: {exc}") from exc
        store = cls(path, file, dimension, page_size)
        try:
            store._write_all(_HEADER.pack(MAGIC, VERSION, dimension, page_size))
            remaining = num_pages * page_size
            produced = 0
            while remaining > 0:
                count = min(remaining, _CREATE_CHUNK_PAGES * page_size)
                chunk = cls._init_chunk(init, rng, count, produced, dimension)
                store._write_all(chunk.astype(_DTYPE, copy=False))
                produced += count
                remaining -= count
        except BaseException:
            store.close()
            raise
        return store

    @staticmethod
    def _init_chunk(init, rng, count, start, dimension):
        if init == "zeros":
            return np.zeros(count)
        kind = init[0] if isinstance(init, tuple) else init
        if kind == "constant":
            values = np.full(count, float(init[1]))
        elif kind == "uniform":
            values = rng.uniform(float(init[1]), float(init[2]), size=count)
        else:
            raise ValidationError(f"unknown model init {init!r}")
        # Zero the padding tail so files are deterministic byte for byte.
        tail = start + count - dimension
        if tail > 0:
            values[count - tail:] = 0.0
        return values

    @classmethod
    def open(cls, path):
        try:
            file = open(path, "r+b", buffering=0)
        except OSError as exc:
            raise StoreError(f"cannot open model file {path}: {exc}") from exc
        header = file.read(HEADER_SIZE)
        if len(header) != HEADER_SIZE:
            file.close()
            raise StoreError(f"{path}: truncated model header")
        magic, version, dimension, page_size = _HEADER.unpack(header)
        if magic != MAGIC:
            file.close()
            raise StoreError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            file.close()
            raise StoreError(f"{path}: unsupported model version {version}")
        if dimension < 1 or page_size < 1:
            file.close()
            raise StoreError(f"{path}: bad dimension {dimension} or page size {page_size}")
        store = cls(path, file, dimension, page_size)
        file.seek(0, 2)
        expected = HEADER_SIZE + store.num_pages * page_size * 8
        if file.tell() != expected:
            file.close()
            raise StoreError(f"{path}: expected {expected} bytes, found shorter/longer file")
        return store

    def close(self):
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- page I/O ----------------------------------------------------------

    def read_page(self, page_id, out=None):
        """Read page `page_id` into `out` (a contiguous, writable array of
        page_size float64 values; a fresh one when None) and return a
        PageView over it."""
        self._check_page_id(page_id)
        if out is None:
            out = np.empty(self.page_size, dtype=_DTYPE)
        started = time.perf_counter()
        self._file.seek(HEADER_SIZE + page_id * self.page_size * 8)
        got = self._file.readinto(out)
        self.io_time += time.perf_counter() - started
        if got != self.page_size * 8:
            raise StoreError(f"{self.path}: short read on page {page_id}")
        self.reads += 1
        return PageView(page_id, out)

    def write_page(self, view):
        self._check_page_id(view.page_id)
        if len(view.values) != self.page_size:
            raise ValidationError(
                f"page {view.page_id} has {len(view.values)} values, expected {self.page_size}"
            )
        started = time.perf_counter()
        self._file.seek(HEADER_SIZE + view.page_id * self.page_size * 8)
        self._write_all(np.ascontiguousarray(view.values, dtype=_DTYPE))
        self.io_time += time.perf_counter() - started
        self.writes += 1

    def _write_all(self, data):
        """Write `data` at the current offset in one call; a short write
        raises StoreError."""
        written = self._file.write(data)
        size = memoryview(data).nbytes
        if written != size:
            raise StoreError(f"{self.path}: short write, {written} of {size} bytes")

    def _check_page_id(self, page_id):
        if page_id < 0 or page_id >= self.num_pages:
            raise ValidationError(f"page id {page_id} out of range [0, {self.num_pages})")

    # -- whole-model access (small models, oracles, reporting) --------------

    def load_dense(self):
        """Read every page and return the first `dimension` values."""
        pages = np.empty((self.num_pages, self.page_size), dtype=_DTYPE)
        for page_id in range(self.num_pages):
            self.read_page(page_id, out=pages[page_id])
        return pages.reshape(-1)[: self.dimension]
