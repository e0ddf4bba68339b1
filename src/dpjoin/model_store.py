"""Paged secondary storage for the dense model vector.

The model is a flat sequence of float64 values split into fixed-size pages.
Page k holds the entries with indexes [k*P, min((k+1)*P, d)); the last page
is zero padded on disk so every page has identical byte length. The file
starts with a fixed header (magic, version, dimension, page size) followed
by num_pages * P little-endian float64 values.

A page is a plain array of P float64 values: `read_page` fills one (the
caller's, such as a row of the buffer manager's frame pool, or a fresh one)
and `write_page` writes one back. The store keeps no per-page object.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import struct
import time

import numpy as np

from .errors import StoreError, ValidationError

MAGIC = b"DPJMODEL"
VERSION = 1

_HEADER = struct.Struct("<8sIQQ")
HEADER_SIZE = _HEADER.size

_DTYPE = np.dtype("<f8")
_CREATE_CHUNK_PAGES = 4096


def page_count(dimension, page_size):
    """Pages of a model of `dimension` entries, `page_size` to a page;
    rejects a dimension or page size outside [1, 2**64)."""
    if dimension < 1:
        raise ValidationError(f"model dimension must be >= 1, got {dimension}")
    if page_size < 1:
        raise ValidationError(f"page size must be >= 1, got {page_size}")
    if max(dimension, page_size) >= 2**64:
        raise ValidationError(f"dimension {dimension} or page size {page_size} is not below 2**64")
    return -(-dimension // page_size)


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

        init is "zeros" or ("uniform", lo, hi), which is the constant lo
        when lo == hi; uniform fill is drawn sequentially from a generator
        seeded with `seed`, so identical arguments produce byte-identical
        files. A page size above `dimension` is stored as `dimension`: the
        model is one page either way, and the file holds no padding past it.
        A file larger than the free space of its directory is not created,
        and one whose writing fails is removed.
        """
        num_pages = page_count(dimension, page_size)
        page_size = min(page_size, dimension)
        kind = init[0] if isinstance(init, tuple) else init
        if init != "zeros" and kind != "uniform":
            raise ValidationError(f"unknown model init {init!r}")
        if kind == "uniform" and not 0.0 <= float(init[2]) - float(init[1]) < math.inf:
            raise ValidationError(f"uniform init needs finite bounds with low <= high, got {init!r}")
        rng = np.random.default_rng(seed)
        size = HEADER_SIZE + num_pages * page_size * 8
        try:
            free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
            if size > free:
                raise StoreError(f"cannot create model file {path}: it needs {size} bytes,"
                                 f" {free} are free")
            file = open(path, "w+b", buffering=0)
        except OSError as exc:
            raise StoreError(f"cannot create model file {path}: {exc}") from exc
        store = cls(path, file, dimension, page_size)
        try:
            store._write_all(_HEADER.pack(MAGIC, VERSION, dimension, page_size), 0)
            remaining = num_pages * page_size
            produced = 0
            while remaining > 0:
                count = min(remaining, _CREATE_CHUNK_PAGES * page_size)
                chunk = cls._init_chunk(init, rng, count, produced, dimension)
                store._write_all(chunk.astype(_DTYPE, copy=False), HEADER_SIZE + produced * 8)
                produced += count
                remaining -= count
        except BaseException:
            store.close()
            with contextlib.suppress(OSError):
                os.remove(path)
            raise
        return store

    @staticmethod
    def _init_chunk(init, rng, count, start, dimension):
        if init == "zeros":
            return np.zeros(count)
        values = rng.uniform(float(init[1]), float(init[2]), size=count)
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
        try:
            header = file.read(HEADER_SIZE)
            if len(header) != HEADER_SIZE:
                raise StoreError(f"{path}: truncated model header")
            magic, version, dimension, page_size = _HEADER.unpack(header)
            if magic != MAGIC:
                raise StoreError(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise StoreError(f"{path}: unsupported model version {version}")
            if dimension < 1 or page_size < 1:
                raise StoreError(f"{path}: bad dimension {dimension} or page size {page_size}")
            store = cls(path, file, dimension, page_size)
            expected = HEADER_SIZE + store.num_pages * page_size * 8
            if file.seek(0, 2) != expected:
                raise StoreError(f"{path}: expected {expected} bytes, found shorter/longer file")
        except BaseException:
            file.close()
            raise
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
        page_size float64 values; a fresh one when None) and return it."""
        # The page-id and open-store checks are inline: this runs once per miss.
        if page_id < 0 or page_id >= self.num_pages:
            raise ValidationError(f"page id {page_id} out of range [0, {self.num_pages})")
        if self._file is None:
            raise StoreError(f"{self.path}: model store is closed")
        if out is None:
            out = np.empty(self.page_size, dtype=_DTYPE)
        fd = self._file.fileno()
        started = time.perf_counter()
        got = os.preadv(fd, [out], HEADER_SIZE + page_id * self.page_size * 8)
        self.io_time += time.perf_counter() - started
        if got != self.page_size * 8:
            raise StoreError(f"{self.path}: short read on page {page_id}")
        self.reads += 1
        return out

    def write_page(self, page_id, values):
        """Write the page_size float64 `values` as page `page_id`."""
        # The checks are inline, as in `read_page`: this runs once per write-back.
        if page_id < 0 or page_id >= self.num_pages:
            raise ValidationError(f"page id {page_id} out of range [0, {self.num_pages})")
        if len(values) != self.page_size:
            raise ValidationError(
                f"page {page_id} has {len(values)} values, expected {self.page_size}"
            )
        if self._file is None:
            raise StoreError(f"{self.path}: model store is closed")
        if not (isinstance(values, np.ndarray) and values.dtype == _DTYPE
                and values.flags.c_contiguous):
            values = np.ascontiguousarray(values, dtype=_DTYPE)
        fd = self._file.fileno()
        started = time.perf_counter()
        written = os.pwrite(fd, values, HEADER_SIZE + page_id * self.page_size * 8)
        self.io_time += time.perf_counter() - started
        if written != values.nbytes:
            raise StoreError(f"{self.path}: short write, {written} of {values.nbytes} bytes")
        self.writes += 1

    def _write_all(self, data, offset):
        """Write `data` at byte `offset` in one call; a short write raises
        StoreError."""
        written = os.pwrite(self._fd(), data, offset)
        size = memoryview(data).nbytes
        if written != size:
            raise StoreError(f"{self.path}: short write, {written} of {size} bytes")

    def _fd(self):
        """The open file's descriptor, asked for on every call: a closed
        store raises instead of using a number the system may have given
        to another file since."""
        if self._file is None:
            raise StoreError(f"{self.path}: model store is closed")
        return self._file.fileno()

    # -- whole-model access (small models, oracles, reporting) --------------

    def load_dense(self):
        """Read every page and return the first `dimension` values."""
        pages = np.empty((self.num_pages, self.page_size), dtype=_DTYPE)
        for page_id in range(self.num_pages):
            self.read_page(page_id, out=pages[page_id])
        return pages.reshape(-1)[: self.dimension]
