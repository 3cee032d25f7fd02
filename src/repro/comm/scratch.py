"""Reusable decode/fold scratch buffers for the aggregation hot path.

Decoding one wire frame used to allocate every tensor it reconstructed, and
every weighted fold allocated a ``weight * value`` term — per *update*, on a
path that runs hundreds of times per round.  A :class:`ScratchPool` removes
both allocations: decode checks arrays out of a per-``(shape, dtype)`` free
list (:meth:`take`), the fold multiplies into a persistent per-shape float64
term buffer (:meth:`term`), and once an update has been folded the checked-out
arrays go back on the free list (:meth:`recycle`) for the next frame.  After
one warm-up update per distinct tensor geometry, steady-state decode-and-fold
performs zero array allocations — :attr:`allocations` counts the warm-up
misses so benchmarks (and CI) can assert exactly that.

Pools are deliberately dumb about ownership: arrays handed out by
:meth:`take` are *volatile* — valid only until the next :meth:`recycle` —
so they must never be retained: the fold reads a decoded value into its
running sums and lets go of it.  :meth:`term` buffers are separate
storage from :meth:`take` arrays, so a fold can multiply into a term while
reading a scratch-decoded value of the same shape.  :meth:`take_rows` /
:meth:`term_rows` are the same two kinds of storage for a *group* of
same-shaped tensors — the ``(rows, *shape)`` work matrices of
:meth:`StreamingAggregator.fold_frames
<repro.comm.aggregator.StreamingAggregator.fold_frames>`.

Pools are not thread-safe: every folder owns its own (a parameter server, an
aggregation tree, each aggregator server).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

_PoolKey = Tuple[Tuple[int, ...], np.dtype]


def _row_capacity(rows: int) -> int:
    return 1 << max(rows - 1, 0).bit_length()


class ScratchPool:
    """Free lists of decode arrays plus persistent fold-term buffers."""

    def __init__(self) -> None:
        self._free: Dict[_PoolKey, List[np.ndarray]] = {}
        #: (free-list, array) pairs checked out since the last recycle — the
        #: list reference rides along so recycle never re-hashes the key
        self._taken: List[Tuple[List[np.ndarray], np.ndarray]] = []
        self._terms: Dict[Tuple[int, ...], np.ndarray] = {}
        #: lifetime count of fresh array allocations (take misses + new term
        #: shapes); flat across a steady-state round = allocation-free decode
        self.allocations = 0

    def take(self, shape, dtype) -> np.ndarray:
        """Check out one uninitialised ``(shape, dtype)`` array until
        :meth:`recycle`.

        The contents are whatever the previous user left — callers overwrite
        every element (decode targets always do).
        """
        # np.dtype objects hash and compare by value, so the dtype itself is
        # the cheapest stable key component (no .str string build per take);
        # the hot caller (frame decode) always passes a tuple + np.dtype, so
        # normalization is a type check, not a conversion.
        if type(shape) is not tuple:
            shape = tuple(shape)
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        key = (shape, dtype)
        free = self._free.get(key)
        if free is None:
            free = self._free[key] = []
        if free:
            array = free.pop()
        else:
            array = np.empty(key[0], dtype=key[1])
            self.allocations += 1
        self._taken.append((free, array))
        return array

    def take_rows(self, rows: int, shape, dtype) -> np.ndarray:
        """Check out an uninitialised ``(rows, *shape)`` array until :meth:`recycle`.

        The work matrix of a group decode: the first ``rows`` rows of a
        :meth:`take` array whose row count is ``rows`` rounded up to a power
        of two, so groups of any size share a handful of buffers per tensor
        geometry instead of leaving one behind per size.
        """
        return self.take((_row_capacity(rows), *shape), dtype)[:rows]

    def recycle(self) -> None:
        """Return every checked-out array to its free list.

        Call once the arrays' contents have been consumed (folded into an
        accumulator); anything still referencing them now sees volatile
        storage.
        """
        for free, array in self._taken:
            free.append(array)
        self._taken.clear()

    def term(self, shape) -> np.ndarray:
        """The persistent float64 fold-term buffer for ``shape``.

        One buffer per shape, reused across folds and rounds — never recycled
        and never handed out by :meth:`take`, so it cannot alias a decode
        array.  Only one term per shape is live at a time, which is exactly
        the fold's access pattern (multiply into it, add it, move on).
        """
        key = shape if type(shape) is tuple else tuple(shape)
        buffer = self._terms.get(key)
        if buffer is None:
            buffer = self._terms[key] = np.empty(key, dtype=np.float64)
            self.allocations += 1
        return buffer

    def term_rows(self, rows: int, shape) -> np.ndarray:
        """The first ``rows`` rows of the :meth:`term` buffer :meth:`take_rows` sizes."""
        return self.term((_row_capacity(rows), *shape))[:rows]
