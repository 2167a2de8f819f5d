"""One bounded memo for every cache that concurrent requests share.

The acquisition service memoises pure functions of its hot state: Step 1's
candidate I-graphs, candidate evaluations per requested attribute sets, and
the join lineages of graphs on which the re-sampling hook fired.  Requests
served at once (batch fan-out, HTTP handler threads) read and fill them
together, and a long-lived session must not let them grow without bound.
:class:`Memo` is the one class all of them use.  Every value it holds is
recomputable, so eviction costs time, never bits.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

_MISS = object()


class Memo:
    """A thread-safe mapping that holds at most ``bound`` units.

    An entry costs ``size(value)`` units, or one unit without ``size``.  The
    first put under a key wins: a later put under a held key changes
    nothing, which is sound because every value memoised under a key is the
    same.  A put evicts the oldest entries, in insertion order, until the
    new one fits, and a value larger than the bound is not held.  A read
    does not refresh an entry.  ``get`` counts hits and misses;
    :meth:`keys` and :meth:`items` list the entries oldest first, so a
    checkpoint written in that order and restored through :meth:`update`
    under a smaller bound keeps the newest.  One lock guards everything.
    """

    __slots__ = ("_bound", "_size", "_lock", "_entries", "_units", "_hits", "_misses")

    def __init__(self, bound: int, *, size: Callable[[object], int] | None = None) -> None:
        self._bound = bound
        self._size = size
        self._lock = threading.Lock()
        self._entries: dict = {}  # guarded-by: self._lock
        self._units = 0  # guarded-by: self._lock
        self._hits = 0  # guarded-by: self._lock
        self._misses = 0  # guarded-by: self._lock

    def _cost(self, value) -> int:
        return 1 if self._size is None else self._size(value)

    def get(self, key, default=None):
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
                return default
            self._hits += 1
            return value

    def __setitem__(self, key, value) -> None:
        cost = self._cost(value)
        if cost > self._bound:
            return
        with self._lock:
            entries = self._entries
            if key in entries:
                return
            while self._units + cost > self._bound:
                self._units -= self._cost(entries.pop(next(iter(entries))))
            entries[key] = value
            self._units += cost

    def pop(self, key, default=None):
        with self._lock:
            value = self._entries.pop(key, _MISS)
            if value is _MISS:
                return default
            self._units -= self._cost(value)
            return value

    def update(self, items: Mapping) -> None:
        """Put every entry of ``items``, in its order."""
        for key, value in items.items():
            self[key] = value

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def items(self) -> list[tuple]:
        with self._lock:
            return list(self._entries.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def units(self) -> int:
        """The units the held entries cost, summed."""
        with self._lock:
            return self._units

    def snapshot(self) -> dict[str, int]:
        """The entries held and the hits and misses of :meth:`get`."""
        with self._lock:
            return {"entries": len(self._entries), "hits": self._hits, "misses": self._misses}
