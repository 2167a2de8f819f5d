"""One bounded memo for every cache that concurrent requests share.

The acquisition service memoises pure functions of its hot state: served
answers per request key and candidate evaluations per requested attribute
sets, fired ones included.  Requests served at once (batch fan-out, HTTP
handler threads) read and fill them together, and a long-lived session
must not let them grow without bound.  :class:`Memo` is the one class all
of them use.  Every value they hold is recomputable, so eviction costs
time, never bits.  The scheduler bounds its per-shopper token buckets with
it too; evicting one hands its shopper a full bucket.
"""

from __future__ import annotations

import threading
from typing import Mapping

_MISS = object()


class Memo:
    """A thread-safe mapping that holds at most ``bound`` entries.

    The first put under a key wins: a later put under a held key changes
    nothing, which is sound because every value memoised under a key is the
    same.  A put into a full memo evicts the oldest entry, in insertion
    order, and a zero bound holds nothing.  A read does not refresh an
    entry.  ``get`` counts hits and misses; :meth:`keys` and :meth:`items`
    list the entries oldest first, so entries copied in that order through
    :meth:`update` into a memo of a smaller bound keep the newest.  One lock
    guards everything.
    """

    __slots__ = ("_bound", "_lock", "_entries", "_hits", "_misses")

    def __init__(self, bound: int) -> None:
        self._bound = bound
        self._lock = threading.Lock()
        self._entries: dict = {}  # guarded-by: self._lock
        self._hits = 0  # guarded-by: self._lock
        self._misses = 0  # guarded-by: self._lock

    def get(self, key, default=None):
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
                return default
            self._hits += 1
            return value

    def __setitem__(self, key, value) -> None:
        if self._bound <= 0:
            return
        with self._lock:
            entries = self._entries
            if key in entries:
                return
            while len(entries) >= self._bound:
                del entries[next(iter(entries))]
            entries[key] = value

    def pop(self, key, default=None):
        with self._lock:
            return self._entries.pop(key, default)

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

    def snapshot(self) -> dict[str, int]:
        """The entries held and the hits and misses of :meth:`get`."""
        with self._lock:
            return {"entries": len(self._entries), "hits": self._hits, "misses": self._misses}
