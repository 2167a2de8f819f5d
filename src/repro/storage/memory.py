"""The in-memory catalog backend: plain dicts, no disk.

This is the default backend and the reference implementation: attaching one to
a marketplace preserves the pre-storage-layer behaviour exactly (everything
lives in process RAM), while exposing the same :class:`CatalogBackend` surface
as the disk backends — so persist→reopen round-trips can be tested without
touching the filesystem, and the parity suite can diff the disk backends
against it byte for byte.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.storage.base import MEMORY, CatalogBackend, meta_dumps, meta_loads


class InMemoryBackend(CatalogBackend):
    """A catalog held in process memory (``path`` is always ``None``)."""

    kind = MEMORY
    transactional = True

    def __init__(self) -> None:
        super().__init__(path=None)
        self._blobs: dict[str, dict[str, bytes]] = {}
        # Metadata round-trips through JSON text so that values which would
        # not survive a disk backend (tuples, sets) fail here too.
        self._meta: dict[str, str] = {}
        self._closed = False

    # ------------------------------------------------------------- raw blobs
    def put(self, namespace: str, key: str, payload: bytes) -> None:
        self._blobs.setdefault(namespace, {})[key] = bytes(payload)

    def get(self, namespace: str, key: str) -> bytes | None:
        return self._blobs.get(namespace, {}).get(key)

    def delete(self, namespace: str, key: str) -> None:
        self._blobs.get(namespace, {}).pop(key, None)

    def keys(self, namespace: str) -> list[str]:
        return sorted(self._blobs.get(namespace, {}))

    def namespaces(self) -> list[str]:
        return sorted(ns for ns, blobs in self._blobs.items() if blobs)

    # -------------------------------------------------------------- metadata
    def put_meta(self, key: str, value: object) -> None:
        self._meta[key] = meta_dumps(value)

    def get_meta(self, key: str, default: object = None) -> object:
        text = self._meta.get(key)
        return default if text is None else meta_loads(text)

    def delete_meta(self, key: str) -> None:
        self._meta.pop(key, None)

    def meta_keys(self) -> list[str]:
        return sorted(self._meta)

    # -------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        pass

    def close(self) -> None:
        # Unlike the disk backends the data intentionally survives close():
        # an in-memory catalog *is* the live object, there is nothing to
        # release, and persist()/open() pairs hand the same instance around.
        self._closed = True

    @contextlib.contextmanager
    def transaction(self) -> Iterator["InMemoryBackend"]:
        # The copies share the payload bytes; a failed block gets the dicts
        # it started from back.
        blobs = {namespace: dict(keyed) for namespace, keyed in self._blobs.items()}
        meta = dict(self._meta)
        try:
            yield self
        except BaseException:
            self._blobs, self._meta = blobs, meta
            raise
