"""One checkpoint write, recorded so that the next one skips what did not change.

A :class:`CheckpointWriter` stands between the layers that persist state
(:meth:`repro.marketplace.market.Marketplace.persist` and the offline state
of :meth:`repro.core.dance.DANCE.persist`) and a backend.  It records a
digest of every blob put through it and skips a put whose bytes the
previous checkpoint already wrote; a layer that knows its blob is unchanged
*keeps* it without serialising it at all.

:func:`write_in_place` runs a writer inside one backend transaction and then
deletes every blob and metadata key the write did not name, so the catalog
ends up as a full rewrite of the same state would leave it.  A full rewrite is
the same writer with no previous digests, aimed at a fresh backend (see
:func:`repro.storage.factory.atomic_persist`).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Mapping

from repro.storage.base import CatalogBackend

#: A blob's identity: its ``(namespace, key)``.
BlobKey = tuple[str, str]


class CheckpointWriter:
    """The write surface one checkpoint's layers share (``put``/``put_meta``).

    ``previous`` holds the digests of the blobs the backend got from the last
    checkpoint; ``None`` means the backend's contents are unknown, so every
    blob is put and the catalog is stamped afresh.  After the write,
    :attr:`digests` describes every blob the catalog now holds and
    :attr:`puts` counts the blobs actually written.
    """

    def __init__(
        self, backend: CatalogBackend, previous: Mapping[BlobKey, bytes] | None = None
    ) -> None:
        self.backend = backend
        self._previous = previous
        self.digests: dict[BlobKey, bytes] = {}
        self.meta: set[str] = set()
        self.puts = 0

    def stamp(self) -> None:
        """Stamp the catalog; one written in place keeps its creation time."""
        self.meta.update(self.backend.initialize(created=self._previous is None))

    def put(self, namespace: str, key: str, payload: bytes) -> None:
        """Store ``payload`` unless the catalog already holds these bytes."""
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        self.digests[(namespace, key)] = digest
        if self._previous is None or self._previous.get((namespace, key)) != digest:
            self.backend.put(namespace, key, payload)
            self.puts += 1

    def keep(self, namespace: str, key: str) -> bool:
        """Carry a blob of the previous checkpoint over unread; ``False`` if it has none."""
        digest = None if self._previous is None else self._previous.get((namespace, key))
        if digest is None:
            return False
        self.digests[(namespace, key)] = digest
        return True

    def put_meta(self, key: str, value: object) -> None:
        self.meta.add(key)
        self.backend.put_meta(key, value)


def write_in_place(
    backend: CatalogBackend,
    previous: Mapping[BlobKey, bytes] | None,
    write: Callable[[CheckpointWriter], object],
) -> tuple[CheckpointWriter, object]:
    """Rewrite ``backend`` in one transaction; returns the writer and ``write``'s result.

    Everything the catalog holds that ``write`` did not put or keep is
    deleted before the single commit; any exception rolls the whole write
    back.
    """
    with backend.transaction():
        writer = CheckpointWriter(backend, previous)
        result = write(writer)
        for namespace in backend.namespaces():
            for key in backend.keys(namespace):
                if (namespace, key) not in writer.digests:
                    backend.delete(namespace, key)
        for key in backend.meta_keys():
            if key not in writer.meta:
                backend.delete_meta(key)
    return writer, result
