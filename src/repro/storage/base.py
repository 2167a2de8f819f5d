"""The abstract catalog backend: a namespaced blob store with JSON metadata.

Every artifact the offline phase produces — instance tables, dictionary
encodings, JI edge weights, discovered FDs — can be persisted through one small
interface so the marketplace is no longer capped at what one process holds in
RAM.  A :class:`CatalogBackend` is deliberately minimal: namespaced binary
blobs (``put``/``get``/``keys``/``delete``) plus a JSON metadata table
(``put_meta``/``get_meta``) and schema versioning.  Higher layers
(:mod:`repro.storage.serialize`, :meth:`repro.marketplace.market.Marketplace.persist`,
:meth:`repro.core.dance.DANCE.persist`) decide *what* goes into which
namespace; backends only decide *where the bytes live*:

``memory``
    :class:`~repro.storage.memory.InMemoryBackend` — plain dicts, no disk.
    The default: attaching one preserves today's RAM-resident behaviour
    exactly, and it doubles as the reference implementation for parity tests.
``sqlite``
    :class:`~repro.storage.sqlite.SQLiteBackend` — stdlib ``sqlite3``, one
    self-contained catalog file; every catalog path is one.

Both store byte-identical payloads, so served acquisition results are
bit-identical whichever backend holds the catalog (gated by
``scripts/check_storage_parity.py`` and the round-trip property tests).
"""

from __future__ import annotations

import abc
import json
import time
from pathlib import Path
from typing import ContextManager

from repro.exceptions import StorageError

#: Version of the on-disk catalog layout.  Bumped on incompatible changes;
#: :meth:`CatalogBackend.check_schema_version` refuses newer/older catalogs
#: with a typed :class:`~repro.exceptions.StorageError` instead of failing
#: somewhere deep inside deserialization.
SCHEMA_VERSION = 1

MEMORY = "memory"
SQLITE = "sqlite"

# Blob namespaces used by the library layers above the backend.
NS_TABLES = "tables"  # full instance data, one blob per dataset
NS_ENCODINGS = "encodings"  # cached ColumnEncodings + entropy stats per dataset
NS_DATASETS = "datasets"  # catalog entries, pricing, descriptions per dataset
NS_OFFLINE = "offline"  # JI edge weights, discovered FDs, sample fingerprints
NS_SESSION = "session"  # older catalogs' session caches; never written, ignored on open

META_SCHEMA_VERSION = "schema_version"
META_KIND = "kind"
META_CREATED = "created"
META_MARKETPLACE = "marketplace"
META_OFFLINE = "offline"


class CatalogBackend(abc.ABC):
    """A namespaced blob store holding one marketplace catalog.

    Subclasses implement the raw byte/metadata operations; this base class
    provides the schema-version bookkeeping and the shared ``describe``
    summary.  Backends are context managers (``close`` is idempotent).
    """

    #: Kind name (``"memory"``/``"sqlite"``), stamped into the catalog.
    kind: str = "abstract"

    def __init__(self, path: str | Path | None = None) -> None:
        self.path: Path | None = None if path is None else Path(path)

    # ------------------------------------------------------------- raw blobs
    @abc.abstractmethod
    def put(self, namespace: str, key: str, payload: bytes) -> None:
        """Store ``payload`` under ``(namespace, key)``, replacing any old value."""

    @abc.abstractmethod
    def get(self, namespace: str, key: str) -> bytes | None:
        """The payload stored under ``(namespace, key)``, or ``None``."""

    @abc.abstractmethod
    def delete(self, namespace: str, key: str) -> None:
        """Remove ``(namespace, key)`` if present (missing keys are fine)."""

    @abc.abstractmethod
    def keys(self, namespace: str) -> list[str]:
        """Sorted keys present in ``namespace``."""

    @abc.abstractmethod
    def namespaces(self) -> list[str]:
        """Sorted namespaces that currently hold at least one blob."""

    # -------------------------------------------------------------- metadata
    @abc.abstractmethod
    def put_meta(self, key: str, value: object) -> None:
        """Store a JSON-serialisable metadata value under ``key``."""

    @abc.abstractmethod
    def get_meta(self, key: str, default: object = None) -> object:
        """The metadata value under ``key``, or ``default``."""

    @abc.abstractmethod
    def delete_meta(self, key: str) -> None:
        """Remove the metadata value under ``key`` if present."""

    @abc.abstractmethod
    def meta_keys(self) -> list[str]:
        """Sorted metadata keys."""

    # -------------------------------------------------------------- lifecycle
    @abc.abstractmethod
    def flush(self) -> None:
        """Make every prior write durable (commit)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release the backend's resources (idempotent)."""

    @abc.abstractmethod
    def transaction(self) -> ContextManager["CatalogBackend"]:
        """A context that makes the writes inside it all-or-nothing.

        A clean exit commits them once; any exception undoes every write the
        block made and propagates.  This is what lets a checkpoint rewrite a
        catalog in place.
        """

    def __enter__(self) -> "CatalogBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ versioning
    def initialize(self, *, created: bool = True) -> tuple[str, ...]:
        """Stamp a catalog: schema version, backend kind, creation time.

        ``created=False`` keeps the catalog's creation time (a checkpoint
        rewriting it in place).  Returns the stamp's metadata keys.
        """
        self.put_meta(META_SCHEMA_VERSION, SCHEMA_VERSION)
        self.put_meta(META_KIND, self.kind)
        if created:
            # dancelint: disable=DET104 -- provenance stamp: metadata only,
            # never read back into any computation or served result.
            self.put_meta(META_CREATED, time.strftime("%Y-%m-%dT%H:%M:%S"))
        return META_SCHEMA_VERSION, META_KIND, META_CREATED

    def check_schema_version(self) -> int:
        """Validate the stored schema version, returning it.

        Raises :class:`~repro.exceptions.StorageError` when the catalog was
        never initialised (e.g. an empty or foreign database file) or was
        written by an incompatible layout version.
        """
        version = self.get_meta(META_SCHEMA_VERSION)
        if version is None:
            raise StorageError(
                f"{self._where()} is not a marketplace catalog "
                "(no schema_version metadata)"
            )
        if version != SCHEMA_VERSION:
            raise StorageError(
                f"{self._where()} uses catalog schema version {version!r}; "
                f"this library reads version {SCHEMA_VERSION}"
            )
        return int(version)

    def _where(self) -> str:
        return f"catalog at {self.path}" if self.path else f"in-memory catalog ({self.kind})"

    # -------------------------------------------------------------- summaries
    def describe(self) -> dict[str, object]:
        """A small inspection summary (CLI ``catalog inspect``)."""
        counts = {ns: len(self.keys(ns)) for ns in self.namespaces()}
        return {
            "kind": self.kind,
            "path": None if self.path is None else str(self.path),
            "schema_version": self.get_meta(META_SCHEMA_VERSION),
            "created": self.get_meta(META_CREATED),
            "namespaces": counts,
            "marketplace": self.get_meta(META_MARKETPLACE),
            "offline": self.get_meta(META_OFFLINE),
        }


def meta_dumps(value: object) -> str:
    """Serialise a metadata value to JSON text (stable key order)."""
    try:
        return json.dumps(value, sort_keys=True)
    except (TypeError, ValueError) as error:
        raise StorageError(f"metadata value is not JSON-serialisable: {error}") from error


def meta_loads(text: str) -> object:
    try:
        return json.loads(text)
    except (TypeError, ValueError) as error:
        raise StorageError(f"corrupt catalog metadata: {error}") from error
