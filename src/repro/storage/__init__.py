"""Pluggable catalog storage: persist the marketplace, graph, and caches.

See :mod:`repro.storage.base` for the backend contract and the namespace
layout; :mod:`repro.storage.factory` for construction/opening/atomic
persistence; :mod:`repro.storage.checkpoint` for in-place checkpoints that
put only what changed; :mod:`repro.storage.serialize` for the payload
formats; and :mod:`repro.storage.lazy` for lazily hydrated datasets.
"""

from repro.storage.base import (
    MEMORY,
    META_CREATED,
    META_KIND,
    META_MARKETPLACE,
    META_OFFLINE,
    META_SCHEMA_VERSION,
    NS_DATASETS,
    NS_ENCODINGS,
    NS_OFFLINE,
    NS_SESSION,
    NS_TABLES,
    SCHEMA_VERSION,
    SQLITE,
    CatalogBackend,
)
from repro.storage.factory import (
    atomic_persist,
    create_backend,
    detect_kind,
    open_backend,
)
from repro.storage.lazy import StoredDataset
from repro.storage.memory import InMemoryBackend
from repro.storage.serialize import (
    encodings_to_blob,
    fingerprint_tables,
    ji_weights_from_spec,
    ji_weights_to_spec,
    restore_encodings,
    table_fingerprint,
    table_from_blob,
    table_to_blob,
)
from repro.storage.sqlite import SQLiteBackend

__all__ = [
    "CatalogBackend",
    "InMemoryBackend",
    "SQLiteBackend",
    "StoredDataset",
    "SCHEMA_VERSION",
    "MEMORY",
    "SQLITE",
    "NS_TABLES",
    "NS_ENCODINGS",
    "NS_DATASETS",
    "NS_OFFLINE",
    "NS_SESSION",
    "META_SCHEMA_VERSION",
    "META_KIND",
    "META_CREATED",
    "META_MARKETPLACE",
    "META_OFFLINE",
    "create_backend",
    "open_backend",
    "detect_kind",
    "atomic_persist",
    "table_fingerprint",
    "fingerprint_tables",
    "table_to_blob",
    "table_from_blob",
    "encodings_to_blob",
    "restore_encodings",
    "ji_weights_to_spec",
    "ji_weights_from_spec",
]
