"""Serialisation of catalog artifacts: tables, encodings, JI weights, memos.

Everything a catalog persists goes through this module, which fixes one
invariant the parity tests rely on: **content fingerprints, not identity.**
The in-process incremental-refresh machinery proves cache validity by object
identity (``JoinGraph(reuse_cache_from=...)``), which cannot survive a process
restart.  Persisted JI weights, discovered FDs, and session memos instead
carry a blake2b *content* fingerprint per instance table; on a warm open they
are adopted only for instances whose rebuilt samples hash to the same
fingerprint — the conservative cross-process analogue of the identity check
(a changed sample can never resurrect a stale weight).  Column encodings are
stored as their plain code lists.

Payloads are pickled at a pinned protocol so the same catalog opens across the
supported python versions; a fingerprint mismatch (e.g. across incompatible
pickle output) only ever costs a recompute, never correctness.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Mapping

from repro.exceptions import StorageError
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import ColumnEncoding, Table

#: Pinned pickle protocol: available on every supported python, stable output.
PICKLE_PROTOCOL = 4


def dumps(obj: object) -> bytes:
    """Pickle ``obj`` for storage, wrapping failures into StorageError."""
    try:
        return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise StorageError(f"cannot serialise catalog payload: {error}") from error


def loads(payload: bytes) -> object:
    """Unpickle a stored payload, wrapping failures into StorageError."""
    try:
        return pickle.loads(payload)
    except Exception as error:  # unpickling can raise nearly anything
        raise StorageError(f"corrupt catalog payload: {error}") from error


# ------------------------------------------------------------------ fingerprints
#: Where :func:`table_fingerprint` caches its digest in ``Table._stats``
#: (never persisted: :func:`encodings_to_blob` stores entropy keys only).
_FINGERPRINT_KEY = ("fingerprint",)


def table_fingerprint(table: Table) -> str:
    """Content digest of one table: name, typed schema, and every column.

    Two tables with equal name, schema, and cell values produce the same
    fingerprint in any process — the substrate for adopting persisted JI
    weights and FDs after a restart (sampling is deterministic, so unchanged
    source data reproduces unchanged samples, which reproduce this digest).
    The digest is cached on the table (tables are immutable by convention),
    so each checkpoint hashes only tables it has not hashed before.
    """
    cached = table._stats.get(_FINGERPRINT_KEY)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(table.name).encode())
    for attribute in table.schema:
        digest.update(repr((attribute.name, attribute.type.value)).encode())
    for name in table.schema.names:
        digest.update(
            pickle.dumps(table.column(name), protocol=PICKLE_PROTOCOL)
        )
    table._stats[_FINGERPRINT_KEY] = fingerprint = digest.hexdigest()
    return fingerprint


def fingerprint_tables(tables: Mapping[str, Table]) -> dict[str, str]:
    return {name: table_fingerprint(table) for name, table in tables.items()}


# ------------------------------------------------------------------ tables
def schema_to_spec(schema: Schema) -> list[tuple[str, str]]:
    return [(attribute.name, attribute.type.value) for attribute in schema]


def schema_from_spec(spec) -> Schema:
    try:
        return Schema([Attribute(name, AttributeType(kind)) for name, kind in spec])
    except (TypeError, ValueError) as error:
        raise StorageError(f"corrupt schema specification: {error}") from error


def table_to_blob(table: Table) -> bytes:
    """Serialise one table's data (schema + columns; caches travel separately)."""
    return dumps(
        {
            "name": table.name,
            "schema": schema_to_spec(table.schema),
            "columns": {name: table.column(name) for name in table.schema.names},
        }
    )


def table_from_blob(payload: bytes) -> Table:
    spec = loads(payload)
    if not isinstance(spec, dict) or not {"name", "schema", "columns"} <= set(spec):
        raise StorageError("corrupt table payload (missing name/schema/columns)")
    schema = schema_from_spec(spec["schema"])
    return Table(spec["name"], schema, spec["columns"])


# ------------------------------------------------------------------ encodings
def encodings_to_blob(table: Table) -> bytes:
    """Serialise a table's cached dictionary encodings and entropy statistics.

    Only what the table has already computed is stored (the caches are lazy).
    """
    encodings = [
        (key, encoding.codes, list(encoding.values))
        for key, encoding in table._encodings.items()
    ]
    stats = {key: value for key, value in table._stats.items() if key[0] == "entropy"}
    return dumps({"encodings": encodings, "stats": stats})


def encodings_state(table: Table) -> tuple[int, int]:
    """How many encodings and entropy statistics :func:`encodings_to_blob` stores.

    Both caches only grow, so for one table an unchanged state means
    unchanged blob bytes.
    """
    return len(table._encodings), sum(1 for key in table._stats if key[0] == "entropy")


def restore_encodings(table: Table, payload: bytes) -> int:
    """Install persisted encodings/stats on ``table``; returns how many.

    Rehydration instead of re-encoding, with bit-identical downstream
    statistics.
    """
    spec = loads(payload)
    if not isinstance(spec, dict):
        raise StorageError("corrupt encodings payload")
    restored = 0
    for key, codes, values in spec.get("encodings", ()):
        table._encodings.setdefault(
            tuple(key), ColumnEncoding(codes, list(values))
        )
        restored += 1
    for key, value in spec.get("stats", {}).items():
        table._stats.setdefault(tuple(key), value)
    return restored


# ------------------------------------------------------------------ JI weights
def ji_weights_to_spec(
    ji_cache: Mapping[tuple, float]
) -> list[tuple[str, str, tuple, float]]:
    """Flatten a JI cache (frozenset attrs) into a stable, picklable list."""
    return sorted(
        (left, right, tuple(sorted(attrs)), weight)
        for (left, right, attrs), weight in ji_cache.items()
    )


def ji_weights_from_spec(
    spec, fingerprints: Mapping[str, str], current: Mapping[str, str]
) -> dict[tuple[str, str, frozenset], float]:
    """Rebuild the JI cache, keeping only entries whose endpoints are unchanged.

    ``fingerprints`` are the per-instance digests recorded at persist time,
    ``current`` the digests of the instances about to enter the new graph; an
    entry survives only when both endpoints match — the cross-process
    equivalent of ``JoinGraph._seed_cache_from``'s identity check.
    """
    adopted: dict[tuple[str, str, frozenset], float] = {}
    for left, right, attrs, weight in spec:
        if (
            current.get(left) is not None
            and current.get(left) == fingerprints.get(left)
            and current.get(right) is not None
            and current.get(right) == fingerprints.get(right)
        ):
            adopted[(left, right, frozenset(attrs))] = weight
    return adopted
