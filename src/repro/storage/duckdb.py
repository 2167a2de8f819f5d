"""The duckdb catalog backend: optional, columnar, graceful-fallback.

duckdb is an *optional* dependency, handled exactly like numpy in
:mod:`repro.relational.backend`: when it is not importable,
:func:`repro.storage.factory.create_backend` falls back to the sqlite backend
with a ``RuntimeWarning`` instead of failing — the library never *requires*
duckdb.  The table layout matches the sqlite backend's (``catalog_meta`` +
``catalog_blobs``), so the payload bytes — and therefore every served
acquisition result — are bit-identical across the two engines.

As with the sqlite backend, one connection is shared across threads behind a
lock (statement execution and row fetching both inside the critical section),
because the acquisition service hydrates tables from request worker threads.

Every statement autocommits, so the backend is not :attr:`transactional`: a
checkpoint into a duckdb catalog always rewrites it through
:func:`repro.storage.factory.atomic_persist`.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.exceptions import StorageError
from repro.storage.base import DUCKDB, CatalogBackend, meta_dumps, meta_loads

try:  # duckdb is optional; the factory degrades to sqlite without it.
    import duckdb as _DUCKDB  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised via the masked-import tests
    _DUCKDB = None

_CREATE = [
    """
    CREATE TABLE IF NOT EXISTS catalog_meta (
        key VARCHAR PRIMARY KEY,
        value VARCHAR NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS catalog_blobs (
        namespace VARCHAR NOT NULL,
        key VARCHAR NOT NULL,
        payload BLOB NOT NULL,
        PRIMARY KEY (namespace, key)
    )
    """,
]


def duckdb_available() -> bool:
    """Whether duckdb could be imported in this process."""
    return _DUCKDB is not None


def get_duckdb():
    """The duckdb module, or ``None`` when it is not importable."""
    return _DUCKDB


class DuckDBBackend(CatalogBackend):
    """A catalog stored in one duckdb database file."""

    kind = DUCKDB

    def __init__(self, path: str | Path) -> None:
        if _DUCKDB is None:
            raise StorageError(
                "the duckdb backend was requested but duckdb is not importable; "
                "use repro.storage.create_backend for the graceful sqlite fallback"
            )
        super().__init__(path=path)
        self._lock = threading.Lock()
        self._connection = None
        try:
            self._connection = _DUCKDB.connect(str(self.path))
            for statement in _CREATE:
                self._connection.execute(statement)
        except _DUCKDB.Error as error:
            self._dispose()
            raise StorageError(
                f"cannot open duckdb {self._where()}: {error}"
            ) from error

    # ------------------------------------------------------------------ plumbing
    def _dispose(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except _DUCKDB.Error:
                pass
            self._connection = None

    def _run(self, statements, fetch: str | None = None):
        """Execute ``(sql, params)`` pairs under the lock; fetch from the last."""
        with self._lock:
            if self._connection is None:
                raise StorageError(f"duckdb {self._where()} is closed")
            try:
                cursor = None
                for sql, params in statements:
                    cursor = self._connection.execute(sql, params)
                if fetch == "one":
                    return cursor.fetchone()
                if fetch == "all":
                    return cursor.fetchall()
                return None
            except _DUCKDB.Error as error:
                raise StorageError(
                    f"duckdb {self._where()} failed: {error}"
                ) from error

    # ------------------------------------------------------------- raw blobs
    def put(self, namespace: str, key: str, payload: bytes) -> None:
        # delete-then-insert keeps the statement portable across duckdb
        # versions (ON CONFLICT support varies); both run under one lock hold.
        self._run(
            [
                (
                    "DELETE FROM catalog_blobs WHERE namespace = ? AND key = ?",
                    (namespace, key),
                ),
                (
                    "INSERT INTO catalog_blobs (namespace, key, payload) "
                    "VALUES (?, ?, ?)",
                    (namespace, key, bytes(payload)),
                ),
            ]
        )

    def get(self, namespace: str, key: str) -> bytes | None:
        row = self._run(
            [
                (
                    "SELECT payload FROM catalog_blobs "
                    "WHERE namespace = ? AND key = ?",
                    (namespace, key),
                )
            ],
            fetch="one",
        )
        return None if row is None else bytes(row[0])

    def delete(self, namespace: str, key: str) -> None:
        self._run(
            [
                (
                    "DELETE FROM catalog_blobs WHERE namespace = ? AND key = ?",
                    (namespace, key),
                )
            ]
        )

    def keys(self, namespace: str) -> list[str]:
        rows = self._run(
            [
                (
                    "SELECT key FROM catalog_blobs WHERE namespace = ? "
                    "ORDER BY key",
                    (namespace,),
                )
            ],
            fetch="all",
        )
        return [row[0] for row in rows]

    def namespaces(self) -> list[str]:
        rows = self._run(
            [("SELECT DISTINCT namespace FROM catalog_blobs ORDER BY namespace", ())],
            fetch="all",
        )
        return [row[0] for row in rows]

    # -------------------------------------------------------------- metadata
    def put_meta(self, key: str, value: object) -> None:
        self._run(
            [
                ("DELETE FROM catalog_meta WHERE key = ?", (key,)),
                (
                    "INSERT INTO catalog_meta (key, value) VALUES (?, ?)",
                    (key, meta_dumps(value)),
                ),
            ]
        )

    def get_meta(self, key: str, default: object = None) -> object:
        row = self._run(
            [("SELECT value FROM catalog_meta WHERE key = ?", (key,))], fetch="one"
        )
        return default if row is None else meta_loads(row[0])

    def delete_meta(self, key: str) -> None:
        self._run([("DELETE FROM catalog_meta WHERE key = ?", (key,))])

    def meta_keys(self) -> list[str]:
        rows = self._run([("SELECT key FROM catalog_meta ORDER BY key", ())], fetch="all")
        return [row[0] for row in rows]

    # -------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        # duckdb autocommits single statements; CHECKPOINT forces the WAL
        # into the database file so the on-disk catalog is self-contained.
        self._run([("CHECKPOINT", ())])

    def close(self) -> None:
        with self._lock:
            if self._connection is None:
                return
            try:
                self._connection.execute("CHECKPOINT")
            except _DUCKDB.Error:
                pass
            self._dispose()
