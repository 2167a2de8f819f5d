"""The sqlite catalog backend: stdlib, always available, one file per catalog.

The layout is two tables — ``catalog_meta`` (JSON text values) and
``catalog_blobs`` (binary payloads keyed by ``(namespace, key)``) — identical
to the duckdb backend's, so payload bytes round-trip bit-identically whichever
engine holds them.  Every sqlite exception is wrapped into a typed
:class:`~repro.exceptions.StorageError` at this boundary; callers never see a
raw ``sqlite3.DatabaseError``.

The connection is shared across threads (``check_same_thread=False``) behind
one lock, with statement execution *and* row fetching inside the critical
section — the acquisition service hydrates tables and restores caches from
request worker threads.

Writes go into the connection's implicit transaction and become durable at
:meth:`SQLiteBackend.flush`; :meth:`SQLiteBackend.transaction` is that same
transaction, committed once or rolled back, which is what lets a checkpoint
rewrite the catalog file in place.
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
from pathlib import Path
from typing import Iterator

from repro.exceptions import StorageError
from repro.storage.base import SQLITE, CatalogBackend, meta_dumps, meta_loads

_CREATE = """
CREATE TABLE IF NOT EXISTS catalog_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS catalog_blobs (
    namespace TEXT NOT NULL,
    key TEXT NOT NULL,
    payload BLOB NOT NULL,
    PRIMARY KEY (namespace, key)
);
"""


class SQLiteBackend(CatalogBackend):
    """A catalog stored in one sqlite database file."""

    kind = SQLITE
    transactional = True

    def __init__(self, path: str | Path) -> None:
        super().__init__(path=path)
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        try:
            self._connection = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            self._connection.executescript(_CREATE)
            self._connection.commit()
        except sqlite3.Error as error:
            self._dispose()
            raise StorageError(
                f"cannot open sqlite {self._where()}: {error}"
            ) from error

    # ------------------------------------------------------------------ plumbing
    def _dispose(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None

    def _run(self, sql: str, params: tuple = (), fetch: str | None = None):
        """Execute under the connection lock, fetching inside the critical section."""
        with self._lock:
            if self._connection is None:
                raise StorageError(f"sqlite {self._where()} is closed")
            try:
                cursor = self._connection.execute(sql, params)
                if fetch == "one":
                    return cursor.fetchone()
                if fetch == "all":
                    return cursor.fetchall()
                return None
            except sqlite3.Error as error:
                raise StorageError(
                    f"sqlite {self._where()} failed on {sql.split()[0]}: {error}"
                ) from error

    # ------------------------------------------------------------- raw blobs
    def put(self, namespace: str, key: str, payload: bytes) -> None:
        self._run(
            "INSERT OR REPLACE INTO catalog_blobs (namespace, key, payload) "
            "VALUES (?, ?, ?)",
            (namespace, key, sqlite3.Binary(bytes(payload))),
        )

    def get(self, namespace: str, key: str) -> bytes | None:
        row = self._run(
            "SELECT payload FROM catalog_blobs WHERE namespace = ? AND key = ?",
            (namespace, key),
            fetch="one",
        )
        return None if row is None else bytes(row[0])

    def delete(self, namespace: str, key: str) -> None:
        self._run(
            "DELETE FROM catalog_blobs WHERE namespace = ? AND key = ?",
            (namespace, key),
        )

    def keys(self, namespace: str) -> list[str]:
        rows = self._run(
            "SELECT key FROM catalog_blobs WHERE namespace = ? ORDER BY key",
            (namespace,),
            fetch="all",
        )
        return [row[0] for row in rows]

    def namespaces(self) -> list[str]:
        rows = self._run(
            "SELECT DISTINCT namespace FROM catalog_blobs ORDER BY namespace",
            fetch="all",
        )
        return [row[0] for row in rows]

    # -------------------------------------------------------------- metadata
    def put_meta(self, key: str, value: object) -> None:
        self._run(
            "INSERT OR REPLACE INTO catalog_meta (key, value) VALUES (?, ?)",
            (key, meta_dumps(value)),
        )

    def get_meta(self, key: str, default: object = None) -> object:
        row = self._run(
            "SELECT value FROM catalog_meta WHERE key = ?", (key,), fetch="one"
        )
        return default if row is None else meta_loads(row[0])

    def delete_meta(self, key: str) -> None:
        self._run("DELETE FROM catalog_meta WHERE key = ?", (key,))

    def meta_keys(self) -> list[str]:
        rows = self._run("SELECT key FROM catalog_meta ORDER BY key", fetch="all")
        return [row[0] for row in rows]

    # -------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        with self._lock:
            if self._connection is None:
                raise StorageError(f"sqlite {self._where()} is closed")
            try:
                self._connection.commit()
            except sqlite3.Error as error:
                raise StorageError(
                    f"sqlite {self._where()} failed to commit: {error}"
                ) from error

    def close(self) -> None:
        with self._lock:
            if self._connection is None:
                return
            try:
                self._connection.commit()
            except sqlite3.Error:
                pass
            self._dispose()

    @contextlib.contextmanager
    def transaction(self) -> Iterator["SQLiteBackend"]:
        # Commit what earlier writes left pending, so a rollback undoes
        # exactly the block's own writes.
        self.flush()
        try:
            yield self
            self.flush()
        except BaseException:
            with self._lock:
                if self._connection is not None:
                    try:
                        self._connection.rollback()
                    except sqlite3.Error:
                        pass
            raise
