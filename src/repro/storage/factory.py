"""Backend construction, catalog opening, and atomic persistence.

Three concerns live here so the backends themselves stay dumb byte stores:

* :func:`create_backend` — build a backend by kind, degrading ``duckdb`` to
  ``sqlite`` with a ``RuntimeWarning`` when duckdb is not importable (the
  same contract as the numpy fallback in :mod:`repro.relational.backend`).
* :func:`open_backend` / :func:`detect_kind` — open an *existing* catalog
  file, sniffing the engine from the file's magic bytes and raising a typed
  :class:`~repro.exceptions.StorageError` for missing or corrupt files.
* :func:`atomic_persist` — run a writer against a temp file next to the
  target and ``os.replace`` it into place, so a crash mid-persist can never
  leave a half-written catalog where a good one used to be.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

from repro.exceptions import StorageError
from repro.storage.base import (
    DUCKDB,
    MEMORY,
    SQLITE,
    CatalogBackend,
    normalize_kind,
)
from repro.storage.duckdb import DuckDBBackend, duckdb_available
from repro.storage.memory import InMemoryBackend
from repro.storage.sqlite import SQLiteBackend

#: First 16 bytes of every sqlite database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"
#: duckdb files carry the literal "DUCK" tag inside the first block.
_DUCKDB_MAGIC = b"DUCK"


def create_backend(
    kind: str | None = None, path: str | Path | None = None
) -> CatalogBackend:
    """Build a fresh backend of ``kind`` (default inferred from ``path``).

    With no ``kind``, a ``path`` implies sqlite and no ``path`` implies the
    in-memory backend.  Requesting ``duckdb`` when the module is not
    importable emits a ``RuntimeWarning`` and returns a sqlite backend at the
    same path instead — catalogs must never become unreadable just because an
    optional dependency is absent.
    """
    canonical = normalize_kind(kind)
    if canonical is None:
        canonical = MEMORY if path is None else SQLITE
    if canonical == MEMORY:
        if path is not None:
            raise StorageError("the in-memory backend does not take a path")
        return InMemoryBackend()
    if path is None:
        raise StorageError(f"the {canonical} backend requires a catalog path")
    if canonical == DUCKDB:
        if duckdb_available():
            return DuckDBBackend(path)
        warnings.warn(
            "duckdb is not importable; falling back to the sqlite catalog "
            "backend (install duckdb to silence this warning)",
            RuntimeWarning,
            stacklevel=2,
        )
        canonical = SQLITE
    return SQLiteBackend(path)


def detect_kind(path: str | Path) -> str:
    """Sniff which engine wrote the catalog file at ``path`` from its header.

    Raises :class:`~repro.exceptions.StorageError` when the file is missing,
    unreadable, or carries neither engine's magic bytes.
    """
    target = Path(path)
    if not target.exists():
        raise StorageError(f"no catalog at {target}")
    if target.is_dir():
        raise StorageError(f"{target} is a directory, not a catalog file")
    try:
        with open(target, "rb") as handle:
            header = handle.read(4096)
    except OSError as error:
        raise StorageError(f"cannot read catalog at {target}: {error}") from error
    if header.startswith(_SQLITE_MAGIC):
        return SQLITE
    if _DUCKDB_MAGIC in header[:64]:
        return DUCKDB
    raise StorageError(
        f"{target} is not a recognised catalog file "
        "(neither sqlite nor duckdb header)"
    )


def open_backend(
    source: str | Path | CatalogBackend, *, kind: str | None = None
) -> CatalogBackend:
    """Open an existing catalog and validate its schema version.

    ``source`` may be a backend instance (validated and returned as-is) or a
    path; for a path the engine is taken from ``kind`` when given, otherwise
    sniffed from the file's magic bytes.  Opening a duckdb catalog without
    duckdb installed is a hard :class:`~repro.exceptions.StorageError` — a
    silent sqlite fallback would misread the file.
    """
    if isinstance(source, CatalogBackend):
        source.check_schema_version()
        return source
    detected = normalize_kind(kind) or detect_kind(source)
    if detected == MEMORY:
        raise StorageError("cannot open an in-memory catalog from a path")
    if detected == DUCKDB:
        if not duckdb_available():
            raise StorageError(
                f"the catalog at {source} is a duckdb database but duckdb is "
                "not importable; install duckdb or re-persist via sqlite"
            )
        backend: CatalogBackend = DuckDBBackend(source)
    else:
        backend = SQLiteBackend(source)
    try:
        backend.check_schema_version()
    except StorageError:
        backend.close()
        raise
    return backend


def atomic_persist(path: str | Path, kind: str | None, writer) -> Path:
    """Write a catalog to ``path`` atomically via a sibling temp file.

    ``writer`` receives a fresh backend rooted at the temp path, fills it,
    and returns; the temp file is committed and then replaces ``path`` in
    one ``os.replace``.  On any failure, a failed commit included, the temp
    file is removed and ``path`` keeps its previous contents: persist is
    all-or-nothing.
    """
    target = Path(path)
    if target.parent and not target.parent.exists():
        raise StorageError(f"catalog directory {target.parent} does not exist")
    scratch = target.with_name(f"{target.name}.tmp{os.getpid()}")
    try:
        with create_backend(kind or SQLITE, scratch) as backend:
            writer(backend)
            # close() swallows commit errors; a half-written temp file must
            # never replace the catalog.
            backend.flush()
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return target
