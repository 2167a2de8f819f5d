"""Backend construction, catalog opening, and atomic persistence.

Three concerns live here so the backends themselves stay dumb byte stores:

* :func:`create_backend` — a path decides the engine: sqlite for a path, the
  in-memory backend without one.
* :func:`open_backend` / :func:`detect_kind` — open an *existing* catalog
  file, checking its sqlite header and raising a typed
  :class:`~repro.exceptions.StorageError` for missing, corrupt or foreign
  files.
* :func:`atomic_persist` — run a writer against a temp file next to the
  target and ``os.replace`` it into place, so a crash mid-persist can never
  leave a half-written catalog where a good one used to be.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.exceptions import StorageError
from repro.storage.base import SQLITE, CatalogBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.sqlite import SQLiteBackend

#: First 16 bytes of every sqlite database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def create_backend(path: str | Path | None = None) -> CatalogBackend:
    """A fresh backend: sqlite at ``path``, or in memory without one."""
    if path is None:
        return InMemoryBackend()
    return SQLiteBackend(path)


def detect_kind(path: str | Path) -> str:
    """Check that the file at ``path`` is a sqlite database; returns its kind.

    Raises :class:`~repro.exceptions.StorageError` when the file is missing,
    unreadable, or carries no sqlite header.
    """
    target = Path(path)
    if not target.exists():
        raise StorageError(f"no catalog at {target}")
    if target.is_dir():
        raise StorageError(f"{target} is a directory, not a catalog file")
    try:
        with open(target, "rb") as handle:
            header = handle.read(len(_SQLITE_MAGIC))
    except OSError as error:
        raise StorageError(f"cannot read catalog at {target}: {error}") from error
    if header != _SQLITE_MAGIC:
        raise StorageError(f"{target} is not a recognised catalog file (no sqlite header)")
    return SQLITE


def open_backend(source: str | Path | CatalogBackend) -> CatalogBackend:
    """Open an existing catalog and validate its schema version.

    ``source`` may be a backend instance (validated and returned as-is) or the
    path of a sqlite catalog file.
    """
    if isinstance(source, CatalogBackend):
        source.check_schema_version()
        return source
    detect_kind(source)
    backend = SQLiteBackend(source)
    try:
        backend.check_schema_version()
    except StorageError:
        backend.close()
        raise
    return backend


def atomic_persist(path: str | Path, writer) -> Path:
    """Write a sqlite catalog to ``path`` atomically via a sibling temp file.

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
        with SQLiteBackend(scratch) as backend:
            writer(backend)
            # close() swallows commit errors; a half-written temp file must
            # never replace the catalog.
            backend.flush()
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return target
