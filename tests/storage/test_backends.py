"""Backend contract, factory inference, file checks, atomic persistence.

Every concrete :class:`~repro.storage.CatalogBackend` must behave identically
through the blob/metadata interface; the factory must pick sqlite for a path
and memory without one, and refuse files that are not sqlite catalogs.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError, StorageError
from repro.storage import (
    MEMORY,
    SCHEMA_VERSION,
    SQLITE,
    InMemoryBackend,
    SQLiteBackend,
    atomic_persist,
    create_backend,
    detect_kind,
    open_backend,
)


@pytest.fixture(params=[MEMORY, SQLITE])
def backend(request, tmp_path):
    if request.param == MEMORY:
        built = InMemoryBackend()
    else:
        built = SQLiteBackend(tmp_path / "cat.sqlite")
    yield built
    built.close()


def test_storage_error_is_a_repro_error():
    assert issubclass(StorageError, ReproError)


class TestBackendContract:
    def test_blob_round_trip_and_overwrite(self, backend):
        assert backend.get("tables", "a") is None
        backend.put("tables", "a", b"payload-1")
        assert backend.get("tables", "a") == b"payload-1"
        backend.put("tables", "a", b"payload-2")
        assert backend.get("tables", "a") == b"payload-2"

    def test_keys_are_sorted_per_namespace(self, backend):
        backend.put("tables", "zeta", b"z")
        backend.put("tables", "alpha", b"a")
        backend.put("offline", "state", b"s")
        assert backend.keys("tables") == ["alpha", "zeta"]
        assert backend.keys("missing") == []
        assert backend.namespaces() == ["offline", "tables"]

    def test_delete_is_idempotent(self, backend):
        backend.put("tables", "a", b"x")
        backend.delete("tables", "a")
        backend.delete("tables", "a")
        assert backend.get("tables", "a") is None

    def test_meta_round_trip(self, backend):
        backend.put_meta("answer", {"value": 42, "nested": [1, "two"]})
        assert backend.get_meta("answer") == {"value": 42, "nested": [1, "two"]}
        assert backend.get_meta("missing", "fallback") == "fallback"

    def test_non_json_meta_raises(self, backend):
        with pytest.raises(StorageError):
            backend.put_meta("bad", object())

    def test_schema_version_lifecycle(self, backend):
        with pytest.raises(StorageError):
            backend.check_schema_version()
        backend.initialize()
        assert backend.check_schema_version() == SCHEMA_VERSION
        backend.put_meta("schema_version", SCHEMA_VERSION + 99)
        with pytest.raises(StorageError):
            backend.check_schema_version()

    def test_describe_counts_namespaces(self, backend):
        backend.initialize()
        backend.put("tables", "a", b"x")
        summary = backend.describe()
        assert summary["kind"] == backend.kind
        assert summary["schema_version"] == SCHEMA_VERSION
        assert summary["namespaces"] == {"tables": 1}

    def test_initialize_returns_its_keys_and_can_keep_created(self, backend):
        keys = backend.initialize()
        assert sorted(keys) == backend.meta_keys()
        backend.put_meta("created", "earlier")
        assert backend.initialize(created=False) == keys
        assert backend.get_meta("created") == "earlier"

    def test_meta_keys_and_delete(self, backend):
        backend.put_meta("b", 1)
        backend.put_meta("a", 2)
        assert backend.meta_keys() == ["a", "b"]
        backend.delete_meta("b")
        backend.delete_meta("b")
        assert backend.meta_keys() == ["a"]
        assert backend.get_meta("b") is None

    def test_transaction_commits_once_or_rolls_back(self, backend):
        backend.put("tables", "kept", b"before")
        backend.put_meta("note", "before")
        with backend.transaction():
            backend.put("tables", "kept", b"after")
        assert backend.get("tables", "kept") == b"after"
        with pytest.raises(StorageError, match="mid-transaction"):
            with backend.transaction():
                backend.put("tables", "kept", b"lost")
                backend.put("offline", "new", b"lost")
                backend.delete_meta("note")
                raise StorageError("mid-transaction")
        assert backend.get("tables", "kept") == b"after"
        assert backend.namespaces() == ["tables"]
        assert backend.get_meta("note") == "before"

    def test_context_manager_closes(self, backend):
        with backend as inside:
            inside.put("tables", "a", b"x")
        if backend.kind != MEMORY:
            with pytest.raises(StorageError):
                backend.get("tables", "a")


class TestDiskPersistence:
    def test_blobs_survive_reopen(self, tmp_path):
        path = tmp_path / "cat.sqlite"
        with create_backend(path) as backend:
            backend.initialize()
            backend.put("tables", "a", b"\x00\xffbinary")
            backend.flush()
        with open_backend(path) as reopened:
            assert reopened.kind == SQLITE
            assert reopened.get("tables", "a") == b"\x00\xffbinary"

    def test_detect_kind_sniffs_sqlite(self, tmp_path):
        path = tmp_path / "cat"
        with create_backend(path) as backend:
            backend.initialize()
        assert detect_kind(path) == SQLITE

    def test_detect_kind_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="no catalog"):
            detect_kind(tmp_path / "absent")

    def test_detect_kind_directory(self, tmp_path):
        with pytest.raises(StorageError, match="directory"):
            detect_kind(tmp_path)

    def test_detect_kind_garbage_file(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"definitely not a database header")
        with pytest.raises(StorageError, match="not a recognised catalog"):
            detect_kind(path)

    def test_opening_a_duckdb_file_is_a_hard_error(self, tmp_path):
        # A catalog written by the removed duckdb engine is refused, not misread.
        path = tmp_path / "cat.duckdb"
        path.write_bytes(b"\x00" * 8 + b"DUCK" + b"\x00" * 52)
        with pytest.raises(StorageError, match="not a recognised catalog"):
            open_backend(path)

    def test_open_backend_rejects_uninitialised_file(self, tmp_path):
        path = tmp_path / "empty"
        with create_backend(path):
            pass  # valid sqlite file, but never stamped as a catalog
        with pytest.raises(StorageError, match="not a marketplace catalog"):
            open_backend(path)

    def test_open_backend_passes_instances_through(self):
        backend = InMemoryBackend()
        backend.initialize()
        assert open_backend(backend) is backend


class TestFactoryInference:
    def test_no_kind_no_path_is_memory(self):
        assert isinstance(create_backend(), InMemoryBackend)

    def test_no_kind_with_path_is_sqlite(self, tmp_path):
        with create_backend(path=tmp_path / "cat") as backend:
            assert isinstance(backend, SQLiteBackend)


class TestAtomicPersist:
    def test_writes_and_returns_target(self, tmp_path):
        target = tmp_path / "cat"

        def writer(backend):
            backend.initialize()
            backend.put("tables", "a", b"x")

        assert atomic_persist(target, writer) == target
        with open_backend(target) as backend:
            assert backend.get("tables", "a") == b"x"

    def test_failed_writer_keeps_the_previous_catalog(self, tmp_path):
        target = tmp_path / "cat"

        def good(backend):
            backend.initialize()
            backend.put("tables", "a", b"original")

        atomic_persist(target, good)

        def bad(backend):
            backend.initialize()
            backend.put("tables", "a", b"partial")
            raise RuntimeError("mid-write crash")

        with pytest.raises(RuntimeError):
            atomic_persist(target, bad)
        with open_backend(target) as backend:
            assert backend.get("tables", "a") == b"original"
        assert [p.name for p in tmp_path.iterdir()] == ["cat"]  # no temp leftovers

    def test_missing_parent_directory_is_a_typed_error(self, tmp_path):
        with pytest.raises(StorageError, match="does not exist"):
            atomic_persist(tmp_path / "absent" / "cat", lambda backend: None)
