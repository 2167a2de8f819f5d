"""In-place checkpoints: the catalog a full rewrite would leave, all or nothing.

A service checkpoints its attached catalog after every write.  Once a
checkpoint has written the catalog, the next one rewrites it in place, in one
backend transaction that puts only the blobs whose bytes changed.  The
contracts under test:

* after any sequence of writes, reads and restarts, every payload and every
  metadata value but the creation stamp equals a full rewrite of the same
  state into a fresh catalog, and a service reopened from the catalog serves
  the live service's answers with zero JI computations;
* a source-table write puts no table, encoding or dataset-record blob, and the
  summary counts the blobs it put;
* a fault mid-checkpoint, a failed commit included, leaves the catalog's
  bytes as they were, and a file deleted or overwritten behind the service's
  back is rewritten whole.
"""

from __future__ import annotations

import contextlib
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DanceConfig, ServiceConfig
from repro.exceptions import ReproError, StorageError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService
from repro.storage import (
    META_CREATED,
    MEMORY,
    NS_OFFLINE,
    SQLITE,
    InMemoryBackend,
    open_backend,
)
from repro.storage.checkpoint import CheckpointWriter

from tests.storage.test_marketplace_persist import small_marketplace

REQUESTS = [
    AcquisitionRequest(source_attributes=["measure"], target_attributes=["label"], budget=1e9),
    AcquisitionRequest(source_attributes=["bonus"], target_attributes=["label"], budget=1e9),
    AcquisitionRequest(source_attributes=["aux_v"], target_attributes=["measure"], budget=1e9),
]


def source_table(name: str, dirty: bool) -> Table:
    """A shopper instance: ``mine`` is new to the graph, ``extra`` replaces a hosted one."""
    if name == "mine":
        rows = [(i % 3, (i * 7) % 5 if dirty else i) for i in range(10)]
        return Table.from_rows("mine", ["bad_key", "mine_x"], rows)
    rows = [((i + dirty) % 3, float(i % 4)) for i in range(12)]
    return Table.from_rows("extra", ["bad_key", "bonus"], rows)


def aux_table() -> Table:
    return Table.from_rows("aux", ["good_key", "aux_v"], [(i % 10, i % 4) for i in range(20)])


def config(catalog: Path | None = None) -> DanceConfig:
    return DanceConfig(
        sampling_rate=1.0,
        mcmc=MCMCConfig(iterations=30, seed=0),
        service=ServiceConfig(catalog_path=None if catalog is None else str(catalog)),
    )


def catalog_state(backend) -> tuple[dict, dict]:
    """Every ``(namespace, key)`` payload and every metadata value but ``created``."""
    blobs = {
        (namespace, key): backend.get(namespace, key)
        for namespace in backend.namespaces()
        for key in backend.keys(namespace)
    }
    meta = {key: backend.get_meta(key) for key in backend.meta_keys() if key != META_CREATED}
    return blobs, meta


def file_state(path: Path) -> tuple[dict, dict]:
    with open_backend(path) as backend:
        return catalog_state(backend)


def answer(service: AcquisitionService, request: AcquisitionRequest, seed: int):
    """``(key, result)``: the served bits (or the error's type) and the result."""
    try:
        result = service.acquire(request, seed=seed)
    except ReproError as error:
        return (type(error).__name__,), None
    key = (
        result.estimated_correlation.hex(),
        result.estimated_quality.hex(),
        result.estimated_price.hex(),
        tuple(result.sql()),
    )
    return key, result


class Harness:
    """A live service checkpointing in place, and a twin rewritten in full.

    Both see the same writes, reads and restarts, so they hold the same
    state; the twin persists into a fresh catalog each time, which is what
    the live catalog must equal.
    """

    def __init__(self, kind: str, scratch: Path) -> None:
        self.kind = kind
        self.scratch = scratch
        self.path = scratch / "live.cat" if kind == SQLITE else None
        live_market = small_marketplace()
        if kind == MEMORY:
            live_market.attach_storage(InMemoryBackend())
        self.live = AcquisitionService(live_market, config(self.path))
        self.twin = AcquisitionService(small_marketplace(), config())
        self.sources: dict[str, bool] = {}
        self.rewrites = 0
        self.live.persist()

    def close(self) -> None:
        for service in (self.live, self.twin):
            service.close()
            if service.dance.marketplace.storage is not None:
                service.dance.marketplace.storage.close()

    # ----------------------------------------------------------------- writes
    def register(self, name: str, dirty: bool) -> None:
        self.sources[name] = dirty
        summary = self.live.register_source_tables([source_table(name, dirty)])
        self.twin.register_source_tables([source_table(name, dirty)])
        if self.kind == SQLITE:
            assert summary["checkpointed"] is True
        else:
            self.live.persist()

    def restart(self) -> None:
        """Reopen both sides from their catalogs and checkpoint each into its own.

        The checkpoint adopts the catalog's session caches first; the live
        side's later checkpoints then run in place over lazily opened
        datasets.
        """
        sources = [
            source_table(name, self.sources[name]) for name in self.live.dance._source_tables
        ]
        self.live = reopen(self.live, self.path, sources)
        self.twin = reopen(self.twin, None, sources)
        for service in (self.live, self.twin):
            service.persist()

    def toggle_aux(self) -> None:
        for service in (self.live, self.twin):
            market = service.dance.marketplace
            if "aux" in market:
                market.remove("aux")
            else:
                market.host(MarketplaceDataset(table=aux_table(), pricing=market.pricing))
            service.rebuild_offline()
        self.live.persist()

    # ------------------------------------------------------------------ reads
    def serve(self, request: AcquisitionRequest, seed: int) -> tuple:
        """Serve on both sides, buying the recommended queries (grows encodings)."""
        served = []
        for service in (self.live, self.twin):
            key, result = answer(service, request, seed)
            if result is not None:
                service.dance.marketplace.execute_all(result.queries)
            served.append(key)
        assert served[0] == served[1]
        return served[0]

    # ---------------------------------------------------------------- oracles
    def full_rewrite(self, persist) -> tuple[dict, dict]:
        """The twin's state, written in full into a fresh catalog by ``persist``."""
        self.rewrites += 1
        if self.kind == SQLITE:
            target = self.scratch / f"full{self.rewrites}.cat"
            persist(target)
            return file_state(target)
        # A fresh catalog; datasets the twin opened lazily read the catalog
        # they came from until the write attaches the new one.
        self.twin.dance.marketplace._storage = InMemoryBackend()
        return catalog_state(persist(None))

    def live_state(self) -> tuple[dict, dict]:
        if self.kind == SQLITE:
            return file_state(self.path)
        return catalog_state(self.live.dance.marketplace.storage)

    def assert_equals_full_rewrite(self, dance_only: bool = False) -> None:
        if dance_only:
            self.live.dance.persist()
            expected = self.full_rewrite(lambda target: self.twin.dance.persist(target))
        else:
            expected = self.full_rewrite(lambda target: self.twin.persist(target))
        assert self.live_state() == expected

    def assert_reopens_warm(self) -> None:
        source = self.path if self.kind == SQLITE else self.live.dance.marketplace.storage
        opened = Marketplace.open(source)
        sources = [
            source_table(name, self.sources[name]) for name in self.live.dance._source_tables
        ]
        with AcquisitionService(opened, config(), source_tables=sources) as reopened:
            assert reopened.join_graph.ji_computations == 0
            for request in REQUESTS:
                assert answer(reopened, request, 0)[0] == self.serve(request, 0)
        if self.kind == SQLITE:
            opened.storage.close()


def reopen(service: AcquisitionService, catalog: Path | None, sources: list[Table]):
    """A service over ``Marketplace.open`` of ``service``'s catalog, which is closed."""
    storage = service.dance.marketplace.storage
    service.close()
    if storage.path is not None:
        storage.close()
    opened = Marketplace.open(storage if storage.path is None else storage.path)
    return AcquisitionService(opened, config(catalog), source_tables=sources)


WRITE = st.tuples(
    st.sampled_from(["mine", "extra", "aux", "restart"]),
    st.booleans(),  # dirty source variant
    st.booleans(),  # also checkpoint through DANCE alone (no session namespace)
    st.lists(st.tuples(st.integers(0, len(REQUESTS) - 1), st.integers(0, 3)), max_size=2),
)


@pytest.mark.parametrize("kind", [SQLITE, MEMORY])
@given(writes=st.lists(WRITE, min_size=1, max_size=4))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_in_place_checkpoint_equals_a_full_rewrite(kind, writes):
    with tempfile.TemporaryDirectory() as scratch:
        harness = Harness(kind, Path(scratch))
        try:
            harness.assert_equals_full_rewrite()
            for target, dirty, dance_only, reads in writes:
                if target == "aux":
                    harness.toggle_aux()
                elif target == "restart":
                    harness.restart()
                else:
                    harness.register(target, dirty)
                harness.assert_equals_full_rewrite()
                harness.assert_reopens_warm()
                if dance_only:
                    harness.assert_equals_full_rewrite(dance_only=True)
                for request, seed in reads:
                    harness.serve(REQUESTS[request], seed)
        finally:
            harness.close()


def blob_count(path: Path) -> int:
    with open_backend(path) as backend:
        return sum(len(backend.keys(namespace)) for namespace in backend.namespaces())


def reopen_and_serve(path: Path, sources: list[Table]) -> tuple:
    opened = Marketplace.open(path)
    try:
        with AcquisitionService(opened, config(), source_tables=sources) as warm:
            assert warm.join_graph.ji_computations == 0
            return answer(warm, REQUESTS[0], 0)[0]
    finally:
        opened.storage.close()


class TestCheckpointBlobs:
    @pytest.mark.parametrize("name", ["mine", "extra"])
    def test_source_write_puts_no_table_encoding_or_dataset_blob(self, tmp_path, name):
        path = tmp_path / "cat"
        with AcquisitionService(small_marketplace(), config(path)) as service:
            service.persist()
            assert service.dance.marketplace.checkpoint_blobs == blob_count(path)
            service.acquire(REQUESTS[0])
            backend = service.dance.marketplace.storage
            put, original = [], backend.put

            def recording_put(namespace, key, payload):
                put.append(namespace)
                original(namespace, key, payload)

            backend.put = recording_put
            summary = service.register_source_tables([source_table(name, dirty=True)])
        assert summary["checkpointed"] is True
        assert summary["checkpoint_blobs"] == len(put) > 0
        assert set(put) == {NS_OFFLINE}


def test_lazily_opened_catalog_checkpoints_as_a_full_rewrite(tmp_path):
    """Datasets still in the catalog keep their blobs; a hydrated one is re-serialised."""
    path = tmp_path / "cat"
    small_marketplace().persist(path)
    market = Marketplace.open(path)
    try:
        market.persist()  # a merely opened catalog: rewritten whole
        market.persist()
        assert market.checkpoint_blobs == 0
        market.dataset("dims").table.key_entropy(["good_key", "bad_key"])
        market.persist()
        assert market.checkpoint_blobs > 0
        assert not market.dataset("facts").hydrated
        in_place = file_state(path)
        market.persist(tmp_path / "full")
        assert in_place == file_state(tmp_path / "full")
    finally:
        market.storage.close()


def install_commit_fault(monkeypatch, scope: str) -> dict[str, bool]:
    """Make sqlite commits fail, as on a full disk, while the returned flag is on.

    ``scope`` is ``"temp"`` for only the sibling temp file a full rewrite
    fills, ``"all"`` for every catalog file.  A commit with nothing pending
    still succeeds, so catalogs keep opening.
    """
    fault = {"on": False}
    connect = sqlite3.connect

    class Connection(sqlite3.Connection):
        temp = False

        def commit(self) -> None:
            if fault["on"] and self.in_transaction and (scope == "all" or self.temp):
                raise sqlite3.OperationalError("database or disk is full")
            super().commit()

    def connect_with_fault(database, *args, **kwargs):
        connection = connect(database, *args, factory=Connection, **kwargs)
        connection.temp = ".tmp" in Path(database).name
        return connection

    monkeypatch.setattr(sqlite3, "connect", connect_with_fault)
    return fault


class TestCheckpointFaults:
    @pytest.mark.parametrize("scope", ["temp", "all"])
    def test_failed_commit_leaves_the_catalog_bytes(self, tmp_path, monkeypatch, scope):
        """``temp``: a reopened service's first checkpoint rewrites the file in
        full and cannot commit the temp file.  ``all``: the in-place commit
        fails too, and so does the full rewrite it falls back to."""
        path = tmp_path / "cat"
        fault = install_commit_fault(monkeypatch, scope)
        service = AcquisitionService(small_marketplace(), config(path))
        service.persist()
        service.register_source_tables([source_table("mine", False)])
        if scope == "temp":
            service = reopen(service, path, [source_table("mine", False)])
        try:
            before = path.read_bytes()
            fault["on"] = True
            with pytest.warns(RuntimeWarning) as warned:
                summary = service.register_source_tables([source_table("extra", True)])
            fault["on"] = False
            messages = " | ".join(str(warning.message) for warning in warned)
            assert "session checkpoint failed" in messages
            assert ("in-place checkpoint failed" in messages) == (scope == "all")
            assert summary["checkpointed"] is False
            assert summary["checkpoint_blobs"] == 0
            assert path.read_bytes() == before
            assert sorted(entry.name for entry in tmp_path.iterdir()) == ["cat"]

            summary = service.register_source_tables([source_table("extra", False)])
            assert summary["checkpointed"] is True
            expected = answer(service, REQUESTS[0], 0)[0]
        finally:
            service.close()
            service.dance.marketplace.storage.close()
        sources = [source_table("mine", False), source_table("extra", False)]
        assert reopen_and_serve(path, sources) == expected

    def test_failing_offline_writer_leaves_the_catalog_bytes(self, tmp_path, monkeypatch):
        """The offline state is the last namespace a checkpoint writes."""
        path = tmp_path / "cat"
        original = CheckpointWriter.put

        def failing_put(writer, namespace, key, payload):
            if namespace == NS_OFFLINE:
                raise StorageError("offline writer failed mid-checkpoint")
            original(writer, namespace, key, payload)

        with AcquisitionService(small_marketplace(), config(path)) as service:
            service.persist()
            service.acquire(REQUESTS[0])
            service.register_source_tables([source_table("mine", False)])
            before = path.read_bytes()
            monkeypatch.setattr(CheckpointWriter, "put", failing_put)
            with pytest.warns(RuntimeWarning, match="checkpoint failed"):
                summary = service.register_source_tables([source_table("mine", True)])
            monkeypatch.undo()
            assert summary["checkpointed"] is False
            assert summary["checkpoint_blobs"] == 0
            assert path.read_bytes() == before
            assert sorted(entry.name for entry in tmp_path.iterdir()) == ["cat"]

            summary = service.register_source_tables([source_table("extra", True)])
            assert summary["checkpointed"] is True
            expected = answer(service, REQUESTS[0], 0)[0]
        sources = [source_table("mine", True), source_table("extra", True)]
        assert reopen_and_serve(path, sources) == expected

    @pytest.mark.parametrize("fault", ["deleted", "garbage"])
    def test_catalog_changed_behind_the_service_is_rewritten_whole(self, tmp_path, fault):
        path = tmp_path / "cat"
        with AcquisitionService(small_marketplace(), config(path)) as service:
            service.persist()
            service.register_source_tables([source_table("mine", False)])
            if fault == "deleted":
                path.unlink()
                retried = contextlib.nullcontext()
            else:
                path.write_bytes(b"garbage, not a catalog")
                retried = pytest.warns(RuntimeWarning, match="in-place checkpoint failed")
            with retried:
                summary = service.register_source_tables([source_table("extra", True)])
            assert summary["checkpointed"] is True
            assert summary["checkpoint_blobs"] == blob_count(path)
            expected = answer(service, REQUESTS[0], 0)[0]
        sources = [source_table("mine", False), source_table("extra", True)]
        assert reopen_and_serve(path, sources) == expected
