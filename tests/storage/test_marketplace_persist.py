"""Marketplace persist/open: lazy hydration, encoding rehydration, atomicity.

The contracts under test: ``persist() -> Marketplace.open()`` reproduces the
free catalog bit-for-bit (in hosting order); reopened datasets stay lazy until
their table is touched and come back with their dictionary encodings
*rehydrated* rather than re-encoded; checkpointing a lazy catalog never forces
hydration; an interrupted persist never corrupts an existing catalog; and
missing/corrupt catalogs fail with typed ``StorageError``s.
"""

from __future__ import annotations

import pytest

from repro.exceptions import StorageError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.pricing.models import EntropyPricingModel
from repro.relational.table import Table
from repro.storage import (
    NS_TABLES,
    InMemoryBackend,
    StoredDataset,
    create_backend,
)


def small_marketplace() -> Marketplace:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    facts = Table.from_rows(
        "facts",
        ["good_key", "bad_key", "measure"],
        [(i % 10, i % 3, float(i % 8) * 10 + i % 3) for i in range(64)],
    )
    dims = Table.from_rows(
        "dims",
        ["good_key", "bad_key", "label"],
        [(i, i % 2, f"lbl{i}") for i in range(8)],
    )
    extra = Table.from_rows(
        "extra",
        ["bad_key", "bonus"],
        [(i % 3, float(i)) for i in range(12)],
    )
    for table in (facts, dims, extra):
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))
    return marketplace


def rows_of(table: Table) -> list[tuple]:
    return list(table.iter_rows())


class TestRoundTrip:
    def test_catalog_is_bit_identical_in_hosting_order(self, tmp_path):
        market = small_marketplace()
        market.persist(tmp_path / "cat")
        reopened = Marketplace.open(tmp_path / "cat")
        assert reopened.dataset_names == market.dataset_names
        assert reopened.catalog() == market.catalog()
        assert reopened.sample_row_price == market.sample_row_price

    def test_datasets_stay_lazy_until_touched(self, tmp_path):
        small_marketplace().persist(tmp_path / "cat")
        reopened = Marketplace.open(tmp_path / "cat")
        dataset = reopened.dataset("facts")
        assert isinstance(dataset, StoredDataset)
        assert not dataset.hydrated
        # The schema surface never touches the table blob.
        assert dataset.num_rows == 64
        assert "measure" in dataset.schema
        assert not dataset.hydrated
        assert rows_of(dataset.table) == rows_of(
            small_marketplace().dataset("facts").table
        )
        assert dataset.hydrated

    def test_encodings_are_rehydrated_not_reencoded(self, tmp_path):
        market = small_marketplace()
        original = market.dataset("facts").table
        original.encoded_key(("good_key",))  # populate the lazy encoding cache
        market.persist(tmp_path / "cat")
        table = Marketplace.open(tmp_path / "cat").dataset("facts").table
        # The persisted encoding is installed at hydration time, before any
        # kernel asks for it — rehydrated, not recomputed.
        assert ("good_key",) in table._encodings
        assert table.encoded_key(("good_key",)).codes == original.encoded_key(
            ("good_key",)
        ).codes

    def test_repersisting_a_lazy_catalog_does_not_hydrate(self, tmp_path):
        small_marketplace().persist(tmp_path / "cat")
        reopened = Marketplace.open(tmp_path / "cat")
        reopened.persist(tmp_path / "copy")
        assert not any(
            dataset.hydrated for dataset in map(reopened.dataset, reopened.dataset_names)
        )
        copy = Marketplace.open(tmp_path / "copy")
        assert copy.catalog() == reopened.catalog()
        assert rows_of(copy.dataset("dims").table) == rows_of(
            small_marketplace().dataset("dims").table
        )


class TestInMemoryBackend:
    def test_attach_and_persist_in_place(self):
        market = small_marketplace()
        backend = market.attach_storage()
        assert isinstance(backend, InMemoryBackend)
        market.persist()
        reopened = Marketplace.open(backend)
        assert reopened.catalog() == market.catalog()

    def test_repersist_clears_and_rewrites(self):
        market = small_marketplace()
        market.persist()  # attaches a fresh in-memory backend
        backend = market.storage
        market.remove("extra")
        market.persist()
        assert market.storage is backend
        assert Marketplace.open(backend).dataset_names == market.dataset_names


class TestAtomicity:
    def test_failed_persist_keeps_the_previous_catalog(self, tmp_path):
        market = small_marketplace()
        market.persist(tmp_path / "cat")
        before = Marketplace.open(tmp_path / "cat").catalog()

        def explode(backend):
            raise RuntimeError("simulated crash inside the atomic write")

        with pytest.raises(RuntimeError):
            small_marketplace().persist(tmp_path / "cat", extra=explode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cat"]
        assert Marketplace.open(tmp_path / "cat").catalog() == before

    def test_persist_into_missing_directory_is_typed(self, tmp_path):
        with pytest.raises(StorageError, match="does not exist"):
            small_marketplace().persist(tmp_path / "absent" / "cat")


class TestTypedOpenErrors:
    def test_missing_catalog(self, tmp_path):
        with pytest.raises(StorageError, match="no catalog"):
            Marketplace.open(tmp_path / "absent")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"this is not any kind of database")
        with pytest.raises(StorageError, match="not a recognised catalog"):
            Marketplace.open(path)

    def test_catalog_without_a_marketplace(self, tmp_path):
        path = tmp_path / "cat"
        with create_backend(path) as backend:
            backend.initialize()  # versioned, but no marketplace metadata
        with pytest.raises(StorageError, match="holds no marketplace"):
            Marketplace.open(path)

    def test_missing_table_blob_fails_at_hydration(self, tmp_path):
        small_marketplace().persist(tmp_path / "cat")
        market = Marketplace.open(tmp_path / "cat")
        market.storage.delete(NS_TABLES, "facts")
        with pytest.raises(StorageError, match="no table data"):
            market.dataset("facts").table
