"""The marketplace: catalog, sample service, and billed projection queries."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.exceptions import MarketplaceError, StorageError
from repro.marketplace.dataset import MarketplaceDataset
from repro.pricing.models import EntropyPricingModel, PricingModel
from repro.relational.table import Table
from repro.sampling.correlated import CorrelatedSampler

if TYPE_CHECKING:  # repro.storage imports this module; runtime imports are lazy
    from repro.storage import CatalogBackend
    from repro.storage.checkpoint import CheckpointWriter

#: Reserved key in the datasets namespace holding the pickled default pricing
#: model (dataset names never start with ``#``, matching the table-encoding
#: key convention).
_DEFAULT_PRICING_KEY = "#default_pricing"


@dataclass(frozen=True)
class ProjectionQuery:
    """A SQL projection query ``SELECT <attributes> FROM <dataset>``.

    This is the purchase unit of the query-based pricing model: DANCE's output
    is a set of projection queries, and the shopper sends them to the
    marketplace to receive (and pay for) the projected instances.
    """

    dataset: str
    attributes: tuple[str, ...]

    def __init__(self, dataset: str, attributes: Sequence[str]) -> None:
        object.__setattr__(self, "dataset", dataset)
        object.__setattr__(self, "attributes", tuple(attributes))

    def to_sql(self) -> str:
        """The SQL text of the query."""
        columns = ", ".join(self.attributes) if self.attributes else "*"
        return f"SELECT {columns} FROM {self.dataset};"

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class PurchaseReceipt:
    """The outcome of executing one billed projection query."""

    query: ProjectionQuery
    price: float
    result: Table


@dataclass
class _Checkpoint:
    """What the attached catalog holds, as of the last checkpoint into it.

    ``tokens`` maps each dataset to what its blobs were serialised from
    (:func:`_dataset_token`), ``digests`` maps every blob to the digest the
    :class:`~repro.storage.checkpoint.CheckpointWriter` recorded, ``file_id``
    is the ``(st_dev, st_ino)`` of the catalog file the backend's connection
    holds (``None`` in memory) and ``puts`` counts the blobs the write put.
    None of it holds a serialised blob.
    """

    backend: "CatalogBackend"
    file_id: tuple[int, int] | None
    tokens: dict[str, tuple]
    digests: dict[tuple[str, str], bytes]
    puts: int


def _dataset_token(dataset: MarketplaceDataset) -> tuple:
    """What a dataset's catalog blobs are serialised from.

    The record's objects by identity — the dataset, its table (``None`` while
    a lazy table is still in the catalog), pricing, FDs and description —
    and the table's :func:`~repro.storage.serialize.encodings_state`.
    Tables are immutable by convention and their caches only grow, so an
    equal token means equal blobs.
    """
    from repro.storage import StoredDataset
    from repro.storage.serialize import encodings_state

    if isinstance(dataset, StoredDataset) and not dataset.hydrated:
        table, state = None, (0, 0)
    else:
        table = dataset.table
        state = encodings_state(table)
    return (dataset, table, dataset.pricing, dataset.fds, dataset.description), state


def _same_token(before: tuple | None, now: tuple) -> bool:
    return (
        before is not None
        and all(old is new for old, new in zip(before[0], now[0]))
        and before[1] == now[1]
    )


def _file_id(path: Path) -> tuple[int, int] | None:
    """``(st_dev, st_ino)`` of the file at ``path``, or ``None`` when there is none."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return status.st_dev, status.st_ino


class Marketplace:
    """An in-process data marketplace hosting :class:`MarketplaceDataset` objects.

    The marketplace offers three services used by DANCE and the shopper:

    * :meth:`catalog` — free schema-level metadata for every hosted dataset;
    * :meth:`sell_sample` — correlated samples at a per-row sample price
      (DANCE pays for samples during the offline phase);
    * :meth:`execute` — billed execution of projection queries (the shopper's
      actual data purchase during the online phase).
    """

    def __init__(
        self,
        datasets: Iterable[MarketplaceDataset | Table] = (),
        *,
        default_pricing: PricingModel | None = None,
        sample_row_price: float = 0.001,
    ) -> None:
        self._default_pricing = default_pricing or EntropyPricingModel()
        self._datasets: dict[str, MarketplaceDataset] = {}
        self.sample_row_price = sample_row_price
        self.sample_revenue = 0.0
        self.query_revenue = 0.0
        self._storage: "CatalogBackend | None" = None
        self._checkpoint: _Checkpoint | None = None
        for dataset in datasets:
            self.host(dataset)

    @property
    def pricing(self) -> PricingModel:
        """The marketplace's default pricing model (applied to bare hosted tables).

        ``_default_pricing`` remains available as a private alias for backwards
        compatibility; new code should use this property.
        """
        return self._default_pricing

    # ------------------------------------------------------------------ hosting
    def host(self, dataset: MarketplaceDataset | Table) -> MarketplaceDataset:
        """Add a dataset to the marketplace (wrapping bare tables with default pricing)."""
        if isinstance(dataset, Table):
            dataset = MarketplaceDataset(table=dataset, pricing=self._default_pricing)
        if dataset.name in self._datasets:
            raise MarketplaceError(f"dataset {dataset.name!r} is already hosted")
        self._datasets[dataset.name] = dataset
        return dataset

    def remove(self, name: str) -> None:
        if name not in self._datasets:
            raise MarketplaceError(f"unknown dataset {name!r}")
        del self._datasets[name]

    # ------------------------------------------------------------------ catalog
    @property
    def dataset_names(self) -> tuple[str, ...]:
        return tuple(self._datasets)

    def __len__(self) -> int:
        return len(self._datasets)

    def __contains__(self, name: object) -> bool:
        return name in self._datasets

    def dataset(self, name: str) -> MarketplaceDataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise MarketplaceError(
                f"unknown dataset {name!r}; hosted: {sorted(self._datasets)}"
            ) from None

    def catalog(self) -> list[dict[str, object]]:
        """Free schema-level metadata of every hosted dataset."""
        return [dataset.catalog_entry() for dataset in self._datasets.values()]

    def shared_attribute_map(self) -> dict[str, tuple[str, ...]]:
        """Per dataset, the attributes that also appear in at least one other dataset.

        These are the candidate join attributes, derivable from the free
        schema-level catalog; correlated sampling should key on them so that
        joinable rows survive sampling together.  Datasets with no shared
        attribute map to their full attribute set (plain row sampling).
        """
        occurrence: dict[str, int] = {}
        for dataset in self._datasets.values():
            for attribute in dataset.schema.names:
                occurrence[attribute] = occurrence.get(attribute, 0) + 1
        mapping: dict[str, tuple[str, ...]] = {}
        for name, dataset in self._datasets.items():
            shared = tuple(a for a in dataset.schema.names if occurrence[a] > 1)
            mapping[name] = shared if shared else dataset.schema.names
        return mapping

    # ------------------------------------------------------------------ samples
    def sell_sample(
        self,
        name: str,
        sampler: CorrelatedSampler,
        join_attributes: Sequence[str] | None = None,
    ) -> tuple[Table, float]:
        """Sell a correlated sample of dataset ``name``.

        Returns the sample and its price (``sample_row_price`` per sampled row).
        The sample is drawn over ``join_attributes`` (default: all attributes of
        the dataset, which behaves like uniform row sampling keyed by rows).
        """
        dataset = self.dataset(name)
        attrs = list(join_attributes) if join_attributes else list(dataset.schema.names)
        sample = sampler.sample(dataset.table, attrs, name=f"{name}")
        price = self.sample_row_price * len(sample)
        self.sample_revenue += price
        return sample, price

    def sell_samples(
        self,
        sampler: CorrelatedSampler,
        join_attributes_by_dataset: Mapping[str, Sequence[str]] | None = None,
        names: Sequence[str] | None = None,
    ) -> tuple[dict[str, Table], float]:
        """Sell correlated samples of several (default: all) datasets."""
        mapping = join_attributes_by_dataset or {}
        chosen = list(names) if names is not None else list(self._datasets)
        samples: dict[str, Table] = {}
        total = 0.0
        for name in chosen:
            sample, price = self.sell_sample(name, sampler, mapping.get(name))
            samples[name] = sample
            total += price
        return samples, total

    # ------------------------------------------------------------------ queries
    def price_query(self, query: ProjectionQuery) -> float:
        """Price of a projection query without executing it."""
        dataset = self.dataset(query.dataset)
        return dataset.price_of(query.attributes)

    def price_queries(self, queries: Iterable[ProjectionQuery]) -> float:
        return sum(self.price_query(query) for query in queries)

    def execute(self, query: ProjectionQuery) -> PurchaseReceipt:
        """Execute one billed projection query and return data + receipt."""
        dataset = self.dataset(query.dataset)
        missing = [a for a in query.attributes if a not in dataset.schema]
        if missing:
            raise MarketplaceError(
                f"dataset {query.dataset!r} has no attributes {missing}; "
                f"available: {list(dataset.schema.names)}"
            )
        price = dataset.price_of(query.attributes)
        result = dataset.table.project(query.attributes, name=query.dataset)
        self.query_revenue += price
        return PurchaseReceipt(query=query, price=price, result=result)

    def execute_all(self, queries: Sequence[ProjectionQuery]) -> list[PurchaseReceipt]:
        return [self.execute(query) for query in queries]

    # ------------------------------------------------------------------ storage
    @property
    def storage(self) -> "CatalogBackend | None":
        """The attached catalog backend, or ``None`` (pure in-RAM marketplace)."""
        return self._storage

    def attach_storage(
        self,
        backend: "CatalogBackend | None" = None,
        *,
        path: str | Path | None = None,
    ) -> "CatalogBackend":
        """Attach a catalog backend to this marketplace.

        Without a ``backend`` instance, a ``path`` attaches a sqlite catalog
        there and no ``path`` an in-memory one.  Attaching alone writes
        nothing — call :meth:`persist` to checkpoint the marketplace into it.
        """
        from repro import storage as _storage

        if backend is None:
            backend = _storage.create_backend(path)
        self._attach(backend)
        return backend

    def _attach(self, backend: "CatalogBackend") -> None:
        from repro.storage import StoredDataset

        self._storage = backend
        # Re-point lazy datasets so pending hydrations read the new backend.
        for dataset in self._datasets.values():
            if isinstance(dataset, StoredDataset):
                dataset._backend = backend

    @property
    def checkpoint_blobs(self) -> int:
        """How many blobs the last successful checkpoint put (0 before any).

        A full rewrite puts every blob; an in-place checkpoint only those
        whose bytes changed (see :meth:`persist`).
        """
        return 0 if self._checkpoint is None else self._checkpoint.puts

    def _dataset_payloads(
        self, name: str, dataset: MarketplaceDataset
    ) -> tuple[bytes, bytes, bytes | None]:
        """Serialised ``(record, table, encodings)`` blobs of one dataset."""
        from repro.storage import NS_ENCODINGS, NS_TABLES, StoredDataset
        from repro.storage import serialize as _serialize

        spec = _serialize.dumps(
            {
                "entry": dataset.catalog_entry(),
                "description": dataset.description,
                "pricing": dataset.pricing,
                "fds": dataset.fds,
            }
        )
        if isinstance(dataset, StoredDataset) and not dataset.hydrated:
            # Copy the stored bytes verbatim — checkpointing a lazy catalog
            # must not force every table into memory.
            table_blob = dataset._backend.get(NS_TABLES, name)
            if table_blob is None:
                raise StorageError(f"catalog holds no table data for dataset {name!r}")
            return spec, table_blob, dataset._backend.get(NS_ENCODINGS, name)
        return (
            spec,
            _serialize.table_to_blob(dataset.table),
            _serialize.encodings_to_blob(dataset.table),
        )

    def _write_catalog(
        self,
        writer: "CheckpointWriter",
        tokens: Mapping[str, tuple],
        extra: "Callable[[CheckpointWriter], None] | None" = None,
    ) -> dict[str, tuple]:
        """Write the whole catalog through ``writer``; returns the new tokens.

        A dataset whose token equals its entry in ``tokens`` (what the
        catalog's blobs were serialised from) keeps its blobs unread.
        """
        from repro.storage import (
            META_MARKETPLACE,
            NS_DATASETS,
            NS_ENCODINGS,
            NS_TABLES,
        )
        from repro.storage import serialize as _serialize

        writer.stamp()
        writer.put_meta(
            META_MARKETPLACE,
            {
                "sample_row_price": self.sample_row_price,
                "sample_revenue": self.sample_revenue,
                "query_revenue": self.query_revenue,
                # Hosting order, so a reopened catalog lists datasets (and
                # therefore orders samples, graph nodes, ...) identically.
                "datasets": list(self._datasets),
            },
        )
        writer.put(
            NS_DATASETS, _DEFAULT_PRICING_KEY, _serialize.dumps(self._default_pricing)
        )
        written: dict[str, tuple] = {}
        for name, dataset in self._datasets.items():
            token = _dataset_token(dataset)
            if (
                _same_token(tokens.get(name), token)
                and writer.keep(NS_DATASETS, name)
                and writer.keep(NS_TABLES, name)
            ):
                writer.keep(NS_ENCODINGS, name)
            else:
                spec, table_blob, encodings_blob = self._dataset_payloads(name, dataset)
                writer.put(NS_DATASETS, name, spec)
                writer.put(NS_TABLES, name, table_blob)
                if encodings_blob is not None:
                    writer.put(NS_ENCODINGS, name, encodings_blob)
                # Serialising may have cached more statistics (the record's
                # full price); the token describes what was written.
                token = _dataset_token(dataset)
            written[name] = token
        if extra is not None:
            extra(writer)
        return written

    def persist(
        self,
        path: str | Path | None = None,
        *,
        extra: "Callable[[CheckpointWriter], None] | None" = None,
    ) -> "CatalogBackend":
        """Checkpoint the marketplace into a catalog and attach that catalog.

        A ``path`` names a sqlite catalog file.  With no ``path`` the attached
        catalog is checkpointed (a fresh in-memory backend is attached when
        none is).  Every checkpoint is all-or-nothing, in one of two ways:

        * **In place**, in one backend transaction, when the target is the
          attached catalog and a previous checkpoint wrote it.  For a file,
          the path must still name the file the backend's connection holds.
          Only the blobs whose bytes changed are put, datasets whose table
          and record are unchanged are not even serialised, and every key a
          full rewrite would not write is deleted.  An exception rolls the
          transaction back; when a file's backend failed (a
          :class:`~repro.exceptions.StorageError`), the checkpoint warns and
          retries as a full rewrite.
        * **Full rewrite** otherwise: the catalog is written to a sibling
          temp file and atomically renamed into place
          (:func:`~repro.storage.atomic_persist`), so an interrupted persist
          never corrupts an existing catalog.

        ``extra`` lets higher layers (:meth:`repro.core.dance.DANCE.persist`,
        the acquisition service) add their namespaces inside the same write;
        it receives a :class:`~repro.storage.checkpoint.CheckpointWriter`
        (``put``/``put_meta``).  :attr:`checkpoint_blobs` reports how many
        blobs the write put.  Returns the backend now attached.
        """
        from repro import storage as _storage
        from repro.storage.checkpoint import CheckpointWriter, write_in_place

        storage = self._storage
        last = self._checkpoint
        if last is not None and last.backend is not storage:
            last = None
        # Until a write succeeds, the catalog's contents count as unknown.
        self._checkpoint = None
        tokens = {} if last is None else last.tokens

        def write(writer: CheckpointWriter) -> dict[str, tuple]:
            return self._write_catalog(writer, tokens, extra)

        if path is None and (storage is None or storage.path is None):
            backend = storage if storage is not None else _storage.InMemoryBackend()
            writer, written = write_in_place(
                backend, None if last is None else last.digests, write
            )
            self._attach(backend)
            self._checkpoint = _Checkpoint(backend, None, written, writer.digests, writer.puts)
            return backend
        target = Path(path) if path is not None else storage.path
        if (
            last is not None
            and last.file_id is not None
            and last.file_id == _file_id(target)
        ):
            try:
                writer, written = write_in_place(storage, last.digests, write)
            except StorageError as error:
                warnings.warn(
                    f"rewriting the catalog at {target} in full: the in-place "
                    f"checkpoint failed and was rolled back: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                self._checkpoint = _Checkpoint(
                    storage, last.file_id, written, writer.digests, writer.puts
                )
                return storage
        outcome: list = []

        def write_fresh(backend: "CatalogBackend") -> None:
            writer = CheckpointWriter(backend)
            outcome[:] = [writer, write(writer)]

        final = _storage.atomic_persist(target, write_fresh)
        if storage is not None:
            storage.close()
        backend = _storage.open_backend(final)
        self._attach(backend)
        writer, written = outcome
        self._checkpoint = _Checkpoint(
            backend, _file_id(final), written, writer.digests, writer.puts
        )
        return backend

    @classmethod
    def open(cls, source: "str | Path | CatalogBackend") -> "Marketplace":
        """Open a persisted marketplace from a catalog path or backend.

        Datasets come back as lazily hydrated :class:`~repro.storage.StoredDataset`
        objects: the free catalog (names, schemas, row counts, full prices) is
        served from persisted metadata, and each table's data loads from the
        backend on first access — with its dictionary encodings rehydrated
        rather than re-encoded.  Raises a typed
        :class:`~repro.exceptions.StorageError` for missing, corrupt, or
        non-marketplace catalogs.
        """
        from repro import storage as _storage
        from repro.storage import serialize as _serialize

        backend = _storage.open_backend(source)
        meta = backend.get_meta(_storage.META_MARKETPLACE)
        if not isinstance(meta, dict):
            raise StorageError(
                f"{'catalog at ' + str(backend.path) if backend.path else 'catalog'} "
                "holds no marketplace (missing marketplace metadata)"
            )
        pricing_blob = backend.get(_storage.NS_DATASETS, _DEFAULT_PRICING_KEY)
        default_pricing = (
            _serialize.loads(pricing_blob) if pricing_blob is not None else None
        )
        market = cls(
            default_pricing=default_pricing,
            sample_row_price=float(meta.get("sample_row_price", 0.001)),
        )
        market.sample_revenue = float(meta.get("sample_revenue", 0.0))
        market.query_revenue = float(meta.get("query_revenue", 0.0))
        stored = [
            key
            for key in backend.keys(_storage.NS_DATASETS)
            if not key.startswith("#")
        ]
        order = meta.get("datasets")
        if not isinstance(order, list) or sorted(order) != sorted(stored):
            order = stored
        for name in order:
            payload = backend.get(_storage.NS_DATASETS, name)
            spec = _serialize.loads(payload)
            if not isinstance(spec, dict) or "entry" not in spec:
                raise StorageError(f"corrupt dataset record for {name!r}")
            market._datasets[name] = _storage.StoredDataset(
                backend,
                name,
                spec["entry"],
                pricing=spec.get("pricing") or market.pricing,
                fds=spec.get("fds"),
                description=spec.get("description", ""),
            )
        market._storage = backend
        return market

    # ---------------------------------------------------------------- summaries
    def total_revenue(self) -> float:
        return self.sample_revenue + self.query_revenue

    def describe(self) -> dict[str, object]:
        return {
            "num_datasets": len(self._datasets),
            "datasets": sorted(self._datasets),
            "sample_revenue": self.sample_revenue,
            "query_revenue": self.query_revenue,
            "storage": None if self._storage is None else self._storage.kind,
        }
