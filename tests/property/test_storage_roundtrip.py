"""Hypothesis property tests: catalog round trips are lossless and bit-stable.

Two layers of invariants, on sqlite catalogs:

* **Payload round trips.**  Any table — arbitrary names, mixed ``None``s,
  numeric and categorical columns — survives ``table_to_blob`` /
  ``table_from_blob`` through a real backend unchanged, with its cached
  dictionary encodings rehydrated rather than re-encoded, and fingerprints
  that depend on content, not on the process.
* **End-to-end warm restarts.**  Persist -> reopen -> ``build_offline`` adopts
  the whole join graph (zero edge recomputes) and serves acquisitions
  bit-identical to the cold middleware — including after a
  ``register_source_tables`` delta with hypothesis-chosen shopper data.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.storage import (
    create_backend,
    restore_encodings,
    table_fingerprint,
    table_from_blob,
    table_to_blob,
)
from repro.storage.serialize import encodings_to_blob

from tests.storage.test_marketplace_persist import small_marketplace


# ------------------------------------------------------------------ strategies
cells = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["x", "y", "z"]),
)
tables = st.builds(
    lambda rows: Table.from_rows(
        "t", ["a", "b", "c"], [tuple(row) for row in rows]
    ),
    st.lists(st.tuples(cells, cells, cells), min_size=0, max_size=20),
)
source_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=-9, max_value=9)),
    min_size=2,
    max_size=12,
)


# --------------------------------------------------------------- payload level
@given(table=tables)
@settings(max_examples=20, deadline=None)
def test_table_blob_round_trips_through_a_real_backend(table):
    with tempfile.TemporaryDirectory() as scratch:
        with create_backend(Path(scratch) / "cat") as backend:
            backend.put("tables", table.name, table_to_blob(table))
            restored = table_from_blob(backend.get("tables", table.name))
    assert restored.name == table.name
    assert [(a.name, a.type) for a in restored.schema] == [
        (a.name, a.type) for a in table.schema
    ]
    assert list(restored.iter_rows()) == list(table.iter_rows())
    assert table_fingerprint(restored) == table_fingerprint(table)


@given(table=tables)
@settings(max_examples=20, deadline=None)
def test_encodings_rehydrate_bit_identically(table):
    if len(table) == 0:
        return
    expected = table.encoded_key(("a", "b")).codes
    blob = encodings_to_blob(table)
    bare = table_from_blob(table_to_blob(table))
    assert restore_encodings(bare, blob) >= 1
    # The cached entry comes back under its original cache key, installed
    # before any kernel asks for it — rehydrated, not recomputed.
    assert set(bare._encodings) == set(table._encodings)
    assert bare.encoded_key(("a", "b")).codes == expected


@given(table=tables)
@settings(max_examples=20, deadline=None)
def test_fingerprint_tracks_content_not_identity(table):
    clone = Table.from_rows(
        table.name, [a.name for a in table.schema], list(table.iter_rows())
    )
    if [(a.name, a.type) for a in clone.schema] == [
        (a.name, a.type) for a in table.schema
    ]:
        assert table_fingerprint(clone) == table_fingerprint(table)
    renamed = Table.from_rows(
        table.name + "_other", [a.name for a in table.schema], list(table.iter_rows())
    )
    assert table_fingerprint(renamed) != table_fingerprint(table)


# ------------------------------------------------------------------ end to end
REQUEST = AcquisitionRequest(
    source_attributes=["measure"], target_attributes=["label"], budget=1e9
)


def _config(seed: int) -> DanceConfig:
    return DanceConfig(sampling_rate=1.0, mcmc=MCMCConfig(iterations=25, seed=seed))


@given(rows=source_rows, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=6, deadline=None)
def test_warm_restart_is_bit_identical_after_source_delta(rows, seed):
    # Both sides register the shopper delta before the offline build: the
    # MCMC walk is only promised bit-stable across *identically ordered*
    # graphs, and the warm process replays the same registration sequence.
    source = Table.from_rows("mine", ["bad_key", "mine_x"], rows)

    cold = DANCE(small_marketplace(), _config(seed))
    cold.register_source_tables([source])
    cold.build_offline()
    expected = cold.acquire(REQUEST)

    with tempfile.TemporaryDirectory() as scratch:
        catalog = Path(scratch) / "cat"
        cold.persist(catalog)

        warm = DANCE(Marketplace.open(catalog), _config(seed))
        warm.register_source_tables([source])
        warm.build_offline()
        assert warm.join_graph.ji_computations == 0
        assert warm.join_graph.edge_recomputes == 0
        served = warm.acquire(REQUEST)

    assert served.estimated_correlation == expected.estimated_correlation
    assert served.sql() == expected.sql()
    assert served.estimated_price == expected.estimated_price
