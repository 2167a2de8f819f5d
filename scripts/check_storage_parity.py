#!/usr/bin/env python
"""Assert bit-parity of acquisitions served from a sqlite catalog.

Used by the CI ``storage-smoke`` job.  One scenario (the TPC-H workload at a
small scale) is built cold in memory and its full query batch is acquired;
then the marketplace is persisted to a sqlite catalog, reopened with
``Marketplace.open()``, the offline phase is rebuilt — which must adopt every
persisted JI weight, i.e. recompute **zero** I-edges — and the same batch is
acquired again.  The reopened run must agree with the cold run bit-for-bit
(correlations and generated SQL).

Then a second middleware persists cold, registers a replacement source
instance (a hosted table's clean version) and checkpoints in place into the
catalog it has attached.  Every payload and every metadata value but
``created`` must equal a full rewrite of the same state into a fresh file,
and the reopened catalog must serve bit-identical answers with zero edge
recomputes and zero AFD discoveries.

Usage::

    PYTHONPATH=src python scripts/check_storage_parity.py [--scale 0.3]
                                                          [--iterations 60]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.search.mcmc import MCMCConfig
from repro.storage import META_CREATED, open_backend
from repro.workloads.queries import queries_for
from repro.workloads.tpch import tpch_workload

BUDGET = 1000.0


def _build_dance(workload, args: argparse.Namespace) -> DANCE:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload.tables:
        marketplace.host(
            MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
        )
    return DANCE(marketplace, _config(args))


def _config(args: argparse.Namespace) -> DanceConfig:
    return DanceConfig(
        sampling_rate=args.sampling_rate,
        mcmc=MCMCConfig(iterations=args.iterations, seed=0),
    )


def _acquire_all(dance: DANCE, workload) -> dict[str, tuple[float, str]]:
    results: dict[str, tuple[float, str]] = {}
    for query in queries_for(workload).values():
        acquisition = dance.acquire(
            AcquisitionRequest(
                source_attributes=list(query.source_attributes),
                target_attributes=list(query.target_attributes),
                budget=BUDGET,
            )
        )
        results[query.name] = (acquisition.estimated_correlation, acquisition.sql())
    return results


def _catalog_state(path: Path) -> tuple[dict, dict]:
    """Every payload and every metadata value but ``created`` of the catalog at ``path``."""
    with open_backend(path) as backend:
        blobs = {
            (namespace, key): backend.get(namespace, key)
            for namespace in backend.namespaces()
            for key in backend.keys(namespace)
        }
        meta = {
            key: backend.get_meta(key) for key in backend.meta_keys() if key != META_CREATED
        }
    return blobs, meta


def _check_checkpoint(workload, scratch: Path, args) -> int:
    """Checkpoint a source replacement into the attached catalog; compare and reopen."""
    replaced = next(
        name
        for name in sorted(workload.dirty_tables)
        if workload.dirty_tables[name] is not workload.table(name)
    )
    replacement = workload.table(replaced)
    path = scratch / "checkpoint.sqlite"
    rewrite = scratch / "rewrite.sqlite"
    live = _build_dance(workload, args)
    live.build_offline()
    live.persist(path)
    live.register_source_tables([replacement])
    live.persist()
    puts = live.marketplace.checkpoint_blobs
    live.persist(rewrite)
    failures = 0
    checkpointed, rewritten = _catalog_state(path), _catalog_state(rewrite)
    for part, mine, full in zip(("payload", "metadata"), checkpointed, rewritten):
        for key in sorted(set(mine) | set(full), key=repr):
            if mine.get(key) != full.get(key):
                print(f"MISMATCH: checkpointed {part} {key!r} != a full rewrite")
                failures += 1
    reference = _acquire_all(live, workload)

    warm = DANCE(Marketplace.open(path), _config(args))
    warm.register_source_tables([replacement])
    warm.build_offline()
    if warm.join_graph.edge_recomputes or warm.afd_discoveries:
        print(
            f"MISMATCH: reopened checkpoint recomputed "
            f"{warm.join_graph.edge_recomputes} I-edges and mined "
            f"{warm.afd_discoveries} tables; expected 0 and 0"
        )
        failures += 1
    current = _acquire_all(warm, workload)
    for name, expected in reference.items():
        if current.get(name) != expected:
            print(f"MISMATCH query {name}: {current.get(name)!r} != {expected!r}")
            failures += 1
    warm.marketplace.storage.close()
    live.marketplace.storage.close()
    if not failures:
        print(
            f"checkpoint after replacing {replaced!r} put {puts} of "
            f"{len(checkpointed[0])} blobs, equals a full rewrite and reopens warm"
        )
    return failures


def check_storage(args: argparse.Namespace) -> int:
    workload = tpch_workload(scale=args.scale, seed=0)
    cold = _build_dance(workload, args)
    cold.build_offline()
    reference = _acquire_all(cold, workload)
    print(
        f"cold in-memory run: {len(reference)} queries, "
        f"{cold.join_graph.ji_computations} JI computations"
    )

    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "catalog.sqlite"
        cold.persist(path)

        warm = DANCE(Marketplace.open(path), _config(args))
        warm.build_offline()
        if warm.join_graph.edge_recomputes != 0:
            print(
                f"MISMATCH: warm restart recomputed "
                f"{warm.join_graph.edge_recomputes} I-edges; expected 0"
            )
            failures += 1
        current = _acquire_all(warm, workload)
        for name, expected in reference.items():
            if current.get(name) != expected:
                print(f"MISMATCH query {name}: {current.get(name)!r} != {expected!r}")
                failures += 1
        warm.marketplace.storage.close()
        print("sqlite reopened run: 0 recomputes, parity OK")
        failures += _check_checkpoint(workload, Path(scratch), args)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--sampling-rate", type=float, default=0.5)
    args = parser.parse_args()

    failures = check_storage(args)
    if failures:
        print(f"\n{failures} storage parity failure(s)")
        return 1
    print("\nOK: acquisitions served from the sqlite catalog are bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
