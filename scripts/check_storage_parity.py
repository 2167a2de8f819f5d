#!/usr/bin/env python
"""Assert bit-parity of acquisitions across catalog storage backends (PR 6).

Used by the CI ``storage-smoke`` job.  One scenario (the TPC-H workload at a
small scale) is built cold in memory and its full query batch is acquired;
then, for every *available* disk backend (sqlite always; duckdb when
importable), the marketplace is persisted, reopened with
``Marketplace.open()``, the offline phase is rebuilt — which must adopt every
persisted JI weight, i.e. recompute **zero** I-edges — and the same batch is
acquired again.  Every reopened run must agree with the cold run bit-for-bit
(correlations and generated SQL), and when both disk engines are importable
their stored payload bytes must be identical namespace-by-namespace.

Then, per engine, a second middleware persists cold, registers a replacement
source instance (a hosted table's clean version) and checkpoints into the
catalog it has attached: in place on sqlite, through a full rewrite on duckdb.
Every payload and every metadata value but ``created`` must equal a full
rewrite of the same state into a fresh file, and the reopened catalog must
serve bit-identical answers with zero edge recomputes and zero AFD
discoveries.

The whole check runs once per columnar backend (numpy and pure-python; see
``repro/relational/backend.py``), so parity holds across the full
storage-engine x columnar-backend matrix.

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
from repro.relational import backend as columnar_backend
from repro.search.mcmc import MCMCConfig
from repro.storage import META_CREATED, SQLITE, duckdb_available, open_backend
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


def _compare_payloads(paths: dict[str, Path]) -> int:
    """Byte-compare every (namespace, key) payload across the disk engines."""
    failures = 0
    backends = {kind: open_backend(path) for kind, path in paths.items()}
    try:
        kinds = sorted(backends)
        reference_kind = kinds[0]
        reference = backends[reference_kind]
        for other_kind in kinds[1:]:
            other = backends[other_kind]
            if reference.namespaces() != other.namespaces():
                print(
                    f"MISMATCH: namespaces differ: {reference_kind}="
                    f"{reference.namespaces()} vs {other_kind}={other.namespaces()}"
                )
                failures += 1
                continue
            for namespace in reference.namespaces():
                if reference.keys(namespace) != other.keys(namespace):
                    print(f"MISMATCH: keys differ in namespace {namespace!r}")
                    failures += 1
                    continue
                for key in reference.keys(namespace):
                    if reference.get(namespace, key) != other.get(namespace, key):
                        print(
                            f"MISMATCH: payload bytes differ at "
                            f"({namespace!r}, {key!r}) between "
                            f"{reference_kind} and {other_kind}"
                        )
                        failures += 1
    finally:
        for backend in backends.values():
            backend.close()
    return failures


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


def _check_checkpoint(workload, kind: str, scratch: Path, args, label: str) -> int:
    """Checkpoint a source replacement into the attached catalog; compare and reopen."""
    replaced = next(
        name
        for name in sorted(workload.dirty_tables)
        if workload.dirty_tables[name] is not workload.table(name)
    )
    replacement = workload.table(replaced)
    path = scratch / f"checkpoint.{kind}"
    live = _build_dance(workload, args)
    live.build_offline()
    live.persist(path, kind=kind)
    live.register_source_tables([replacement])
    live.persist()
    puts = live.marketplace.checkpoint_blobs
    live.persist(scratch / f"rewrite.{kind}", kind=kind)
    failures = 0
    checkpointed, rewritten = _catalog_state(path), _catalog_state(scratch / f"rewrite.{kind}")
    for part, mine, full in zip(("payload", "metadata"), checkpointed, rewritten):
        for key in sorted(set(mine) | set(full), key=repr):
            if mine.get(key) != full.get(key):
                print(f"MISMATCH [{label}]: checkpointed {part} {key!r} != a full rewrite")
                failures += 1
    reference = _acquire_all(live, workload)

    warm = DANCE(Marketplace.open(path), _config(args))
    warm.register_source_tables([replacement])
    warm.build_offline()
    if warm.join_graph.edge_recomputes or warm.afd_discoveries:
        print(
            f"MISMATCH [{label}]: reopened checkpoint recomputed "
            f"{warm.join_graph.edge_recomputes} I-edges and mined "
            f"{warm.afd_discoveries} tables; expected 0 and 0"
        )
        failures += 1
    current = _acquire_all(warm, workload)
    for name, expected in reference.items():
        if current.get(name) != expected:
            print(f"MISMATCH [{label}] query {name}: {current.get(name)!r} != {expected!r}")
            failures += 1
    warm.marketplace.storage.close()
    live.marketplace.storage.close()
    if not failures:
        print(
            f"[{label}] checkpoint after replacing {replaced!r} put {puts} of "
            f"{len(checkpointed[0])} blobs, equals a full rewrite and reopens warm"
        )
    return failures


def check_columnar_backend(backend_name: str, args: argparse.Namespace) -> int:
    resolved = columnar_backend.set_backend(backend_name)
    workload = tpch_workload(scale=args.scale, seed=0)
    kinds = [SQLITE] + (["duckdb"] if duckdb_available() else [])

    cold = _build_dance(workload, args)
    cold.build_offline()
    reference = _acquire_all(cold, workload)
    print(
        f"[{resolved}] cold in-memory run: {len(reference)} queries, "
        f"{cold.join_graph.ji_computations} JI computations"
    )

    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        paths: dict[str, Path] = {}
        for kind in kinds:
            path = Path(scratch) / f"catalog.{kind}"
            cold.persist(path, kind=kind)
            paths[kind] = path

            warm = DANCE(Marketplace.open(path), _config(args))
            warm.build_offline()
            if warm.join_graph.edge_recomputes != 0:
                print(
                    f"MISMATCH [{resolved}/{kind}]: warm restart recomputed "
                    f"{warm.join_graph.edge_recomputes} I-edges; expected 0"
                )
                failures += 1
            current = _acquire_all(warm, workload)
            for name, expected in reference.items():
                if current.get(name) != expected:
                    print(
                        f"MISMATCH [{resolved}/{kind}] query {name}: "
                        f"{current.get(name)!r} != {expected!r}"
                    )
                    failures += 1
            warm.marketplace.storage.close()
            print(f"[{resolved}] {kind} reopened run: 0 recomputes, parity OK")
            failures += _check_checkpoint(
                workload, kind, Path(scratch), args, f"{resolved}/{kind}"
            )

        if len(paths) > 1:
            byte_failures = _compare_payloads(paths)
            failures += byte_failures
            if not byte_failures:
                print(f"[{resolved}] payload bytes identical across {sorted(paths)}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--sampling-rate", type=float, default=0.5)
    args = parser.parse_args()

    backends = ["python"]
    if columnar_backend.numpy_available():
        backends.append("numpy")
    else:
        print("numpy is not importable; checking the pure-python backend only")
    if not duckdb_available():
        print("duckdb is not importable; checking the sqlite backend only")

    failures = 0
    try:
        for backend_name in backends:
            failures += check_columnar_backend(backend_name, args)
    finally:
        columnar_backend.set_backend(None)

    if failures:
        print(f"\n{failures} storage parity failure(s)")
        return 1
    print("\nOK: acquisitions are bit-identical across all storage backends")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
