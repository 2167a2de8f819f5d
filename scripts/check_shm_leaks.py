#!/usr/bin/env python
"""Assert that every shared-memory segment is unlinked when pools shut down.

Three checks, all against ``/dev/shm`` (the POSIX shared-memory mount the
:mod:`repro.search.shm` segments live on):

1. **In-process lifecycle** — a :func:`~repro.search.chains.shared_chain_pool`
   serves searches, absorbs a versioned delta, and is shut down; no segment
   may survive ``SharedChainState.close()``.
2. **Service lifecycle** — an :class:`~repro.service.AcquisitionService`
   under ``ExecutionPlan(executor="process")`` builds its pool lazily, serves,
   refreshes, and closes; ``/dev/shm`` must be clean afterwards.
3. **SIGTERM drain** — the ``repro-dance serve`` CLI is launched as a real
   subprocess with a process plan and killed with SIGTERM mid-serve; the
   drain path must shut the pools down and unlink everything before exit.

Used by the CI ``shm-smoke`` job.  Run locally with::

    PYTHONPATH=src python scripts/check_shm_leaks.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.search.shm import live_segments  # noqa: E402


def check_pool_lifecycle() -> int:
    from repro.graph.join_graph import JoinGraph
    from repro.graph.steiner import minimal_weight_igraph
    from repro.quality.fd import FunctionalDependency
    from repro.relational.table import Table
    from repro.search.candidates import build_initial_target_graph
    from repro.search.chains import ChainScheduler, shared_chain_pool
    from repro.search.mcmc import MCMCConfig

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
    join_graph = JoinGraph([facts, dims], source_instances=["facts"])
    fds = [FunctionalDependency("good_key", "label")]
    igraph = minimal_weight_igraph(join_graph, ["facts", "dims"], landmark_seed=0)
    initial = build_initial_target_graph(join_graph, igraph, ["measure"], ["label"])

    pool, state = shared_chain_pool(join_graph, fds, token="leakcheck", max_workers=2)
    try:
        if not state.segment_names():
            print("FAIL[pool]: shared pool published no segments")
            return 1
        scheduler = ChainScheduler(
            chains=3, executor="process", pool=pool, pool_state=state
        )
        scheduler.run(
            join_graph,
            initial,
            {"facts": facts, "dims": dims},
            ["measure"],
            ["label"],
            fds,
            budget=1e9,
            config=MCMCConfig(iterations=20, seed=0),
        )
        dims2 = Table.from_rows(
            "dims",
            ["good_key", "bad_key", "label"],
            [(i, i % 2, f"new{i}") for i in range(8)],
        )
        new_graph = JoinGraph([facts, dims2], source_instances=["facts"])
        state.publish_delta(new_graph, fds, version=1, changed=("dims",))
    finally:
        pool.shutdown(wait=True)
        state.close()
    leaked = live_segments()
    if leaked:
        print(f"FAIL[pool]: leaked segments after pool shutdown: {leaked}")
        return 1
    print("OK[pool]: scheduler pool + delta left /dev/shm clean")
    return 0


def check_service_lifecycle() -> int:
    from repro.core.config import DanceConfig, ServiceConfig
    from repro.marketplace.dataset import MarketplaceDataset
    from repro.marketplace.market import Marketplace
    from repro.marketplace.shopper import AcquisitionRequest
    from repro.pricing.models import EntropyPricingModel
    from repro.relational.table import Table
    from repro.search.mcmc import MCMCConfig
    from repro.service import AcquisitionService

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
    for table in (facts, dims):
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))
    config = DanceConfig(
        sampling_rate=1.0,
        mcmc=MCMCConfig(iterations=30, seed=0),
        plan="executor=process,chains=2",
        service=ServiceConfig(max_batch_workers=1),
    )
    request = AcquisitionRequest(
        source_attributes=["measure"], target_attributes=["label"], budget=1e9
    )
    with AcquisitionService(marketplace, config) as service:
        service.acquire(request)
        if not live_segments():
            print("FAIL[service]: no segments were published while serving")
            return 1
        source = Table.from_rows(
            "myshop", ["bad_key", "score"], [(i % 3, i) for i in range(9)]
        )
        service.register_source_tables([source])
        service.acquire(request)
    leaked = live_segments()
    if leaked:
        print(f"FAIL[service]: leaked segments after close: {leaked}")
        return 1
    print("OK[service]: service pool + refresh left /dev/shm clean")
    return 0


def check_sigterm_drain() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--scale",
            "0.05",
            "--mcmc-iterations",
            "20",
            "--plan",
            "executor=process,chains=2",
            "--port",
            "0",
            "--drain-timeout",
            "30",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        info = json.loads(banner)
        url = info["serving"]
        # One real request so the process pool (and its segments) exist when
        # the SIGTERM lands.
        import urllib.request

        body = json.dumps({"query": "Q1", "budget": 1000.0}).encode()
        with urllib.request.urlopen(
            urllib.request.Request(
                f"{url}/acquire", data=body,
                headers={"Content-Type": "application/json"},
            ),
            timeout=300,
        ) as response:
            response.read()
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=120)
    except Exception as error:  # noqa: BLE001 - report and clean up below
        process.kill()
        process.communicate()
        print(f"FAIL[sigterm]: serve run errored: {error}")
        return 1
    if process.returncode != 0:
        print(f"FAIL[sigterm]: serve exited {process.returncode}: {output[-500:]}")
        return 1
    if '"drained"' not in output:
        print(f"FAIL[sigterm]: no drain summary in serve output: {output[-500:]}")
        return 1
    # Give the kernel a beat to reap the unlinked entries.
    for _ in range(10):
        if not live_segments():
            break
        time.sleep(0.2)
    leaked = live_segments()
    if leaked:
        print(f"FAIL[sigterm]: leaked segments after SIGTERM drain: {leaked}")
        return 1
    print("OK[sigterm]: SIGTERM drained the server and left /dev/shm clean")
    return 0


def main() -> int:
    if not os.path.isdir("/dev/shm"):
        print("SKIP: no /dev/shm on this platform; nothing to leak-check")
        return 0
    pre_existing = live_segments()
    if pre_existing:
        print(f"error: stale segments before the check: {pre_existing}")
        return 1
    failures = check_pool_lifecycle()
    failures += check_service_lifecycle()
    failures += check_sigterm_drain()
    if failures:
        print(f"\n{failures} leak-check failure(s)")
        return 1
    print("OK: all shared-memory segments accounted for")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
