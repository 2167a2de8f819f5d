"""Command-line interface for the DANCE reproduction.

The CLI covers the three things a downstream user typically wants to do from a
shell without writing Python:

``repro-dance catalog``
    Generate a workload, host it on the in-process marketplace, and print the
    (free) schema-level catalog.  Subactions manage persistent catalogs
    (:mod:`repro.storage`): ``catalog init --catalog PATH`` persists the
    marketplace to disk, ``catalog persist`` additionally runs the offline
    phase and stores JI edge weights for warm restarts, ``catalog inspect``
    prints a stored catalog's summary, and plain ``catalog`` (``show``) reads
    from ``--catalog`` when the file exists.

``repro-dance acquire``
    Run the full offline + online pipeline for one acquisition request and
    print the recommended SQL projection queries and the estimated metrics.
    ``--top-k`` switches to the ranked multi-option recommendation.

``repro-dance batch``
    Serve a JSON file of acquisition requests through one long-lived
    :class:`~repro.service.AcquisitionService` — one offline phase, shared
    caches, concurrent execution with deterministic per-request seeds,
    bounded admission (``--queue-depth`` / ``--admission``), a default SLA
    tier (``--tier``) — and print one summary per request plus the service
    metrics.  ``--catalog PATH`` makes
    the service persistent: an existing catalog is opened instead of
    regenerating the workload (warm offline phase: no JI weight recomputed,
    no table mined), and the session is checkpointed back after serving.

``repro-dance metrics``
    Serve requests the same way but print only the operational metrics dump:
    latency histogram with p50/p95/p99, cache hit-rate trend, queue
    depth/rejection counters, answer-memo and walk-space-memo accounting.

``repro-dance serve``
    Keep one hot service behind a stdlib HTTP/JSON endpoint: ``POST
    /acquire`` (single + batch, per-request seeds honoured), ``GET /metrics``
    (Prometheus text format), ``GET /healthz``, graceful drain + catalog
    checkpoint on shutdown.  See :mod:`repro.service.server`.

``repro-dance export-graph``
    Build the join graph from samples and export it to JSON and/or DOT.

``repro-dance lint``
    Run dancelint, the repo's AST-based determinism / concurrency invariant
    checker (:mod:`repro.analysis`), over source paths: ``--baseline``
    absorbs the accepted debt in ``scripts/dancelint_baseline.json``,
    ``--format json`` emits the CI artifact, ``--explain`` lists every rule.

All commands operate on the built-in synthetic workloads (``tpch`` / ``tpce``),
since the library ships no external data.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.config import DanceConfig, ServiceConfig
from repro.core.dance import DANCE
from repro.exceptions import ReproError
from repro.graph.export import join_graph_to_dot, write_dot, write_join_graph_json
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.pricing.models import EntropyPricingModel
from repro.search.mcmc import MCMCConfig
from repro.search.topk import ScoreWeights, top_k_acquisition
from repro.marketplace.shopper import AcquisitionRequest
from repro.service import AcquisitionService
from repro.service.server import request_from_spec
from repro.workloads.queries import queries_for
from repro.workloads.tpce import tpce_workload
from repro.workloads.tpch import tpch_workload


def _build_workload(workload_name: str, scale: float, seed: int):
    if workload_name == "tpch":
        return tpch_workload(scale=scale, seed=seed)
    if workload_name == "tpce":
        return tpce_workload(scale=scale, seed=seed)
    raise ReproError(f"unknown workload {workload_name!r} (expected 'tpch' or 'tpce')")


def _host_workload(workload) -> Marketplace:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload.tables:
        marketplace.host(
            MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
        )
    return marketplace


def _build_marketplace(
    workload_name: str, scale: float, seed: int
) -> tuple[Marketplace, object]:
    workload = _build_workload(workload_name, scale, seed)
    return _host_workload(workload), workload


def _service_marketplace(args: argparse.Namespace) -> tuple[Marketplace, object]:
    """The (marketplace, workload) pair for service-mode commands.

    With ``--catalog`` pointing at an existing file, the marketplace opens
    from the catalog (lazy tables, persisted offline state) instead of being
    regenerated; the workload object is still built for request/query-name
    resolution.  A missing catalog file is not an error — the service
    checkpoint after serving creates it.
    """
    workload = _build_workload(args.workload, args.scale, args.seed)
    catalog = getattr(args, "catalog", None)
    if catalog is not None and Path(catalog).exists():
        return Marketplace.open(catalog), workload
    return _host_workload(workload), workload


def _build_dance(marketplace: Marketplace, args: argparse.Namespace) -> DANCE:
    config = DanceConfig(
        sampling_rate=args.sampling_rate,
        mcmc=MCMCConfig(iterations=args.mcmc_iterations, seed=args.seed),
        num_landmarks=args.landmarks,
        plan=getattr(args, "plan", None),
    )
    dance = DANCE(marketplace, config)
    dance.build_offline()
    return dance


# ------------------------------------------------------------------- commands
def cmd_catalog(args: argparse.Namespace) -> int:
    action = args.action
    if action in ("init", "persist") and args.catalog is None:
        print(
            f"error: 'catalog {action}' requires --catalog PATH", file=sys.stderr
        )
        return 2
    if action == "inspect":
        from repro.storage import open_backend

        if args.catalog is None:
            print("error: 'catalog inspect' requires --catalog PATH", file=sys.stderr)
            return 2
        with open_backend(args.catalog) as backend:
            print(json.dumps(backend.describe(), indent=2))
        return 0
    if action in ("init", "persist"):
        marketplace, _ = _build_marketplace(args.workload, args.scale, args.seed)
        if action == "persist":
            # Offline phase included: the catalog carries JI edge weights and
            # FDs, so the next open + build_offline recomputes zero edges.
            dance = _build_dance(marketplace, args)
            backend = dance.persist(args.catalog)
        else:
            backend = marketplace.persist(args.catalog)
        print(json.dumps(backend.describe(), indent=2))
        return 0
    # action == "show"
    if args.catalog is not None and Path(args.catalog).exists():
        marketplace = Marketplace.open(args.catalog)
    else:
        marketplace, _ = _build_marketplace(args.workload, args.scale, args.seed)
    entries = marketplace.catalog()
    if args.json:
        print(json.dumps(entries, indent=2))
    else:
        print(f"{'dataset':<22}{'rows':>8}{'attrs':>7}  attributes")
        for entry in entries:
            print(
                f"{entry['name']:<22}{entry['num_rows']:>8}{len(entry['attributes']):>7}  "
                f"{', '.join(entry['attributes'])}"
            )
    return 0


def cmd_acquire(args: argparse.Namespace) -> int:
    marketplace, workload = _build_marketplace(args.workload, args.scale, args.seed)
    dance = _build_dance(marketplace, args)

    if args.query:
        query = queries_for(workload)[args.query]
        source_attributes = list(query.source_attributes)
        target_attributes = list(query.target_attributes)
    else:
        source_attributes = args.source or []
        target_attributes = args.target or []
    if not target_attributes:
        print("error: provide --target attributes or --query Q1/Q2/Q3", file=sys.stderr)
        return 2

    if args.top_k > 1:
        options = top_k_acquisition(
            dance.join_graph,
            source_attributes,
            target_attributes,
            dance.fds,
            k=args.top_k,
            budget=args.budget,
            max_weight=args.alpha,
            min_quality=args.beta,
            weights=ScoreWeights(),
            mcmc_config=dance.config.mcmc,
            landmark_seed=args.seed,
        )
        payload = [option.summary() for option in options]
        print(json.dumps(payload, indent=2))
        return 0

    request = AcquisitionRequest(
        source_attributes=source_attributes,
        target_attributes=target_attributes,
        budget=args.budget,
        max_join_informativeness=args.alpha,
        min_quality=args.beta,
    )
    result = dance.acquire(request)
    if args.json:
        print(json.dumps(result.summary(), indent=2, default=str))
    else:
        print("Recommended purchase:")
        for sql in result.sql():
            print(f"  {sql}")
        print(f"estimated correlation         : {result.estimated_correlation:.4f}")
        print(f"estimated quality             : {result.estimated_quality:.4f}")
        print(f"estimated join informativeness: {result.estimated_join_informativeness:.4f}")
        print(f"estimated price               : {result.estimated_price:.2f}")
        print(f"sample cost                   : {result.sample_cost:.3f}")
        if result.mcmc_chains > 1:
            print(
                f"mcmc chains                   : {result.mcmc_chains} "
                f"({result.mcmc_executor}, best chain {result.mcmc_best_chain})"
            )
    return 0


def _parse_batch_requests(
    path: Path, workload, default_tier: str | None = None
) -> list[AcquisitionRequest]:
    """Read a JSON list of request specs into ``AcquisitionRequest`` objects.

    Each entry either names a predefined workload query (``{"query": "Q1",
    "budget": 100}``) or spells the attributes out (``{"source": [...],
    "target": [...], "budget": 100, "alpha": 2.5, "beta": 0.8}``); both forms
    additionally take ``shopper`` / ``tier`` / ``deadline``.  ``default_tier``
    (the ``--tier`` flag) applies to specs that name no tier of their own.
    The spec format is the HTTP tier's
    (:func:`repro.service.server.request_from_spec`).
    """
    try:
        specs = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"cannot read batch requests from {path}: {error}") from error
    if not isinstance(specs, list):
        raise ReproError(f"{path} must hold a JSON list of request objects")
    requests: list[AcquisitionRequest] = []
    known = queries_for(workload)
    for index, spec in enumerate(specs):
        try:
            requests.append(request_from_spec(spec, known, default_tier=default_tier))
        except ReproError as error:
            raise ReproError(f"request {index} in {path}: {error}") from error
    return requests


def _service_config(args: argparse.Namespace) -> DanceConfig:
    """The service-mode configuration shared by ``batch`` and ``metrics``."""
    return DanceConfig(
        sampling_rate=args.sampling_rate,
        mcmc=MCMCConfig(iterations=args.mcmc_iterations, seed=args.seed),
        num_landmarks=args.landmarks,
        plan=getattr(args, "plan", None),
        service=ServiceConfig(
            seed=args.service_seed,
            max_batch_workers=args.batch_workers,
            max_queue_depth=args.queue_depth,
            admission=args.admission,
            catalog_path=(
                None if getattr(args, "catalog", None) is None else str(args.catalog)
            ),
        ),
    )


def cmd_batch(args: argparse.Namespace) -> int:
    marketplace, workload = _service_marketplace(args)
    requests = _parse_batch_requests(args.requests, workload, default_tier=args.tier)
    config = _service_config(args)
    with AcquisitionService(marketplace, config) as service:
        batch = service.acquire_batch(requests)
        if args.catalog is not None:
            # Checkpoint the warmed session (offline state + caches) so the
            # next `batch --catalog` run restarts warm.
            service.persist()
        metrics = service.metrics()
        payload = {
            "service": {
                "seed": service.seed,
                "batch_workers": config.service.max_batch_workers,
                "queue_depth": config.service.max_queue_depth,
                "admission": config.service.admission,
                "requests": len(requests),
                "errors": len(batch.errors()),
                "rejected": metrics["queue"]["rejected"],
                "rate_limited": metrics["qos"]["rate_limited"],
                "deadline_exceeded": metrics["qos"]["deadline_exceeded"],
                "latency_p50_seconds": metrics["latency"]["p50_seconds"],
                "latency_p95_seconds": metrics["latency"]["p95_seconds"],
            },
            "results": batch.summary(),
            "metrics": metrics,
        }
    print(json.dumps(payload, indent=2, default=str))
    return 0 if batch.ok else 1


def _print_tier_table(metrics: dict) -> None:
    """Human-readable SLA tier summary (stderr: stdout stays pure JSON)."""
    print(
        f"{'tier':<10}{'weight':>8}{'requests':>10}{'rate_lim':>10}"
        f"{'deadline':>10}{'wait_p50':>12}{'wait_p95':>12}",
        file=sys.stderr,
    )
    for name, tier in metrics["qos"]["tiers"].items():
        wait = tier["queue_wait"]

        def fmt(value: object) -> str:
            return "-" if value is None else f"{float(value):.4f}"

        print(
            f"{name:<10}{tier['weight']:>8g}{tier['requests']:>10}"
            f"{tier['rate_limited']:>10}{tier['deadline_exceeded']:>10}"
            f"{fmt(wait.get('p50_seconds')):>12}{fmt(wait.get('p95_seconds')):>12}",
            file=sys.stderr,
        )


def cmd_metrics(args: argparse.Namespace) -> int:
    """Serve requests through one service and dump only the metrics."""
    marketplace, workload = _service_marketplace(args)
    if args.requests is not None:
        batches = [_parse_batch_requests(args.requests, workload, default_tier=args.tier)]
    else:
        # Default traffic: the predefined workload queries as one batch,
        # served twice — the repeat reuses the per-index seeds, so the dump
        # shows warm-path behaviour (every repeat an answer-memo hit).
        base = [
            AcquisitionRequest(
                source_attributes=list(query.source_attributes),
                target_attributes=list(query.target_attributes),
                budget=args.budget,
                tier=args.tier,
            )
            for query in queries_for(workload).values()
        ]
        batches = [base, base]
    config = _service_config(args)
    with AcquisitionService(marketplace, config) as service:
        outcomes = [service.acquire_batch(batch) for batch in batches]
        if args.catalog is not None:
            service.persist()
        payload = service.metrics()
    print(json.dumps(payload, indent=2, default=str))
    _print_tier_table(payload)
    # Same contract as `batch`: non-zero exit when any request failed.
    return 0 if all(outcome.ok for outcome in outcomes) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived HTTP acquisition server (see repro.service.server)."""
    from repro.service.server import AcquisitionHTTPServer

    marketplace, workload = _service_marketplace(args)
    config = _service_config(args)
    with AcquisitionService(marketplace, config) as service:
        server = AcquisitionHTTPServer(
            (args.host, args.port),
            service,
            queries=queries_for(workload),
            default_tier=args.tier,
        )
        thread = server.serve_background()
        print(
            json.dumps(
                {
                    "serving": f"http://{args.host}:{server.port}",
                    "queue_depth": config.service.max_queue_depth,
                    "admission": config.service.admission,
                }
            ),
            flush=True,
        )
        # SIGTERM (systemd stop, container orchestration, the shm leak check)
        # must take the same drain path as Ctrl-C: without a handler, Python's
        # default action kills the process before pools shut down and shared
        # memory segments would stay linked in /dev/shm.
        import signal

        def _on_sigterm(signum, frame):
            raise KeyboardInterrupt

        previous_handler = None
        try:
            previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:
            pass  # not the main thread (embedded use); SIGTERM keeps its default
        try:
            if args.serve_seconds is not None:
                time.sleep(args.serve_seconds)
            else:
                while thread.is_alive():
                    thread.join(timeout=1.0)
        except KeyboardInterrupt:
            pass
        finally:
            if previous_handler is not None:
                signal.signal(signal.SIGTERM, previous_handler)
        drained = server.graceful_shutdown(timeout=args.drain_timeout)
        print(json.dumps({"drained": drained, "metrics": service.metrics()}, default=str))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the dancelint static invariant checker (see repro.analysis)."""
    from repro.analysis.runner import DEFAULT_BASELINE, explain_rules, run_lint

    if args.explain:
        return explain_rules()
    select = [
        code.strip()
        for chunk in (args.select or [])
        for code in chunk.split(",")
        if code.strip()
    ]
    baseline = args.baseline
    if args.use_default_baseline and baseline is None:
        baseline = DEFAULT_BASELINE
    return run_lint(
        args.paths or ["src/repro"],
        output_format=args.output_format,
        baseline_path=baseline,
        write_baseline=args.write_baseline,
        select=select or None,
    )


def cmd_export_graph(args: argparse.Namespace) -> int:
    marketplace, _ = _build_marketplace(args.workload, args.scale, args.seed)
    dance = _build_dance(marketplace, args)
    graph = dance.join_graph
    wrote = []
    if args.json_out:
        wrote.append(str(write_join_graph_json(graph, args.json_out)))
    if args.dot_out:
        wrote.append(str(write_dot(join_graph_to_dot(graph), args.dot_out)))
    if not wrote:
        print(json.dumps(dance.describe()["join_graph"], indent=2))
    else:
        for path in wrote:
            print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dance",
        description="DANCE: cost-efficient data acquisition for correlation analysis",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workload", choices=("tpch", "tpce"), default="tpch")
        sub.add_argument("--scale", type=float, default=0.1, help="workload scale factor")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--sampling-rate", type=float, default=0.5)
        sub.add_argument("--mcmc-iterations", type=int, default=100)
        sub.add_argument(
            "--plan",
            default=None,
            help="execution plan spec, e.g. 'executor=process,chains=4' "
            "(default: one serial chain per I-graph)",
        )
        sub.add_argument("--landmarks", type=int, default=4)

    catalog = subparsers.add_parser(
        "catalog", help="print the marketplace catalog / manage persistent catalogs"
    )
    catalog.add_argument(
        "action",
        nargs="?",
        choices=("show", "init", "persist", "inspect"),
        default="show",
        help="show the catalog (default), persist the marketplace to --catalog "
        "(init: tables only; persist: plus the offline phase for warm "
        "restarts), or inspect a stored catalog file",
    )
    add_common(catalog)
    catalog.add_argument("--json", action="store_true")
    catalog.add_argument(
        "--catalog", type=Path, default=None, help="sqlite catalog file to read or write"
    )
    catalog.set_defaults(func=cmd_catalog)

    acquire = subparsers.add_parser("acquire", help="run one acquisition request")
    add_common(acquire)
    acquire.add_argument("--query", choices=("Q1", "Q2", "Q3"), help="use a predefined query")
    acquire.add_argument("--source", nargs="*", help="source attributes A_S")
    acquire.add_argument("--target", nargs="*", help="target attributes A_T")
    acquire.add_argument("--budget", type=float, default=100.0)
    acquire.add_argument("--alpha", type=float, default=float("inf"),
                         help="max total join informativeness")
    acquire.add_argument("--beta", type=float, default=0.0, help="min quality")
    acquire.add_argument("--top-k", type=int, default=1, help="return the k best options")
    acquire.add_argument("--json", action="store_true")
    acquire.set_defaults(func=cmd_acquire)

    def add_service_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--batch-workers",
            type=int,
            default=4,
            help="how many requests execute concurrently (results are identical either way)",
        )
        sub.add_argument(
            "--service-seed",
            type=int,
            default=None,
            help="service base seed for per-request seed derivation (default: --seed)",
        )
        sub.add_argument(
            "--queue-depth",
            type=int,
            default=None,
            help="bound on admitted (queued + executing) requests; default: unbounded",
        )
        sub.add_argument(
            "--admission",
            choices=("block", "reject"),
            default="block",
            help="full-queue policy: block the submitter or reject the request",
        )
        sub.add_argument(
            "--catalog",
            type=Path,
            default=None,
            help="persistent catalog file: opened when it exists (warm "
            "restart), checkpointed after serving",
        )
        sub.add_argument(
            "--tier",
            choices=("bronze", "silver", "gold"),
            default=None,
            help="default SLA tier stamped on requests that name none",
        )

    batch = subparsers.add_parser(
        "batch", help="serve a JSON file of requests through one acquisition service"
    )
    add_common(batch)
    batch.add_argument(
        "requests",
        type=Path,
        help="JSON file holding a list of request objects "
        '({"query": "Q1", "budget": 100} or {"source": [...], "target": [...], '
        '"budget": 100, "alpha": ..., "beta": ..., "shopper": "alice"})',
    )
    add_service_options(batch)
    batch.set_defaults(func=cmd_batch)

    metrics = subparsers.add_parser(
        "metrics",
        help="serve requests through one acquisition service and dump its metrics",
    )
    add_common(metrics)
    metrics.add_argument(
        "requests",
        type=Path,
        nargs="?",
        default=None,
        help="optional JSON request file (default: the predefined workload queries, twice)",
    )
    metrics.add_argument(
        "--budget", type=float, default=100.0, help="budget of the default requests"
    )
    add_service_options(metrics)
    metrics.set_defaults(func=cmd_metrics)

    serve = subparsers.add_parser(
        "serve", help="run a long-lived HTTP acquisition server (stdlib http.server)"
    )
    add_common(serve)
    add_service_options(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642, help="listen port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        help="serve for N seconds then drain and exit (default: until interrupted)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="how long graceful shutdown waits for in-flight requests",
    )
    serve.set_defaults(func=cmd_serve)

    export = subparsers.add_parser("export-graph", help="export the join graph")
    add_common(export)
    export.add_argument("--json-out", type=Path)
    export.add_argument("--dot-out", type=Path)
    export.set_defaults(func=cmd_export_graph)

    lint = subparsers.add_parser(
        "lint", help="run dancelint, the static determinism/concurrency checker"
    )
    lint.add_argument(
        "paths", nargs="*", help="files or directories to lint (default: src/repro)"
    )
    lint.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="report format (json matches the CI artifact schema)",
    )
    lint.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help="absorb findings recorded in this baseline file",
    )
    lint.add_argument(
        "--use-default-baseline",
        action="store_true",
        help="shorthand for --baseline scripts/dancelint_baseline.json",
    )
    lint.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help="persist the current findings as the new accepted debt and exit 0",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="comma-separated rule codes to run (repeatable); default: all rules",
    )
    lint.add_argument(
        "--explain", action="store_true", help="list every registered rule and exit"
    )
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
