"""Turn measured phases into the end-to-end and per-layer metrics."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats, trace, workloads
from perfbench.workloads import Phase, Scenario, Stack

#: Names, units and bounds of every metric; the runs print exactly the ones listed.
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer")."""
    spec = json.loads(SPEC_PATH.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclass
class Report:
    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    diagnostics: dict[str, object] = field(default_factory=dict)
    table: str = ""

    def result(self) -> dict[str, object]:
        if self.metrics.keys() != self.units.keys():
            raise ValueError(f"measured {sorted(self.metrics)}, BENCHMARK.json lists "
                             f"{sorted(self.units)}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in self.units.items()
            },
        }


def _account(report: Report, phase: Phase, extra_mismatches: list[str]) -> None:
    report.attempted += phase.reads_attempted + phase.writes_attempted
    report.failed += phase.reads_failed + phase.writes_failed
    mismatches = extra_mismatches + phase.mismatches
    if phase.errors or mismatches:
        report.correct = False
    report.diagnostics.setdefault("errors", {}).update(phase.errors)
    report.diagnostics.setdefault("mismatches", []).extend(mismatches[:20])
    report.diagnostics["reads"] = phase.reads_attempted
    report.diagnostics["writes"] = phase.writes_attempted
    report.diagnostics["checked_answers"] = phase.checked
    if phase.cut:
        report.diagnostics["cut_at_deadline"] = True


def _digest(report: Report, phase: Phase) -> tuple[str, float] | None:
    digest = workloads.answers_digest(phase)
    if digest is None:
        report.correct = False
        report.diagnostics.setdefault("mismatches", []).append("no answered read to digest")
    return digest


def _serve(
    scenario: Scenario,
    seed: int,
    seconds: float,
    recorder: trace.Recorder | None,
    stack: Stack,
) -> tuple[Phase, list[str], dict, dict]:
    """Warm-answer check, then the measured phase; program counters and peak RSS
    around the phase, before the post-phase writes of fresh and hot."""
    mismatches = []
    if stack.warm_answers:
        if recorder is not None:
            recorder.paused = True
        mismatches = workloads.check_warm_answers(stack, scenario)
        if recorder is not None:
            recorder.paused = False
    before = stack.service.metrics()
    phase = workloads.run_phase(stack, scenario, seed, seconds, recorder)
    phase.peak_rss_mb = workloads.peak_rss_mb()
    after = stack.service.describe()
    phase.note_caches(after)
    if scenario.kind != "churn":
        workloads.run_writes(stack, scenario, phase, recorder)
    return phase, mismatches, before, after


def timed_run(scenario: Scenario, seed: int, seconds: float, out_dir: Path) -> Report:
    """Untraced: ``setup_builds`` cold builds (median is ``setup_s``), then one phase."""
    report = Report(units=metric_units("end_to_end"))
    report.diagnostics["cpu_witness_before_ms"] = workloads.cpu_witness()
    setups, scaled_setups = [], []
    stack = None
    for _ in range(scenario.setup_builds):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        sample = workloads.witness_ms()
        began = time.perf_counter()
        stack = workloads.build(scenario, seed, out_dir, None)
        setups.append(time.perf_counter() - began)
        # A build is one stretch with no sample inside: take one on each side.
        sample = (sample + workloads.witness_ms()) / 2
        scaled_setups.append(setups[-1] * workloads.speed_factor(sample, 1.0))
    try:
        phase, mismatches, _, _ = _serve(scenario, seed, seconds, None, stack)
    finally:
        stack.close()
    _account(report, phase, mismatches)
    digest = _digest(report, phase)
    report.metrics = {
        **times(scenario, phase, scaled_setups, scaled=True),
        "peak_rss_mb": phase.peak_rss_mb,
        "mean_correlation": digest[1] if digest else math.nan,
    }
    report.diagnostics.update(
        unscaled=times(scenario, phase, setups, scaled=False),
        witness_ms=statistics.median(phase.witness),
        setup_s_builds=[round(value, 4) for value in scaled_setups],
        answer_digest=digest[0] if digest else None,
        wall_seconds=round(phase.wall_seconds, 3),
        window_rps=window_rates(phase.read_done, phase.wall_seconds),
        cpu_witness_after_ms=workloads.cpu_witness(),
    )
    return report


def times(scenario: Scenario, phase: Phase, setups: list[float], *, scaled: bool) -> dict:
    """The end-to-end time metrics, at reference speed or as the clock read them."""
    reads = phase.read_latencies
    writes = phase.write_latencies
    wall = phase.wall_seconds
    if scaled:
        reads = phase.scaled_reads()
        writes = phase.scaled_writes()
        wall = phase.scaled_wall()
    return {
        "throughput_rps": (phase.reads_attempted - phase.reads_failed) / wall,
        "latency_p50_ms": stats.percentile(reads, 0.50) * 1000,
        # Every real workload serves min_reads >= 200, i.e. ten samples beyond the p95.
        "latency_p95_ms": stats.percentile(
            reads, 0.95, min_beyond=stats.beyond(0.95, scenario.min_reads)
        ) * 1000,
        "write_latency_p50_ms": stats.percentile(writes, 0.50) * 1000,
        "setup_s": statistics.median(setups),
    }


def window_rates(done: list[float], wall: float, windows: int = 5) -> list[float]:
    """Reads completed per second in each of ``windows`` equal slices of the phase."""
    width = wall / windows
    counts = [0] * windows
    for moment in done:
        counts[min(windows - 1, int(moment / width))] += 1
    return [round(count / width, 2) for count in counts]


def traced_run(scenario: Scenario, seed: int, seconds: float, out_dir: Path) -> Report:
    """Serve once untraced and once traced (fresh stacks); per-layer metrics."""
    report = Report(units=metric_units("per_layer"))
    report.diagnostics["cpu_witness_before_ms"] = workloads.cpu_witness()

    stack = workloads.build(scenario, seed, out_dir, None)
    try:
        plain, mismatches, _, _ = _serve(scenario, seed, seconds, None, stack)
    finally:
        stack.close()
    _account(report, plain, mismatches)
    plain_digest = _digest(report, plain)
    gc.collect()

    recorder = trace.Recorder()
    with trace.installed(recorder):
        with recorder.span("setup"):
            stack = workloads.build(scenario, seed, out_dir, recorder)
        setup_graph = stack.service.join_graph
        try:
            traced, mismatches, before, after = _serve(
                scenario, seed, seconds, recorder, stack
            )
            # What the phase's last write checkpointed.  A write empties the
            # session caches before it checkpoints, so their namespace is empty.
            catalog_kb = (
                stack.catalog_path.stat().st_size / 1024
                if stack.catalog_path is not None and stack.catalog_path.exists()
                else 0.0
            )
        finally:
            stack.close()
    _account(report, traced, mismatches)
    traced_digest = _digest(report, traced)
    if plain_digest != traced_digest:
        report.correct = False
        report.diagnostics.setdefault("mismatches", []).append(
            f"traced digest {traced_digest} != untraced digest {plain_digest}"
        )

    plain_rps = (plain.reads_attempted - plain.reads_failed) / plain.wall_seconds
    traced_rps = (traced.reads_attempted - traced.reads_failed) / traced.wall_seconds
    # Same op indices on both sides, so the request mix cancels; both at
    # reference speed, so the machine's drift between the two phases mostly does.
    plain_ops, traced_ops = plain.op_seconds(), traced.op_seconds()
    common = sorted(plain_ops.keys() & traced_ops.keys())
    overhead_pct = (
        math.fsum(traced_ops[index] for index in common)
        / math.fsum(plain_ops[index] for index in common) - 1.0
    ) * 100
    report.metrics = layer_metrics(recorder.spans, traced, before, after, setup_graph)
    report.metrics["storage.catalog_kb"] = catalog_kb
    report.metrics["search.worker_peak_rss_mb"] = (
        workloads.peak_rss_mb(resource.RUSAGE_CHILDREN) if scenario.plan else 0.0
    )
    report.metrics["trace.overhead_pct"] = overhead_pct
    report.table = layer_report(recorder.spans, traced)
    recorder.dump(out_dir / "spans.jsonl.gz")
    (out_dir / "layers.txt").write_text(report.table + "\n")
    report.diagnostics.update(
        answer_digest=traced_digest[0] if traced_digest else None,
        untraced_throughput_rps=plain_rps,
        traced_throughput_rps=traced_rps,
        spans=len(recorder.spans),
        cpu_witness_after_ms=workloads.cpu_witness(),
    )
    return report


def layer_metrics(spans, phase: Phase, before: dict, after: dict, setup_graph) -> dict:
    """The per-layer metrics of one traced phase (plus its set-up)."""
    totals = trace.aggregate(spans)
    reads = max(1, phase.reads_attempted)
    writes = max(1, phase.writes_attempted)

    def get(root: str, name: str) -> trace.Totals:
        return totals.get((root, name), trace.Totals())

    def per_read_ms(name: str) -> float:
        return get("read", name).self_seconds * 1000 / reads

    def per_write_ms(name: str) -> float:
        return get("write", name).self_seconds * 1000 / writes

    resample = get("read", "sampling.resample")
    wait_before, wait_after = before["queue_wait"], after["metrics"]["queue_wait"]
    waited = (wait_after["count"] * (wait_after["mean_seconds"] or 0.0)
              - wait_before["count"] * (wait_before["mean_seconds"] or 0.0))
    waits = max(1, wait_after["count"] - wait_before["count"])
    shared = after.get("shared_store") or {}
    client_minus_service = get("read", "read").seconds - get("read", "service.acquire").seconds
    hit_rates = [answer.hit_rate for answer in phase.answers.values()]
    caches = phase.cache_entries
    recomputes = [summary.get("edge_recomputes", 0) for summary in phase.write_summaries]
    return {
        "relational.join_ms": per_read_ms("relational.inner_join"),
        "relational.join_rows": get("read", "relational.inner_join").value / reads,
        "quality.join_quality_ms": per_read_ms("quality.join_quality"),
        "infotheory.correlation_ms": per_read_ms("infotheory.correlation"),
        "infotheory.ji_ms": per_read_ms("infotheory.join_informativeness"),
        "sampling.resample_ms": per_read_ms("sampling.resample"),
        "sampling.hook_fired_ratio": (
            resample.value / resample.calls if resample.calls else 0.0
        ),
        "graph.evaluate_self_ms": per_read_ms("graph.evaluate"),
        "search.evaluations": get("read", "graph.evaluate").calls / reads,
        "search.eval_memo_hit_rate": statistics.fmean(hit_rates) if hit_rates else 0.0,
        "search.mcmc_self_ms": per_read_ms("search.mcmc"),
        "graph.step1_ms": per_read_ms("graph.step1"),
        # One Step-1 lookup per read, and only a miss calls minimal_weight_igraphs
        # (metrics()["step1_memo"] restarts at every write, so it cannot be diffed).
        "service.step1_memo_hit_rate": 1.0 - get("read", "graph.step1").calls / reads,
        "service.session_ms": per_read_ms("service.acquire"),
        "service.queue_wait_ms": waited * 1000 / waits,
        "service.http_ms": client_minus_service * 1000 / reads,
        "quality.afd_write_ms": per_write_ms("quality.discover_afds"),
        "graph.rebuild_write_ms": per_write_ms("graph.join_graph_build"),
        "graph.edge_recomputes_write": statistics.fmean(recomputes) if recomputes else 0.0,
        "storage.checkpoint_write_ms": per_write_ms("storage.persist"),
        "search.shm_deltas_published": float(shared.get("deltas_published", 0)),
        "search.shm_worker_resyncs": float(shared.get("worker_resyncs", 0)),
        "workloads.generate_ms": get("setup", "workloads.generate").self_seconds * 1000,
        "marketplace.sell_samples_ms": (
            get("setup", "marketplace.sell_samples").self_seconds * 1000
        ),
        "quality.afd_setup_ms": get("setup", "quality.discover_afds").self_seconds * 1000,
        "graph.build_setup_ms": get("setup", "graph.join_graph_build").self_seconds * 1000,
        "graph.ji_computations": float(setup_graph.ji_computations),
        "service.evaluation_cache_entries": float(caches["evaluation_cache_entries"]),
        "service.ji_cache_entries": float(caches["ji_cache_entries"]),
    }


def layer_report(spans, phase: Phase) -> str:
    """Per-root layer tables: self time, calls and share per read / write / set-up."""
    totals = trace.aggregate(spans)
    sections = [
        trace.format_table(root, totals, ops)
        for root, ops in (("read", phase.reads_attempted), ("write", phase.writes_attempted),
                          ("setup", 1))
        if (root, root) in totals
    ]
    return "\n".join(sections)
