#!/usr/bin/env python
"""Capture the target-graph evaluations of a benchmark phase, and replay them.

A served read spends most of its cold time in ``TargetGraph.evaluate``
(join, quality, correlation), but perfbench times whole reads, and
churn-tpce evaluates in its pool workers.  This script times the
evaluations themselves.

``capture`` builds a perfbench workload's stack in this process through
``perfbench.workloads`` (which it imports and never changes), with the
scenario's ``plan`` set to ``None`` so that every evaluation runs here.
It then serves the warm-answer check and one measured phase, as perfbench
does, and records every ``TargetGraph.evaluate`` call: the graph, its
tables, request, FDs, pricing, keyword arguments (``ji_cache`` too, or
``weight`` would compute JI) and result.  Tables are stored as name,
schema and columns, without their caches.

``replay`` runs every recorded call once, which builds the tables' caches,
then ``--passes`` timed passes.  It prints a digest of each pass's results
against the recorded one, the time of a pass and of the layers under
``repro.graph.target``'s names ``inner_join``, ``join_quality`` and
``attribute_set_correlation``, and how many correct-row masks the quality
layer built per pass.  It exits 1 if a digest differs.

To compare two trees, export the other one next to this one
(``git archive <commit> | tar -x -C <dir>``), copy this script into its
``scripts/``, and run each tree's copy on the same capture, alternating
the trees, one process per run.

Usage::

    python scripts/replay_evaluations.py capture --workload churn-tpce --seed 7 \\
        --seconds 20 --out evaluations.replay
    python scripts/replay_evaluations.py replay evaluations.replay --passes 5
"""

from __future__ import annotations

import argparse
import copyreg
import dataclasses
import hashlib
import io
import pickle
import statistics
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (_REPO_ROOT / "src", _REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.graph import target as target_module
from repro.graph.target import TargetGraph
from repro.quality import measure as measure_module
from repro.relational.table import Table

#: The first line of every capture; ``replay`` refuses a file without it.
HEADER = b"repro evaluation replay 1\n"
#: The layers a replay times, by their names in ``repro.graph.target``.
LAYERS = ("inner_join", "join_quality", "attribute_set_correlation")


def _bare_table(table: Table) -> tuple:
    """Pickle a table as its name, schema and columns, without its caches."""
    columns = {name: table.column(name) for name in table.schema.names}
    return Table, (table.name, table.schema, columns)


def capture(scenario, seed: int, seconds: float, out: Path) -> int:
    """Record every evaluation of ``scenario``'s warm-answer check and one
    measured phase, served in process; returns how many were recorded."""
    from perfbench import workloads

    scenario = dataclasses.replace(scenario, plan=None)
    records = []
    evaluate = TargetGraph.evaluate

    def recording(graph, tables, source, target, fds, pricing, **kwargs):
        result = evaluate(graph, tables, source, target, fds, pricing, **kwargs)
        request = (list(source), list(target), list(fds))
        records.append((graph, dict(tables), *request, pricing, kwargs, result))
        return result

    with tempfile.TemporaryDirectory(prefix="replay-capture-") as scratch:
        stack = workloads.build(scenario, seed, Path(scratch), None)
        TargetGraph.evaluate = recording
        try:
            if stack.warm_answers:
                workloads.check_warm_answers(stack, scenario)
            workloads.run_phase(stack, scenario, seed, seconds, None)
        finally:
            TargetGraph.evaluate = evaluate
            stack.close()
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {**copyreg.dispatch_table, Table: _bare_table}
    pickler.dump(records)
    out.write_bytes(HEADER + buffer.getvalue())
    return len(records)


class _CaptureUnpickler(pickle.Unpickler):
    """Resolves only the classes a capture holds: the library's and
    ``random.Random`` (a re-sampling policy's generator)."""

    def find_class(self, module: str, name: str):
        if module.startswith("repro.") or (module, name) == ("random", "Random"):
            found = super().find_class(module, name)
            if isinstance(found, type):
                return found
        raise pickle.UnpicklingError(f"a capture does not name {module}.{name}")


def load(path: Path) -> list[tuple]:
    """The records of a file :func:`capture` wrote."""
    data = path.read_bytes()
    if not data.startswith(HEADER):
        raise SystemExit(f"{path} is not an evaluation capture")
    return _CaptureUnpickler(io.BytesIO(data[len(HEADER):])).load()


def digest(results) -> str:
    """blake2b of every result's correlation, quality, weight, price and rows."""
    hasher = hashlib.blake2b(digest_size=8)
    for result in results:
        hasher.update(
            repr(
                (
                    result.correlation.hex(),
                    result.quality.hex(),
                    result.weight.hex(),
                    result.price.hex(),
                    result.join_rows,
                )
            ).encode()
        )
    return hasher.hexdigest()


def _timed(name: str, spent: dict[str, float]):
    function = getattr(target_module, name)

    def timed(*args, **kwargs):
        began = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - began

    return timed


def replay(path: Path, passes: int) -> dict:
    """One pass over every record of ``path``, then ``passes`` timed ones;
    returns the per-pass medians, mask counts and digests."""
    records = load(path)
    spent = dict.fromkeys(LAYERS, 0.0)
    masks = [0]
    correct_row_mask = measure_module.correct_row_mask

    def counting(*args, **kwargs):
        masks[0] += 1
        return correct_row_mask(*args, **kwargs)

    originals = {name: getattr(target_module, name) for name in LAYERS}
    for name in LAYERS:
        setattr(target_module, name, _timed(name, spent))
    measure_module.correct_row_mask = counting
    runs = []
    try:
        for _ in range(passes + 1):
            for name in LAYERS:
                spent[name] = 0.0
            masks[0] = 0
            began = time.perf_counter()
            results = [
                graph.evaluate(tables, source, target, fds, pricing, **kwargs)
                for graph, tables, source, target, fds, pricing, kwargs, _ in records
            ]
            runs.append(
                {
                    "pass_ms": (time.perf_counter() - began) * 1000,
                    **{f"{name}_ms": seconds * 1000 for name, seconds in spent.items()},
                    "masks": masks[0],
                    "digest": digest(results),
                }
            )
    finally:
        for name, function in originals.items():
            setattr(target_module, name, function)
        measure_module.correct_row_mask = correct_row_mask
    timed = runs[1:]
    summary = {
        "evaluations": len(records),
        "recorded_digest": digest(record[-1] for record in records),
        "digests": sorted({run["digest"] for run in runs}),
        "first_pass_ms": runs[0]["pass_ms"],
        "masks_per_pass": sorted({run["masks"] for run in runs}),
    }
    for key in ("pass_ms", *(f"{name}_ms" for name in LAYERS)):
        summary[key] = statistics.median(run[key] for run in timed)
    return summary


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import SCENARIOS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    taking = commands.add_parser("capture", help="record a phase's evaluations")
    taking.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    taking.add_argument("--seed", type=int, required=True)
    taking.add_argument("--seconds", type=float, default=20.0)
    taking.add_argument("--out", type=Path, required=True)
    replaying = commands.add_parser("replay", help="time a capture's evaluations")
    replaying.add_argument("capture", type=Path)
    replaying.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.command == "capture":
        count = capture(SCENARIOS[args.workload], args.seed, args.seconds, args.out)
        print(f"captured {count} evaluations into {args.out}")
        return 0
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    summary = replay(args.capture, args.passes)
    matches = summary["digests"] == [summary["recorded_digest"]]
    print(f"evaluations {summary['evaluations']}, {args.passes} timed passes after one warm")
    print(
        f"digest {','.join(summary['digests'])} recorded {summary['recorded_digest']} "
        f"{'OK' if matches else 'DIFFERS'}"
    )
    print(f"first (cold) pass {summary['first_pass_ms']:.1f} ms")
    print(f"median pass {summary['pass_ms']:.1f} ms")
    for name in LAYERS:
        print(f"  {name} {summary[f'{name}_ms']:.1f} ms")
    print(f"correct-row masks per pass {','.join(map(str, summary['masks_per_pass']))}")
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main())
